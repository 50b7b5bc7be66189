#!/usr/bin/env python3
"""Alternating parent/change pairs over the unmodified claims benchmark.

    git archive <parent-rev> | tar -x -C /root/scratch/parent
    python3 benchmarks/pair.py --parent /root/scratch/parent \\
        --pairs 10 --seeds 0 1 --out /root/scratch/pairs.json

Each *pair* is one driver-form run of ``benchmarks/e2e/bench.py``
(``--workload W --seed N --seconds S --trace 0``) in the parent checkout
and one in the change checkout (default: this one), each with its own
``bench.py`` and ``src/``; which side goes first flips every pair, so
drift of the box lands on both.  Per workload, seed and end-to-end
metric of ``BENCHMARK.json`` the report gives each side's median and
quartiles, the change's median against the parent's in the metric's
*worse* direction, who won how many pairs, and a verdict:

``ok``          the change's median is no worse than the bound
``WORSE``       it is worse by more than the bound
``unresolved``  a side's quartiles are further apart than the bound, so
                the runs cannot tell (unless every run of the change
                beats every run of the parent)
``exact``/``DIFFERS``  for the metrics that are exact by seed

A verdict ends in ``, gain`` when the claim rule of a perf PR holds:
of at least ten pairs the change wins nine in ten, and the medians
differ by more than the parent's own interquartile distance.  The exact-by-seed
outputs (each unit's ``exact`` block) are compared once per workload
and seed; ``--traced`` also runs the per-layer pass on both sides and
reports its operation counts (a missing span is a failed operation
there).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path("benchmarks") / "e2e" / "bench.py"
SIDES = ("parent", "change")


def bench(checkout: Path, *args: str, env: "dict | None" = None) -> dict:
    """One ``bench.py`` process in ``checkout``; its last output line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH), *args], cwd=checkout, text=True,
        capture_output=True, env=env)
    if proc.returncode not in (0, 1):       # 1 = ran, a check failed
        raise SystemExit(f"{checkout}: bench.py {' '.join(args)} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def driver_run(checkout: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    return bench(checkout, "--workload", workload, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", str(trace))


def exact_block(checkout: Path, workload: str, seed: int) -> dict:
    """The exact-by-seed outputs of one unit (``bench.py``'s own unit
    protocol, BLAS pinned as its runner pins it)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    unit = bench(checkout, "--unit", "--workload", workload, "--seed",
                 str(seed), "--scale", "full", "--spawned-at",
                 repr(time.time()), env=env)
    return unit["exact"]


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: "list[float]",
          change: "list[float]") -> dict:
    """One row of the report for one (workload, seed, metric)."""
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse = ((c_med - p_med) if lower else (p_med - c_med)) / p_med \
        if p_med else 0.0
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    if len(parent) > 1 and len(set(parent)) == 1 and len(set(change)) == 1:
        # no run-to-run spread on either side: exact by seed
        verdict = "exact" if parent[0] == change[0] else "DIFFERS"
    elif worse > metric["bound"]:
        verdict = "WORSE"
    elif spread > metric["bound"] and not all(
            better(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "ok"
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and abs(c_med - p_med) > p_q3 - p_q1):
        verdict += ", gain"
    return {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "worse": worse, "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "spread": spread,
            "verdict": verdict}


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed-region seconds per run (both sides)")
    parser.add_argument("--traced", action="store_true",
                        help="also one per-layer pass per side")
    parser.add_argument("--out", type=Path,
                        help="write every run made here as JSON")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / BENCH).is_file():
            parser.error(f"--{side}: no {BENCH} under {path}")

    record = {"pairs": args.pairs, "seconds": args.seconds, "cases": []}
    bad = 0
    print("| workload | seed | metric | parent q1 / median / q3 "
          "| change q1 / median / q3 | worse by | bound | change wins "
          "/ parent wins / ties | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        for seed in args.seeds:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(driver_run(
                        checkouts[side], workload, seed, args.seconds, 0))
            case = {"workload": workload, "seed": seed, "runs": runs,
                    "rows": {}}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = {side: [run["metrics"][name]["value"]
                                 for run in runs[side]] for side in SIDES}
                row = case["rows"][name] = judge(
                    metric, values["parent"], values["change"])
                bad += row["verdict"] in ("WORSE", "DIFFERS")
                cells = ["{:.5g} / {:.5g} / {:.5g}".format(*row[side])
                         for side in SIDES]
                print(f"| {workload} | {seed} | {name} | {cells[0]} | "
                      f"{cells[1]} | {row['worse']:+.1%} | "
                      f"{metric['bound']:.0%} | {row['wins']} / "
                      f"{row['losses']} / {row['ties']} | "
                      f"{row['verdict']} |")
            ops = {side: sorted({(run["attempted"], run["failed"])
                                 for run in runs[side]}) for side in SIDES}
            exact = {side: exact_block(checkouts[side], workload, seed)
                     for side in SIDES}
            case["exact_equal"] = exact["parent"] == exact["change"]
            case["operations"] = ops
            notes = [f"exact block "
                     f"{'identical' if case['exact_equal'] else 'DIFFERS'}",
                     f"(attempted, failed) parent {ops['parent']} "
                     f"change {ops['change']}"]
            bad += not case["exact_equal"]
            bad += (max(f for _, f in ops["change"])
                    > max(f for _, f in ops["parent"]))
            if args.traced:
                traced = {side: driver_run(checkouts[side], workload, seed,
                                           args.seconds, 1)
                          for side in SIDES}
                case["traced"] = traced
                notes.append("traced pass (attempted, failed) " + ", ".join(
                    f"{side} ({traced[side]['attempted']}, "
                    f"{traced[side]['failed']})" for side in SIDES))
                bad += traced["change"]["failed"] > traced["parent"]["failed"]
            print(f"| {workload} | {seed} | — | " + "; ".join(notes)
                  + " | | | | | |")
            sys.stdout.flush()
            record["cases"].append(case)
            if args.out is not None:
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
