"""Self-test of the claims benchmark at ``--scale smoke``.

Not part of tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

It drives ``bench.py`` exactly as the driver does — one subprocess per
run, the result read off the last line of standard output — so what it
checks is the contract, not the internals.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: per-layer counts that may be zero on every workload here: the first
#: three whenever all is well, the last two because smoke-sized tenants
#: finish before the tide or the flash crowd takes their floor away
MAY_BE_ZERO = {"nn.graph_fallbacks", "serving.shed",
               "serving.slo_violation_windows",
               "jobs.preemptions", "serving.preempted_socs"}


def bench(*args: str, cwd: Path = ROOT,
          script: Path = HERE / "bench.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke_run(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def end_to_end() -> dict:
    return {w: smoke_run(w, trace=0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def per_layer() -> dict:
    return {w: smoke_run(w, trace=1) for w in WORKLOADS}


def _assert_matches_spec(result: dict, metrics: "list[dict]") -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for metric in metrics:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


def test_benchmark_json_and_workloads_py_agree():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    assert list(workloads.WORKLOADS) == WORKLOADS
    for sizes in workloads.SCALES.values():
        assert list(sizes) == WORKLOADS


def test_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(end_to_end, workload):
    result = end_to_end[workload]
    _assert_matches_spec(result, SPEC["end_to_end"])
    assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_metrics_repeat_exactly(end_to_end, workload):
    again = smoke_run(workload, trace=0)["metrics"]
    for name in ("sim_epoch_s", "train_epochs_completed"):
        assert again[name] == end_to_end[workload]["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted(per_layer, workload):
    # a patch target that cannot be found makes the run incorrect, so
    # ``correct`` here also means: no layer has a missing span
    _assert_matches_spec(per_layer[workload], SPEC["per_layer"])


def test_every_per_layer_metric_is_exercised_somewhere(per_layer):
    idle = [m["name"] for m in SPEC["per_layer"]
            if all(per_layer[w]["metrics"][m["name"]]["value"] == 0
                   for w in WORKLOADS)]
    assert set(idle) <= MAY_BE_ZERO, idle


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "benchmarks" / "e2e" / "bench.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
