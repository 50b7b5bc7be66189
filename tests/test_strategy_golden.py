"""Golden digests of every registry strategy: clean, fail-stop and
continue, eager and ``graph=True``, two seeds.

Recorded at the parent of the one-epoch-loop refactor (four hand-copied
``train`` bodies) and required to hold after it.  Per run, sha-256 of
``repr`` of

``result``
    accuracy history, ``sim_time_s``, ``breakdown``, the energy report
    and ``extra`` (sorted, minus the ``graph_*`` host counters)
``trace``
    the exported JSONL trace
``metrics``
    the exported JSONL metrics

on ``lenet5_fmnist``/``quick``, 16 SoCs, 3 epochs.  A mismatch is a
moved paper-facing number, span or series, not a tolerance drift.  The
table lives in ``strategy_golden.json`` beside this file; regenerate it
with ``PYTHONPATH=src python tests/test_strategy_golden.py`` — and say
in CHANGES.md which digests moved and why.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.faults import parse_fault_spec
from repro.distributed import STRATEGY_REGISTRY, build_strategy
from repro.harness.experiments import make_run_config
from repro.telemetry import Telemetry
from repro.telemetry.export import to_jsonl

FAULTS = "crash:epoch=1,soc=3;flap:epoch=1,pcb=0,mult=0.2,until=2"
FAULT_MODES = ("clean", "fail-stop", "continue")
SEEDS = (0, 1)

# Re-recorded by the one-epoch-loop refactor, 38 of 96 (58 are the
# parent's): ``ssp`` fail-stop and continue (it reads the fault
# schedule now) and ``fedavg``/``t_fedavg`` continue (the round sync is
# re-priced on the degraded fabric) — all three digests; trace + metrics
# only for ``ssp``/``fedavg``/``t_fedavg`` clean and fail-stop under
# ``graph`` (they publish ``graph.*`` and the ``graph_replay`` span now)
# and for every ``local`` run (epoch rows, ``epoch`` spans and series).
# The one fault reader then moved trace + metrics (never the result) of
# the 56 fail-stop/continue runs of the seven cluster strategies: they
# draw the ``fault`` onset events and ``faults.injected`` counts.
# The 12 ``ssp`` traces moved (never result or metrics) when its
# parameter-server sync lump gained its ``sync`` span.  All 96 moved
# when every strategy came to apply one charge per epoch: results by
# summation order only (within 1e-13 relative; ``fedavg``/``t_fedavg``
# bit-identical, their breakdown now listing ``sync`` before
# ``update``), traces to one step window per epoch, and metrics where
# the series moved with the results or (``--graph``) the ``graph.*``
# series gained their ``precision`` label.
GOLDEN_PATH = Path(__file__).with_name("strategy_golden.json")


def sha(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode()).hexdigest()


def base_config(seed: int):
    """The run every case derives from; its synthetic task is the
    expensive part, so one per seed serves the whole matrix."""
    return make_run_config("lenet5_fmnist", "quick", num_socs=16,
                           max_epochs=3, seed=seed)


def run_digests(base, method: str, fault_mode: str, graph: bool) -> dict:
    config = replace(base, graph=graph, telemetry=Telemetry.active())
    if fault_mode != "clean":
        config = replace(
            config, fault_mode=fault_mode,
            fault_schedule=parse_fault_spec(FAULTS, config.topology))
    result = build_strategy(method).train(config)
    extra = sorted((key, value) for key, value in result.extra.items()
                   if not key.startswith("graph_"))
    return {
        "result": sha((result.accuracy_history, result.sim_time_s,
                       result.breakdown, result.energy, extra)),
        "trace": sha(to_jsonl(config.telemetry.tracer)),
        "metrics": sha(config.telemetry.metrics.to_jsonl()),
    }


def case_key(method, fault_mode, graph, seed) -> str:
    return f"{method}/{fault_mode}/{'graph' if graph else 'eager'}/seed{seed}"


#: key -> (method, fault mode, graph, seed)
CASES = {case_key(*case): case
         for case in ((method, fault_mode, graph, seed)
                      for method in STRATEGY_REGISTRY
                      for fault_mode in FAULT_MODES
                      for graph in (False, True)
                      for seed in SEEDS)}


@pytest.fixture(scope="session")
def base_configs():
    return {seed: base_config(seed) for seed in SEEDS}


@pytest.fixture(scope="session")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden(base_configs, golden, key):
    method, fault_mode, graph, seed = CASES[key]
    assert run_digests(base_configs[seed], method, fault_mode, graph) \
        == golden[key]


if __name__ == "__main__":                              # pragma: no cover
    bases = {seed: base_config(seed) for seed in SEEDS}
    table = {key: run_digests(bases[seed], method, fault_mode, graph)
             for key, (method, fault_mode, graph, seed) in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
