"""``--workers N`` must be bit-identical to sequential execution.

Logical groups are independent between sync points (DESIGN.md decision
2), so the parallel group-major schedule is a pure reordering of the
sequential step-major one.  These tests pin the strong form of that
claim: byte-identical final weights, metrics JSONL and simulated clock,
with and without a fault schedule, over shared-memory and pickle
transports.
"""

import numpy as np
import pytest

from repro.cluster.faults import FaultSchedule, NicDegradation, SoCCrash
from repro.core import SoCFlow, SoCFlowOptions
from repro.harness import make_run_config
from repro.telemetry import MetricsRegistry, Telemetry

#: ext-4-style schedule: a 4-crash burst on one SoC plus a degraded NIC
def headline_faults():
    return FaultSchedule(
        [SoCCrash(1, epoch) for epoch in (4, 5, 6, 7)] +
        [NicDegradation(2, pcb=2, multiplier=0.25, recover_epoch=3)])


def train(workers, precision="fp32", faults=False, epochs=2):
    telemetry = Telemetry(metrics=MetricsRegistry())
    config = make_run_config(
        "vgg11", "quick", num_socs=16, num_groups=4, max_epochs=epochs,
        workers=workers, telemetry=telemetry,
        fault_schedule=headline_faults() if faults else None)
    result = SoCFlow(SoCFlowOptions(precision=precision)).train(config)
    return result, telemetry.metrics.to_jsonl()


def assert_identical(res_a, metrics_a, res_b, metrics_b):
    state_a = res_a.extra["final_state"]
    state_b = res_b.extra["final_state"]
    assert list(state_a) == list(state_b)
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key
    assert res_a.accuracy_history == res_b.accuracy_history
    assert res_a.sim_time_s == res_b.sim_time_s
    assert metrics_a == metrics_b


def test_workers4_bit_identical_on_table3_workload():
    seq = train(workers=1)
    par = train(workers=4)
    assert_identical(*seq, *par)


def test_workers4_bit_identical_under_fault_schedule():
    seq = train(workers=1, precision="mixed", faults=True)
    par = train(workers=4, precision="mixed", faults=True)
    assert_identical(*seq, *par)


def test_workers2_pickle_transport_bit_identical(monkeypatch):
    # force the pickle fallback (hosts without POSIX shared memory)
    from repro.parallel import pool
    monkeypatch.setattr(pool, "_shared_memory", None)
    seq = train(workers=1)
    par = train(workers=2)
    assert_identical(*seq, *par)


def test_single_worker_executor_is_sequential():
    from repro.parallel import LgExecutor
    config = make_run_config("vgg11", "quick", num_socs=16, num_groups=4,
                             max_epochs=1, workers=1)
    executor = LgExecutor(config, quant=None, precision="fp32",
                          t_cpu=1.0, t_npu=0.5, workers=1)
    assert not executor.parallel
    executor.close()


def test_workers_validation():
    with pytest.raises(ValueError):
        make_run_config("vgg11", "quick", num_socs=16, num_groups=4,
                        max_epochs=1, workers=0)
