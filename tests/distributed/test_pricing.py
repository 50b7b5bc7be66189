"""The one epoch charge: spans tile the clock for any bucket plan, both
group-wise callers charge the same epoch, and nothing else moves the
clock.

``tests/test_pricing_golden.py`` pins the numbers; this file pins the
properties that hold by construction — each of them failed at the
parent of the one-charge refactor, where the epoch was priced three
times and the spans were drawn by a fourth, hand-synchronised formula.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.cluster import PhaseClock
from repro.core import SoCFlow, SoCFlowOptions
from repro.core.mapping import integrity_greedy_mapping
from repro.core.planning import CommunicationPlan
from repro.distributed import (CostModel, ParameterServer, build_strategy,
                               make_model, pricing)
from repro.distributed.ssgd import SsgdStrategy
from repro.jobs import TrainingJob
from repro.jobs.execution import JobExecution
from repro.telemetry import analyze_records

from ..test_pricing_golden import FAULTS, TOPOLOGY, make_config

#: lenet5 has 10 parameter tensors: ops -> bucket count
MAX_OPS = {1: 10, 2: 5, 3: 4, 5: 2}

REL = 1e-9


def in_epoch(records, window, kind, name=None):
    return [r for r in records
            if r.kind == kind and (name is None or r.name == name)
            and window.start_s <= r.ts_s < window.end_s]


def assert_trace_tiles_clock(telemetry, result):
    """The by-construction contract of spans drawn from the charge."""
    records = telemetry.tracer.records
    report = analyze_records(records)
    assert max(r.end_s for r in records) == pytest.approx(
        result.sim_time_s, rel=1e-12)
    for window in report.windows:
        assert window.coverage >= 0.99, \
            f"{window.label}: {window.coverage:.3%} covered"
    assert len(report.epochs) == len(telemetry.epoch_rows)
    for window, row in zip(report.epochs, telemetry.epoch_rows):
        assert window.hidden_sync_s == pytest.approx(row["hidden_s"],
                                                     rel=REL)
    return report


@pytest.mark.parametrize("planning", [True, False],
                         ids=["planned", "unplanned"])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faults"])
@pytest.mark.parametrize("buckets", sorted(MAX_OPS))
def test_socflow_spans_tile_the_clock(tiny_task, buckets, faults, planning):
    config = make_config(tiny_task, faults=faults,
                         fusion_max_ops=MAX_OPS[buckets])
    result = SoCFlow(SoCFlowOptions(planning=planning)).train(config)
    telemetry = config.telemetry
    report = assert_trace_tiles_clock(telemetry, result)
    records = telemetry.tracer.records
    if faults is None:
        assert result.extra["num_cgs"] == 2
    for window, row in zip(report.epochs, telemetry.epoch_rows):
        buckets_here = in_epoch(records, window, "bucket_sync")
        assert len(buckets_here) == buckets
        compute_end = max(r.end_s for r in in_epoch(records, window,
                                                    "compute"))
        (update,) = in_epoch(records, window, "update")
        # the in-step allreduce spans tile [compute_end, update start] ...
        spans = in_epoch(records, window, "allreduce", name="allreduce")
        by_cg: dict = {}
        for span in spans:
            by_cg.setdefault(span.cg, set()).add((span.ts_s, span.end_s))
        cursor = compute_end
        for cg in sorted(by_cg, key=lambda c: (c is None, c)):
            ((start, end),) = by_cg[cg]
            assert start == pytest.approx(cursor, rel=1e-12)
            cursor = end
        assert cursor == pytest.approx(update.ts_s, rel=1e-12)
        assert planning == (None not in by_cg)
        # ... which is exactly the visible sync the clock advanced by:
        # the epoch's sync phase minus its hidden share and the tail
        tail = in_epoch(records, window, "allreduce", name="allreduce:tail")
        tail_s = sum({r.cg: r.dur_s for r in tail}.values())
        leaders = in_epoch(records, window, "leader_sync")
        if leaders:
            tail_s += leaders[0].dur_s
        assert update.ts_s - compute_end == pytest.approx(
            row["sync_s"] - row["hidden_s"] - tail_s, rel=REL, abs=1e-9)
        # no bucket outlives the step window it rides in
        for span in buckets_here:
            assert span.ts_s >= window.start_s
            assert span.end_s <= update.ts_s * (1 + 1e-12)


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "continue"])
@pytest.mark.parametrize("buckets", sorted(MAX_OPS))
def test_ring_spans_tile_the_clock(tiny_task, buckets, faults):
    config = make_config(tiny_task, faults=faults, fault_mode="continue",
                         fusion_max_ops=MAX_OPS[buckets])
    result = build_strategy("ring").train(config)
    report = assert_trace_tiles_clock(config.telemetry, result)
    records = config.telemetry.tracer.records
    steps = CostModel(config).steps_per_epoch
    for window in report.epochs:
        assert len(in_epoch(records, window, "bucket_sync")) \
            == buckets * steps


def test_unclamped_bucket_timeline_is_drawn_as_priced(tiny_task):
    """ResNet-18 under PS is the configuration where bucketing wins
    (deep compute window, long incast): the clamp stays out of it, and
    the bucket spans are the overlap timeline itself."""
    config = make_config(tiny_task, model_name="resnet18",
                         fusion_threshold_mb=4.0)
    cost = CostModel(config, telemetry=config.telemetry)
    layout = make_model(config).flatten_parameters().layout
    charge = ParameterServer()._price_step(cost, layout, 12)
    assert not charge.clamped and len(charge.bucket_schedule) > 1
    assert charge.bucket_schedule[-1][1] == pytest.approx(
        charge.compute_s + charge.sync_s)
    assert sum(hidden for _, _, hidden in charge.bucket_schedule) \
        == pytest.approx(charge.hidden_s, rel=REL)
    pricing.apply(cost, charge)
    tracer = config.telemetry.tracer
    assert max(r.end_s for r in tracer.records) == pytest.approx(
        cost.clock.now, rel=1e-12)
    assert config.telemetry.metrics.counter("sync.fusion_clamped").value == 0


def test_fusion_clamp_is_counted_per_clamped_step(tiny_task):
    config = make_config(tiny_task, fusion_max_ops=2, max_epochs=1)
    SoCFlow(SoCFlowOptions()).train(config)
    cost = CostModel(config)
    mapping = integrity_greedy_mapping(TOPOLOGY, 4)
    charge = pricing.price_epoch(
        cost, mapping, CommunicationPlan.from_mapping(mapping),
        layout=make_model(config).flatten_parameters().layout)
    assert charge.clamped
    clamped = config.telemetry.metrics.counter("sync.fusion_clamped")
    assert clamped.value == charge.steps
    assert not any("clamp" in r.name for r in config.telemetry.tracer.records)


# ----------------------------------------------------------------------
# price_epoch is clock-free; apply is where the tail is observed
# ----------------------------------------------------------------------
def test_price_epoch_moves_nothing_and_defers_the_tail(tiny_task):
    config = make_config(tiny_task, fusion_max_ops=5)
    cost = CostModel(config, telemetry=config.telemetry)
    cost.fabric.set_pcb_multiplier(0, 0.2)        # every query retries
    mapping = integrity_greedy_mapping(TOPOLOGY, 4)
    plan = CommunicationPlan.from_mapping(mapping)
    layout = make_model(config).flatten_parameters().layout
    energy0 = dataclasses.replace(cost.energy.report)

    charge = pricing.price_epoch(cost, mapping, plan, cpu_share=0.4,
                                 layout=layout)
    assert cost.clock.now == 0.0 and cost.clock.breakdown() == {}
    assert cost.energy.report == energy0
    in_step_retries = cost.fabric.total_retries
    assert in_step_retries > 0 and charge.tail_observations
    tracer = config.telemetry.tracer
    assert {r.kind for r in tracer.records} == {"nic_wait"}
    assert all(r.ts_s == 0.0 for r in tracer.records)

    pricing.apply(cost, charge)
    steps = charge.steps
    tail_s = sum(charge.tail_cg_times) + charge.leader_s
    assert cost.clock.now == pytest.approx(
        steps * (charge.compute_s + charge.sync_s + charge.update_s)
        + tail_s, rel=1e-12)
    assert cost.clock.attributed_breakdown() == {
        "sync": steps * charge.hidden_s}
    assert cost.fabric.total_retries == in_step_retries + sum(
        retries for retries, _ in charge.tail_observations)
    # the tail's nic_wait spans are stamped where the tail starts
    tail_t0 = cost.clock.now - tail_s
    late = [r for r in tracer.records if r.kind == "nic_wait" and r.ts_s > 0]
    assert late and all(r.ts_s == pytest.approx(tail_t0) for r in late)


def test_charge_step_is_the_single_step_charge(tiny_task):
    """``charge_step`` and a hand-built ``steps=1`` charge are the same
    clock, energy and spans."""
    def fresh():
        config = make_config(tiny_task)
        return CostModel(config, telemetry=config.telemetry)
    by_step, by_charge = fresh(), fresh()
    by_step.charge_step(2.0, 1.5, 12, cpu_fraction=0.25)
    hidden = min(1.5, pricing.OVERLAP_FRACTION * 2.0)
    pricing.apply(by_charge, pricing.EpochCharge(
        steps=1, compute_s=2.0, sync_s=1.5 - hidden, hidden_s=hidden,
        update_s=by_charge.update_seconds(), cpu_busy_s=0.5,
        npu_busy_s=1.5, num_socs=12, cpu_fraction=0.25))
    assert by_step.clock.now == by_charge.clock.now
    assert by_step.clock.breakdown() == by_charge.clock.breakdown()
    assert by_step.energy.report == by_charge.energy.report
    assert by_step.telemetry.tracer.records \
        == by_charge.telemetry.tracer.records


# ----------------------------------------------------------------------
# SoCFlow.train and JobExecution charge the same epoch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fused", [False, True], ids=["whole", "fused"])
@pytest.mark.parametrize("mixed", [False, True], ids=["fp32", "mixed"])
def test_socflow_and_job_charge_the_same_epochs(tiny_task, mixed, fused):
    fusion = dict(fusion_max_ops=3) if fused else {}
    config = make_config(tiny_task, **fusion)
    result = SoCFlow(SoCFlowOptions(
        precision="mixed" if mixed else "fp32")).train(config)
    rows = config.telemetry.epoch_rows

    job = TrainingJob("job", "tiny", min_socs=4, max_socs=12, epochs=2,
                      target_group_size=3, mixed=mixed)
    execution = JobExecution(job, dataclasses.replace(config, telemetry=None))
    clock = execution.cost.clock
    try:
        execution.place(list(range(12)))
        for row in rows:
            now0, phases0 = clock.now, clock.breakdown()
            hidden0 = clock.attributed_breakdown().get("sync", 0.0)
            seconds = execution.run_epoch()
            phases1 = clock.breakdown()
            assert seconds == clock.now - now0 == row["seconds"]
            for phase in ("compute", "sync", "update"):
                assert phases1[phase] - phases0.get(phase, 0.0) \
                    == row[f"{phase}_s"], phase
            assert clock.attributed_breakdown().get("sync", 0.0) - hidden0 \
                == row["hidden_s"]
    finally:
        execution.close()
    # same real math, so the same alpha drove the same CPU shares
    assert list(execution.controller.history) \
        == result.extra["alpha_history"]
    assert execution.history == result.accuracy_history
    assert clock.now == result.sim_time_s
    assert clock.breakdown() == result.breakdown
    assert execution.cost.energy.report == result.energy


# ----------------------------------------------------------------------
# Structure: one place prices, one place moves the clock
# ----------------------------------------------------------------------
#: every file allowed to advance a clock or charge an energy meter
CLOCK_MOVERS = {
    "cluster/clock.py", "cluster/energy.py",     # the meters themselves
    "distributed/pricing.py",                    # apply(): the epoch charge
    "distributed/base.py",                       # CostModel.charge_* one-liners
    "jobs/scheduler.py",                         # the tenants' shared timeline
    "distributed/fedavg.py",                     # client rounds
}


def clock_and_energy_calls(tree) -> "list[str]":
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        owner = owner.attr if isinstance(owner, ast.Attribute) \
            else getattr(owner, "id", None)
        method = node.func.attr
        if (owner == "clock" and method in ("advance", "attribute")) or (
                owner == "energy" and method.startswith("charge_")):
            found.append(f"{owner}.{method}")
    return found


def test_only_the_listed_modules_move_the_clock():
    root = Path(repro.__file__).parent
    movers = {}
    for path in sorted(root.rglob("*.py")):
        calls = clock_and_energy_calls(ast.parse(path.read_text()))
        if calls:
            movers[path.relative_to(root).as_posix()] = calls
    assert set(movers) <= CLOCK_MOVERS, \
        {k: v for k, v in movers.items() if k not in CLOCK_MOVERS}
    # the scan sees what it is meant to see
    assert "clock.advance" in movers["distributed/pricing.py"]
    assert "energy.charge_mixed" in movers["distributed/pricing.py"]


def test_the_hand_synchronised_copies_are_gone():
    for owner, name in [(SoCFlow, "_charge_epoch"),
                        (SoCFlow, "_emit_step_spans"),
                        (SoCFlow, "_emit_tail_spans"),
                        (SoCFlow, "_record_epoch_telemetry"),
                        (SoCFlow, "_profile_logits"),
                        (JobExecution, "_charge_epoch"),
                        (SsgdStrategy, "bucketed_step_sync"),
                        (PhaseClock, "merge")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
