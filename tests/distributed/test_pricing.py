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
import math
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.cluster import PhaseClock
from repro.core import SoCFlow, SoCFlowOptions
from repro.core.mapping import integrity_greedy_mapping
from repro.core.planning import CommunicationPlan
from repro.distributed import (STRATEGY_REGISTRY, CostModel, FedAvg,
                               LocalSingleSoC, ParameterServer,
                               RingAllReduce, build_strategy, make_model,
                               pricing)
from repro.distributed.ssgd import SsgdStrategy
from repro.jobs import TrainingJob
from repro.jobs.execution import JobExecution
from repro.telemetry import analyze_records

from ..test_pricing_golden import FAULTS, TOPOLOGY, make_config, run_digests

#: lenet5 has 10 parameter tensors: ops -> bucket count
MAX_OPS = {1: 10, 2: 5, 3: 4, 5: 2}

REL = 1e-9

#: a NIC flap on PCB 0 for epochs 0 and 1: every query retries
FLAP = "flap:epoch=0,pcb=0,mult=0.2,until=2"


def build(method: str):
    return (SoCFlow(SoCFlowOptions()) if method == "socflow"
            else build_strategy(method))


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
    clamped_steps = 0
    for window, row in zip(report.epochs, telemetry.epoch_rows):
        # one plan per charge: a span per bucket iff buckets were
        # charged, never under the CG schedule's full window
        buckets_here = in_epoch(records, window, "bucket_sync")
        assert len(buckets_here) in (0, buckets)
        assert not (planning and buckets_here)
        compute = in_epoch(records, window, "compute")
        if not buckets_here:
            clamped_steps += compute[0].args["steps"]
        compute_end = max(r.end_s for r in compute)
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
    counter = telemetry.metrics.counter("sync.fusion_clamped")
    assert counter.value == clamped_steps


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "continue"])
@pytest.mark.parametrize("buckets", sorted(MAX_OPS))
def test_ring_spans_tile_the_clock(tiny_task, buckets, faults):
    config = make_config(tiny_task, faults=faults, fault_mode="continue",
                         fusion_max_ops=MAX_OPS[buckets])
    result = build_strategy("ring").train(config)
    report = assert_trace_tiles_clock(config.telemetry, result)
    records = config.telemetry.tracer.records
    steps = CostModel(config).steps_per_epoch
    clamped_steps = 0
    for window in report.epochs:
        # an epoch's steps are one charge: every bucket is drawn once,
        # scaled by the steps, or none is and the steps are counted
        drawn = len(in_epoch(records, window, "bucket_sync"))
        assert drawn in (0, buckets)
        clamped_steps += 0 if drawn else steps
    counter = config.telemetry.metrics.counter("sync.fusion_clamped")
    assert counter.value == clamped_steps


@pytest.mark.parametrize("faults", [None, FLAP], ids=["clean", "flap"])
@pytest.mark.parametrize("fusion", [{}, dict(fusion_max_ops=2)],
                         ids=["whole", "ops2"])
@pytest.mark.parametrize("method", sorted(STRATEGY_REGISTRY) + ["socflow"])
def test_every_strategy_trace_tiles_the_clock(tiny_task, method, fusion,
                                              faults):
    """Every charge a run makes passes the ``EpochCharge`` invariant,
    and every second the clock advances is drawn."""
    config = make_config(tiny_task, faults=faults, **fusion)
    assert_trace_tiles_clock(config.telemetry, build(method).train(config))


@pytest.mark.parametrize("fields", [
    dict(hidden_s=2.0),                   # more hidden than compute
    dict(hidden_s=-1e-12),
    dict(sync_s=-1e-12),
    dict(hidden_s=float("nan")),
], ids=["hidden_past_compute", "negative_hidden", "negative_sync", "nan"])
def test_a_charge_never_hides_more_than_its_compute(fields):
    charge = dict(steps=1, compute_s=1.0, sync_s=0.5, hidden_s=0.3,
                  update_s=0.1, cpu_busy_s=1.0, npu_busy_s=0.0, num_socs=4)
    pricing.EpochCharge(**charge)
    with pytest.raises(ValueError, match="hides"):
        pricing.EpochCharge(**{**charge, **fields})


@pytest.mark.parametrize("fusion", [dict(fusion_max_ops=2),
                                    dict(fusion_threshold_mb=4.0)],
                         ids=["ops2", "mb4"])
@pytest.mark.parametrize("method", ["socflow", "ring", "ps"])
def test_a_lost_bucket_plan_is_the_fusion_off_run(tiny_task, method, fusion):
    """A bucket plan that loses on every step is not charged at all:
    result and trace are byte for byte the fusion-off run's, its
    retries and ``nic_wait`` spans included, and every step is counted
    as clamped."""
    fused = make_config(tiny_task, faults=FLAP, **fusion)
    assert run_digests(build(method), fused) == run_digests(
        build(method), make_config(tiny_task, faults=FLAP))
    assert fused.telemetry.metrics.counter("sync.fusion_clamped").value > 0


def test_unclamped_bucket_timeline_is_drawn_as_priced(tiny_task):
    """ResNet-18 under PS is the configuration where bucketing wins
    (deep compute window, long incast): the bucket plan is charged, and
    the bucket spans are the overlap timeline itself."""
    config = make_config(tiny_task, model_name="resnet18",
                         fusion_threshold_mb=4.0)
    cost = CostModel(config, telemetry=config.telemetry)
    layout = make_model(config).flatten_parameters().layout
    charge = ParameterServer()._price_epoch(cost, layout, 12)
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
    steps, tail_s = charge.steps, charge.tail_s
    assert tail_s == sum(charge.tail_cg_times) + charge.leader_s > 0
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
# every strategy applies one charge per epoch
# ----------------------------------------------------------------------
def _ps_tail(cost, steps):
    """SSP's shape: one parameter-server sync every 8 steps."""
    socs = list(range(cost.topology.num_socs))
    return steps // 8 * cost.fabric.parameter_server_time(
        socs, cost.grad_bytes)


#: shape -> (the step's collective, the epoch's tail seconds)
SHAPES = {
    "ring": (lambda cost: partial(RingAllReduce().step_sync_seconds, cost),
             lambda cost, steps: 0.0),
    "ssp": (lambda cost: None, _ps_tail),
    "fedavg": (lambda cost: None,
               lambda cost, steps: FedAvg().round_sync_seconds(cost)),
}


@pytest.mark.parametrize("flap", [False, True], ids=["clean", "flap"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_an_n_step_charge_is_n_one_step_charges_and_its_tail(
        tiny_task, shape, flap):
    """``apply(price_epoch(steps=n, tail_s=t))`` is the per-step loop it
    replaced: n one-step applies, then ``charge_epoch_sync(t)``."""
    collective, tail = SHAPES[shape]
    steps, num_socs = 31, TOPOLOGY.num_socs

    def fresh():
        config = make_config(tiny_task)
        cost = CostModel(config, telemetry=config.telemetry)
        if flap:
            cost.fabric.set_pcb_multiplier(0, 0.2)   # every query retries
        return cost, tail(cost, steps)

    def price(cost, **epoch):
        return pricing.price_epoch(
            cost, num_socs=num_socs, collective=collective(cost),
            compute_s=cost.compute_seconds(64 / num_socs, "cpu"), **epoch)

    whole, tail_s = fresh()
    pricing.apply(whole, price(whole, steps=steps, tail_s=tail_s))
    stepped, _ = fresh()
    one = price(stepped)
    for _ in range(steps):
        pricing.apply(stepped, one)
    stepped.charge_epoch_sync(tail_s, num_socs)

    assert (tail_s > 0) == (shape != "ring")
    assert (whole.fabric.total_retries > 0) == flap
    assert whole.fabric.total_retries == stepped.fabric.total_retries
    assert whole.clock.now == pytest.approx(stepped.clock.now, rel=1e-12)
    for view in ("breakdown", "attributed_breakdown"):
        a, b = getattr(whole.clock, view)(), getattr(stepped.clock, view)()
        assert a == pytest.approx(b, rel=1e-12), view
    assert dataclasses.asdict(whole.energy.report) == pytest.approx(
        dataclasses.asdict(stepped.energy.report), rel=1e-12)


@pytest.mark.parametrize("method", sorted(STRATEGY_REGISTRY))
def test_every_strategy_draws_one_compute_span_per_epoch(tiny_task, method):
    """One charge per epoch: one ``compute`` span, carrying the epoch's
    steps; under fusion a lost bucket plan counts every one of them."""
    config = make_config(tiny_task, fusion_max_ops=2, max_epochs=3)
    strategy = build_strategy(method)
    result = strategy.train(config)
    records = config.telemetry.tracer.records
    compute = [r for r in records if r.kind == "compute"]
    assert len(compute) == result.epochs_run == 3
    per_epoch = (math.ceil(config.sim_samples_per_epoch / TOPOLOGY.num_socs
                           / config.sim_global_batch)   # a client's shard
                 if isinstance(strategy, FedAvg)
                 else CostModel(config).steps_per_epoch)
    assert [r.args["steps"] for r in compute] == [per_epoch] * 3
    steps = 3 * per_epoch
    assert not [r for r in records if r.kind == "bucket_sync"]
    # the S-SGD family's collective is bucketed and its plan lost; SSP,
    # the FedAvg pair and the one-SoC column have no in-step collective
    bucketed = (isinstance(strategy, SsgdStrategy)
                and not isinstance(strategy, LocalSingleSoC))
    clamped = config.telemetry.metrics.counter("sync.fusion_clamped").value
    assert clamped == (steps if bucketed else 0)


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


def test_no_strategy_loops_over_the_steps():
    """An epoch's steps are one charge: nothing under ``src`` iterates
    ``range(….steps_per_epoch)`` to apply or charge a step at a time."""
    root = Path(repro.__file__).parent
    loops = [f"{path.relative_to(root).as_posix()}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call)
             and getattr(node.iter.func, "id", None) == "range"
             and any(getattr(arg, "attr", None) == "steps_per_epoch"
                     for arg in node.iter.args)]
    assert loops == []


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
