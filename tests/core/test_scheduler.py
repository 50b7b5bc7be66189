"""Global scheduler: events, rebalancing, control-plane costs, faults."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.cluster import (ClusterTopology, EnergyReport, FaultSchedule,
                           NetworkFabric, NicDegradation, PreemptionStorm,
                           SoCCrash, StragglerFault)
from repro.core import GlobalScheduler, SoCFlowOptions, TrainingCheckpoint
from repro.distributed import CostModel, RunConfig, Strategy
from repro.jobs import ElasticScheduler
from repro.telemetry import Telemetry


def scheduler(*events, rebalance=True):
    return GlobalScheduler(ClusterTopology(num_socs=20),
                           rebalance=rebalance,
                           fault_schedule=FaultSchedule(events))


def enter(sched, epoch, fabric=None):
    """``sched.enter_epoch`` on a fresh fabric unless one is given."""
    return sched.enter_epoch(epoch, fabric or NetworkFabric(sched.topology))


class TestEvents:
    def test_preemptions_filtered_by_epoch(self):
        sched = scheduler(PreemptionStorm(epoch=2),
                          PreemptionStorm(epoch=5, num_groups=2))
        assert len(enter(sched, 2)[1]) == 1
        assert enter(sched, 3)[1] == []
        assert enter(sched, 5)[1][0].num_groups == 2

    def test_underclock_validation(self):
        with pytest.raises(ValueError):
            StragglerFault(epoch=0, soc=1, factor=0.0)
        with pytest.raises(ValueError):
            StragglerFault(epoch=0, soc=1, factor=1.5)


class TestUnderclocking:
    def test_no_events_no_slowdown(self):
        sched = scheduler()
        enter(sched, 0)
        assert sched.group_slowdown([0, 1, 2]) == 1.0

    def test_rebalanced_slowdown_is_harmonic(self):
        sched = scheduler(StragglerFault(0, soc=0, factor=0.5))
        enter(sched, 0)
        # factors [0.5, 1, 1, 1] -> 4 / 3.5
        assert sched.group_slowdown([0, 1, 2, 3]) == pytest.approx(4 / 3.5)

    def test_straggler_without_rebalancing(self):
        sched = scheduler(StragglerFault(0, soc=0, factor=0.5),
                          rebalance=False)
        enter(sched, 0)
        assert sched.group_slowdown([0, 1, 2, 3]) == pytest.approx(2.0)

    def test_rebalancing_always_at_least_as_fast(self):
        event = StragglerFault(0, soc=0, factor=0.25)
        with_rb = scheduler(event, rebalance=True)
        without = scheduler(event, rebalance=False)
        enter(with_rb, 0)
        enter(without, 0)
        group = [0, 1, 2, 3, 4]
        assert with_rb.group_slowdown(group) <= without.group_slowdown(group)

    def test_event_applies_only_from_its_epoch(self):
        sched = scheduler(StragglerFault(3, soc=0, factor=0.5))
        enter(sched, 1)
        assert sched.group_slowdown([0, 1]) == 1.0
        enter(sched, 3)
        assert sched.group_slowdown([0, 1]) > 1.0

    def test_slowdown_is_direct_product_of_clock_factors(self):
        # direct unit coverage: two slowed SoCs in one group, rebalanced
        sched = scheduler(StragglerFault(0, soc=0, factor=0.5),
                          StragglerFault(0, soc=1, factor=0.25))
        enter(sched, 0)
        # factors [0.5, 0.25, 1, 1] -> 4 / 2.75
        assert sched.group_slowdown([0, 1, 2, 3]) == pytest.approx(4 / 2.75)

    def test_slowdown_ignores_socs_outside_group(self):
        sched = scheduler(StragglerFault(0, soc=19, factor=0.5))
        enter(sched, 0)
        assert sched.group_slowdown([0, 1, 2]) == 1.0


class TestUnderclockingAcrossResume:
    """The checkpoint-restore off-by-one: DVFS state is persistent, so an
    underclock that landed on or before the epoch a checkpoint restores
    into must be in force when ``enter_epoch`` first runs — the clock
    factors are recomputed from the schedule at every epoch."""

    def test_event_before_resume_epoch_still_applies(self):
        sched = scheduler(StragglerFault(2, soc=0, factor=0.5))
        enter(sched, 4)                 # first call after resuming at 4
        assert sched.group_slowdown([0, 1]) == pytest.approx(2 / 1.5)

    def test_event_on_resume_epoch_applies(self):
        # an underclock landing exactly on the epoch the checkpoint
        # restores into used to be skipped when epochs advanced past it
        sched = scheduler(StragglerFault(3, soc=1, factor=0.25))
        enter(sched, 3)
        assert sched.group_slowdown([1, 2, 3, 4]) == pytest.approx(4 / 3.25)

    def test_events_apply_in_epoch_order_not_list_order(self):
        sched = scheduler(StragglerFault(3, soc=0, factor=0.75),
                          StragglerFault(1, soc=0, factor=0.25))
        enter(sched, 5)
        # two underclocks on one SoC: the worst begun by then wins,
        # whatever order the schedule lists them in
        assert sched.group_slowdown([0, 1]) == pytest.approx(2 / 1.25)


class TestFaults:
    def test_no_schedule_is_a_noop(self):
        sched = scheduler()
        fabric = NetworkFabric(sched.topology)
        assert enter(sched, 0, fabric) == (set(), [])
        assert fabric.degraded_pcbs == {}

    def test_dead_socs_tracked_with_recovery(self):
        sched = scheduler(SoCCrash(1, 3), SoCCrash(2, 5, recover_epoch=4))
        fabric = NetworkFabric(sched.topology)
        assert enter(sched, 0, fabric)[0] == set()
        assert enter(sched, 2, fabric)[0] == {3, 5}
        assert enter(sched, 4, fabric)[0] == {3}

    def test_out_of_range_crashes_are_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            scheduler(SoCCrash(0, 99))

    def test_stragglers_fold_into_clock_factors(self):
        sched = scheduler(StragglerFault(1, 0, 0.5))
        fabric = NetworkFabric(sched.topology)
        enter(sched, 0, fabric)
        assert sched.group_slowdown([0, 1]) == 1.0
        enter(sched, 1, fabric)
        assert sched.group_slowdown([0, 1]) == pytest.approx(2 / 1.5)

    def test_nic_multipliers_pushed_into_fabric(self):
        sched = scheduler(NicDegradation(1, 0, 0.25, recover_epoch=3))
        fabric = NetworkFabric(sched.topology)
        enter(sched, 1, fabric)
        assert fabric.degraded_pcbs == {0: 0.25}
        enter(sched, 3, fabric)
        assert fabric.degraded_pcbs == {}

    def test_storms_surface_as_preemptions(self):
        sched = scheduler(PreemptionStorm(2),
                          PreemptionStorm(2, num_groups=3))
        dead, storms = enter(sched, 2)
        assert dead == set()
        assert len(storms) == 2
        assert sum(storm.num_groups for storm in storms) == 4

    def test_recovery_positive_scales_and_is_charged(self, tiny_task):
        sched = scheduler()
        small, large = cost_model(tiny_task, "lenet5"), \
            cost_model(tiny_task, "vgg11")
        survivors = list(range(10))
        small_s = sched.recover(small, survivors)
        large_s = sched.recover(large, survivors)
        assert 0 < small_s < large_s
        # charged to its own phase, with the survivors' NICs busy
        assert small.clock.breakdown() == {"recovery": small_s}
        assert small.energy.report.network_j > 0


def cost_model(task, model_name="lenet5", telemetry=None) -> CostModel:
    """A paper-scale clock on the 20-SoC cluster of :func:`scheduler`."""
    return CostModel(RunConfig(task=task, model_name=model_name,
                               topology=ClusterTopology(num_socs=20)),
                     telemetry=telemetry)


class TestCosts:
    def test_checkpoint_time_scales_with_model(self, tiny_task):
        small, large = cost_model(tiny_task, "lenet5"), \
            cost_model(tiny_task, "vgg11")
        small_s = scheduler().checkpoint(small, "sync", 20)
        large_s = scheduler().checkpoint(large, "update", 20)
        assert large_s / small_s == pytest.approx(
            large.grad_bytes / small.grad_bytes)
        assert small.clock.breakdown() == {"sync": small_s}
        assert large.clock.breakdown() == {"update": large_s}

    def test_checkpoint_charges_the_idle_floor(self, tiny_task):
        """Every clock advance charges energy: while the checkpoint is
        written, the SoCs the run holds draw their idle power."""
        cost = cost_model(tiny_task)
        seconds = scheduler().checkpoint(cost, "sync", 12)
        soc = cost.topology.soc
        assert cost.energy.report == EnergyReport(
            idle_j=seconds * 12 * soc.idle_watts)

    def test_dispatch_covers_all_socs(self, tiny_task):
        sched = scheduler()
        everyone = cost_model(tiny_task)
        t = sched.dispatch(everyone)
        assert t > 0
        assert everyone.clock.breakdown() == {"sync": t}
        # a job's subset: the data shards spread over its SoCs only
        subset = cost_model(tiny_task)
        assert sched.dispatch(subset, socs=[1, 0]) == subset.clock.now > 0

    def test_spans_and_metrics_are_drawn_once(self, tiny_task):
        telemetry = Telemetry.active()
        cost = cost_model(tiny_task, telemetry=telemetry)
        sched = scheduler()
        dispatch_s = sched.dispatch(cost)
        recover_s = sched.recover(cost, [0, 1, 2], name="recovery@1")
        checkpoint_s = sched.checkpoint(cost, "update", 20, epoch=1)
        spans = [(r.kind, r.name, r.dur_s) for r in telemetry.tracer.records
                 if r.kind != "nic_wait"]
        assert spans == [("dispatch", "dispatch", dispatch_s),
                         ("recovery", "recovery@1", recover_s),
                         ("checkpoint", "checkpoint", checkpoint_s)]
        assert cost.clock.now == dispatch_s + recover_s + checkpoint_s
        rows = {row["name"]: row for row in telemetry.metrics.collect()}
        assert rows["recovery.count"]["value"] == 1


class TestOneControlBoard:
    """Control-plane events are priced in one place and the fault
    schedule is read through one epoch entry."""

    SRC = Path(repro.__file__).parent

    def sources(self):
        return {path.relative_to(self.SRC).as_posix(): path.read_text()
                for path in sorted(self.SRC.rglob("*.py"))}

    def test_the_copies_are_gone(self):
        for owner, name in [
                (TrainingCheckpoint, "write_seconds"),
                (TrainingCheckpoint, "nbytes"),
                (GlobalScheduler, "alive_socs_at"),
                (GlobalScheduler, "dead_socs_at"),
                (GlobalScheduler, "dispatch_seconds"),
                (GlobalScheduler, "recovery_seconds"),
                (GlobalScheduler, "checkpoint_seconds"),
                (CostModel, "charge_recovery"),
                (Strategy, "_epoch_fault_state"),
                (ElasticScheduler, "_dead_socs")]:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        # (a recovery record's "recovery_seconds" key is a result field)
        pattern = re.compile(r"(\bdef |\.)(write_seconds|alive_socs_at|"
                             r"charge_recovery|dispatch_seconds|"
                             r"recovery_seconds)\b")
        assert {rel: pattern.findall(text)
                for rel, text in self.sources().items()
                if pattern.search(text)} == {}

    def test_no_dead_soc_filter_remains(self):
        # the schedules are validated against the topology once, when
        # each consumer is built, so no reader re-filters the dead set
        pattern = re.compile(r"\bif 0 <= \w+ < [\w.]*num_socs")
        assert {rel for rel, text in self.sources().items()
                if pattern.search(text)} == set()

    def test_nic_multipliers_read_only_by_the_epoch_entry(self):
        callers = []
        for rel, text in self.sources().items():
            tree = ast.parse(text)
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "nic_multipliers"):
                        callers.append((rel, func.name))
        assert callers == [("cluster/faults.py", "enter_epoch")]

    def test_one_event_timeline(self):
        """Planned preemptions and underclocks are fault-schedule events:
        one input (``RunConfig.fault_schedule``), read once per epoch by
        ``GlobalScheduler.enter_epoch``; the planned-event types and the
        per-kind readers stay deleted."""
        trees = {rel: ast.parse(text) for rel, text in self.sources().items()}
        names = {getattr(node, "name", None) or getattr(node, "id", None)
                 or getattr(node, "attr", None)
                 for tree in trees.values() for node in ast.walk(tree)}
        assert not {"UnderclockEvent", "PreemptionEvent", "apply_underclocks",
                    "apply_faults", "preemptions_at"} & names
        for owner in (SoCFlowOptions, GlobalScheduler):
            assert "events" not in {f.name for f in dataclasses.fields(owner)}
        readers = sorted(
            (rel, node.func.attr) for rel, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("straggler_factors", "storms_at"))
        assert readers == [("core/scheduler.py", "storms_at"),
                           ("core/scheduler.py", "straggler_factors")]
