"""Fault injection: events, schedules, the injector, spec parsing, and
degraded-link behaviour of the network fabric."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (ClusterTopology, FaultInjector, FaultSchedule,
                           FaultSpecError, Flow, NetworkFabric,
                           NicDegradation, PreemptionStorm, SoCCrash,
                           StragglerFault, parse_fault_spec)
from repro.comm import RetryPolicy


class TestEventValidation:
    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            SoCCrash(-1, 0)

    def test_recovery_must_follow_crash(self):
        with pytest.raises(ValueError):
            SoCCrash(3, 0, recover_epoch=3)

    def test_nic_multiplier_range(self):
        with pytest.raises(ValueError):
            NicDegradation(0, 0, 0.0)
        with pytest.raises(ValueError):
            NicDegradation(0, 0, 1.0)

    def test_straggler_factor_range(self):
        with pytest.raises(ValueError):
            StragglerFault(0, 0, 1.5)

    def test_storm_needs_positive_groups(self):
        with pytest.raises(ValueError):
            PreemptionStorm(0, num_groups=0)


class TestFaultSchedule:
    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule(("not an event",))

    def test_dead_socs_respects_recovery_window(self):
        schedule = FaultSchedule((SoCCrash(2, 7, recover_epoch=5),))
        assert schedule.dead_socs(1) == set()
        assert schedule.dead_socs(2) == {7}
        assert schedule.dead_socs(4) == {7}
        assert schedule.dead_socs(5) == set()

    def test_permanent_crash_never_recovers(self):
        schedule = FaultSchedule((SoCCrash(1, 0),))
        assert schedule.dead_socs(100) == {0}

    def test_nic_multipliers_compound_and_expire(self):
        schedule = FaultSchedule((
            NicDegradation(1, 0, 0.5, recover_epoch=4),
            NicDegradation(2, 0, 0.5, recover_epoch=3),
            NicDegradation(1, 3, 0.25),
        ))
        assert schedule.nic_multipliers(0) == {}
        assert schedule.nic_multipliers(1) == {0: 0.5, 3: 0.25}
        assert schedule.nic_multipliers(2) == {0: 0.25, 3: 0.25}
        assert schedule.nic_multipliers(3) == {0: 0.5, 3: 0.25}
        assert schedule.nic_multipliers(4) == {3: 0.25}

    def test_straggler_factors_are_persistent_and_take_worst(self):
        schedule = FaultSchedule((StragglerFault(1, 0, 0.5),
                                  StragglerFault(3, 0, 0.8)))
        assert schedule.straggler_factors(0) == {}
        assert schedule.straggler_factors(2) == {0: 0.5}
        assert schedule.straggler_factors(3) == {0: 0.5}

    def test_len_and_truth(self):
        schedule = FaultSchedule((SoCCrash(4, 0), PreemptionStorm(2)))
        assert len(schedule) == 2
        assert bool(schedule)
        assert not FaultSchedule(())

    def test_validate_for_rejects_out_of_range_ids(self):
        topo = ClusterTopology(num_socs=10)
        with pytest.raises(ValueError):
            FaultSchedule((SoCCrash(0, 10),)).validate_for(topo)
        with pytest.raises(ValueError):
            FaultSchedule((NicDegradation(0, 99, 0.5),)).validate_for(topo)


class TestFaultInjector:
    COUNTS = dict(num_crashes=4, num_flaps=2, num_stragglers=3)

    def test_same_seed_same_schedule(self):
        topo = ClusterTopology(num_socs=32)
        a = FaultInjector(topo, seed=7).sample(10, **self.COUNTS)
        b = FaultInjector(topo, seed=7).sample(10, **self.COUNTS)
        assert a.events == b.events

    def test_different_seed_different_schedule(self):
        topo = ClusterTopology(num_socs=32)
        a = FaultInjector(topo, seed=1).sample(12, **self.COUNTS)
        b = FaultInjector(topo, seed=2).sample(12, **self.COUNTS)
        assert a.events != b.events

    def test_epoch_zero_stays_clean(self):
        topo = ClusterTopology(num_socs=16)
        for seed in range(8):
            schedule = FaultInjector(topo, seed=seed).sample(
                3, num_crashes=8, num_flaps=3, num_stragglers=8)
            assert len(schedule) == 19
            assert all(e.epoch >= 1 for e in schedule)

    def test_sample_exact_counts(self):
        topo = ClusterTopology(num_socs=32)
        schedule = FaultInjector(topo, seed=3).sample(
            8, num_crashes=4, num_flaps=1, num_stragglers=2)
        crashes = [e for e in schedule if isinstance(e, SoCCrash)]
        flaps = [e for e in schedule if isinstance(e, NicDegradation)]
        stragglers = [e for e in schedule if isinstance(e, StragglerFault)]
        assert len(crashes) == 4 and len(flaps) == 1 and len(stragglers) == 2
        # distinct SoCs across crashes and stragglers
        socs = [e.soc for e in crashes + stragglers]
        assert len(set(socs)) == len(socs)

    def test_sample_rejects_impossible_counts(self):
        topo = ClusterTopology(num_socs=4)
        with pytest.raises(ValueError):
            FaultInjector(topo, seed=0).sample(4, num_crashes=5)
        with pytest.raises(ValueError):
            FaultInjector(topo, seed=0).sample(1, num_crashes=1)


class TestSpecParsing:
    def test_crash_clause(self):
        schedule = parse_fault_spec("crash:epoch=1,soc=3,until=4")
        (event,) = schedule.events
        assert event == SoCCrash(1, 3, 4)

    def test_flap_alias_and_storm_default(self):
        schedule = parse_fault_spec(
            "flap:epoch=2,pcb=0,mult=0.2;storm:epoch=3")
        kinds = {type(e) for e in schedule}
        assert kinds == {NicDegradation, PreemptionStorm}
        storm = next(e for e in schedule if isinstance(e, PreemptionStorm))
        assert storm.num_groups == 1

    def test_random_clause_needs_topology(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("random:seed=1,epochs=4,crashes=2")
        topo = ClusterTopology(num_socs=16)
        schedule = parse_fault_spec("random:seed=1,epochs=4,crashes=2", topo)
        assert len(schedule) == 2

    @pytest.mark.parametrize("bad", [
        "",
        "   ;  ",
        "bogus",
        "warp:epoch=1",
        "crash:epoch=1",                        # missing soc
        "crash:epoch=1,soc",                    # no value
        "crash:epoch=one,soc=2",                # non-int
        "nic:epoch=1,pcb=0,mult=2.0",           # multiplier out of range
        "crash:epoch=1,soc=2,warp=9",           # unknown field
        "straggler:epoch=1,soc=2",              # missing factor
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_out_of_range_soc_rejected_with_topology(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("crash:epoch=1,soc=99",
                             ClusterTopology(num_socs=10))


class TestRetryPolicy:
    def test_healthy_links_never_retry(self):
        policy = RetryPolicy()
        assert policy.retries_for(1.0) == 0
        assert policy.retries_for(0.9) == 0
        assert policy.penalty_seconds(0) == 0.0

    def test_retries_grow_with_severity_and_cap(self):
        policy = RetryPolicy(max_retries=5, degraded_threshold=0.5)
        r = [policy.retries_for(m) for m in (0.5, 0.25, 0.1, 0.01, 1e-9)]
        assert r == sorted(r)
        assert r[0] >= 1
        assert r[-1] == 5

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(timeout_s=1.0, backoff_base_s=1.0,
                             backoff_factor=2.0)
        # 3 retries: 3 timeouts + backoffs 1 + 2 + 4
        assert policy.penalty_seconds(3) == pytest.approx(3.0 + 7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(degraded_threshold=0.0)


class TestDegradedFabric:
    def _fabric(self, num_socs=10):
        return NetworkFabric(ClusterTopology(num_socs=num_socs))

    def test_multiplier_slows_cross_pcb_transfers(self):
        fabric = self._fabric()
        flow = [Flow(0, 9, 1e8)]                # PCB 0 -> PCB 1
        healthy = fabric.transfer_time(flow)
        fabric.set_pcb_multiplier(0, 0.75)      # above retry threshold
        degraded = fabric.transfer_time(flow)
        assert degraded > healthy
        assert fabric.total_retries == 0

    def test_deep_degradation_pays_retries(self):
        fabric = self._fabric()
        flow = [Flow(0, 9, 1e8)]
        fabric.set_pcb_multiplier(0, 0.1)
        before = fabric.transfer_time(flow)
        assert fabric.total_retries > 0
        # the penalty is additive on top of the slower link
        fabric2 = self._fabric()
        fabric2.set_pcb_multiplier(0, 0.1)
        policy = fabric2.retry_policy
        expected_penalty = policy.penalty_seconds(policy.retries_for(0.1))
        healthy = self._fabric().transfer_time(flow)
        assert before > healthy * (1 / 0.1) * 0.5
        assert before == pytest.approx(
            healthy + 1e8 * 8 * (1 / (1e9 * 0.1) - 1 / 1e9)
            + expected_penalty)

    def test_unrelated_pcb_unaffected(self):
        fabric = self._fabric()
        fabric.set_pcb_multiplier(1, 0.1)
        intra = [Flow(0, 1, 1e8)]               # stays on PCB 0
        assert fabric.transfer_time(intra) == \
            self._fabric().transfer_time(intra)

    def test_reset_and_replace(self):
        fabric = self._fabric()
        fabric.set_pcb_multiplier(0, 0.5)
        fabric.apply_pcb_multipliers({1: 0.25})
        assert fabric.degraded_pcbs == {1: 0.25}
        fabric.apply_pcb_multipliers({})        # an epoch with no NIC fault
        assert fabric.degraded_pcbs == {}
        fabric.set_pcb_multiplier(1, 1.0)       # 1.0 clears the entry
        assert fabric.degraded_pcbs == {}

    def test_invalid_multiplier_rejected(self):
        fabric = self._fabric()
        with pytest.raises(ValueError):
            fabric.set_pcb_multiplier(0, 0.0)
        with pytest.raises(ValueError):
            fabric.set_pcb_multiplier(99, 0.5)

    def test_degraded_ring_allreduce_slower(self):
        fabric = self._fabric()
        ring = list(range(10))
        healthy = fabric.ring_allreduce_time(ring, 1e7)
        fabric.set_pcb_multiplier(0, 0.2)
        assert fabric.ring_allreduce_time(ring, 1e7) > healthy

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_any_multiplier_never_speeds_up_transfers(self, mult):
        fabric = self._fabric()
        flow = [Flow(0, 9, 1e7)]
        healthy = fabric.transfer_time(flow)
        fabric.set_pcb_multiplier(0, mult)
        assert fabric.transfer_time(flow) >= healthy
