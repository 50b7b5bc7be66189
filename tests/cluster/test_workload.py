"""Session simulator and its busy timeline (Figure 1's loop)."""

import numpy as np

from repro.cluster import (ClusterTopology, Session, SessionIndex,
                           SessionSimulator)


def simulator(seed=0, socs=60):
    return SessionSimulator(ClusterTopology(num_socs=socs), seed=seed)


def busy_curve(sim, sessions):
    """(hours, busy fraction) every quarter hour: the simulated Fig. 3."""
    hours = np.arange(0.0, 24.0, 0.25)
    index = SessionIndex(sessions)
    busy = np.array([index.busy_count_at(h) for h in hours])
    return hours, busy / sim.topology.num_socs


class TestSession:
    def test_end_hour(self):
        assert Session(0, 10.0, 0.5).end_hour == 10.5


class TestSimulation:
    def test_daytime_much_busier_than_night(self):
        sim = simulator()
        sessions = sim.simulate_day()
        hours, busy = busy_curve(sim, sessions)
        day = busy[(hours >= 12) & (hours < 16)].mean()
        night = busy[(hours >= 3) & (hours < 7)].mean()
        assert day > 5 * max(night, 0.01)

    def test_sessions_assigned_to_valid_socs(self):
        sim = simulator(socs=10)
        for session in sim.simulate_day():
            assert 0 <= session.soc < 10
            assert session.duration_hours > 0

    def test_no_soc_runs_overlapping_sessions(self):
        sim = simulator(socs=10)
        sessions = sim.simulate_day()
        by_soc: dict[int, list[Session]] = {}
        for session in sessions:
            by_soc.setdefault(session.soc, []).append(session)
        for group in by_soc.values():
            group.sort(key=lambda s: s.start_hour)
            for a, b in zip(group, group[1:]):
                assert a.end_hour <= b.start_hour + 1e-9

    def test_deterministic(self):
        a = simulator(seed=3).simulate_day()
        b = simulator(seed=3).simulate_day()
        assert a == b

    def test_busy_socs_at(self):
        sessions = [Session(0, 1.0, 2.0), Session(1, 5.0, 1.0)]
        assert SessionSimulator.busy_socs_at(sessions, 2.0) == {0}
        assert SessionSimulator.busy_socs_at(sessions, 5.5) == {1}
        assert SessionSimulator.busy_socs_at(sessions, 10.0) == set()

    def test_busy_curve_mirrors_trace_shape(self):
        """The simulated curve correlates with the analytic trace."""
        sim = simulator()
        sessions = sim.simulate_day()
        hours, busy = busy_curve(sim, sessions)
        analytic = np.array([sim.trace.busy_ratio(h) for h in hours])
        assert np.corrcoef(busy, analytic)[0, 1] > 0.7


class TestDroppedSessions:
    def test_saturation_counts_drops(self):
        """Tiny server + daytime-sized load: overload is counted, never
        silent — arrivals either land as sessions or show up in the
        drop counter."""
        sim = SessionSimulator(ClusterTopology(num_socs=2),
                               peak_sessions_per_hour=120.0, seed=0)
        sessions = sim.simulate_day()
        assert sim.dropped_sessions > 0
        assert len(sessions) > 0

    def test_light_load_drops_nothing(self):
        sim = SessionSimulator(ClusterTopology(num_socs=60),
                               peak_sessions_per_hour=2.0,
                               mean_session_hours=0.1, seed=0)
        sim.simulate_day()
        assert sim.dropped_sessions == 0

    def test_counter_resets_per_day(self):
        sim = SessionSimulator(ClusterTopology(num_socs=2),
                               peak_sessions_per_hour=120.0, seed=0)
        sim.simulate_day()
        first = sim.dropped_sessions
        sim.simulate_day()
        # overwritten by the new day, not accumulated
        assert sim.dropped_sessions != first or first == 0

    def test_deterministic(self):
        def drops(seed):
            sim = SessionSimulator(ClusterTopology(num_socs=2),
                                   peak_sessions_per_hour=120.0,
                                   seed=seed)
            sim.simulate_day()
            return sim.dropped_sessions
        assert drops(7) == drops(7)


class TestSessionIndex:
    def test_matches_naive_scan(self):
        sessions = simulator(socs=20).simulate_day()
        index = SessionIndex(sessions)
        for hour in np.arange(0.0, 24.0, 0.5):
            naive = {s.soc for s in sessions
                     if s.start_hour <= hour < s.end_hour}
            assert index.busy_socs_at(hour) == naive
            assert index.busy_count_at(hour) == len(naive)

    def test_idle_complement(self):
        index = SessionIndex([Session(1, 1.0, 2.0), Session(3, 1.5, 1.0)])
        assert index.idle_socs_at(2.0, 4) == [0, 2]
        assert index.idle_socs_at(10.0, 4) == [0, 1, 2, 3]

    def test_boundary_semantics(self):
        # same half-open predicate as the original scan
        index = SessionIndex([Session(0, 1.0, 2.0)])
        assert index.busy_socs_at(1.0) == {0}
        assert index.busy_socs_at(3.0) == set()

    def test_empty(self):
        index = SessionIndex([])
        assert len(index) == 0
        assert index.busy_socs_at(5.0) == set()
        assert index.busy_count_at(1.0) == 0


class TestIdleSocsAt:
    def test_complement_of_busy(self):
        sim = simulator(socs=4)
        sessions = [Session(1, 1.0, 2.0), Session(3, 1.5, 1.0)]
        assert sim.idle_socs_at(sessions, 2.0) == [0, 2]
        assert sim.idle_socs_at(sessions, 10.0) == [0, 1, 2, 3]

    def test_empty_at_full_load(self):
        sim = simulator(socs=3)
        sessions = [Session(s, 0.0, 5.0) for s in range(3)]
        assert sim.idle_socs_at(sessions, 1.0) == []
