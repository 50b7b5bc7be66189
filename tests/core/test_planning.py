"""Communication-group division and the pipelined schedule."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology, NetworkFabric
from repro.core import (CommunicationPlan, build_conflict_graph,
                        divide_into_cgs, integrity_greedy_mapping,
                        naive_mapping)
from repro.distributed.base import CostModel
from repro.distributed.pricing import OVERLAP_FRACTION, price_epoch

MB = 1e6


def networkx_cgs(mapping):
    """``divide_into_cgs`` as networkx coloured it before the planner
    stopped importing it: ``bipartite.color`` per component, DSATUR on
    an odd cycle."""
    import networkx as nx
    graph = build_conflict_graph(mapping)
    colors = {}
    for component in nx.connected_components(graph):
        nodes = sorted(component)
        try:
            colors.update(nx.algorithms.bipartite.color(
                graph.subgraph(nodes)))
        except nx.NetworkXError:
            colors.update(nx.coloring.greedy_color(graph.subgraph(nodes),
                                                   strategy="DSATUR"))
    cgs = [[] for _ in range(max(colors.values(), default=0) + 1)]
    for group in range(mapping.num_groups):
        cgs[colors.get(group, 0)].append(group)
    return [cg for cg in cgs if cg]


@pytest.fixture(autouse=True)
def every_plan_is_the_networkx_plan(monkeypatch):
    """Whatever mapping a test of this module plans, directly or
    through ``CommunicationPlan.from_mapping``, gets the CGs networkx
    would have given it."""
    from repro.core import planning
    local = planning.divide_into_cgs

    def checked(mapping):
        cgs = local(mapping)
        assert cgs == networkx_cgs(mapping)
        return cgs

    monkeypatch.setattr(planning, "divide_into_cgs", checked)
    monkeypatch.setitem(globals(), "divide_into_cgs", checked)


def plan_for(num_socs, num_groups, builder=integrity_greedy_mapping):
    topo = ClusterTopology(num_socs=num_socs)
    mapping = builder(topo, num_groups)
    return CommunicationPlan.from_mapping(mapping), NetworkFabric(topo)


class TestConflictGraph:
    def test_no_edges_when_groups_align_with_pcbs(self):
        topo = ClusterTopology(num_socs=20, socs_per_pcb=5)
        mapping = integrity_greedy_mapping(topo, 4)
        graph = build_conflict_graph(mapping)
        assert graph.number_of_edges() == 0

    def test_split_groups_sharing_pcb_conflict(self):
        topo = ClusterTopology(num_socs=15, socs_per_pcb=5)
        mapping = naive_mapping(topo, 5)
        graph = build_conflict_graph(mapping)
        assert graph.number_of_edges() >= 1


class TestCgDivision:
    def test_all_groups_appear_exactly_once(self):
        plan, _ = plan_for(32, 8)
        flat = sorted(g for cg in plan.cgs for g in cg)
        assert flat == list(range(8))

    def test_no_conflicting_pair_in_same_cg(self):
        plan, _ = plan_for(32, 8)
        graph = build_conflict_graph(plan.mapping)
        for cg in plan.cgs:
            members = set(cg)
            for a in cg:
                assert not (set(graph.neighbors(a)) & members)

    @given(st.integers(6, 60), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_integrity_mapping_needs_at_most_two_cgs(self, num_socs,
                                                     num_groups):
        """Theorem 2 -> bipartite -> 2 colours suffice (paper §3.1)."""
        num_groups = min(num_groups, num_socs)
        topo = ClusterTopology(num_socs=num_socs)
        mapping = integrity_greedy_mapping(topo, num_groups)
        assert len(divide_into_cgs(mapping)) <= 2

    @given(st.integers(6, 60), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_naive_mapping_still_gets_valid_colouring(self, num_socs,
                                                      num_groups):
        num_groups = min(num_groups, num_socs)
        topo = ClusterTopology(num_socs=num_socs)
        mapping = naive_mapping(topo, num_groups)
        cgs = divide_into_cgs(mapping)
        graph = build_conflict_graph(mapping)
        for cg in cgs:
            members = set(cg)
            for a in cg:
                assert not (set(graph.neighbors(a)) & members)


class TestOddCycleFallback:
    def test_triangle_conflict_graph_gets_three_cgs(self):
        """Hand-built mapping where three split groups pairwise share
        PCBs (an odd cycle): the bipartite 2-colouring cannot apply and
        the DSATUR fallback must produce a valid 3-colouring."""
        from repro.core.mapping import MappingResult
        topo = ClusterTopology(num_socs=9, socs_per_pcb=3)
        groups = [[0, 3],   # PCBs 0,1
                  [4, 6],   # PCBs 1,2
                  [1, 7],   # PCBs 0,2  -> triangle with the first two
                  [2], [5], [8]]
        mapping = MappingResult(groups, topo)
        graph = build_conflict_graph(mapping)
        assert graph.number_of_edges() == 3
        cgs = divide_into_cgs(mapping)
        assert len(cgs) == 3
        for cg in cgs:
            members = set(cg)
            for a in cg:
                assert not (set(graph.neighbors(a)) & members)


class TestScheduleCosts:
    """The Figure 7 hiding rule, through the one function that prices
    it (``pricing.price_epoch``): with planning, CG k's communication
    hides under CG k+1's compute and the residual is whatever the
    compute window cannot absorb; without it all rings contend and only
    the generic overlap fraction applies.  ``slowdown`` scales the
    compute window."""

    @staticmethod
    def price(quick_config, **kwargs):
        cost = CostModel(quick_config)
        mapping = integrity_greedy_mapping(quick_config.topology,
                                           quick_config.num_groups)
        plan = CommunicationPlan.from_mapping(mapping)
        return price_epoch(cost, mapping, plan, **kwargs), plan, cost

    def test_planned_sequence_no_worse_than_unplanned(self, quick_config):
        planned, plan, cost = self.price(quick_config)
        unplanned, _, _ = self.price(quick_config, planning=False)
        # sequencing trades concurrency for contention-freedom; with the
        # pipeline hiding it must not lose overall
        assert planned.busy_s == pytest.approx(sum(
            plan.planned_sync_seconds(cost.fabric, cost.grad_bytes)))
        assert planned.sync_s <= unplanned.sync_s
        assert planned.sync_s <= unplanned.busy_s

    def test_full_hiding_when_compute_dominates(self, quick_config):
        charge, _, _ = self.price(quick_config, slowdown=1e9)
        assert charge.sync_s == 0.0
        assert charge.hidden_s == charge.busy_s > 0

    def test_no_hiding_without_compute(self, quick_config):
        charge, plan, cost = self.price(quick_config, slowdown=0.0)
        total = sum(plan.planned_sync_seconds(cost.fabric, cost.grad_bytes))
        assert charge.compute_s == 0.0 and charge.hidden_s == 0.0
        assert charge.sync_s == pytest.approx(total)

    def test_unplanned_ignores_compute(self, quick_config):
        for slowdown in (0.0, 1.0, 100.0):
            charge, plan, cost = self.price(quick_config, planning=False,
                                            slowdown=slowdown)
            assert charge.busy_s == pytest.approx(
                plan.unplanned_sync_seconds(cost.fabric, cost.grad_bytes))
            # no schedule to hide under: the generic overlap only
            assert charge.hidden_s == pytest.approx(min(
                charge.busy_s, OVERLAP_FRACTION * charge.compute_s))
            assert charge.cg_times is None

    def test_num_cgs_property(self):
        plan, _ = plan_for(32, 8)
        assert plan.num_cgs == len(plan.cgs)
