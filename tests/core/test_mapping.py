"""Integrity-greedy mapping: Theorems 1–2 as executable properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology
from repro.core import (contention_degree, integrity_greedy_mapping,
                        naive_mapping, nic_conflict_count)


class TestBasics:
    def test_groups_partition_all_socs(self):
        topo = ClusterTopology(num_socs=32)
        mapping = integrity_greedy_mapping(topo, 8)
        members = sorted(s for g in mapping.groups for s in g)
        assert members == list(range(32))

    def test_group_sizes_balanced(self):
        topo = ClusterTopology(num_socs=32)
        mapping = integrity_greedy_mapping(topo, 8)
        sizes = [len(g) for g in mapping.groups]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_group_count_raises(self):
        topo = ClusterTopology(num_socs=10)
        with pytest.raises(ValueError):
            integrity_greedy_mapping(topo, 0)
        with pytest.raises(ValueError):
            naive_mapping(topo, 11)


class TestPaperExample:
    """Figure 5c: 15 SoCs, PCBs of 5, logical groups of 3."""

    def test_whole_groups_fit_per_pcb(self):
        topo = ClusterTopology(num_socs=15, socs_per_pcb=5)
        mapping = integrity_greedy_mapping(topo, 5)
        # exactly three groups must be intact (one per PCB), two split
        assert len(mapping.split_groups) == 2
        assert mapping.conflict_count() <= 2

    def test_matches_naive_on_paper_example(self):
        # On Figure 5c's own instance both mappings reach the optimum C=2.
        topo = ClusterTopology(num_socs=15, socs_per_pcb=5)
        greedy = integrity_greedy_mapping(topo, 5)
        naive = naive_mapping(topo, 5)
        assert nic_conflict_count(greedy) <= nic_conflict_count(naive) == 2

    def test_strictly_beats_naive_when_whole_groups_fit(self):
        # 20 SoCs, 5 groups of 4: greedy keeps four groups intact and
        # spreads one across PCBs (C=1); naive splits three (C=2).
        topo = ClusterTopology(num_socs=20, socs_per_pcb=5)
        greedy = integrity_greedy_mapping(topo, 5)
        naive = naive_mapping(topo, 5)
        assert nic_conflict_count(greedy) < nic_conflict_count(naive)


class TestTheorems:
    @given(st.integers(6, 60), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_theorem1_never_worse_than_naive(self, num_socs, num_groups):
        """Integrity-greedy minimises C, so it is <= naive's C."""
        num_groups = min(num_groups, num_socs)
        topo = ClusterTopology(num_socs=num_socs)
        greedy = integrity_greedy_mapping(topo, num_groups)
        naive = naive_mapping(topo, num_groups)
        assert nic_conflict_count(greedy) <= nic_conflict_count(naive)

    @given(st.integers(6, 60), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_theorem2_contention_degree_at_most_two(self, num_socs,
                                                    num_groups):
        """Each logical group contends with <= 2 others for a NIC."""
        num_groups = min(num_groups, num_socs)
        topo = ClusterTopology(num_socs=num_socs)
        mapping = integrity_greedy_mapping(topo, num_groups)
        for g in range(mapping.num_groups):
            assert contention_degree(mapping, g) <= 2

    @given(st.integers(6, 60), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_partition_is_exact_for_any_shape(self, num_socs, num_groups):
        num_groups = min(num_groups, num_socs)
        topo = ClusterTopology(num_socs=num_socs)
        for builder in (integrity_greedy_mapping, naive_mapping):
            mapping = builder(topo, num_groups)
            members = sorted(s for g in mapping.groups for s in g)
            assert members == list(range(num_socs))


class TestConflictAccounting:
    def test_intact_groups_never_conflict(self):
        topo = ClusterTopology(num_socs=20, socs_per_pcb=5)
        mapping = integrity_greedy_mapping(topo, 4)  # groups of 5 = PCB size
        assert mapping.split_groups == set()
        assert mapping.conflict_count() == 0
        assert contention_degree(mapping, 0) == 0

    def test_inter_pcb_groups_on(self):
        topo = ClusterTopology(num_socs=15, socs_per_pcb=5)
        mapping = naive_mapping(topo, 5)
        # group 1 = SoCs 3..5 spans PCB0/PCB1
        assert 1 in mapping.inter_pcb_groups_on(0)
        assert 1 in mapping.inter_pcb_groups_on(1)
