"""Physical topology geometry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology


class TestLayout:
    def test_default_is_paper_server(self):
        topo = ClusterTopology()
        assert topo.num_socs == 60
        assert topo.socs_per_pcb == 5
        assert topo.num_pcbs == 12

    def test_pcb_of(self):
        topo = ClusterTopology(num_socs=12, socs_per_pcb=5)
        assert topo.pcb_of(0) == 0
        assert topo.pcb_of(4) == 0
        assert topo.pcb_of(5) == 1
        assert topo.pcb_of(11) == 2

    def test_partial_last_pcb(self):
        topo = ClusterTopology(num_socs=12, socs_per_pcb=5)
        assert topo.num_pcbs == 3
        assert topo.socs_on_pcb(2) == [10, 11]

    def test_same_pcb(self):
        topo = ClusterTopology(num_socs=10, socs_per_pcb=5)
        assert topo.same_pcb(0, 4)
        assert not topo.same_pcb(4, 5)

    def test_crossings(self):
        topo = ClusterTopology(num_socs=15, socs_per_pcb=5)
        assert topo.crossings([0, 1, 2]) == 0
        assert topo.crossings([4, 5]) == 1
        assert topo.crossings([0, 5, 10]) == 2

    def test_out_of_range_validation(self):
        topo = ClusterTopology(num_socs=10, socs_per_pcb=5)
        with pytest.raises(ValueError):
            topo.pcb_of(10)
        with pytest.raises(ValueError):
            topo.socs_on_pcb(2)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            ClusterTopology(num_socs=0)


class TestRestricted:
    @given(st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_every_soc_belongs_to_exactly_one_pcb(self, num_socs):
        topo = ClusterTopology(num_socs=num_socs)
        members = [s for p in range(topo.num_pcbs)
                   for s in topo.socs_on_pcb(p)]
        assert sorted(members) == list(range(num_socs))
