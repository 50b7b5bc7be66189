"""Network fabric: transfer-time physics, contention, paper calibration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterTopology, Flow, NetworkFabric
from repro.cluster.network import CONTROL_BOARD
from repro.cluster.spec import model_profile

MB = 1e6


def fabric(num_socs=32):
    return NetworkFabric(ClusterTopology(num_socs=num_socs))


class TestTransferTime:
    def test_empty_flows_zero(self):
        assert fabric().transfer_time([]) == 0.0

    def test_single_intra_pcb_flow(self):
        fab = fabric()
        t = fab.transfer_time([Flow(0, 1, 125 * MB)])  # 1 Gb over 1 Gbps
        assert t == pytest.approx(1.0, rel=0.01)

    def test_cross_pcb_flow_same_time_when_uncontended(self):
        fab = fabric()
        intra = fab.transfer_time([Flow(0, 1, 10 * MB)])
        inter = fab.transfer_time([Flow(0, 7, 10 * MB)])
        assert inter == pytest.approx(intra, rel=0.01)

    def test_shared_pcb_nic_contention(self):
        fab = fabric()
        # two flows leaving PCB 0 at once share its 1 Gbps NIC
        solo = fab.transfer_time([Flow(0, 7, 10 * MB)])
        duo = fab.transfer_time([Flow(0, 7, 10 * MB), Flow(1, 8, 10 * MB)])
        assert duo == pytest.approx(2 * solo, rel=0.05)

    def test_full_duplex_no_contention(self):
        fab = fabric()
        # one flow out of PCB 0 and one into it: opposite directions
        solo = fab.transfer_time([Flow(0, 7, 10 * MB)])
        both = fab.transfer_time([Flow(0, 7, 10 * MB), Flow(8, 1, 10 * MB)])
        assert both == pytest.approx(solo, rel=0.05)

    def test_control_board_route(self):
        fab = fabric()
        t = fab.transfer_time([Flow(0, CONTROL_BOARD, 10 * MB)])
        assert t > 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, 1, -5)


class TestRingAllReduce:
    def test_grows_with_ring_size(self):
        fab = fabric()
        payload = model_profile("vgg11").payload_bytes()
        t5 = fab.ring_allreduce_time(list(range(5)), payload)
        t32 = fab.ring_allreduce_time(list(range(32)), payload)
        assert t32 > t5

    def test_calibration_intra_pcb_vgg11(self):
        """Paper §2.3: intra-PCB ring for VGG-11 takes 540 ms."""
        fab = fabric()
        t = fab.ring_allreduce_time(list(range(5)),
                                    model_profile("vgg11").payload_bytes())
        assert 0.35 <= t <= 0.95

    def test_calibration_32soc_resnet18(self):
        """Paper §2.3: 32-SoC ring for ResNet-18 takes 2225 ms."""
        fab = fabric()
        t = fab.ring_allreduce_time(list(range(32)),
                                    model_profile("resnet18").payload_bytes())
        assert 1.4 <= t <= 3.2

    def test_single_node_only_startup(self):
        fab = fabric()
        t = fab.ring_allreduce_time([0], 10 * MB)
        assert t == pytest.approx(fab.topology.startup_per_soc_s)

    def test_concurrent_rings_contend_across_pcbs(self):
        fab = fabric(num_socs=10)
        # two rings that both straddle the PCB0/PCB1 boundary
        r1 = [3, 5]
        r2 = [4, 6]
        solo = fab.concurrent_ring_allreduce_time([r1], 20 * MB)
        both = fab.concurrent_ring_allreduce_time([r1, r2], 20 * MB)
        assert both > solo * 1.5

    def test_concurrent_rings_free_when_disjoint_pcbs(self):
        fab = fabric(num_socs=10)
        r1 = [0, 1, 2]   # PCB 0 only
        r2 = [5, 6, 7]   # PCB 1 only
        solo = fab.concurrent_ring_allreduce_time([r1], 20 * MB)
        both = fab.concurrent_ring_allreduce_time([r1, r2], 20 * MB)
        assert both == pytest.approx(solo, rel=0.05)


class TestTensorScaledStartup:
    def test_small_models_start_collectives_faster(self):
        topo = ClusterTopology(num_socs=32)
        lenet = NetworkFabric(topo, num_tensors=10)
        resnet = NetworkFabric(topo, num_tensors=62)
        assert lenet.startup_per_soc_s < resnet.startup_per_soc_s / 3

    def test_resnet18_startup_matches_paper(self):
        """§2.3: 32-SoC ResNet-18 aggregation startup ~= 1300 ms."""
        fab = NetworkFabric(ClusterTopology(num_socs=32), num_tensors=62)
        assert 1.0 <= 32 * fab.startup_per_soc_s <= 1.6

    def test_default_uses_topology_value(self):
        topo = ClusterTopology(num_socs=8)
        assert NetworkFabric(topo).startup_per_soc_s == \
            topo.startup_per_soc_s


class TestParameterServer:
    def test_calibration_32soc_vgg11(self):
        """Paper §2.3: 32-SoC PS sync for VGG-11 takes 20.6 s."""
        fab = fabric()
        t = fab.parameter_server_time(list(range(32)),
                                      model_profile("vgg11").payload_bytes())
        assert 14.0 <= t <= 26.0

    def test_ps_slower_than_ring_at_scale(self):
        fab = fabric()
        payload = model_profile("vgg11").payload_bytes()
        socs = list(range(32))
        assert (fab.parameter_server_time(socs, payload)
                > 3 * fab.ring_allreduce_time(socs, payload))

    def test_control_board_server_faster(self):
        fab = fabric()
        payload = model_profile("vgg11").payload_bytes()
        socs = list(range(32))
        on_soc = fab.parameter_server_time(socs, payload)
        on_ctrl = fab.parameter_server_time(socs + [CONTROL_BOARD], payload,
                                            server=CONTROL_BOARD)
        assert on_ctrl < on_soc


class TestTreeAggregate:
    def test_tree_faster_than_soc_ps(self):
        fab = fabric()
        payload = model_profile("vgg11").payload_bytes()
        topo = fab.topology
        groups = [topo.socs_on_pcb(p) for p in range(topo.num_pcbs)]
        t_tree = fab.tree_aggregate_time(groups, payload)
        t_ps = fab.parameter_server_time(list(range(32)), payload)
        assert t_tree < t_ps

    def test_empty_groups_zero(self):
        assert fabric().tree_aggregate_time([], 10 * MB) == 0.0


class TestBroadcast:
    @given(st.integers(2, 32), st.floats(1e3, 1e8))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_payload(self, n, nbytes):
        fab = fabric()
        small = fab.ring_allreduce_time(list(range(n)), nbytes)
        large = fab.ring_allreduce_time(list(range(n)), nbytes * 2)
        assert large >= small
