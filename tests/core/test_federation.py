"""Multi-server LAN-WAN federation extension."""

from dataclasses import replace

import pytest

from repro.cluster import ClusterTopology, EdgeSite, WanFabric
from repro.core import CrossSiteConfig, CrossSiteSoCFlow


def two_sites(socs=16):
    return tuple(EdgeSite(f"site{i}", ClusterTopology(num_socs=socs))
                 for i in range(2))


class TestEdgeSite:
    def test_defaults(self):
        site = EdgeSite("berlin")
        assert site.topology.num_socs == 60
        assert site.wan_bps == 100e6

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeSite("x", wan_bps=0)


class TestWanFabric:
    def test_sync_time_scales_with_payload(self):
        fabric = WanFabric(list(two_sites()))
        assert fabric.sync_time(2e7) > fabric.sync_time(1e7)

    def test_slow_uplink_dominates(self):
        fast = EdgeSite("fast", wan_bps=1e9)
        slow = EdgeSite("slow", wan_bps=10e6)
        solo = WanFabric([fast]).sync_time(1e7)
        mixed = WanFabric([fast, slow]).sync_time(1e7)
        assert mixed > 5 * solo

    def test_wan_much_slower_than_lan(self):
        """The premise of delayed cross-site sync: WAN >> PCB NIC."""
        from repro.cluster import NetworkFabric
        site = EdgeSite("x", ClusterTopology(num_socs=10))
        lan = NetworkFabric(site.topology).ring_allreduce_time(
            list(range(10)), 1e7)
        wan = WanFabric([site, EdgeSite("y")]).sync_time(1e7)
        assert wan > lan

    def test_validation(self):
        with pytest.raises(ValueError):
            WanFabric([])
        with pytest.raises(ValueError):
            WanFabric([EdgeSite("a"), EdgeSite("a")])
        fabric = WanFabric(list(two_sites()))
        with pytest.raises(ValueError):
            fabric.sync_time(-1)


class TestCrossSiteTraining:
    def test_runs_and_reports(self, quick_config):
        config = replace(quick_config, max_epochs=2,
                         topology=ClusterTopology(num_socs=16),
                         num_groups=4)
        federation = CrossSiteSoCFlow(CrossSiteConfig(
            sites=two_sites(), site_sync_every=1))
        result = federation.train(config)
        assert result.strategy == "cross_site_socflow"
        assert result.epochs_run == 2
        assert result.extra["num_sites"] == 2
        assert result.sim_time_s > 0
        assert result.energy.total_j > 0

    def test_wan_sync_charged(self, quick_config):
        config = replace(quick_config, max_epochs=2,
                         topology=ClusterTopology(num_socs=16),
                         num_groups=4)
        slow_sites = tuple(
            EdgeSite(f"s{i}", ClusterTopology(num_socs=16), wan_bps=5e6)
            for i in range(2))
        fast = CrossSiteSoCFlow(CrossSiteConfig(
            sites=two_sites(), site_sync_every=1)).train(config)
        slow = CrossSiteSoCFlow(CrossSiteConfig(
            sites=slow_sites, site_sync_every=1)).train(config)
        assert slow.sim_time_s > fast.sim_time_s

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrossSiteConfig(sites=())
        with pytest.raises(ValueError):
            CrossSiteConfig(sites=two_sites(), site_sync_every=0)
