"""Physical layout of the SoC-Cluster (Figure 2a/2c).

SoCs are numbered 0..M-1 and grouped into PCBs of ``socs_per_pcb``
(5 on the commercial server).  Every PCB shares one NIC toward the
central switch; all cross-PCB traffic serialises through the two PCB
NICs involved — the root cause of the paper's Observation #2.

One level up (the LAN–WAN extension): the paper deploys tens of
thousands of these servers across edge sites, and its related work
points at LAN-WAN orchestration (Yuan et al.) for aggregating across
them.  :class:`EdgeSite` wraps one server with a WAN uplink;
:class:`WanFabric` prices cross-site collectives the way
:class:`~repro.cluster.network.NetworkFabric` prices intra-server ones —
uplinks are the scarce resource (tens of Mbps, not Gbps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spec import SOC_REGISTRY, SoCSpec

__all__ = ["ClusterTopology", "EdgeSite", "WanFabric"]


@dataclass(frozen=True)
class ClusterTopology:
    """Static shape of one SoC-Cluster server."""

    num_socs: int = 60
    socs_per_pcb: int = 5
    soc: SoCSpec = field(default_factory=lambda: SOC_REGISTRY["sd865"])
    #: shared PCB NIC bandwidth, bits/s (1 Gbps on the real server)
    pcb_nic_bps: float = 1e9
    #: central switch backplane, bits/s (dual SFP+ = 20 Gbps)
    switch_bps: float = 20e9
    #: one-way per-message latency, seconds
    hop_latency_s: float = 0.5e-3
    #: per-participant collective startup cost (§2.3: preparing/starting a
    #: 32-SoC aggregation took 1300 ms, i.e. ~40 ms per SoC)
    startup_per_soc_s: float = 0.040

    def __post_init__(self):
        if self.num_socs <= 0 or self.socs_per_pcb <= 0:
            raise ValueError("num_socs and socs_per_pcb must be positive")

    @property
    def num_pcbs(self) -> int:
        return -(-self.num_socs // self.socs_per_pcb)

    def pcb_of(self, soc: int) -> int:
        if not 0 <= soc < self.num_socs:
            raise ValueError(f"SoC id {soc} out of range [0, {self.num_socs})")
        return soc // self.socs_per_pcb

    def socs_on_pcb(self, pcb: int) -> list[int]:
        if not 0 <= pcb < self.num_pcbs:
            raise ValueError(f"PCB id {pcb} out of range [0, {self.num_pcbs})")
        start = pcb * self.socs_per_pcb
        return list(range(start, min(start + self.socs_per_pcb,
                                     self.num_socs)))

    def same_pcb(self, a: int, b: int) -> bool:
        return self.pcb_of(a) == self.pcb_of(b)

    def crossings(self, socs: list[int]) -> int:
        """Number of PCBs a set of SoCs touches beyond the first."""
        return len({self.pcb_of(s) for s in socs}) - 1


@dataclass(frozen=True)
class EdgeSite:
    """One SoC-Cluster server behind a WAN uplink."""

    name: str
    topology: ClusterTopology = field(
        default_factory=lambda: ClusterTopology(num_socs=60))
    #: uplink/downlink toward the aggregation point, bits/s
    wan_bps: float = 100e6
    #: one-way WAN latency, seconds
    wan_latency_s: float = 0.02

    def __post_init__(self):
        if self.wan_bps <= 0:
            raise ValueError("wan_bps must be positive")


class WanFabric:
    """Cross-site transfer times (star topology to an aggregator)."""

    def __init__(self, sites: list[EdgeSite],
                 aggregator_bps: float = 1e9):
        if not sites:
            raise ValueError("need at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError("site names must be unique")
        self.sites = list(sites)
        self.aggregator_bps = aggregator_bps

    def sync_time(self, nbytes: float) -> float:
        """All sites upload then download one payload via the aggregator.

        Uplinks run in parallel (each site is limited by its own WAN
        link); the aggregator's link carries every site's payload in
        each direction.
        """
        if nbytes < 0:
            raise ValueError("payload must be non-negative")
        slowest_uplink = max(8.0 * nbytes / site.wan_bps
                             for site in self.sites)
        aggregator = 8.0 * nbytes * len(self.sites) / self.aggregator_bps
        one_way = max(slowest_uplink, aggregator) + max(
            site.wan_latency_s for site in self.sites)
        return 2.0 * one_way
