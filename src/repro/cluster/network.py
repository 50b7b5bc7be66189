"""Link-level network model with shared-NIC contention.

Transfer times come from bandwidth-fair max-load scheduling: a set of
simultaneous flows is charged, per link and direction, the total bytes
crossing that link divided by its bandwidth; the slowest link decides
the step time.  Collectives (ring all-reduce, parameter-server
push/pull, tree aggregation) are decomposed into phases of simultaneous
flows, so *concurrent collectives automatically contend* when their
flows share a PCB NIC — the exact effect SoCFlow's communication
planning removes.

Calibration against §2.3: a 32-SoC ring all-reduce of ResNet-18
gradients costs ~0.9 s of transfer plus ~1.3 s of startup (the paper
measures 2.225 s total with 58% startup); a parameter server hosted on
a SoC serialises 2·(n-1) payloads through one 1 Gbps link, matching the
measured 20.6 s for 32 SoCs on VGG-11.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

from .topology import ClusterTopology

__all__ = ["Flow", "NetworkFabric", "overlap_timeline"]

#: pseudo SoC id for the control board (parameter-server host option)
CONTROL_BOARD = -1


@dataclass(frozen=True)
class Flow:
    """One point-to-point transfer between SoCs (or the control board)."""

    src: int
    dst: int
    nbytes: float

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError("flow size must be non-negative")


#: collective startup cost per participant: a fixed connection setup
#: plus a per-gradient-tensor launch overhead.  Calibrated on §2.3's
#: measurement that preparing/starting a 32-SoC ResNet-18 aggregation
#: (62 tensors) takes ~1300 ms, i.e. ~40 ms per SoC.
STARTUP_BASE_S = 0.005
STARTUP_PER_TENSOR_S = 0.00056


class NetworkFabric:
    """Transfer-time calculator over one :class:`ClusterTopology`.

    ``num_tensors`` sets the per-participant collective startup cost:
    small models (LeNet: 10 tensors) start collectives far faster than
    deep ones (ResNet-50: 161).  Defaults to the topology's flat value
    when no model is attached.
    """

    def __init__(self, topology: ClusterTopology,
                 num_tensors: int | None = None,
                 retry_policy: "RetryPolicy | None" = None,
                 telemetry=None):
        from ..comm.primitives import RetryPolicy
        from ..telemetry import NULL_TELEMETRY
        self.topology = topology
        if num_tensors is None:
            self.startup_per_soc_s = topology.startup_per_soc_s
        else:
            self.startup_per_soc_s = (STARTUP_BASE_S
                                      + STARTUP_PER_TENSOR_S * num_tensors)
        self.retry_policy = retry_policy or RetryPolicy()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: pcb -> bandwidth multiplier for degraded/flapping PCB NICs
        self._pcb_multipliers: dict[int, float] = {}
        #: cumulative timed-out attempts charged (observability/tests)
        self.total_retries = 0
        #: the open :meth:`deferred` block's observations, else ``None``
        self._deferred: "list | None" = None

    # ------------------------------------------------------------------
    # Link degradation (fault injection)
    # ------------------------------------------------------------------
    def set_pcb_multiplier(self, pcb: int, multiplier: float) -> None:
        """Run PCB ``pcb``'s shared NIC at ``multiplier`` of nominal."""
        if not 0 <= pcb < self.topology.num_pcbs:
            raise ValueError(f"PCB id {pcb} out of range "
                             f"[0, {self.topology.num_pcbs})")
        if not 0.0 < multiplier <= 1.0:
            raise ValueError("multiplier must be in (0, 1]")
        if multiplier == 1.0:
            self._pcb_multipliers.pop(pcb, None)
        else:
            self._pcb_multipliers[pcb] = multiplier

    def apply_pcb_multipliers(self, multipliers: dict[int, float]) -> None:
        """Replace all degradations (an epoch's NIC state in one call)."""
        self._pcb_multipliers.clear()
        for pcb, multiplier in multipliers.items():
            self.set_pcb_multiplier(pcb, multiplier)

    def reset_degradations(self) -> None:
        self._pcb_multipliers.clear()

    def pcb_multiplier(self, pcb: int) -> float:
        return self._pcb_multipliers.get(pcb, 1.0)

    @property
    def degraded_pcbs(self) -> dict[int, float]:
        return dict(self._pcb_multipliers)

    # ------------------------------------------------------------------
    # Core primitive
    # ------------------------------------------------------------------
    def _links_of(self, flow: Flow) -> list[tuple[str, str]]:
        """(link, direction) pairs a flow traverses. Links are full duplex."""
        topo = self.topology
        links: list[tuple[str, str]] = []
        if flow.src == CONTROL_BOARD:
            links.append(("ctrl", "tx"))
            links.append(("switch", "any"))
        else:
            links.append((f"soc:{flow.src}", "tx"))
        if flow.dst == CONTROL_BOARD:
            links.append(("switch", "any"))
            links.append(("ctrl", "rx"))
        else:
            links.append((f"soc:{flow.dst}", "rx"))
        if flow.src != CONTROL_BOARD and flow.dst != CONTROL_BOARD:
            if not topo.same_pcb(flow.src, flow.dst):
                links.append((f"pcb:{topo.pcb_of(flow.src)}", "tx"))
                links.append(("switch", "any"))
                links.append((f"pcb:{topo.pcb_of(flow.dst)}", "rx"))
        elif flow.src != CONTROL_BOARD:
            links.append((f"pcb:{topo.pcb_of(flow.src)}", "tx"))
        elif flow.dst != CONTROL_BOARD:
            links.append((f"pcb:{topo.pcb_of(flow.dst)}", "rx"))
        return links

    def _bandwidth(self, link: str) -> float:
        topo = self.topology
        if link.startswith("soc:"):
            return topo.soc.nic_bps
        if link.startswith("pcb:"):
            multiplier = self._pcb_multipliers.get(int(link[4:]), 1.0)
            return topo.pcb_nic_bps * multiplier
        if link == "switch":
            return topo.switch_bps
        if link == "ctrl":
            return topo.switch_bps  # dual SFP+ on the control board
        raise ValueError(f"unknown link {link!r}")

    def transfer_time(self, flows: Iterable[Flow]) -> float:
        """Seconds for all ``flows`` to complete, running simultaneously.

        Transfers crossing a degraded PCB NIC additionally pay the
        timeout/retry penalty of :class:`~repro.comm.primitives.RetryPolicy`
        for the worst link involved.
        """
        flows = list(flows)
        load: dict[tuple[str, str], float] = {}
        any_flow = False
        for flow in flows:
            if flow.nbytes == 0:
                continue
            any_flow = True
            for key in self._links_of(flow):
                load[key] = load.get(key, 0.0) + flow.nbytes
        if not any_flow:
            return 0.0
        worst = max(8.0 * nbytes / self._bandwidth(link)
                    for (link, _), nbytes in load.items())
        penalty = 0.0
        retries = 0
        if self._pcb_multipliers:
            worst_mult = min(
                (self._pcb_multipliers.get(int(link[4:]), 1.0)
                 for (link, _) in load if link.startswith("pcb:")),
                default=1.0)
            retries = self.retry_policy.retries_for(worst_mult)
            if retries:
                penalty = self.retry_policy.penalty_seconds(retries)
        wait_span = (self._wait_span(flows, load, worst, penalty, retries)
                     if self.telemetry.tracer.enabled else None)
        if retries or wait_span is not None:
            if self._deferred is None:
                self._observe(retries, wait_span)
            else:
                self._deferred.append((retries, wait_span))
        return worst + penalty + self.topology.hop_latency_s

    def _wait_span(self, flows, load, worst: float, penalty: float,
                   retries: int) -> "dict | None":
        """The ``nic_wait`` span of one transfer (``None`` = no wait):
        the slowdown shared links impose beyond the slowest flow running
        alone, plus the degraded-link retry backoff."""
        bottleneck, bottleneck_bytes = max(
            load.items(), key=lambda kv: 8.0 * kv[1] / self._bandwidth(kv[0][0]))
        solo = max((max(8.0 * flow.nbytes / self._bandwidth(link)
                        for link, _ in self._links_of(flow))
                    for flow in flows if flow.nbytes > 0), default=0.0)
        wait = max(0.0, worst - solo) + penalty
        if wait <= 0.0:
            return None
        link = bottleneck[0]
        return dict(
            dur_s=wait, link=link, link_bytes=bottleneck_bytes,
            pcb=int(link[4:]) if link.startswith("pcb:") else None,
            soc=int(link[4:]) if link.startswith("soc:") else None,
            flows=len(flows), retries=retries, retry_penalty_s=penalty)

    def _observe(self, retries: int, wait_span: "dict | None") -> None:
        """Count a transfer's retries and stamp its ``nic_wait`` span at
        the current simulated time: the window about to be charged."""
        if retries:
            self.total_retries += retries
            self.telemetry.metrics.counter("net.retries").inc(retries)
        if wait_span is not None:
            self.telemetry.tracer.span("nic_wait", self.telemetry.now,
                                       **wait_span)

    @contextmanager
    def deferred(self):
        """Price transfers now, observe them later: queries inside the
        block return their seconds as usual, but their retry counts and
        ``nic_wait`` spans go to the yielded list for :meth:`commit` to
        replay once the clock stands where they happen."""
        self._deferred = observations = []
        try:
            yield observations
        finally:
            self._deferred = None

    def commit(self, observations) -> None:
        for retries, wait_span in observations:
            self._observe(retries, wait_span)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _startup(self, num_participants: int,
                 num_tensors: float | None = None) -> float:
        """Collective launch cost for ``num_participants``.

        ``num_tensors`` overrides the per-SoC rate for one collective:
        a gradient *bucket* fuses only a slice of the model's tensors,
        so its launch is proportionally cheaper than a whole-model
        collective (fractional counts are fine — the cost is linear).
        """
        if num_tensors is None:
            return self.startup_per_soc_s * num_participants
        return (STARTUP_BASE_S
                + STARTUP_PER_TENSOR_S * num_tensors) * num_participants

    def pcb_ring_bytes(self, rings: Sequence[Sequence[int]],
                       nbytes: float) -> dict[int, float]:
        """Bytes each PCB NIC carries for one full set of ring all-reduces.

        Every ring edge moves ``nbytes / n`` per phase over ``2(n-1)``
        phases; an edge crossing a PCB boundary loads both PCB NICs
        (tx on the source's, rx on the destination's).  Used by the
        metrics registry to account NIC traffic exactly, independent of
        how many simulated steps a computed window is charged for.
        """
        out: dict[int, float] = {}
        for ring in (list(r) for r in rings if len(r) >= 2):
            per_edge = nbytes / len(ring) * 2 * (len(ring) - 1)
            for i, src in enumerate(ring):
                dst = ring[(i + 1) % len(ring)]
                if not self.topology.same_pcb(src, dst):
                    for pcb in (self.topology.pcb_of(src),
                                self.topology.pcb_of(dst)):
                        out[pcb] = out.get(pcb, 0.0) + per_edge
        return out

    def bucketed_pcb_ring_bytes(self, rings: Sequence[Sequence[int]],
                                bucket_bytes: Sequence[float],
                                total_bytes: float | None = None
                                ) -> dict[int, float]:
        """Per-PCB NIC bytes for one ring all-reduce *per bucket*.

        Guarded by the conservation invariant that caught the classic
        double-count: summing the per-bucket loads must reproduce the
        whole-model :meth:`pcb_ring_bytes` exactly (the payload was
        merely sliced, not multiplied).  Raises ``AssertionError`` on
        drift — both on the payload split and on the per-PCB totals.
        """
        bucket_bytes = list(bucket_bytes)
        if total_bytes is None:
            total_bytes = sum(bucket_bytes)
        elif not math.isclose(sum(bucket_bytes), total_bytes,
                              rel_tol=1e-9, abs_tol=1e-6):
            raise AssertionError(
                f"bucket payloads sum to {sum(bucket_bytes)!r} bytes, "
                f"whole model is {total_bytes!r}: bucket split lost or "
                "duplicated gradient bytes")
        out: dict[int, float] = {}
        for nbytes in bucket_bytes:
            for pcb, load in self.pcb_ring_bytes(rings, nbytes).items():
                out[pcb] = out.get(pcb, 0.0) + load
        whole = self.pcb_ring_bytes(rings, total_bytes)
        if set(out) != set(whole) or any(
                not math.isclose(out[pcb], whole[pcb],
                                 rel_tol=1e-9, abs_tol=1e-6)
                for pcb in whole):
            raise AssertionError(
                f"bucketed NIC accounting drifted: per-bucket sum {out!r} "
                f"!= whole-model {whole!r}")
        return out

    def ring_allreduce_time(self, socs: Sequence[int], nbytes: float,
                            num_tensors: float | None = None) -> float:
        """One ring all-reduce over ``socs`` of an ``nbytes`` payload."""
        return self.concurrent_ring_allreduce_time([list(socs)], nbytes,
                                                   num_tensors=num_tensors)

    def concurrent_ring_allreduce_time(self, rings: Sequence[Sequence[int]],
                                       nbytes: float,
                                       num_tensors: float | None = None
                                       ) -> float:
        """Several ring all-reduces running at the same time.

        Every ring executes its 2(n-1) scatter-reduce/all-gather phases in
        lock-step; phases of different rings overlap and contend for
        shared links.  Returns the makespan.  ``num_tensors`` prices the
        startup of a partial (bucketed) collective.
        """
        rings = [list(r) for r in rings if len(r) >= 2]
        if not rings:
            return self._startup(1, num_tensors=num_tensors)
        phases = [2 * (len(ring) - 1) for ring in rings]
        total = max(self._startup(len(ring), num_tensors=num_tensors)
                    for ring in rings)
        for step in range(max(phases)):
            flows = [
                Flow(ring[i], ring[(i + 1) % len(ring)], nbytes / len(ring))
                for ring, ring_phases in zip(rings, phases)
                if step < ring_phases
                for i in range(len(ring))
            ]
            total += self.transfer_time(flows)
        return total

    def parameter_server_time(self, socs: Sequence[int], nbytes: float,
                              server: int | None = None,
                              num_tensors: float | None = None) -> float:
        """Push-then-pull through a central server.

        ``server=None`` hosts the server on the first SoC (the deployment
        the paper measures: all traffic serialises through one 1 Gbps SoC
        link); pass :data:`CONTROL_BOARD` to host it off-board.
        """
        socs = list(socs)
        if server is None:
            server = socs[0]
        workers = [s for s in socs if s != server]
        if not workers:
            return self._startup(1, num_tensors=num_tensors)
        push = self.transfer_time([Flow(w, server, nbytes) for w in workers])
        pull = self.transfer_time([Flow(server, w, nbytes) for w in workers])
        return self._startup(len(socs), num_tensors=num_tensors) + push + pull

    def tree_aggregate_time(self, groups: Sequence[Sequence[int]],
                            nbytes: float,
                            root: int | None = None) -> float:
        """Two-level tree: members -> group leader, leaders -> root.

        This is the T-FedAvg aggregation pattern (leaders are the first
        SoC of each group).  The reverse broadcast uses the same routes.
        """
        groups = [list(g) for g in groups if g]
        if not groups:
            return 0.0
        leaders = [group[0] for group in groups]
        if root is None:
            root = leaders[0]
        up_local = self.transfer_time(
            [Flow(member, group[0], nbytes)
             for group in groups for member in group[1:]])
        up_root = self.transfer_time(
            [Flow(leader, root, nbytes) for leader in leaders
             if leader != root])
        down_root = self.transfer_time(
            [Flow(root, leader, nbytes) for leader in leaders
             if leader != root])
        down_local = self.transfer_time(
            [Flow(group[0], member, nbytes)
             for group in groups for member in group[1:]])
        participants = sum(len(g) for g in groups)
        return (self._startup(participants)
                + up_local + up_root + down_root + down_local)

    def broadcast_time(self, src: int, dsts: Sequence[int],
                       nbytes: float) -> float:
        """One-to-many transfer (model/data dispatch before training)."""
        return self.transfer_time([Flow(src, d, nbytes) for d in dsts
                                   if d != src])


def overlap_timeline(compute_s: float, ready_times: Sequence[float],
                     durations: Sequence[float]
                     ) -> tuple[list[tuple[float, float]], float]:
    """Schedule bucket collectives against one compute window.

    Bucket *i*'s gradients exist at ``ready_times[i]`` (seconds into
    the window); its collective occupies the shared NIC path for
    ``durations[i]`` seconds.  Collectives serialise on that path in
    emission order — each starts at ``max(ready, previous end)`` — the
    same greedy schedule Horovod's cycle loop and DDP's bucket queue
    produce.  Returns the per-bucket ``(start, end)`` schedule and the
    *visible* sync time: how far the last collective runs past the end
    of the compute window (0 when communication hides entirely).
    """
    if len(ready_times) != len(durations):
        raise ValueError("one duration per ready time required")
    schedule: list[tuple[float, float]] = []
    cursor = 0.0
    for ready, duration in zip(ready_times, durations):
        if duration < 0 or ready < 0:
            raise ValueError("ready times and durations must be >= 0")
        start = max(ready, cursor)
        cursor = start + duration
        schedule.append((start, cursor))
    return schedule, max(0.0, cursor - compute_s)
