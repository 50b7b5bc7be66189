"""The epoch charge: one function prices it, one moves the clock.

Every paper-facing second (Fig. 8/10 time, Fig. 9 energy, the Fig. 12
breakdown) comes out of one arithmetic: per-step compute under the
CPU/NPU split, the per-step sync hidden under it, the update, and the
epoch tail.  :func:`price_epoch` is that arithmetic, returning a frozen
:class:`EpochCharge`; :func:`apply` is the only code that turns a
charge into clock time, energy, NIC bytes and spans — drawn *from the
charge*, so a trace tiles the simulated clock for any bucket plan.
DESIGN.md "Communication scheduling" lists the callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.network import overlap_timeline

__all__ = ["OVERLAP_FRACTION", "EpochCharge", "price_epoch", "apply"]

#: fraction of a step's compute window that layer-by-layer
#: computing/communication overlap (§4.1 optimisation 1) can hide.
OVERLAP_FRACTION = 0.3


@dataclass(frozen=True)
class EpochCharge:
    """What ``steps`` identical training steps and the epoch tail after
    them cost.  Seconds are per step, except the tail's."""

    steps: int
    compute_s: float
    #: sync past the compute window (wall clock) / overlapped under it
    sync_s: float
    hidden_s: float
    update_s: float
    #: per-SoC processor-busy seconds inside one compute window
    cpu_busy_s: float
    npu_busy_s: float
    num_socs: int
    #: CPU share of the processor-seconds (flat-cluster compute span)
    cpu_fraction: float = 1.0
    #: network-busy seconds of the charged plan
    busy_s: float = 0.0
    #: per-CG seconds of one whole-model sync, in schedule order;
    #: ``None`` = every ring on the wire at once
    cg_times: "tuple[float, ...] | None" = None
    #: per bucket ``(start, end, hidden_s)`` when the bucket plan is
    #: charged: its collective's offsets into the step window and its
    #: share of ``hidden_s``; empty when whole-model sync is
    bucket_schedule: "tuple[tuple[float, float, float], ...]" = ()
    #: fusion was on, but whole-model sync was charged
    clamped: bool = False
    # -- group-wise attribution; no groups = one cluster-level lane -----
    groups: "tuple[tuple[int, ...], ...]" = ()
    cgs: "tuple[tuple[int, ...], ...]" = ()
    slowdown: float = 1.0
    cpu_samples: float = 0.0
    npu_samples: float = 0.0
    bucket_bytes: "tuple[float, ...]" = ()
    #: unhidden network seconds after the last step, charged once
    tail_s: float = 0.0
    # -- group-wise tail: one intra-group sync per CG + the leader ring --
    tail_cg_times: "tuple[float, ...]" = ()
    leader_s: float = 0.0
    #: what the fabric observed pricing the tail (retries, ``nic_wait``
    #: spans); :func:`apply` commits it where the tail starts
    tail_observations: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.hidden_s <= self.compute_s
                and self.sync_s >= 0.0):
            raise ValueError(
                f"a step hides {self.hidden_s!r} s of sync under "
                f"{self.compute_s!r} s of compute and shows {self.sync_s!r} s")


def price_epoch(cost, mapping=None, plan=None, *, cpu_share: float = 1.0,
                slowdown: float = 1.0, planning: bool = True, layout=None,
                compute_s: "float | None" = None,
                num_socs: "int | None" = None,
                collective=None, steps: int = 1,
                tail_s: float = 0.0) -> EpochCharge:
    """Price one epoch from ``cost``'s calibration, fabric and bucket
    plan — never its clock, energy meter or telemetry.

    Group-wise (``mapping`` and its CG ``plan``; SoCFlow, jobs): each
    SoC of a logical group takes its slice of ``BS_g`` samples,
    ``cpu_share`` of them on the CPU (1.0 = FP32 only, 0.0 = INT8
    only), stretched by the worst group's ``slowdown``; groups
    ring-synchronise per step — CG after CG when ``planning``, all at
    once otherwise — and the epoch ends with the tail: one more
    intra-group sync and the leader ring.  Flat (no mapping; the
    baselines): the strategy supplies its per-step ``compute_s`` on
    ``num_socs`` chips, ``cpu_share`` of it on the CPU, its
    ``collective(nbytes, num_tensors) -> seconds`` (none: no in-step
    sync), the epoch's ``steps`` and its unhidden end-of-epoch
    ``tail_s`` (SSP's parameter-server syncs, FedAvg's round exchange).

    Sync is one plan, charged whole.  Whole-model sync hides under the
    §4.1 overlap (a full window under the CG schedule); with bucketed
    fusion on (``layout`` is the model's flat layout) the bucket plan
    runs the whole sync on each bucket's slice of the payload as
    backward emits it, and the overlap timeline decides what hides.
    The plan with fewer visible seconds is charged (a tie goes to
    whole-model sync).

    The fabric counts retries and stamps ``nic_wait`` spans on every
    query, so each candidate is priced deferred and only the charged
    plan's observations are committed, here; the tail's are deferred
    into the charge.
    """
    config, fabric, payload = cost.config, cost.fabric, cost.grad_bytes
    if mapping is None:
        full_window = False
        cpu_n = npu_n = 0.0
        cpu_busy = compute_s * cpu_share
        npu_busy = compute_s * (1.0 - cpu_share)

        def sync(nbytes, num_tensors=None):
            return (collective(nbytes, num_tensors) if collective
                    else 0.0), None
    else:
        n = mapping.num_groups
        # SoCs hosting groups this epoch (survivors only, after faults);
        # BS_g samples per group-step spread over the group's SoCs.
        num_socs = sum(len(socs) for socs in mapping.groups)
        per_soc_samples = config.sim_global_batch * n / num_socs
        cpu_n = cpu_share * per_soc_samples
        npu_n = per_soc_samples - cpu_n
        cpu_busy = cpu_n * cost.t_cpu_sample
        npu_busy = npu_n * cost.t_npu_sample
        compute_s = max(cpu_busy, npu_busy) * slowdown
        # All N groups step in parallel: one step consumes N * BS_g.
        steps = max(1, -(-config.sim_samples_per_epoch
                         // (n * config.sim_global_batch)))
        # Figure 7: the planned CG schedule interleaves each CG's sync
        # with the other CG's compute, hiding up to a full window.
        full_window = n > 1 and planning

        def sync(nbytes, num_tensors=None):
            if n > 1 and not planning:
                return plan.unplanned_sync_seconds(
                    fabric, nbytes, num_tensors=num_tensors), None
            times = plan.planned_sync_seconds(fabric, nbytes,
                                              num_tensors=num_tensors)
            return sum(times), tuple(times)

    with fabric.deferred() as observations:
        raw, cg_times = sync(payload)
    hidden = min(raw, compute_s if full_window
                 else OVERLAP_FRACTION * compute_s)
    sync_s = raw - hidden
    bucket_plan = cost.bucket_plan(layout)
    bucket_bytes = schedule = ()
    if bucket_plan is not None:
        sliced = tuple(bucket_plan.sim_bytes(payload))
        with fabric.deferred() as bucket_observations:
            bucket_times = [
                sync(b_bytes, b_tensors)[0] for b_bytes, b_tensors in zip(
                    sliced, bucket_plan.sim_tensors(
                        cost.profile.num_tensors))]
        ready = [fraction * compute_s
                 for fraction in bucket_plan.ready_fractions()]
        timeline, visible = overlap_timeline(compute_s, ready, bucket_times)
        # Per-bucket collectives pay extra startup and hop latency, so
        # the plan can lose to whole-model sync on a shallow compute
        # window — and always does under the CG schedule's full window.
        if visible < sync_s:
            sync_s, hidden = visible, sum(bucket_times) - visible
            raw = sync_s + hidden
            bucket_bytes, observations = sliced, bucket_observations
            # the timeline ends in the window it is charged for; what
            # of a collective runs past compute is its visible share
            schedule = tuple(
                (start, end,
                 (end - start) - max(0.0, end - max(start, compute_s)))
                for start, end in timeline)
    fabric.commit(observations)

    charge = EpochCharge(
        steps=steps, compute_s=compute_s, sync_s=sync_s, hidden_s=hidden,
        update_s=cost.update_seconds(), cpu_busy_s=cpu_busy,
        npu_busy_s=npu_busy, num_socs=num_socs, cpu_fraction=cpu_share,
        busy_s=raw, cg_times=cg_times, bucket_schedule=schedule,
        clamped=bucket_plan is not None and not schedule,
        bucket_bytes=bucket_bytes, tail_s=tail_s)
    if mapping is None:
        return charge
    leaders = [socs[0] for socs in mapping.groups]
    with fabric.deferred() as tail_observations:
        tail = plan.planned_sync_seconds(fabric, payload)
        leader_s = (fabric.ring_allreduce_time(leaders, payload)
                    if len(leaders) > 1 else 0.0)
    return replace(
        charge, groups=tuple(tuple(socs) for socs in mapping.groups),
        cgs=tuple(tuple(cg) for cg in plan.cgs), slowdown=slowdown,
        cpu_samples=cpu_n, npu_samples=npu_n,
        tail_s=sum(tail) + leader_s, tail_cg_times=tuple(tail),
        leader_s=leader_s, tail_observations=tuple(tail_observations))


def apply(cost, charge: EpochCharge) -> None:
    """Advance ``cost``'s clock by ``charge``, attribute its hidden
    sync, charge energy, count NIC bytes and emit its spans — laid out
    from the same products the clock advances by, so they tile it."""
    clock, energy = cost.clock, cost.energy
    tracer, metrics = cost.telemetry.tracer, cost.telemetry.metrics
    steps, num_socs, groups = charge.steps, charge.num_socs, charge.groups
    compute = steps * charge.compute_s
    visible = steps * charge.sync_s
    hidden = steps * charge.hidden_s
    update = steps * charge.update_s
    t0 = clock.now
    clock.advance(compute, "compute")
    clock.advance(visible, "sync")
    clock.attribute(hidden, "sync")
    clock.advance(update, "update")
    energy.charge_mixed(steps * charge.cpu_busy_s, steps * charge.npu_busy_s,
                        compute, num_socs)
    energy.charge_network(visible, num_socs)
    energy.charge_network(hidden, num_socs, include_idle=False)
    energy.charge_compute(update, num_socs, 1.0)
    if charge.clamped or charge.bucket_schedule:        # fusion on
        metrics.counter("sync.fusion_clamped").inc(
            steps if charge.clamped else 0)

    # The step window: ``steps`` identical windows drawn as one, every
    # span the product the clock advanced by.  Group-wise charges draw
    # per-SoC lanes with LG/CG tags; a flat charge is one cluster-level
    # lane.  ``bucket_sync`` spans ride under both, off the critical path.
    if tracer.enabled:
        compute_end = t0 + compute
        if groups:
            for lg, socs in enumerate(groups):
                for soc in socs:
                    tracer.span("compute", t0, compute, soc=soc, lg=lg,
                                steps=steps, slowdown=charge.slowdown,
                                cpu_samples=charge.cpu_samples,
                                npu_samples=charge.npu_samples)
            lane = {"steps": steps}
        else:
            lane = {"num_socs": num_socs, "steps": steps}
            tracer.span("compute", t0, compute, **lane,
                        cpu_fraction=charge.cpu_fraction)
        for index, (start, end, share) in enumerate(charge.bucket_schedule):
            tracer.span("bucket_sync", t0 + steps * start,
                        steps * (end - start), bucket=index,
                        hidden_s=steps * share, **lane)
        if groups:
            if charge.cg_times is None:
                rings = [(None, range(len(groups)), visible,
                          steps * charge.busy_s)]
            else:
                # each CG's share of the visible seconds, in sequence
                whole = sum(charge.cg_times)
                rings = [(cg_idx, cg,
                          seconds / whole * visible if whole > 0 else 0.0,
                          steps * seconds)
                         for cg_idx, (cg, seconds) in enumerate(
                             zip(charge.cgs, charge.cg_times))]
            cursor = compute_end
            for cg_idx, lgs, seconds, raw_s in rings:
                _ring_spans(tracer, groups, lgs, cursor, seconds, cg=cg_idx,
                            raw_s=raw_s, hidden_s=hidden)
                cursor += seconds
        elif visible > 0 or hidden > 0:
            tracer.span("sync", compute_end, visible, hidden_s=hidden,
                        **lane)
        tracer.span("update", compute_end + visible, update, steps=steps)

    # Epoch tail: the unhidden network seconds after the last step.
    # Group-wise it is delayed aggregation — "the extra delay of SoCFlow
    # is only one intra-group and inter-group synchronization time";
    # flat, a baseline's end-of-epoch exchange, one ``sync`` span.
    fabric, payload = cost.fabric, cost.grad_bytes
    fabric.commit(charge.tail_observations)
    cursor = clock.now
    cost.charge_epoch_sync(charge.tail_s, num_socs)
    if not groups:
        if tracer.enabled and charge.tail_s > 0:
            tracer.span("sync", cursor, charge.tail_s, num_socs=num_socs)
        return
    leaders = [socs[0] for socs in groups]
    if tracer.enabled:
        for cg_idx, (cg, seconds) in enumerate(
                zip(charge.cgs, charge.tail_cg_times)):
            _ring_spans(tracer, groups, cg, cursor, seconds, cg=cg_idx,
                        name="allreduce:tail")
            cursor += seconds
        if charge.leader_s > 0:
            for lg, leader in enumerate(leaders):
                tracer.span("leader_sync", cursor, charge.leader_s,
                            soc=leader, lg=lg, num_leaders=len(leaders))
    if metrics.enabled:
        # Exact NIC accounting: `steps` in-epoch intra-group syncs, one
        # tail sync, one leader ring.  Bucketed syncs go through the
        # conservation-checked path: the per-bucket loads must sum to
        # the whole-model loads or the fabric raises.
        if charge.bucket_bytes:
            intra = fabric.bucketed_pcb_ring_bytes(
                groups, charge.bucket_bytes, total_bytes=payload)
        else:
            intra = fabric.pcb_ring_bytes(groups, payload)
        for pcb, nbytes in sorted(intra.items()):
            metrics.counter("nic.bytes", pcb=pcb).inc((steps + 1) * nbytes)
        for pcb, nbytes in sorted(
                fabric.pcb_ring_bytes([leaders], payload).items()):
            metrics.counter("nic.bytes", pcb=pcb).inc(nbytes)
        metrics.gauge("compute.slowdown").set(charge.slowdown)
        metrics.histogram("sync.hidden_fraction").observe(
            charge.hidden_s / charge.busy_s if charge.busy_s > 0 else 0.0)


def _ring_spans(tracer, groups, lgs, start: float, seconds: float,
                **attrs) -> None:
    """One ``allreduce`` span on every SoC of logical groups ``lgs``."""
    for lg in lgs:
        for soc in groups[lg]:
            tracer.span("allreduce", start, seconds, soc=soc, lg=lg, **attrs)
