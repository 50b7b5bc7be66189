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
    """What ``steps`` identical training steps (and, group-wise, the
    epoch tail after them) cost.  Seconds are per step."""

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
    #: network-busy seconds (``sync_s + hidden_s`` when bucketed)
    busy_s: float = 0.0
    #: per-CG seconds of one whole-model sync, in schedule order;
    #: ``None`` = every ring on the wire at once
    cg_times: "tuple[float, ...] | None" = None
    #: per bucket ``(start, end, hidden_s)``: its collective's offsets
    #: into the step window, clipped to ``[0, compute_s + sync_s]`` —
    #: the window the charge advances — and its share of ``hidden_s``
    bucket_schedule: "tuple[tuple[float, float, float], ...]" = ()
    #: adaptive fusion replaced the bucket timeline's visible seconds
    #: with the whole-model path's
    clamped: bool = False
    # -- group-wise attribution; no groups = one cluster-level lane -----
    groups: "tuple[tuple[int, ...], ...]" = ()
    cgs: "tuple[tuple[int, ...], ...]" = ()
    slowdown: float = 1.0
    cpu_samples: float = 0.0
    npu_samples: float = 0.0
    bucket_bytes: "tuple[float, ...]" = ()
    # -- epoch tail: one unhidden intra-group sync + the leader ring ----
    tail_cg_times: "tuple[float, ...]" = ()
    leader_s: float = 0.0
    #: what the fabric observed pricing the tail (retries, ``nic_wait``
    #: spans); :func:`apply` commits it where the tail starts
    tail_observations: tuple = ()


def price_epoch(cost, mapping=None, plan=None, *, cpu_share: float = 1.0,
                slowdown: float = 1.0, planning: bool = True, layout=None,
                compute_s: "float | None" = None,
                num_socs: "int | None" = None,
                collective=None) -> EpochCharge:
    """Price one epoch from ``cost``'s calibration, fabric and bucket
    plan — never its clock, energy meter or telemetry.

    Group-wise (``mapping`` and its CG ``plan``; SoCFlow, jobs): each
    SoC of a logical group takes its slice of ``BS_g`` samples,
    ``cpu_share`` of them on the CPU (1.0 = FP32 only, 0.0 = INT8
    only), stretched by the worst group's ``slowdown``; groups
    ring-synchronise per step — CG after CG when ``planning``, all at
    once otherwise — and the epoch ends with the tail.  Flat (no
    mapping; the S-SGD family): the strategy supplies its per-step
    ``compute_s`` on ``num_socs`` chips and its ``collective(nbytes,
    num_tensors) -> seconds``; the charge is one step, no tail.

    With bucketed fusion on (``layout`` is the model's flat layout)
    every gradient bucket runs the whole sync on its slice of the
    payload as backward emits it, and the overlap timeline decides how
    much hides under compute.

    The fabric counts retries and stamps ``nic_wait`` spans on every
    query, so their order is contract: whole-model sync, then one sync
    per bucket, observed as made (before the step window is applied);
    the tail's queries are deferred into the charge.
    """
    config, fabric, payload = cost.config, cost.fabric, cost.grad_bytes
    if mapping is None:
        steps, full_window = 1, False
        cpu_n = npu_n = 0.0
        cpu_busy, npu_busy = compute_s, 0.0

        def sync(nbytes, num_tensors=None):
            return collective(nbytes, num_tensors), None
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

    raw, cg_times = sync(payload)
    hidden = min(raw, compute_s if full_window
                 else OVERLAP_FRACTION * compute_s)
    bucket_plan = cost.bucket_plan(layout)
    bucket_bytes = schedule = ()
    clamped = False
    if bucket_plan is None:
        sync_s = raw - hidden
    else:
        bucket_bytes = tuple(bucket_plan.sim_bytes(payload))
        bucket_times = [
            sync(b_bytes, b_tensors)[0] for b_bytes, b_tensors in zip(
                bucket_bytes,
                bucket_plan.sim_tensors(cost.profile.num_tensors))]
        ready = [fraction * compute_s
                 for fraction in bucket_plan.ready_fractions()]
        timeline, visible = overlap_timeline(compute_s, ready, bucket_times)
        # Adaptive fusion: per-bucket collectives pay extra startup and
        # hop latency, so a plan can *lose* to whole-model sync on a
        # shallow compute window.  A real runtime would fall back to
        # coarser fusion, so the visible time is clamped at the
        # sequential path's: bucketing never slows a step, and a
        # one-bucket plan advances the very float the unbucketed path
        # does (``raw - hidden``), never a re-rounding of it.
        sync_s = min(visible, max(0.0, raw - hidden))
        clamped = visible > sync_s
        hidden = max(0.0, sum(bucket_times) - sync_s)
        raw = sync_s + hidden
        # Clip each collective to the window these seconds define; what
        # of it lies outside the visible stretch is its hidden share, so
        # the shares add up to ``hidden`` clamped or not.
        window = compute_s + sync_s
        schedule = tuple(
            (min(start, window), min(end, window),
             (end - start) - max(0.0, min(end, window)
                                 - min(max(start, compute_s), window)))
            for start, end in timeline)

    charge = EpochCharge(
        steps=steps, compute_s=compute_s, sync_s=sync_s, hidden_s=hidden,
        update_s=cost.update_seconds(), cpu_busy_s=cpu_busy,
        npu_busy_s=npu_busy, num_socs=num_socs, busy_s=raw,
        cg_times=cg_times, bucket_schedule=schedule, clamped=clamped)
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
        cpu_samples=cpu_n, npu_samples=npu_n, bucket_bytes=bucket_bytes,
        tail_cg_times=tuple(tail), leader_s=leader_s,
        tail_observations=tuple(tail_observations))


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
    if charge.bucket_schedule:
        metrics.counter("sync.fusion_clamped").inc(
            steps if charge.clamped else 0)

    # The step window.  Group-wise charges draw per-SoC lanes with LG/CG
    # tags and the aggregated ``steps``; a flat charge is one
    # cluster-level lane.  ``bucket_sync`` spans ride under both, off
    # the critical path, scaled by ``steps`` like the window.
    if tracer.enabled:
        compute_end = t0 + compute
        if groups:
            for lg, socs in enumerate(groups):
                for soc in socs:
                    tracer.span("compute", t0, compute, soc=soc, lg=lg,
                                steps=steps, slowdown=charge.slowdown,
                                cpu_samples=charge.cpu_samples,
                                npu_samples=charge.npu_samples)
        else:
            tracer.span("compute", t0, compute, num_socs=num_socs,
                        cpu_fraction=charge.cpu_fraction)
        lane = {"steps": steps} if groups else {"num_socs": num_socs}
        for index, (start, end, share) in enumerate(charge.bucket_schedule):
            tracer.span("bucket_sync", t0 + steps * start,
                        steps * (end - start), bucket=index,
                        hidden_s=steps * share, **lane)
        if not groups:
            if visible > 0 or hidden > 0:
                tracer.span("sync", compute_end, visible, hidden_s=hidden,
                            **lane)
            tracer.span("update", compute_end + visible, update)
        else:
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
            tracer.span("update", compute_end + visible, update, steps=steps)
    if not groups:
        return

    # Epoch tail (delayed aggregation): "the extra delay of SoCFlow is
    # only one intra-group and inter-group synchronization time".
    fabric, payload = cost.fabric, cost.grad_bytes
    leaders = [socs[0] for socs in groups]
    fabric.commit(charge.tail_observations)
    cursor = clock.now
    cost.charge_epoch_sync(sum(charge.tail_cg_times) + charge.leader_s,
                           num_socs)
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
