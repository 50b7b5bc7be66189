"""Fixtures for co-scheduling tests: tiny jobs + hand-shaped arrivals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterTopology
from repro.distributed import RunConfig
from repro.serving import ArrivalProcess, ServiceModel, ServingPlane


@pytest.fixture(scope="session")
def serving_topology():
    return ClusterTopology(num_socs=8)


@pytest.fixture()
def config_factory(tiny_task, serving_topology):
    """job -> RunConfig on the shared tiny task (fast real math)."""
    def factory(job):
        return RunConfig(
            task=tiny_task, model_name="lenet5", width=1.0, batch_size=16,
            lr=0.05, max_epochs=job.epochs, seed=job.seed,
            topology=serving_topology, sim_samples_per_epoch=2_000,
            sim_global_batch=64, num_groups=2)
    return factory


def uniform_times(t0: float, t1: float, rps: float) -> np.ndarray:
    """Evenly spaced arrivals at ``rps`` over ``[t0, t1)`` hours."""
    n = int(round((t1 - t0) * 3600.0 * rps))
    return t0 + (np.arange(n) + 0.5) * (t1 - t0) / max(n, 1)


def cosched_day(telemetry=None, check=None):
    """A plane-level co-scheduled day: two bursts over a trickle.

    Stands in for :class:`ServingCoScheduler` without the training math:
    "training" holds SoCs 0-5 and gives up its highest ids on a deficit
    (``grant``); SoCs the plane releases below id 6 go back to training
    one round later, the rest stay idle.  Burst 1 forces grants, the
    lull releases them, burst 2 re-claims released SoCs through both
    ``_autoscale`` (idle pool) and ``grant`` (training-held again).
    ``check(plane)`` runs after every pool mutation.  Returns the plane
    and a log of which released SoCs each path re-claimed.
    """
    rng = np.random.default_rng(3)
    times = np.sort(np.concatenate([
        uniform_times(0.0, 10.0, 0.05), rng.uniform(2.0, 3.0, 9000),
        rng.uniform(6.0, 7.5, 12000)]))
    service = ServiceModel("m", per_request_s=2.0, batch_overhead_s=0.5,
                           max_batch=4)
    plane = ServingPlane(ArrivalProcess.from_times(times, horizon_hours=10.0),
                         service, slo_ms=60_000.0, min_replicas=1,
                         scale_down_patience=2, telemetry=telemetry)
    check = check or (lambda plane: None)
    training = set(range(6))
    released: set = set()
    log = {"reclaimed_by_autoscale": set(), "reclaimed_by_grant": set()}

    def free_pool():
        return [s for s in range(8)
                if s not in training and s not in plane.held_socs]

    plane.bootstrap(free_pool(), 0.0)
    check(plane)
    for step in range(1, 41):
        hour = step * 0.25
        before = plane.held_socs
        plane.advance(hour, claimable=free_pool())
        check(plane)
        log["reclaimed_by_autoscale"] |= (plane.held_socs - before) & released
        gone = before - plane.held_socs
        released |= gone
        if plane.pending_deficit > 0:
            victims = sorted(training, reverse=True)[:plane.pending_deficit]
            training -= set(victims)
            plane.grant(victims, hour)
            check(plane)
            log["reclaimed_by_grant"] |= set(victims) & released
        training |= {s for s in gone if s < 6}
    plane.advance(10.0, flush=True)
    return plane, log
