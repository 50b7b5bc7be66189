"""Golden digests of the simulated clock and trace across every caller
of the epoch charge.

Recorded at the parent of the one-charge refactor (three hand-kept
pricing copies) and required to hold after it: sha-256 of ``repr`` of
(``sim_time_s``, ``breakdown``, ``energy``, ``sync_hidden_s``,
``network_retries``, ``accuracy_history``, ``alpha_history``) and of the
exported JSONL trace.  A digest mismatch is a moved paper-facing number
or a moved span, not a tolerance drift.  The table lives in
``pricing_golden.json`` beside this file; regenerate it with
``PYTHONPATH=src python tests/test_pricing_golden.py`` — and say in
CHANGES.md which numbers moved and why.
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import ClusterTopology, FaultSchedule, Session, SoCCrash
from repro.cluster.faults import parse_fault_spec
from repro.core import (PreemptionEvent, SoCFlow, SoCFlowOptions,
                        UnderclockEvent)
from repro.distributed import RunConfig, build_strategy
from repro.jobs import ElasticScheduler, TrainingJob
from repro.jobs.execution import JobExecution
from repro.telemetry import Telemetry
from repro.telemetry.export import to_jsonl

#: 12 SoCs in 4 groups map onto two communication groups
TOPOLOGY = ClusterTopology(num_socs=12)
FAULTS = "crash:epoch=1,soc=3;flap:epoch=0,pcb=0,mult=0.2,until=2"

FUSION = {
    "whole": {},
    "one_bucket": dict(fusion_threshold_mb=512.0),
    "multi_bucket": dict(fusion_max_ops=2),
}

SOCFLOW_VARIANTS = {
    "planned": {},
    "unplanned": dict(planning=False),
    "ungrouped": dict(grouping=False),
    "fp32": dict(precision="fp32"),
    "int8": dict(precision="int8"),
    "fixed_alpha": dict(fixed_alpha=0.7),
    "underclock": dict(events=(UnderclockEvent(epoch=1, soc=2, factor=0.5),)),
    "crash_flap": dict(faults=FAULTS),
    "preemption": dict(events=(PreemptionEvent(epoch=1, num_groups=1),)),
    "checkpoint": dict(checkpoint_path="epoch.npz"),
}

BASELINES = ("ring", "ps", "hipress", "2d_paral", "ssp")
BASELINE_VARIANTS = {
    "whole": {},
    "multi_bucket": dict(fusion_max_ops=2),
    "continue": dict(faults=FAULTS, fault_mode="continue"),
}


def sha(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode()).hexdigest()


def make_config(task, **overrides) -> RunConfig:
    faults = overrides.pop("faults", None)
    kwargs = dict(
        task=task, model_name="lenet5", width=1.0, batch_size=16, lr=0.05,
        max_epochs=2, seed=0, topology=TOPOLOGY,
        sim_samples_per_epoch=2_000, sim_global_batch=64, num_groups=4,
        telemetry=Telemetry.active(),
        fault_schedule=(parse_fault_spec(faults, TOPOLOGY)
                        if faults else None))
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def run_digests(strategy, config) -> dict:
    result = strategy.train(config)
    extra = result.extra
    return {
        "result": sha((result.sim_time_s, result.breakdown, result.energy,
                       extra["sync_hidden_s"], extra["network_retries"],
                       result.accuracy_history,
                       extra.get("alpha_history"))),
        "trace": sha(to_jsonl(config.telemetry.tracer)),
    }


def socflow_digests(task, variant: str, fusion: str) -> dict:
    options = dict(SOCFLOW_VARIANTS[variant])
    faults = options.pop("faults", None)
    config = make_config(task, faults=faults, **FUSION[fusion])
    with tempfile.TemporaryDirectory() as scratch:
        if "checkpoint_path" in options:
            options["checkpoint_path"] = f"{scratch}/epoch.npz"
        return run_digests(SoCFlow(SoCFlowOptions(**options)), config)


def socflow_resume_digests(task) -> dict:
    """A run stopped after epoch 0, then resumed from its epoch
    checkpoint for epochs 1 and 2."""
    with tempfile.TemporaryDirectory() as scratch:
        options = SoCFlowOptions(checkpoint_path=f"{scratch}/epoch.npz",
                                 resume=True)
        SoCFlow(options).train(make_config(task, max_epochs=1,
                                           telemetry=None))
        return run_digests(SoCFlow(options), make_config(task, max_epochs=3))


def baseline_digests(task, method: str, variant: str) -> dict:
    config = make_config(task, **BASELINE_VARIANTS[variant])
    return run_digests(build_strategy(method), config)


def job_digest(task, mixed: bool) -> str:
    """place -> epoch -> resize -> epoch -> preempt -> resume -> epoch."""
    job = TrainingJob("job", "tiny", priority=1, min_socs=4, max_socs=12,
                      epochs=3, target_group_size=3, mixed=mixed)
    config = replace(make_config(task), telemetry=None, max_epochs=3)
    execution = JobExecution(job, config)
    try:
        seconds = [execution.place(list(range(10))), execution.run_epoch(),
                   execution.resize(list(range(4, 10))),
                   execution.run_epoch(), execution.preempt(),
                   execution.place(list(range(12))), execution.run_epoch()]
    finally:
        execution.close()
    clock = execution.cost.clock
    return sha((seconds, clock.now, clock.breakdown(),
                clock.attributed_breakdown(), execution.cost.energy.report,
                execution.cost.fabric.total_retries, execution.history,
                list(execution.controller.history)))


def jobs_day_digest(task) -> str:
    """An elastic scheduling day on 12 SoCs: a crash shrinks the running
    job, a second tenant's arrival resizes it, a session burst preempts
    both and they resume when it ends; both complete."""
    jobs = [TrainingJob("a", "tiny", priority=1, min_socs=4, max_socs=12,
                        epochs=6, target_group_size=3, mixed=True),
            TrainingJob("b", "tiny", priority=2, min_socs=4, max_socs=8,
                        epochs=3, target_group_size=2, mixed=False,
                        submit_hour=0.75, seed=1)]
    sessions = [Session(s, 1.25, 0.5) for s in range(12)]

    def config_for(job):
        return replace(make_config(task), telemetry=None,
                       max_epochs=job.epochs, seed=job.seed)

    scheduler = ElasticScheduler(
        TOPOLOGY, sessions, quantum_hours=0.25, horizon_hours=4.0,
        fault_schedule=FaultSchedule((SoCCrash(2, 5),)),
        config_factory=config_for)
    for job in jobs:
        scheduler.submit(job)
    report = scheduler.run()
    executions = [scheduler._execs[job.id] for job in jobs]
    return sha((report.to_dict(),
                [(ex.cost.clock.now, ex.cost.clock.breakdown(),
                  ex.cost.energy.report, ex.history) for ex in executions]))


#: every pinned case: key -> (digest function, its arguments)
CASES = {
    **{f"socflow/{variant}/{fusion}": (socflow_digests, variant, fusion)
       for variant in SOCFLOW_VARIANTS for fusion in FUSION},
    **{f"{method}/{variant}": (baseline_digests, method, variant)
       for method in BASELINES for variant in BASELINE_VARIANTS},
    "job/fp32": (job_digest, False),
    "job/mixed": (job_digest, True),
    "jobs/day": (jobs_day_digest,),
    "socflow/resume": (socflow_resume_digests,),
}

# Bucketed traces were re-recorded by the one-charge refactor
# (bucket_sync spans clipped to the charged window with hidden shares
# that sum to the charge's, per-CG allreduce shares normalised by the
# whole-model CG times) and job/mixed by pricing the epoch at the CPU
# share its batches used; ssp/continue by the one epoch loop (SSP reads
# the fault schedule now: survivors share the batch, the PS sync is
# re-priced on the degraded fabric).  The one control board re-recorded
# socflow/checkpoint/* (the epoch checkpoint is priced at paper scale,
# not from the host model's bytes), the baselines' continue traces (they
# draw the fault onset events SoCFlow draws) and the other socflow
# result digests by type only: SoCFlow's dispatch payload used to be a
# numpy float64, so its whole clock ran in np.float64; the same values
# are Python floats now.  Every other digest is the parent's.
# jobs/day and socflow/resume were recorded before SoCFlow and the job
# scheduler shared one group-wise run, to hold across that refactor.
GOLDEN_PATH = Path(__file__).with_name("pricing_golden.json")


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden(tiny_task, key):
    digest, *args = CASES[key]
    assert digest(tiny_task, *args) \
        == json.loads(GOLDEN_PATH.read_text())[key]


if __name__ == "__main__":                              # pragma: no cover
    from repro.data import make_classification_images
    task = make_classification_images(
        num_classes=6, train_size=600, test_size=240, channels=3,
        image_size=12, difficulty=0.4, seed=0)           # conftest.tiny_task
    table = {key: digest(task, *args)
             for key, (digest, *args) in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
