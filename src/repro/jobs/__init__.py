"""Elastic multi-tenant job scheduling for the SoC-Cluster.

The paper trains *one* model in the overnight idle window; real
clusters host many tenants.  This subsystem layers a job abstraction
over the existing SoCFlow machinery:

- :mod:`spec` — :class:`TrainingJob` (workload, priority, elastic SoC
  range, deadline) and YAML/JSON job-file parsing;
- :mod:`queue` — priority queue with structural admission control;
- :mod:`execution` — one job's warm training state (trainer groups,
  mapping/CG plan, per-job clock, checkpoint) with gang-place /
  elastic-resize / preempt / run-epoch lifecycle;
- :mod:`scheduler` — the round-based :class:`ElasticScheduler`: idle
  capacity from the tidal session trace, fair-share gang placement
  with priority preemption, elastic grow/shrink as users come and go.
"""

from .execution import JobExecution
from .queue import JobAdmissionError, JobQueue, QueueEntry
from .scheduler import ElasticScheduler, JobRecord, ScheduleReport
from .spec import (JobSpecError, TrainingJob, load_job_file, parse_job_specs,
                   parse_simple_yaml)

__all__ = [
    "TrainingJob", "JobSpecError", "parse_job_specs", "load_job_file",
    "parse_simple_yaml",
    "JobQueue", "QueueEntry", "JobAdmissionError",
    "JobExecution",
    "ElasticScheduler", "JobRecord", "ScheduleReport",
]
