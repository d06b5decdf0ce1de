"""Resilient experiment runtime: supervision, checkpointing, chaos.

The runtime applies the paper's detect/contain/replay philosophy to the
reproduction harness itself:

* :mod:`repro.runtime.executor` — fault-isolated supervised runs; one
  crashing experiment never aborts the batch.
* :mod:`repro.runtime.checkpoint` — checksum-verified on-disk store for
  expensive artefacts (chips, error traces) enabling checkpoint/resume.
* :mod:`repro.runtime.parallel` — process-pool fan-out of error traces
  and experiments with deterministic merge and crash containment, plus
  the context builder and resolver every path sets experiments up with.
* :mod:`repro.runtime.backends` — :func:`run_experiments`, the one run
  path: serial in this process at ``jobs == 1``, else
  :func:`~repro.runtime.backends.procpool.run_fleet` (shared-memory
  chips, prefetch, fan-out); the report is bit-identical either way.
* :mod:`repro.runtime.chaos` — deliberate fault injection (experiment
  and store faults) so tests can prove the layers above degrade
  gracefully.
* :mod:`repro.runtime.log` — shared structured logging.
"""

from repro.runtime.backends import run_experiments
from repro.runtime.checkpoint import (
    CheckpointStore,
    StoreStats,
    artefact_key,
    config_fingerprint,
)
from repro.runtime.executor import (
    ExperimentTimeout,
    FailureRecord,
    RunOutcome,
    RunReport,
    run_many,
    run_supervised,
)
from repro.runtime.log import configure as configure_logging
from repro.runtime.log import get_logger
from repro.runtime.log import reset as reset_logging
from repro.runtime.parallel import (
    WorkerSpec,
    default_jobs,
    prefetch_artefacts,
    run_many_parallel,
)

__all__ = [
    "CheckpointStore",
    "ExperimentTimeout",
    "FailureRecord",
    "RunOutcome",
    "RunReport",
    "StoreStats",
    "WorkerSpec",
    "artefact_key",
    "config_fingerprint",
    "configure_logging",
    "default_jobs",
    "get_logger",
    "prefetch_artefacts",
    "reset_logging",
    "run_experiments",
    "run_many",
    "run_many_parallel",
    "run_supervised",
]
