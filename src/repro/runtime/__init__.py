"""Resilient experiment runtime: supervision, checkpointing, chaos.

The runtime applies the paper's detect/contain/replay philosophy to the
reproduction harness itself:

* :mod:`repro.runtime.executor` — fault-isolated supervised runs; one
  crashing experiment never aborts the batch.
* :mod:`repro.runtime.checkpoint` — checksum-verified on-disk store for
  expensive artefacts (chips, error traces) enabling checkpoint/resume.
* :mod:`repro.runtime.parallel` — process-pool fan-out of artefacts and
  experiments with deterministic merge and crash containment.
* :mod:`repro.runtime.backends` — the two executor backends (inproc
  serial reference, procpool fan-out) behind one bit-identical
  contract, chosen by ``--jobs``.
* :mod:`repro.runtime.backoff` — exponential backoff with deterministic
  seeded jitter for experiment retries.
* :mod:`repro.runtime.chaos` — deliberate fault injection (experiment
  and store faults) so tests can prove the layers above degrade
  gracefully.
* :mod:`repro.runtime.log` — shared structured logging.
"""

from repro.runtime.backoff import backoff_delay, jitter_fraction
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
    run_fleet,
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
    "backoff_delay",
    "config_fingerprint",
    "jitter_fraction",
    "configure_logging",
    "default_jobs",
    "get_logger",
    "prefetch_artefacts",
    "reset_logging",
    "run_fleet",
    "run_many",
    "run_many_parallel",
    "run_supervised",
]
