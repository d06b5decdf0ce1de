"""Simulation-as-a-service: a persistent async job API over the runner.

Every run used to be a cold CLI invocation; this package keeps one
long-lived process serving experiment requests over HTTP/JSON (stdlib
``asyncio`` only — no new dependencies):

* :mod:`repro.service.jobs` — the persistent job table: request-digest
  dedup against the report store + run ledger, single-flight coalescing
  of concurrent duplicate submissions, and a crash-safe JSONL journal so
  a restarted server never silently loses a job.
* :mod:`repro.service.scheduler` — bridges accepted jobs onto the
  existing :class:`~repro.runtime.backends.base.ExecutorBackend`
  (inproc or procpool, by ``--jobs``) on a worker thread, off the
  event loop.
* :mod:`repro.service.server` — the asyncio HTTP server: job lifecycle
  endpoints, an SSE progress stream tailing the run's structured event
  file, and the ledger/dashboard/audit views served live.
* :mod:`repro.service.client` — a stdlib ``http.client`` consumer used
  by the ``client`` CLI family, the tests, and the CI smoke.

The load-bearing invariant (enforced by ``tests/test_service.py``, the
``service_vs_cli`` QA oracle, and the CI ``service`` job's ``cmp``): a
report fetched through the service is **byte-identical** to the same
configuration run through the CLI.
"""

from repro.service.jobs import JOB_STATES, Job, JobTable, request_digest

__all__ = [
    "JOB_STATES",
    "Job",
    "JobTable",
    "request_digest",
]
