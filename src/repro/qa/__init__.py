"""Generative QA: property-based fuzzing, oracles, and mutation self-test.

This package is the repo's systematic correctness layer (architecture
§9).  It is dependency-free (numpy + stdlib only) and fully
deterministic: a campaign is a pure function of ``(seed, budget_s,
oracle selection)`` — the time budget is a *planning* input that sizes
per-oracle round counts arithmetically, never a measured wall clock, so
two invocations with the same flags produce bit-identical corpora and
verdicts.

Layout:

* :mod:`repro.qa.circuits` — canonical deterministic builders (random
  netlists, chain circuits, forced-choke chips, synthetic error traces)
  shared with the unit-test suite.
* :mod:`repro.qa.gen` — seeded parameter/case generation combinators.
* :mod:`repro.qa.shrink` — deterministic greedy case shrinking.
* :mod:`repro.qa.oracles` — the registry of differential and invariant
  oracles.
* :mod:`repro.qa.scheme_reference` — the per-cycle DCS/Trident loops the
  event-compressed scheme kernels are checked against.
* :mod:`repro.qa.engine` — budget planning and campaign execution.
* :mod:`repro.qa.corpus` — replayable JSON failure artifacts + the
  checked-in seed corpus.
* :mod:`repro.qa.mutants` — hand-written semantic mutants and the
  mutation self-test proving the oracles have teeth.
* :mod:`repro.qa.cli` — the ``qa {fuzz,repro,corpus,mutate}`` CLI.
"""

from __future__ import annotations

from repro.qa.engine import plan_rounds, run_campaign
from repro.qa.mutants import MUTANTS, run_mutation_test
from repro.qa.oracles import ORACLES, get_oracle

__all__ = [
    "MUTANTS",
    "ORACLES",
    "get_oracle",
    "plan_rounds",
    "run_campaign",
    "run_mutation_test",
]
