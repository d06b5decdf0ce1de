"""Exponential backoff with deterministic seeded jitter.

Retry storms are a failure amplifier: a transient fault that knocks out
N tasks at once must not have all N hammer the same resource in
lockstep.  The classic fix is exponential backoff with jitter — but
naive ``random.random()`` jitter would make retry timing (and therefore
telemetry) vary between otherwise identical runs, breaking the
bit-identical reproducibility the rest of the runtime guarantees.

So the jitter here is *seeded*: a CRC32 of the caller-supplied identity
parts (experiment id, attempt number, ...) maps into
``[0.5, 1.0)`` of the exponential envelope.  Same inputs, same delays,
every run, every machine — while distinct tasks still spread out.
"""

from __future__ import annotations

import zlib

#: retries never wait longer than this, whatever the exponent says
DEFAULT_CAP_S = 30.0


def jitter_fraction(*parts: object) -> float:
    """Deterministic pseudo-uniform value in ``[0, 1)`` from ``parts``.

    CRC32 over the reprs — stable across processes and machines (the
    builtin ``hash`` is salted per process and therefore banned here).
    """
    text = "\x1f".join(repr(part) for part in parts)
    return zlib.crc32(text.encode()) / 2**32


def backoff_delay(
    attempt: int,
    base_s: float,
    cap_s: float = DEFAULT_CAP_S,
    seed: tuple[object, ...] = (),
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based).

    The envelope doubles per attempt (``base_s * 2**(attempt-1)``),
    capped at ``cap_s``; the jitter keeps the delay in the upper half of
    the envelope (``[0.5, 1.0)`` of it), so backoff pressure is never
    jittered away entirely.  ``base_s <= 0`` disables backoff.
    """
    if base_s <= 0.0 or attempt < 1:
        return 0.0
    envelope = min(cap_s, base_s * 2.0 ** (attempt - 1))
    return envelope * (0.5 + jitter_fraction(attempt, *seed) / 2.0)
