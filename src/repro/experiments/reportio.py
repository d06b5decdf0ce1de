"""Report rendering and atomic writes for the CLI.

The byte-identity contract between every consumer of a
:class:`~repro.runtime.executor.RunReport` — the CLI's ``--out`` and
the perfbench digests — holds because they all render through
:func:`render_report`.  There is exactly one serialisation of a report
per format; nothing re-implements it.

:func:`atomic_write_text` is the repo-wide tempfile + ``os.replace``
write used for every report-like artefact, so an interrupted writer can
never leave a truncated file behind.
"""

from __future__ import annotations

import json
import os
import tempfile

#: formats accepted by the CLI's ``--format``.
REPORT_FORMATS = ("text", "json", "csv")


def render_report(report, fmt: str = "text") -> str:
    """One canonical serialisation of a run report per format.

    ``text`` is the human report: every result's table block joined by
    blank lines, plus the pass/fail summary when anything failed.
    ``json`` is the machine report (no trailing newline — historical,
    and pinned by the CI ``cmp`` gates).  ``csv`` concatenates each
    result's table rows.
    """
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r} (known: {REPORT_FORMATS})")
    results = report.results
    if fmt == "json":
        return json.dumps([r.to_dict() for r in results], indent=2)
    if fmt == "csv":
        return "".join(r.to_csv() for r in results)
    payload = "\n\n".join(r.to_text() for r in results) + "\n"
    if report.failures:
        payload += "\n" + report.summary_text() + "\n"
    return payload


def atomic_write_text(path: str, payload: str) -> None:
    """Write via a temp file in the target directory + ``os.replace``.

    An interrupted run can therefore never leave a truncated report: the
    previous file (if any) survives intact until the new one is complete.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
