"""Self-contained HTML observability dashboard.

:func:`render_dashboard` turns ledger records into **one** HTML file
with zero external fetches — no scripts, no stylesheets, no fonts, no
images beyond inline SVG — so CI can upload it as an artifact and it
renders anywhere, offline, forever.

Layout: stat tiles (runs, pass rate, span total, checkpoint hit-rate),
then an inline-SVG sparkline per ledger metric series, a
spans-by-wall-clock table, the per-scheme domain-counter breakdown
(errors / rollbacks / replays / stalls per scheme), and a pointer to
the Perfetto trace for drill-down.  Light and dark render from the same
markup via CSS custom properties + ``prefers-color-scheme``; hover
values come from native SVG ``<title>`` tooltips, keeping the file
JavaScript-free.
"""

from __future__ import annotations

import html
from typing import Any

from repro.obs import trends

#: sparkline geometry (px).
SPARK_W, SPARK_H, SPARK_PAD = 220, 44, 6

_CSS = """
:root {
  color-scheme: light dark;
  --page: #f9f9f7;
  --surface: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11, 11, 11, 0.10);
  --series: #2a78d6;
  --bad: #d03b3b;
  --good: #006300;
}
@media (prefers-color-scheme: dark) {
  :root {
    --page: #0d0d0d;
    --surface: #1a1a19;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255, 255, 255, 0.10);
    --series: #3987e5;
    --bad: #d03b3b;
    --good: #0ca30c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 24px;
  background: var(--page);
  color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 16px;
  min-width: 150px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .delta { font-size: 12px; }
.delta.up-bad { color: var(--bad); }
.delta.ok { color: var(--good); }
table {
  border-collapse: collapse;
  background: var(--surface);
  border: 1px solid var(--border);
  border-radius: 8px;
  width: 100%;
}
th, td { padding: 6px 12px; text-align: left; border-top: 1px solid var(--grid); }
thead th { border-top: none; color: var(--ink-2); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
td.metric { color: var(--ink-2); font-family: ui-monospace, monospace; font-size: 12px; }
.spark line { stroke: var(--grid); stroke-width: 1; }
.spark polyline {
  fill: none;
  stroke: var(--series);
  stroke-width: 2;
  stroke-linejoin: round;
  stroke-linecap: round;
}
.spark .dot { fill: var(--series); stroke: var(--surface); stroke-width: 2; }
.lane line { stroke: var(--grid); stroke-width: 1; }
.lane .bar { fill: var(--series); rx: 2; }
.lane .bar.bad { fill: var(--bad); }
.lane .bar.open { fill: var(--muted); }
.lane .mark { fill: var(--ink-2); font-size: 11px; text-anchor: middle; }
.drift { color: var(--bad); font-weight: 600; }
.footer { color: var(--muted); font-size: 12px; margin-top: 28px; }
a { color: var(--series); }
"""


def _fmt(value: float) -> str:
    """Compact human value: 1284 -> 1,284; 0.123456 -> 0.1235."""
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}"


def _sparkline(values: list[float], name: str) -> str:
    """Inline SVG sparkline: 2px series line, ringed end-dot, native
    ``<title>`` tooltip carrying the raw values."""
    w, h, pad = SPARK_W, SPARK_H, SPARK_PAD
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = (w - 2 * pad) / max(n - 1, 1)
    points = [
        (pad + i * step, h - pad - (v - lo) / span * (h - 2 * pad))
        for i, v in enumerate(values)
    ]
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    end_x, end_y = points[-1]
    baseline_y = h - pad
    title = html.escape(f"{name}: " + " → ".join(_fmt(v) for v in values))
    polyline = (
        f'<polyline points="{coords}" />'
        if n > 1
        else ""
    )
    return (
        f'<svg class="spark" width="{w}" height="{h}" role="img" '
        f'aria-label="{html.escape(name)} trend">'
        f"<title>{title}</title>"
        f'<line x1="{pad}" y1="{baseline_y}" x2="{w - pad}" y2="{baseline_y}" />'
        f"{polyline}"
        f'<circle class="dot" cx="{end_x:.1f}" cy="{end_y:.1f}" r="4" />'
        f"</svg>"
    )


def _tile(label: str, value: str, delta: str = "", delta_class: str = "") -> str:
    delta_html = (
        f'<div class="delta {delta_class}">{html.escape(delta)}</div>' if delta else ""
    )
    return (
        f'<div class="tile"><div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(value)}</div>{delta_html}</div>'
    )


def _scheme_breakdown(domain: dict[str, float]) -> list[tuple[str, dict[str, float]]]:
    """Pivot ``scheme.<counter>{scheme=NAME}`` counters to per-scheme rows."""
    per_scheme: dict[str, dict[str, float]] = {}
    for name, value in domain.items():
        if not name.startswith("scheme.") or "{" not in name:
            continue
        base, labels = name[len("scheme."):].split("{", 1)
        scheme = ""
        for part in labels.rstrip("}").split(","):
            key, _, val = part.partition("=")
            if key == "scheme":
                scheme = val
        if scheme:
            per_scheme.setdefault(scheme, {})[base] = value
    return sorted(per_scheme.items())


#: fleet-lane timeline geometry (px).
LANE_W, LANE_ROW_H, LANE_PAD = 720, 24, 6

#: event kinds drawn as markers (not bars) on a fleet lane.
_LANE_MARKS = {"crash": "✕", "resubmit": "↻"}


def _fleet_lanes(events: list[dict[str, Any]]) -> str:
    """Per-worker task-interval timeline from one run's event stream.

    Each worker gets a lane; a bar spans started→result for every task
    it ran (red if the task ended in a crash), with crash / resubmit
    markers overlaid.  Pure inline SVG with native ``<title>`` tooltips,
    like the sparklines.
    """
    stamps = [float(e.get("ts", 0.0)) for e in events if e.get("ts")]
    if not stamps:
        return ""
    t0, t1 = min(stamps), max(stamps)
    span = (t1 - t0) or 1.0

    def x_of(ts: float) -> float:
        return LANE_PAD + (ts - t0) / span * (LANE_W - 2 * LANE_PAD)

    lanes: dict[str, dict[str, Any]] = {}
    open_tasks: dict[tuple[str, str], float] = {}
    for event in events:
        label = event.get("worker")
        if not label:
            continue
        lane = lanes.setdefault(label, {"bars": [], "marks": []})
        kind = event.get("kind")
        ts = float(event.get("ts", 0.0))
        eid = event.get("experiment") or ""
        if kind == "started" and (label, eid) not in open_tasks:
            open_tasks[(label, eid)] = ts
        elif kind in ("result", "crash") and (label, eid) in open_tasks:
            start = open_tasks.pop((label, eid))
            status = str(event.get("status", kind))
            lane["bars"].append((start, ts, eid, status))
        if kind in _LANE_MARKS:
            lane["marks"].append((ts, kind, eid))
    for (label, eid), start in open_tasks.items():  # still running at EOF
        lanes[label]["bars"].append((start, t1, eid, "running"))

    rows = []
    for label in sorted(lanes):
        lane = lanes[label]
        h = LANE_ROW_H
        bars = []
        for start, end, eid, status in lane["bars"]:
            x, x2 = x_of(start), x_of(end)
            bad = status in ("crash", "timeout", "exception")
            cls = "bad" if bad else ("open" if status == "running" else "")
            title = html.escape(f"{eid}: {status} ({end - start:.2f}s)")
            bars.append(
                f'<rect class="bar {cls}" x="{x:.1f}" y="4" '
                f'width="{max(x2 - x, 2.0):.1f}" height="{h - 8}">'
                f"<title>{title}</title></rect>"
            )
        marks = []
        for ts, kind, eid in lane["marks"]:
            title = html.escape(f"{kind} {eid}".strip())
            marks.append(
                f'<text class="mark" x="{x_of(ts):.1f}" y="{h - 7}">'
                f"{_LANE_MARKS[kind]}<title>{title}</title></text>"
            )
        rows.append(
            f'<tr><td class="metric">{html.escape(label)}</td>'
            f'<td><svg class="lane" width="{LANE_W}" height="{h}" role="img" '
            f'aria-label="{html.escape(label)} timeline">'
            f'<line x1="{LANE_PAD}" y1="{h - 4}" x2="{LANE_W - LANE_PAD}" '
            f'y2="{h - 4}" />{"".join(bars)}{"".join(marks)}</svg></td></tr>'
        )
    counts: dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    legend = " · ".join(f"{k}: {counts[k]}" for k in sorted(counts))
    return (
        f"<h2>Fleet lanes ({span:.1f} s, {len(lanes)} worker(s))</h2>"
        f"<table><thead><tr><th>Worker</th><th>Timeline</th></tr></thead>"
        f"<tbody>{''.join(rows) or _EMPTY_ROW}</tbody></table>"
        f'<p class="sub">{html.escape(legend)}</p>'
    )


#: audit decision-timeline columns: (rollup key, column header).
_AUDIT_COLS = (
    ("detect", "detect"),
    ("predict", "predict"),
    ("false_positive", "false+"),
    ("avoid", "avoid"),
    ("under_stall", "under-stall"),
    ("penalty_cycles", "penalty cyc"),
)


def _audit_panel(rollup: dict[str, Any]) -> str:
    """Per-scheme decision-timeline panel from the ledger audit rollup.

    Each scheme row shows its decision counts plus the bucketed severity
    timeline string recorded by :func:`repro.obs.audit.decision_timeline`
    ('.' quiet, a=avoid, p=predict, f=false-positive, D=detect,
    U=under-stall) — the cycle-resolved story behind the aggregate
    counters above it.
    """
    schemes = rollup.get("schemes", {}) if rollup else {}
    if not schemes:
        return ""
    head = "".join(f'<th class="num">{html.escape(h)}</th>' for _k, h in _AUDIT_COLS)
    rows = []
    for scheme in sorted(schemes):
        entry = schemes[scheme]
        cells = "".join(
            f'<td class="num">{_fmt(float(entry.get(key, 0)))}</td>'
            for key, _h in _AUDIT_COLS
        )
        timeline = html.escape(str(entry.get("timeline", "")))
        rows.append(
            f"<tr><td>{html.escape(scheme)}</td>{cells}"
            f'<td class="metric">{timeline}</td></tr>'
        )
    policy = html.escape(str(rollup.get("policy", "full")))
    records = int(rollup.get("records", 0))
    return (
        "<h2>Audit decision timelines (latest run)</h2>"
        f"<table><thead><tr><th>Scheme</th>{head}<th>Timeline</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table>'
        f'<p class="sub">policy {policy} · {records} record(s) · '
        "glyphs: a=avoid p=predict f=false-positive D=detect U=under-stall</p>"
    )


def render_dashboard(
    records: list[dict[str, Any]],
    trace_path: str | None = None,
    max_series: int = 200,
    events_path: str | None = None,
) -> str:
    """Render the full dashboard HTML for the given ledger records."""
    latest = records[-1] if records else {}
    series = trends.history(records)
    findings = trends.detect_drift(records)
    drifted = {f["metric"] for f in findings if f["drifted"]}

    experiments = latest.get("experiments", {})
    ok = sum(1 for e in experiments.values() if e.get("status") == "ok")
    hit_rate = latest.get("checkpoint", {}).get("hit_rate")
    rev = str(latest.get("git_rev", "unknown"))

    tiles = [
        _tile("Runs recorded", _fmt(len(records))),
        _tile(
            "Experiments ok (latest run)",
            f"{ok}/{len(experiments)}" if experiments else "—",
            delta="all passing" if experiments and ok == len(experiments) else
            (f"{len(experiments) - ok} failing" if experiments else ""),
            delta_class="ok" if ok == len(experiments) else "up-bad",
        ),
        _tile("Span total (latest run)",
              f"{latest.get('span_total_s', 0.0):.2f} s" if records else "—"),
        _tile("Checkpoint hit-rate",
              f"{hit_rate:.0%}" if isinstance(hit_rate, float) else "—"),
        _tile("Metrics drifting", _fmt(len(drifted)),
              delta="MAD z-score gate" if findings else "needs ≥ 4 runs",
              delta_class="up-bad" if drifted else "ok"),
    ]

    spark_rows = []
    for name in sorted(series)[:max_series]:
        values = series[name]
        flag = ' <span class="drift">drift</span>' if name in drifted else ""
        spark_rows.append(
            f'<tr><td class="metric">{html.escape(name)}{flag}</td>'
            f"<td>{_sparkline(values, name)}</td>"
            f'<td class="num">{html.escape(_fmt(values[-1]))}</td></tr>'
        )

    span_rows = []
    for name, seconds in sorted(
        latest.get("spans", {}).items(), key=lambda kv: -kv[1]
    ):
        span_rows.append(
            f'<tr><td class="metric">{html.escape(name)}</td>'
            f'<td class="num">{seconds:.4f}</td></tr>'
        )

    scheme_counters = _scheme_breakdown(latest.get("domain", {}))
    counter_names = sorted({c for _, counters in scheme_counters for c in counters})
    scheme_head = "".join(
        f'<th class="num">{html.escape(c)}</th>' for c in counter_names
    )
    scheme_rows = []
    for scheme, counters in scheme_counters:
        cells = "".join(
            f'<td class="num">{_fmt(counters[c]) if c in counters else "—"}</td>'
            for c in counter_names
        )
        scheme_rows.append(f"<tr><td>{html.escape(scheme)}</td>{cells}</tr>")

    trace_note = (
        f'<p class="sub">Trace: open <a href="https://ui.perfetto.dev">'
        f"ui.perfetto.dev</a> and load <code>{html.escape(trace_path)}</code> "
        f"for span-level drill-down.</p>"
        if trace_path
        else ""
    )

    fleet_section = ""
    if events_path:
        from repro.obs.events import read_events

        fleet_section = _fleet_lanes(read_events(events_path))

    sections = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        "<title>Run ledger dashboard</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>Run ledger dashboard</h1>",
        f'<p class="sub">{len(records)} run(s) · latest rev '
        f"<code>{html.escape(rev[:12])}</code> · config "
        f"<code>{html.escape(str(latest.get('config_digest', '?'))[:12])}</code></p>",
        f'<div class="tiles">{"".join(tiles)}</div>',
        (
            f"<h2>Metric trends ({len(spark_rows)} of {len(series)} series — "
            f"{len(series) - len(spark_rows)} truncated)</h2>"
            if len(series) > max_series
            else f"<h2>Metric trends ({len(spark_rows)} series)</h2>"
        ),
        '<table><thead><tr><th>Metric</th><th>Trend</th>'
        '<th class="num">Latest</th></tr></thead>'
        f'<tbody>{"".join(spark_rows) or _EMPTY_ROW}</tbody></table>',
        "<h2>Spans by wall-clock (latest run)</h2>",
        '<table><thead><tr><th>Span</th><th class="num">Total s</th></tr></thead>'
        f'<tbody>{"".join(span_rows) or _EMPTY_ROW}</tbody></table>',
        "<h2>Per-scheme domain counters (latest run)</h2>",
        f"<table><thead><tr><th>Scheme</th>{scheme_head}</tr></thead>"
        f'<tbody>{"".join(scheme_rows) or _EMPTY_ROW}</tbody></table>',
        _audit_panel(latest.get("audit", {})),
        fleet_section,
        trace_note,
        '<p class="footer">Generated by <code>python -m repro.experiments '
        "ledger html</code> · self-contained, no external resources.</p>",
        "</body></html>",
    ]
    return "\n".join(s for s in sections if s)


_EMPTY_ROW = '<tr><td colspan="9" class="metric">no data yet</td></tr>'
