"""Self-contained HTML report over the run-history ledger.

``repro report --html`` renders one file a reviewer can open from a CI
artifact with no server, no network, and no dependencies: inline CSS,
inline SVG charts, zero scripts.  Output is **deterministic** — the same
ledger (and optional trace) produces byte-identical HTML, so the report
itself can be diffed across commits.  Pieces:

* a status strip: the latest perf-gate outcome and the MAD drift check
  (:func:`repro.obs.history.trend.check_latest`), each as icon + label
  (never color alone);
* headline stat tiles (runs recorded, latest accuracy, latest bench wall);
* the paper's own longitudinal chart — mean CPI error vs sample size —
  and the bench wall-time trend per run, as single-series SVG line charts
  with native ``<title>`` tooltips on every point;
* stacked CPI bars for attributed runs (cycle-accounting records carry
  their full component stack in the ledger), with a text breakdown of
  the latest stack;
* the latest recorded span tree with self-time bars;
* the run table (the "table view" that backs every chart).

Colors come from a validated light/dark palette defined once as CSS
custom properties; all text wears ink tokens, marks carry the hue.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.history import trend as _trend
from repro.obs.sinks import TraceData, aggregate_stacks
from repro.simulator.attribution import COMPONENTS

#: Runs shown in the report's run table (newest first).
TABLE_LIMIT = 50

#: Rows shown in the span-tree section.
TREE_LIMIT = 60

#: Stacked CPI bars shown in the cycle-accounting section (newest first).
STACK_LIMIT = 8

#: Registered models shown in the model-quality table (newest first).
MODEL_LIMIT = 10

#: Serving sessions listed in the serving section (newest first).
SERVE_LIMIT = 10

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e3e2de;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --status-good: #0ca30c;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #3d3d3a;
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
body {
  margin: 0 auto; padding: 24px; max-width: 960px;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.meta { color: var(--text-secondary); margin: 0 0 16px; }
.status { display: flex; gap: 8px; flex-wrap: wrap; margin: 16px 0; }
.chip {
  padding: 3px 10px; border-radius: 12px; background: var(--surface-2);
  color: var(--text-primary); font-size: 13px;
}
.chip b { font-weight: 600; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile {
  background: var(--surface-2); border-radius: 6px; padding: 10px 14px;
  min-width: 130px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .l { color: var(--text-secondary); font-size: 12px; }
svg text { fill: var(--text-secondary); font: 11px system-ui, sans-serif; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 4px 8px; white-space: nowrap; }
th { color: var(--text-secondary); font-weight: 500;
     border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right;
  font-variant-numeric: tabular-nums; }
tr:nth-child(even) td { background: var(--surface-2); }
.tree td { font-family: ui-monospace, monospace; font-size: 12px; }
.bar { display: inline-block; height: 10px; border-radius: 0 4px 4px 0;
       background: var(--series-1); vertical-align: baseline; }
.note { color: var(--text-secondary); font-style: italic; }
.stackbar { display: flex; height: 18px; border-radius: 4px;
            overflow: hidden; margin: 2px 0 10px; }
.stackbar .seg { height: 100%; }
.legend { display: flex; gap: 10px; flex-wrap: wrap; margin: 8px 0;
          font-size: 12px; color: var(--text-secondary); }
.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; vertical-align: -1px; }
"""

#: Mid-tone segment colors, one per CPI-stack component, legible on both
#: the light and dark surfaces (values are always shown as text too, so
#: color is never the only channel).
_STACK_COLORS = {
    "base": "#908f8a",
    "icache": "#9dc3ec",
    "btb_bubble": "#62a6e0",
    "branch_redirect": "#2a78d6",
    "rob": "#7a5cc5",
    "iq": "#a489dd",
    "lsq": "#c9b6ef",
    "fu": "#3f9c6b",
    "dep": "#87c7a2",
    "store_forward": "#c7a22a",
    "dl1": "#eb6834",
    "l2": "#d03b3b",
    "dram": "#8c1f1f",
}

#: Fallback segment color for components this palette does not know.
_STACK_FALLBACK = "#6e6d68"


def _esc(value: Any) -> str:
    """HTML-escape a value's string form."""
    return _html.escape(str(value), quote=True)


def _num(value: Any, fmt: str = "{:.4g}", missing: str = "–") -> str:
    """Format a possibly-missing number for a table cell."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return missing
    return fmt.format(value)


def _chip(kind: str, icon: str, label: str) -> str:
    """One status chip: an icon colored by state plus an always-on label."""
    return (f'<span class="chip"><b style="color: var(--status-{kind})">'
            f'{icon}</b> {_esc(label)}</span>')


def _line_chart(
    points: Sequence[Tuple[float, float, str]],
    x_label: str,
    y_label: str,
    color_var: str,
) -> str:
    """Single-series SVG line chart with ``<title>`` tooltips per point.

    ``points`` is ``(x, y, tooltip)`` in draw order.  One series only, so
    the title names it and no legend box is needed; min/max ticks label
    both axes directly.  All coordinates are rounded for deterministic
    output.
    """
    if len(points) < 2:
        return ('<p class="note">not enough runs recorded to chart '
                f'{_esc(y_label)} yet</p>')
    width, height = 640.0, 190.0
    left, right, top, bottom = 58.0, 14.0, 12.0, 34.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / x_span * (width - left - right)

    def sy(y: float) -> float:
        return (height - bottom) - (y - y_lo) / y_span * (height - top - bottom)

    coords = [(round(sx(x), 2), round(sy(y), 2)) for x, y, _ in points]
    poly = " ".join(f"{cx},{cy}" for cx, cy in coords)
    dots = "".join(
        f'<circle cx="{cx}" cy="{cy}" r="3" fill="var({color_var})">'
        f"<title>{_esc(tip)}</title></circle>"
        for (cx, cy), (_, _, tip) in zip(coords, points)
    )
    base_y = round(height - bottom, 2)
    return (
        f'<svg viewBox="0 0 {width:g} {height:g}" width="{width:g}" '
        f'height="{height:g}" role="img" aria-label="{_esc(y_label)}">'
        f'<line class="axis" x1="{left:g}" y1="{base_y}" x2="{width - right:g}" '
        f'y2="{base_y}"/>'
        f'<line class="axis" x1="{left:g}" y1="{top:g}" x2="{left:g}" '
        f'y2="{base_y}"/>'
        f'<text x="{left - 6:g}" y="{round(sy(y_hi) + 4, 2)}" '
        f'text-anchor="end">{_num(y_hi)}</text>'
        f'<text x="{left - 6:g}" y="{round(sy(y_lo) + 4, 2)}" '
        f'text-anchor="end">{_num(y_lo)}</text>'
        f'<text x="{left:g}" y="{height - 10:g}">{_num(x_lo)}</text>'
        f'<text x="{width - right:g}" y="{height - 10:g}" '
        f'text-anchor="end">{_num(x_hi)}</text>'
        f'<text x="{(left + width - right) / 2:g}" y="{height - 10:g}" '
        f'text-anchor="middle">{_esc(x_label)}</text>'
        f'<polyline points="{poly}" fill="none" stroke="var({color_var})" '
        f'stroke-width="2" stroke-linejoin="round"/>'
        f"{dots}</svg>"
    )


def _error_points(
    runs: Sequence[Mapping[str, Any]],
) -> List[Tuple[float, float, str]]:
    """Latest ``mean_error_pct`` per sample size, ordered by sample size."""
    latest: Dict[float, Tuple[float, str]] = {}
    for record in runs:
        size = record.get("sample_size")
        err = record.get("mean_error_pct")
        if isinstance(size, (int, float)) and isinstance(err, (int, float)) \
                and not isinstance(size, bool) and not isinstance(err, bool):
            tip = (f"n={size:g}: {err:.4g}% "
                   f"({record.get('benchmark') or record.get('command')})")
            latest[float(size)] = (float(err), tip)
    return [(size, latest[size][0], latest[size][1])
            for size in sorted(latest)]


def _bench_points(
    runs: Sequence[Mapping[str, Any]],
) -> List[Tuple[float, float, str]]:
    """Bench wall time per bench run, in ledger (commit) order."""
    points: List[Tuple[float, float, str]] = []
    for record in runs:
        wall = record.get("bench_wall_s")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            sha = (record.get("git_sha") or "?")[:8]
            points.append((
                float(len(points)), float(wall),
                f"run {len(points)} @ {sha}: {wall:.4g}s",
            ))
    return points


def _status_strip(runs: Sequence[Mapping[str, Any]],
                  anomalies: Sequence[str]) -> str:
    """The gate + drift status chips."""
    chips: List[str] = []
    gate = _trend.latest_gate(runs)
    if gate is None:
        chips.append(_chip("serious", "○", "no perf-gate run recorded"))
    elif gate.get("passed"):
        chips.append(_chip("good", "●", "perf gate passed"))
    else:
        count = len(gate.get("violations") or [])
        chips.append(_chip("critical", "✕",
                           f"perf gate failed ({count} violation(s))"))
    if anomalies:
        chips.append(_chip("critical", "▲",
                           f"drift check: {len(anomalies)} anomaly(ies)"))
    else:
        chips.append(_chip("good", "●", "drift check clean"))
    items = "".join(chips)
    details = "".join(f"<li>{_esc(a)}</li>" for a in anomalies)
    if details:
        details = f"<ul>{details}</ul>"
    return f'<div class="status">{items}</div>{details}'


def _tiles(runs: Sequence[Mapping[str, Any]]) -> str:
    """Headline stat tiles."""
    def last(field: str) -> Any:
        for record in reversed(runs):
            if record.get(field) is not None:
                return record.get(field)
        return None

    tiles = [
        (str(len(runs)), "runs recorded"),
        (_num(last("mean_error_pct"), "{:.3g}%"), "latest mean CPI error"),
        (_num(last("bench_wall_s"), "{:.3g}s"), "latest bench wall"),
        (_num(last("cache_hit_rate"), "{:.0%}"), "latest cache hit rate"),
    ]
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="l">{_esc(label)}</div></div>'
        for v, label in tiles
    )
    return f'<div class="tiles">{body}</div>'


def _run_table(runs: Sequence[Mapping[str, Any]]) -> str:
    """The run table (newest first, capped at :data:`TABLE_LIMIT`)."""
    head = (
        "<tr><th>started</th><th>command</th><th>benchmark</th>"
        '<th class="num">sample</th><th class="num">mean err %</th>'
        '<th class="num">wall s</th><th class="num">sims</th>'
        '<th class="num">hit rate</th><th class="num">jobs</th>'
        "<th>git</th></tr>"
    )
    rows: List[str] = []
    for record in list(reversed(runs))[:TABLE_LIMIT]:
        rows.append(
            "<tr>"
            f"<td>{_esc(record.get('started') or '–')}</td>"
            f"<td>{_esc(record.get('command') or '?')}</td>"
            f"<td>{_esc(record.get('benchmark') or '–')}</td>"
            f'<td class="num">{_num(record.get("sample_size"), "{:g}")}</td>'
            f'<td class="num">{_num(record.get("mean_error_pct"))}</td>'
            f'<td class="num">{_num(record.get("wall_time_s"))}</td>'
            f'<td class="num">{_num(record.get("simulations_run"), "{:g}")}</td>'
            f'<td class="num">{_num(record.get("cache_hit_rate"), "{:.0%}")}</td>'
            f'<td class="num">{_num(record.get("jobs"), "{:g}")}</td>'
            f"<td>{_esc((record.get('git_sha') or '–')[:8])}</td>"
            "</tr>"
        )
    omitted = ""
    if len(runs) > TABLE_LIMIT:
        omitted = (f'<p class="note">{len(runs) - TABLE_LIMIT} older '
                   f"run(s) not shown</p>")
    return f"<table>{head}{''.join(rows)}</table>{omitted}"


def _trace_tree(trace: Optional[TraceData]) -> str:
    """The latest trace's span tree with self-time bars."""
    if trace is None:
        return ('<p class="note">no trace recorded yet — run with '
                "<code>--trace</code> to capture one</p>")
    stats = aggregate_stacks(trace)
    if not stats:
        return '<p class="note">the latest trace recorded no spans</p>'
    max_self = max(s.self_s for s in stats) or 1.0
    command = trace.header.get("command")
    caption = (f'<p class="meta">latest trace: {_esc(command)}</p>'
               if command else "")
    head = ('<tr><th>span</th><th class="num">calls</th>'
            '<th class="num">cum s</th><th class="num">self s</th>'
            "<th>self time</th></tr>")
    rows: List[str] = []
    for stat in stats[:TREE_LIMIT]:
        indent = "&nbsp;" * 2 * (len(stat.stack) - 1)
        width = round(stat.self_s / max_self * 100.0, 1)
        rows.append(
            "<tr>"
            f"<td>{indent}{_esc(stat.name)}</td>"
            f'<td class="num">{stat.calls}</td>'
            f'<td class="num">{stat.cum_s:.4f}</td>'
            f'<td class="num">{stat.self_s:.4f}</td>'
            f'<td><span class="bar" style="width: {width:g}%; '
            f'min-width: 2px"></span></td>'
            "</tr>"
        )
    omitted = ""
    if len(stats) > TREE_LIMIT:
        omitted = (f'<p class="note">{len(stats) - TREE_LIMIT} more '
                   f"stack(s) not shown</p>")
    return f'{caption}<table class="tree">{head}{"".join(rows)}</table>{omitted}'


def _stack_runs(
    runs: Sequence[Mapping[str, Any]],
) -> List[Tuple[str, Dict[str, float], float]]:
    """Stack-bearing runs, newest first, capped at :data:`STACK_LIMIT`.

    Returns ``(label, components, total_cycles)`` rows; records whose
    ``stack`` is missing, empty, or sums to zero are skipped.
    """
    rows: List[Tuple[str, Dict[str, float], float]] = []
    for record in reversed(runs):
        stack = record.get("stack")
        if not isinstance(stack, Mapping):
            continue
        components = {
            str(name): float(value) for name, value in stack.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        total = sum(components.values())
        if total <= 0.0:
            continue
        what = record.get("benchmark") or record.get("command") or "?"
        sha = (record.get("git_sha") or "?")[:8]
        rows.append((f"{what} @ {sha}", components, total))
        if len(rows) == STACK_LIMIT:
            break
    return rows


def _stack_order(components: Mapping[str, float]) -> List[str]:
    """Canonical attribution order first, then unknown keys sorted."""
    known = [name for name in COMPONENTS if name in components]
    extra = sorted(name for name in components if name not in set(COMPONENTS))
    return known + extra


def _stack_section(runs: Sequence[Mapping[str, Any]]) -> str:
    """Stacked CPI bars for attributed runs, plus a text breakdown.

    One horizontal stacked bar per stack-bearing ledger record (segment
    widths are cycle shares, each with a ``title`` tooltip naming the
    component), a color legend, and a table of the latest stack so every
    value is available as text, not only as color.
    """
    rows = _stack_runs(runs)
    if not rows:
        return ('<p class="note">no attributed runs recorded yet — run '
                "<code>repro stacks</code> to capture a CPI stack</p>")
    seen: List[str] = []
    for _, components, _ in rows:
        for name in _stack_order(components):
            if name not in seen and components.get(name, 0.0) > 0.0:
                seen.append(name)
    order = [n for n in COMPONENTS if n in seen] + \
        [n for n in seen if n not in set(COMPONENTS)]
    legend = "".join(
        f'<span><span class="swatch" style="background: '
        f'{_STACK_COLORS.get(name, _STACK_FALLBACK)}"></span> {_esc(name)}'
        "</span>"
        for name in order
    )
    bars: List[str] = []
    for label, components, total in rows:
        segs = "".join(
            f'<span class="seg" style="width: '
            f"{round(components[name] / total * 100.0, 2):g}%; background: "
            f'{_STACK_COLORS.get(name, _STACK_FALLBACK)}" '
            f'title="{_esc(name)}: {components[name]:g} cycles '
            f'({components[name] / total * 100.0:.1f}%)"></span>'
            for name in _stack_order(components)
            if components[name] > 0.0
        )
        bars.append(f'<p class="meta">{_esc(label)} — {total:g} cycles</p>'
                    f'<div class="stackbar">{segs}</div>')
    latest_label, latest, latest_total = rows[0]
    head = ('<tr><th>component</th><th class="num">cycles</th>'
            '<th class="num">share</th></tr>')
    cells = "".join(
        "<tr>"
        f"<td>{_esc(name)}</td>"
        f'<td class="num">{latest[name]:g}</td>'
        f'<td class="num">{latest[name] / latest_total * 100.0:.1f}%</td>'
        "</tr>"
        for name in _stack_order(latest)
        if latest[name] > 0.0
    )
    table = (f'<p class="meta">latest stack: {_esc(latest_label)}</p>'
             f"<table>{head}{cells}</table>")
    return f'<div class="legend">{legend}</div>{"".join(bars)}{table}'


def _model_points(
    runs: Sequence[Mapping[str, Any]],
) -> List[Tuple[float, float, str]]:
    """Mean fit error per registered-model run, in ledger (refit) order."""
    points: List[Tuple[float, float, str]] = []
    for record in runs:
        if not record.get("model_sha"):
            continue
        err = record.get("mean_error_pct")
        if not isinstance(err, (int, float)) or isinstance(err, bool):
            continue
        label = record.get("benchmark") or record.get("command") or "?"
        points.append((
            float(len(points)), float(err),
            f"{label} v{record.get('model_version') or '?'} "
            f"@ {str(record.get('model_sha'))[:8]}: {err:.4g}%",
        ))
    return points


def _model_section(runs: Sequence[Mapping[str, Any]]) -> str:
    """Model-quality trend: fit error per registration, plus the registry
    references (sha, lineage version, family) of the latest fits.

    Only ledger records carrying a ``model_sha`` participate — these are
    the ``repro build`` runs that registered their fit, so the series is
    the longitudinal "is the fit getting worse?" record that ``repro
    models check`` gates point-wise.
    """
    chart = _line_chart(
        _model_points(runs), "registration (ledger order)",
        "mean fit error (%)", "--series-1")
    model_runs = [r for r in reversed(runs) if r.get("model_sha")]
    if not model_runs:
        return ('<p class="note">no registered models recorded yet — '
                "<code>repro build</code> registers its fit automatically"
                "</p>")
    head = ("<tr><th>started</th><th>benchmark</th><th>family</th>"
            '<th class="num">sample</th><th class="num">version</th>'
            '<th class="num">mean err %</th><th>model sha</th></tr>')
    rows: List[str] = []
    for record in model_runs[:MODEL_LIMIT]:
        rows.append(
            "<tr>"
            f"<td>{_esc(record.get('started') or '–')}</td>"
            f"<td>{_esc(record.get('benchmark') or '–')}</td>"
            f"<td>{_esc(record.get('model_family') or '–')}</td>"
            f'<td class="num">{_num(record.get("sample_size"), "{:g}")}</td>'
            f'<td class="num">{_num(record.get("model_version"), "{:g}")}</td>'
            f'<td class="num">{_num(record.get("mean_error_pct"))}</td>'
            f"<td>{_esc(str(record.get('model_sha'))[:16])}</td>"
            "</tr>"
        )
    omitted = ""
    if len(model_runs) > MODEL_LIMIT:
        omitted = (f'<p class="note">{len(model_runs) - MODEL_LIMIT} older '
                   f"registration(s) not shown</p>")
    return f"{chart}<table>{head}{''.join(rows)}</table>{omitted}"


def _serve_points(
    runs: Sequence[Mapping[str, Any]],
) -> List[Tuple[float, float, str]]:
    """p99 latency per serving session, in ledger (session) order."""
    points: List[Tuple[float, float, str]] = []
    for record in runs:
        if record.get("command") != "serve":
            continue
        p99 = record.get("latency_p99_ms")
        if not isinstance(p99, (int, float)) or isinstance(p99, bool):
            continue
        points.append((
            float(len(points)), float(p99),
            f"{record.get('started') or '?'}: p99 {p99:.4g} ms over "
            f"{record.get('requests_served') or 0} request(s)",
        ))
    return points


def _serve_section(runs: Sequence[Mapping[str, Any]]) -> str:
    """Serving sessions: request volume, errors and latency quantiles.

    Each ``repro serve`` session appends one ledger record at shutdown
    (requests served, error count, p50/p90/p99 latency), so the serving
    tail is trendable exactly like batch runs — this section charts the
    p99 series and tabulates the recent sessions.
    """
    serve_runs = [r for r in reversed(runs) if r.get("command") == "serve"]
    if not serve_runs:
        return ('<p class="note">no serving sessions recorded yet — '
                "<code>repro serve</code> appends one record per session"
                "</p>")
    chart = _line_chart(
        _serve_points(runs), "serving session (ledger order)",
        "p99 latency (ms)", "--series-2")
    head = ("<tr><th>started</th><th class=\"num\">requests</th>"
            '<th class="num">errors</th><th class="num">p50 ms</th>'
            '<th class="num">p90 ms</th><th class="num">p99 ms</th>'
            "<th>trace</th></tr>")
    rows: List[str] = []
    for record in serve_runs[:SERVE_LIMIT]:
        rows.append(
            "<tr>"
            f"<td>{_esc(record.get('started') or '–')}</td>"
            f'<td class="num">{_num(record.get("requests_served"), "{:g}")}'
            "</td>"
            f'<td class="num">{_num(record.get("request_errors"), "{:g}")}'
            "</td>"
            f'<td class="num">{_num(record.get("latency_p50_ms"))}</td>'
            f'<td class="num">{_num(record.get("latency_p90_ms"))}</td>'
            f'<td class="num">{_num(record.get("latency_p99_ms"))}</td>'
            f"<td>{_esc(record.get('trace_path') or '–')}</td>"
            "</tr>"
        )
    omitted = ""
    if len(serve_runs) > SERVE_LIMIT:
        omitted = (f'<p class="note">{len(serve_runs) - SERVE_LIMIT} older '
                   f"session(s) not shown</p>")
    return f"{chart}<table>{head}{''.join(rows)}</table>{omitted}"


def render_html(
    runs: Sequence[Mapping[str, Any]],
    trace: Optional[TraceData] = None,
    title: str = "repro — run history report",
) -> str:
    """Render the full report; deterministic for a fixed ledger + trace."""
    runs = list(runs)
    latest = runs[-1] if runs else {}
    anomalies = _trend.check_latest(runs)
    meta_bits = [f"{len(runs)} run(s)"]
    if latest.get("started"):
        meta_bits.append(f"latest {latest['started']}")
    if latest.get("git_sha"):
        meta_bits.append(f"git {latest['git_sha'][:8]}")
    if latest.get("version"):
        meta_bits.append(f"repro {latest['version']}")
    error_chart = _line_chart(
        _error_points(runs), "sample size", "mean CPI error (%)", "--series-1")
    bench_chart = _line_chart(
        _bench_points(runs), "bench run (ledger order)",
        "bench wall time (s)", "--series-2")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{_esc(title)}</h1>"
        f'<p class="meta">{_esc(" · ".join(meta_bits))}</p>'
        f"{_status_strip(runs, anomalies)}"
        f"{_tiles(runs)}"
        "<h2>Mean CPI error vs sample size</h2>"
        f"{error_chart}"
        "<h2>Bench wall time per run</h2>"
        f"{bench_chart}"
        "<h2>Model quality (registered fits)</h2>"
        f"{_model_section(runs)}"
        "<h2>CPI stacks (cycle accounting)</h2>"
        f"{_stack_section(runs)}"
        "<h2>Serving sessions</h2>"
        f"{_serve_section(runs)}"
        "<h2>Latest trace</h2>"
        f"{_trace_tree(trace)}"
        "<h2>Run history</h2>"
        f"{_run_table(runs)}"
        "</body></html>\n"
    )
