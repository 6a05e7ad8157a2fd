"""Trends and drift detection over the run-history ledger.

The paper's procedure is longitudinal by construction — grow the sample,
refit, watch the error fall — and so is the repo's performance story:
bench wall times per commit, build cost per sample size.  This module
turns the ledger into those series (:func:`series`), renders them as
compact tables with a sparkline (:func:`render_trend`), and gates drift:
:func:`check_latest` compares the newest run against its comparable
predecessors with a MAD-based modified z-score — the robust outlier test
that a handful of noisy CI runs cannot skew the way a mean/σ test can —
and reports which headline numbers regressed.  ``repro history check``
exits non-zero when it returns anything, mirroring the bench gate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Fields ``check_latest`` examines when the latest run carries them.
CHECK_FIELDS = ("wall_time_s", "mean_error_pct", "bench_wall_s")

#: Modified z-score above which a run counts as anomalous (the classic
#: Iglewicz–Hoaglin cutoff).
DEFAULT_THRESHOLD = 3.5

#: Comparable prior runs required before the check can fire at all.
MIN_HISTORY = 4

#: Consistency constant making the MAD estimate σ for normal data.
_MAD_SCALE = 0.6745

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of middle pair when even)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation around the median."""
    med = median(values)
    return median([abs(float(v) - med) for v in values])


def modified_zscore(value: float, history: Sequence[float]) -> float:
    """Iglewicz–Hoaglin modified z-score of ``value`` against ``history``.

    ``0.6745 * (value - median) / MAD``.  When the history has zero MAD
    (identical readings), any deviation is infinitely surprising: returns
    ``0.0`` for an exact match and ``inf``-signed otherwise.
    """
    med = median(history)
    spread = mad(history)
    if spread == 0:
        if value == med:
            return 0.0
        return float("inf") if value > med else float("-inf")
    return _MAD_SCALE * (float(value) - med) / spread


def series(
    runs: Sequence[Mapping[str, Any]],
    field: str,
    x_field: Optional[str] = None,
) -> List[Tuple[Any, float]]:
    """``(x, value)`` pairs for every run carrying ``field``.

    ``x`` is the run's ``x_field`` value when given (runs missing it are
    dropped), else the run's ledger index — the natural x-axis for
    wall-time-vs-commit style trends.
    """
    points: List[Tuple[Any, float]] = []
    for index, record in enumerate(runs):
        value = record.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if x_field is None:
            points.append((index, float(value)))
            continue
        x = record.get(x_field)
        if x is None:
            continue
        points.append((x, float(value)))
    return points


def comparable_history(
    runs: Sequence[Mapping[str, Any]],
    latest: Mapping[str, Any],
) -> List[Mapping[str, Any]]:
    """Prior runs comparable to ``latest``: same command and benchmark, no error."""
    prior = [r for r in runs if r is not latest and "error" not in r]
    prior = [r for r in prior if r.get("command") == latest.get("command")]
    if latest.get("benchmark") is not None:
        prior = [r for r in prior
                 if r.get("benchmark") == latest.get("benchmark")]
    return prior


def check_latest(
    runs: Sequence[Mapping[str, Any]],
    fields: Sequence[str] = CHECK_FIELDS,
    threshold: float = DEFAULT_THRESHOLD,
    min_history: int = MIN_HISTORY,
) -> List[str]:
    """Anomaly descriptions for the newest run (empty list = healthy).

    For each field the latest run carries, its value is scored against the
    same field across comparable prior runs (same command and benchmark).
    Only *regressions* flag — a run that got faster or more accurate is
    never anomalous — and only once ``min_history`` comparable readings
    exist, so a young ledger passes trivially instead of crying wolf.
    """
    if not runs:
        return []
    latest = runs[-1]
    prior = comparable_history(runs, latest)
    anomalies: List[str] = []
    for field in fields:
        value = latest.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        history = [r[field] for r in prior
                   if isinstance(r.get(field), (int, float))
                   and not isinstance(r.get(field), bool)]
        if len(history) < min_history:
            continue
        med = median(history)
        if value <= med:
            continue  # better-or-equal than typical: never a regression
        score = modified_zscore(float(value), history)
        if score > threshold:
            anomalies.append(
                f"{field}: {value:.6g} vs median {med:.6g} over "
                f"{len(history)} comparable run(s) "
                f"(modified z-score {score:.2f} > {threshold:g})"
            )
    return anomalies


def sparkline(values: Sequence[float]) -> str:
    """One-line block-character sparkline of ``values``."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return _SPARK_CHARS[0] * len(values)
    top = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[round((float(v) - lo) / (hi - lo) * top)] for v in values
    )


def render_trend(
    points: Sequence[Tuple[Any, float]],
    field: str,
    x_field: Optional[str] = None,
) -> str:
    """Human-readable trend: sparkline, min/median/max, and the points."""
    values = [v for _, v in points]
    lines = [
        f"trend: {field}" + (f" vs {x_field}" if x_field else " by run"),
        f"  {sparkline(values)}  "
        f"n={len(values)} min={min(values):.6g} "
        f"median={median(values):.6g} max={max(values):.6g}",
        "",
        f"{x_field or 'run':>16} {field:>16}",
        "-" * 34,
    ]
    for x, value in points:
        lines.append(f"{str(x):>16} {value:>16.6g}")
    return "\n".join(lines)


#: Schema version of the machine-readable trend document.
TREND_SCHEMA_VERSION = 1


def trend_document(
    points: Sequence[Tuple[Any, float]],
    field: str,
    x_field: Optional[str] = None,
) -> Dict[str, Any]:
    """Machine-readable trend for ``repro history trend --json``.

    Schema-versioned and stable under ``json.dumps(..., sort_keys=True)``
    so scripts can consume model-error trends the way they consume
    ``trace summary --json``.  Summary statistics are omitted (``None``)
    rather than invented when the series is empty.
    """
    values = [v for _, v in points]
    return {
        "schema": TREND_SCHEMA_VERSION,
        "field": field,
        "x_field": x_field,
        "count": len(values),
        "min": min(values) if values else None,
        "median": median(values) if values else None,
        "max": max(values) if values else None,
        "points": [{"x": x, "value": v} for x, v in points],
    }


def latest_gate(runs: Sequence[Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    """The most recent recorded perf-gate outcome, or ``None``."""
    for record in reversed(runs):
        gate = record.get("gate")
        if isinstance(gate, dict) and gate.get("checked"):
            return dict(gate)
    return None
