"""Cross-run observability: the run-history ledger and its consumers.

One record per pipeline run (:mod:`~repro.obs.history.ledger`), trend and
drift analysis over those records (:mod:`~repro.obs.history.trend`),
span-level attribution of wall-clock regressions between two traces
(:mod:`~repro.obs.history.diff`), and a self-contained HTML report
(:mod:`~repro.obs.history.report`).
"""

from repro.obs.history.diff import (
    DIFF_SCHEMA_VERSION,
    SpanDelta,
    TraceDiff,
    diff_as_dict,
    diff_traces,
    render_diff,
)
from repro.obs.history.ledger import (
    HISTORY_SCHEMA_VERSION,
    append_run,
    default_history_path,
    load_runs,
    record_from_manifest,
    record_run,
    run_matches,
)
from repro.obs.history.report import render_html
from repro.obs.history.trend import (
    CHECK_FIELDS,
    TREND_SCHEMA_VERSION,
    check_latest,
    comparable_history,
    latest_gate,
    mad,
    median,
    modified_zscore,
    render_trend,
    series,
    sparkline,
    trend_document,
)

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "DIFF_SCHEMA_VERSION",
    "TREND_SCHEMA_VERSION",
    "CHECK_FIELDS",
    "SpanDelta",
    "TraceDiff",
    "append_run",
    "check_latest",
    "comparable_history",
    "default_history_path",
    "diff_as_dict",
    "diff_traces",
    "latest_gate",
    "load_runs",
    "mad",
    "median",
    "modified_zscore",
    "record_from_manifest",
    "record_run",
    "render_diff",
    "render_html",
    "render_trend",
    "run_matches",
    "series",
    "sparkline",
    "trend_document",
]
