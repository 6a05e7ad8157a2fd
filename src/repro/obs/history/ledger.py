"""The run-history ledger: one JSONL record per pipeline run.

Manifests (:mod:`repro.obs.manifest`) answer "what produced *this*
result?"; the ledger answers the longitudinal question — "how has the
pipeline behaved across *every* run on this machine?".  Each
``repro build`` / ``simulate`` / ``bench`` / ``report`` invocation and
every rendered exhibit appends exactly one schema-versioned record to
``results/history/runs.jsonl``: the manifest's provenance and cost
fields, the run's headline accuracy numbers, metric totals, the perf-gate
outcome when one ran, and the path of the recorded trace (when tracing).

Appends and reads go through :mod:`repro.util.store` (locked JSONL
append, lenient read): an unparseable line is counted and skipped, never
fatal, because a ledger that refuses to load after one bad shutdown
defeats its purpose.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.util import store

#: Ledger record schema version.
HISTORY_SCHEMA_VERSION = 1

#: Manifest fields copied verbatim into a history record when non-``None``.
#: ``python_version``/``numpy_version`` arrived with the model registry;
#: older manifests simply lack them and the copy stays lenient.
MANIFEST_FIELDS = (
    "command", "started", "git_sha", "version", "python", "python_version",
    "numpy_version", "hostname", "pid",
    "seed", "design_space_hash", "wall_time_s", "cpu_time_s", "jobs",
    "cache_hit_rate",
)

#: Command-specific headline fields lifted from manifest extras when present.
#: ``stack_mem_frac`` / ``stack_frontend_frac`` are the headline CPI-stack
#: components recorded by attributed runs (``repro stacks`` and the stacks
#: exhibit): fraction of cycles attributed to the memory system and to
#: front-end bubbles — trendable like any flat numeric field.
#: ``model_sha``/``model_version``/``model_card``/``model_family`` point at
#: the registered artifact a ``repro build`` produced, so the ledger links
#: every run to its model card and headline fit error.
#: ``requests_served``/``request_errors``/``latency_p*_ms`` are the
#: serving-session headline: volume, error count, and latency quantiles
#: from one ``repro serve`` session, so ``repro history trend
#: latency_p99_ms`` covers serving exactly like batch runs.
HEADLINE_FIELDS = (
    "benchmark", "sample_size", "trace_length", "configurations", "cpi",
    "p_min", "alpha", "num_centers", "mean_error_pct", "max_error_pct",
    "bench_wall_s", "artifact", "stack_mem_frac", "stack_frontend_frac",
    "stack", "model_sha", "model_version", "model_card", "model_family",
    "requests_served", "request_errors", "latency_p50_ms",
    "latency_p90_ms", "latency_p99_ms",
)

#: Metric counters summarised into flat record fields.
COUNTER_FIELDS = ("simulations_run", "cache_hits")


def default_history_path() -> Path:
    """``results/history/runs.jsonl``, honouring ``$REPRO_RESULTS_DIR``."""
    return store.results_dir() / "history" / "runs.jsonl"


def record_from_manifest(
    manifest: Mapping[str, Any],
    trace_path: Optional[Union[str, Path]] = None,
    gate: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one ledger record from a run manifest.

    Copies the provenance/cost fields (:data:`MANIFEST_FIELDS`) and the
    headline accuracy/size numbers (:data:`HEADLINE_FIELDS`) that happen to
    be present, flattens the ``simulations_run``/``cache_hits`` counters
    out of the metrics snapshot, and lifts ``sample_size``-style knobs out
    of the manifest's ``overrides``.  ``trace_path`` records where the
    run's span trace landed; ``gate`` carries a perf-gate summary (see
    :func:`repro.obs.prof.gate.gate_summary`); ``extra`` merges last.
    """
    record: Dict[str, Any] = {"schema": HISTORY_SCHEMA_VERSION}
    overrides = manifest.get("overrides") or {}
    for source in (manifest, overrides):
        for key in MANIFEST_FIELDS + HEADLINE_FIELDS:
            if key in record:
                continue
            value = source.get(key)
            if value is not None:
                record[key] = value
    counters = (manifest.get("metrics") or {}).get("counters") or {}
    for name in COUNTER_FIELDS:
        if name in counters:
            record[name] = counters[name]
    if trace_path is not None:
        record["trace_path"] = str(trace_path)
    if gate is not None:
        record["gate"] = dict(gate)
    if extra:
        record.update(extra)
    return record


def append_run(record: Mapping[str, Any],
               path: Optional[Union[str, Path]] = None) -> Path:
    """Append one record to the ledger; returns the ledger path.

    Safe under concurrent writers, and a torn trailing line left by a
    killed writer is completed with a newline rather than corrupting the
    next record (see :func:`repro.util.store.append_jsonl`).
    """
    path = Path(path) if path is not None else default_history_path()
    store.append_jsonl(path, lambda _records: record)
    return path


def load_runs(
    path: Optional[Union[str, Path]] = None,
) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, skipped_lines)`` from the ledger, in append order.

    Raises :class:`FileNotFoundError` when the ledger does not exist (the
    CLI turns that into a one-line error); unparseable or non-object lines
    are skipped and counted, matching the lenient trace-read convention.
    """
    path = Path(path) if path is not None else default_history_path()
    return store.read_jsonl(path)


def iter_runs(
    path: Optional[Union[str, Path]] = None,
    command: Optional[str] = None,
    benchmark: Optional[str] = None,
    git_sha: Optional[str] = None,
    since: Optional[str] = None,
) -> Iterator[Dict[str, Any]]:
    """Iterate ledger records, optionally filtered.

    ``command`` and ``benchmark`` match exactly; ``git_sha`` matches any
    prefix of the recorded SHA (so short SHAs work); ``since`` is an
    ISO-8601 timestamp compared lexically against each record's
    ``started`` (ISO UTC strings sort chronologically).
    """
    runs, _ = load_runs(path)
    for record in runs:
        if command is not None and record.get("command") != command:
            continue
        if benchmark is not None and record.get("benchmark") != benchmark:
            continue
        if git_sha is not None:
            sha = record.get("git_sha") or ""
            if not sha.startswith(git_sha):
                continue
        if since is not None and (record.get("started") or "") < since:
            continue
        yield record
