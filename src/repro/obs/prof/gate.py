"""Benchmark persistence and the perf regression gate.

``repro bench`` turns a list of
:class:`~repro.obs.prof.bench.BenchResult` into a schema-versioned
``results/BENCH_<run>.json`` document with machine and git provenance
folded in from :mod:`repro.obs.manifest` — the repo's performance
trajectory, one file per run.  ``repro bench --check`` compares a run
against the committed ``benchmarks/perf/baseline.json``:

* a benchmark missing from the baseline is a violation (the baseline
  must grow with the registry — run ``--update-baseline``);
* mismatched *work metadata* is a violation (the benchmark no longer
  computes the same thing, so its timing is incomparable);
* ``wall_s > baseline wall_s × tolerance`` is a regression (tolerances
  are per-benchmark; micro-benchmarks on shared CI runners need
  generous ones).

``--update-baseline`` rewrites the baseline from the current run while
preserving any hand-tuned per-benchmark tolerances.

Baselines are sectioned by preset (``quick`` vs ``full``): the presets
size their problems differently, so their timings and work metadata are
only comparable within a preset.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs import manifest as obs_manifest
from repro.obs.prof.bench import BenchResult
from repro.util import store

#: Schema version stamped into BENCH_<run>.json and baseline.json.
BENCH_SCHEMA_VERSION = 1

#: The committed perf baseline the gate checks against.
DEFAULT_BASELINE_PATH = Path("benchmarks") / "perf" / "baseline.json"


def bench_run_id(now: Optional[datetime] = None) -> str:
    """Filesystem-safe run identifier (UTC timestamp)."""
    stamp = now if now is not None else datetime.now(timezone.utc)
    return stamp.strftime("%Y%m%dT%H%M%SZ")


def results_document(
    results: Sequence[BenchResult],
    preset: str = "full",
    run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the ``BENCH_<run>.json`` document for one bench run.

    Machine/git provenance (git SHA, package version, Python, platform,
    hostname) comes from the same :func:`~repro.obs.manifest.build_manifest`
    that stamps run manifests, so perf numbers are always attributable to
    a commit and a machine.
    """
    prov = obs_manifest.build_manifest("bench")
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "run": run_id if run_id is not None else bench_run_id(),
        "preset": preset,
        "started": prov["started"],
        "git_sha": prov["git_sha"],
        "version": prov["version"],
        "python": prov["python"],
        "platform": prov["platform"],
        "hostname": prov["hostname"],
        "results": [r.as_dict() for r in results],
    }


def write_results(doc: Mapping[str, Any],
                  directory: Union[str, Path]) -> Path:
    """Atomically write a results document as ``<directory>/BENCH_<run>.json``."""
    return store.write_atomic(Path(directory) / f"BENCH_{doc['run']}.json",
                              json.dumps(dict(doc), indent=2,
                                         sort_keys=True) + "\n")


# -- baseline ---------------------------------------------------------------


def make_baseline(
    results: Sequence[BenchResult],
    preset: str = "full",
    previous: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Baseline document from a run (tolerances survive from ``previous``).

    Baselines are keyed by **preset** — quick and full runs size their
    problems differently, so their wall times and work metadata live in
    separate sections and never cross-contaminate.  Updating one preset
    leaves the other's entries (and any hand-tuned tolerances) intact.
    """
    presets: Dict[str, Any] = dict((previous or {}).get("presets", {}))
    prev_entries: Mapping[str, Any] = presets.get(preset, {}).get(
        "benchmarks", {})
    entries: Dict[str, Any] = {}
    for result in results:
        prev = prev_entries.get(result.name, {})
        entries[result.name] = {
            "wall_s": result.wall_s,
            "tolerance": float(prev.get("tolerance", result.tolerance)),
            "work": dict(result.work),
        }
    presets[preset] = {"benchmarks": entries}
    return {"schema": BENCH_SCHEMA_VERSION, "presets": presets}


def write_baseline(baseline: Mapping[str, Any],
                   path: Union[str, Path]) -> Path:
    """Write a baseline document (pretty-printed, trailing newline).

    The file is replaced atomically, so a killed update leaves the old
    baseline whole.
    """
    return store.write_atomic(
        path, json.dumps(dict(baseline), indent=2, sort_keys=True) + "\n")


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a baseline document.

    Raises ``ValueError`` on bytes that are not UTF-8 JSON, on a document
    that is not an object, and on a schema mismatch.
    """
    with open(path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if not isinstance(baseline, dict):
        raise ValueError(f"{path}: baseline is not a JSON object")
    schema = baseline.get("schema")
    if schema != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: baseline schema {schema!r} != {BENCH_SCHEMA_VERSION}"
        )
    return baseline


def check_results(results: Sequence[BenchResult],
                  baseline: Mapping[str, Any],
                  preset: str = "full") -> List[str]:
    """Gate a run against a baseline; returns human-readable violations.

    Empty list = pass.  Violations cover a missing preset section,
    missing baseline entries, work mismatches, and wall-time regressions
    beyond each benchmark's tolerance.  Benchmarks *faster* than baseline
    always pass (refresh with ``--update-baseline`` to ratchet the
    baseline down).
    """
    section = baseline.get("presets", {}).get(preset)
    if section is None:
        return [
            f"baseline has no {preset!r} preset section "
            f"(run `repro bench{' --quick' if preset == 'quick' else ''} "
            f"--update-baseline`)"
        ]
    entries: Mapping[str, Any] = section.get("benchmarks", {})
    violations: List[str] = []
    for result in results:
        entry = entries.get(result.name)
        if entry is None:
            violations.append(
                f"{result.name}: no baseline entry "
                f"(run `repro bench --update-baseline`)"
            )
            continue
        base_work = entry.get("work", {})
        if dict(base_work) != dict(result.work):
            changed = sorted(
                k for k in set(base_work) | set(result.work)
                if base_work.get(k) != result.work.get(k)
            )
            violations.append(
                f"{result.name}: work metadata diverged from baseline "
                f"(keys: {', '.join(changed)}); timings are incomparable"
            )
            continue
        limit = float(entry["wall_s"]) * float(entry.get("tolerance", 1.0))
        if result.wall_s > limit:
            violations.append(
                f"{result.name}: regression: {result.wall_s:.4f}s > "
                f"{float(entry['wall_s']):.4f}s x {float(entry.get('tolerance', 1.0)):g} "
                f"= {limit:.4f}s"
            )
    return violations


def gate_summary(
    violations: Sequence[str],
    baseline_path: Optional[Union[str, Path]] = None,
    checked: bool = True,
) -> Dict[str, Any]:
    """Ledger-ready summary of one gate outcome.

    The run-history ledger stores this next to each bench run so
    ``repro history`` and the HTML report can show the gate verdict
    without re-reading ``BENCH_<run>.json``.  ``checked=False`` records
    that the run skipped the gate (``passed`` is then ``None``, and
    :func:`repro.obs.history.trend.latest_gate` ignores the record).
    """
    return {
        "checked": bool(checked),
        "passed": (not violations) if checked else None,
        "violations": list(violations),
        "baseline": str(baseline_path) if baseline_path is not None else None,
    }


# -- rendering --------------------------------------------------------------


def render_bench_table(results: Sequence[BenchResult]) -> str:
    """Human-readable results table (what ``repro bench`` prints)."""
    lines = [
        f"{'benchmark':<26} {'group':<10} {'best_ms':>10} {'mean_ms':>10} "
        f"{'cpu_ms':>9} {'peak_kb':>9}  work",
        "-" * 100,
    ]
    for r in results:
        work = ", ".join(f"{k}={v}" for k, v in sorted(r.work.items()))
        lines.append(
            f"{r.name:<26} {r.group:<10} {r.wall_s * 1e3:>10.3f} "
            f"{r.wall_mean_s * 1e3:>10.3f} {r.cpu_s * 1e3:>9.3f} "
            f"{r.mem_peak_kb:>9.1f}  {work}"
        )
    return "\n".join(lines)
