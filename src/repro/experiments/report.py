"""Output plumbing for the benchmark harness.

Each benchmark regenerating a paper exhibit both prints its rows/series
(visible with ``pytest -s`` and in failure output) and writes them under
``results/`` so the artifacts survive the pytest run.  Alongside every
``<name>.txt`` a ``<name>.manifest.json`` records provenance: seed, git
SHA, package version, and the simulation-cost metrics accumulated by the
shared runners (see :mod:`repro.obs.manifest`).
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.util.store import results_dir

__all__ = ["emit", "results_dir"]


def _exhibit_manifest(name: str) -> dict:
    """Provenance manifest for one exhibit's emitted artifact."""
    from repro.experiments import common

    cost = common.runner_cost_snapshot()
    return obs.build_manifest(
        command=f"exhibit:{name}",
        seed=common.EXPERIMENT_SEED,
        metrics=cost["metrics"],
        extra={
            "benchmarks": cost["benchmarks"],
            "test_seed": common.TEST_SEED,
        },
    )


def emit(name: str, text: str) -> Path:
    """Print ``text`` and persist it as ``results/<name>.txt``.

    Also writes ``results/<name>.manifest.json`` capturing the run's
    provenance and the cumulative simulation cost behind the exhibit,
    and appends the run to the history ledger so rendered exhibits show
    up in ``repro history`` and the HTML report.
    """
    from repro.obs import history

    obs.echo()
    obs.echo(text)
    out = results_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.txt"
    path.write_text(text + "\n")
    manifest = _exhibit_manifest(name)
    obs.write_manifest(out / f"{name}.manifest.json", manifest)
    history.append_run(history.record_from_manifest(
        manifest, extra={"artifact": str(path)}))
    return path
