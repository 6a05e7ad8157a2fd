"""Run manifests: the provenance record written next to every result.

A manifest answers "which seed, which design space, which code, at what
cost produced this result?" — the questions the paper's
simulation-vs-accuracy tradeoff turns on, and the ones an ad-hoc results
directory cannot answer six months later.  Every recorded CLI run
(:func:`repro.cli.run_context`) and every rendered exhibit writes one.

Contents (schema version 1): the command and argv, wall-clock start time,
seed, a stable hash of the design space actually sampled, the overrides
in effect, the git commit of the working tree (when available), the
installed package version, Python/numpy/platform identification
(``python_version`` and ``numpy_version`` — numeric artifacts are only
bitwise-comparable within one numpy/BLAS stack), wall and CPU time, and
the run's metric totals.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.util import store

#: Manifest schema version.
MANIFEST_SCHEMA_VERSION = 1


def package_version() -> str:
    """The installed ``repro`` version from package metadata.

    Falls back to ``repro.__version__`` (the same string ``pyproject.toml``
    declares) when the package is run from a source tree without being
    installed.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # Python < 3.8; not supported, but fail soft
        from repro import __version__
        return __version__
    try:
        return version("repro")
    except PackageNotFoundError:
        from repro import __version__
        return __version__


def numpy_version() -> Optional[str]:
    """The installed numpy version, or ``None`` when numpy is absent.

    Model artifacts are numeric: a bitwise-reproducibility claim is only
    meaningful together with the numpy/BLAS stack that produced the
    numbers, so manifests record it explicitly.
    """
    try:
        import numpy
    except ImportError:  # the library degrades, the manifest records it
        return None
    return numpy.__version__


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def design_space_hash(space: Any) -> Optional[str]:
    """Short stable hash of a design space's parameter definitions.

    Works on anything exposing ``parameters`` with the
    :class:`repro.core.design_space.Parameter` fields; two spaces hash
    equal iff they sample the same parameters over the same ranges with
    the same transforms.  Returns ``None`` for unrecognised objects.
    """
    parameters = getattr(space, "parameters", None)
    if parameters is None:
        return None
    digest = sha256()
    digest.update(str(getattr(space, "name", "")).encode())
    for p in parameters:
        fields = (
            getattr(p, "name", ""), getattr(p, "low", ""),
            getattr(p, "high", ""), getattr(p, "levels", ""),
            getattr(p, "transform", ""), getattr(p, "integer", ""),
            getattr(p, "fraction_of", ""),
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()[:16]


def cache_hit_rate(metrics: Optional[Mapping[str, Any]]) -> Optional[float]:
    """Cache hit fraction from a metrics snapshot, or ``None``.

    ``cache_hits / (cache_hits + simulations_run)`` over the snapshot's
    counters — the number that lets a history trend separate "the code got
    slower" from "this run paid for more simulations".  Returns ``None``
    when the snapshot records no lookups at all.
    """
    counters = dict(metrics or {}).get("counters") or {}
    hits = float(counters.get("cache_hits", 0.0))
    sims = float(counters.get("simulations_run", 0.0))
    lookups = hits + sims
    if lookups <= 0:
        return None
    return round(hits / lookups, 6)


def build_manifest(
    command: str,
    seed: Optional[int] = None,
    design_space: Any = None,
    overrides: Optional[Mapping[str, Any]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    wall_time_s: Optional[float] = None,
    cpu_time_s: Optional[float] = None,
    jobs: Optional[int] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict for one run.

    ``started`` is the time of this call: build the manifest when the run
    starts and refresh its cost fields at exit (:func:`snapshot_manifest`).

    Parameters
    ----------
    command:
        What ran, e.g. ``"build"`` or ``"exhibit:fig4_error_vs_sample_size"``.
    seed:
        The run's root seed (``None`` when not applicable).
    design_space:
        The sampled design space; hashed via :func:`design_space_hash`.
    overrides:
        Parameter overrides / run knobs in effect.
    metrics:
        A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the run's
        metric totals.  Also feeds the derived ``cache_hit_rate`` field.
    wall_time_s, cpu_time_s:
        Measured run cost.  ``cpu_time_s`` defaults to the process's
        cumulative CPU time (:func:`time.process_time`).
    jobs:
        Worker-process count in effect for the run (``None`` when not
        applicable), so cross-run comparisons can normalise for fan-out.
    extra:
        Additional command-specific fields, merged at the top level.
    """
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "argv": list(sys.argv),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "design_space_hash": design_space_hash(design_space),
        "overrides": dict(overrides) if overrides else {},
        "git_sha": git_sha(),
        "version": package_version(),
        "python": platform.python_version(),
        "python_version": platform.python_version(),
        "numpy_version": numpy_version(),
        "platform": platform.platform(),
        "hostname": platform.node(),
        "pid": os.getpid(),
        "wall_time_s": wall_time_s,
        "cpu_time_s": cpu_time_s if cpu_time_s is not None else time.process_time(),
        "jobs": jobs,
        "cache_hit_rate": cache_hit_rate(metrics),
        "metrics": dict(metrics) if metrics else {},
    }
    if extra:
        manifest.update(extra)
    return manifest


def snapshot_manifest(
    base: Mapping[str, Any],
    metrics: Optional[Mapping[str, Any]] = None,
    wall_time_s: Optional[float] = None,
    cpu_time_s: Optional[float] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Refresh a manifest's cost and metric fields mid-process.

    :func:`build_manifest` assumes a run that ends: wall/CPU time and
    metric totals are measured once, at exit.  A serving process never
    exits, so its manifest must be *snapshottable*: this returns a new
    manifest with the same identity fields (command, argv, start time,
    seed, git SHA, versions, …) as ``base`` but current cost and metric
    totals.  The operation is idempotent and monotone — snapshotting a
    snapshot yields the same schema and key set, and ``wall_time_s`` /
    ``cpu_time_s`` never decrease (``cpu_time_s`` defaults to the
    process's cumulative CPU time, which only grows; a ``None`` or
    smaller ``wall_time_s`` keeps the previous reading).

    ``base`` is never mutated; ledger records built from successive
    snapshots of one session stay schema-identical.
    """
    manifest: Dict[str, Any] = dict(base)
    if cpu_time_s is None:
        cpu_time_s = time.process_time()
    previous_cpu = manifest.get("cpu_time_s")
    if previous_cpu is not None:
        cpu_time_s = max(float(previous_cpu), float(cpu_time_s))
    manifest["cpu_time_s"] = cpu_time_s
    previous_wall = manifest.get("wall_time_s")
    if wall_time_s is not None:
        if previous_wall is not None:
            wall_time_s = max(float(previous_wall), float(wall_time_s))
        manifest["wall_time_s"] = wall_time_s
    if metrics is not None:
        manifest["metrics"] = dict(metrics)
        manifest["cache_hit_rate"] = cache_hit_rate(metrics)
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: Union[str, Path], manifest: Mapping[str, Any]) -> Path:
    """Atomically replace ``path`` with ``manifest`` as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    store.write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest back (convenience for tests and tooling)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
