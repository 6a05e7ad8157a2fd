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
the run's metric totals.  :func:`build_manifest` stamps the identity
fields when a run starts, taking the provenance from :func:`provenance`
(read once per process); :func:`snapshot_manifest` fills in what the run
measured.
"""

from __future__ import annotations

import functools
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


def _numpy_version() -> Optional[str]:
    """The installed numpy version, or ``None`` when numpy is absent."""
    try:
        import numpy
    except ImportError:  # the library degrades, the manifest records it
        return None
    return numpy.__version__


def _git_sha() -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


@functools.lru_cache(maxsize=None)
def _read_provenance() -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "version": package_version(),
        "python_version": platform.python_version(),
        "numpy_version": _numpy_version(),
        "platform": platform.platform(),
        "hostname": platform.node(),
    }


def provenance() -> Dict[str, Any]:
    """Which code ran where: git SHA, versions, platform and hostname.

    Read once per process, on the first call (one ``git rev-parse``);
    later calls return copies.  Manifests, model cards, bench results and
    the server's ``/version`` all take these fields from here.  Model
    artifacts are numeric, so a bitwise-reproducibility claim holds only
    within the ``numpy_version`` (and BLAS stack) that produced them.
    """
    return dict(_read_provenance())


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


def build_manifest(command: str) -> Dict[str, Any]:
    """A new manifest for one run of ``command``, stamped at this call.

    ``command`` is what ran, e.g. ``"build"`` or
    ``"exhibit:fig4_error_vs_sample_size"``.  The manifest carries the
    run's identity (command, argv, start time, :func:`provenance`, pid)
    and the process's CPU time so far; every field the run measures
    (seed, design-space hash, overrides, jobs, wall time, metrics) starts
    empty and is filled by :func:`snapshot_manifest`.  Build it when the
    run starts so ``started`` reads the start.
    """
    prov = provenance()
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "argv": list(sys.argv),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": None,
        "design_space_hash": None,
        "overrides": {},
        **prov,
        "python": prov["python_version"],
        "pid": os.getpid(),
        "wall_time_s": None,
        "cpu_time_s": time.process_time(),
        "jobs": None,
        "cache_hit_rate": None,
        "metrics": {},
    }


def snapshot_manifest(
    base: Mapping[str, Any],
    metrics: Optional[Mapping[str, Any]] = None,
    wall_time_s: Optional[float] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """``base`` with what the run measured filled in, as a new manifest.

    Sets ``cpu_time_s`` to the process's cumulative CPU time, and
    ``wall_time_s``, ``metrics`` (with the derived ``cache_hit_rate``)
    and the fields in ``extra`` when given.  :func:`repro.cli.run_context`
    calls it when a run ends, a ``repro serve`` session included.
    Snapshotting a snapshot keeps the key set, and ``wall_time_s`` /
    ``cpu_time_s`` never decrease: a ``None`` or smaller wall time keeps
    the previous reading.  ``base`` is never mutated, so ledger records
    built from successive snapshots stay schema-identical.
    """
    manifest: Dict[str, Any] = dict(base)
    cpu_time_s = time.process_time()
    previous_cpu = manifest.get("cpu_time_s")
    if previous_cpu is not None:
        cpu_time_s = max(float(previous_cpu), cpu_time_s)
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
    return store.write_atomic(
        path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest back (convenience for tests and tooling)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
