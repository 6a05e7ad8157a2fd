"""The one persistence seam: result roots, locked JSON files and JSONL logs.

Every whole file the program leaves behind (exhibits, summaries, reports,
manifests, models, cards, baselines, interval streams) and every file that
concurrent processes share is written here and nowhere else.  Lint row
OBS008 keeps it so; only the two append streams, the trace sink
(:mod:`repro.obs.sinks`) and the serving access log
(:mod:`repro.obs.live.access`), keep their own file handles.

* :func:`results_dir` and :func:`cache_dir` resolve ``$REPRO_RESULTS_DIR``
  (default ``results``) and ``$REPRO_CACHE_DIR`` (default
  ``.repro_cache``) at call time, so a variable set after import counts;
* :func:`file_lock` holds an advisory ``flock`` on a sidecar
  ``<name>.lock`` file;
* :func:`write_atomic` writes a pid-suffixed temp file next to the target
  (creating the directory) and finishes with ``os.replace``, so a reader,
  or a writer killed half-way, only ever sees the old file or the new
  one; a write that fails removes its temp file;
* :func:`load_json` / :func:`merge_json` read and union-update one JSON
  object under the lock (the simulation cache): the merge re-reads the
  file inside the lock, so two processes flushing the same file keep each
  other's entries;
* :func:`append_jsonl` appends one record to a JSONL log under the lock
  (the run ledger, the model registry index) by read → rewrite →
  replace.  The record is built inside the lock from the records already
  there, and a torn last line is newline-terminated first;
* :func:`read_jsonl` is the lenient reader, ``(records, skipped)``.

A file that fails to read is never replaced.  An ``OSError`` other than a
missing file propagates before anything is written.  A JSON object file
whose bytes are not UTF-8 JSON object text is moved aside to
``<name>.corrupt`` with its bytes intact, reported through
:func:`repro.obs.record_failure`, and read as empty.  JSONL logs keep
unparseable lines verbatim: readers skip and count them, appends carry
them along.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Tuple, Union

Record = Dict[str, Any]


def results_dir() -> Path:
    """Root of rendered results: ``$REPRO_RESULTS_DIR`` or ``results``."""
    return Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def cache_dir() -> Path:
    """Root of re-derivable caches: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


@contextmanager
def file_lock(path: Path) -> Iterator[None]:
    """Advisory exclusive lock for ``path``, held on ``<name>.lock``.

    Without ``fcntl`` (non-POSIX) the atomic replace alone still keeps the
    file whole; concurrent writers may then lose an update.  Not
    re-entrant: a process must not take the lock it already holds.
    """
    try:
        import fcntl
    except ImportError:
        yield
        return
    with open(path.with_name(path.name + ".lock"), "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def write_atomic(path: Union[str, Path], text: str) -> Path:
    """Replace ``path`` with ``text`` through a pid-suffixed temp file.

    Creates the parent directory.  A write that raises, an interrupt
    included, removes its temp file and leaves the previous ``path``
    whole.  Returns the path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise
    return path


def _read_object(path: Path) -> Record:
    """The JSON object at ``path``; the caller holds the lock."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return {}
    try:
        loaded = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        error: ValueError = exc
    else:
        if isinstance(loaded, dict):
            return loaded
        error = ValueError(f"expected a JSON object, found {type(loaded).__name__}")
    from repro import obs

    corrupt = path.with_name(path.name + ".corrupt")
    path.replace(corrupt)
    obs.record_failure("store/read", error, path=str(path),
                       quarantined=str(corrupt))
    return {}


def load_json(path: Path) -> Record:
    """The JSON object stored at ``path`` (``{}`` when missing or corrupt).

    Reads under the lock, so a corrupt file is quarantined only while no
    writer can be replacing it.
    """
    with file_lock(path):
        return _read_object(path)


def merge_json(path: Path, entries: Mapping[str, Any]) -> Record:
    """Union ``entries`` into the JSON object at ``path``; returns the union.

    The file is re-read inside the lock and rewritten with sorted keys
    through :func:`write_atomic`; ``entries`` win on equal keys.
    """
    with file_lock(path):
        merged = _read_object(path)
        merged.update(entries)
        write_atomic(path, json.dumps(merged, sort_keys=True))
    return merged


def _parse_jsonl(lines: Iterable[str]) -> Tuple[List[Record], int]:
    records: List[Record] = []
    skipped = 0
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1
    return records, skipped


def read_jsonl(path: Path) -> Tuple[List[Record], int]:
    """``(records, skipped)`` from a JSONL log, in append order.

    Raises :class:`FileNotFoundError` when the log does not exist; lines
    that are not JSON objects are skipped and counted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_jsonl(fh)


def append_jsonl(path: Path,
                 build: Callable[[List[Record]], Mapping[str, Any]]) -> Record:
    """Append the record ``build(existing_records)`` to the log at ``path``.

    ``build`` runs inside the lock, so a value derived from the existing
    records (a lineage version) cannot be handed out twice.  The line is
    sorted-key JSON; returns the appended record.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with file_lock(path):
        try:
            existing = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            existing = ""
        if existing and not existing.endswith("\n"):
            existing += "\n"
        record = dict(build(_parse_jsonl(existing.splitlines())[0]))
        write_atomic(path, existing + json.dumps(record, sort_keys=True) + "\n")
    return record
