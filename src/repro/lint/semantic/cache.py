"""Whole-program fact cache: module summaries keyed by content hash.

Semantic extraction parses and walks every linted file; on a warm run
most files are unchanged, so their summaries can be replayed from disk.
The cache is one JSON document::

    {"tool": "repro.lint.semantic", "version": 1,
     "extractor": <EXTRACTOR_VERSION>,
     "files": {"src/repro/…/x.py": {"hash": "<sha256>", "summary": {...}}}}

keyed by repo-relative path with the file's source hash alongside, so a
stale entry can never be replayed for edited content.  A version or
extractor mismatch drops the whole cache.  Writes are atomic
(:func:`repro.util.store.write_atomic`) and merge-update: entries for
paths outside the current lint set are pruned so the file tracks the
linted tree.

The default location is ``$REPRO_CACHE_DIR`` (or ``.repro_cache/``)
``/lint-facts.json`` — the same root the simulation cache uses, already
git-ignored.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

from repro.lint.semantic.summary import EXTRACTOR_VERSION, ModuleSummary
from repro.util import store

#: Schema version of the cache document itself.
CACHE_VERSION = 1

#: File name of the fact cache inside the cache directory.
FACT_CACHE_NAME = "lint-facts.json"


def default_fact_cache_path() -> str:
    """Default on-disk location, honouring ``$REPRO_CACHE_DIR``."""
    return str(store.cache_dir() / FACT_CACHE_NAME)


def source_hash(source: str) -> str:
    """Content hash used as the cache key for one file's summary."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class FactCache:
    """Load/store of module summaries keyed by path + content hash."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, Dict[str, object]] = {}
        if path is not None:
            self._entries = self._load(path)

    @staticmethod
    def _load(path: str) -> Dict[str, Dict[str, object]]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return {}
        if (doc.get("version") != CACHE_VERSION
                or doc.get("extractor") != EXTRACTOR_VERSION
                or not isinstance(doc.get("files"), dict)):
            return {}
        return doc["files"]

    def get(self, path: str, digest: str) -> Optional[ModuleSummary]:
        """Cached summary for ``path`` at content ``digest``, else None."""
        entry = self._entries.get(path)
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            return entry["summary"]  # type: ignore[return-value]
        self.misses += 1
        return None

    def put(self, path: str, digest: str, summary: ModuleSummary) -> None:
        """Record ``summary`` for ``path`` at content ``digest``."""
        self._entries[path] = {"hash": digest, "summary": summary}

    def prune(self, keep_paths) -> None:
        """Drop entries whose path is not in ``keep_paths``."""
        keep = set(keep_paths)
        for path in list(self._entries):
            if path not in keep:
                del self._entries[path]

    def save(self) -> None:
        """Atomically persist the cache; a failed write is non-fatal."""
        if self.path is None:
            return
        doc = {
            "tool": "repro.lint.semantic",
            "version": CACHE_VERSION,
            "extractor": EXTRACTOR_VERSION,
            "files": self._entries,
        }
        path = Path(self.path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            store.write_atomic(path, json.dumps(doc, separators=(",", ":")))
        except OSError:
            pass
