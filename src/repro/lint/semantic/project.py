"""The :class:`Project` handed to project-scope rules.

A project wraps the parsed :class:`~repro.lint.core.FileContext` set and
exposes the semantic layer lazily: module summaries (through the fact
cache when one is configured) and the :class:`CallGraph` are built on
first access, then shared by every rule in the run — the semantic
passes cost one analysis.

``graph_contexts`` can be a superset of ``contexts``: in ``--changed``
mode only the changed files are *linted* (produce findings), but the
call graph still spans the whole tree so cross-module reachability stays
sound.  Unchanged files come out of the fact cache without re-parsing.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence

from repro.lint.core import FileContext
from repro.lint.semantic.cache import FactCache, source_hash
from repro.lint.semantic.graph import CallGraph
from repro.lint.semantic.summary import ModuleSummary, extract_summary


def _rel(path: str) -> str:
    """Repo-relative forward-slash path used as the cache/summary key."""
    rel = os.path.relpath(path)
    if rel.startswith(".."):
        rel = os.path.abspath(path)
    return rel.replace(os.sep, "/")


class Project:
    """Whole-program view shared by every :class:`ProjectRule` in a run."""

    def __init__(self, contexts: Sequence[FileContext],
                 graph_sources: Optional[Iterable[str]] = None,
                 fact_cache: Optional[FactCache] = None):
        #: Files being linted this run (findings may only anchor here).
        self.contexts = list(contexts)
        self._graph_sources = list(graph_sources or [])
        self._cache = fact_cache if fact_cache is not None else FactCache(None)
        self._summaries: Optional[List[ModuleSummary]] = None
        self._graph: Optional[CallGraph] = None
        #: summary path key -> the path exactly as the runner saw it, so
        #: findings match the context paths used for suppression/baseline.
        self._ctx_paths = {_rel(ctx.path): ctx.path for ctx in self.contexts}
        #: Paths (as summary keys) of the linted files, for rules that
        #: must not report findings outside the linted set.
        self.linted_paths = frozenset(self._ctx_paths)

    def ctx_path(self, summary_path: str) -> str:
        """Runner-facing path for a summary path key (identity fallback)."""
        return self._ctx_paths.get(summary_path, summary_path)

    @property
    def summaries(self) -> List[ModuleSummary]:
        """Module summaries over the graph scope (built or cache-replayed)."""
        if self._summaries is None:
            self._summaries = self._build_summaries()
        return self._summaries

    @property
    def graph(self) -> CallGraph:
        """The program call graph (built lazily from the summaries)."""
        if self._graph is None:
            self._graph = CallGraph(self.summaries)
        return self._graph

    def save_cache(self) -> None:
        """Persist the fact cache if summaries were built this run."""
        if self._summaries is not None:
            self._cache.prune(s["path"] for s in self._summaries)
            self._cache.save()

    def _build_summaries(self) -> List[ModuleSummary]:
        summaries: List[ModuleSummary] = []
        seen = set()
        for ctx in self.contexts:
            key = _rel(ctx.path)
            seen.add(key)
            summaries.append(
                self._summarise(key, ctx.source, tree=ctx.tree))
        for path in self._graph_sources:
            key = _rel(path)
            if key in seen:
                continue
            seen.add(key)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
            except OSError:
                continue
            summary = self._summarise(key, source)
            if summary is not None:
                summaries.append(summary)
        return [s for s in summaries if s is not None]

    def _summarise(self, key: str, source: str,
                   tree: Optional[ast.Module] = None
                   ) -> Optional[ModuleSummary]:
        digest = source_hash(source)
        cached = self._cache.get(key, digest)
        if cached is not None:
            return cached
        if tree is None:
            try:
                tree = ast.parse(source, filename=key)
            except SyntaxError:
                return None
        summary = extract_summary(key, tree)
        self._cache.put(key, digest, summary)
        return summary


def build_project(contexts: Sequence[FileContext],
                  graph_sources: Optional[Iterable[str]] = None,
                  fact_cache_path: Optional[str] = None) -> Project:
    """Construct a :class:`Project`, wiring the on-disk fact cache.

    ``fact_cache_path=None`` disables persistence (summaries are still
    memoised in-process for the duration of the run).
    """
    cache = FactCache(fact_cache_path)
    return Project(contexts, graph_sources=graph_sources, fact_cache=cache)
