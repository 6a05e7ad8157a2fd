"""The :class:`Project` handed to project-scope rules.

A project wraps the parsed :class:`~repro.lint.core.FileContext` set and
exposes the semantic layer lazily: module summaries and the
:class:`CallGraph` are built from source on first access, then shared
by every rule in the run — the semantic passes cost one analysis.

``graph_sources`` can reach beyond ``contexts``: in ``--changed`` mode
only the changed files are *linted* (produce findings), but the call
graph still spans the whole tree so cross-module reachability stays
sound.  Unchanged files are parsed for their summaries only.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Iterable, List, Optional, Sequence

from repro.lint.core import FileContext
from repro.lint.semantic.graph import CallGraph
from repro.lint.semantic.summary import ModuleSummary, extract_summary


class Project:
    """Whole-program view shared by every :class:`ProjectRule` in a run."""

    def __init__(self, contexts: Sequence[FileContext],
                 graph_sources: Optional[Iterable[str]] = None):
        #: Files being linted this run (findings may only anchor here).
        self.contexts = list(contexts)
        self._graph_sources = list(graph_sources or [])
        #: Paths of the linted files, exactly as the runner saw them; a
        #: summary's ``path`` is one of these for every linted file.
        self.linted_paths = frozenset(ctx.path for ctx in self.contexts)

    @cached_property
    def summaries(self) -> List[ModuleSummary]:
        """Module summaries over the graph scope, linted files first."""
        summaries = [extract_summary(ctx.path, ctx.tree)
                     for ctx in self.contexts]
        for path in self._graph_sources:
            if path in self.linted_paths:
                continue
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
            except (OSError, SyntaxError, UnicodeDecodeError):
                continue
            summaries.append(extract_summary(path, tree))
        return summaries

    @cached_property
    def graph(self) -> CallGraph:
        """The program call graph (built lazily from the summaries)."""
        return CallGraph(self.summaries)
