"""File collection and rule execution for ``repro.lint``.

The runner turns a list of paths into parsed :class:`FileContext` objects,
runs every file-scope rule over each file and every project-scope rule
over the whole set, and applies ``# repro: noqa`` suppressions.  A run
reads its sources and writes nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.core import FileContext, Finding, Rule, all_rules
from repro.lint.incremental import changed_files
from repro.lint.semantic import Project

# Importing the rules package registers every concrete rule.
import repro.lint.rules  # noqa: F401  (import for side effect)

#: Rule id used for files that fail to parse.
SYNTAX_RULE = "SYN001"

#: Directory names never descended into.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hg", ".venv", "venv", "node_modules",
    "build", "dist",
})


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden directories, caches and ``*.egg-info`` trees are skipped.
    Nonexistent paths raise ``FileNotFoundError`` so typos fail loudly.
    """
    out: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            out.add(os.path.normpath(path))
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                    and not d.endswith(".egg-info")
                )
                for name in filenames:
                    if name.endswith(".py"):
                        out.add(os.path.normpath(os.path.join(dirpath, name)))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    #: Findings suppressed by noqa comments.
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run is clean: no live findings."""
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        """Live finding counts keyed by rule id."""
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts


class LintRunner:
    """Run the registered rules over a set of paths."""

    def __init__(self, select: Optional[Set[str]] = None,
                 ignore: Optional[Set[str]] = None):
        self.rules: List[Rule] = all_rules(select=select, ignore=ignore)

    def run(self, paths: Sequence[str],
            changed_ref: Optional[str] = None) -> LintResult:
        """Lint ``paths`` (files or directories) and return the result.

        ``changed_ref`` switches on incremental mode: only files changed
        vs that git ref are linted, but project-scope rules still see the
        whole collected set through the semantic call graph, so
        cross-module facts stay sound.
        """
        files = collect_files(paths)
        graph_sources = files
        if changed_ref is not None:
            changed = set(changed_files(changed_ref))
            files = [f for f in files if os.path.abspath(f) in changed]
        contexts: List[FileContext] = []
        raw: List[Finding] = []

        for path in files:
            with open(path, "rb") as fh:
                data = fh.read()
            try:
                source = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raw.append(Finding(
                    rule=SYNTAX_RULE, path=path,
                    line=data.count(b"\n", 0, exc.start) + 1, col=0,
                    message="cannot decode as UTF-8",
                ))
                continue
            try:
                contexts.append(FileContext.from_source(path, source))
            except SyntaxError as exc:
                raw.append(Finding(
                    rule=SYNTAX_RULE, path=path,
                    line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                ))

        for ctx in contexts:
            for rule in self.rules:
                if rule.scope == "file":
                    raw.extend(rule.check_file(ctx))

        # One whole-program analysis, built lazily and shared by every
        # project rule.
        project = Project(contexts, graph_sources=graph_sources)
        for rule in self.rules:
            if rule.scope == "project":
                raw.extend(rule.check(project))

        raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

        by_path = {ctx.path: ctx for ctx in contexts}
        live: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in raw:
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.suppressions.is_suppressed(
                    finding.rule, finding.line):
                suppressed.append(finding)
            else:
                live.append(finding)

        return LintResult(findings=live, files_checked=len(files),
                          suppressed=suppressed)
