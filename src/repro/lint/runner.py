"""File collection and rule execution for ``repro.lint``.

The runner turns a list of paths into parsed :class:`FileContext` objects,
runs every file-scope rule over each file and every project-scope rule
over the whole set, applies ``# repro: noqa`` suppressions, and (when a
baseline is given) filters grandfathered findings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.baseline import Baseline
from repro.lint.core import FileContext, Finding, ProjectRule, Rule, all_rules
from repro.lint.incremental import changed_files
from repro.lint.semantic import build_project

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
    #: Findings suppressed by noqa comments (for ``--show-suppressed``).
    suppressed: List[Finding] = field(default_factory=list)
    #: Findings filtered by the baseline.
    baselined: List[Finding] = field(default_factory=list)

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
            baseline: Optional[Baseline] = None,
            changed_ref: Optional[str] = None,
            fact_cache_path: Optional[str] = None) -> LintResult:
        """Lint ``paths`` (files or directories) and return the result.

        ``changed_ref`` switches on incremental mode: only files changed
        vs that git ref are linted, but project-scope rules still see the
        whole collected set through the semantic fact graph (unchanged
        files replay from the fact cache when ``fact_cache_path`` is
        set), so cross-module facts stay sound.  ``fact_cache_path=None``
        keeps the run stateless.
        """
        files = collect_files(paths)
        graph_sources = files
        if changed_ref is not None:
            changed = set(changed_files(changed_ref))
            files = [f for f in files if os.path.abspath(f) in changed]
        contexts: List[FileContext] = []
        raw: List[Finding] = []
        sources: Dict[str, List[str]] = {}

        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            sources[path] = source.splitlines()
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

        project_rules = [r for r in self.rules if r.scope == "project"]
        if project_rules:
            # One whole-program analysis shared by every project rule.
            project = build_project(contexts, graph_sources=graph_sources,
                                    fact_cache_path=fact_cache_path)
            for rule in project_rules:
                if isinstance(rule, ProjectRule):
                    raw.extend(rule.check(project))
                else:
                    raw.extend(rule.check_project(contexts))
            project.save_cache()

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

        baselined: List[Finding] = []
        if baseline is not None and len(baseline):
            pairs = [(f, sources.get(f.path)) for f in live]
            fresh = baseline.filter(pairs)
            fresh_set = {id(f) for f in fresh}
            baselined = [f for f in live if id(f) not in fresh_set]
            live = fresh

        return LintResult(findings=live, files_checked=len(files),
                          suppressed=suppressed, baselined=baselined)

    def source_lines(self, findings: Iterable[Finding]) -> List[Tuple[Finding, Optional[List[str]]]]:
        """Pair findings with their file's source lines (baseline writing)."""
        cache: Dict[str, Optional[List[str]]] = {}
        pairs = []
        for finding in findings:
            if finding.path not in cache:
                try:
                    with open(finding.path, "r", encoding="utf-8") as fh:
                        cache[finding.path] = fh.read().splitlines()
                except OSError:
                    cache[finding.path] = None
            pairs.append((finding, cache[finding.path]))
        return pairs
