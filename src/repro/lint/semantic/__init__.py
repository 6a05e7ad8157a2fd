"""Project-wide semantic analysis for :mod:`repro.lint`.

This package gives project-scope rules a whole-program view: per-file
module summaries (:mod:`~repro.lint.semantic.summary`), a call graph
with method resolution and reachability
(:mod:`~repro.lint.semantic.graph`), a content-hash fact cache
(:mod:`~repro.lint.semantic.cache`), and the :class:`Project` facade the
runner hands to each :class:`~repro.lint.core.ProjectRule`
(:mod:`~repro.lint.semantic.project`).

The three shipped semantic rules — DET001, MUT001 and PAR001 — live in
:mod:`repro.lint.rules.semantic` and consume this layer.
"""

from repro.lint.semantic.cache import (
    FactCache,
    default_fact_cache_path,
    source_hash,
)
from repro.lint.semantic.graph import CallGraph
from repro.lint.semantic.project import Project, build_project
from repro.lint.semantic.summary import (
    EXTRACTOR_VERSION,
    ModuleSummary,
    extract_summary,
    module_name_for_path,
)

__all__ = [
    "CallGraph",
    "EXTRACTOR_VERSION",
    "FactCache",
    "ModuleSummary",
    "Project",
    "build_project",
    "default_fact_cache_path",
    "extract_summary",
    "module_name_for_path",
    "source_hash",
]
