"""Project-wide semantic analysis for :mod:`repro.lint`.

This package gives project-scope rules a whole-program view: per-file
module summaries (:mod:`~repro.lint.semantic.summary`), a call graph
with method resolution and reachability
(:mod:`~repro.lint.semantic.graph`), and the :class:`Project` facade the
runner hands to each :class:`~repro.lint.core.ProjectRule`
(:mod:`~repro.lint.semantic.project`).  Every run extracts the
summaries from source; nothing is kept between runs.

The three shipped semantic rules — DET001, MUT001 and PAR001 — live in
:mod:`repro.lint.rules.semantic` and consume this layer.
"""

from repro.lint.semantic.graph import CallGraph
from repro.lint.semantic.project import Project
from repro.lint.semantic.summary import (
    ModuleSummary,
    extract_summary,
    module_name_for_path,
    within,
)

__all__ = [
    "CallGraph",
    "ModuleSummary",
    "Project",
    "extract_summary",
    "module_name_for_path",
    "within",
]
