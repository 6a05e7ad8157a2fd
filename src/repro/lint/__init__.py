"""repro.lint — AST-based static checks for the repo's own contracts.

The paper's statistical claims rest on discipline the type system cannot
see: explicitly seeded RNGs, well-conditioned least-squares fits, design
points whose parameter names actually exist in Table 1, a
tables/figures registry that stays in sync with its harnesses, and side
effects that go through one seam each.  This package enforces those
contracts mechanically:

========  =============================================================
RNG001    no module-level ``np.random.*`` / ``random.*`` RNG calls
NUM001    no ``np.linalg.inv`` / unregularized normal-equation solves
NUM002    no ``==`` / ``!=`` comparisons against float literals
DS001     parameter-name strings must exist in ``core/design_space.py``
REG001    experiments / registry.py / benchmarks harnesses in sync
API001    no mutable default arguments, no bare ``except:``
API002    no function calls evaluated in parameter defaults
OBS001    ``print`` only in the CLIs, the lint reporters and ``repro.obs``
OBS002    raw clock reads only in ``repro.obs``
OBS003    ``pickle``/``np.save``/``joblib`` dumps only in the artifact seams
OBS004    no blocking calls reachable from async serving handlers
OBS005    flock, atomic replace and store paths only in ``repro.util.store``
OBS006    run records written only by ``repro.obs.history.ledger``
DET001    no nondeterminism reachable from cache-keyed simulation paths
MUT001    no mutation of values aliasing the simulation cache
PAR001    process-pool payloads must be statically picklable
========  =============================================================

Run it as ``python -m repro.lint [paths]``, ``repro lint`` or
``repro-lint``; suppress per line or per file with ``# repro:
noqa[RULE-ID]``; grandfather findings in ``lint-baseline.json``.  See
``docs/linting.md`` for the full catalogue and workflow.
"""

from repro.lint.baseline import Baseline, fingerprint
from repro.lint.core import (
    RULES,
    FileContext,
    Finding,
    Rule,
    Suppressions,
    VisitorRule,
    all_rules,
    parse_suppressions,
    register,
)
from repro.lint.runner import LintResult, LintRunner, collect_files

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintResult",
    "LintRunner",
    "RULES",
    "Rule",
    "Suppressions",
    "VisitorRule",
    "all_rules",
    "collect_files",
    "fingerprint",
    "parse_suppressions",
    "register",
]
