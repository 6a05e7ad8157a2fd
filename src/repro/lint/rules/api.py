"""API hygiene rules: API001 (mutable defaults, bare except) and API002.

Mutable defaults (``def f(x, acc=[])``) are evaluated once at function
definition and shared across calls — state leaks between experiment runs,
which is exactly the cross-run coupling the reproducibility contract
forbids.  Bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``
and hides real failures inside long simulation sweeps; catch a concrete
exception type (or at minimum ``Exception``).

API002 generalises the first half of that contract: *any* function call in
a parameter default runs once, at import time.  A default like
``cache_dir=store.cache_dir()`` freezes whatever the environment said at
import, so ``REPRO_CACHE_DIR`` set afterwards is silently ignored — the
exact bug class fixed in ``experiments/runner.py``.  Default to ``None``
(or a module-level sentinel) and resolve inside the function.
"""

from __future__ import annotations

import ast

from repro.lint.core import VisitorRule, register

#: Call names whose zero-argument form builds a fresh mutable container.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def _is_mutable_default(node: ast.AST) -> bool:
    """Whether a default-value expression is a shared mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES)


@register
class ApiHygieneRule(VisitorRule):
    """Forbid mutable default arguments and bare ``except:`` clauses."""

    id = "API001"
    title = "mutable default argument or bare except clause"
    rationale = (
        "Mutable defaults share state across calls (cross-run coupling); "
        "bare except hides real failures and eats KeyboardInterrupt inside "
        "long sweeps."
    )

    def _check_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self.report(
                    default,
                    f"mutable default argument in {node.name}(); default to "
                    "None and create the container inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except: swallows SystemExit/KeyboardInterrupt; catch "
                "a concrete exception type",
            )
        self.generic_visit(node)


@register
class CallInDefaultRule(VisitorRule):
    """Forbid function-call expressions in parameter defaults."""

    id = "API002"
    title = "function call evaluated once in a parameter default"
    rationale = (
        "A call in a default runs at import time, freezing environment or "
        "config state (e.g. a cache dir read from $REPRO_CACHE_DIR) before "
        "the caller can change it; default to None and resolve at call "
        "time."
    )

    def _check_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            for call in ast.walk(default):
                if not isinstance(call, ast.Call):
                    continue
                # Zero-argument mutable factories are API001's finding;
                # don't report the same expression twice.
                if (isinstance(call.func, ast.Name)
                        and call.func.id in _MUTABLE_FACTORIES):
                    continue
                self.report(
                    call,
                    f"call in parameter default of {node.name}() is "
                    "evaluated once at import time; default to None and "
                    "resolve inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)
