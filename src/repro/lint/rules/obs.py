"""Observability rules: the seam table (OBS001–OBS003, OBS005, OBS006)
and OBS004 (no blocking calls reachable from async serving handlers).

A *seam* is the one place a side effect may happen: the console
(:func:`repro.obs.echo`), the clock (:func:`repro.obs.monotonic`),
artifact files (:mod:`repro.models.io`, :mod:`repro.models.registry`,
:mod:`repro.simulator.trace_io`), shared-file persistence
(:mod:`repro.util.store`) and run records
(:mod:`repro.obs.history.ledger`).  A library module that goes around
one writes output traces cannot capture, durations tests cannot fake,
artifacts with no provenance, or records the history gate never sees.
Each row of :data:`SEAMS` is the check "primitive P only in modules M";
:class:`SeamRule` checks every row, and a new seam is one more row.

Scope comes from the dotted module name
(:func:`repro.lint.semantic.module_name_for_path` walks the
``__init__.py`` chain), not from directory names: only the ``repro``
package is library code, so ``benchmarks/``, ``examples/``,
``perfbench/`` and ``tests/`` are never flagged.  ``import X as Y`` is
resolved before names are compared, so an alias does not get past a
seam.

OBS004 guards the serving event loop.  ``repro serve`` answers requests
from a single asyncio loop: one ``time.sleep``, raw ``socket`` call or
synchronous file read inside (or reachable from) an ``async def`` handler
stalls *every* in-flight request, invisibly — the classic async
foot-gun.  The rule walks each ``repro/serve`` module's intra-file call
graph from its ``async def`` roots and flags blocking calls anywhere
reachable.  Blocking telemetry I/O belongs behind the synchronous
:mod:`repro.obs.live` sinks (invoked through the application object,
outside this file-local reachability) and model loading belongs in
synchronous startup code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import FrozenSet, List, Optional, Tuple

from repro.lint.core import (
    FileContext,
    Finding,
    VisitorRule,
    attribute_chain,
    register,
)
from repro.lint.semantic.summary import module_name_for_path


@dataclass(frozen=True)
class Seam:
    """One row of the seam table: these primitives only in these modules."""

    id: str
    title: str
    rationale: str
    #: Where the primitive belongs instead; ends every finding message.
    hint: str
    #: Modules that may use the primitives; ``pkg.*`` is ``pkg`` and
    #: everything under it.
    allowed: Tuple[str, ...]
    #: Dotted callees, flagged when called or ``from``-imported.
    calls: FrozenSet[str] = frozenset()
    #: Dotted names, flagged when imported or used as an attribute,
    #: called or not; a module also when anything is imported from it.
    refs: FrozenSet[str] = frozenset()
    #: String constants, flagged wherever they appear.
    constants: FrozenSet[str] = frozenset()
    #: Call names, flagged on any receiver (and called bare).
    call_names: FrozenSet[str] = frozenset()


SEAMS = (
    Seam(
        id="OBS001",
        title="bare print() in library code bypasses the observability layer",
        rationale=(
            "print() in repro library modules cannot be captured into "
            "traces or silenced in worker processes; return data to the "
            "caller or go through repro.obs.echo. Only repro.cli, "
            "repro.lint.cli, repro.lint.reporters and repro.obs own the "
            "console."
        ),
        hint="return the text to the caller or use repro.obs.echo",
        allowed=("repro.cli", "repro.lint.cli", "repro.lint.reporters",
                 "repro.obs.*"),
        calls=frozenset({"print"}),
    ),
    Seam(
        id="OBS002",
        title="raw wall-clock read in library code bypasses the clock seam",
        rationale=(
            "time.time()/time.monotonic()/time.perf_counter() in repro "
            "library modules produce durations that deterministic tests "
            "cannot fake and traces cannot align; read "
            "repro.obs.monotonic() instead — it follows the active "
            "collector's injectable clock. Only repro.obs, where the seam "
            "lives, touches the raw clock."
        ),
        hint="use repro.obs.monotonic() so tests and traces control the clock",
        allowed=("repro.obs.*",),
        calls=frozenset({"time.time", "time.monotonic", "time.perf_counter"}),
    ),
    Seam(
        id="OBS003",
        title=("raw artifact serialisation in library code bypasses the "
               "registry"),
        rationale=(
            "pickle.dump/np.save/joblib.dump in repro library modules "
            "produce anonymous artifacts with no format version, provenance "
            "or registry entry; persist models through repro.models.io (and "
            "register through repro.models.registry), traces through "
            "repro.simulator.trace_io — the designated serialisation seams."
        ),
        hint=("write artifacts through repro.models.io / "
              "repro.models.registry / repro.simulator.trace_io"),
        allowed=("repro.models.io", "repro.models.registry",
                 "repro.simulator.trace_io"),
        calls=frozenset({
            "pickle.dump", "pickle.dumps", "numpy.save", "numpy.savez",
            "numpy.savez_compressed", "joblib.dump",
        }),
    ),
    Seam(
        id="OBS005",
        title=("file locking, atomic replace or store location outside the "
               "store"),
        rationale=(
            "The simulation cache, run ledger, model registry and lint fact "
            "cache share one flock, one atomic replace and one reading of "
            "REPRO_RESULTS_DIR/REPRO_CACHE_DIR, all in repro.util.store; a "
            "second copy drifts from the crash-consistency the store tests "
            "pin."
        ),
        hint="lock, replace and locate shared files through repro.util.store",
        # The constants below name the variables, so the row would flag
        # this module itself.
        allowed=("repro.util.store", __name__),
        refs=frozenset({"fcntl", "os.replace", "tempfile.mkstemp"}),
        constants=frozenset({"REPRO_RESULTS_DIR", "REPRO_CACHE_DIR"}),
    ),
    Seam(
        id="OBS006",
        title="run record written outside the ledger",
        rationale=(
            "Every run leaves exactly one manifest and one ledger line, "
            "written by repro.obs.history.record_run; a second writer "
            "records runs the history gate never sees, or sees twice."
        ),
        hint="record runs through repro.obs.history.record_run",
        allowed=("repro.obs.history.ledger",),
        call_names=frozenset({"append_run", "write_manifest"}),
    ),
)


def _within(module: str, pattern: str) -> bool:
    """Whether ``module`` is ``pattern``, or under it for ``pkg.*``."""
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


class SeamRule(VisitorRule):
    """Flag one :class:`Seam` row's primitives in ``repro`` library code
    outside the row's allowed modules."""

    seam: Seam

    def check_file(self, ctx: FileContext) -> List[Finding]:
        module = module_name_for_path(ctx.path)
        if not _within(module, "repro.*") or any(
                _within(module, allowed) for allowed in self.seam.allowed):
            return []
        return super().check_file(ctx)

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(node, f"{what} in library code; {self.seam.hint}")

    def _dotted(self, node: ast.AST) -> Optional[str]:
        chain = attribute_chain(node)
        if chain is None:
            return None
        head = self._ctx.import_aliases.get(chain[0], chain[0])
        return ".".join((head,) + chain[1:])

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if dotted in self.seam.calls:
            self._flag(node, f"{dotted}()")
        elif name in self.seam.call_names:
            self._flag(node, f"{name}()")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = self._dotted(node) if self.seam.refs else None
        if dotted in self.seam.refs:
            self._flag(node, dotted)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if node.value in self.seam.constants:
            self._flag(node, repr(node.value))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.seam.refs:
                self._flag(node, f"import {alias.name}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            return
        named = self.seam.calls | self.seam.refs
        names = sorted(alias.name for alias in node.names
                       if node.module in self.seam.refs
                       or f"{node.module}.{alias.name}" in named)
        if names:
            self._flag(node,
                       f"importing {', '.join(names)} from {node.module}")


for _seam in SEAMS:
    register(type(f"SeamRule{_seam.id}", (SeamRule,), {
        "id": _seam.id, "title": _seam.title,
        "rationale": _seam.rationale, "seam": _seam,
    }))


#: ``Path``/file-object methods that hit the filesystem synchronously.
_BLOCKING_FILE_METHODS = (
    "read_text", "write_text", "read_bytes", "write_bytes",
)


def _serve_scope(path: str) -> bool:
    """Whether OBS004 applies: a module under ``repro/serve``."""
    parts = PurePath(path).parts
    return "repro" in parts and "serve" in parts


@register
class NoBlockingInAsyncRule(VisitorRule):
    """Forbid blocking calls reachable from ``repro/serve`` async code."""

    id = "OBS004"
    title = "blocking call reachable from an async serving handler"
    rationale = (
        "repro serve answers every request from one asyncio event loop: "
        "a time.sleep, raw socket call, bare open() or synchronous "
        "Path read/write inside (or called, transitively, from) an "
        "async def stalls all in-flight requests. Use asyncio "
        "primitives, or hand the work to the synchronous repro.obs.live "
        "sinks outside the handler's reachability."
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if not _serve_scope(ctx.path):
            return []
        self._findings = []
        self._ctx = ctx
        functions: dict = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        reachable: set = set()
        frontier = [
            name for name, fn in functions.items()
            if isinstance(fn, ast.AsyncFunctionDef)
        ]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            frontier.extend(
                callee for callee in self._callees(functions[name])
                if callee in functions
            )
        for name in sorted(reachable):
            self._scan(functions[name])
        return self._findings

    @staticmethod
    def _callees(func: ast.AST) -> set:
        """Intra-file callee names: bare calls plus ``self.method`` calls."""
        out: set = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            if len(chain) == 1:
                out.add(chain[0])
            elif len(chain) == 2 and chain[0] == "self":
                out.add(chain[1])
        return out

    def _scan(self, func: ast.AST) -> None:
        """Flag blocking calls in ``func``'s own body (not nested defs —
        those are scanned separately if and only if reachable)."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                self._check_call(node)
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(self, node: ast.Call) -> None:
        chain = attribute_chain(node.func)
        if chain is None:
            return
        if chain == ("time", "sleep"):
            self.report(
                node,
                "time.sleep() reachable from an async handler blocks the "
                "whole event loop; await asyncio.sleep() instead",
            )
        elif len(chain) >= 2 and chain[0] == "socket":
            self.report(
                node,
                f"raw {'.'.join(chain)}() reachable from an async handler "
                "blocks the event loop; use asyncio streams",
            )
        elif chain == ("open",):
            self.report(
                node,
                "synchronous open() reachable from an async handler "
                "blocks the event loop; route file telemetry through the "
                "repro.obs.live sinks",
            )
        elif len(chain) >= 2 and chain[-1] in _BLOCKING_FILE_METHODS:
            self.report(
                node,
                f"synchronous .{chain[-1]}() reachable from an async "
                "handler blocks the event loop; route file I/O through "
                "the repro.obs.live sinks",
            )
