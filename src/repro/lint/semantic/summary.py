"""Per-file semantic extraction: the facts one module contributes.

One :data:`ModuleSummary` is extracted per source file and holds
everything the project-wide passes need — resolved imports, class and
function symbols, a call IR, nondeterminism witnesses, and mutation and
pickling facts.  Summaries are plain JSON-serialisable
dicts-of-primitives, which is what lets the whole-program fact cache
(:mod:`repro.lint.semantic.cache`) key them by file content hash and
replay them without re-parsing.

The extraction is deliberately best-effort: anything it cannot resolve
is recorded as unknown rather than guessed, so the downstream rules err
toward silence, not false positives.

Call IR entries (the ``calls`` list of a function record):

``{"kind": "direct", "target": "pkg.mod.fn", "line": N}``
    A call (or reference — e.g. a callback passed to a pool) to a
    resolved symbol.  The target may be a class, in which case the call
    graph routes it to ``__init__``; it may also be an external dotted
    name (``numpy.where``), which the graph simply ignores.
``{"kind": "method", "recv": "pkg.mod.Class", "name": "m", "line": N}``
    A method call on a value statically known to be an instance of
    ``recv``; resolved against the class (and its bases) at graph time.
``{"kind": "ref", "target": "pkg.mod.fn", "line": N}``
    A function passed as an argument (a callback that may be invoked
    later).  Unlike ``direct``, a ``ref`` to a *class* is ignored at
    graph time — ``isinstance(x, Cls)`` must not pull ``Cls.__init__``
    into reachability.
"""

from __future__ import annotations

import ast
import os
from typing import Any, Dict, List, Optional

from repro.lint.core import attribute_chain

#: Bump to invalidate every cached summary when the extractor changes.
EXTRACTOR_VERSION = 2

#: JSON shape of one module's facts.
ModuleSummary = Dict[str, Any]

# -- nondeterminism witnesses (DET001 inputs) ---------------------------------

#: Dotted calls that read a wall clock.
_TIME_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter", "time.time_ns",
    "time.monotonic_ns", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

#: ``numpy.random`` attributes that construct fresh seeded state (allowed);
#: RNG001 bans every other ``np.random.<fn>`` call.
NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState",
})

#: Dotted calls producing fresh entropy regardless of arguments.
_ENTROPY_CALLS = frozenset({
    "uuid.uuid1", "uuid.uuid4", "os.urandom", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
})

#: Environment reads.
_ENV_CALLS = frozenset({"os.getenv", "os.environ.get"})

#: Filesystem enumeration (result order / content is machine state).
_FSLIST_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})

#: Method names that enumerate the filesystem on any receiver
#: (``Path.iterdir`` / ``Path.rglob`` have no non-filesystem homonyms in
#: this codebase; bare ``glob``/``walk`` attributes are too common to flag).
_FSLIST_METHODS = frozenset({"iterdir", "rglob"})

# -- cached-value aliasing (MUT001 inputs) ------------------------------------

#: Mapping-mutating method names.
_MUTATING_METHODS = frozenset({
    "update", "pop", "popitem", "clear", "setdefault", "__setitem__",
})

#: Attribute names whose subscript/``.get`` reads alias cached entries.
_CACHE_ATTRS = frozenset({"_cache"})

#: Method names whose return values are simulation-cache reads.
_CACHE_RETURNING_METHODS = frozenset({"result_at"})

#: Calls that launder a protected value into a fresh copy.
_COPYING_CALLS = frozenset({"dict", "list", "deepcopy", "copy"})


def module_name_for_path(path: str) -> str:
    """Dotted module name for ``path``, walking up through ``__init__.py``.

    ``src/repro/simulator/cache.py`` maps to ``repro.simulator.cache``
    because every directory from ``repro`` down carries an
    ``__init__.py``.  A file outside any package maps to its bare stem,
    which is how standalone harnesses under ``benchmarks/`` appear.
    """
    path = os.path.normpath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = []
    while directory and os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        if not pkg:
            break
        parts.append(pkg)
    parts.reverse()
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts) if parts else stem


class _Scope:
    """One lexical scope: bindings for imports, types and local defs."""

    def __init__(self, kind: str, qname: str):
        self.kind = kind  # "module" | "class" | "function"
        self.qname = qname
        #: local name -> dotted import target
        self.imports: Dict[str, str] = {}
        #: local name -> type descriptor ("rng" or a class qname)
        self.types: Dict[str, str] = {}
        #: local name -> qname of a def/class introduced in this scope
        self.defs: Dict[str, str] = {}
        #: defs nested inside a *function* body: name -> "function"|"class"|
        #: "lambda" (all unpicklable by qualified name)
        self.local_defs: Dict[str, str] = {}
        #: local names bound to open file handles
        self.handles: set = set()
        #: local names bound to ProcessPoolExecutor instances
        self.pools: set = set()
        #: local names aliasing cached values: name -> origin description
        self.protected: Dict[str, str] = {}


class _Extractor(ast.NodeVisitor):
    """Extraction driver for one module; fills class/function records."""

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path.replace(os.sep, "/")
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.scopes: List[_Scope] = [_Scope("module", module)]
        self._record: Optional[Dict[str, Any]] = None

    # -- scope helpers -----------------------------------------------------

    @property
    def scope(self) -> _Scope:
        return self.scopes[-1]

    def _lookup(self, table_name: str, name: str) -> Optional[str]:
        """Innermost binding of ``name`` (class bodies don't enclose)."""
        for scope in reversed(self.scopes):
            if scope.kind == "class":
                continue  # class bodies are not enclosing scopes
            table = getattr(scope, table_name)
            if name in table:
                return table[name]
        return None

    def _current_class(self) -> Optional[str]:
        for scope in reversed(self.scopes):
            if scope.kind == "class":
                return scope.qname
        return None

    def _class_record_by_qname(self, qname: str) -> Optional[Dict[str, Any]]:
        record = self.classes.get(qname.rsplit(".", 1)[-1])
        if record is not None and record["qname"] == qname:
            return record
        return None

    # -- pre-scan: module symbols so forward references resolve ------------

    def prescan(self, tree: ast.Module) -> None:
        """Record module-level defs and classes before the main walk."""
        module_scope = self.scopes[0]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_scope.defs[node.name] = f"{self.module}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                qname = f"{self.module}.{node.name}"
                module_scope.defs[node.name] = qname
                self.classes[node.name] = {
                    "qname": qname,
                    "line": node.lineno,
                    "bases": [],
                    "methods": [
                        n.name for n in node.body
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                    ],
                    "attr_types": {},
                }

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.scope.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.scope.imports[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            pkg = self.module.split(".")
            anchor = pkg[: len(pkg) - node.level]
            base = ".".join(anchor + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.scope.imports[local] = \
                f"{base}.{alias.name}" if base else alias.name

    # -- resolution and type inference -------------------------------------

    def _resolve_name(self, name: str) -> Optional[str]:
        """Resolve a bare name to a dotted target (def, class or import)."""
        target = self._lookup("defs", name)
        if target is not None:
            return target
        return self._lookup("imports", name)

    def _resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve ``a.b.c`` through the import table to a dotted string."""
        chain = attribute_chain(node)
        if chain is None:
            return None
        root = self._resolve_name(chain[0])
        if root is None:
            return None
        return ".".join((root,) + chain[1:])

    def infer_type(self, node: ast.AST) -> Optional[str]:
        """Best-effort type of an expression: rng or a class qname."""
        if isinstance(node, ast.Name):
            return self._lookup("types", node.id)
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain and chain[0] == "self" and len(chain) == 2:
                cls = self._current_class()
                if cls is not None:
                    record = self._class_record_by_qname(cls)
                    if record is not None:
                        return record["attr_types"].get(chain[1])
            return None
        if isinstance(node, ast.Call):
            return self._infer_call_type(node)
        return None

    def _infer_call_type(self, node: ast.Call) -> Optional[str]:
        dotted = self._resolve_dotted(node.func)
        if dotted is None:
            return None
        if dotted.startswith("numpy."):
            return "rng" if dotted == "numpy.random.default_rng" else None
        # Calling a CapWord dotted name yields an instance of that
        # class; whether it really is a class is decided at graph time.
        if dotted.rsplit(".", 1)[-1][:1].isupper():
            return dotted
        return None

    def annotation_type(self, ann: Optional[ast.AST]) -> Optional[str]:
        """Type descriptor from an annotation node, if recognisable."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            text = ann.value
        else:
            text = self._safe_unparse(ann)
        if text.endswith("random.Generator"):
            return "rng"
        if isinstance(ann, (ast.Name, ast.Attribute)):
            dotted = self._resolve_dotted(ann)
            if dotted is not None and dotted.rsplit(".", 1)[-1][:1].isupper():
                return dotted
        return None

    @staticmethod
    def _safe_unparse(node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"

    # -- declarations ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        in_function = self.scope.kind == "function"
        record = None if in_function else self.classes.get(node.name)
        if in_function:
            self.scope.local_defs[node.name] = "class"
            qname = f"{self.scope.qname}.{node.name}"
            self.scope.defs[node.name] = qname
        elif record is not None:
            record["bases"] = [
                dotted for dotted in
                (self._resolve_dotted(base) for base in node.bases)
                if dotted is not None
            ]
            qname = record["qname"]
        else:  # pragma: no cover - class nested directly in a class body
            qname = f"{self.scope.qname}.{node.name}"
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.scopes.append(_Scope("class", qname))
        for child in node.body:
            self.visit(child)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node) -> None:
        parent = self.scope
        cls = self._current_class()
        if parent.kind == "function":
            parent.local_defs.setdefault(node.name, "function")
            qname = f"{parent.qname}.{node.name}"
            parent.defs[node.name] = qname
        elif parent.kind == "class":
            qname = f"{parent.qname}.{node.name}"
        else:
            qname = f"{self.module}.{node.name}"

        record: Dict[str, Any] = {
            "name": node.name,
            "cls": cls if parent.kind == "class" else None,
            "line": node.lineno,
            "calls": [],
            "witnesses": [],
            "par": [],
            "mut": [],
        }
        self.functions[qname] = record

        outer_record = self._record
        self._record = record
        for decorator in node.decorator_list:
            self.visit(decorator)

        scope = _Scope("function", qname)
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if parent.kind == "class" and positional and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list):
            # The receiver argument is an instance of the enclosing class
            # (``cls`` on classmethods resolves methods identically).
            scope.types[positional[0].arg] = parent.qname
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + ([args.vararg] if args.vararg else [])
            + list(args.kwonlyargs)
            + ([args.kwarg] if args.kwarg else [])
        ):
            atype = self.annotation_type(arg.annotation)
            if atype is not None:
                scope.types[arg.arg] = atype

        self.scopes.append(scope)
        for child in node.body:
            self.visit(child)
        self.scopes.pop()
        self._record = outer_record

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambda bodies contribute calls but no bindings worth tracking.
        self.visit(node.body)

    # -- statements --------------------------------------------------------

    def _emit(self, entry: Dict[str, Any]) -> None:
        if self._record is not None:
            self._record["calls"].append(entry)

    def _witness(self, kind: str, node: ast.AST, detail: str) -> None:
        if self._record is not None:
            self._record["witnesses"].append(
                {"kind": kind, "line": node.lineno,
                 "col": node.col_offset, "detail": detail})

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_entry_mutation_target(node)
        self.generic_visit(node)
        value_type = self.infer_type(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind_name(target.id, node.value, value_type)
            elif isinstance(target, ast.Attribute):
                self._bind_self_attr(target, value_type)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        declared = self.annotation_type(node.annotation)
        value_type = declared or (
            self.infer_type(node.value) if node.value else None)
        if isinstance(node.target, ast.Name):
            self._bind_name(node.target.id, node.value, value_type)
        elif isinstance(node.target, ast.Attribute):
            self._bind_self_attr(node.target, value_type)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) \
                and target.id in self.scope.protected:
            self._mutation(target, target.id, "augmented assignment")
        elif isinstance(target, ast.Subscript):
            self._check_subscript_mutation(target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_subscript_mutation(target)
        self.generic_visit(node)

    def _bind_name(self, name: str, value: Optional[ast.AST],
                   value_type: Optional[str]) -> None:
        scope = self.scope
        if value_type is not None:
            scope.types[name] = value_type
        else:
            scope.types.pop(name, None)
        scope.handles.discard(name)
        scope.pools.discard(name)
        scope.protected.pop(name, None)
        if isinstance(value, ast.Lambda):
            scope.local_defs[name] = "lambda"
            return
        scope.local_defs.pop(name, None)
        if isinstance(value, ast.Name) and value.id in scope.protected:
            scope.protected[name] = scope.protected[value.id]
            return
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name):
                if value.func.id == "open":
                    scope.handles.add(name)
                if value.func.id in _COPYING_CALLS:
                    return  # dict(cached) etc: a fresh copy, unprotected
            dotted = self._resolve_dotted(value.func)
            if dotted is not None \
                    and dotted.rsplit(".", 1)[-1] == "ProcessPoolExecutor":
                scope.pools.add(name)
            origin = self._cache_read_origin(value)
            if origin is not None:
                scope.protected[name] = origin
        elif isinstance(value, ast.Subscript):
            origin = self._cache_subscript_origin(value)
            if origin is not None:
                scope.protected[name] = origin

    def _cache_read_origin(self, call: ast.Call) -> Optional[str]:
        """Origin label when ``call`` reads a cached value, else None."""
        if not isinstance(call.func, ast.Attribute):
            return None
        if call.func.attr in _CACHE_RETURNING_METHODS:
            return f"{call.func.attr}()"
        if call.func.attr == "get":
            chain = attribute_chain(call.func.value)
            if chain and chain[-1] in _CACHE_ATTRS:
                return f"{'.'.join(chain)}.get()"
        return None

    def _cache_subscript_origin(self, node: ast.Subscript) -> Optional[str]:
        chain = attribute_chain(node.value)
        if chain and chain[-1] in _CACHE_ATTRS:
            return f"{'.'.join(chain)}[...]"
        return None

    def _bind_self_attr(self, target: ast.Attribute,
                        value_type: Optional[str]) -> None:
        chain = attribute_chain(target)
        if not (chain and chain[0] == "self" and len(chain) == 2):
            return
        cls = self._current_class()
        if cls is None or value_type is None:
            return
        record = self._class_record_by_qname(cls)
        if record is not None:
            record["attr_types"].setdefault(chain[1], value_type)

    def _mutation(self, node: ast.AST, var: str, how: str) -> None:
        if self._record is not None:
            origin = self.scope.protected.get(var, "cache read")
            self._record["mut"].append({
                "line": node.lineno, "col": node.col_offset,
                "var": var, "how": how, "origin": origin,
            })

    def _check_entry_mutation_target(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_subscript_mutation(target)

    def _check_subscript_mutation(self, target: ast.Subscript) -> None:
        """``v[k] = ...`` / ``del v[k]`` where ``v`` aliases a cached value,
        or one-step-deeper ``cache[key][k] = ...`` writes."""
        value = target.value
        if isinstance(value, ast.Name) \
                and value.id in self.scope.protected:
            self._mutation(target, value.id, "item write")
        elif isinstance(value, ast.Subscript):
            origin = self._cache_subscript_origin(value)
            if origin is not None and self._record is not None:
                self._record["mut"].append({
                    "line": target.lineno, "col": target.col_offset,
                    "var": self._safe_unparse(value), "how": "item write",
                    "origin": origin,
                })

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if isinstance(item.optional_vars, ast.Name) \
                    and isinstance(item.context_expr, ast.Call):
                name = item.optional_vars.id
                call = item.context_expr
                if isinstance(call.func, ast.Name) and call.func.id == "open":
                    self.scope.handles.add(name)
                dotted = self._resolve_dotted(call.func)
                if dotted is not None \
                        and dotted.rsplit(".", 1)[-1] == "ProcessPoolExecutor":
                    self.scope.pools.add(name)
        for child in node.body:
            self.visit(child)

    # -- loops: order-dependence witnesses ---------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_order_dependence(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_order_dependence(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_order_dependence(self, iter_node: ast.AST) -> None:
        """Iteration whose order depends on namespace or process state."""
        if isinstance(iter_node, ast.Call):
            if isinstance(iter_node.func, ast.Name) \
                    and iter_node.func.id in ("vars", "globals", "locals"):
                self._witness(
                    "dictorder", iter_node,
                    f"iterating {iter_node.func.id}() is namespace-order "
                    "dependent")
                return
            dotted = self._resolve_dotted(iter_node.func)
        else:
            dotted = self._resolve_dotted(iter_node)
        if dotted == "os.environ" \
                or (dotted or "").startswith("os.environ."):
            self._witness("dictorder", iter_node,
                          "iterating os.environ depends on process state")

    # -- calls: IR, witnesses, MUT001 method mutations, PAR001 sites -------

    def visit_Call(self, node: ast.Call) -> None:
        self._examine_call(node)
        self.generic_visit(node)

    def _examine_call(self, node: ast.Call) -> None:
        func = node.func
        dotted: Optional[str] = None
        if isinstance(func, (ast.Name, ast.Attribute)):
            dotted = self._resolve_dotted(func)

        if dotted is not None:
            self._check_witness_call(node, dotted)
            self._emit({"kind": "direct", "target": dotted,
                        "line": node.lineno})
        elif isinstance(func, ast.Attribute):
            recv_type = self.infer_type(func.value)
            if recv_type not in (None, "rng"):
                self._emit({"kind": "method", "recv": recv_type,
                            "name": func.attr, "line": node.lineno})
            elif func.attr in _FSLIST_METHODS:
                self._witness("fslist", node,
                              f".{func.attr}() enumerates the filesystem")
            if (isinstance(func.value, ast.Name)
                    and func.value.id in self.scope.protected
                    and func.attr in _MUTATING_METHODS):
                self._mutation(node, func.value.id, f".{func.attr}() call")

        # Callback references: a function passed as an argument may be
        # called later — record a conservative edge for reachability.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref = self._resolve_dotted(arg)
                if ref is not None:
                    self._emit({"kind": "ref", "target": ref,
                                "line": node.lineno})

        self._check_pool_submission(node)

    def _check_witness_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if dotted in _TIME_CALLS:
            self._witness("time", node, f"{dotted}() reads the wall clock")
        elif dotted in _ENTROPY_CALLS:
            self._witness("rng", node, f"{dotted}() draws fresh entropy")
        elif dotted in _ENV_CALLS:
            self._witness("env", node, f"{dotted}() reads the environment")
        elif dotted in _FSLIST_CALLS:
            self._witness("fslist", node,
                          f"{dotted}() enumerates the filesystem")
        elif (len(parts) == 3 and parts[0] == "numpy" and parts[1] == "random"
                and parts[2] not in NP_RANDOM_ALLOWED):
            self._witness("rng", node,
                          f"np.random.{parts[2]}() uses the global NumPy RNG")
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] != "Random"):
            self._witness("rng", node,
                          f"random.{parts[1]}() uses the hidden stdlib RNG")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        chain = attribute_chain(node.value)
        if chain is not None and len(chain) == 2 \
                and self._resolve_name(chain[0]) == "os" \
                and chain[1] == "environ" \
                and isinstance(node.ctx, ast.Load):
            self._witness("env", node, "os.environ[...] read")
        self.generic_visit(node)

    # -- PAR001 ------------------------------------------------------------

    def _check_pool_submission(self, node: ast.Call) -> None:
        """PAR001 inputs: picklability of work shipped to a process pool."""
        func = node.func
        payload: List[ast.AST] = []
        site = None
        if isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
            recv = func.value
            is_pool = (
                isinstance(recv, ast.Name) and self._is_pool_name(recv.id)
            ) or (
                isinstance(recv, ast.Call)
                and (self._resolve_dotted(recv.func) or "")
                .rsplit(".", 1)[-1] == "ProcessPoolExecutor"
            )
            if is_pool:
                site = f"ProcessPoolExecutor.{func.attr}"
                payload = list(node.args)
        else:
            dotted = self._resolve_dotted(func) if isinstance(
                func, (ast.Name, ast.Attribute)) else None
            if dotted is not None \
                    and dotted.rsplit(".", 1)[-1] == "ProcessPoolExecutor":
                site = "ProcessPoolExecutor(initializer=...)"
                payload = [kw.value for kw in node.keywords
                           if kw.arg in ("initializer", "initargs")]
        if site is None or self._record is None:
            return
        for arg in payload:
            issue = self._pickle_issue(arg)
            if issue is not None:
                self._record["par"].append({
                    "line": arg.lineno, "col": arg.col_offset,
                    "site": site, "issue": issue,
                })

    def _is_pool_name(self, name: str) -> bool:
        return any(name in scope.pools for scope in self.scopes)

    def _pickle_issue(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` cannot cross a process boundary, if detectable."""
        if isinstance(node, ast.Lambda):
            return "lambda functions cannot be pickled"
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if scope.kind == "module":
                    break
                if node.id in scope.local_defs:
                    kind = scope.local_defs[node.id]
                    return (f"'{node.id}' is a {kind} defined inside a "
                            "function body (unpicklable by qualified name)")
                if node.id in scope.handles:
                    return f"'{node.id}' is an open file handle"
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                issue = self._pickle_issue(element)
                if issue is not None:
                    return issue
        return None


def extract_summary(path: str, tree: ast.Module,
                    module: Optional[str] = None) -> ModuleSummary:
    """Extract one file's :data:`ModuleSummary` from its parsed AST."""
    module = module or module_name_for_path(path)
    extractor = _Extractor(module, path)
    extractor.prescan(tree)
    extractor.visit(tree)
    return {
        "version": EXTRACTOR_VERSION,
        "module": module,
        "path": extractor.path,
        "classes": extractor.classes,
        "functions": extractor.functions,
    }
