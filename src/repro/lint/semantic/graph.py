"""Whole-program call graph over module summaries.

:class:`CallGraph` stitches the per-file :data:`ModuleSummary` facts of
:mod:`repro.lint.semantic.summary` into one program view: a function
table keyed by qualified name, a class table for method resolution
(following resolved base classes), and a call-edge relation.  On top of
that, :meth:`~CallGraph.reachable` computes breadth-first reachability
from a set of root functions, keeping one witness parent per reached
node so DET001 can print the full ``metric → helper → time.time()``
chain.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.semantic.summary import ModuleSummary


class CallGraph:
    """Program-wide symbol table + call edges built from summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        #: function qname -> function record (see summary.py for shape)
        self.functions: Dict[str, Dict[str, Any]] = {}
        #: function qname -> repo-relative path of the defining file
        self.paths: Dict[str, str] = {}
        #: class qname -> class record (bases, methods, attr_types)
        self.classes: Dict[str, Dict[str, Any]] = {}
        for summary in summaries:
            path = summary["path"]
            for qname, record in summary["functions"].items():
                self.functions[qname] = record
                self.paths[qname] = path
            for record in summary["classes"].values():
                self.classes[record["qname"]] = record
        self._edges: Dict[str, List[Tuple[str, int]]] = {}
        for qname, record in self.functions.items():
            self._edges[qname] = self._resolve_calls(record)

    # -- resolution --------------------------------------------------------

    def _resolve_calls(self, record: Dict[str, Any]) -> List[Tuple[str, int]]:
        edges: List[Tuple[str, int]] = []
        for call in record["calls"]:
            target = self.resolve_call(call)
            if target is not None:
                edges.append((target, call["line"]))
        return edges

    def resolve_call(self, call: Dict[str, Any]) -> Optional[str]:
        """Resolve one call-IR entry to a known function qname, or None."""
        if call["kind"] in ("direct", "ref"):
            target = call["target"]
            if target in self.functions:
                return target
            if call["kind"] == "direct" and target in self.classes:
                return self.resolve_method(target, "__init__")
            return None
        if call["kind"] == "method":
            return self.resolve_method(call["recv"], call["name"])
        return None

    def resolve_method(self, class_qname: str, name: str) -> Optional[str]:
        """Resolve ``Class.name`` through the class and its resolved bases."""
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            cls = stack.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            record = self.classes.get(cls)
            if record is None:
                continue
            qname = f"{cls}.{name}"
            if name in record["methods"] and qname in self.functions:
                return qname
            stack.extend(record["bases"])
        return None

    def callees(self, qname: str) -> List[Tuple[str, int]]:
        """Resolved ``(callee_qname, call_line)`` edges out of ``qname``."""
        return self._edges.get(qname, [])

    # -- reachability ------------------------------------------------------

    def roots_matching(self, suffixes: Iterable[str]) -> List[str]:
        """Function qnames ending in one of ``suffixes`` (``.a.b`` match)."""
        out = []
        for qname in self.functions:
            if any(qname == s or qname.endswith("." + s) for s in suffixes):
                out.append(qname)
        return sorted(out)

    def reachable(self, roots: Iterable[str]) -> Dict[str, Optional[str]]:
        """BFS closure of ``roots``; maps reached qname -> witness parent.

        Roots map to ``None``.  The parent chain reconstructs one shortest
        call path from a root to any reached function for diagnostics.
        """
        parent: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for root in roots:
            if root in self.functions and root not in parent:
                parent[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee, _line in self.callees(current):
                if callee not in parent:
                    parent[callee] = current
                    queue.append(callee)
        return parent

    def call_chain(self, parent: Dict[str, Optional[str]],
                   qname: str) -> List[str]:
        """Root-first call path to ``qname`` under a ``reachable`` map."""
        chain = [qname]
        seen = {qname}
        while parent.get(chain[-1]) is not None:
            nxt = parent[chain[-1]]
            if nxt in seen:  # pragma: no cover - parent maps are acyclic
                break
            chain.append(nxt)
            seen.add(nxt)
        chain.reverse()
        return chain
