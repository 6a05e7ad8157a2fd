"""Semantic rules: DET001, MUT001 and PAR001.

These three project-scope rules consume the whole-program facts of
:mod:`repro.lint.semantic` — the call graph, the nondeterminism
witnesses, the cached-value alias facts and the pool-submission facts.
They are the cross-module generalisation of the per-file contracts the
repo already enforces:

* **DET001** — nothing transitively reachable from the cache-keyed
  simulation entry points (``SimulationRunner.metric`` and friends,
  ``ProcessorConfig.key``) may consult wall clocks, hidden global RNG
  state, the environment, namespace-order iteration or filesystem
  listings.  Cache keys and cached metrics must be pure functions of
  the design point, or the memoised-simulation methodology of the paper
  silently stops being reproducible.
* **MUT001** — values read out of the simulation cache (``result_at``,
  ``_cache`` subscripts/``.get``) must not be mutated through any local
  alias: the cache hands out the only copy of ground truth.
* **PAR001** — work shipped into ``ProcessPoolExecutor.submit``/``map``
  must be statically picklable; lambdas, nested functions, local classes
  and open handles fail only at runtime, on the worker, with an opaque
  traceback.

The ``repro.obs`` package is exempt from DET001 witnesses: it is the
measurement seam (wall-clock spans, run manifests) and is
nondeterministic by design, mirroring the OBS002 exemption at the
per-file layer.  Like the seam table, the exemption goes by dotted
module name, so a directory that merely happens to be called ``obs``
is not exempt.
"""

from __future__ import annotations

from typing import List

from repro.lint.core import Finding, ProjectRule, register
from repro.lint.semantic import module_name_for_path, within

#: Call-graph roots of DET001, matched by qualified-name suffix so the
#: rule engages on fixtures that mirror the real class names.
DETERMINISM_ROOTS = (
    "SimulationRunner.metric",
    "SimulationRunner.result_at",
    "SimulationRunner.cpi",
    "SimulationRunner.power",
    "SimulationRunner._trace_fingerprint",
    "ProcessorConfig.key",
)


def _short(qname: str) -> str:
    """Readable tail of a qualified name for call-chain messages."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname


@register
class DeterminismRule(ProjectRule):
    """DET001: cache-keyed simulation paths must be deterministic."""

    id = "DET001"
    title = "nondeterminism reachable from cache-keyed simulation entry points"
    rationale = (
        "The paper's methodology memoises simulation samples by design "
        "point; any wall-clock, global-RNG, environment or filesystem-order "
        "dependence reachable from the metric/cache-key paths makes cached "
        "and fresh results diverge silently."
    )

    def check(self, project) -> List[Finding]:
        """Walk the reachable set of the determinism roots for witnesses."""
        graph = project.graph
        roots = graph.roots_matching(DETERMINISM_ROOTS)
        parent = graph.reachable(roots)
        findings: List[Finding] = []
        for qname in sorted(parent):
            path = graph.paths[qname]
            record = graph.functions[qname]
            if (not record["witnesses"] or path not in project.linted_paths
                    or within(module_name_for_path(path), "repro.obs.*")):
                continue
            chain = " -> ".join(
                _short(q) for q in graph.call_chain(parent, qname))
            for witness in record["witnesses"]:
                findings.append(Finding(
                    rule=self.id, path=path,
                    line=witness["line"], col=witness["col"],
                    message=(f"{witness['detail']} — reachable from a "
                             f"cache-keyed entry point via {chain}"),
                ))
        return findings


@register
class CacheMutationRule(ProjectRule):
    """MUT001: cached simulation results must never be mutated."""

    id = "MUT001"
    title = "mutation of a value aliasing the simulation cache"
    rationale = (
        "result_at() and the _cache mapping hand out the canonical copy of "
        "a simulated point; mutating it through any alias corrupts every "
        "later read of the same design point."
    )

    def check(self, project) -> List[Finding]:
        """Lift the intra-procedural alias-mutation facts into findings."""
        graph = project.graph
        findings: List[Finding] = []
        for qname in sorted(graph.functions):
            path = graph.paths[qname]
            if path not in project.linted_paths:
                continue
            for fact in graph.functions[qname]["mut"]:
                findings.append(Finding(
                    rule=self.id, path=path,
                    line=fact["line"], col=fact["col"],
                    message=(f"'{fact['var']}' aliases a cached value "
                             f"(from {fact['origin']}) and is mutated via "
                             f"{fact['how']}; copy before modifying"),
                ))
        return findings


@register
class PicklabilityRule(ProjectRule):
    """PAR001: process-pool payloads must be statically picklable."""

    id = "PAR001"
    title = "unpicklable object shipped to a ProcessPoolExecutor"
    rationale = (
        "submit()/map() arguments cross a process boundary via pickle; "
        "lambdas, nested functions, local classes and open handles only "
        "fail at runtime on the worker."
    )

    def check(self, project) -> List[Finding]:
        """Lift the pool-submission picklability facts into findings."""
        graph = project.graph
        findings: List[Finding] = []
        for qname in sorted(graph.functions):
            path = graph.paths[qname]
            if path not in project.linted_paths:
                continue
            for fact in graph.functions[qname]["par"]:
                findings.append(Finding(
                    rule=self.id, path=path,
                    line=fact["line"], col=fact["col"],
                    message=(f"{fact['issue']} — arguments to "
                             f"{fact['site']} must be picklable"),
                ))
        return findings
