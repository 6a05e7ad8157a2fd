"""Span recording for the traced run, and the per-layer breakdown it yields.

The traced run wraps the program's public entry points from the
benchmark's own files; no program code changes.  Every wrapped call
records one span -- name, layer, start, end, parent span and op id -- in
memory, and the spans are written out once, when the run ends.  A layer's
self time is the time its spans cover minus the time their child spans
cover, so the layers' self times plus the op's own (unattributed) self
time add up to the op's duration by construction.  What can go wrong is
the nesting itself, which :func:`accounting_failures` checks.

The program's own ``repro.obs`` tracing stays off: turning it on would
add the program's internal spans and its traced code paths to what is
measured.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, one timeline for
every process on the machine, so spans the server process records nest
inside the client's request spans by their timestamps alone.
"""

from __future__ import annotations

import bisect
import cProfile
import importlib
import json
import pstats
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: The wrapped entry points: (module, attribute, layer).  ``Simulator.run``
#: is recorded under ``attribution`` instead when cycle accounting is on.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.spec2000", "get_trace", "workloads"),
    ("repro.core.procedure", "BuildRBFModel.sample_points", "sampling"),
    ("repro.core.procedure", "BuildRBFModel.build", "core"),
    ("repro.core.crossval", "loo_rbf_error", "core"),
    ("repro.simulator.simulator", "Simulator.run", "simulator"),
    ("repro.simulator.attribution", "Attribution.stack", "attribution"),
    ("repro.simulator.attribution", "Attribution.intervals", "attribution"),
    ("repro.experiments.runner", "SimulationRunner.__init__", "runner"),
    ("repro.experiments.runner", "SimulationRunner.cpi", "runner"),
    ("repro.models.rbf", "search_rbf_model", "models"),
    ("repro.models.rbf", "RBFNetwork.calibrate", "models"),  # overrides Model.calibrate
    ("repro.models.base", "Model.predict_with_provenance", "models"),
    ("repro.models.registry", "ModelRegistry.register", "registry"),
    ("repro.models.registry", "ModelRegistry.load", "registry"),
    ("repro.obs.manifest", "build_manifest", "obs"),
    ("repro.obs.manifest", "write_manifest", "obs"),
    ("repro.obs.history.ledger", "append_run", "obs"),
    ("repro.obs.live.access", "AccessLog.log", "obs"),
    ("repro.serve.app", "ServingApp.handle", "serve"),
)

#: Simulator source files folded into each sub-module group of the
#: profiled pass.
MODULE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "core": ("ooo_core.py",),
    "mem": ("hierarchy.py", "cache.py", "tlb.py", "prefetch.py", "batchmem.py"),
    "dram": ("memctrl.py", "dram.py"),
    "branch": ("branch.py",),
    "fu": ("resources.py",),
}


class Recorder:
    """In-memory spans of one process; ``op`` tags every span opened."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def begin(self, name: str, layer: str, **attrs: Any) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "layer": layer, "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(), "end": None, **attrs,
        })
        self._stack.append(index)
        return index

    def end(self, index: int, **attrs: Any) -> None:
        span = self.spans[index]
        span["end"] = clock()
        span.update(attrs)
        self._stack.pop()

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _plain(recorder: Recorder, name: str, layer: str, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        index = recorder.begin(name, layer)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.end(index)
    return wrapper


def _simulator_run(recorder: Recorder, name: str, layer: str, func: Callable) -> Callable:
    def wrapper(self, trace, *args, **kwargs):
        attributed = kwargs.get("collect_attribution", len(args) > 1 and args[1])
        index = recorder.begin(name, "attribution" if attributed else layer,
                               bench=trace.name, instructions=len(trace))
        try:
            return func(self, trace, *args, **kwargs)
        finally:
            recorder.end(index)
    return wrapper


def _runner_cpi(recorder: Recorder, name: str, layer: str, func: Callable) -> Callable:
    def wrapper(self, points):
        hits = self.cache_hits
        index = recorder.begin(name, layer, lookups=len(points))
        try:
            return func(self, points)
        finally:
            recorder.end(index, hits=self.cache_hits - hits)
    return wrapper


def _serving_handle(recorder: Recorder, name: str, layer: str, func: Callable) -> Callable:
    def wrapper(self, method, path, body=None):
        index = recorder.begin(name, layer, path=path)
        status, payload = 500, {}
        try:
            status, payload = func(self, method, path, body)
            return status, payload
        finally:
            recorder.end(index, status=status, points=payload.get("count", 0))
    return wrapper


_WRAPPERS = {
    "Simulator.run": _simulator_run,
    "SimulationRunner.cpi": _runner_cpi,
    "ServingApp.handle": _serving_handle,
}


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every entry point for the ``with`` body, then restore them.

    A class attribute is replaced on the class that defines it; a module
    function is replaced in every loaded ``repro`` module holding it, so
    ``from x import f`` copies are wrapped as well.
    """
    patches: List[Tuple[Any, str, Any]] = []
    for module_name, path, layer in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        make = _WRAPPERS.get(path, _plain)
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, make(recorder, path, layer, original))
            continue
        original = getattr(module, attr)
        wrapped = make(recorder, path, layer, original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(loaded, attr, None) is original:
                patches.append((loaded, attr, original))
                setattr(loaded, attr, wrapped)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def graft(spans: List[Dict[str, Any]], foreign: Iterable[Dict[str, Any]]) -> None:
    """Append another process's spans, nesting each root in the span that
    contains it in time (its request span).  A root no request contains
    stays a root with no op, marked ``loose`` (server start-up, warm-up
    and health checks, which happen outside every op)."""
    requests = sorted((s["start"], i) for i, s in enumerate(spans)
                      if s["name"] == "request")
    starts = [start for start, _ in requests]
    offset = len(spans)
    for span in foreign:
        span = dict(span)
        if span["parent"] is not None:
            span["parent"] += offset
            span["op"] = spans[span["parent"]]["op"]
        else:
            span["op"], span["loose"] = None, True
            at = bisect.bisect_right(starts, span["start"]) - 1
            if at >= 0 and span["end"] <= spans[requests[at][1]]["end"]:
                span["parent"] = requests[at][1]
                span["op"], span["loose"] = spans[span["parent"]]["op"], False
        spans.append(span)


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def breakdown(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per op id: its root span, its spans, and the layers' self times.

    An op's root is the span of layer ``op``; its self time is the op's
    unattributed time.  ``None`` collects the spans outside every op (the
    set-up phase).
    """
    selfs = self_times(spans)
    ops: Dict[Any, Dict[str, Any]] = defaultdict(
        lambda: {"root": None, "spans": [], "layers": defaultdict(float)})
    for index, (span, own) in enumerate(zip(spans, selfs)):
        entry = ops[span["op"]]
        span = dict(span, self=own, index=index)
        if span["layer"] == "op":
            entry["root"] = span
        else:
            entry["spans"].append(span)
            entry["layers"][span["layer"]] += own
    return ops


def accounting_failures(spans: Sequence[Dict[str, Any]]) -> Dict[str, List[str]]:
    """What breaks the layer accounting, by op id.

    Every span is closed and no span's children cover more than it does
    (no negative self time); every request span holds exactly one
    ``ServingApp.handle`` span of the server; and no server span that
    failed to nest in a request falls inside an op, where its time would
    be lost from that op's layers.
    """
    failures: Dict[str, List[str]] = defaultdict(list)
    if any(s["end"] is None for s in spans):
        failures[None].append("a span was never closed")
        return failures
    handles: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span["name"] == "ServingApp.handle" and span["parent"] is not None:
            handles[span["parent"]] += 1
    windows = [(s["start"], s["end"], s["op"]) for s in spans if s["layer"] == "op"]
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        if own < -1e-9:
            failures[span["op"]].append(f"{span['name']} has self time {own:.3g} s")
        if span["name"] == "request" and handles[index] != 1:
            failures[span["op"]].append(
                f"a {span['kind']} request holds {handles[index]} handle spans")
        if span.get("loose"):
            for start, end, op in windows:
                if span["start"] < end and span["end"] > start:
                    failures[op].append(f"server span {span['name']} nests in no request")
    return failures


def _sum(spans: Iterable[Dict[str, Any]], key: str) -> float:
    return float(sum(s[key] for s in spans))


def op_metrics(entry: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced op."""
    spans = entry["spans"]

    def named(*names: str) -> List[Dict[str, Any]]:
        return [s for s in spans if s["name"] in names]

    sims = [s for s in named("Simulator.run") if s["layer"] == "simulator"]
    attributed = [s for s in named("Simulator.run") if s["layer"] == "attribution"]
    busy = _sum(sims, "self")
    instructions = _sum(sims, "instructions")
    cpi = named("SimulationRunner.cpi")
    lookups = _sum(cpi, "lookups")
    traces = named("get_trace")
    samples = named("BuildRBFModel.sample_points")
    fits = named("search_rbf_model")
    return {
        "workloads.calls": float(len(traces)),
        "workloads.busy_s": _sum(traces, "self"),
        "sampling.calls": float(len(samples)),
        "sampling.busy_s": _sum(samples, "self"),
        "simulator.calls": float(len(sims)),
        "simulator.instructions": instructions,
        "simulator.busy_s": busy,
        "simulator.kips": instructions / busy / 1000.0 if busy else 0.0,
        "simulator.mcf_busy_s": _sum((s for s in sims if s["bench"] == "mcf"), "self"),
        "simulator.crafty_busy_s": _sum((s for s in sims if s["bench"] == "crafty"), "self"),
        "attribution.calls": float(len(attributed)),
        "attribution.busy_s": _sum(attributed, "self"),
        "attribution.fold_s": _sum(named("Attribution.stack", "Attribution.intervals"), "self"),
        "runner.open_s": _sum(named("SimulationRunner.__init__"), "self"),
        "runner.lookups": lookups,
        "runner.hit_ratio": _sum(cpi, "hits") / lookups if lookups else 0.0,
        "runner.self_s": _sum(cpi, "self"),
        "models.fit_calls": float(len(fits)),
        "models.fit_s": _sum(fits, "self"),
        "models.calibrate_s": _sum(named("RBFNetwork.calibrate"), "self"),
        "core.build_self_s": _sum(named("BuildRBFModel.build"), "self"),
        "core.crossval_s": _sum(named("loo_rbf_error"), "self"),
        "registry.register_s": _sum(named("ModelRegistry.register"), "self"),
        "obs.record_s": _sum(named("build_manifest", "write_manifest", "append_run"), "self"),
        "trace.unattributed_s": entry["root"]["self"],
    }


#: The names :func:`op_metrics` returns.
OP_METRICS = tuple(op_metrics({"spans": [], "root": {"self": 0.0}}))


def request_metrics(entries: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Serving metrics: medians over every traced request, in ms.

    Transport is the client's round trip minus the server's ``handle``
    span nested in it.
    """
    by_class: Dict[str, Dict[str, List[float]]] = {
        "single": defaultdict(list), "batch": defaultdict(list)}
    access: List[float] = []
    for entry in entries:
        spans = entry["spans"]
        children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for span in spans:
            children[span["parent"]].append(span)
        for span in spans:
            if span["name"] == "AccessLog.log":
                access.append(span["end"] - span["start"])
        for request in (s for s in spans if s["name"] == "request"):
            index = request["index"]
            handle = [s for s in children[index] if s["name"] == "ServingApp.handle"]
            if len(handle) != 1:
                continue
            handle = handle[0]
            kind = by_class[request["kind"]]
            kind["handle"].append(handle["end"] - handle["start"])
            kind["transport"].append(request["self"])
            kind["predict"].extend(
                s["end"] - s["start"] for s in children[handle["index"]]
                if s["name"] == "Model.predict_with_provenance")

    def ms(values: List[float]) -> float:
        return statistics.median(values) * 1000.0 if values else 0.0

    return {
        "obs.access_log_ms": ms(access),
        "serve.handle_single_ms": ms(by_class["single"]["handle"]),
        "serve.handle_batch_ms": ms(by_class["batch"]["handle"]),
        "serve.predict_batch_ms": ms(by_class["batch"]["predict"]),
        "serve.transport_single_ms": ms(by_class["single"]["transport"]),
        "serve.transport_batch_ms": ms(by_class["batch"]["transport"]),
    }


def setup_metrics(entry: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Layer metrics of the set-up phase (spans outside every op)."""
    spans = entry["spans"] if entry else []
    return {
        "workloads.setup_busy_s": _sum((s for s in spans if s["name"] == "get_trace"), "self"),
        "registry.load_s": _sum((s for s in spans if s["name"] == "ModelRegistry.load"), "self"),
    }


def profile_pass(runs: Sequence[Callable[[], Any]]) -> Dict[str, float]:
    """Run each simulation under ``cProfile`` and fold by module group.

    Shares are of profiled time, not wall time: the profiler charges a
    cost to every Python call, which inflates call-heavy modules.  Time in
    C builtins is charged to the module that called them.  Call counts are
    exact: calls into the functions each group's files define.
    """
    tottime: Dict[Optional[str], float] = defaultdict(float)
    calls: Dict[Optional[str], int] = defaultdict(int)
    if runs:
        profile = cProfile.Profile()
        for run in runs:
            profile.runcall(run)
        _fold(pstats.Stats(profile).stats, tottime, calls)
    total = sum(tottime.values())
    metrics: Dict[str, float] = {}
    for name in MODULE_GROUPS:
        if name != "core":
            metrics[f"simulator.{name}_calls"] = float(calls[name])
        metrics[f"simulator.{name}_share"] = tottime[name] / total if total else 0.0
    return metrics


def _fold(stats: Dict[Tuple[str, int, str], Any], tottime: Dict[Optional[str], float],
          calls: Dict[Optional[str], int]) -> None:
    """Sum profiled time and calls by module group; C builtins count for
    the module that called them."""
    group_of = {f: g for g, files in MODULE_GROUPS.items() for f in files}

    def group(key: Tuple[str, int, str]) -> Optional[str]:
        path = Path(key[0])
        return group_of.get(path.name) if path.parent.name == "simulator" else None

    for key, (_, ncalls, tt, _, callers) in stats.items():
        if key[0] == "~":
            for caller, caller_stats in callers.items():
                tottime[group(caller)] += caller_stats[2]
            continue
        tottime[group(key)] += tt
        calls[group(key)] += ncalls
