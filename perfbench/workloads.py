"""The benchmark's four workloads.

Each workload makes its inputs from the seed, sets up under fresh
temporary roots, runs ops and checks every op's outputs.  The program is
driven only through its public entry points: ``repro.cli.main`` (whose
``build`` runs ``BuildRBFModel`` over a ``SimulationRunner``),
``Simulator.run``, ``Attribution``, ``ModelRegistry`` and ``repro serve``
over a loopback socket.

Interface: ``setup(root, traced)``; ``op(index, recorder)`` is the timed
part and returns what ``check(out)`` verifies, as a list of failures;
``finish()`` runs the closing checks, as ``(name, failures)`` pairs;
``teardown()`` stops what setup started.  ``BETA`` is the workload's
sensitivity to the host's speed state (see :mod:`speed`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import selectors
import signal
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cli import main as cli_main
from repro.core.design_space import paper_design_space
from repro.experiments import stacks_cpi_breakdown as stacks
from repro.models.registry import ModelRegistry
from repro.simulator.config import ProcessorConfig
from repro.simulator.simulator import Simulator
from repro.workloads import spec2000

import tracing

HERE = Path(__file__).resolve().parent

#: Seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: The memoised trace synthesiser itself; calls that should be traced go
#: through ``spec2000.get_trace``, which the traced run wraps.
synthesise = spec2000.get_trace


def pins() -> Dict[str, Any]:
    return json.loads((HERE / "pins.json").read_text())


def digest(value: Any) -> str:
    """Short hash of a JSON-able value (floats by their exact repr)."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def use_roots(cache: Path, results: Path) -> None:
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    os.environ["REPRO_RESULTS_DIR"] = str(results)


def repro(*args: Any) -> int:
    """One ``repro`` command, in-process, with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([str(a) for a in args])


def build_outcome(results: Path) -> Dict[str, Any]:
    """What one ``repro build`` recorded in its manifest and registry."""
    manifest = json.loads((results / "manifest.json").read_text())
    counters = manifest["metrics"]["counters"]
    sha = manifest.get("model_sha")
    registered = [e.sha for e in ModelRegistry(results / "models").entries()]
    return {
        "simulations": int(counters.get("simulations_run", 0)),
        "hits": int(counters.get("cache_hits", 0)),
        "sha": sha if sha in registered else None,
        "error_pct": manifest["mean_error_pct"],
    }


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    BETA = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = pins()[self.name] if seed == DEFAULT_SEED else None
        self.errors_pct: List[float] = []
        self.observed: Dict[str, Any] = {}

    def finish(self) -> List[Tuple[str, List[str]]]:
        return []

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def profile_runs(self) -> List[Callable[[], Any]]:
        return []

    def server_spans(self) -> List[Dict[str, Any]]:
        return []

    def extras(self) -> Dict[str, Tuple[float, str]]:
        if not self.errors_pct:
            return {}
        return {"model_error_pct": (float(np.mean(self.errors_pct)), "%")}

    def pinned(self, key: str, value: Any) -> List[str]:
        """Record ``value``; under the default seed, compare it to its pin."""
        self.observed[key] = value
        if self.expected is None or self.expected.get(key) == value:
            return []
        return [f"{key} is {value}, pinned {self.expected.get(key)}"]


class BuildCold(Workload):
    """Complete cold ``repro build`` runs of two contrasting profiles."""

    name = "build_cold"
    BETA = 0.95
    PROFILES = ("mcf", "crafty")
    SAMPLE_SIZE = 16
    TEST_POINTS = 8

    def setup(self, root: Path, traced: bool = False) -> None:
        self.root = root

    def op(self, index: int, recorder: Optional[tracing.Recorder]) -> Dict[str, Any]:
        codes = {}
        for bench in self.PROFILES:
            base = self.root / f"op{index}" / bench
            use_roots(base / "cache", base / "results")
            synthesise.cache_clear()  # pay trace synthesis, as a fresh process does
            codes[bench] = repro("build", bench,
                                 "--sample-size", self.SAMPLE_SIZE,
                                 "--test-points", self.TEST_POINTS,
                                 "--seed", self.seed)
        return {"root": self.root / f"op{index}", "codes": codes}

    def check(self, out: Dict[str, Any]) -> List[str]:
        failures = []
        for bench, code in out["codes"].items():
            base = out["root"] / bench
            outcome = build_outcome(base / "results")
            expected = self.SAMPLE_SIZE + self.TEST_POINTS
            if code != 0 or outcome["sha"] is None:
                failures.append(f"{bench}: exit {code}, model registered: {outcome['sha']}")
            if outcome["simulations"] != expected or outcome["hits"] != 0:
                failures.append(f"{bench}: {outcome['simulations']} simulations and "
                                f"{outcome['hits']} cache hits, expected {expected} and 0")
            (cache_file,) = (base / "cache").glob(f"{bench}-*.json")
            table = json.loads(cache_file.read_text())
            cpis = {key: table[key]["cpi"] for key in sorted(table)}
            failures += self.pinned(f"{bench}.model_sha", outcome["sha"])
            failures += self.pinned(f"{bench}.cpi_hash", digest(cpis))
            self.errors_pct.append(outcome["error_pct"])
        return failures

    def profile_runs(self) -> List[Callable[[], Any]]:
        config = ProcessorConfig.from_design_point(
            paper_design_space().resolve(dict(stacks.DESIGN_POINTS["balanced"])))
        runs = []
        for bench in self.PROFILES:
            trace = synthesise(bench, spec2000.DEFAULT_TRACE_LENGTH, 0).prepare()
            runs.append(lambda trace=trace: Simulator(config).run(trace))
        return runs


class RefitWarm(Workload):
    """A ``repro build`` sweep over the paper's sample sizes, all cache hits."""

    name = "refit_warm"
    BETA = 0.9
    BENCH = "mcf"
    SIZES = (30, 50, 70, 90, 110)
    TEST_POINTS = 20
    TRACE_LENGTH = 1024

    def setup(self, root: Path, traced: bool = False) -> None:
        """Warm a simulation cache by running the sweep once, unregistered."""
        self.root, self.cache = root, root / "cache"
        synthesise.cache_clear()
        if any(self._build(size, root / "warm", "--no-register") for size in self.SIZES):
            raise RuntimeError("a cache-warming build failed")

    def _build(self, size: int, results: Path, *flags: str) -> int:
        use_roots(self.cache, results)
        return repro("build", self.BENCH, "--sample-size", size,
                     "--test-points", self.TEST_POINTS,
                     "--trace-length", self.TRACE_LENGTH, "--seed", self.seed, *flags)

    def op(self, index: int, recorder: Optional[tracing.Recorder]) -> Path:
        for size in self.SIZES:
            self._build(size, self.root / f"op{index}" / f"n{size}")
        return self.root / f"op{index}"

    def check(self, out: Path) -> List[str]:
        failures = []
        for size in self.SIZES:
            outcome = build_outcome(out / f"n{size}")
            if outcome["sha"] is None:
                failures.append(f"n={size}: no model registered")
            if outcome["simulations"] != 0 or outcome["hits"] != size + self.TEST_POINTS:
                failures.append(f"n={size}: {outcome['simulations']} simulations, "
                                f"{outcome['hits']} cache hits")
            failures += self.pinned(f"n{size}.model_sha", outcome["sha"])
            self.errors_pct.append(outcome["error_pct"])
        return failures


class StacksSweep(Workload):
    """The CPI-stacks exhibit's attributed simulations, plus interval folds."""

    name = "stacks_sweep"
    BETA = 0.8
    INTERVAL = 512

    def setup(self, root: Path, traced: bool = False) -> None:
        synthesise.cache_clear()
        for bench in spec2000.benchmark_names():
            spec2000.get_trace(bench, stacks.TRACE_LENGTH, self.seed).prepare()

    def op(self, index: int, recorder: Optional[tracing.Recorder]) -> List[Any]:
        """The calls of ``stacks_cpi_breakdown.run()`` on this seed's traces."""
        space = paper_design_space()
        out = []
        for bench in spec2000.benchmark_names():
            trace = spec2000.get_trace(bench, stacks.TRACE_LENGTH, self.seed)
            for label, point in stacks.DESIGN_POINTS.items():
                config = ProcessorConfig.from_design_point(space.resolve(dict(point)))
                sim = Simulator(config)
                sim.run(trace, collect_attribution=True)
                attribution = sim.last_core.attribution
                out.append((bench, label, attribution.stack(),
                            attribution.intervals(self.INTERVAL)))
        return out

    def check(self, out: List[Any]) -> List[str]:
        failures = [f"{bench}/{label}: components sum to {sum(stack.components.values())}, "
                    f"cycles {stack.cycles}"
                    for bench, label, stack, _ in out
                    if sum(stack.components.values()) != stack.cycles]
        record = [[bench, label, stack.as_dict(), stack.cycles, stack.instructions,
                   [interval.as_dict() for interval in intervals]]
                  for bench, label, stack, intervals in out]
        return failures + self.pinned("stack_hash", digest(record))

    def profile_runs(self) -> List[Callable[[], Any]]:
        space = paper_design_space()
        trace = synthesise(spec2000.benchmark_names()[0], stacks.TRACE_LENGTH,
                           self.seed).prepare()
        runs = []
        for point in stacks.DESIGN_POINTS.values():
            config = ProcessorConfig.from_design_point(space.resolve(dict(point)))
            runs.append(lambda config=config: Simulator(config).run(
                trace, collect_attribution=True))
        return runs


HOST = "127.0.0.1"


def http(port: int, data: bytes) -> Tuple[float, bytes]:
    """One request over a fresh connection: (round-trip seconds, response)."""
    start = tracing.clock()
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    return tracing.clock() - start, b"".join(chunks)


def parse(raw: bytes) -> Tuple[int, Any]:
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def post(path: str, payload: Any) -> bytes:
    body = json.dumps(payload).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


HEALTHZ = f"GET /healthz HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()


class Server:
    """A ``repro serve --port 0`` subprocess started through the launcher."""

    def __init__(self, root: Path, models: Path, name: str, traced: bool):
        self.out = root / f"{name}.json"
        self.stderr_path = root / f"{name}.err"
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONIOENCODING="utf-8",
                   REPRO_RESULTS_DIR=str(root / name))
        command = [sys.executable, str(HERE / "serve_launcher.py"), str(self.out),
                   "1" if traced else "0", "serve", "--host", HOST, "--port", "0",
                   "--registry", str(models),
                   "--access-log", str(root / f"{name}-access.jsonl")]
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                         stderr=stderr, env=env)
        try:
            self.port = self._await_port(timeout=60.0)
        except RuntimeError:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = tracing.clock() + timeout
        seen = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                found = re.search(rb"listening on http://[^:\s]+:(\d+)", seen)
                if found:
                    return int(found.group(1))
                remaining = deadline - tracing.clock()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("repro serve did not report its port")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("repro serve exited: "
                                       + self.stderr_path.read_text(errors="replace"))
                seen += chunk

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGINT (the operator's Ctrl-C), wait; the launcher's report, or
        None when the server had to be killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if not self.out.exists():
            sys.stderr.write(self.stderr_path.read_text(errors="replace")[-2000:])
            return None
        return json.loads(self.out.read_text())


class ServePredict(Workload):
    """A closed loop with one caller: /predict over fresh loopback connections."""

    name = "serve_predict"
    BETA = 0.9
    BENCH = "mcf"
    ROUND = 20  # requests per op: ROUND - 1 single points, then one batch
    BATCH_POINTS = 1000
    SINGLE_BODIES = 256
    BATCH_BODIES = 8
    WARMUP_ROUNDS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.servers: Dict[str, Server] = {}
        self.report: Dict[str, Any] = {}

    def setup(self, root: Path, traced: bool = False) -> None:
        self.single_ms: List[float] = []
        self.batch_ms: List[float] = []
        self.health: List[Tuple[str, List[str]]] = []
        use_roots(root / "cache", root / "results")
        if repro("build", self.BENCH, "--sample-size", 20, "--test-points", 8,
                 "--trace-length", 2048, "--seed", 42) != 0:
            raise RuntimeError("the registry seed build failed")
        models = root / "results" / "models"
        registry = ModelRegistry(models)
        model, _, _ = registry.load(registry.latest())
        rng = np.random.default_rng([self.seed, 2006])
        dim = model.dimension
        self.singles = [self._body(rng.uniform(-0.05, 1.05, (1, dim)), model)
                        for _ in range(self.SINGLE_BODIES)]
        self.batches = [self._body(rng.uniform(-0.05, 1.05, (self.BATCH_POINTS, dim)), model)
                        for _ in range(self.BATCH_BODIES)]
        for name in ("plain", "traced") if traced else ("plain",):
            self.servers[name] = Server(root, models, name, traced=name == "traced")
            for index in range(self.WARMUP_ROUNDS):
                self._round(self.servers[name], index, None)
            self.health.append((f"{name} server /healthz before", self._healthz(name)))

    @staticmethod
    def _body(points: np.ndarray, model: Any) -> Tuple[bytes, Dict[str, list]]:
        """A pre-encoded request and its in-process provenance, bitwise."""
        prov = model.predict_with_provenance(points)
        expected = {"values": [float(v) for v in prov.values],
                    "lower": [float(v) for v in prov.lower],
                    "upper": [float(v) for v in prov.upper],
                    "extrapolated": [bool(f) for f in prov.extrapolated]}
        listed = points.tolist()
        return post("/predict", {"points": listed[0] if len(listed) == 1 else listed,
                                 "provenance": True}), expected

    def _healthz(self, name: str) -> List[str]:
        status, payload = parse(http(self.servers[name].port, HEALTHZ)[1])
        models = payload.get("models") or []
        if status == 200 and payload.get("status") == "ok" and models \
                and all(m["verified"] for m in models):
            return []
        return [f"{name} server /healthz: {status} {payload}"]

    def _round(self, server: Server, index: int,
               recorder: Optional[tracing.Recorder]) -> List[Any]:
        replies = []
        for k in range(self.ROUND):
            batch = k == self.ROUND - 1
            if batch:
                data, expected = self.batches[index % self.BATCH_BODIES]
            else:
                data, expected = self.singles[(index * (self.ROUND - 1) + k)
                                              % self.SINGLE_BODIES]
            span = recorder.begin("request", "serve", kind="batch" if batch else "single") \
                if recorder else None
            latency, raw = http(server.port, data)
            if recorder:
                recorder.end(span)
            replies.append((batch, latency, raw, expected))
        return replies

    def op(self, index: int, recorder: Optional[tracing.Recorder]) -> List[Any]:
        server = self.servers["traced" if recorder else "plain"]
        return self._round(server, index, recorder)

    def check(self, out: List[Any]) -> List[str]:
        failures = []
        for batch, latency, raw, expected in out:
            (self.batch_ms if batch else self.single_ms).append(latency * 1000.0)
            status, payload = parse(raw)
            wrong = [key for key, value in expected.items() if payload.get(key) != value]
            if status != 200 or wrong:
                failures.append(f"/predict answered {status}, differing in {wrong}")
        return failures

    def finish(self) -> List[Tuple[str, List[str]]]:
        return self.health + [(f"{name} server /healthz after", self._healthz(name))
                              for name in self.servers]

    def teardown(self) -> None:
        if self.servers:
            servers, self.servers = self.servers, {}
            self.report = {name: server.stop() for name, server in servers.items()}
            lost = [name for name, report in self.report.items() if report is None]
            if lost:
                raise RuntimeError(f"repro serve ({', '.join(lost)}) did not stop on SIGINT")

    def peak_rss_mb(self) -> float:
        return self.report["plain"]["peak_rss_kb"] / 1024.0

    def server_spans(self) -> List[Dict[str, Any]]:
        return self.report.get("traced", {}).get("spans", [])

    def extras(self) -> Dict[str, Tuple[float, str]]:
        """Client-side latencies, in wall time; tails only with ten samples
        beyond them."""
        out = {"single_requests": (len(self.single_ms), "count"),
               "batch_requests": (len(self.batch_ms), "count")}
        waited_s = (sum(self.single_ms) + sum(self.batch_ms)) / 1000.0
        if waited_s:
            out["req_per_s"] = ((len(self.single_ms) + len(self.batch_ms)) / waited_s, "1/s")
        for name, values, q in (("single_p50_ms", self.single_ms, 50),
                                ("single_p99_ms", self.single_ms, 99),
                                ("batch_p50_ms", self.batch_ms, 50),
                                ("batch_p90_ms", self.batch_ms, 90)):
            if len(values) * (100 - q) >= 1000:
                out[name] = (float(np.percentile(values, q)), "ms")
        return out


WORKLOADS = {w.name: w for w in (BuildCold, RefitWarm, StacksSweep, ServePredict)}
