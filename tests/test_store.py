"""Tests for the persistence seam, :mod:`repro.util.store`.

Covers what the store promises its writers (the simulation cache, the
run ledger, the model registry index, the run manifest) and the trace
sink: a file that fails to read is never replaced, corrupt content is
quarantined with its bytes intact, a writer killed at any point keeps
every record it acknowledged, no other module re-implements the
locking, atomic replace or result-root resolution, and run records are
written only through :func:`repro.obs.history.record_run`.
"""

import ast
import errno
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.cli import main as cli_main
from repro.core.design_space import paper_design_space
from repro.experiments.runner import SimulationRunner
from repro.models.rbf import build_rbf_from_tree
from repro.models.registry import ModelRegistry
from repro.obs import history
from repro.obs.sinks import StreamingTraceSink
from repro.obs.tracing import SpanNode
from repro.util import store

TRACE_LENGTH = 1000


def point(l2_lat=12):
    return {
        "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
        "l2_size_kb": 1024, "l2_lat": l2_lat, "il1_size_kb": 32,
        "dl1_size_kb": 32, "dl1_lat": 2,
    }


def cpi_at(runner, *latencies):
    space = paper_design_space()
    return runner.cpi(np.vstack([space.as_array(point(lat))
                                 for lat in latencies]))


def make_runner(cache_dir):
    return SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                            cache_dir=cache_dir)


def fail_reads_of(monkeypatch, target):
    """Make every read-mode open of ``target`` raise ``EIO``."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        if self == target and "r" in mode:
            raise OSError(errno.EIO, "injected read error", str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


# -- a file that fails to read is never replaced ------------------------------


class TestCacheReadFailures:
    @pytest.fixture
    def seeded(self, tmp_path):
        runner = make_runner(tmp_path)
        cpi_at(runner, 12, 18, 24)
        return runner._cache_path, runner._cache_path.read_bytes()

    def test_read_error_at_construction_raises(self, tmp_path, seeded,
                                               monkeypatch):
        path, before = seeded
        fail_reads_of(monkeypatch, path)
        with pytest.raises(OSError, match="injected read error"):
            make_runner(tmp_path)
        monkeypatch.undo()
        assert path.read_bytes() == before

    def test_read_error_at_flush_raises(self, tmp_path, seeded, monkeypatch):
        path, before = seeded
        runner = make_runner(tmp_path)
        runner.result_at(point(30))  # one unflushed entry
        fail_reads_of(monkeypatch, path)
        with pytest.raises(OSError, match="injected read error"):
            runner._flush()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert len(make_runner(tmp_path)._cache) == 3

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2, 3]"])
    def test_corrupt_json_is_quarantined_and_reported(self, tmp_path,
                                                      content):
        path = make_runner(tmp_path)._cache_path
        path.write_bytes(content)
        runner = make_runner(tmp_path)
        assert runner._cache == {}
        failure = obs.recent_failures()[-1]
        assert failure["stage"] == "store/read"
        assert failure["path"] == str(path)
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_bytes() == content
        cpi_at(runner, 12)
        assert len(store.load_json(path)) == 1

    def test_non_utf8_cache_is_quarantined_and_the_build_proceeds(
            self, tmp_path, monkeypatch):
        cache, results = tmp_path / "cache", tmp_path / "results"
        path = make_runner(cache)._cache_path
        garbage = b"\xff\xfe\x00\x80 not text"
        path.write_bytes(garbage)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code = cli_main(["build", "--benchmark", "mcf", "--sample-size", "10",
                         "--test-points", "4", "--trace-length",
                         str(TRACE_LENGTH), "--no-register"])
        assert code == 0
        assert path.with_name(path.name + ".corrupt").read_bytes() == garbage
        assert len(store.load_json(path)) == 14
        assert obs.recent_failures()[-1]["error"] == "UnicodeDecodeError"


# -- killed writers keep every acknowledged record ----------------------------


def _kill_in_temp_write():
    real = Path.write_text

    def write_text(self, data, *args, **kwargs):
        if not self.name.endswith(".tmp"):
            return real(self, data, *args, **kwargs)
        with open(self, "w", encoding="utf-8") as fh:
            fh.write(data[: len(data) // 2])
        os.kill(os.getpid(), signal.SIGKILL)

    Path.write_text = write_text


def _kill_before_replace():
    def replace(src, dst):
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = replace


def _kill_mid_line():
    def write_line(self, event):
        self._fh.write('{"type": "span", "name": "torn')
        self._fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    StreamingTraceSink._write_line = write_line


KILLS = {
    "temp-write": _kill_in_temp_write,
    "before-replace": _kill_before_replace,
    "mid-line": _kill_mid_line,
}


class CacheWriter:
    """Each write simulates one new point and flushes the cache."""

    def __init__(self, root):
        self.root = root

    def write(self, i):
        cpi_at(make_runner(self.root), 12 + 2 * i)
        return 12 + 2 * i

    def check(self, acked):
        path = make_runner(self.root)._cache_path
        assert isinstance(store.load_json(path), dict)
        runner = make_runner(self.root)
        cpi_at(runner, *acked)
        assert runner.simulations_run == 0
        assert not list(self.root.glob("*.corrupt"))


class LedgerWriter:
    def __init__(self, root):
        self.path = root / "history" / "runs.jsonl"

    def write(self, i):
        history.append_run({"command": "build", "i": i}, self.path)
        return i

    def check(self, acked):
        runs, skipped = history.load_runs(self.path)
        assert skipped == 0
        assert [run["i"] for run in runs] == acked


class RegistryWriter:
    def __init__(self, root):
        self.registry = ModelRegistry(root / "models")
        x = np.random.default_rng(3).random((40, 3))
        self.model, _ = build_rbf_from_tree(x, x.sum(axis=1), p_min=2,
                                            alpha=4.0)

    def write(self, i):
        entry = self.registry.register(self.model, benchmark="mcf",
                                       sample_size=40, now=f"t{i}")
        return entry.version

    def check(self, acked):
        _, skipped = store.read_jsonl(self.registry.index_path)
        assert skipped == 0
        assert [e.version for e in self.registry.entries()] == acked


class TraceWriter:
    """Each write streams one root span; the next run writes a new trace."""

    def __init__(self, root):
        self.path = root / "trace.jsonl"
        self.sink = None

    def write(self, i):
        if self.sink is None:
            self.sink = StreamingTraceSink(self.path, header={"command": "t"})
        self.sink.emit(SpanNode(f"request-{i}", start=float(i), end=i + 0.5))
        return f"request-{i}"

    def check(self, acked):
        trace = obs.read_trace(self.path, strict=False)
        assert [root.name for root in trace.roots] == acked
        assert trace.skipped_lines == 1  # the torn line


class ManifestWriter:
    """Each write replaces the run manifest."""

    def __init__(self, root):
        self.path = root / "results" / "manifest.json"

    def write(self, i):
        obs.write_manifest(self.path, {"command": "build", "i": i})
        return i

    def check(self, acked):
        assert obs.read_manifest(self.path)["i"] == acked[-1]


WRITERS = {"cache": CacheWriter, "ledger": LedgerWriter,
           "registry": RegistryWriter, "trace": TraceWriter,
           "manifest": ManifestWriter}


def _acked_writes_then_killed(writer, kill, count, conn):
    for i in range(count):
        conn.send(writer.write(i))
    KILLS[kill]()
    writer.write(count)
    conn.send("survived")


@pytest.mark.parametrize("kind,kill", [
    (kind, kill) for kind in ("cache", "ledger", "registry", "manifest")
    for kill in ("temp-write", "before-replace")
] + [("trace", "mid-line")])
def test_killed_writer_keeps_acknowledged_records(tmp_path, kind, kill):
    writer = WRITERS[kind](tmp_path)
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_acked_writes_then_killed,
                        args=(writer, kill, 2, sender))
    child.start()
    child.join(timeout=120)
    assert not child.is_alive()
    assert child.exitcode == -signal.SIGKILL
    acked = []
    while receiver.poll():
        acked.append(receiver.recv())
    assert len(acked) == 2 and "survived" not in acked
    writer.check(acked)
    # A fresh process (this one) writes next, and nothing is lost.
    if kind == "trace":  # the next run writes its own trace
        with obs.collecting() as collector:
            with obs.span("next-run"):
                pass
        path = obs.write_trace(collector, writer.path)
        assert [root.name for root in obs.read_trace(path).roots] \
            == ["next-run"]
    else:
        fresh = WRITERS[kind](tmp_path)
        acked.append(fresh.write(2))
        fresh.check(acked)


# -- one implementation per mechanism -----------------------------------------

SRC = Path(repro.__file__).resolve().parent
STORE = SRC / "util" / "store.py"
ENV_NAMES = {"REPRO_RESULTS_DIR", "REPRO_CACHE_DIR"}


def seam_breaches(tree):
    """``(line, what)`` for each persistence primitive used in ``tree``.

    The environment variable names count wherever they appear as a string
    constant, so a module cannot read them through an alias either.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "fcntl":
                    yield node.lineno, "import fcntl"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module == "fcntl"
                        or (node.module, alias.name) in {("os", "replace"),
                                                         ("tempfile", "mkstemp")}):
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in {("os", "replace"),
                                                 ("tempfile", "mkstemp")}):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Constant) and node.value in ENV_NAMES:
            yield node.lineno, f"${node.value}"


def test_guard_flags_every_primitive():
    tree = ast.parse(
        "import fcntl\n"
        "from os import replace\n"
        "import os, tempfile\n"
        "os.replace(a, b)\n"
        "tempfile.mkstemp()\n"
        "ROOT = os.environ.get('REPRO_RESULTS_DIR', 'results')\n"
        "_ENV = 'REPRO_CACHE_DIR'\n"
    )
    assert sorted(line for line, _ in seam_breaches(tree)) == [1, 2, 4, 5, 6, 7]
    assert not list(seam_breaches(ast.parse("'$REPRO_CACHE_DIR or .cache'")))


def test_persistence_primitives_live_only_in_the_store():
    breaches = [
        f"{path.relative_to(SRC.parent)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py")) if path != STORE
        for line, what in seam_breaches(ast.parse(path.read_text("utf-8")))
    ]
    assert breaches == []
    assert list(seam_breaches(ast.parse(STORE.read_text("utf-8"))))


LEDGER = SRC / "obs" / "history" / "ledger.py"
RECORD_WRITERS = {"append_run", "write_manifest"}


def record_writes(tree):
    """``(line, name)`` for each call to a run-record writer in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in RECORD_WRITERS:
                yield node.lineno, name


def test_record_guard_flags_every_writer_call():
    tree = ast.parse(
        "obs.write_manifest(path, manifest)\n"
        "history.append_run(record)\n"
        "append_run(record)\n"
        "from repro.obs import write_manifest\n"
    )
    assert sorted(line for line, _ in record_writes(tree)) == [1, 2, 3]


def test_run_records_are_written_only_by_the_ledger():
    breaches = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}()"
        for path in sorted(SRC.rglob("*.py")) if path != LEDGER
        for line, name in record_writes(ast.parse(path.read_text("utf-8")))
    ]
    assert breaches == []
    assert sorted(name for _, name in record_writes(
        ast.parse(LEDGER.read_text("utf-8")))) == sorted(RECORD_WRITERS)
