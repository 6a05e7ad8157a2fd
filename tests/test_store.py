"""Tests for the persistence seam, :mod:`repro.util.store`.

Covers what the store promises its writers (the simulation cache, the
run ledger, the model registry index, the run manifest, every whole file
the program leaves behind) and the trace sink: a file that fails to read
is never replaced, corrupt content is quarantined with its bytes intact,
a writer killed at any point keeps every record it acknowledged, and a
failed rewrite keeps the previous file and leaves no temp file.  That no
other module re-implements the locking, atomic replace or result-root
resolution, that run records are written only through
:func:`repro.obs.history.record_run`, and that whole files are written
only through :func:`repro.util.store.write_atomic`, are the seam-table
lint rules OBS005, OBS006 and OBS008, enforced on the tree by
``tests/test_lint_clean.py``.
"""

import errno
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.design_space import paper_design_space
from repro.experiments.report import emit
from repro.experiments.runner import SimulationRunner
from repro.experiments.summary import write_summary
from repro.models import registry
from repro.models.io import save_model
from repro.models.rbf import build_rbf_from_tree
from repro.models.registry import ModelRegistry
from repro.obs import history, modelcard, prof
from repro.obs.sinks import StreamingTraceSink
from repro.obs.tracing import SpanNode
from repro.simulator.attribution import write_intervals_jsonl
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
        fail_reads_of(monkeypatch, path)
        with pytest.raises(OSError, match="injected read error"):
            runner.result_at(point(30))  # its flush re-reads the file
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


# -- a failed whole-file write keeps the previous file ------------------------


def _artifact(root, version):
    x = np.random.default_rng(3).random((40, 3))
    model, _ = build_rbf_from_tree(x, x.sum(axis=1), p_min=2, alpha=4.0)
    return save_model(model, root / "model.json", metadata={"v": version})


def _summary(root, version):
    (root / "ablation_v.txt").write_text(f"ablation {version}\n")
    return write_summary(root)


def _html_report(root, version):
    history.append_run({"command": "build", "v": version},
                       history.default_history_path())
    assert cli_main(["report", "--html", str(root / "report.html")]) == 0
    return root / "report.html"


def _intervals(root, version):
    path = root / "stacks-mcf.jsonl"
    write_intervals_jsonl(path, [], benchmark="mcf", v=version)
    return path


#: Every caller of ``store.write_atomic`` that replaces a whole file:
#: ``write(root, version)`` writes the file for ``version`` under
#: ``root`` (also the results root) and returns its path.
WHOLE_FILE_WRITERS = {
    "manifest": lambda root, v: obs.write_manifest(root / "manifest.json",
                                                   {"v": v}),
    "card": lambda root, v: modelcard.write_card({"v": v},
                                                 root / "card.json"),
    "artifact": _artifact,
    "probe-baseline": lambda root, v: registry.write_baseline(
        {"v": v}, root / "probe.json"),
    "bench-results": lambda root, v: prof.write_results(
        {"run": "r", "v": v}, root),
    "bench-baseline": lambda root, v: prof.write_baseline(
        {"v": v}, root / "baseline.json"),
    "exhibit": lambda root, v: emit("exhibit", f"exhibit {v}"),
    "summary": _summary,
    "html-report": _html_report,
    "intervals": _intervals,
}


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt(),
], ids=["disk-full", "interrupt"])
@pytest.mark.parametrize("kind", sorted(WHOLE_FILE_WRITERS))
def test_failed_rewrite_keeps_the_previous_file(tmp_path, monkeypatch, kind,
                                                error):
    # The rewrite writes half its text, then fails: the file on disk is
    # still the previous one, and no temp file is left beside it.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    write = WHOLE_FILE_WRITERS[kind]
    path = write(tmp_path, 0)
    before = path.read_bytes()
    write_text = Path.write_text

    def half_then_fail(target, text, *args, **kwargs):
        if not target.name.startswith(path.name):
            return write_text(target, text, *args, **kwargs)
        write_text(target, text[:len(text) // 2], *args, **kwargs)
        raise error

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(type(error)):
            write(tmp_path, 1)
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
    assert write(tmp_path, 1).read_bytes() != before
