"""Tests for ``repro.obs``: spans, metrics, sinks, manifests, CLI wiring.

Covers the observability contracts: deterministic span timing under an
injected clock, JSONL round-trips, exact metrics merge across real
processes, worker-span funneling through the parallel runner, structured
stage-failure reporting, and — the load-bearing one — that tracing
changes *nothing* about the numbers (traced and untraced runs are
bitwise-identical).
"""

import hashlib
import json
import multiprocessing
import subprocess
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.procedure import BuildRBFModel
from repro.core.design_space import paper_design_space, paper_test_space
from repro.experiments.common import stage
from repro.experiments.runner import SimulationRunner
from repro.obs import history
from repro.obs import manifest as manifest_module
from repro.obs.sinks import StreamingTraceSink

TRACE_LENGTH = 2000


def point(**overrides):
    base = {
        "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
        "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
        "dl1_size_kb": 32, "dl1_lat": 2,
    }
    base.update(overrides)
    return base


class FakeClock:
    """Deterministic clock: each reading advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_nesting_and_deterministic_timing(self):
        with obs.collecting(clock=FakeClock()) as col:
            # clock: origin=0, outer.start=1, inner.start=2, inner.end=3,
            # outer.end=4 — every duration is exact, no tolerance needed.
            with obs.span("outer", k=1) as outer:
                with obs.span("inner"):
                    pass
                outer.set(done=True)
        assert [r.name for r in col.roots] == ["outer"]
        outer_node = col.roots[0]
        assert outer_node.attrs == {"k": 1, "done": True}
        assert outer_node.duration == 3.0
        assert outer_node.children[0].name == "inner"
        assert outer_node.children[0].duration == 1.0
        assert outer_node.self_time == 2.0

    def test_noop_when_disabled(self):
        assert not obs.enabled()
        with obs.span("anything", k=1) as sp:
            assert sp is obs.NOOP_SPAN
            sp.set(ignored=True)  # must not raise nor record
        obs.inc("nothing")
        obs.observe("nothing", 1.0)
        assert obs.current() is None

    def test_exception_closes_span_and_tags_error(self):
        with obs.collecting(clock=FakeClock()) as col:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        node = col.roots[0]
        assert node.end is not None
        assert node.attrs["error"] == "ValueError"

    def test_traced_decorator(self):
        @obs.traced("wrapped/fn")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3  # works untraced
        with obs.collecting(clock=FakeClock()) as col:
            assert add(3, 4) == 7
        assert col.roots[0].name == "wrapped/fn"

    def test_nested_collectors_unwind_correctly(self):
        with obs.collecting() as outer:
            with obs.collecting() as inner:
                with obs.span("inner-only"):
                    pass
            assert obs.current() is outer
        assert not obs.enabled()
        assert [r.name for r in inner.roots] == ["inner-only"]
        assert outer.roots == []


class TestMetrics:
    def test_histogram_summary(self):
        h = obs.Histogram()
        for v in (2.0, 4.0, 9.0):
            h.observe(v)
        assert h.as_dict() == {
            "count": 3, "sum": 15.0, "min": 2.0, "max": 9.0, "mean": 5.0,
            "p50": 4.0, "p90": 9.0, "p99": 9.0,
            "samples": [2.0, 4.0, 9.0],
        }

    def test_histogram_percentiles_exact_under_cap(self):
        h = obs.Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0

    def test_histogram_percentiles_survive_compaction(self):
        h = obs.Histogram()
        n = obs.Histogram.SAMPLE_CAP * 3
        for v in range(n):
            h.observe(float(v))
        assert len(h.samples) <= obs.Histogram.SAMPLE_CAP
        assert h.count == n  # exact fields untouched by compaction
        assert h.min == 0.0 and h.max == float(n - 1)
        # Rank-preserving approximation: within ~1% of the true quantile.
        assert h.percentile(50) == pytest.approx(n / 2, rel=0.02)
        assert h.percentile(99) == pytest.approx(0.99 * n, rel=0.02)

    def test_histogram_compaction_is_deterministic(self):
        def build():
            h = obs.Histogram()
            rng = np.random.default_rng(3)
            for v in rng.random(obs.Histogram.SAMPLE_CAP * 2 + 17):
                h.observe(float(v))
            return h

        assert build().samples == build().samples

    def test_merge_from_old_snapshot_without_samples(self):
        h = obs.Histogram()
        h.observe(1.0)
        h.merge({"count": 2, "sum": 7.0, "min": 3.0, "max": 4.0})
        assert h.count == 3 and h.total == 8.0
        assert h.percentile(50) == 1.0  # only local samples contribute

    def test_percentiles_merge_across_registries(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        for v in range(1, 51):
            a.observe("lat", float(v))
        for v in range(51, 101):
            b.observe("lat", float(v))
        a.merge(b.snapshot())
        merged = a.histogram("lat")
        assert merged.percentile(50) == 50.0
        assert merged.percentile(90) == 90.0

    def test_merge_semantics(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.inc("sims", 3)
        b.inc("sims", 4)
        a.set_gauge("depth", 1.0)
        b.set_gauge("depth", 2.0)
        a.observe("lat", 1.0)
        b.observe("lat", 5.0)
        a.merge(b.snapshot())
        assert a.counter("sims") == 7.0
        assert a.gauge("depth") == 2.0  # last writer wins
        merged = a.histogram("lat")
        assert (merged.count, merged.total, merged.min, merged.max) == (2, 6.0, 1.0, 5.0)

    def test_merge_is_exact_vs_concatenated_observations(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=40)
        whole = obs.MetricsRegistry()
        parts = [obs.MetricsRegistry() for _ in range(4)]
        for i, v in enumerate(values):
            whole.observe("x", v)
            parts[i % 4].observe("x", v)
        combined = obs.MetricsRegistry()
        for part in parts:
            combined.merge(part.snapshot())
        got, want = combined.histogram("x"), whole.histogram("x")
        assert (got.count, got.min, got.max) == (want.count, want.min, want.max)
        # Sums differ only by float association order across the partition.
        assert got.total == pytest.approx(want.total, rel=1e-12)


def _child_metrics(offset, queue):
    """Child-process worker: record some metrics and ship the snapshot."""
    reg = obs.MetricsRegistry()
    reg.inc("sims", 2 + offset)
    reg.observe("lat", float(offset))
    reg.observe("lat", float(offset + 10))
    queue.put(reg.snapshot())


class TestTwoProcessMetricsMerge:
    def test_snapshots_merge_exactly_across_processes(self):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_child_metrics, args=(off, queue))
                 for off in (0, 1)]
        for proc in procs:
            proc.start()
        snapshots = [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        parent = obs.MetricsRegistry()
        for snap in snapshots:
            parent.merge(snap)
        assert parent.counter("sims") == 5.0  # 2 + 3
        lat = parent.histogram("lat")
        assert (lat.count, lat.min, lat.max, lat.total) == (4, 0.0, 11.0, 22.0)


class TestSinks:
    def _sample_collector(self):
        collector = obs.Collector(clock=FakeClock())
        with obs.collecting(clock=FakeClock()) as collector:
            with obs.span("build", seed=42):
                with obs.span("fit"):
                    pass
            obs.inc("sims", 3)
            obs.observe("lat", 1.5)
            obs.record_failure("fit", ValueError("singular"), centers=4)
        return collector

    def test_jsonl_round_trip(self, tmp_path):
        collector = self._sample_collector()
        path = tmp_path / "trace.jsonl"
        obs.write_trace(collector, path, header={"command": "test"})
        trace = obs.read_trace(path)
        assert trace.header["command"] == "test"
        (root,) = trace.roots
        assert root.name == "build" and root.attrs == {"seed": 42}
        assert [c.name for c in root.children] == ["fit"]
        assert root.duration == pytest.approx(3.0)
        assert trace.metrics["counters"]["sims"] == 3.0
        assert trace.metrics["histograms"]["lat"]["count"] == 1
        (failure,) = [e for e in trace.events if e["type"] == "failure"]
        assert failure["stage"] == "fit" and failure["centers"] == 4

    def test_payload_holds_the_records_the_sink_writes(self, tmp_path):
        # Spans have one serialised form: a worker payload carries the
        # records a trace file holds (at origin 0.0), and adopting them
        # rebuilds trees that serialise to the same records.
        with obs.collecting(clock=FakeClock(0.25)) as worker:
            for name in ("simulate", "validate"):
                with obs.span(name, rob_size=64):
                    with obs.span(name + "/core"):
                        pass
        path = tmp_path / "trace.jsonl"
        with StreamingTraceSink(path) as sink:
            for root in worker.roots:
                sink.emit(root)
        written = [json.loads(line) for line in path.read_text().splitlines()]
        spans = worker.payload()["spans"]
        assert spans == [r for r in written if r["type"] == "span"]
        assert [r["id"] for r in spans] == [0, 1, 2, 3]
        parent = obs.Collector(clock=FakeClock())
        parent.adopt(json.loads(json.dumps(worker.payload())))
        assert parent.payload()["spans"] == spans

    def test_every_line_is_json(self, tmp_path):
        collector = self._sample_collector()
        path = tmp_path / "trace.jsonl"
        obs.write_trace(collector, path)
        lines = path.read_text().strip().split("\n")
        docs = [json.loads(line) for line in lines]
        assert docs[0]["type"] == "trace"
        assert docs[-1]["type"] == "metrics"
        spans = [d for d in docs if d["type"] == "span"]
        assert len(spans) == 2
        # Parents precede children, so a streaming reader can build the tree.
        ids = {s["id"] for s in spans}
        for s in spans:
            assert s["parent"] is None or s["parent"] in ids

    def test_write_trace_bytes_pinned(self, tmp_path):
        # The trace file is a contract (``trace diff``, the ledger's trace
        # paths, uploaded CI artifacts): pin its exact bytes for a
        # collector exercising every line type — nested spans over two
        # roots, adopted worker spans, a failure event, counters, a gauge
        # and histograms.
        with obs.collecting(clock=FakeClock(0.25)) as worker:
            with obs.span("simulate", benchmark="mcf", rob_size=64):
                with obs.span("simulate/core"):
                    pass
            obs.inc("simulations_run", 1)
            obs.observe("simulate/wall_s", 0.75)
        payload = worker.payload()
        with obs.collecting(clock=FakeClock()) as collector:
            with obs.span("repro/build", command="build"):
                with obs.span("sample", points=8):
                    pass
                with obs.span("simulate_batch", simulations=2, workers=2):
                    collector.adopt(payload, attrs={"worker": True})
                    collector.adopt(payload, attrs={"worker": True})
                with obs.span("fit", p_min=2):
                    obs.record_failure("fit", ValueError("singular"),
                                       centers=4)
            with obs.span("validate"):
                pass
            obs.inc("cache_hits", 3)
            obs.set_gauge("jobs", 2)
            for value in (0.5, 1.5, 2.5):
                obs.observe("runner/metric_wall_s", value)
        path = obs.write_trace(collector, tmp_path / "trace.jsonl",
                               header={"command": "build",
                                       "argv": ["build", "mcf"]})
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == ("d6ae763be6e43ee9de051938cf91e78e"
                          "8f3f7f2f1de20f652dad18a6b74faf1f")

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "trace", "version": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            obs.read_trace(path)

    def test_summary_renders_tree_counts_and_failures(self, tmp_path):
        collector = self._sample_collector()
        path = tmp_path / "trace.jsonl"
        obs.write_trace(collector, path)
        text = obs.render_summary(obs.read_trace(path))
        assert "build" in text and "  fit" in text
        assert "FAILURE in fit" in text
        assert "sims" in text and "lat" in text
        # Percentile columns on the duration histograms.
        assert "p50=1.5" in text and "p90=1.5" in text and "p99=1.5" in text

    def test_summary_renders_percentiles_without_samples(self):
        # Traces from older writers carry no p50/p99 keys; the renderer
        # falls back to the plain n/sum/mean columns.
        trace = obs.TraceData(
            header={}, roots=[], events=[],
            metrics={"histograms": {"lat": {
                "count": 2, "sum": 3.0, "mean": 1.5}}},
        )
        text = obs.render_summary(trace)
        assert "lat" in text and "p50" not in text


class TestRunnerIntegration:
    def test_stats_is_a_view_over_the_registry(self, tmp_path):
        runner = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                  cache_dir=tmp_path)
        runner.result_at(point())
        runner.result_at(point())
        stats = runner.stats()
        assert stats["simulations_run"] == 1 and stats["cache_hits"] == 1
        assert runner.metrics.counter("simulations_run") == 1.0
        assert runner.metrics.counter("cache_hits") == 1.0
        assert runner.simulations_run == 1 and runner.cache_hits == 1

    def test_worker_spans_merge_into_parent_trace(self, tmp_path):
        space = paper_design_space()
        grid = np.vstack([
            space.as_array(point(l2_lat=lat)) for lat in (12, 18, 24, 30)
        ])
        runner = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                  cache_dir=tmp_path, jobs=2)
        with obs.collecting() as col:
            runner.cpi(grid)
        spans = [s for root in col.roots for s in root.walk()]
        sim_spans = [s for s in spans if s.name == "simulate"]
        assert len(sim_spans) == 4  # one per uncached point, from workers
        assert all(s.attrs.get("worker") for s in sim_spans)
        assert all(s.duration > 0 for s in sim_spans)
        # Worker metrics merged too: the engine's throughput counters.
        assert col.metrics.counter("sim/instructions") > 0

    def test_tracing_never_perturbs_results(self, tmp_path):
        space = paper_design_space()
        grid = np.vstack([
            space.as_array(point(l2_lat=lat)) for lat in (12, 18)
        ])
        plain = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                 cache_dir=tmp_path / "plain")
        traced = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                  cache_dir=tmp_path / "traced")
        expected = plain.cpi(grid)
        with obs.collecting():
            got = traced.cpi(grid)
        assert np.array_equal(expected, got)  # bitwise, not approximate


class TestFailureReporting:
    def test_stage_records_event_and_annotates_exception(self):
        with obs.collecting() as col:
            with pytest.raises(RuntimeError) as excinfo:
                with stage("rbf_model", benchmark="mcf"):
                    raise RuntimeError("singular gram matrix")
        (event,) = [e for e in col.events if e["type"] == "failure"]
        assert event["stage"] == "rbf_model"
        assert event["benchmark"] == "mcf"
        assert event["error"] == "RuntimeError"
        failures = obs.recent_failures()
        assert failures[-1]["stage"] == "rbf_model"
        if sys.version_info >= (3, 11):
            assert any("rbf_model" in note
                       for note in excinfo.value.__notes__)

    def test_failures_recorded_even_without_tracing(self):
        before = len(obs.recent_failures())
        with pytest.raises(ValueError):
            with stage("test_set", benchmark="gcc"):
                raise ValueError("trace too short")
        failures = obs.recent_failures()
        assert len(failures) == before + 1 or len(failures) == 16  # bounded
        assert failures[-1]["stage"] == "test_set"


class TestManifest:
    def test_design_space_hash_stable_and_sensitive(self):
        a = obs.design_space_hash(paper_design_space())
        b = obs.design_space_hash(paper_design_space())
        assert a == b and len(a) == 16
        assert obs.design_space_hash(paper_test_space()) != a
        assert obs.design_space_hash(object()) is None

    def test_build_cli_writes_manifest_and_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code = cli_main([
            "build", "--benchmark", "mcf", "--sample-size", "20",
            "--test-points", "8", "--trace-length", "2048", "--trace",
        ])
        assert code == 0
        manifest = obs.read_manifest(tmp_path / "results" / "manifest.json")
        assert manifest["schema"] == 1
        assert manifest["command"] == "build"
        assert manifest["benchmark"] == "mcf"
        assert manifest["seed"] == 42
        assert manifest["design_space_hash"] == obs.design_space_hash(
            paper_design_space())
        assert manifest["version"] == obs.package_version()
        assert "git_sha" in manifest and "python" in manifest
        assert manifest["metrics"]["counters"]["simulations_run"] == 28.0
        assert manifest["wall_time_s"] > 0
        # The trace covers the whole sample->simulate->fit->validate path.
        trace = obs.read_trace(tmp_path / "results" / "trace-build.jsonl")
        names = {s.name for root in trace.roots for s in root.walk()}
        assert {"repro/build", "build", "sample", "simulate", "fit",
                "validate"} <= names

    def test_failed_build_still_writes_its_trace(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)

        def diverge(*args, **kwargs):
            raise RuntimeError("fit diverged")

        monkeypatch.setattr("repro.core.procedure.search_rbf_model", diverge)
        with pytest.raises(RuntimeError, match="fit diverged"):
            cli_main(["build", "--benchmark", "mcf", "--sample-size", "10",
                      "--test-points", "4", "--trace-length", "1024",
                      "--trace"])
        path = tmp_path / "results" / "trace-build.jsonl"
        assert f"[trace written to {path}]" in capsys.readouterr().out
        (root,) = obs.read_trace(path).roots
        assert root.name == "repro/build"
        assert root.attrs["error"] == "RuntimeError"
        fit = [s for s in root.walk() if s.name == "fit"]
        assert fit and all(s.attrs["error"] == "RuntimeError" for s in fit)
        # ... and its run record: a manifest and a ledger entry naming
        # the error.
        manifest = obs.read_manifest(tmp_path / "results" / "manifest.json")
        assert manifest["command"] == "build"
        assert manifest["error"] == "RuntimeError"
        record = history.load_runs()[0][-1]
        assert record["command"] == "build"
        assert record["error"] == "RuntimeError"
        assert record["trace_path"] == str(path)

    def test_started_is_stamped_when_the_run_starts(self, tmp_path,
                                                    monkeypatch):
        # A wall clock that only the build advances: ``started`` must
        # read the time from before the build, not from after it.
        ticks = [0]

        class FakeDatetime:
            @staticmethod
            def now(tz=None):
                return (datetime(2026, 1, 1, tzinfo=tz)
                        + timedelta(seconds=ticks[0]))

        real_build = BuildRBFModel.build

        def slow_build(self, *args, **kwargs):
            ticks[0] += 3
            return real_build(self, *args, **kwargs)

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(manifest_module, "datetime", FakeDatetime)
        monkeypatch.setattr(BuildRBFModel, "build", slow_build)
        assert cli_main(["build", "--benchmark", "mcf", "--sample-size",
                         "12", "--test-points", "4", "--trace-length",
                         "1024", "--no-register"]) == 0
        assert ticks == [3]
        before = "2026-01-01T00:00:00+00:00"
        manifest = obs.read_manifest(tmp_path / "results" / "manifest.json")
        assert manifest["started"] == before
        assert history.load_runs()[0][-1]["started"] == before

    def test_two_builds_run_git_once(self, tmp_path, monkeypatch):
        # Provenance is read once per process: the manifests and model
        # cards of two builds share one ``git rev-parse``.
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        calls = []
        real_run = subprocess.run

        def counting_run(args, *rest, **kwargs):
            if list(args[:2]) == ["git", "rev-parse"]:
                calls.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        manifest_module._read_provenance.cache_clear()
        argv = ["build", "--benchmark", "mcf", "--sample-size", "12",
                "--test-points", "4", "--trace-length", "1024"]
        assert cli_main(argv) == 0
        assert cli_main(argv) == 0
        assert len(calls) == 1
        cards = [json.loads(path.read_text()) for path in
                 (tmp_path / "results" / "models" / "cards").iterdir()]
        manifest = obs.read_manifest(tmp_path / "results" / "manifest.json")
        assert len(cards) == 2  # one per registration: each run's own cost
        assert {card["git_sha"] for card in cards} == {manifest["git_sha"]}

    def test_version_flag_matches_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert obs.package_version() in out
