"""Tests for ``repro.obs.prof``: analyzer, bench harness, regression gate.

Covers the profiling contracts (self-time aggregation, folded-stack
round-trip), the benchmark harness (deterministic fake-clock timing,
seeded work metadata identical across runs, unstable-metadata rejection),
the regression gate (pass against a fresh baseline, demonstrable failure
against an artificially tightened one, preset separation), the CLI
surfaces (``repro bench``, ``repro trace profile``, ``trace summary
--json``, graceful handling of missing/empty/truncated traces), and the
PR's satellite guarantees: bounded ``obs.recent_failures()`` and exact
worker-collector adoption under ``jobs>1`` with a live collector.
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro import obs
from repro.cli import main as cli_main
from repro.core.design_space import paper_design_space
from repro.experiments.runner import SimulationRunner
from repro.obs import prof
from repro.obs.prof import bench as bench_mod

TRACE_LENGTH = 2000


class FakeClock:
    """Deterministic clock: each reading advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def sample_trace():
    """A small deterministic trace: root -> (setup, 3x simulate -> cache)."""
    with obs.collecting(clock=FakeClock()) as col:
        with obs.span("build"):
            with obs.span("setup"):
                pass
            for _ in range(3):
                with obs.span("simulate"):
                    with obs.span("cache"):
                        pass
    return col


def round_trip(col, tmp_path, name="t.jsonl"):
    path = tmp_path / name
    obs.write_trace(col, path, header={"command": "test"})
    return obs.read_trace(path)


class TestAnalyzer:
    def test_aggregate_stacks_calls_and_self_time(self, tmp_path):
        trace = round_trip(sample_trace(), tmp_path)
        stats = {s.stack: s for s in prof.aggregate_stacks(trace)}
        sim = stats[("build", "simulate")]
        assert sim.calls == 3
        # Each simulate: start=n, cache consumes 2 ticks, end -> dur 3, self 2.
        assert sim.cum_s == pytest.approx(9.0)
        assert sim.self_s == pytest.approx(6.0)
        cache = stats[("build", "simulate", "cache")]
        assert cache.calls == 3 and cache.self_s == pytest.approx(3.0)

    def test_self_times_partition_total_duration(self, tmp_path):
        trace = round_trip(sample_trace(), tmp_path)
        total_self = sum(s.self_s for s in prof.aggregate_stacks(trace))
        (root,) = trace.roots
        assert total_self == pytest.approx(root.duration)

    def test_hot_spans_ranked_by_self_time(self, tmp_path):
        trace = round_trip(sample_trace(), tmp_path)
        rows = prof.hot_spans(trace, top=2)
        assert len(rows) == 2
        assert rows[0].self_s >= rows[1].self_s

    def test_render_profile_lists_stacks(self, tmp_path):
        trace = round_trip(sample_trace(), tmp_path)
        text = prof.render_profile(trace, top=10)
        assert "build;simulate;cache" in text
        assert "self_s" in text and "calls" in text

    def test_folded_round_trip(self, tmp_path):
        trace = round_trip(sample_trace(), tmp_path)
        folded = prof.to_folded(trace)
        parsed = prof.parse_folded(folded)
        expected = {
            s.stack: round(s.self_s * 1e6)
            for s in prof.aggregate_stacks(trace)
            if round(s.self_s * 1e6) > 0
        }
        assert parsed == expected

    def test_folded_sanitises_separator_in_names(self, tmp_path):
        with obs.collecting(clock=FakeClock()) as col:
            with obs.span("a;b c"):
                pass
        folded = prof.to_folded(round_trip(col, tmp_path))
        (line,) = folded.strip().splitlines()
        stack, _, value = line.rpartition(" ")
        assert stack == "a:b_c"
        assert int(value) > 0

    def test_parse_folded_accumulates_and_rejects_garbage(self):
        parsed = prof.parse_folded("a;b 10\na;b 5\nc 1\n")
        assert parsed == {("a", "b"): 15, ("c",): 1}
        with pytest.raises(ValueError, match="line 1"):
            prof.parse_folded("no-value-here")
        with pytest.raises(ValueError, match="not an integer"):
            prof.parse_folded("a;b notanint")

    def test_summarize_trace_shape(self, tmp_path):
        trace = round_trip(sample_trace(), tmp_path)
        doc = prof.summarize_trace(trace)
        assert doc["command"] == "test"
        stacks = {tuple(row["stack"]) for row in doc["spans"]}
        assert ("build", "simulate", "cache") in stacks
        json.dumps(doc)  # must be JSON-serialisable as-is


@contextmanager
def temp_benchmark(name, fn, **kwargs):
    """Register ``fn`` as a benchmark for the duration of the test."""
    bench_mod.benchmark(name, **kwargs)(fn)
    try:
        yield
    finally:
        bench_mod._REGISTRY.pop(name, None)


class TestBenchHarness:
    def test_fake_clock_gives_deterministic_walls(self):
        def setup(ctx):
            return lambda: {"n": 1}

        with temp_benchmark("t/fake", setup, repeats=4, warmup=1):
            (result,) = prof.run_benchmarks(
                names=["t/fake"], clock=FakeClock(), measure_memory=False)
        # Each timed repeat reads the clock twice -> exactly 1.0 apart.
        assert result.wall_all == [1.0, 1.0, 1.0, 1.0]
        assert result.wall_s == 1.0
        assert result.wall_mean_s == 1.0
        assert result.work == {"n": 1}

    def test_quick_preset_uses_quick_repeats_and_scale(self):
        seen = {}

        def setup(ctx):
            seen["scaled"] = ctx.scale(100, 10)
            return lambda: {"n": seen["scaled"]}

        with temp_benchmark("t/quick", setup, repeats=5, quick_repeats=2):
            (result,) = prof.run_benchmarks(
                names=["t/quick"], quick=True, measure_memory=False)
        assert seen["scaled"] == 10
        assert result.repeats == 2

    def test_unstable_work_metadata_is_rejected(self):
        calls = [0]

        def setup(ctx):
            def work():
                calls[0] += 1
                return {"n": calls[0]}
            return work

        with temp_benchmark("t/unstable", setup):
            with pytest.raises(prof.BenchError, match="seeded"):
                prof.run_benchmarks(names=["t/unstable"],
                                    measure_memory=False)

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="t/no-such"):
            prof.run_benchmarks(names=["t/no-such"])

    def test_registry_covers_the_hot_paths(self):
        names = {spec.name for spec in prof.registered_benchmarks()}
        assert len(names) >= 6
        assert {"trace/synthesize", "sim/end_to_end", "sim/cache_hierarchy",
                "model/tree_build", "model/aicc_select",
                "sampling/centered_l2"} <= names

    def test_work_metadata_identical_across_runs(self):
        subset = ["sampling/centered_l2", "serve/predict_batch",
                  "model/tree_build"]
        first = prof.run_benchmarks(names=subset, quick=True,
                                    measure_memory=False)
        second = prof.run_benchmarks(names=subset, quick=True,
                                     measure_memory=False)
        assert [r.work for r in first] == [r.work for r in second]

    def test_bench_spans_land_in_active_trace(self):
        with obs.collecting() as col:
            prof.run_benchmarks(names=["sampling/centered_l2"], quick=True,
                                measure_memory=False)
        names = [s.name for root in col.roots for s in root.walk()]
        assert "bench/sampling/centered_l2" in names
        assert col.metrics.counter("bench/benchmarks_run") == 1.0


def fast_results(quick=True):
    """Results from the two cheapest real benchmarks (milliseconds)."""
    return prof.run_benchmarks(
        names=["sampling/centered_l2", "serve/predict_batch"],
        quick=quick, measure_memory=False)


class TestGate:
    def test_fresh_baseline_passes(self):
        results = fast_results()
        baseline = prof.make_baseline(results, preset="quick")
        assert prof.check_results(results, baseline, preset="quick") == []

    def test_tightened_baseline_fails(self):
        results = fast_results()
        baseline = prof.make_baseline(results, preset="quick")
        entry = baseline["presets"]["quick"]["benchmarks"][results[0].name]
        entry["wall_s"] = results[0].wall_s / 1e6
        entry["tolerance"] = 1.0
        violations = prof.check_results(results, baseline, preset="quick")
        assert len(violations) == 1
        assert "regression" in violations[0]
        assert results[0].name in violations[0]

    def test_work_divergence_fails(self):
        results = fast_results()
        baseline = prof.make_baseline(results, preset="quick")
        entry = baseline["presets"]["quick"]["benchmarks"][results[0].name]
        entry["work"] = dict(entry["work"], points=999)
        violations = prof.check_results(results, baseline, preset="quick")
        assert any("work metadata diverged" in v for v in violations)

    def test_missing_entry_and_missing_preset_fail(self):
        results = fast_results()
        baseline = prof.make_baseline(results[:1], preset="quick")
        violations = prof.check_results(results, baseline, preset="quick")
        assert any("no baseline entry" in v for v in violations)
        missing = prof.check_results(results, baseline, preset="full")
        assert len(missing) == 1 and "no 'full' preset" in missing[0]

    def test_update_preserves_other_preset_and_tolerances(self):
        results = fast_results()
        quick_doc = prof.make_baseline(results, preset="quick")
        quick_doc["presets"]["quick"]["benchmarks"][
            results[0].name]["tolerance"] = 42.0
        merged = prof.make_baseline(results, preset="full",
                                    previous=quick_doc)
        assert set(merged["presets"]) == {"quick", "full"}
        again = prof.make_baseline(results, preset="quick", previous=merged)
        assert again["presets"]["quick"]["benchmarks"][
            results[0].name]["tolerance"] == 42.0

    def test_baseline_round_trip_and_schema_check(self, tmp_path):
        results = fast_results()
        baseline = prof.make_baseline(results, preset="quick")
        path = prof.write_baseline(baseline, tmp_path / "baseline.json")
        assert prof.load_baseline(path) == baseline
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema"):
            prof.load_baseline(path)

    def test_results_document_and_bench_file(self, tmp_path):
        results = fast_results()
        doc = prof.results_document(results, preset="quick", run_id="TESTRUN")
        assert doc["schema"] == prof.BENCH_SCHEMA_VERSION
        assert doc["preset"] == "quick"
        assert doc["version"] == obs.package_version()
        assert "git_sha" in doc and "platform" in doc and "python" in doc
        assert len(doc["results"]) == 2
        for row in doc["results"]:
            assert {"name", "wall_s", "cpu_s", "mem_peak_kb",
                    "work", "tolerance"} <= set(row)
        path = prof.write_results(doc, tmp_path)
        assert path.name == "BENCH_TESTRUN.json"
        assert json.loads(path.read_text())["run"] == "TESTRUN"


class TestBenchCLI:
    def test_bench_quick_writes_schema_versioned_results(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = cli_main(["bench", "--quick", "--no-memory"])
        assert code == 0
        (bench_file,) = tmp_path.glob("BENCH_*.json")
        doc = json.loads(bench_file.read_text())
        assert doc["schema"] == prof.BENCH_SCHEMA_VERSION
        assert doc["preset"] == "quick"
        assert len(doc["results"]) >= 6
        works = {r["name"]: r["work"] for r in doc["results"]}
        assert works["sim/end_to_end"]["instructions"] > 0

    def test_bench_check_passes_against_committed_baseline(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = cli_main(["bench", "--quick", "--no-memory", "--check"])
        assert code == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_bench_check_fails_when_baseline_tightened(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        baseline = prof.load_baseline(prof.DEFAULT_BASELINE_PATH)
        for entry in baseline["presets"]["quick"]["benchmarks"].values():
            entry["wall_s"] = 1e-12
            entry["tolerance"] = 1.0
        tightened = prof.write_baseline(baseline, tmp_path / "tight.json")
        code = cli_main([
            "bench", "--quick", "--no-memory", "--check",
            "--baseline", str(tightened),
            "sampling/centered_l2", "serve/predict_batch",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "regression" in out

    def test_bench_update_baseline_then_check(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        target = tmp_path / "baseline.json"
        code = cli_main([
            "bench", "--quick", "--no-memory", "--update-baseline",
            "--baseline", str(target), "sampling/centered_l2",
        ])
        assert code == 0 and target.exists()
        code = cli_main([
            "bench", "--quick", "--no-memory", "--check",
            "--baseline", str(target), "sampling/centered_l2",
        ])
        assert code == 0

    @pytest.mark.parametrize("raw", [
        b'{"schema": 1, "presets": {"full": {"benchmarks": '
        b'{"sampling/centered_l2": {"tolerance": 3.0, "wall_s"',
        b'\xff\xfe{"schema": 1}',
        b'[1, 2]\n',
        b'{"schema": 99, "presets": {}}\n',
    ], ids=["truncated", "not-utf8", "not-an-object", "other-schema"])
    def test_update_baseline_keeps_an_unreadable_file(
            self, tmp_path, capsys, monkeypatch, raw):
        # The update merges into the file it replaces (the other preset,
        # hand-tuned tolerances); one it cannot read stays byte-identical.
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        target = tmp_path / "baseline.json"
        target.write_bytes(raw)
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "bench", "--quick", "--no-memory", "--update-baseline",
                "--baseline", str(target), "sampling/centered_l2",
            ])
        assert "cannot update baseline" in str(excinfo.value.code)
        assert target.read_bytes() == raw

    def test_bench_unknown_name_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench", "no/such/bench"])
        assert "no/such/bench" in str(excinfo.value.code)

    def test_bench_list(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sim/end_to_end" in out and "tolerance" in out


class TestTraceCLI:
    def _write(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.write_trace(sample_trace(), path, header={"command": "test"})
        return path

    def test_profile_table(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert cli_main(["trace", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "build;simulate" in out

    def test_profile_folded_round_trips(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert cli_main(["trace", "profile", str(path), "--folded"]) == 0
        parsed = prof.parse_folded(capsys.readouterr().out)
        assert ("build", "simulate", "cache") in parsed

    def test_summary_json(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert cli_main(["trace", "summary", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "test"
        assert any(row["name"] == "simulate" for row in doc["spans"])

    def test_summary_loads_no_bench_or_gate(self, tmp_path):
        """The text summary needs only the trace reader: ``repro.obs.prof``
        (and with it the bench harness and gate) stays unloaded."""
        path = self._write(tmp_path)
        code = ("import sys\n"
                "from repro.cli import main\n"
                f"assert main(['trace', 'summary', {str(path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('repro.obs.prof')))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", ["summary", "profile"])
    def test_missing_file_exits_one_line(self, tmp_path, command):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", command, str(tmp_path / "nope.jsonl")])
        message = str(excinfo.value.code)
        assert "cannot read trace" in message and "\n" not in message

    @pytest.mark.parametrize("command", ["summary", "profile"])
    def test_empty_file_exits_one_line(self, tmp_path, command):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", command, str(path)])
        assert "empty trace" in str(excinfo.value.code)

    def test_truncated_trailing_line_is_skipped(self, tmp_path, capsys):
        path = self._write(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "id": 99, "na')  # killed mid-write
        assert cli_main(["trace", "summary", str(path)]) == 0
        captured = capsys.readouterr()
        assert "build" in captured.out
        assert "skipped 1 partial trailing line" in captured.err

    def test_mid_file_corruption_still_errors(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('not json\n{"type": "trace", "version": 1}\n')
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", "summary", str(path)])
        assert "malformed trace" in str(excinfo.value.code)

    def test_read_trace_lenient_counts_skipped(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{partial")
        trace = obs.read_trace(path, strict=False)
        assert trace.skipped_lines == 1
        assert trace.roots  # the intact content was all recovered
        with pytest.raises(ValueError):
            obs.read_trace(path)  # strict default still refuses


class TestRecentFailuresBounds:
    def test_bounded_at_sixteen_newest_last(self):
        for i in range(20):
            obs.record_failure(f"stage-{i}", ValueError(f"err-{i}"))
        failures = obs.recent_failures()
        assert len(failures) == 16
        assert failures[-1]["stage"] == "stage-19"
        assert failures[0]["stage"] == "stage-4"  # oldest four evicted
        # The returned list is a copy; mutating it cannot corrupt the log.
        failures.clear()
        assert len(obs.recent_failures()) == 16


def grid_points(space, lats):
    base = {
        "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
        "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
        "dl1_size_kb": 32, "dl1_lat": 2,
    }
    rows = []
    for lat in lats:
        point = dict(base, l2_lat=lat)
        rows.append(space.as_array(point))
    return np.vstack(rows)


class TestWorkerAdoptionUnderBench:
    def test_parallel_spans_land_once_and_metrics_merge_exactly(
            self, tmp_path):
        space = paper_design_space()
        grid = grid_points(space, (12, 18, 24, 30))
        # Serial reference: what the counters must total regardless of jobs.
        serial = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                  cache_dir=tmp_path / "serial")
        with obs.collecting() as serial_col:
            expected = serial.cpi(grid)
        parallel = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                    cache_dir=tmp_path / "parallel", jobs=2)
        with obs.collecting() as col:
            with obs.span("bench/sim_grid"):  # an active bench-style span
                got = parallel.cpi(grid)
        assert np.array_equal(expected, got)
        spans = [s for root in col.roots for s in root.walk()]
        sim_spans = [s for s in spans if s.name == "simulate"]
        # Exactly one adopted span per uncached point - none lost, none
        # double-adopted - and all grafted under the open bench span.
        assert len(sim_spans) == 4
        assert all(s.attrs.get("worker") for s in sim_spans)
        (bench_root,) = [s for s in spans if s.name == "bench/sim_grid"]
        under_bench = [s for s in bench_root.walk() if s.name == "simulate"]
        assert len(under_bench) == 4
        # Worker metrics merged exactly: identical totals to the serial run.
        for counter in ("sim/instructions", "sim/cycles"):
            assert col.metrics.counter(counter) == pytest.approx(
                serial_col.metrics.counter(counter))
        assert parallel.simulations_run == serial.simulations_run == 4
