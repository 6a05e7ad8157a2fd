"""Tests for :mod:`repro.obs.history`: ledger, trend, diff, HTML report.

Covers the cross-run observability layer end to end: ledger append/load
round-trips (including real two-process concurrency and torn-line
healing), the MAD drift check with an injected outlier, exact trace-diff
attribution under a fake clock, the pinned ``trace diff --json`` schema,
byte-deterministic self-contained HTML reports, and the one-line exit-1
CLI error paths.
"""

import json
import multiprocessing
import re

import pytest

from repro import obs
from repro.cli import main
from repro.obs import history


class FakeClock:
    """Deterministic clock: each reading advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    """Redirect results/cache dirs into ``tmp_path`` for CLI runs."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    return tmp_path


def make_run(command="build", **fields):
    """A minimal valid ledger record with overrides."""
    record = {"schema": history.HISTORY_SCHEMA_VERSION, "command": command,
              "started": "2026-08-01T00:00:00+00:00"}
    record.update(fields)
    return record


def seed_ledger(records, path=None):
    for record in records:
        history.append_run(record, path)


# -- ledger -----------------------------------------------------------------


class TestLedger:
    def test_append_load_round_trip_preserves_order(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        seed_ledger([make_run(i=i) for i in range(5)], path)
        runs, skipped = history.load_runs(path)
        assert skipped == 0
        assert [r["i"] for r in runs] == [0, 1, 2, 3, 4]
        assert all(r["schema"] == history.HISTORY_SCHEMA_VERSION
                   for r in runs)

    def test_load_missing_ledger_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            history.load_runs(tmp_path / "absent.jsonl")

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        seed_ledger([make_run(i=0)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write('"not an object"\n')
        seed_ledger([make_run(i=1)], path)
        runs, skipped = history.load_runs(path)
        assert [r["i"] for r in runs] == [0, 1]
        assert skipped == 2

    def test_append_heals_torn_trailing_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        seed_ledger([make_run(i=0)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "command": "bu')  # killed mid-write
        seed_ledger([make_run(i=1)], path)
        runs, skipped = history.load_runs(path)
        assert [r.get("i") for r in runs] == [0, 1]
        assert skipped == 1  # the torn line, newline-terminated and skipped

    def test_default_path_honours_results_env(self, results_env, monkeypatch):
        expected = (results_env / "results" / "history" / "runs.jsonl")
        assert history.default_history_path() == expected
        assert history.append_run(make_run()) == expected
        assert expected.exists()

    def test_iter_runs_filters(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        seed_ledger([
            make_run("build", benchmark="mcf", git_sha="abc123",
                     started="2026-08-01T00:00:00+00:00"),
            make_run("build", benchmark="twolf", git_sha="abc999",
                     started="2026-08-02T00:00:00+00:00"),
            make_run("bench", git_sha="def456",
                     started="2026-08-03T00:00:00+00:00"),
        ], path)
        runs, _ = history.load_runs(path)

        def count(**filters):
            return sum(history.run_matches(r, **filters) for r in runs)

        assert count() == 3
        assert count(command="build") == 2
        assert count(benchmark="mcf") == 1
        assert count(git_sha="abc") == 2
        assert count(since="2026-08-02T00:00:00+00:00") == 2


def _append_worker(path, barrier, worker, count):
    barrier.wait()  # maximise contention: both processes start together
    for i in range(count):
        history.append_run(make_run(worker=worker, i=i), path)


class TestLedgerConcurrency:
    def test_two_processes_lose_no_records(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        path = tmp_path / "runs.jsonl"
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_append_worker, args=(path, barrier, w, 10))
            for w in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        runs, skipped = history.load_runs(path)
        assert skipped == 0
        assert len(runs) == 20
        assert {(r["worker"], r["i"]) for r in runs} \
            == {(w, i) for w in range(2) for i in range(10)}


class TestRecordFromManifest:
    def test_lifts_manifest_overrides_counters_and_extras(self):
        manifest = obs.snapshot_manifest(
            obs.build_manifest("build"),
            metrics={"counters": {"simulations_run": 10.0,
                                  "cache_hits": 30.0}},
            wall_time_s=1.5,
            extra={"seed": 7, "jobs": 2,
                   "overrides": {"sample_size": 90, "test_points": 50},
                   "benchmark": "mcf", "mean_error_pct": 2.5},
        )
        record = history.record_from_manifest(
            manifest, trace_path="results/trace-build.jsonl",
            gate={"checked": True, "passed": True},
            extra={"note": "x"},
        )
        assert record["schema"] == history.HISTORY_SCHEMA_VERSION
        assert record["command"] == "build"
        assert record["seed"] == 7
        assert record["sample_size"] == 90  # lifted from overrides
        assert record["benchmark"] == "mcf"
        assert record["mean_error_pct"] == 2.5
        assert record["jobs"] == 2
        assert record["cache_hit_rate"] == 0.75
        assert record["simulations_run"] == 10.0
        assert record["cache_hits"] == 30.0
        assert record["trace_path"] == "results/trace-build.jsonl"
        assert record["gate"] == {"checked": True, "passed": True}
        assert record["note"] == "x"
        assert "test_points" not in record  # not a headline field


# -- manifest satellites ----------------------------------------------------


class TestManifestCostFields:
    def test_jobs_and_cache_hit_rate_recorded(self):
        manifest = obs.snapshot_manifest(
            obs.build_manifest("build"),
            metrics={"counters": {"simulations_run": 25.0,
                                  "cache_hits": 75.0}},
            extra={"jobs": 4},
        )
        assert manifest["schema"] == 1
        assert manifest["jobs"] == 4
        assert manifest["cache_hit_rate"] == 0.75

    def test_cache_hit_rate_none_without_lookups(self):
        assert obs.cache_hit_rate(None) is None
        assert obs.cache_hit_rate({"counters": {}}) is None
        assert obs.build_manifest("report")["cache_hit_rate"] is None

    def test_monotonic_follows_collector_clock(self):
        with obs.collecting(clock=FakeClock(step=1.0)):
            first = obs.monotonic()
            second = obs.monotonic()
        assert second - first == 1.0
        assert isinstance(obs.monotonic(), float)  # raw clock when off

    def test_numpy_and_python_versions_recorded(self):
        import platform

        import numpy as np

        manifest = obs.build_manifest("build")
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        # The ledger lifts both fields, leniently: absent stays absent.
        record = history.record_from_manifest(manifest)
        assert record["python_version"] == platform.python_version()
        assert record["numpy_version"] == np.__version__
        bare = history.record_from_manifest({"schema": 1, "command": "x"})
        assert "numpy_version" not in bare


# -- trend / drift check ----------------------------------------------------


class TestTrend:
    def test_median_and_mad(self):
        assert history.median([3.0, 1.0, 2.0]) == 2.0
        assert history.median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert history.mad([1.0, 2.0, 3.0, 100.0]) == 1.0

    def test_modified_zscore_zero_mad(self):
        flat = [2.0, 2.0, 2.0, 2.0]
        assert history.modified_zscore(2.0, flat) == 0.0
        assert history.modified_zscore(3.0, flat) == float("inf")
        assert history.modified_zscore(1.0, flat) == float("-inf")

    def test_series_by_index_and_by_field(self):
        runs = [make_run(wall_time_s=1.0, sample_size=30),
                make_run(note="no value"),
                make_run(wall_time_s=2.0, sample_size=50),
                make_run(wall_time_s=True)]  # bools are not numbers
        assert history.series(runs, "wall_time_s") == [(0, 1.0), (2, 2.0)]
        assert history.series(runs, "wall_time_s", x_field="sample_size") \
            == [(30, 1.0), (50, 2.0)]

    def test_check_flags_injected_outlier_only_on_regression(self):
        base = [make_run(wall_time_s=1.0 + 0.01 * i) for i in range(5)]
        anomalies = history.check_latest(base + [make_run(wall_time_s=50.0)])
        assert len(anomalies) == 1 and "wall_time_s" in anomalies[0]
        # an *improvement* of the same magnitude never flags
        assert history.check_latest(
            base + [make_run(wall_time_s=0.001)]) == []

    def test_check_needs_min_history_and_comparable_runs(self):
        short = [make_run(wall_time_s=1.0)] * 3 + [make_run(wall_time_s=50.0)]
        assert history.check_latest(short) == []  # only 3 prior runs
        # a fourth prior that raised is never a baseline
        crashed = make_run(wall_time_s=1.0, error="RuntimeError")
        assert history.check_latest(short[:3] + [crashed] + short[3:]) == []
        mixed = [make_run("bench", wall_time_s=1.0)] * 6 \
            + [make_run("build", wall_time_s=50.0)]
        assert history.check_latest(mixed) == []  # no comparable history
        assert history.check_latest([]) == []

    def test_benchmark_scopes_comparability(self):
        runs = [make_run(benchmark="mcf", wall_time_s=1.0)] * 6 \
            + [make_run(benchmark="twolf", wall_time_s=50.0)]
        assert history.check_latest(runs) == []
        runs = [make_run(benchmark="mcf", wall_time_s=1.0 + 0.01 * i)
                for i in range(6)] + [make_run(benchmark="mcf",
                                               wall_time_s=50.0)]
        assert len(history.check_latest(runs)) == 1

    def test_sparkline_and_render(self):
        assert history.sparkline([1.0, 1.0]) == "▁▁"
        line = history.sparkline([0.0, 1.0, 2.0])
        assert line[0] == "▁" and line[-1] == "█"
        text = history.render_trend([(0, 1.0), (1, 2.0)], "wall_time_s")
        assert "wall_time_s" in text and "median=1.5" in text

    def test_trend_document_schema_and_stats(self):
        doc = history.trend_document([(30, 1.0), (50, 3.0), (70, 2.0)],
                                     "mean_error_pct", x_field="sample_size")
        assert doc["schema"] == history.TREND_SCHEMA_VERSION
        assert doc["field"] == "mean_error_pct"
        assert doc["x_field"] == "sample_size"
        assert doc["count"] == 3
        assert (doc["min"], doc["median"], doc["max"]) == (1.0, 2.0, 3.0)
        assert doc["points"][0] == {"x": 30, "value": 1.0}

    def test_trend_document_empty_series(self):
        doc = history.trend_document([], "wall_time_s")
        assert doc["count"] == 0
        assert doc["min"] is None and doc["median"] is None
        assert doc["points"] == [] and doc["x_field"] is None

    def test_latest_gate_skips_unchecked(self):
        runs = [make_run(gate={"checked": True, "passed": False}),
                make_run(gate={"checked": False, "passed": None})]
        assert history.latest_gate(runs)["passed"] is False
        assert history.latest_gate([make_run()]) is None


# -- trace diff -------------------------------------------------------------


def _record_trace(tmp_path, name, fits=1, extra=False, step=0.5):
    """Record a deterministic trace: root -> fit (xN) [-> extra]."""
    with obs.collecting(clock=FakeClock(step=step)) as collector:
        with obs.span("root"):
            for _ in range(fits):
                with obs.span("fit"):
                    pass
            if extra:
                with obs.span("extra"):
                    pass
    return obs.write_trace(collector, tmp_path / name,
                           header={"command": "test"})


class TestTraceDiff:
    def test_attribution_sums_exactly_to_total_delta(self, tmp_path):
        old = obs.read_trace(_record_trace(tmp_path, "old.jsonl", fits=1))
        new = obs.read_trace(
            _record_trace(tmp_path, "new.jsonl", fits=3, extra=True))
        diff = history.diff_traces(old, new)
        assert diff.total_delta_s == pytest.approx(
            diff.attributed_delta_s, abs=1e-12)
        assert diff.total_new_s > diff.total_old_s
        by_stack = {row.stack: row for row in diff.rows}
        fit = by_stack[("root", "fit")]
        assert (fit.calls_old, fit.calls_new, fit.calls_delta) == (1, 3, 2)
        assert by_stack[("root", "extra")].status == "new"
        assert by_stack[("root",)].status == "common"

    def test_gone_stacks_are_attributed(self, tmp_path):
        old = obs.read_trace(
            _record_trace(tmp_path, "old.jsonl", fits=2, extra=True))
        new = obs.read_trace(_record_trace(tmp_path, "new.jsonl", fits=1))
        diff = history.diff_traces(old, new)
        by_stack = {row.stack: row for row in diff.rows}
        gone = by_stack[("root", "extra")]
        assert gone.status == "gone"
        assert gone.self_delta_s < 0
        assert diff.total_delta_s == pytest.approx(
            diff.attributed_delta_s, abs=1e-12)

    def test_render_marks_new_and_gone(self, tmp_path):
        old = obs.read_trace(_record_trace(tmp_path, "old.jsonl"))
        new = obs.read_trace(
            _record_trace(tmp_path, "new.jsonl", extra=True))
        text = history.render_diff(history.diff_traces(old, new))
        assert "trace diff:" in text
        assert "[new]" in text
        assert "root;extra" in text

    def test_json_document_schema_is_pinned(self, tmp_path):
        old = obs.read_trace(_record_trace(tmp_path, "old.jsonl"))
        new = obs.read_trace(
            _record_trace(tmp_path, "new.jsonl", fits=2))
        doc = history.diff_as_dict(history.diff_traces(old, new))
        assert set(doc) == {"schema", "old", "new", "total_delta_s",
                            "attributed_delta_s", "spans"}
        assert doc["schema"] == history.DIFF_SCHEMA_VERSION
        assert set(doc["old"]) == {"command", "total_s"}
        for row in doc["spans"]:
            assert set(row) == {
                "stack", "status", "calls_old", "calls_new", "calls_delta",
                "self_old_s", "self_new_s", "self_delta_s",
                "cum_old_s", "cum_new_s",
            }
        # rows come ranked by |self delta|
        deltas = [abs(r["self_delta_s"]) for r in doc["spans"]]
        assert deltas == sorted(deltas, reverse=True)


# -- HTML report ------------------------------------------------------------


FETCH_TOKENS = ("<script", "<link", "<img", "@import", "url(",
                "http://", "https://")


def synthetic_runs():
    runs = [make_run(benchmark="twolf", sample_size=n, mean_error_pct=e,
                     wall_time_s=1.0 + i, git_sha="abc123def")
            for i, (n, e) in enumerate([(16, 9.1), (32, 5.2), (64, 3.0)])]
    runs.append(make_run("bench", bench_wall_s=0.5,
                         gate={"checked": True, "passed": True,
                               "violations": [], "baseline": "b.json"}))
    return runs


class TestHtmlReport:
    def test_deterministic_and_self_contained(self, tmp_path):
        trace = obs.read_trace(_record_trace(tmp_path, "t.jsonl", fits=2))
        first = history.render_html(synthetic_runs(), trace=trace)
        second = history.render_html(synthetic_runs(), trace=trace)
        assert first == second
        for token in FETCH_TOKENS:
            assert token not in first, token
        assert first.startswith("<!DOCTYPE html>")
        assert "<svg" in first  # charts rendered
        assert "perf gate passed" in first
        assert "drift check clean" in first

    def test_span_tree_nests_interleaved_siblings(self, tmp_path):
        # repro/build -> stage(simulate), fit, stage(validate): the two
        # stage spans share a row, and validate sits under it, not fit.
        with obs.collecting(clock=FakeClock()) as collector:
            with obs.span("repro/build"):
                with obs.span("stage"):
                    with obs.span("simulate"):
                        pass
                with obs.span("fit"):
                    pass
                with obs.span("stage"):
                    with obs.span("validate"):
                        pass
        trace = obs.read_trace(obs.write_trace(
            collector, tmp_path / "t.jsonl", header={"command": "build"}))
        html = history.render_html([], trace=trace)
        tree = html[html.index('<table class="tree">'):]
        tree = tree[:tree.index("</table>")]
        rows = re.findall(r"<tr><td>((?:&nbsp;)*)([^<]+)</td>", tree)
        assert [(len(indent) // len("&nbsp;") // 2, name)
                for indent, name in rows] == [
            (0, "repro/build"), (1, "stage"), (2, "simulate"),
            (2, "validate"), (1, "fit")]
        # The text summary lists the same rows in the same order.
        summary = obs.render_summary(trace).splitlines()[3:8]
        assert [line.split()[0] for line in summary] == [
            name for _, name in rows]

    def test_failed_gate_and_anomaly_are_labelled(self):
        runs = [make_run(wall_time_s=1.0 + 0.01 * i) for i in range(5)]
        runs.append(make_run(
            wall_time_s=80.0,
            gate={"checked": True, "passed": False,
                  "violations": ["model/tree_build: regression"],
                  "baseline": "b.json"}))
        html = history.render_html(runs)
        assert "perf gate failed" in html
        assert "anomaly" in html
        assert "wall_time_s" in html  # the anomaly detail names the field

    def test_empty_ledger_and_no_trace_degrade_gracefully(self):
        html = history.render_html([])
        assert "0" in html and "no trace recorded" in html
        assert "no attributed runs recorded" in html
        for token in FETCH_TOKENS:
            assert token not in html, token

    def test_stack_section_renders_bars_and_text_values(self):
        runs = synthetic_runs()
        runs.append(make_run(
            "stacks", benchmark="mcf", git_sha="abc123def",
            stack_mem_frac=0.8, stack_frontend_frac=0.1,
            stack={"base": 10.0, "branch_redirect": 5.0, "dram": 85.0}))
        html = history.render_html(runs)
        assert "CPI stacks (cycle accounting)" in html
        assert 'class="stackbar"' in html
        # Segment widths are cycle shares; values appear as text too
        # (tooltip + table), never color alone.
        assert "width: 85%" in html
        assert "dram: 85 cycles (85.0%)" in html
        assert "mcf @ abc123de" in html
        assert "85.0%" in html  # table share column
        # Deterministic like the rest of the report.
        assert html == history.render_html(runs)

    def test_stack_section_skips_empty_and_malformed_stacks(self):
        runs = [
            make_run("stacks", stack={}),
            make_run("stacks", stack={"base": 0.0}),
            make_run("stacks", stack="not-a-mapping"),
        ]
        html = history.render_html(runs)
        assert "no attributed runs recorded" in html

    def test_model_quality_section_lists_registered_fits(self):
        runs = synthetic_runs()
        runs.append(make_run(
            benchmark="mcf", sample_size=30, mean_error_pct=4.2,
            model_sha="a" * 16, model_version=1, model_family="rbf"))
        runs.append(make_run(
            benchmark="mcf", sample_size=30, mean_error_pct=3.1,
            model_sha="b" * 16, model_version=2, model_family="rbf"))
        html = history.render_html(runs)
        assert "Model quality (registered fits)" in html
        assert "a" * 16 in html and "b" * 16 in html
        assert html == history.render_html(runs)  # still deterministic

    def test_model_quality_section_degrades_without_registrations(self):
        html = history.render_html(synthetic_runs())
        assert "Model quality (registered fits)" in html
        assert "no registered models recorded" in html


# -- CLI --------------------------------------------------------------------


class TestHistoryCli:
    def test_build_appends_ledger_record(self, results_env, capsys):
        code = main(["build", "twolf", "--sample-size", "16",
                     "--test-points", "6", "--trace-length", "2048",
                     "--trace"])
        assert code == 0
        runs, skipped = history.load_runs()
        assert skipped == 0 and len(runs) == 1
        record = runs[0]
        assert record["command"] == "build"
        assert record["benchmark"] == "twolf"
        assert record["sample_size"] == 16
        assert record["jobs"] == 1
        assert record["cache_hit_rate"] == 0.0
        assert record["trace_path"].endswith("trace-build.jsonl")
        assert "mean_error_pct" in record
        assert "[run recorded in" in capsys.readouterr().out

    def test_trace_diff_attributes_wall_delta(self, results_env, capsys):
        for name in ("old.jsonl", "new.jsonl"):
            assert main(["build", "twolf", "--sample-size", "16",
                         "--test-points", "6", "--trace-length", "2048",
                         f"--trace={results_env / name}"]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(results_env / "old.jsonl"),
                     str(results_env / "new.jsonl"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == history.DIFF_SCHEMA_VERSION
        # the attribution accounts for ~100% of the wall-clock delta
        assert abs(doc["attributed_delta_s"] - doc["total_delta_s"]) \
            <= max(0.05 * abs(doc["total_delta_s"]), 1e-9)
        assert sum(r["self_delta_s"] for r in doc["spans"]) \
            == pytest.approx(doc["attributed_delta_s"])

    def test_list_show_and_trend(self, results_env, capsys):
        seed_ledger([make_run(benchmark="mcf", wall_time_s=1.0 + i,
                              git_sha="abc123def") for i in range(3)])
        assert main(["history", "list"]) == 0
        out = capsys.readouterr().out
        assert "build" in out and "mcf" in out and "abc123de" in out
        assert main(["history", "show"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["wall_time_s"] == 3.0  # the latest
        assert main(["history", "trend", "wall_time_s"]) == 0
        out = capsys.readouterr().out
        assert "median=2" in out

    def test_list_filters_by_command(self, results_env, capsys):
        seed_ledger([make_run("build", wall_time_s=1.0),
                     make_run("bench", bench_wall_s=2.0)])
        assert main(["history", "list", "--command", "bench"]) == 0
        out = capsys.readouterr().out
        assert "1 of 2" in out

    def test_check_exits_nonzero_on_injected_outlier(self, results_env,
                                                     capsys):
        seed_ledger([make_run(wall_time_s=1.0 + 0.01 * i)
                     for i in range(5)])
        assert main(["history", "check"]) == 0
        capsys.readouterr()
        history.append_run(make_run(wall_time_s=120.0))
        assert main(["history", "check"]) == 1
        out = capsys.readouterr().out
        assert "ANOMALY" in out and "wall_time_s" in out

    def test_check_passes_on_young_ledger(self, results_env):
        seed_ledger([make_run(wall_time_s=1.0), make_run(wall_time_s=50.0)])
        assert main(["history", "check"]) == 0

    def test_missing_ledger_is_one_line_error(self, results_env):
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "list"])
        assert "no run history" in str(excinfo.value)

    def test_empty_ledger_is_one_line_error(self, results_env):
        path = history.default_history_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "show"])
        assert "empty run history" in str(excinfo.value)

    def test_single_run_trend_is_one_line_error(self, results_env):
        seed_ledger([make_run(wall_time_s=1.0)])
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "trend", "wall_time_s"])
        assert "not enough data" in str(excinfo.value)

    def test_trend_json_emits_schema_versioned_document(self, results_env,
                                                        capsys):
        seed_ledger([make_run(wall_time_s=1.0, sample_size=30),
                     make_run(wall_time_s=3.0, sample_size=50)])
        assert main(["history", "trend", "wall_time_s",
                     "--x", "sample_size", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema"] == history.TREND_SCHEMA_VERSION
        assert doc["points"] == [{"x": 30, "value": 1.0},
                                 {"x": 50, "value": 3.0}]
        # Canonical output: sorted keys, so the document diffs cleanly.
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_trend_json_works_from_a_single_reading(self, results_env,
                                                    capsys):
        seed_ledger([make_run(wall_time_s=1.0)])
        assert main(["history", "trend", "wall_time_s", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1

    def test_show_index_out_of_range_is_one_line_error(self, results_env):
        seed_ledger([make_run()])
        with pytest.raises(SystemExit) as excinfo:
            main(["history", "show", "7"])
        assert "no run at index 7" in str(excinfo.value)

    def test_trace_diff_missing_file_is_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "diff", str(tmp_path / "a.jsonl"),
                  str(tmp_path / "b.jsonl")])
        assert "cannot read trace" in str(excinfo.value)

    def test_explicit_ledger_path_flag(self, tmp_path, capsys):
        path = tmp_path / "elsewhere.jsonl"
        seed_ledger([make_run(wall_time_s=1.0)], path)
        assert main(["history", "show", "--path", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["wall_time_s"] == 1.0


class TestReportCli:
    def test_html_report_is_byte_deterministic(self, results_env, capsys):
        seed_ledger(synthetic_runs())
        assert main(["report", "--html"]) == 0
        default = results_env / "results" / "report.html"
        assert default.exists()
        first = default.read_bytes()
        custom = results_env / "custom.html"
        assert main(["report", "--html", str(custom)]) == 0
        assert custom.read_bytes() == first
        html = first.decode("utf-8")
        for token in FETCH_TOKENS:
            assert token not in html, token
        # only the two report files were produced — fully self-contained
        assert main(["report", "--html"]) == 0
        assert default.read_bytes() == first

    def test_html_report_includes_latest_trace(self, results_env, capsys):
        assert main(["build", "twolf", "--sample-size", "16",
                     "--test-points", "6", "--trace-length", "2048",
                     "--trace"]) == 0
        assert main(["report", "--html"]) == 0
        html = (results_env / "results" / "report.html").read_text()
        assert "latest trace" in html
        assert "repro/build" in html

    def test_html_report_without_ledger_is_one_line_error(self,
                                                          results_env):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--html"])
        assert "no run history" in str(excinfo.value)

    def test_plain_report_appends_ledger_record(self, results_env, capsys):
        results = results_env / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / "fig1_response_surface.txt").write_text("CONTENT\n")
        assert main(["report"]) == 0
        runs, _ = history.load_runs()
        assert runs[-1]["command"] == "report"
        assert runs[-1]["artifact"].endswith("SUMMARY.txt")


class TestBenchCli:
    def test_bench_appends_gated_ledger_record(self, results_env, capsys):
        assert main(["bench", "sampling/centered_l2", "--quick",
                     "--no-memory"]) == 0
        runs, _ = history.load_runs()
        record = runs[-1]
        assert record["command"] == "bench"
        assert record["bench_wall_s"] > 0
        assert record["gate"]["checked"] is False
        assert "BENCH_" in record["artifact"]

    def test_bench_check_records_gate_verdict(self, results_env, capsys):
        assert main(["bench", "sampling/centered_l2", "--quick", "--no-memory",
                     "--check"]) == 0
        record = history.load_runs()[0][-1]
        assert record["gate"] == {
            "checked": True, "passed": True, "violations": [],
            "baseline": str((__import__("pathlib").Path("benchmarks")
                             / "perf" / "baseline.json")),
        }


class TestExhibitLedger:
    def test_emit_appends_exhibit_record(self, results_env, capsys):
        from repro.experiments.report import emit

        path = emit("unit-history", "table body")
        runs, _ = history.load_runs()
        record = runs[-1]
        assert record["command"] == "exhibit:unit-history"
        assert record["artifact"] == str(path)
