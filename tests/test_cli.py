"""Tests for the command-line interface."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.cli import _parse_overrides, build_parser, main
from repro.util.store import read_jsonl


class TestParseOverrides:
    def test_ints_and_floats(self):
        out = _parse_overrides(["l2_lat=18", "iq_size=32"])
        assert out == {"l2_lat": 18, "iq_size": 32}

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["l2_lat"])

    def test_non_numeric(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["l2_lat=big"])


class TestCommands:
    def test_experiments_lists_all_exhibits(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exhibit in ("Figure 1", "Figure 7", "Table 3", "Table 5"):
            assert exhibit in out

    def test_benchmarks_lists_workloads(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "181.mcf" in out and "188.ammp" in out

    def test_simulate_prints_cpi(self, capsys):
        code = main(["simulate", "twolf", "l2_lat=18", "--trace-length", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cpi" in out

    def test_simulate_rejects_bad_override(self):
        with pytest.raises(SystemExit):
            main(["simulate", "twolf", "l2_lat=-3", "--trace-length", "2000"])

    def test_simulate_rejects_unknown_field(self):
        with pytest.raises(SystemExit):
            main(["simulate", "twolf", "warp_factor=9", "--trace-length", "2000"])

    def test_simulate_rejects_unbuildable_machine_by_field(self, tmp_path):
        # A 48-byte line is a machine the simulator cannot build: the
        # config names the field before any run, with no traceback.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
                   REPRO_RESULTS_DIR=str(tmp_path / "results"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "mcf", "dl1_line=48",
             "--trace-length", "256"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert "bad configuration: dl1_line" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_build_small_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main([
            "build", "twolf", "--sample-size", "20", "--test-points", "10",
            "--trace-length", "2000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "gcc"])

    def test_stacks_prints_exact_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["stacks", "mcf", "--trace-length", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPI stacks" in out
        for component in ("base", "branch_redirect", "dram", "total"):
            assert component in out

    def test_stacks_json_sweep_and_intervals(self, capsys, tmp_path,
                                             monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        intervals_path = tmp_path / "iv.jsonl"
        code = main([
            "stacks", "twolf", "pipe_depth=7,24", "--trace-length", "512",
            "--interval", "128", "--intervals", str(intervals_path),
            "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "twolf"
        assert set(doc["stacks"]) == {"pipe_depth=7", "pipe_depth=24"}
        for stack in doc["stacks"].values():
            assert sum(stack["components"].values()) == stack["cycles"]
        # One interval stream per swept configuration.
        written = sorted(tmp_path.glob("iv*.jsonl"))
        assert len(written) == 2
        (header, *records), _ = read_jsonl(written[0])
        assert header["kind"] == "cpi_intervals"
        # Intervals tile the measured (post-warmup) region of the run.
        measured = doc["stacks"]["pipe_depth=7"]["instructions"]
        assert sum(r["instructions"] for r in records) == measured

    def test_stacks_intervals_create_a_fresh_results_root(self, tmp_path,
                                                           monkeypatch):
        root = tmp_path / "fresh" / "results"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(root))
        assert main(["stacks", "mcf", "--trace-length", "512",
                     "--intervals"]) == 0
        (header, *records), skipped = read_jsonl(root / "stacks-mcf.jsonl")
        assert header["kind"] == "cpi_intervals"
        assert records and not skipped

    def test_closed_stdout_ends_without_a_traceback(self, tmp_path):
        # ``repro trace summary t.jsonl | head -1``, made deterministic: the
        # pipe's read end is closed before the command writes anything.
        with obs.collecting() as collector:
            for i in range(200):
                with obs.span(f"stage-{i}"):
                    pass
        trace = obs.write_trace(collector, tmp_path / "trace.jsonl")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "trace", "summary",
                 str(trace)],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr.decode()
        assert proc.returncode == 1

    def test_sigterm_ends_a_build_like_ctrl_c(self, tmp_path):
        # ``kill -TERM`` mid-build, made deterministic: the child signals
        # itself as its fifth simulation starts.
        script = textwrap.dedent("""\
            import os, signal, sys
            from repro.cli import main
            from repro.simulator.simulator import Simulator
            run, calls = Simulator.run, []
            def run_then_terminate(self, *args, **kwargs):
                calls.append(None)
                if len(calls) == 5:
                    os.kill(os.getpid(), signal.SIGTERM)
                return run(self, *args, **kwargs)
            Simulator.run = run_then_terminate
            sys.exit(main(sys.argv[1:]))
            """)
        results, trace = tmp_path / "results", tmp_path / "build.jsonl"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
                   REPRO_RESULTS_DIR=str(results),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run(
            [sys.executable, "-c", script, "build", "--benchmark", "mcf",
             "--sample-size", "12", "--test-points", "4",
             "--trace-length", "512", f"--trace={trace}"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 143, proc.stderr
        assert "Traceback" not in proc.stderr
        manifest = obs.read_manifest(results / "manifest.json")
        assert manifest["error"] == "Terminated"
        records, _ = read_jsonl(results / "history" / "runs.jsonl")
        assert records[-1]["error"] == "Terminated"
        (root,) = obs.read_trace(trace).roots
        assert (root.name, root.attrs["error"]) == ("repro/build", "Terminated")
        # The four finished simulations are in the trace, error-free.
        simulated = [child for span in root.walk()
                     if span.name == "simulate_batch"
                     for child in span.children]
        assert [s.name for s in simulated] == ["simulate"] * 4
        assert not any("error" in s.attrs for s in simulated)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestReport:
    def test_report_aggregates_results(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        (tmp_path / "fig1_response_surface.txt").write_text("FIG1 CONTENT\n")
        (tmp_path / "ablation_sampling.txt").write_text("ABLATION CONTENT\n")
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "FIG1 CONTENT" in out
        assert "ABLATION CONTENT" in out
        assert "missing exhibits" in out  # others not generated
        assert (tmp_path / "SUMMARY.txt").exists()

    def test_report_with_no_results(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "nothing"))
        assert main(["report"]) == 1
