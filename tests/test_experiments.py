"""Tests for the experiment registry and render plumbing.

Heavy experiment *data* generation is exercised by the benchmark harness
(``benchmarks/``); here the registry completeness and all the render/
summary logic are tested on small or synthetic inputs.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.trends import TrendGrid
from repro.core.validation import ErrorReport
from repro.experiments import (
    fig1_response_surface,
    fig2_discrepancy,
    fig4_error_vs_sample_size,
    fig7_linear_vs_rbf,
    table3_error_diagnostics,
    table4_rbf_diagnostics,
)
from repro.experiments.registry import EXPERIMENTS
from repro.models.rbf import RBFBuildInfo

REPO_ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS_DIR = REPO_ROOT / "src" / "repro" / "experiments"


class TestRegistry:
    def test_every_paper_exhibit_present(self):
        exhibits = {e.exhibit for e in EXPERIMENTS.values()}
        # The paper's ten exhibits plus the repo's own CPI-stacks exhibit.
        assert exhibits == {
            "Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
            "Figure 6", "Figure 7", "Table 3", "Table 4", "Table 5",
            "CPI stacks",
        }

    def test_bench_files_exist(self):
        for exp in EXPERIMENTS.values():
            assert (REPO_ROOT / exp.bench).exists(), exp.bench

    def test_modules_importable(self):
        import importlib

        for exp in EXPERIMENTS.values():
            module = importlib.import_module(exp.module)
            assert hasattr(module, "run")
            assert hasattr(module, "render")

    def test_every_exhibit_module_is_registered(self):
        # An unregistered exhibit module silently stops being regenerated.
        registered = {exp.module.rsplit(".", 1)[-1]
                      for exp in EXPERIMENTS.values()}
        exhibits = {path.stem for pattern in ("fig*.py", "table*.py")
                    for path in EXPERIMENTS_DIR.glob(pattern)}
        assert exhibits and exhibits <= registered

    def test_every_harness_is_registered(self):
        registered = {Path(exp.bench).name for exp in EXPERIMENTS.values()}
        harnesses = {path.name for pattern in ("test_fig*.py", "test_table*.py")
                     for path in (REPO_ROOT / "benchmarks").glob(pattern)}
        assert harnesses and harnesses <= registered


class TestRenderers:
    def test_fig1_render(self):
        grid = TrendGrid(
            param_x="l2_lat", param_y="il1_size_kb",
            x_values=[5.0, 20.0], y_values=[8.0, 64.0],
            simulated=np.array([[1.0, 2.0], [1.0, 1.4]]),
        )
        result = fig1_response_surface.Fig1Result(
            grid=grid, l2_lat_cost_small_il1=1.0,
            l2_lat_cost_large_il1=0.4, interaction_ratio=2.5,
        )
        text = fig1_response_surface.render(result)
        assert "Figure 1" in text
        assert "2.50x" in text

    def test_fig2_render(self):
        result = fig2_discrepancy.Fig2Result(
            curve=[(30, 0.5), (90, 0.38), (200, 0.35)], knee=90.0,
        )
        text = fig2_discrepancy.render(result)
        assert "knee" in text
        assert "~90" in text

    def test_fig4_render_and_taper(self):
        series = {
            "mcf": [
                (30, ErrorReport(6.0, 20.0, 4.0, 50)),
                (90, ErrorReport(3.0, 10.0, 2.0, 50)),
                (200, ErrorReport(2.8, 9.0, 2.0, 50)),
            ]
        }
        result = fig4_error_vs_sample_size.Fig4Result(series=series)
        pre, post = fig4_error_vs_sample_size.tapering(result, "mcf")
        assert pre > post  # improvement tapers
        assert "mcf" in fig4_error_vs_sample_size.render(result)

    def test_table3_averages(self):
        reports = {
            "mcf": ErrorReport(2.0, 10.0, 1.5, 50),
            "twolf": ErrorReport(4.0, 12.0, 2.0, 50),
        }
        result = table3_error_diagnostics.Table3Result(reports=reports, sample_size=200)
        assert result.average_mean_error == pytest.approx(3.0)
        assert result.worst_max_error == pytest.approx(12.0)
        assert "Average" in table3_error_diagnostics.render(result)

    def test_table4_centers_check(self):
        def info(m):
            return RBFBuildInfo(
                p_min=1, alpha=6.0, criterion_name="aicc", criterion_value=0.0,
                sse=1.0, num_candidates=50, num_centers=m, tree_depth=5,
            )

        good = table4_rbf_diagnostics.Table4Result("mcf", [(30, info(12)), (200, info(70))])
        assert good.centers_below_half()
        bad = table4_rbf_diagnostics.Table4Result("mcf", [(30, info(20))])
        assert not bad.centers_below_half()
        assert "Table 4" in table4_rbf_diagnostics.render(good)

    def test_fig7_summaries(self):
        series = {"mcf": [(30, 8.0, 4.0), (200, 6.5, 2.1)]}
        result = fig7_linear_vs_rbf.Fig7Result(series=series)
        assert result.rbf_wins("mcf") == 2
        assert result.final_gap("mcf") == pytest.approx(6.5 / 2.1)
        assert "linear" in fig7_linear_vs_rbf.render(result).lower()


class TestSharedModels:
    def test_rbf_model_builds_and_calibrates(self, tmp_path, monkeypatch):
        """The memoised model every RBF exhibit starts from, end to end on a
        small sample and a short trace."""
        from repro.experiments import common
        from repro.experiments.runner import SimulationRunner

        common.clear_memos()
        monkeypatch.setattr(common, "TEST_POINTS", 6)
        monkeypatch.setitem(common._runners, "mcf", SimulationRunner(
            "mcf", trace_length=256, cache_dir=tmp_path))
        try:
            result = common.rbf_model("mcf", 10)
            assert result.sample_size == 10
            assert result.model.uncertainty is not None
            assert result.errors is not None and result.errors.count == 6
            assert common.rbf_model("mcf", 10) is result
        finally:
            common.clear_memos()


class TestSummary:
    def test_collect_reports_missing(self, tmp_path):
        from repro.experiments.summary import collect

        sections, missing = collect(tmp_path)
        assert sections == []
        assert len(missing) == len(EXPERIMENTS)

    def test_write_summary_roundtrip(self, tmp_path):
        from repro.experiments.summary import write_summary

        (tmp_path / "table3_error_diagnostics.txt").write_text("T3\n")
        path = write_summary(tmp_path)
        text = path.read_text()
        assert "T3" in text
        assert "exhibits present: 1" in text
