"""Renderer tests for the experiment modules not covered elsewhere."""

import numpy as np
import pytest

from repro.analysis.splits import SignificantSplit
from repro.analysis.trends import TrendGrid
from repro.experiments import (
    fig3_network,
    fig5_split_values,
    fig6_trend_prediction,
    table5_significant_splits,
)
from repro.models.rbf import RBFNetwork


class TestFig3Render:
    def test_render_lists_structure(self):
        net = RBFNetwork(
            centers=np.full((3, 9), 0.5),
            radii=np.full((3, 9), 1.0),
            weights=np.array([1.0, -0.5, 2.0]),
        )
        result = fig3_network.Fig3Result(benchmark="mcf", network=net,
                                         sample_size=200)
        text = fig3_network.render(result)
        assert "9 design parameters" in text
        assert "3 Gaussian radial basis functions" in text
        assert result.inputs == 9
        assert result.hidden_units == 3


class TestFig5Render:
    def test_render_shows_significant_and_total(self):
        dist = {"l2_lat": [10.0, 12.0], "rob_size": [64.0], "iq_frac": []}
        sig = {"l2_lat": [10.0], "rob_size": [], "iq_frac": []}
        result = fig5_split_values.Fig5Result(
            benchmark="mcf", distribution=dist, significant=sig, total_splits=3,
        )
        text = fig5_split_values.render(result)
        assert "l2_lat" in text
        assert "3 splits total" in text
        assert result.significant_counts()["l2_lat"] == 1


class TestFig6Render:
    def test_render_includes_both_series(self):
        grid = TrendGrid(
            param_x="l2_lat", param_y="il1_size_kb",
            x_values=[5.0, 20.0], y_values=[8.0],
            simulated=np.array([[1.0, 2.0]]),
            predicted=np.array([[1.1, 1.9]]),
        )
        result = fig6_trend_prediction.Fig6Result(
            benchmark="vortex", grid=grid,
            monotonic_agreement=grid.monotonic_agreement(),
            max_trend_error=grid.max_trend_error(),
        )
        text = fig6_trend_prediction.render(result)
        assert "sim" in text and "prd" in text
        assert "100%" in text  # both move up


class TestTable5Render:
    def _split(self, rank, parameter, value, frac=False):
        return SignificantSplit(rank=rank, parameter=parameter, value=value,
                                depth=rank, is_fraction=frac)

    def test_render_and_overlap(self):
        splits = {
            "mcf": [self._split(1, "l2_lat", 11.5),
                    self._split(2, "l2_size_kb", 370 * 1024 / 1024)],
        }
        result = table5_significant_splits.Table5Result(splits=splits,
                                                        sample_size=200)
        text = table5_significant_splits.render(result)
        assert "mcf" in text and "l2_lat" in text
        # Overlap vs the paper's mcf split set.
        assert result.overlap_with_paper("mcf") > 0

    def test_value_labels(self):
        assert self._split(1, "iq_frac", 0.34, frac=True).value_label() == "0.34*"
        assert "MB" in self._split(1, "l2_size_kb", 2048.0).value_label()
        assert self._split(1, "l2_lat", 11.5).value_label() == "11.5"

    def test_unknown_benchmark_full_overlap(self):
        result = table5_significant_splits.Table5Result(
            splits={"gzip": [self._split(1, "l2_lat", 10.0)]}, sample_size=200,
        )
        assert result.overlap_with_paper("gzip") == 1.0
