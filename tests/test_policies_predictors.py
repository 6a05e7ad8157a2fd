"""Tests for LRU cache replacement and the predictor-family option."""

import pytest

from repro.simulator.branch import (
    Bimodal,
    GShare,
    Perceptron,
    Tournament,
    make_direction_predictor,
)
from repro.simulator.cache import Cache
from repro.simulator.config import ProcessorConfig
from repro.simulator.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES


class TestReplacementPolicies:
    def test_lru_thrashes_on_cyclic_sweep(self):
        # The textbook LRU pathology: a cyclic working set slightly larger
        # than the cache misses on every access.
        c = Cache(1, 64, 2)  # 16-line cache
        for _ in range(4):
            for i in range(24):
                c.access(i * 64)
        assert c.miss_rate == 1.0


class TestPredictorFamilies:
    TRACE = generate_trace(PROFILES["crafty"], 6000, seed=12)

    def test_factory_dispatch(self):
        assert isinstance(make_direction_predictor(
            ProcessorConfig(bpred_kind="bimodal")), Bimodal)
        assert isinstance(make_direction_predictor(
            ProcessorConfig(bpred_kind="gshare")), GShare)
        assert isinstance(make_direction_predictor(
            ProcessorConfig(bpred_kind="tournament")), Tournament)
        assert isinstance(make_direction_predictor(
            ProcessorConfig(bpred_kind="perceptron")), Perceptron)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_direction_predictor(ProcessorConfig(bpred_kind="tage"))

    @pytest.mark.parametrize("kind", ["bimodal", "gshare", "tournament", "perceptron"])
    def test_all_kinds_simulate(self, kind):
        result = simulate(ProcessorConfig(bpred_kind=kind), self.TRACE)
        assert 0.0 <= result.branch_mispredict_rate <= 1.0
        assert result.cpi > 0

    def test_tournament_at_least_matches_gshare(self):
        gshare = simulate(ProcessorConfig(bpred_kind="gshare"), self.TRACE)
        tour = simulate(ProcessorConfig(bpred_kind="tournament"), self.TRACE)
        assert tour.branch_mispredict_rate <= gshare.branch_mispredict_rate + 0.02


class TestPerceptron:
    def test_learns_bias(self):
        p = Perceptron(64, history_bits=8)
        for _ in range(50):
            p.update(0x400, True)
        assert p.predict(0x400) is True

    def test_learns_alternating_pattern(self):
        p = Perceptron(64, history_bits=8)
        wrong = 0
        for i in range(600):
            t = bool(i % 2)
            if i > 200 and p.predict(0x400) != t:
                wrong += 1
            p.update(0x400, t)
        assert wrong < 20

    def test_weights_saturate(self):
        p = Perceptron(64, history_bits=4)
        for _ in range(10_000):
            p.update(0x400, True)
        w = p._weights[(0x400 >> 2) & (64 - 1)]
        assert all(abs(v) <= 127 for v in w)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Perceptron(100)
        with pytest.raises(ValueError):
            Perceptron(64, history_bits=0)
