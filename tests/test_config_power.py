"""Tests for processor configuration and the power-proxy model."""

import pytest

from repro.core.design_space import paper_design_space
from repro.simulator.config import BACKEND_STAGES, ProcessorConfig
from repro.simulator.power import estimate_energy, structure_capacity_kb
from repro.simulator.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES


class TestConfig:
    def test_defaults_valid(self):
        ProcessorConfig()

    def test_front_depth(self):
        assert ProcessorConfig(pipe_depth=12).front_depth == 12 - BACKEND_STAGES
        assert ProcessorConfig(pipe_depth=7).front_depth == 3

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ProcessorConfig(pipe_depth=0)
        with pytest.raises(ValueError):
            ProcessorConfig(rob_size=-1)
        with pytest.raises(ValueError):
            ProcessorConfig(rob_size=16, iq_size=32)

    @pytest.mark.parametrize("scale", [0, -1])
    def test_l2_capacity_scale_must_be_positive(self, scale):
        # 0 would divide by zero in the first run's hierarchy and -1 would
        # silently simulate the 8 KB floor L2.
        with pytest.raises(ValueError, match="l2_capacity_scale"):
            ProcessorConfig(l2_capacity_scale=scale)

    def test_from_design_point(self):
        space = paper_design_space()
        point = space.resolve({
            "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.25,
            "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
            "dl1_size_kb": 32, "dl1_lat": 2,
        })
        config = ProcessorConfig.from_design_point(point)
        assert config.iq_size == 32
        assert config.lsq_size == 16

    def test_from_design_point_overrides_fixed(self):
        space = paper_design_space()
        point = space.resolve({
            "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
            "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
            "dl1_size_kb": 32, "dl1_lat": 2,
        })
        config = ProcessorConfig.from_design_point(point, fetch_width=8)
        assert config.fetch_width == 8

    def test_key_stable_and_distinct(self):
        a = ProcessorConfig(rob_size=64)
        b = ProcessorConfig(rob_size=64)
        c = ProcessorConfig(rob_size=65)
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_as_dict_round(self):
        d = ProcessorConfig().as_dict()
        assert d["rob_size"] == 64
        assert "l2_capacity_scale" in d

    def test_frozen(self):
        with pytest.raises(Exception):
            ProcessorConfig().rob_size = 10


class TestPower:
    def test_structure_capacity_grows_with_sizes(self):
        small = structure_capacity_kb(ProcessorConfig(rob_size=24, iq_size=12,
                                                      lsq_size=12, l2_size_kb=256))
        large = structure_capacity_kb(ProcessorConfig(rob_size=128, iq_size=64,
                                                      lsq_size=64, l2_size_kb=8192))
        assert large > small

    def test_zero_instructions_zero_energy(self):
        stats = {"il1_accesses": 0, "dl1_accesses": 0, "l2_accesses": 0,
                 "memory_requests": 0}
        assert estimate_energy(ProcessorConfig(), 0, 0.0, stats, 0) == 0.0

    def test_energy_positive_for_real_run(self):
        trace = generate_trace(PROFILES["twolf"], 2000, seed=1)
        result = simulate(ProcessorConfig(), trace)
        assert result.energy > 0
        assert result.power > 0

    def test_bigger_caches_cost_leakage(self):
        trace = generate_trace(PROFILES["twolf"], 2000, seed=1)
        small = simulate(ProcessorConfig(l2_size_kb=256), trace)
        large = simulate(ProcessorConfig(l2_size_kb=8192), trace)
        # The big L2 must pay more leakage energy per cycle.
        assert large.power > small.power

    def test_power_cpi_tradeoff_exists(self):
        # Power and CPI move in opposite directions with L2 size: the
        # extension experiment's premise.
        trace = generate_trace(PROFILES["mcf"], 2000, seed=1)
        small = simulate(ProcessorConfig(l2_size_kb=256), trace)
        large = simulate(ProcessorConfig(l2_size_kb=8192), trace)
        assert large.cpi <= small.cpi + 1e-9
        assert large.power > small.power


class TestSimResult:
    def test_ipc(self):
        trace = generate_trace(PROFILES["twolf"], 1000, seed=2)
        result = simulate(ProcessorConfig(), trace)
        assert result.ipc == pytest.approx(1.0 / result.cpi)

    def test_as_dict_contains_extras(self):
        trace = generate_trace(PROFILES["twolf"], 1000, seed=2)
        result = simulate(ProcessorConfig(), trace)
        d = result.as_dict()
        assert "cpi" in d and "il1_accesses" in d

    def test_invalid_construction(self):
        from repro.simulator.metrics import SimResult

        with pytest.raises(ValueError):
            SimResult(cpi=-1.0, cycles=10, instructions=5)
        with pytest.raises(ValueError):
            SimResult(cpi=1.0, cycles=10, instructions=-1)
