"""Tests for processor configuration and the power-proxy model."""

import pytest

from repro.core.design_space import paper_design_space
from repro.simulator.config import BACKEND_STAGES, ProcessorConfig
from repro.simulator.hierarchy import MemoryHierarchy
from repro.simulator.power import estimate_energy, structure_capacity_kb
from repro.simulator.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES

#: ``ProcessorConfig().key()``: every field name and default, sorted.
DEFAULT_KEY = (
    "bpred_entries=4096,bpred_history=10,bpred_kind=tournament,btb_entries=2048,"
    "bus_cycles=8,commit_width=4,dl1_assoc=4,dl1_lat=2,dl1_line=64,dl1_size_kb=32,"
    "dram_banks=8,dram_lat=120,dram_row_hit_lat=60,enable_nextline_prefetch=False,"
    "enable_stride_prefetch=False,enable_tlb=False,fetch_width=4,il1_assoc=2,"
    "il1_line=64,il1_size_kb=32,iq_size=32,l2_assoc=8,l2_capacity_scale=2,l2_lat=12,"
    "l2_line=128,l2_size_kb=1024,lsq_size=32,mc_queue_depth=16,num_fp=2,num_ialu=4,"
    "num_imult=1,num_mem_ports=2,perfect_branch_prediction=False,perfect_dcache=False,"
    "perfect_icache=False,pipe_depth=12,prefetch_degree=2,rob_size=64,tlb_entries=64,"
    "tlb_walk_lat=30,writeback=False"
)


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

    @pytest.mark.parametrize("field, overrides", [
        ("il1_line", {"il1_line": 48}),
        ("dl1_line", {"dl1_line": 48}),
        ("l2_line", {"l2_line": 96}),
        ("bpred_entries", {"bpred_entries": 1000}),
        ("btb_entries", {"btb_entries": 0}),
        ("il1_assoc", {"il1_assoc": 0}),
        ("dl1_assoc", {"dl1_assoc": 0}),
        ("l2_assoc", {"l2_assoc": 0}),
        ("dram_banks", {"dram_banks": 0}),
        ("bus_cycles", {"bus_cycles": 0}),
        ("mc_queue_depth", {"mc_queue_depth": 0}),
        ("prefetch_degree", {"prefetch_degree": 0, "enable_stride_prefetch": True}),
        ("bpred_history", {"bpred_history": -1}),
        ("bpred_kind", {"bpred_kind": "tage"}),
        ("dram_row_hit_lat", {"dram_row_hit_lat": 121}),
        ("il1_size_kb", {"il1_size_kb": 1, "il1_assoc": 32}),
        ("dl1_size_kb", {"dl1_size_kb": 1, "dl1_line": 128, "dl1_assoc": 16}),
        # 16 KB nominal holds 128 lines of 128 B, but the simulated L2 is
        # the 8 KB floor, which holds 64.
        ("l2_size_kb", {"l2_size_kb": 16, "l2_assoc": 128}),
    ])
    def test_unbuildable_machine_names_its_field(self, field, overrides):
        with pytest.raises(ValueError, match=field):
            ProcessorConfig(**overrides)

    @pytest.mark.parametrize("l2_size_kb, scale", [(16, 2), (1024, 2), (256, 64)])
    def test_hierarchy_builds_the_simulated_l2(self, l2_size_kb, scale):
        config = ProcessorConfig(l2_size_kb=l2_size_kb, l2_capacity_scale=scale)
        assert config.l2_simulated_kb == max(8, l2_size_kb // scale)
        l2 = MemoryHierarchy(config).l2
        assert l2.size_bytes == config.l2_simulated_kb * 1024

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

    def test_key_stable_and_distinct(self):
        a = ProcessorConfig(rob_size=64)
        b = ProcessorConfig(rob_size=64)
        c = ProcessorConfig(rob_size=65)
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_default_key_pinned(self):
        assert ProcessorConfig().key() == DEFAULT_KEY, (
            "ProcessorConfig's fields or defaults changed: perfbench build_cold "
            "pins a cpi_hash over {config.key(): cpi}, so it fails even when no "
            "CPI moves; change the fields only with a re-based benchmark")

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
