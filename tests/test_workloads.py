"""Tests for workload profiles, trace generation and the registry."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import isa
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES, WorkloadProfile
from repro.workloads.spec2000 import (
    DEFAULT_TRACE_LENGTH,
    benchmark_names,
    get_profile,
    get_trace,
    spec_label,
)


class TestProfiles:
    def test_all_eight_benchmarks_present(self):
        assert set(benchmark_names()) == set(PROFILES)
        assert len(PROFILES) == 8

    def test_profiles_validate(self):
        for profile in PROFILES.values():
            assert profile.code_footprint_kb > 0

    def test_mix_fractions_must_sum_below_one(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", load_frac=0.6, store_frac=0.5)

    def test_stream_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", stack_w=0.5, hot_w=0.5, stream_w=0.5, chase_w=0.5)

    def test_bias_range(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", branch_bias=0.3)

    def test_distinct_characters(self):
        # The profiles must differ where the paper's programs differ.
        mcf, vortex, equake = PROFILES["mcf"], PROFILES["vortex"], PROFILES["equake"]
        assert mcf.chase_w > vortex.chase_w  # mcf is pointer-chasing
        assert vortex.code_footprint_kb > mcf.code_footprint_kb  # vortex big code
        assert equake.fpalu_frac > 0 and mcf.fpalu_frac == 0
        assert equake.branch_bias > PROFILES["crafty"].branch_bias


class TestGeneration:
    def test_requested_length(self):
        trace = generate_trace(PROFILES["mcf"], 5000, seed=1)
        assert len(trace) == 5000

    def test_traces_validate(self):
        for name in benchmark_names():
            generate_trace(PROFILES[name], 3000, seed=2).validate()

    def test_deterministic(self):
        a = generate_trace(PROFILES["twolf"], 2000, seed=9)
        b = generate_trace(PROFILES["twolf"], 2000, seed=9)
        np.testing.assert_array_equal(a.op, b.op)
        np.testing.assert_array_equal(a.addr, b.addr)

    def test_seeds_differ(self):
        a = generate_trace(PROFILES["twolf"], 2000, seed=9)
        b = generate_trace(PROFILES["twolf"], 2000, seed=10)
        assert not np.array_equal(a.addr, b.addr)

    def test_benchmarks_decorrelated_under_same_seed(self):
        a = generate_trace(PROFILES["mcf"], 2000, seed=0)
        b = generate_trace(PROFILES["twolf"], 2000, seed=0)
        assert not np.array_equal(a.op, b.op)

    def test_mix_close_to_profile(self):
        # Op classes are assigned to *static* slots; the dynamic mix then
        # depends on which blocks are hot, so tolerances are loose.
        profile = PROFILES["mcf"]
        trace = generate_trace(profile, 20000, seed=3)
        mix = trace.mix()
        assert mix["load"] == pytest.approx(profile.load_frac, rel=0.3)
        assert mix["store"] == pytest.approx(profile.store_frac, rel=0.45)
        control = mix["branch"] + mix["jump"]
        assert control == pytest.approx(1.0 / profile.mean_block_len, rel=0.35)

    def test_fp_mix_present_for_fp_benchmarks(self):
        mix = generate_trace(PROFILES["equake"], 10000, seed=1).mix()
        assert mix["fpalu"] > 0.1

    def test_code_footprint_respected(self):
        profile = PROFILES["vortex"]
        trace = generate_trace(profile, 20000, seed=4)
        span_kb = (trace.pc.max() - trace.pc.min()) / 1024.0
        assert span_kb == pytest.approx(profile.code_footprint_kb, rel=0.4)

    def test_branch_outcomes_biased(self):
        profile = PROFILES["equake"]  # highly predictable
        trace = generate_trace(profile, 20000, seed=5)
        branch_mask = trace.op == isa.BRANCH
        # Group outcomes by site: dominant-direction fraction should be
        # close to the profile bias.
        pcs = trace.pc[branch_mask]
        taken = trace.taken[branch_mask]
        fractions = []
        for pc in np.unique(pcs)[:50]:
            outcomes = taken[pcs == pc]
            if len(outcomes) >= 10:
                fractions.append(max(outcomes.mean(), 1 - outcomes.mean()))
        assert np.mean(fractions) > 0.9

    def test_trace_bytes_pinned(self):
        # Every byte of a trace feeds every pinned simulation result, so a
        # change to synthesis shows here first: sha256 (first 16 hex) over
        # the dtype and bytes of the six arrays.
        pinned = {
            (4096, 0): {
                "mcf": "99cbbf33b3a4d258", "crafty": "b1951b1ee9292f1c",
                "parser": "74852f60f9999f05", "perlbmk": "d15a5be131d5c67b",
                "vortex": "24f4b2d20d2b86de", "twolf": "bbdcb4234a7b298c",
                "equake": "0f71ba89fc5ce81a", "ammp": "62acbff9ae1894b1",
            },
            (2048, 42): {
                "mcf": "50cfa8061ee33956", "crafty": "b44ad998905c2114",
                "parser": "445be8011b970413", "perlbmk": "75545f0058f6597a",
                "vortex": "b9f9b60c9d2f4b5a", "twolf": "1c71b1dc9a930e36",
                "equake": "8d690b3c2553a896", "ammp": "fa7701e55903e413",
            },
        }

        def digest(trace):
            h = hashlib.sha256()
            for arr in (trace.op, trace.src1, trace.src2, trace.addr, trace.pc,
                        trace.taken):
                h.update(arr.dtype.str.encode())
                h.update(arr.tobytes())
            return h.hexdigest()[:16]

        observed = {
            (length, seed): {name: digest(generate_trace(PROFILES[name], length, seed))
                             for name in benchmark_names()}
            for length, seed in pinned
        }
        assert observed == pinned

    def test_zero_length(self):
        trace = generate_trace(PROFILES["mcf"], 0, seed=0)
        assert len(trace) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(PROFILES["mcf"], -1, seed=0)

    @settings(max_examples=10, deadline=None)
    @given(
        length=st.integers(1, 3000),
        seed=st.integers(0, 50),
        name=st.sampled_from(benchmark_names()),
    )
    def test_any_length_and_seed_yields_valid_trace(self, length, seed, name):
        trace = generate_trace(PROFILES[name], length, seed)
        trace.validate()
        assert len(trace) == length


class TestRegistry:
    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("linpack")

    def test_extra_profiles_available(self):
        from repro.workloads.spec2000 import all_benchmark_names, extra_benchmark_names

        extras = extra_benchmark_names()
        assert {"gzip", "gcc", "bzip2", "art"} <= set(extras)
        assert set(all_benchmark_names()) == set(benchmark_names()) | set(extras)
        for name in extras:
            profile = get_profile(name)
            generate_trace(profile, 1500, seed=1).validate()

    def test_get_trace_memoised(self):
        a = get_trace("mcf", 1000, seed=0)
        b = get_trace("mcf", 1000, seed=0)
        assert a is b

    def test_spec_labels(self):
        assert spec_label("mcf") == "181.mcf"
        assert spec_label("unknown") == "unknown"

    def test_default_length(self):
        assert DEFAULT_TRACE_LENGTH >= 16384
