"""Tests for branch prediction: bimodal, gshare, tournament, BTB."""

import numpy as np
import pytest

from repro.simulator.branch import (
    BTB,
    Bimodal,
    BranchUnit,
    GShare,
    PREDICT_BTB_MISS,
    PREDICT_MISPREDICT,
    PREDICT_OK,
    Tournament,
)
from repro.simulator.config import ProcessorConfig


class TestBimodal:
    def test_trains_to_bias(self):
        b = Bimodal(64)
        for _ in range(4):
            b.update(0x100, True)
        assert b.predict(0x100) is True
        for _ in range(4):
            b.update(0x100, False)
        assert b.predict(0x100) is False

    def test_counters_saturate(self):
        b = Bimodal(64)
        for _ in range(100):
            b.update(0x100, True)
        # One contrary outcome must not flip a saturated counter.
        b.update(0x100, False)
        assert b.predict(0x100) is True

    def test_distinct_pcs_independent(self):
        b = Bimodal(1024)
        b.update(0x100, True)
        b.update(0x100, True)
        b.update(0x2000, False)
        b.update(0x2000, False)
        assert b.predict(0x100) is True
        assert b.predict(0x2000) is False

    def test_pow2_required(self):
        with pytest.raises(ValueError):
            Bimodal(100)


class TestGShare:
    def test_learns_alternating_pattern(self):
        # T,N,T,N... is history-predictable; gshare should converge.
        g = GShare(1024, history_bits=4)
        outcomes = [bool(i % 2) for i in range(400)]
        wrong = 0
        for i, t in enumerate(outcomes):
            if g.predict(0x40) != t and i > 100:
                wrong += 1
            g.update(0x40, t)
        assert wrong < 10

    def test_history_shifts(self):
        g = GShare(64, history_bits=3)
        g.update(0x10, True)
        g.update(0x10, True)
        g.update(0x10, False)
        assert g._history == 0b110

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GShare(100)
        with pytest.raises(ValueError):
            GShare(64, history_bits=-1)


class TestTournament:
    def test_beats_gshare_on_biased_iid_stream(self):
        rng = np.random.default_rng(3)
        outcomes = rng.random(2000) < 0.9
        pcs = (rng.integers(0, 64, size=2000) * 24 + 0x1000)
        tour = Tournament(4096, 10)
        gsh = GShare(4096, 10)
        tour_wrong = gsh_wrong = 0
        for pc, t in zip(pcs.tolist(), outcomes.tolist()):
            if tour.predict(pc) != t:
                tour_wrong += 1
            if gsh.predict(pc) != t:
                gsh_wrong += 1
            tour.update(pc, t)
            gsh.update(pc, t)
        assert tour_wrong < gsh_wrong

    def test_accuracy_tracks_site_bias(self):
        rng = np.random.default_rng(4)
        tour = Tournament(4096, 10)
        wrong = 0
        n = 3000
        for i in range(n):
            pc = 0x100 + (i % 16) * 36
            t = bool(rng.random() < 0.92)
            if tour.predict(pc) != t:
                wrong += 1
            tour.update(pc, t)
        # 2-bit counters on a 92%-biased stream: mispredicts well below 20%.
        assert wrong / n < 0.20


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(64)
        assert btb.lookup(0x400) is False
        btb.insert(0x400)
        assert btb.lookup(0x400) is True

    def test_aliasing_eviction(self):
        btb = BTB(64)
        btb.insert(0x400)
        btb.insert(0x400 + 64 * 4)  # same index, different tag
        assert btb.lookup(0x400) is False


class TestBranchUnit:
    def _unit(self):
        return BranchUnit(ProcessorConfig())

    def test_correct_prediction_no_redirect(self):
        u = self._unit()
        # Not-taken branches predicted correctly after training.
        for _ in range(8):
            u.predict(0x500, taken=False, conditional=True)
        assert u.predict(0x500, taken=False, conditional=True) == PREDICT_OK

    def test_direction_mispredict_flagged(self):
        u = self._unit()
        outcomes = [u.predict(0x500, taken=False, conditional=True)
                    for _ in range(8)]
        outcomes.append(u.predict(0x500, taken=True, conditional=True))
        assert outcomes[-1] == PREDICT_MISPREDICT
        assert outcomes.count(PREDICT_MISPREDICT) >= 1

    def test_btb_miss_on_first_taken_jump(self):
        u = self._unit()
        assert u.predict(0x600, taken=True, conditional=False) == PREDICT_BTB_MISS
        assert u.predict(0x600, taken=True, conditional=False) == PREDICT_OK

    def test_btb_miss_not_counted_as_mispredict(self):
        u = self._unit()
        outcomes = [u.predict(0x600, taken=True, conditional=False)]
        assert outcomes.count(PREDICT_MISPREDICT) == 0
        assert outcomes.count(PREDICT_BTB_MISS) == 1

    def test_mispredict_rate_counts_conditionals_only(self):
        # Callers count a rate's mispredicts from the returned codes and
        # its branches from the op codes, so a jump, BTB miss or not, must
        # never return a mispredict.
        u = self._unit()
        outcomes = [u.predict(0x600 + 4 * (i % 4), taken=True,
                              conditional=False) for i in range(8)]
        assert outcomes.count(PREDICT_MISPREDICT) == 0
        assert outcomes.count(PREDICT_BTB_MISS) == 4
