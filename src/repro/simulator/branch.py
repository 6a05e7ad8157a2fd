"""Branch direction and target prediction.

Direction prediction uses a McFarling-style tournament predictor: a
PC-indexed bimodal table (fast-training, captures per-site bias), a gshare
component (global history XOR-folded with the PC, captures correlated
patterns), and a PC-indexed chooser that learns which component to trust per
branch.  Target prediction uses a direct-mapped branch target buffer (BTB);
a taken control transfer whose target is absent from the BTB redirects the
front end just like a direction misprediction.  Unconditional jumps
mispredict only on BTB misses.
"""

from __future__ import annotations

from repro.simulator.config import ProcessorConfig


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class GShare:
    """Gshare direction predictor with 2-bit saturating counters."""

    __slots__ = ("entries", "history_bits", "_table", "_history", "_mask")

    def __init__(self, entries: int = 4096, history_bits: int = 10):
        if not _is_pow2(entries):
            raise ValueError("entries must be a power of two")
        if history_bits < 0:
            raise ValueError("history_bits must be >= 0")
        self.entries = entries
        self.history_bits = history_bits
        self._table = bytearray([2] * entries)  # initialised weakly taken
        self._history = 0
        self._mask = entries - 1

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter and shift the global history."""
        idx = self._index(pc)
        ctr = self._table[idx]
        if taken:
            if ctr < 3:
                self._table[idx] = ctr + 1
        else:
            if ctr > 0:
                self._table[idx] = ctr - 1
        self._history = ((self._history << 1) | int(taken)) & ((1 << self.history_bits) - 1)


class Bimodal:
    """PC-indexed table of 2-bit saturating counters.

    Trains within a few occurrences of each static branch, capturing
    per-site direction bias; the tournament chooser falls back to it when
    global history carries no signal.
    """

    __slots__ = ("entries", "_table", "_mask")

    def __init__(self, entries: int = 4096):
        if not _is_pow2(entries):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._table = bytearray([2] * entries)
        self._mask = entries - 1

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        ctr = self._table[idx]
        if taken:
            if ctr < 3:
                self._table[idx] = ctr + 1
        else:
            if ctr > 0:
                self._table[idx] = ctr - 1


class Tournament:
    """McFarling-style tournament: bimodal + gshare with a PC-indexed chooser.

    The chooser counter moves toward whichever component was correct when
    the two disagree (>= 2 selects gshare).
    """

    __slots__ = ("bimodal", "gshare", "_chooser", "_mask")

    def __init__(self, entries: int = 4096, history_bits: int = 10):
        self.bimodal = Bimodal(entries)
        self.gshare = GShare(entries, history_bits)
        self._chooser = bytearray([1] * entries)  # weakly prefer bimodal
        self._mask = entries - 1

    def predict(self, pc: int) -> bool:
        if self._chooser[(pc >> 2) & self._mask] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        p_bim = self.bimodal.predict(pc)
        p_gsh = self.gshare.predict(pc)
        if p_bim != p_gsh:
            idx = (pc >> 2) & self._mask
            ctr = self._chooser[idx]
            if p_gsh == taken:
                if ctr < 3:
                    self._chooser[idx] = ctr + 1
            else:
                if ctr > 0:
                    self._chooser[idx] = ctr - 1
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)


class Perceptron:
    """Perceptron branch predictor (Jimenez & Lin, HPCA 2001).

    One small integer weight vector per PC-indexed table entry; the
    prediction is the sign of the dot product of the weights with the
    (bipolar) global history plus a bias weight.  Trains on mispredictions
    or when the output magnitude is below the threshold.  Included as a
    substrate extension for the predictor-family ablation — it captures
    longer history correlations than 2-bit-counter schemes at similar
    storage.
    """

    __slots__ = ("entries", "history_bits", "_weights", "_history", "_mask",
                 "_threshold")

    def __init__(self, entries: int = 256, history_bits: int = 12):
        if not _is_pow2(entries):
            raise ValueError("entries must be a power of two")
        if history_bits < 1:
            raise ValueError("history_bits must be >= 1")
        self.entries = entries
        self.history_bits = history_bits
        # weights[i][0] is the bias; the rest pair with history bits.
        self._weights = [[0] * (history_bits + 1) for _ in range(entries)]
        self._history = [1] * history_bits  # bipolar history (+1 taken)
        self._mask = entries - 1
        # Optimal threshold from the paper: 1.93 * h + 14.
        self._threshold = int(1.93 * history_bits + 14)

    def _output(self, pc: int) -> int:
        w = self._weights[(pc >> 2) & self._mask]
        y = w[0]
        hist = self._history
        for i in range(self.history_bits):
            y += w[i + 1] * hist[i]
        return y

    def predict(self, pc: int) -> bool:
        return self._output(pc) >= 0

    def update(self, pc: int, taken: bool) -> None:
        y = self._output(pc)
        predicted = y >= 0
        t = 1 if taken else -1
        if predicted != taken or abs(y) <= self._threshold:
            w = self._weights[(pc >> 2) & self._mask]
            limit = 127  # 8-bit saturating weights
            w[0] = max(-limit, min(limit, w[0] + t))
            hist = self._history
            for i in range(self.history_bits):
                w[i + 1] = max(-limit, min(limit, w[i + 1] + t * hist[i]))
        self._history.pop(0)
        self._history.append(t)


class BTB:
    """Direct-mapped branch target buffer (tag-match only; targets implicit)."""

    __slots__ = ("entries", "_tags", "_mask")

    def __init__(self, entries: int = 512):
        if not _is_pow2(entries):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._tags = [-1] * entries
        self._mask = entries - 1

    def lookup(self, pc: int) -> bool:
        idx = (pc >> 2) & self._mask
        return self._tags[idx] == pc

    def insert(self, pc: int) -> None:
        self._tags[(pc >> 2) & self._mask] = pc


#: Outcomes of :meth:`BranchUnit.predict`.
PREDICT_OK = 0  # no front-end disturbance
PREDICT_BTB_MISS = 1  # direction right, target unknown: short fetch bubble
PREDICT_MISPREDICT = 2  # direction wrong: redirect at branch resolution


def make_direction_predictor(config: ProcessorConfig):
    """Build the configured direction predictor (``bpred_kind``)."""
    kind = config.bpred_kind
    if kind == "bimodal":
        return Bimodal(config.bpred_entries)
    if kind == "gshare":
        return GShare(config.bpred_entries, config.bpred_history)
    if kind == "tournament":
        return Tournament(config.bpred_entries, config.bpred_history)
    if kind == "perceptron":
        # Perceptron entries are ~weights-vector sized; scale the table so
        # total storage stays comparable to the counter-based schemes.
        entries = max(64, config.bpred_entries // 16)
        return Perceptron(entries, history_bits=max(config.bpred_history, 8))
    raise ValueError(f"unknown bpred_kind {kind!r}")


class BranchUnit:
    """Front-end branch prediction: direction + target."""

    def __init__(self, config: ProcessorConfig):
        self.predictor = make_direction_predictor(config)
        self.btb = BTB(config.btb_entries)

    def predict(self, pc: int, taken: bool, conditional: bool) -> int:
        """Predict and train on one control instruction.

        Returns one of :data:`PREDICT_OK` (fall through),
        :data:`PREDICT_BTB_MISS` (taken transfer whose target was not in
        the BTB -- a short fetch bubble while the target is computed), or
        :data:`PREDICT_MISPREDICT` (wrong direction -- the front end
        restarts when the branch resolves).
        """
        outcome = PREDICT_OK
        if conditional:
            predicted = self.predictor.predict(pc)
            self.predictor.update(pc, taken)
            if predicted != taken:
                outcome = PREDICT_MISPREDICT
        if taken:
            if outcome == PREDICT_OK and not self.btb.lookup(pc):
                outcome = PREDICT_BTB_MISS
            self.btb.insert(pc)
        return outcome
