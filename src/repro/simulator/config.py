"""Processor configuration: the 9 design parameters plus fixed machine state.

A :class:`ProcessorConfig` is the meeting point between the modeling side
(design points over the paper's Table 1 space) and the simulator.  The nine
variable parameters are exactly the paper's; everything else (widths,
functional-unit counts, associativities, DRAM timing, predictor sizes) is
fixed, mirroring how the paper holds the rest of the machine constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping

#: Number of back-end stages (issue/execute/writeback/commit) assumed when
#: splitting ``pipe_depth`` into front-end and back-end portions.
BACKEND_STAGES = 4

#: The direction predictors ``bpred_kind`` can name.
BPRED_KINDS = ("bimodal", "gshare", "tournament", "perceptron")

#: Fields that count something the machine must have at least one of.
_POSITIVE = (
    "pipe_depth rob_size iq_size lsq_size l2_size_kb l2_lat "
    "il1_size_kb dl1_size_kb dl1_lat fetch_width commit_width "
    "il1_assoc dl1_assoc l2_assoc l2_capacity_scale "
    "dram_banks bus_cycles mc_queue_depth prefetch_degree tlb_entries "
    "num_ialu num_imult num_fp num_mem_ports"  # a pool needs a unit
).split()

#: Fields that size an index or a line, so must be powers of two.
_POW2 = ("il1_line", "dl1_line", "l2_line", "bpred_entries", "btb_entries")


def _is_pow2(x: int) -> bool:
    """Whether ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class ProcessorConfig:
    """Full configuration of the simulated superscalar processor.

    The first nine fields are the paper's design parameters (Table 1), with
    the issue-queue and load/store-queue sizes already resolved from
    fractions of the ROB size to absolute entry counts.
    """

    # -- the 9 design parameters -----------------------------------------
    pipe_depth: int = 12
    rob_size: int = 64
    iq_size: int = 32
    lsq_size: int = 32
    l2_size_kb: int = 1024
    l2_lat: int = 12
    il1_size_kb: int = 32
    dl1_size_kb: int = 32
    dl1_lat: int = 2

    # -- fixed machine parameters ------------------------------------------
    fetch_width: int = 4
    commit_width: int = 4
    il1_assoc: int = 2
    il1_line: int = 64
    dl1_assoc: int = 4
    dl1_line: int = 64
    l2_assoc: int = 8
    l2_line: int = 128
    # Capacity scaling for the simulated L2 (see DESIGN.md): traces here are
    # MinneSPEC-style reductions of full benchmark runs, so the L2 is
    # simulated at 1/2 of its nominal capacity to keep the capacity-to-
    # working-set ratio — and with it the L2-size response shape — faithful
    # to full-length runs on a full-size L2.
    l2_capacity_scale: int = 2
    dram_lat: int = 120  # row-miss access latency at the device
    dram_row_hit_lat: int = 60
    dram_banks: int = 8
    bus_cycles: int = 8  # memory-bus occupancy per cache-line transfer
    mc_queue_depth: int = 16  # memory-controller queue entries
    bpred_entries: int = 4096  # direction-predictor table entries
    bpred_history: int = 10
    bpred_kind: str = "tournament"  # bimodal | gshare | tournament | perceptron
    btb_entries: int = 2048
    num_ialu: int = 4
    num_imult: int = 1
    num_fp: int = 2
    num_mem_ports: int = 2

    # -- substrate extensions (all OFF in the paper reproduction) ----------
    # These exist for the substrate-ablation experiments; the 9-parameter
    # study keeps them disabled so the machine matches the paper's.
    enable_nextline_prefetch: bool = False  # L1I next-line prefetcher
    enable_stride_prefetch: bool = False  # PC-indexed data stride prefetcher
    prefetch_degree: int = 2
    enable_tlb: bool = False  # ITLB/DTLB with page-walk penalty
    tlb_entries: int = 64
    tlb_walk_lat: int = 30
    writeback: bool = False  # dirty-line writeback traffic

    # -- idealisation switches (for CPI-stack / bottleneck analysis) -------
    # Counterfactual machines: each switch removes one class of stalls so
    # its contribution to CPI can be measured by differencing.
    perfect_branch_prediction: bool = False  # no redirects, ever
    perfect_dcache: bool = False  # every load/store hits the D-L1
    perfect_icache: bool = False  # every fetch hits the L1I

    def __post_init__(self) -> None:
        """Reject any machine the simulator cannot build, naming the field."""
        for name in _POSITIVE:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in _POW2:
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.tlb_walk_lat < 0:
            raise ValueError("tlb_walk_lat must be non-negative")
        if self.bpred_history < 0:
            raise ValueError("bpred_history must be non-negative")
        if self.bpred_kind not in BPRED_KINDS:
            raise ValueError(f"bpred_kind must be one of {', '.join(BPRED_KINDS)}, "
                             f"not {self.bpred_kind!r}")
        if self.dram_row_hit_lat > self.dram_lat:
            raise ValueError("dram_row_hit_lat cannot exceed dram_lat")
        if self.iq_size > self.rob_size or self.lsq_size > self.rob_size:
            raise ValueError("IQ and LSQ cannot exceed the ROB size")
        for level, size_kb in (("il1", self.il1_size_kb), ("dl1", self.dl1_size_kb),
                               ("l2", self.l2_simulated_kb)):
            assoc = getattr(self, f"{level}_assoc")
            if size_kb * 1024 // getattr(self, f"{level}_line") < assoc:
                raise ValueError(f"{level}_size_kb holds fewer lines than "
                                 f"{level}_assoc={assoc} (simulated at {size_kb} KB)")

    @property
    def l2_simulated_kb(self) -> int:
        """The L2 KB the simulator builds: nominal / ``l2_capacity_scale``, at least 8."""
        return max(8, self.l2_size_kb // self.l2_capacity_scale)

    @property
    def front_depth(self) -> int:
        """Front-end stage count (fetch through rename).

        The paper varies total pipeline depth; the back end is held at
        :data:`BACKEND_STAGES` stages, so extra depth lengthens the front
        end — and with it the branch-misprediction refill penalty.
        """
        return max(1, self.pipe_depth - BACKEND_STAGES)

    @classmethod
    def from_design_point(cls, point: Mapping[str, float]) -> "ProcessorConfig":
        """Build a configuration from a *resolved* design-point dictionary.

        ``point`` must use the design-space parameter names with queue
        fractions already resolved to absolute sizes (see
        :meth:`repro.core.design_space.DesignSpace.resolve`); every fixed
        machine parameter keeps its default.
        """
        return cls(
            pipe_depth=int(round(point["pipe_depth"])),
            rob_size=int(round(point["rob_size"])),
            iq_size=int(round(point["iq_frac"])),
            lsq_size=int(round(point["lsq_frac"])),
            l2_size_kb=int(round(point["l2_size_kb"])),
            l2_lat=int(round(point["l2_lat"])),
            il1_size_kb=int(round(point["il1_size_kb"])),
            dl1_size_kb=int(round(point["dl1_size_kb"])),
            dl1_lat=int(round(point["dl1_lat"])),
        )

    def as_dict(self) -> Dict[str, int]:
        """All fields as a plain dictionary (stable ordering)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def key(self) -> str:
        """Stable string key identifying this configuration (for caching)."""
        return ",".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
