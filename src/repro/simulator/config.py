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
        positive = (
            "pipe_depth rob_size iq_size lsq_size l2_size_kb l2_lat "
            "il1_size_kb dl1_size_kb dl1_lat fetch_width commit_width "
            "l2_capacity_scale "
            "num_ialu num_imult num_fp num_mem_ports"  # a pool needs a unit
        ).split()
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.iq_size > self.rob_size or self.lsq_size > self.rob_size:
            raise ValueError("IQ and LSQ cannot exceed the ROB size")

    @property
    def front_depth(self) -> int:
        """Front-end stage count (fetch through rename).

        The paper varies total pipeline depth; the back end is held at
        :data:`BACKEND_STAGES` stages, so extra depth lengthens the front
        end — and with it the branch-misprediction refill penalty.
        """
        return max(1, self.pipe_depth - BACKEND_STAGES)

    @classmethod
    def from_design_point(cls, point: Mapping[str, float], **fixed) -> "ProcessorConfig":
        """Build a configuration from a *resolved* design-point dictionary.

        ``point`` must use the design-space parameter names with queue
        fractions already resolved to absolute sizes (see
        :meth:`repro.core.design_space.DesignSpace.resolve`); any additional
        keyword arguments override fixed machine parameters.
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
            **fixed,
        )

    def as_dict(self) -> Dict[str, int]:
        """All fields as a plain dictionary (stable ordering)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def key(self) -> str:
        """Stable string key identifying this configuration (for caching)."""
        return ",".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
