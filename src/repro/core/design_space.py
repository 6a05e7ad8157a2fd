"""Microarchitectural design-space specification.

This module encodes step 1 of the paper's ``BuildRBFmodel`` procedure: the
selection of parameters, their ranges, the number of levels each parameter is
sampled at, and the input transformation (linear or log) applied before
modeling (the paper's Table 1).

A :class:`DesignSpace` maps *design points* (physical parameter values such
as an 8 MB L2 or a 14-cycle L2 latency) to and from the unit hypercube
``[0, 1]^n`` in which sampling and model fitting operate.  Cache sizes use a
log transform, matching the paper; everything else is linear.

Two parameters (issue-queue and load/store-queue size) are *derived*: the
design-space coordinate is a fraction of the reorder-buffer size, and the
physical queue size is resolved only when a processor configuration is built
(see :func:`DesignSpace.resolve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

LINEAR = "linear"
LOG = "log"

#: Sentinel used in the paper's Table 1 for "sample-size dependent" levels.
SAMPLE_DEPENDENT = None


@dataclass(frozen=True)
class Parameter:
    """One microarchitectural design parameter.

    Parameters
    ----------
    name:
        Identifier used in design-point dictionaries and reports.
    low, high:
        Numeric range bounds (``low < high``).  Note the paper's Table 1
        lists bounds in performance order (e.g. pipeline depth "low 24,
        high 7"); here bounds are always numeric order.
    levels:
        Number of discrete settings within the range, or ``None`` for the
        paper's *S* (sample-size dependent) entries.
    transform:
        ``"linear"`` or ``"log"`` — the input transformation applied before
        sampling and modeling (paper Table 1, last column).
    integer:
        Whether physical values are integral (rounded on decode).
    fraction_of:
        If set, this parameter is a fraction of another parameter (e.g.
        ``IQ_size = frac * ROB_size``); :func:`DesignSpace.resolve` turns the
        fraction into an absolute value.
    units:
        Display units (documentation only).
    """

    name: str
    low: float
    high: float
    levels: Optional[int]
    transform: str = LINEAR
    integer: bool = False
    fraction_of: Optional[str] = None
    units: str = ""

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"{self.name}: low ({self.low}) must be < high ({self.high})")
        if self.transform not in (LINEAR, LOG):
            raise ValueError(f"{self.name}: unknown transform {self.transform!r}")
        if self.transform == LOG and self.low <= 0:
            raise ValueError(f"{self.name}: log transform requires positive bounds")

    # -- unit-cube mapping ------------------------------------------------

    def _t(self, value: np.ndarray) -> np.ndarray:
        return np.log(value) if self.transform == LOG else np.asarray(value, dtype=float)

    def _t_inv(self, t: np.ndarray) -> np.ndarray:
        return np.exp(t) if self.transform == LOG else t

    def to_unit(self, value) -> np.ndarray:
        """Map physical values to ``[0, 1]`` through the transform."""
        t = self._t(np.asarray(value, dtype=float))
        lo, hi = self._t(np.array(self.low)), self._t(np.array(self.high))
        return (t - lo) / (hi - lo)

    def from_unit(self, u, num_levels: Optional[int] = None):
        """Map unit-cube coordinates back to physical values.

        If the parameter has a finite number of ``levels`` (or an explicit
        ``num_levels`` is given for *S* parameters), the value is snapped to
        the nearest level of an even grid in transform space.
        """
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        levels = self.levels if self.levels is not None else num_levels
        if levels is not None and levels >= 2:
            u = np.round(u * (levels - 1)) / (levels - 1)
        lo, hi = self._t(np.array(self.low)), self._t(np.array(self.high))
        value = self._t_inv(lo + u * (hi - lo))
        if self.integer:
            value = np.round(value)
        return value

    def grid(self, num_levels: Optional[int] = None) -> np.ndarray:
        """All level values of this parameter (physical units)."""
        levels = self.levels if self.levels is not None else num_levels
        if levels is None:
            raise ValueError(f"{self.name}: sample-size dependent levels; pass num_levels")
        u = np.linspace(0.0, 1.0, levels)
        return np.unique(self.from_unit(u, num_levels=levels))


class DesignSpace:
    """An ordered collection of :class:`Parameter` objects.

    Design points are represented either as dictionaries keyed by parameter
    name or as numpy arrays ordered like :attr:`names`.  All sampling and
    modeling happens in the unit cube; :meth:`decode` snaps points onto the
    parameter level grids, matching the paper's discrete design space.
    """

    def __init__(self, parameters: Sequence[Parameter], name: str = "design-space"):
        if not parameters:
            raise ValueError("a design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        for p in parameters:
            if p.fraction_of is not None and p.fraction_of not in names:
                raise ValueError(f"{p.name}: unknown base parameter {p.fraction_of!r}")
        self.parameters: List[Parameter] = list(parameters)
        self.name = name

    # -- basic introspection ----------------------------------------------

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.parameters]

    @property
    def dimension(self) -> int:
        return len(self.parameters)

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __repr__(self) -> str:
        return f"DesignSpace({self.name!r}, {self.dimension} parameters)"

    # -- point conversion ---------------------------------------------------

    def as_array(self, point: Dict[str, float]) -> np.ndarray:
        """Convert a point dictionary to an ordered value array."""
        missing = [n for n in self.names if n not in point]
        if missing:
            raise KeyError(f"point missing parameters: {missing}")
        return np.array([float(point[n]) for n in self.names])

    def as_dict(self, values: Sequence[float]) -> Dict[str, float]:
        """Convert an ordered value array to a point dictionary."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} values, got {values.shape}")
        return {n: float(v) for n, v in zip(self.names, values)}

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Map an ``(m, n)`` array of physical points to the unit cube."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cols = [p.to_unit(points[:, i]) for i, p in enumerate(self.parameters)]
        return np.column_stack(cols)

    def decode(self, unit_points: np.ndarray, num_levels: Optional[int] = None) -> np.ndarray:
        """Map unit-cube points to physical values, snapping to level grids.

        ``num_levels`` supplies the level count for the paper's *S*
        (sample-size dependent) parameters; when omitted those parameters
        stay continuous apart from integer rounding.
        """
        unit_points = np.atleast_2d(np.asarray(unit_points, dtype=float))
        cols = [
            p.from_unit(unit_points[:, i], num_levels=num_levels)
            for i, p in enumerate(self.parameters)
        ]
        return np.column_stack(cols)

    def contains(self, point: Dict[str, float]) -> bool:
        """Whether a physical point lies within all parameter ranges (to 1e-9)."""
        for p in self.parameters:
            v = point[p.name]
            if v < p.low - 1e-9 or v > p.high + 1e-9:
                return False
        return True

    # -- derived parameters --------------------------------------------------

    def resolve(self, point: Dict[str, float]) -> Dict[str, float]:
        """Resolve fraction-of parameters into absolute values.

        Returns a new dictionary in which e.g. ``iq_size`` is an absolute
        queue size computed from the fraction and the (already resolved)
        base parameter.
        """
        resolved = dict(point)
        for p in self.parameters:
            if p.fraction_of is not None:
                base = resolved[p.fraction_of]
                resolved[p.name] = max(1.0, round(point[p.name] * base))
        return resolved

    def resolve_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`resolve` over an ``(m, n)`` array of points.

        Row ``i`` of the result equals
        ``as_array(resolve(as_dict(points[i])))``: fraction-of columns are
        replaced by absolute values (``np.rint`` rounds half to even,
        matching Python's ``round``), every other column is passed
        through unchanged.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dimension:
            raise ValueError(
                f"expected {self.dimension} columns, got {points.shape[1]}"
            )
        resolved = points.copy()
        for i, p in enumerate(self.parameters):
            if p.fraction_of is not None:
                base = resolved[:, self.index(p.fraction_of)]
                resolved[:, i] = np.maximum(1.0, np.rint(points[:, i] * base))
        return resolved

    # -- random designs -----------------------------------------------------

    def random_unit_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random points in the unit cube (used for test designs)."""
        if count <= 0:
            raise ValueError("count must be positive")
        return rng.random((count, self.dimension))

    def describe(self) -> str:
        """Human-readable table of the space (mirrors the paper's Table 1)."""
        from repro.util.tables import format_table

        rows = []
        for p in self.parameters:
            levels = "S" if p.levels is None else str(p.levels)
            base = f" x {p.fraction_of}" if p.fraction_of else ""
            rows.append(
                (p.name, f"{p.low:g}{base}", f"{p.high:g}{base}", levels, p.transform, p.units)
            )
        return format_table(
            ["parameter", "low", "high", "levels", "transform", "units"],
            rows,
            title=f"Design space: {self.name}",
        )


def paper_design_space() -> DesignSpace:
    """The paper's Table 1 training design space (9 parameters)."""
    return DesignSpace(
        [
            Parameter("pipe_depth", 7, 24, 18, LINEAR, integer=True, units="stages"),
            Parameter("rob_size", 24, 128, SAMPLE_DEPENDENT, LINEAR, integer=True, units="entries"),
            Parameter("iq_frac", 0.25, 0.75, SAMPLE_DEPENDENT, LINEAR, fraction_of="rob_size"),
            Parameter("lsq_frac", 0.25, 0.75, SAMPLE_DEPENDENT, LINEAR, fraction_of="rob_size"),
            Parameter("l2_size_kb", 256, 8192, 6, LOG, integer=True, units="KB"),
            Parameter("l2_lat", 5, 20, 16, LINEAR, integer=True, units="cycles"),
            Parameter("il1_size_kb", 8, 64, 4, LOG, integer=True, units="KB"),
            Parameter("dl1_size_kb", 8, 64, 4, LOG, integer=True, units="KB"),
            Parameter("dl1_lat", 1, 4, 4, LINEAR, integer=True, units="cycles"),
        ],
        name="paper-table-1",
    )


def paper_test_space() -> DesignSpace:
    """The paper's Table 2 restricted space used to draw random test points.

    Pipeline, window and latency parameters are drawn continuously (with
    integer rounding); cache sizes snap to the hardware-realizable
    power-of-two level grids of Table 1, since a cache's set count is a
    power of two in the simulated machine (a "505 KB" L2 is not a buildable
    configuration).
    """
    return DesignSpace(
        [
            Parameter("pipe_depth", 9, 22, SAMPLE_DEPENDENT, LINEAR, integer=True, units="stages"),
            Parameter("rob_size", 37, 115, SAMPLE_DEPENDENT, LINEAR, integer=True, units="entries"),
            Parameter("iq_frac", 0.31, 0.69, SAMPLE_DEPENDENT, LINEAR, fraction_of="rob_size"),
            Parameter("lsq_frac", 0.31, 0.69, SAMPLE_DEPENDENT, LINEAR, fraction_of="rob_size"),
            Parameter("l2_size_kb", 256, 8192, 6, LOG, integer=True, units="KB"),
            Parameter("l2_lat", 7, 18, SAMPLE_DEPENDENT, LINEAR, integer=True, units="cycles"),
            Parameter("il1_size_kb", 8, 64, 4, LOG, integer=True, units="KB"),
            Parameter("dl1_size_kb", 8, 64, 4, LOG, integer=True, units="KB"),
            Parameter("dl1_lat", 1, 4, 4, LINEAR, integer=True, units="cycles"),
        ],
        name="paper-table-2",
    )
