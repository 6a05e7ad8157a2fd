"""Regression-tree split analysis (paper Table 5 and Figure 5).

The order in which the regression tree bifurcates the design space exposes
which parameters drive a program's performance: *"the parameters which
cause the most output variation tend to be split earliest and most
often"*.  Table 5 reports the earliest splits for mcf and vortex; Figure 5
histograms the parameter values at which mcf's tree splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.design_space import DesignSpace
from repro.models.tree import RegressionTree, Split


@dataclass(frozen=True)
class SignificantSplit:
    """One reported tree split, in physical units."""

    rank: int  # 1-based position in breadth-first (earliest-first) order
    parameter: str
    value: float  # physical split boundary
    depth: int
    is_fraction: bool  # True for the IQ/LSQ fraction-of-ROB parameters

    def value_label(self) -> str:
        """Table 5 style rendering (fractions shown as ``0.34*``)."""
        if self.is_fraction:
            return f"{self.value:.2f}*"
        if self.value >= 1024 and not self.is_fraction:
            return f"{self.value / 1024:.2f}MB"
        return f"{self.value:.1f}"


def _split_value_physical(space: DesignSpace, dimension: int, unit_value: float) -> float:
    """Decode a unit-cube split boundary to physical units (no snapping).

    Split boundaries fall between parameter levels, so they must not be
    snapped onto the level grid (the paper reports e.g. ``370KB`` and
    ``11.5`` — off-grid values).
    """
    param = space.parameters[dimension]
    return float(param._t_inv(
        param._t(param.low) + unit_value * (param._t(param.high) - param._t(param.low))
    ))


def significant_splits(
    tree: RegressionTree, space: DesignSpace, count: int = 8
) -> List[SignificantSplit]:
    """The earliest ``count`` splits of ``tree``, in physical units."""
    out = []
    for rank, split in enumerate(tree.splits()[:count], start=1):
        param = space.parameters[split.dimension]
        out.append(
            SignificantSplit(
                rank=rank,
                parameter=param.name,
                value=_split_value_physical(space, split.dimension, split.value),
                depth=split.depth,
                is_fraction=param.fraction_of is not None,
            )
        )
    return out


def split_value_distribution(
    splits: Iterable[Split], space: DesignSpace
) -> Dict[str, List[float]]:
    """The boundary values of ``splits`` per parameter, in physical units
    (Fig. 5); pass ``tree.splits()`` for all of a tree's splits.

    Parameters that never split are present with empty lists, so the
    distribution also shows which parameters the tree considers
    insignificant.
    """
    values: Dict[str, List[float]] = {p.name: [] for p in space.parameters}
    for split in splits:
        param = space.parameters[split.dimension]
        values[param.name].append(
            _split_value_physical(space, split.dimension, split.value)
        )
    return values
