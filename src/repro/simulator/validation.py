"""Cross-simulator trend validation (paper Sec. 3 methodology).

The paper verified its simulator by validating *trends in the summary
statistics* against an independently implemented simulator (alphasim) at
several points in the design space.  :func:`validate_trends` automates the
same check between the detailed engine and the reference model: sweep one
parameter at a time, and verify that when the detailed simulator's CPI
moves, the reference model's CPI moves in the same direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.design_space import DesignSpace
from repro.core.validation import trend_agreement
from repro.simulator.config import ProcessorConfig
from repro.simulator.refsim import ReferenceSimulator
from repro.simulator.simulator import Simulator
from repro.simulator.trace import Trace


@dataclass
class TrendReport:
    """Agreement between two simulators along one parameter sweep."""

    parameter: str
    values: List[float]
    detailed_cpi: List[float]
    reference_cpi: List[float]

    @property
    def agreement(self) -> float:
        """Fraction of sweep steps where both CPIs move the same way.

        Steps where the detailed CPI barely moves (< 0.5% relative) count
        as agreeing (:func:`repro.core.validation.trend_agreement`).
        """
        return trend_agreement(self.detailed_cpi, self.reference_cpi)


def sweep_parameter(
    space: DesignSpace,
    base_point: Dict[str, float],
    parameter: str,
    values: Sequence[float],
    trace: Trace,
) -> TrendReport:
    """Sweep one parameter, simulating with both engines at each value."""
    detailed: List[float] = []
    reference: List[float] = []
    for value in values:
        point = dict(base_point)
        point[parameter] = value
        resolved = space.resolve(point)
        config = ProcessorConfig.from_design_point(resolved)
        detailed.append(Simulator(config).run(trace).cpi)
        reference.append(ReferenceSimulator(config).run(trace).cpi)
    return TrendReport(
        parameter=parameter,
        values=list(values),
        detailed_cpi=detailed,
        reference_cpi=reference,
    )


def validate_trends(
    space: DesignSpace,
    base_point: Dict[str, float],
    trace: Trace,
    sweeps: Dict[str, Sequence[float]],
) -> List[TrendReport]:
    """Run all requested sweeps; see :class:`TrendReport` for scoring."""
    return [
        sweep_parameter(space, base_point, parameter, values, trace)
        for parameter, values in sweeps.items()
    ]
