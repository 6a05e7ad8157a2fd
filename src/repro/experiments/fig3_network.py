"""Figure 3: the structure of the RBF network.

The paper's Figure 3 is a schematic — an input layer reading the n design
parameters, a hidden layer of m radial basis functions, and a linear
additive output layer.  This exhibit renders the *actual* trained network
for mcf: layer sizes, the weight/center/radius of every hidden unit, and a
summary of where the selected centers sit in the design space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.experiments import common
from repro.models.rbf import RBFNetwork
from repro.util.tables import format_table

BENCHMARK = "mcf"
SAMPLE_SIZE = 200


@dataclass
class Fig3Result:
    benchmark: str
    network: RBFNetwork
    sample_size: int

    @property
    def inputs(self) -> int:
        return self.network.dimension

    @property
    def hidden_units(self) -> int:
        return self.network.num_centers


def run() -> Fig3Result:
    """Fetch the trained network for the benchmark/size."""
    result = common.rbf_model(BENCHMARK, SAMPLE_SIZE)
    return Fig3Result(benchmark=BENCHMARK, network=result.model,
                      sample_size=SAMPLE_SIZE)


def render(result: Fig3Result) -> str:
    """Plain-text rendering of the network structure (Fig. 3)."""
    net = result.network
    space = common.training_space()
    lines: List[str] = [
        f"Figure 3: RBF network structure (trained for {result.benchmark}, "
        f"n={result.sample_size})",
        f"  input layer : {net.dimension} design parameters "
        f"({', '.join(space.names)})",
        f"  hidden layer: {net.num_centers} Gaussian radial basis functions",
        "  output layer: linear additive combination (Eq. 1)",
        "",
    ]
    # Largest-|weight| units, decoded to physical centers.
    order = np.argsort(-np.abs(net.weights))[:6]
    rows = []
    for j in order:
        phys = space.decode(net.centers[j][None, :])[0]
        center_txt = ", ".join(
            f"{name}={v:.3g}" for name, v in zip(space.names, phys)
        )
        rows.append((int(j), f"{net.weights[j]:+.3f}",
                     f"{net.radii[j].mean():.2f}", center_txt[:72]))
    lines.append(format_table(
        ["unit", "weight", "mean radius", "center (physical, decoded)"],
        rows,
        title="Highest-weight hidden units",
    ))
    return "\n".join(lines)
