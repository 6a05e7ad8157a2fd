"""Concrete lint rules.

Importing this package registers every rule in :data:`repro.lint.core.RULES`.
Each module groups the rules of one contract area:

* :mod:`repro.lint.rules.rng` — reproducibility (RNG001)
* :mod:`repro.lint.rules.numerics` — numerical stability (NUM001, NUM002)
* :mod:`repro.lint.rules.design_space` — design-space names (DS001)
* :mod:`repro.lint.rules.registry_sync` — exhibit registry drift (REG001)
* :mod:`repro.lint.rules.api` — API hygiene (API001, API002)
* :mod:`repro.lint.rules.obs` — the seam table (OBS001, OBS002, OBS003,
  OBS005, OBS006) and async serving (OBS004)
* :mod:`repro.lint.rules.semantic` — whole-program semantic passes
  (DET001, MUT001, PAR001)
"""

from repro.lint.rules import (
    api,
    design_space,
    numerics,
    obs,
    registry_sync,
    rng,
    semantic,
)

__all__ = ["api", "design_space", "numerics", "obs", "registry_sync", "rng",
           "semantic"]
