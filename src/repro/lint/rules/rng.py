"""RNG001 — no module-level (global-state) random-number calls.

Every stochastic component must thread an explicitly seeded
:class:`numpy.random.Generator` (see :func:`repro.util.rng.make_rng`).
Calls into the legacy global-state APIs — ``np.random.random()``,
``np.random.seed()``, ``random.random()``, ... — silently couple
components through hidden global state and make runs order-dependent,
which breaks the seeded-LHS / deterministic-simulation discipline the
paper's statistics rest on.

Constructing generators is fine: ``np.random.default_rng(seed)``,
``np.random.Generator``, bit generators, and ``random.Random(seed)`` all
produce self-contained, explicitly seeded state.
"""

from __future__ import annotations

import ast

from repro.lint.core import VisitorRule, attribute_chain, register
from repro.lint.semantic.summary import NP_RANDOM_ALLOWED

#: stdlib ``random`` module functions that operate on the hidden global
#: generator.  ``random.Random`` (the class) is allowed.
_STDLIB_RANDOM_BANNED = frozenset({
    "random", "seed", "randint", "randrange", "getrandbits", "uniform",
    "choice", "choices", "shuffle", "sample", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "paretovariate", "weibullvariate", "vonmisesvariate", "triangular",
    "binomialvariate", "randbytes",
})


@register
class GlobalRngRule(VisitorRule):
    """Forbid calls through the module-level RNG state."""

    id = "RNG001"
    title = "module-level RNG call; thread a seeded np.random.Generator"
    rationale = (
        "Global RNG state makes results depend on call order and on other "
        "components; reproducible experiments require explicitly seeded "
        "generators passed as arguments (repro.util.rng.make_rng)."
    )

    def visit_Call(self, node: ast.Call) -> None:
        chain = attribute_chain(node.func)
        if chain is not None:
            self._check_chain(node, chain)
        self.generic_visit(node)

    def _check_chain(self, node: ast.Call, chain: tuple) -> None:
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        if (len(chain) == 3 and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] not in NP_RANDOM_ALLOWED):
            self.report(
                node,
                f"call to np.random.{chain[2]} uses the global NumPy RNG; "
                "thread an explicit np.random.Generator "
                "(repro.util.rng.make_rng) instead",
            )
        # random.<fn>(...) on the stdlib module-level generator
        elif (len(chain) == 2 and chain[0] == "random"
                and chain[1] in _STDLIB_RANDOM_BANNED):
            self.report(
                node,
                f"call to random.{chain[1]} uses the hidden stdlib RNG; "
                "use an explicitly seeded generator instead",
            )
