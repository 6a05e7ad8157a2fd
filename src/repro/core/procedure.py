"""The paper's ``BuildRBFmodel`` procedure (Sec. 1, steps 1-6).

Given a design space and a response function (detailed simulation), the
procedure:

1. takes the design space as given (step 1 is the caller's choice of
   parameters);
2. selects a discrepancy-optimised latin hypercube sample (step 2);
3. evaluates the response at the sampled points (step 3 — the expensive
   simulations);
4. builds an RBF network model, grid-searching the method parameters
   ``p_min`` and ``alpha`` for the lowest AICc (step 4);
5. estimates accuracy on an independent random test set (step 5);
6. repeats with increasing sample sizes until a target accuracy is reached
   (step 6, :meth:`BuildRBFModel.build_until`).

The response function receives *physical* design points ``(m, n)`` in the
space's parameter order and returns the simulated responses ``(m,)``; the
procedure handles all unit-cube encoding internally, training models on the
snapped coordinates actually simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.design_space import DesignSpace
from repro.core.validation import ErrorReport, prediction_errors
from repro.models.rbf import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_P_MIN_GRID,
    RBFSearchResult,
    search_rbf_model,
)
from repro.sampling.optimizer import OptimizedSample, best_lhs_sample

ResponseFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class ModelBuildResult:
    """Everything produced by one pass of the procedure at one sample size."""

    sample_size: int
    sample: OptimizedSample
    unit_points: np.ndarray  # snapped unit-cube coordinates actually used
    physical_points: np.ndarray
    responses: np.ndarray
    search: RBFSearchResult
    errors: Optional[ErrorReport] = None

    @property
    def model(self):
        return self.search.network

    @property
    def info(self):
        return self.search.info

    def predict_physical(self, space: DesignSpace, points: np.ndarray) -> np.ndarray:
        """Predict at physical points (encodes with the training space)."""
        return self.model.predict(space.encode(points))


@dataclass
class BuildRBFModel:
    """Configured instance of the paper's model-building procedure.

    Parameters
    ----------
    space:
        The training design space (the paper's Table 1).
    response_fn:
        Maps physical design points to responses (detailed simulation; CPI
        in the paper).
    seed:
        Root seed for sampling.
    lhs_candidates:
        How many LHS candidates to generate per sample (best by
        discrepancy wins).
    p_min_grid, alpha_grid:
        Method-parameter grids searched for the lowest AICc.
    criterion:
        Model selection criterion (``aicc`` per the paper).
    """

    space: DesignSpace
    response_fn: ResponseFn
    seed: int = 0
    lhs_candidates: int = 64
    p_min_grid: Sequence[int] = DEFAULT_P_MIN_GRID
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID
    criterion: str = "aicc"
    max_candidates: int = 255

    def sample_points(self, sample_size: int) -> OptimizedSample:
        """Step 2: the discrepancy-optimised LHS sample for this size."""
        return best_lhs_sample(
            self.space, sample_size, self.seed, candidates=self.lhs_candidates
        )

    def build(
        self,
        sample_size: int,
        test_points: Optional[np.ndarray] = None,
        test_responses: Optional[np.ndarray] = None,
    ) -> ModelBuildResult:
        """Steps 2-5 for one sample size.

        ``test_points`` are *physical* points; when provided together with
        ``test_responses``, the result carries an :class:`ErrorReport`.
        """
        with obs.span("build", sample_size=sample_size, seed=self.seed) as bsp:
            with obs.span("sample", candidates=self.lhs_candidates) as ssp:
                sample = self.sample_points(sample_size)
                ssp.set(discrepancy=sample.discrepancy)
            physical = self.space.decode(sample.points, num_levels=sample_size)
            unit = self.space.encode(physical)
            with obs.span("simulate", points=sample_size):
                responses = np.asarray(
                    self.response_fn(physical), dtype=float
                ).ravel()
            if len(responses) != sample_size:
                raise ValueError(
                    f"response_fn returned {len(responses)} values for "
                    f"{sample_size} points"
                )
            with obs.span("fit", criterion=self.criterion) as fsp:
                search = search_rbf_model(
                    unit,
                    responses,
                    p_min_grid=self.p_min_grid,
                    alpha_grid=self.alpha_grid,
                    criterion=self.criterion,
                    max_candidates=self.max_candidates,
                )
                fsp.set(p_min=search.info.p_min, alpha=search.info.alpha,
                        centers=search.info.num_centers,
                        criterion_value=search.info.criterion_value)
            result = ModelBuildResult(
                sample_size=sample_size,
                sample=sample,
                unit_points=unit,
                physical_points=physical,
                responses=responses,
                search=search,
            )
            if test_points is not None and test_responses is not None:
                with obs.span("validate", points=len(test_points)) as vsp:
                    predicted = result.predict_physical(self.space, test_points)
                    result.errors = prediction_errors(test_responses, predicted)
                    vsp.set(mean_error=result.errors.mean,
                            max_error=result.errors.max)
                bsp.set(mean_error=result.errors.mean)
        return result

    def build_until(
        self,
        sizes: Sequence[int],
        test_points: np.ndarray,
        test_responses: np.ndarray,
        target_mean_error: Optional[float] = None,
    ) -> List[ModelBuildResult]:
        """Step 6: grow the sample until the desired accuracy is reached.

        Runs :meth:`build` at each size in ``sizes`` (ascending) and stops
        early once the mean test error drops below ``target_mean_error``
        (never stops early when the target is ``None``).
        """
        results: List[ModelBuildResult] = []
        with obs.span("build_until", sizes=list(sizes),
                      target=target_mean_error) as sp:
            for size in sizes:
                with obs.span("step", sample_size=size) as step:
                    result = self.build(size, test_points, test_responses)
                    results.append(result)
                    if result.errors is None:
                        # Not an assert: control flow must survive ``python -O``.
                        raise RuntimeError(
                            f"build({size}) produced no error report; "
                            "build_until requires test_points and "
                            "test_responses"
                        )
                    # The per-step AICc/error trajectory the paper's step 6
                    # decision walks down.
                    step.set(aicc=result.info.criterion_value,
                             centers=result.info.num_centers,
                             mean_error=result.errors.mean)
                    obs.observe("build_until/mean_error", result.errors.mean)
                    obs.observe("build_until/aicc", result.info.criterion_value)
                if (target_mean_error is not None
                        and result.errors.mean <= target_mean_error):
                    break
            sp.set(steps=len(results))
        return results
