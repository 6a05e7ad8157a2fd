"""Common interface for empirical performance models.

All models operate on *unit-cube* design coordinates produced by
:meth:`repro.core.design_space.DesignSpace.encode`; the design space owns the
physical-to-unit transformation (including the paper's log transforms for
cache sizes), so models never see raw parameter values.

Beyond the point prediction, every model can carry an
:class:`Uncertainty` calibration — residual quantiles and the training
hull measured once at fit time by :meth:`Model.calibrate` — and answer
:meth:`Model.predict_with_provenance`: the prediction plus an honest
q10–q90 band and an *extrapolation flag* for points outside the region
the training sample actually covered.  NeuroScalar-style in-the-wild
inference is only trustworthy with exactly these two signals attached,
and the model registry persists the calibration with the artifact so a
reloaded model answers with the same provenance as the freshly fitted
one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: z-value of the standard normal 90th percentile: a ``±z·sigma`` band has
#: the same 80% nominal coverage as the empirical q10–q90 band.
_Z80 = 1.2815515655446004

#: Fraction of each dimension's training span added around the hull before
#: a point counts as extrapolation — an LHS sample of size n leaves gaps of
#: order 1/n at the edges that are interpolation in any practical sense.
_HULL_MARGIN = 0.05


@dataclass(frozen=True)
class Uncertainty:
    """A model's calibration record: residual band and training hull.

    ``lower_offset``/``upper_offset`` are *signed residual quantiles*
    (q10/q90 of ``actual - predicted``): adding them to a prediction gives
    a band whose nominal coverage is 80% on data like the calibration
    sample.  ``sigma`` is the residual standard deviation (the
    residual-sigma alternative band).  ``hull_lower``/``hull_upper`` are
    the margin-expanded per-dimension training bounds; points outside are
    flagged as extrapolation, as are points farther from every RBF center
    than any training point was (``center_distance_cap``, RBF only).
    """

    kind: str  # "loo-quantile" (RBF) or "residual-sigma"
    lower_offset: float
    upper_offset: float
    sigma: float
    residual_quantiles: Tuple[float, float, float]  # q10, q50, q90
    hull_lower: Tuple[float, ...]
    hull_upper: Tuple[float, ...]
    center_distance_cap: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (persisted with registry artifacts)."""
        return {
            "kind": self.kind,
            "lower_offset": self.lower_offset,
            "upper_offset": self.upper_offset,
            "sigma": self.sigma,
            "residual_quantiles": list(self.residual_quantiles),
            "hull_lower": list(self.hull_lower),
            "hull_upper": list(self.hull_upper),
            "center_distance_cap": self.center_distance_cap,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Uncertainty":
        """Rebuild a calibration from its :meth:`as_dict` form."""
        return cls(
            kind=str(payload["kind"]),
            lower_offset=float(payload["lower_offset"]),
            upper_offset=float(payload["upper_offset"]),
            sigma=float(payload["sigma"]),
            residual_quantiles=tuple(
                float(v) for v in payload["residual_quantiles"]
            ),
            hull_lower=tuple(float(v) for v in payload["hull_lower"]),
            hull_upper=tuple(float(v) for v in payload["hull_upper"]),
            center_distance_cap=(
                None if payload.get("center_distance_cap") is None
                else float(payload["center_distance_cap"])
            ),
        )


@dataclass(frozen=True)
class Provenance:
    """One batch of predictions with uncertainty and extrapolation flags.

    ``lower``/``upper`` bound the q10–q90 band around ``values``;
    ``extrapolated[i]`` is true when point ``i`` lies outside the
    calibrated training hull (or, for RBFs, farther from every center
    than the training sample ever was) — the band is not to be trusted
    there, only the flag is.
    """

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    extrapolated: np.ndarray  # bool, per point
    kind: str

    def __len__(self) -> int:
        return len(self.values)


def design_dot(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise ``matrix · weights`` whose bits do not depend on row count.

    BLAS picks different accumulation kernels for 1-row and m-row
    matrix-vector products, so ``(Phi @ w)[i]`` and ``Phi[i:i+1] @ w`` can
    differ in the last ulp — which breaks the serving layer's contract
    that a batched prediction is *bitwise-identical* to sequential
    single-point calls.  An elementwise product followed by a per-row
    pairwise sum reduces each row independently with an order fixed by the
    row length alone, so a row's :meth:`Model.predict` value has the same
    bits whatever batch it travels in.
    """
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return (matrix * weights).sum(axis=1)


def layer_dot(activations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise ``activations @ weights`` for 2-D weights, batch-size stable.

    The MLP forward pass needs the same row-count-independent guarantee as
    :func:`design_dot` but with a ``(k, h)`` weight matrix; the expanded
    broadcast costs an ``(m, k, h)`` temporary, which is fine at the
    serving layer's scale (hidden widths of tens).
    """
    activations = np.asarray(activations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return (activations[:, :, None] * weights[None, :, :]).sum(axis=1)


def least_squares(matrix: np.ndarray,
                  y: np.ndarray) -> Tuple[np.ndarray, float]:
    """Least-squares coefficients of ``matrix @ beta ~ y`` and their SSE."""
    beta, *_ = np.linalg.lstsq(matrix, y, rcond=None)
    resid = y - matrix @ beta
    return beta, float(resid @ resid)


def _residual_band(residuals: np.ndarray) -> Tuple[float, float, float,
                                                   Tuple[float, float, float]]:
    """``(lower_offset, upper_offset, sigma, (q10, q50, q90))`` of residuals.

    The sigma band is centered on the residual *mean* so a biased model
    still gets an honest band, and widened to the empirical quantiles when
    those are wider (heavy-tailed residuals).
    """
    residuals = np.asarray(residuals, dtype=float).ravel()
    q10, q50, q90 = (float(v) for v in
                     np.quantile(residuals, [0.1, 0.5, 0.9]))
    mu = float(residuals.mean())
    sigma = float(residuals.std(ddof=1)) if len(residuals) > 1 else 0.0
    lower = min(mu - _Z80 * sigma, q10)
    upper = max(mu + _Z80 * sigma, q90)
    return lower, upper, sigma, (q10, q50, q90)


def training_hull(points: np.ndarray) -> Tuple[Tuple[float, ...],
                                               Tuple[float, ...]]:
    """Axis-aligned bounding box of a training sample, padded by :data:`_HULL_MARGIN`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    pad = (hi - lo) * _HULL_MARGIN
    return tuple(float(v) for v in lo - pad), tuple(float(v) for v in hi + pad)


class Model(abc.ABC):
    """A fitted predictor mapping unit-cube design points to a response."""

    #: Calibration attached by :meth:`calibrate` (or re-attached by
    #: :func:`repro.models.io.load_model`); ``None`` until calibrated.
    _uncertainty: Optional[Uncertainty] = None

    @abc.abstractmethod
    def predict(self, points: np.ndarray) -> np.ndarray:
        """Predict responses at ``(m, n)`` unit-cube points; returns ``(m,)``.

        The one prediction path, for a single point and a 10k-point batch
        alike: every family validates its points with :meth:`_as_points`,
        and ``predict(points)[i] == predict(points[i:i+1])[0]`` exactly
        (:func:`design_dot`, :func:`layer_dot`).
        """

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.predict(points)

    @property
    def uncertainty(self) -> Optional[Uncertainty]:
        """The attached calibration, or ``None`` when never calibrated."""
        return self._uncertainty

    def attach_uncertainty(self, uncertainty: Optional[Uncertainty]) -> None:
        """Attach a (possibly persisted) calibration record verbatim."""
        self._uncertainty = uncertainty

    def diagnostics(self) -> Dict[str, Any]:
        """Structural diagnostics of the fitted model (JSON-serialisable).

        Every family overrides this with its own structure numbers
        (centers, terms, layers, leaves); the model card embeds the result
        verbatim.  The base implementation reports only what the interface
        guarantees.
        """
        return {"family": type(self).__name__}

    def calibrate(self, points: np.ndarray,
                  responses: np.ndarray) -> Uncertainty:
        """Measure residual quantiles and the training hull; attach them.

        The default calibration uses *training* residuals with a
        residual-sigma band (widened to the empirical q10/q90 when those
        are wider); :class:`~repro.models.rbf.RBFNetwork` overrides this
        with exact leave-one-out residuals, which do not share the
        training fit's optimism.  Returns the attached
        :class:`Uncertainty`.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        responses = np.asarray(responses, dtype=float).ravel()
        residuals = responses - self.predict(points)
        lower, upper, sigma, quantiles = _residual_band(residuals)
        hull_lo, hull_hi = training_hull(points)
        self._uncertainty = Uncertainty(
            kind="residual-sigma",
            lower_offset=lower,
            upper_offset=upper,
            sigma=sigma,
            residual_quantiles=quantiles,
            hull_lower=hull_lo,
            hull_upper=hull_hi,
        )
        return self._uncertainty

    def _extrapolation_flags(self, points: np.ndarray,
                             unc: Uncertainty) -> np.ndarray:
        """Out-of-training-hull flags; families may add their own signal."""
        lo = np.asarray(unc.hull_lower, dtype=float)
        hi = np.asarray(unc.hull_upper, dtype=float)
        return ((points < lo) | (points > hi)).any(axis=1)

    def predict_with_provenance(self, points: np.ndarray) -> Provenance:
        """Predictions with the calibrated q10–q90 band and hull flags.

        Requires a prior :meth:`calibrate` (done automatically by
        ``repro build`` and persisted with registered artifacts); raises
        :class:`RuntimeError` otherwise rather than inventing a band.
        The values are :meth:`predict`'s own — provenance is computed
        *around* the prediction, never inside it.
        """
        unc = self._uncertainty
        if unc is None:
            raise RuntimeError(
                "model is not calibrated; call calibrate(points, responses) "
                "or load a registered artifact carrying its calibration"
            )
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = self.predict(points)
        return Provenance(
            values=values,
            lower=values + unc.lower_offset,
            upper=values + unc.upper_offset,
            extrapolated=self._extrapolation_flags(points, unc),
            kind=unc.kind,
        )

    @staticmethod
    def _as_points(points: np.ndarray, dimension: int) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != dimension:
            raise ValueError(
                f"expected points of shape (m, {dimension}), got {points.shape}"
            )
        return points
