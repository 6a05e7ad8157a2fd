"""Model serialization: save fitted models, reload them anywhere.

A fitted model is the valuable artifact of the whole procedure — hundreds
of simulations distilled into a few kilobytes.  This module round-trips
the model families through plain JSON (no pickle, so files are portable,
diffable and safe to load), with a format version and the design-space
parameter names recorded for sanity checks at load time.

Format version 2 adds the ``tree`` family and an optional ``uncertainty``
payload (the :class:`~repro.models.base.Uncertainty` calibration attached
by ``Model.calibrate``), so a reloaded model answers
``predict_with_provenance`` exactly like the freshly fitted one.  Version-1
files load unchanged.  JSON floats round-trip exactly (shortest-repr), so
save→load→predict is bitwise-identical to the in-memory model — the
property :mod:`tests.test_model_io` pins for all five families.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.models.base import Model, Uncertainty
from repro.models.linear import LinearInteractionModel, Term
from repro.models.mlp import MLPModel
from repro.models.rbf import RBFNetwork
from repro.models.spline import Hinge, SplineModel, SplineTerm
from repro.models.tree import RegressionTree
from repro.util.store import write_atomic

FORMAT_VERSION = 2

#: Versions :func:`load_model` accepts (v1 files predate tree/uncertainty).
SUPPORTED_VERSIONS = (1, 2)

AnyModel = Union[RBFNetwork, LinearInteractionModel, SplineModel, MLPModel,
                 RegressionTree]


def model_family(model: Model) -> str:
    """Short family name (``rbf``/``linear``/``spline``/``mlp``/``tree``)."""
    if isinstance(model, RBFNetwork):
        return "rbf"
    if isinstance(model, LinearInteractionModel):
        return "linear"
    if isinstance(model, SplineModel):
        return "spline"
    if isinstance(model, MLPModel):
        return "mlp"
    if isinstance(model, RegressionTree):
        return "tree"
    raise TypeError(f"cannot serialise model of type {type(model).__name__}")


def _encode(model: AnyModel) -> dict:
    if isinstance(model, RBFNetwork):
        return {
            "family": "rbf",
            "centers": model.centers.tolist(),
            "radii": model.radii.tolist(),
            "weights": model.weights.tolist(),
        }
    if isinstance(model, LinearInteractionModel):
        return {
            "family": "linear",
            "dimension": model.dimension,
            "terms": [list(t.dims) for t in model.terms],
            "coefficients": model.coefficients.tolist(),
        }
    if isinstance(model, SplineModel):
        return {
            "family": "spline",
            "dimension": model.dimension,
            "terms": [
                [[h.dimension, h.knot, h.sign] for h in t.hinges]
                for t in model.terms
            ],
            "coefficients": model.coefficients.tolist(),
        }
    if isinstance(model, MLPModel):
        return {
            "family": "mlp",
            "dimension": model.dimension,
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
            "y_mean": model.y_mean,
            "y_std": model.y_std,
        }
    if isinstance(model, RegressionTree):
        # A tree is a deterministic function of (points, responses, p_min);
        # storing the sample and rebuilding reproduces it exactly, keeps
        # the file human-readable and avoids a recursive node encoding.
        return {
            "family": "tree",
            "points": model.points.tolist(),
            "responses": model.responses.tolist(),
            "p_min": model.p_min,
        }
    raise TypeError(f"cannot serialise model of type {type(model).__name__}")


def _decode(payload: dict) -> AnyModel:
    family = payload.get("family")
    if family == "rbf":
        return RBFNetwork(
            np.array(payload["centers"]),
            np.array(payload["radii"]),
            np.array(payload["weights"]),
        )
    if family == "linear":
        terms = [Term(tuple(dims)) for dims in payload["terms"]]
        return LinearInteractionModel(
            terms, np.array(payload["coefficients"]), payload["dimension"]
        )
    if family == "spline":
        terms = [
            SplineTerm(tuple(Hinge(int(d), float(k), int(s)) for d, k, s in hinges))
            for hinges in payload["terms"]
        ]
        return SplineModel(terms, np.array(payload["coefficients"]),
                           payload["dimension"])
    if family == "mlp":
        return MLPModel(
            [np.array(w) for w in payload["weights"]],
            [np.array(b) for b in payload["biases"]],
            payload["y_mean"],
            payload["y_std"],
            payload["dimension"],
        )
    if family == "tree":
        return RegressionTree(
            np.array(payload["points"]),
            np.array(payload["responses"]),
            p_min=int(payload["p_min"]),
        )
    raise ValueError(f"unknown model family {family!r}")


def encode_model(model: AnyModel,
                 parameter_names: Optional[List[str]] = None,
                 metadata: Optional[dict] = None) -> dict:
    """The full save payload as a plain dict (what :func:`save_model` writes).

    The registry content-hashes this encoding, so it is the canonical form
    of a fitted model.
    """
    unc = model.uncertainty if isinstance(model, Model) else None
    return {
        "format_version": FORMAT_VERSION,
        "parameter_names": parameter_names,
        "metadata": metadata or {},
        "model": _encode(model),
        "uncertainty": unc.as_dict() if unc is not None else None,
    }


def save_model(
    model: AnyModel,
    path: Union[str, Path],
    parameter_names: Optional[List[str]] = None,
    metadata: Optional[dict] = None,
) -> Path:
    """Atomically replace ``path`` with ``model`` as JSON.

    ``parameter_names`` (the design space's ordering) and free-form
    ``metadata`` (benchmark, sample size, error report...) are stored
    alongside and returned by :func:`load_model`.  The model's attached
    uncertainty calibration, if any, is persisted too.
    """
    payload = encode_model(model, parameter_names, metadata)
    return write_atomic(path, json.dumps(payload, indent=1))


def load_model(path: Union[str, Path]):
    """Load a model saved by :func:`save_model`.

    Returns ``(model, parameter_names, metadata)``.  Raises ``ValueError``
    on corrupt files, unknown format versions or families rather than
    guessing; any persisted uncertainty calibration is re-attached.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"corrupt model file {path}: not a JSON object")
    version = payload.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported model file version {version!r}")
    try:
        model = _decode(payload["model"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from exc
    unc_payload = payload.get("uncertainty")
    if unc_payload is not None and isinstance(model, Model):
        try:
            model.attach_uncertainty(Uncertainty.from_dict(unc_payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"corrupt model file {path}: bad uncertainty payload: {exc}"
            ) from exc
    return model, payload.get("parameter_names"), payload.get("metadata", {})
