"""Artificial neural network baseline (the Ipek et al. related-work model).

The paper's related work cites Ipek et al. (ASPLOS 2006), who predict
performance across architectural design spaces with artificial neural
networks.  This module implements that family from scratch with numpy: a
fully connected network with one or two tanh hidden layers, trained by Adam
on mean-squared error, with target standardisation and deterministic
initialisation.

It deliberately mirrors their setup at small scale (the design-space
samples here are tens to hundreds of points), so it can stand next to the
RBF and spline models in the model-family comparison experiments.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.models.base import Model, layer_dot
from repro.util.rng import make_rng

#: Adam step size and L2 weight decay of every fit.
_LEARNING_RATE = 0.01
_WEIGHT_DECAY = 1e-4


class MLPModel(Model):
    """Feed-forward tanh network trained with Adam."""

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        y_mean: float,
        y_std: float,
        dimension: int,
    ):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.y_mean = y_mean
        self.y_std = y_std
        self.dimension = dimension

    def _forward(self, x: np.ndarray) -> np.ndarray:
        # Inference-only forward pass (training keeps its own inline BLAS
        # loop): layer_dot keeps each row's bits independent of batch size.
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = layer_dot(h, w) + b
            if i < last:
                h = np.tanh(h)
        return h[:, 0]

    def predict(self, points: np.ndarray) -> np.ndarray:
        points = self._as_points(points, self.dimension)
        return self._forward(points) * self.y_std + self.y_mean

    def diagnostics(self) -> dict:
        """Structure numbers for the model card: layer sizes and weight norm."""
        sizes = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        total = sum(w.size for w in self.weights) + sum(b.size for b in self.biases)
        norm2 = sum(float((w * w).sum()) for w in self.weights)
        return {
            "family": "mlp",
            "dimension": self.dimension,
            "layer_sizes": sizes,
            "num_parameters": int(total),
            "weight_l2": float(np.sqrt(norm2)),
        }

    def __repr__(self) -> str:
        sizes = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        return f"MLPModel(layers={sizes})"

    # -- training ---------------------------------------------------------

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        responses: np.ndarray,
        hidden: Tuple[int, ...] = (16,),
        epochs: int = 4000,
        seed: int = 0,
    ) -> "MLPModel":
        """Train on a (small) design sample.

        Full-batch Adam (learning rate :data:`_LEARNING_RATE`) with weight
        decay :data:`_WEIGHT_DECAY`; the target is standardised so the
        learning rate is scale-free.  Training is deterministic given
        ``seed``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        responses = np.asarray(responses, dtype=float).ravel()
        if len(points) != len(responses):
            raise ValueError("points and responses must have equal length")
        if len(points) < 2:
            raise ValueError("need at least two training points")
        p, n = points.shape
        y_mean = float(responses.mean())
        y_std = float(responses.std()) or 1.0
        y = (responses - y_mean) / y_std

        rng = make_rng(seed, "mlp-init", n, hidden)
        sizes = [n] + list(hidden) + [1]
        weights: List[np.ndarray] = []
        biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))

        # Adam state.
        m_w = [np.zeros_like(w) for w in weights]
        v_w = [np.zeros_like(w) for w in weights]
        m_b = [np.zeros_like(b) for b in biases]
        v_b = [np.zeros_like(b) for b in biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        last = len(weights) - 1
        for step in range(1, epochs + 1):
            # Forward with cached activations.
            activations = [points]
            pre: List[np.ndarray] = []
            h = points
            for i, (w, b) in enumerate(zip(weights, biases)):
                z = h @ w + b
                pre.append(z)
                h = np.tanh(z) if i < last else z
                activations.append(h)
            pred = activations[-1][:, 0]
            grad_out = (2.0 / p) * (pred - y)[:, None]

            # Backward.
            delta = grad_out
            grads_w = [np.zeros_like(w) for w in weights]
            grads_b = [np.zeros_like(b) for b in biases]
            for i in range(last, -1, -1):
                grads_w[i] = activations[i].T @ delta + _WEIGHT_DECAY * weights[i]
                grads_b[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * (1.0 - np.tanh(pre[i - 1]) ** 2)

            # Adam update.
            correct1 = 1.0 - beta1**step
            correct2 = 1.0 - beta2**step
            for i in range(len(weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                weights[i] -= _LEARNING_RATE * (m_w[i] / correct1) / (
                    np.sqrt(v_w[i] / correct2) + eps
                )
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                biases[i] -= _LEARNING_RATE * (m_b[i] / correct1) / (
                    np.sqrt(v_b[i] / correct2) + eps
                )

        return cls(weights, biases, y_mean, y_std, dimension=n)
