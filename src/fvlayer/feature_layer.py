"""Trainable squashing layer x = tanh(W x~ + b).

The layer starts from a random square W, and the raw inputs are replaced by
x~ = W^-1 (atanh(x) - b) once at initialization, so training begins from an
identity map but with gradient dynamics conditioned by W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureLayerParams",
    "ATANH_MARGIN",
    "xavier_init",
    "clamp_features",
    "invert_features",
    "layer_forward",
    "layer_backward",
]

# Inputs to atanh are clamped to magnitude at most 1 - ATANH_MARGIN.
ATANH_MARGIN = 1e-6

_COND_LIMIT = 1e6


@dataclass
class FeatureLayerParams:
    weight: np.ndarray  # (D, D)
    bias: np.ndarray  # (D,)

    @property
    def dim(self) -> int:
        return self.bias.shape[0]

    def copy(self) -> "FeatureLayerParams":
        return FeatureLayerParams(self.weight.copy(), self.bias.copy())


def xavier_init(dim: int, seed: int) -> FeatureLayerParams:
    """Square weight drawn uniformly from +-sqrt(6 / (2 dim)), zero bias.

    Redraws (from the same stream) until the condition number is below 1e6,
    since the weight must be inverted for input preparation.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (2.0 * dim))
    for _ in range(64):
        weight = rng.uniform(-limit, limit, size=(dim, dim))
        if np.linalg.cond(weight) <= _COND_LIMIT:
            return FeatureLayerParams(weight, np.zeros(dim))
    raise ValueError(f"could not draw a well-conditioned {dim}x{dim} weight")


def clamp_features(features: np.ndarray) -> np.ndarray:
    """Features as float64, clamped to magnitude 1 - ATANH_MARGIN for atanh."""
    return np.clip(
        np.asarray(features, dtype=np.float64), -(1.0 - ATANH_MARGIN), 1.0 - ATANH_MARGIN
    )


def invert_features(
    features: np.ndarray, params: FeatureLayerParams
) -> np.ndarray:
    """Solve tanh(W x~ + b) = x for x~, row-wise.

    Features go through clamp_features before atanh. One factorization of W
    covers all rows.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.dim:
        raise ValueError(
            f"features must have shape (T, {params.dim}), got {features.shape}"
        )
    target = np.arctanh(clamp_features(features)) - params.bias
    try:
        return np.linalg.solve(params.weight, target.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"layer weight is not invertible: {exc}") from exc


def layer_forward(inputs: np.ndarray, params: FeatureLayerParams) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.dim:
        raise ValueError(
            f"inputs must have shape (T, {params.dim}), got {inputs.shape}"
        )
    return np.tanh(inputs @ params.weight.T + params.bias)


def layer_backward(
    inputs: np.ndarray, params: FeatureLayerParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass; upstream is (T, D) on the layer output.

    Returns (d_weight (D, D), d_bias (D,), d_inputs (T, D)). Row sums over
    the point index, so cost is one pair of matrix products.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != inputs.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} must match inputs {inputs.shape}"
        )
    activated = np.tanh(inputs @ params.weight.T + params.bias)
    gate = upstream * (1.0 - activated * activated)
    d_weight = gate.T @ inputs
    d_bias = gate.sum(axis=0)
    d_inputs = gate @ params.weight
    return d_weight, d_bias, d_inputs
