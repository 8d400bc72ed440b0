"""Signed power compression followed by L2 normalization.

forward: v -> sign(v) |v|^0.5, then division by the L2 norm.
backward: exact Jacobian-transpose product of the forward.

Both take one vector or a (B, length) stack, normalized row by row; each
row's norm and dot product is its own call, so it rounds as it would alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["norm_forward", "norm_backward"]

# Compression exponent: the signed square root.
ALPHA = 0.5

# Coordinates of the raw input with magnitude below EPS are treated as flat
# zeros in the backward pass (the square root is not differentiable there).
EPS = 1e-12


def _check_vectors(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D vector or a 2-D stack, got shape {vector.shape}")
    return vector


def _norm(row: np.ndarray) -> float:
    """L2 norm of one vector, by one BLAS dot as np.linalg.norm computes it."""
    return math.sqrt(row.dot(row))


def norm_forward(vector: np.ndarray) -> np.ndarray:
    vector = _check_vectors(vector)
    compressed = np.sign(vector) * np.abs(vector) ** ALPHA
    rows = compressed.reshape(-1, vector.shape[-1])
    out = np.zeros(rows.shape)  # a zero vector normalizes to zero
    for row, dst in zip(rows, out):
        norm = _norm(row)
        if norm != 0.0:
            np.divide(row, norm, out=dst)
    return out.reshape(vector.shape)


def norm_backward(vector: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of the normalized output with respect to the raw input.

    With xhat = sign(v) sqrt(|v|) and phi = xhat / ||xhat||, the Jacobian is
    (I - phi phi^T) / ||xhat|| composed with diag(1 / (2 |xhat_i|)); this
    returns its transpose applied to `upstream`. Coordinates with
    |v_i| < EPS get zero gradient, as does a vector with xhat = 0.
    """
    vector = _check_vectors(vector)
    upstream = np.asarray(upstream, dtype=np.float64)
    if vector.shape != upstream.shape:
        raise ValueError(
            f"vector {vector.shape} and upstream {upstream.shape} must be equal"
        )
    rows = vector.reshape(-1, vector.shape[-1])
    ups = upstream.reshape(rows.shape)
    xhat = np.sign(rows) * np.sqrt(np.abs(rows))
    norm = np.array([[_norm(row)] for row in xhat])
    flat = norm == 0.0
    norm[flat] = 1.0
    phi = xhat / norm
    along = np.array([[float(p @ u)] for p, u in zip(phi, ups)])
    projected = ups - phi * along
    live = (np.abs(rows) >= EPS) & ~flat
    out = np.zeros_like(rows)
    np.divide(projected, 2.0 * np.abs(xhat) * norm, out=out, where=live)
    return out.reshape(vector.shape)
