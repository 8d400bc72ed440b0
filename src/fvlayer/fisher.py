"""Fisher-vector encoding of a point set under a diagonal GMM.

Forward pass through three sufficient statistics, a naive per-point oracle
for testing, and analytic backward passes with respect to both the mixture
parameters and the input points. The encoding of T points in D dimensions
under K components has length (2D + 1) * K, laid out as

    [ weight block (K) | mean block (K * D) | variance block (K * D) ]

with the mean and variance blocks component-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmm
from .gmm import GmmParams, posteriors

__all__ = [
    "SufficientStats",
    "fv_length",
    "fv_forward",
    "fv_forward_naive",
    "fv_backward_params",
    "fv_backward_input",
    "fv_jacobian_params",
    "fv_jacobian_input",
    "split_blocks",
]


@dataclass
class SufficientStats:
    """Posterior-weighted power sums of the input points.

    s0: (K,)   total posterior mass per component.
    s1: (K, D) posterior-weighted coordinate sums.
    s2: (K, D) posterior-weighted squared-coordinate sums.
    """

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def starved_count(self, tol: float = 1e-12) -> int:
        """Number of components with posterior mass below tol."""
        return int(np.sum(self.s0 < tol))


def fv_length(n_components: int, dim: int) -> int:
    return (2 * dim + 1) * n_components


def split_blocks(
    vector: np.ndarray, n_components: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a packed encoding (or upstream gradient) into its three blocks."""
    expected = fv_length(n_components, dim)
    if vector.shape != (expected,):
        raise ValueError(
            f"expected packed vector of length {expected}, got shape {vector.shape}"
        )
    k, d = n_components, dim
    w_block = vector[:k]
    mu_block = vector[k : k + k * d].reshape(k, d)
    var_block = vector[k + k * d :].reshape(k, d)
    return w_block, mu_block, var_block


def _check_inputs(features: np.ndarray, params: GmmParams) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (T, D), got shape {features.shape}")
    if features.shape[0] == 0:
        raise ValueError("cannot encode an empty point set")
    if features.shape[1] != params.dim:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match mixture dim "
            f"{params.dim}"
        )
    return features


def fv_forward(
    features: np.ndarray, params: GmmParams
) -> tuple[np.ndarray, np.ndarray, SufficientStats]:
    """Encode a point set; returns (encoding, posteriors, stats).

    The encoding is assembled from the sufficient statistics alone, so its
    cost after the posterior pass is O(K * D) regardless of T.
    """
    features = _check_inputs(features, params)
    t = features.shape[0]
    gamma = posteriors(features, params)
    s0 = gamma.sum(axis=0)
    s1 = gamma.T @ features
    s2 = gamma.T @ (features * features)
    stats = SufficientStats(s0, s1, s2)

    w = params.weights
    mu = params.means
    var = params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)

    f_w = (s0 - t * w) / (t * sqw)
    f_mu = (s1 - mu * s0[:, None]) / (t * sqw[:, None] * sigma)
    f_var = (s2 - 2.0 * mu * s1 + (mu * mu - var) * s0[:, None]) / (
        t * np.sqrt(2.0) * sqw[:, None] * var
    )
    encoding = np.concatenate([f_w, f_mu.ravel(), f_var.ravel()])
    return encoding, gamma, stats


def fv_forward_naive(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Literal per-point accumulation of the encoding. Test oracle only."""
    features = _check_inputs(features, params)
    t = features.shape[0]
    k, d = params.n_components, params.dim
    sigma = np.sqrt(params.variances)
    acc_w = np.zeros(k)
    acc_mu = np.zeros((k, d))
    acc_var = np.zeros((k, d))
    for i in range(t):
        g = posteriors(features[i : i + 1], params)[0]
        a = (features[i] - params.means) / sigma
        acc_w += g - params.weights
        acc_mu += g[:, None] * a
        acc_var += g[:, None] * (a * a - 1.0) / np.sqrt(2.0)
    sqw = np.sqrt(params.weights)
    f_w = acc_w / (t * sqw)
    f_mu = acc_mu / (t * sqw[:, None])
    f_var = acc_var / (t * sqw[:, None])
    return np.concatenate([f_w, f_mu.ravel(), f_var.ravel()])


def fv_backward_params(
    features: np.ndarray,
    params: GmmParams,
    gamma: np.ndarray,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contract an upstream gradient against the parameter Jacobian.

    Weights are treated as free coordinates; the simplex coupling enters
    only through the posteriors, exactly as in the forward pass. Returns
    (d_weights (K,), d_means (K, D), d_variances (K, D)).

    Accumulation is streamed over fixed-size chunks of points in ascending
    order; per-chunk cost is O(chunk * K * D) and nothing of size
    T * (2D+1)K * (2D+1)K is ever formed.
    """
    features = _check_inputs(features, params)
    t = features.shape[0]
    k, d = params.n_components, params.dim
    u_w, u_mu, u_var = split_blocks(np.asarray(upstream, dtype=np.float64), k, d)

    w = params.weights
    mu = params.means
    var = params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)
    sq2w = np.sqrt(2.0 * w)

    d_w = np.zeros(k)
    d_mu = np.zeros((k, d))
    d_var = np.zeros((k, d))

    rows = gmm.CHUNK_ROWS
    for start in range(0, t, rows):
        x = features[start : start + rows]
        g = gamma[start : start + rows]
        c = x.shape[0]
        alpha = (x[:, None, :] - mu[None]) / sigma[None]  # (c, K, D)
        q = alpha * alpha - 1.0

        bp = np.einsum("kd,ckd->ck", u_mu, alpha)
        cp = np.einsum("kd,ckd->ck", u_var, q)
        r = (u_w[None, :] + bp) / sqw[None, :] + cp / sq2w[None, :]
        tot = np.einsum("ck,ck->c", g, r)
        h = g * r - g * tot[:, None]

        s0c = g.sum(axis=0)
        ga = np.einsum("ck,ckd->kd", g, alpha)
        ga2 = np.einsum("ck,ckd->kd", g, alpha * alpha)
        ha = np.einsum("ck,ckd->kd", h, alpha)
        hq = np.einsum("ck,ckd->kd", h, q)

        d_w += u_w * (s0c - c * w) / (2.0 * w * sqw)
        d_w += np.einsum("ck,ck->k", g, bp) / (2.0 * w * sqw)
        d_w += np.einsum("ck,ck->k", g, cp) / (2.0 * w * sq2w)
        d_w -= (g * tot[:, None]).sum(axis=0) / w

        d_mu += (
            ha
            - u_mu * (s0c / sqw)[:, None]
            - 2.0 * u_var * ga / sq2w[:, None]
        ) / sigma
        d_var += (
            hq - u_mu * ga / sqw[:, None] - 2.0 * u_var * ga2 / sq2w[:, None]
        ) / (2.0 * var)

    return d_w / t, d_mu / t, d_var / t


def fv_backward_input(
    features: np.ndarray,
    params: GmmParams,
    gamma: np.ndarray,
    upstream: np.ndarray,
) -> np.ndarray:
    """Contract an upstream gradient against the input Jacobian.

    Returns (T, D); point t only receives gradient through its own posterior
    row and its own direct appearance in the encoding sums. Streamed over
    the same fixed chunks as the parameter backward.
    """
    features = _check_inputs(features, params)
    t = features.shape[0]
    k, d = params.n_components, params.dim
    u_w, u_mu, u_var = split_blocks(np.asarray(upstream, dtype=np.float64), k, d)

    w = params.weights
    mu = params.means
    var = params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)
    sq2w = np.sqrt(2.0 * w)

    direct_mu_coef = u_mu / (sqw[:, None] * sigma)  # (K, D)
    direct_var_coef = 2.0 * u_var / sq2w[:, None]  # (K, D)

    out = np.empty((t, d))
    rows = gmm.CHUNK_ROWS
    for start in range(0, t, rows):
        x = features[start : start + rows]
        g = gamma[start : start + rows]
        alpha = (x[:, None, :] - mu[None]) / sigma[None]
        beta = (x[:, None, :] - mu[None]) / var[None]
        q = alpha * alpha - 1.0

        bp = np.einsum("kd,ckd->ck", u_mu, alpha)
        cp = np.einsum("kd,ckd->ck", u_var, q)
        r = (u_w[None, :] + bp) / sqw[None, :] + cp / sq2w[None, :]
        gr = g * r
        tot = gr.sum(axis=1)

        pooled = np.einsum("ck,cke->ce", g, beta)
        through_gamma = pooled * tot[:, None] - np.einsum("ck,cke->ce", gr, beta)
        direct = g @ direct_mu_coef + np.einsum(
            "ck,cke->ce", g, beta * direct_var_coef[None]
        )
        out[start : start + x.shape[0]] = through_gamma + direct

    return out / t


def fv_jacobian_params(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Full parameter Jacobian, shape ((2D+1)K, K + 2KD). Debug sizes only.

    Row i is the gradient of encoding entry i; columns are packed as
    [weights | means | variances]. Built by contracting one-hot upstreams,
    so it exercises exactly the production backward path.
    """
    features = _check_inputs(features, params)
    k, d = params.n_components, params.dim
    n = fv_length(k, d)
    gamma = posteriors(features, params)
    rows = np.empty((n, k + 2 * k * d))
    one_hot = np.zeros(n)
    for i in range(n):
        one_hot[i] = 1.0
        dw, dmu, dvar = fv_backward_params(features, params, gamma, one_hot)
        rows[i] = np.concatenate([dw, dmu.ravel(), dvar.ravel()])
        one_hot[i] = 0.0
    return rows


def fv_jacobian_input(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Full input Jacobian, shape ((2D+1)K, T * D). Debug sizes only."""
    features = _check_inputs(features, params)
    k, d = params.n_components, params.dim
    n = fv_length(k, d)
    gamma = posteriors(features, params)
    rows = np.empty((n, features.size))
    one_hot = np.zeros(n)
    for i in range(n):
        one_hot[i] = 1.0
        rows[i] = fv_backward_input(features, params, gamma, one_hot).ravel()
        one_hot[i] = 0.0
    return rows
