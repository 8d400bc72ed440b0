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

# The backward walks each CHUNK_ROWS chunk in cache-sized tiles of at most
# this many (rows, K, D) values: 1 MiB of float64 per buffer.
TILE_VALUES = 131072

__all__ = [
    "SufficientStats",
    "fv_length",
    "fv_forward",
    "fv_forward_naive",
    "fv_backward",
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


def _row_sum(lhs: np.ndarray, rhs: np.ndarray, n: int, carry) -> np.ndarray:
    """einsum("ck,ckd->kd") over rows 1..n of two tile buffers, continuing a
    non-None carry in row order: it goes in rhs's row 0, weighted 1.0 in lhs."""
    if carry is None:
        return np.einsum("ck,ckd->kd", lhs[1 : n + 1], rhs[1 : n + 1])
    rhs[0] = carry
    return np.einsum("ck,ckd->kd", lhs[: n + 1], rhs[: n + 1])


def fv_backward(
    features: np.ndarray,
    params: GmmParams,
    gamma: np.ndarray,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contract an upstream gradient against the parameter and input Jacobians.

    Returns (d_weights (K,), d_means (K, D), d_variances (K, D),
    d_features (T, D)). Weights are treated as free coordinates; the simplex
    coupling enters only through the posteriors, exactly as in the forward
    pass. Point t only receives gradient through its own posterior row and
    its own direct appearance in the encoding sums.

    One pass computes every per-point term once. Parameter sums are grouped
    per CHUNK_ROWS chunk and carried across its tiles of at most TILE_VALUES
    (rows, K, D) values in row order, so they match one einsum per chunk bit
    for bit. Memory is O(T * D + CHUNK_ROWS * K) plus three tile buffers.
    """
    return _backward(features, params, gamma, upstream, want_input=True)


def fv_backward_params(features, params, gamma, upstream) -> tuple:
    """(d_weights, d_means, d_variances) of fv_backward, skipping d_features."""
    return _backward(features, params, gamma, upstream, want_input=False)[:3]


def fv_backward_input(features, params, gamma, upstream) -> np.ndarray:
    """d_features (T, D) of fv_backward."""
    return fv_backward(features, params, gamma, upstream)[3]


def _backward(features, params, gamma, upstream, want_input: bool) -> tuple:
    features = _check_inputs(features, params)
    t = features.shape[0]
    k, d = params.n_components, params.dim
    u_w, u_mu, u_var = split_blocks(np.asarray(upstream, dtype=np.float64), k, d)

    w, mu, var = params.weights, params.means, params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)
    sq2w = np.sqrt(2.0 * w)
    direct_mu_coef = u_mu / (sqw[:, None] * sigma)  # (K, D)
    direct_var_coef = 2.0 * u_var / sq2w[:, None]  # (K, D)

    d_w, d_mu, d_var = np.zeros(k), np.zeros((k, d)), np.zeros((k, d))
    d_x = np.empty((t, d))

    rows = gmm.CHUNK_ROWS
    chunk = min(rows, t)
    tile = max(1, min(TILE_VALUES // (k * d), chunk))
    # row 0 of the alpha and alpha^2 buffers carries a running (K, D) sum,
    # weighted by the 1.0 in row 0 of the gamma and h buffers
    alpha_buf, sq_buf = np.empty((2, tile + 1, k, d))
    beta_buf = np.empty((tile, k, d))
    g_buf, h_buf = np.ones((2, tile + 1, k))
    bp, cp = np.empty((chunk, k)), np.empty((chunk, k))
    tot = np.empty(chunk)
    direct_var = np.empty((chunk, d))

    for start in range(0, t, rows):
        x = features[start : start + rows]
        g = gamma[start : start + rows]
        c = x.shape[0]
        ga = ga2 = ha = hq = None
        for lo in range(0, c, tile):
            hi = min(lo + tile, c)
            n = hi - lo
            alpha = alpha_buf[1 : n + 1]
            sq = sq_buf[1 : n + 1]
            beta = beta_buf[:n]
            gt = g_buf[1 : n + 1]
            gt[...] = g[lo:hi]
            np.subtract(x[lo:hi, None, :], mu, out=alpha)
            if want_input:
                np.divide(alpha, var, out=beta)
            np.divide(alpha, sigma, out=alpha)
            np.multiply(alpha, alpha, out=sq)
            ga = _row_sum(g_buf, alpha_buf, n, ga)
            ga2 = _row_sum(g_buf, sq_buf, n, ga2)
            sq -= 1.0  # q = alpha^2 - 1

            np.einsum("kd,ckd->ck", u_mu, alpha, out=bp[lo:hi])
            np.einsum("kd,ckd->ck", u_var, sq, out=cp[lo:hi])
            r = (u_w + bp[lo:hi]) / sqw + cp[lo:hi] / sq2w
            np.einsum("ck,ck->c", gt, r, out=tot[lo:hi])
            gr = gt * r
            np.subtract(gr, gt * tot[lo:hi, None], out=h_buf[1 : n + 1])
            ha = _row_sum(h_buf, alpha_buf, n, ha)
            hq = _row_sum(h_buf, sq_buf, n, hq)

            if want_input:
                pooled = np.einsum("ck,cke->ce", gt, beta)
                np.subtract(
                    pooled * gr.sum(axis=1)[:, None],
                    np.einsum("ck,cke->ce", gr, beta),
                    out=d_x[start + lo : start + hi],
                )
                beta *= direct_var_coef
                np.einsum("ck,cke->ce", gt, beta, out=direct_var[lo:hi])

        s0c = g.sum(axis=0)
        d_w += u_w * (s0c - c * w) / (2.0 * w * sqw)
        d_w += np.einsum("ck,ck->k", g, bp[:c]) / (2.0 * w * sqw)
        d_w += np.einsum("ck,ck->k", g, cp[:c]) / (2.0 * w * sq2w)
        d_w -= (g * tot[:c, None]).sum(axis=0) / w

        d_mu += (
            ha - u_mu * (s0c / sqw)[:, None] - 2.0 * u_var * ga / sq2w[:, None]
        ) / sigma
        d_var += (
            hq - u_mu * ga / sqw[:, None] - 2.0 * u_var * ga2 / sq2w[:, None]
        ) / (2.0 * var)

        if want_input:
            direct = g @ direct_mu_coef
            direct += direct_var[:c]
            d_x[start : start + c] += direct

    d_x /= t
    return d_w / t, d_mu / t, d_var / t, d_x


def _onehot_backwards(features: np.ndarray, params: GmmParams) -> list[tuple]:
    """fv_backward for each one-hot upstream, in encoding order."""
    features = _check_inputs(features, params)
    gamma = posteriors(features, params)
    eye = np.eye(fv_length(params.n_components, params.dim))
    return [fv_backward(features, params, gamma, one_hot) for one_hot in eye]


def fv_jacobian_params(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Full parameter Jacobian, shape ((2D+1)K, K + 2KD). Debug sizes only.

    Row i is the gradient of encoding entry i; columns are packed as
    [weights | means | variances]. Built by contracting one-hot upstreams,
    so it exercises exactly the production backward path.
    """
    return np.stack([
        np.concatenate([dw, dmu.ravel(), dvar.ravel()])
        for dw, dmu, dvar, _ in _onehot_backwards(features, params)
    ])


def fv_jacobian_input(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Full input Jacobian, shape ((2D+1)K, T * D). Debug sizes only."""
    return np.stack([dx.ravel() for *_, dx in _onehot_backwards(features, params)])
