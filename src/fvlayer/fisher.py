"""Fisher-vector encoding of a point set under a diagonal GMM.

Forward pass through three sufficient statistics and one analytic backward
pass with respect to both the mixture parameters and the input points. The
encoding of T points in D dimensions under K components has length
(2D + 1) * K, laid out as

    [ weight block (K) | mean block (K * D) | variance block (K * D) ]

with the mean and variance blocks component-major.

fv_forward, fv_backward and fv_backward_params also take a stack of B
equal-size point sets as (B * T, D) rows plus `n_images=B`; per-image
outputs then gain a leading image axis.
Each image's sums run in the same order as for that image alone, so the
results are bit for bit those of B separate calls.
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
    "fv_backward",
    "fv_backward_params",
    "fv_backward_input",
    "split_blocks",
]


@dataclass
class SufficientStats:
    """Posterior-weighted power sums of the input points.

    s0: (K,)   total posterior mass per component.
    s1: (K, D) posterior-weighted coordinate sums.
    s2: (K, D) posterior-weighted squared-coordinate sums.

    Each gains a leading image axis for a stack of images.
    """

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def starved_count(self):
        """Number of components with posterior mass below gmm.STARVED_MASS:
        an int for one image, an (B,) array for a stack."""
        counts = np.sum(self.s0 < gmm.STARVED_MASS, axis=-1)
        return int(counts) if counts.ndim == 0 else counts


def fv_length(n_components: int, dim: int) -> int:
    return (2 * dim + 1) * n_components


def split_blocks(
    vector: np.ndarray, n_components: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a packed encoding (or upstream gradient) into its three blocks.

    A (B, length) stack splits into blocks with a leading image axis.
    """
    expected = fv_length(n_components, dim)
    if vector.ndim not in (1, 2) or vector.shape[-1] != expected:
        raise ValueError(
            f"expected packed vector of length {expected}, got shape {vector.shape}"
        )
    k, d = n_components, dim
    lead = vector.shape[:-1]
    w_block = vector[..., :k]
    mu_block = vector[..., k : k + k * d].reshape(*lead, k, d)
    var_block = vector[..., k + k * d :].reshape(*lead, k, d)
    return w_block, mu_block, var_block


def _check_inputs(
    features: np.ndarray, params: GmmParams, n_images: int | None = None
) -> tuple[np.ndarray, int]:
    """Features as float64 (B * T, D) rows, checked like `posteriors`
    checks them, and B (1 for one image)."""
    features = gmm._check_features(features, params.dim)
    b = 1 if n_images is None else n_images
    if b < 1 or features.shape[0] % b:
        raise ValueError(
            f"{features.shape[0]} rows do not split into {n_images} equal images"
        )
    return features, b


def _unstack(n_images: int | None, *arrays: np.ndarray) -> tuple:
    """Drop the leading image axis when the caller passed one image."""
    return arrays if n_images is not None else tuple(a[0] for a in arrays)


def fv_forward(
    features: np.ndarray, params: GmmParams, n_images: int | None = None
) -> tuple[np.ndarray, np.ndarray, SufficientStats]:
    """Encode a point set; returns (encoding, posteriors, stats).

    The encoding is assembled from the sufficient statistics alone, so its
    cost after the posterior pass is O(K * D) regardless of T. With
    n_images=B the encodings are (B, length) and the posteriors stay
    (B * T, K) rows.
    """
    features, b = _check_inputs(features, params, n_images)
    t = features.shape[0] // b
    gamma = posteriors(features, params)
    x = features.reshape(b, t, -1)
    g = gamma.reshape(b, t, -1)
    gt = g.transpose(0, 2, 1)
    s0 = g.sum(axis=1)
    s1 = gt @ x
    s2 = gt @ (x * x)

    w = params.weights
    mu = params.means
    var = params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)

    f_w = (s0 - t * w) / (t * sqw)
    f_mu = (s1 - mu * s0[..., None]) / (t * sqw[:, None] * sigma)
    f_var = (s2 - 2.0 * mu * s1 + (mu * mu - var) * s0[..., None]) / (
        t * np.sqrt(2.0) * sqw[:, None] * var
    )
    encoding = np.concatenate([f_w, f_mu.reshape(b, -1), f_var.reshape(b, -1)], axis=1)
    encoding, s0, s1, s2 = _unstack(n_images, encoding, s0, s1, s2)
    return encoding, gamma, SufficientStats(s0, s1, s2)


def _row_sum(lhs: np.ndarray, rhs: np.ndarray, n: int, carry) -> np.ndarray:
    """Per image, einsum("ck,ckd->kd") over rows 1..n of two tile buffers,
    continuing a non-None carry in row order: it goes in rhs's row 0,
    weighted 1.0 in lhs."""
    if carry is None:
        return np.einsum("bck,bckd->bkd", lhs[:, 1 : n + 1], rhs[:, 1 : n + 1])
    rhs[:, 0] = carry
    return np.einsum("bck,bckd->bkd", lhs[:, : n + 1], rhs[:, : n + 1])


def fv_backward(
    features: np.ndarray,
    params: GmmParams,
    gamma: np.ndarray,
    upstream: np.ndarray,
    n_images: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contract an upstream gradient against the parameter and input Jacobians.

    Returns (d_weights (K,), d_means (K, D), d_variances (K, D),
    d_features (T, D)). Weights are treated as free coordinates; the simplex
    coupling enters only through the posteriors, exactly as in the forward
    pass. Point t only receives gradient through its own posterior row and
    its own direct appearance in the encoding sums. With n_images=B the
    upstream is (B, length), the parameter gradients gain a leading image
    axis and d_features stays (B * T, D) rows.

    One pass computes every per-point term once, walking each image's rows
    in tiles of at most gmm.TILE_VALUES (rows, K, D) values. Every sum over
    points continues across the tiles in row order, so it matches one einsum
    over the image bit for bit whatever the tile size. Memory is
    O(B * T * (K + D)) plus three buffers of one tile per image.
    """
    return _backward(features, params, gamma, upstream, True, n_images)


def fv_backward_params(features, params, gamma, upstream, n_images=None) -> tuple:
    """(d_weights, d_means, d_variances) of fv_backward, skipping d_features."""
    return _backward(features, params, gamma, upstream, False, n_images)[:3]


def fv_backward_input(features, params, gamma, upstream) -> np.ndarray:
    """d_features (T, D) of fv_backward."""
    return fv_backward(features, params, gamma, upstream)[3]


def _backward(features, params, gamma, upstream, want_input: bool, n_images) -> tuple:
    features, b = _check_inputs(features, params, n_images)
    t = features.shape[0] // b
    k, d = params.n_components, params.dim
    upstream = np.asarray(upstream, dtype=np.float64).reshape(b, -1)
    u_w, u_mu, u_var = split_blocks(upstream, k, d)

    w, mu, var = params.weights, params.means, params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)
    sq2w = np.sqrt(2.0 * w)
    direct_mu_coef = u_mu / (sqw[:, None] * sigma)  # (B, K, D)
    direct_var_coef = 2.0 * u_var / sq2w[:, None]  # (B, K, D)

    d_w, d_mu, d_var = np.zeros((b, k)), np.zeros((b, k, d)), np.zeros((b, k, d))
    d_x = np.empty((b, t, d))
    x = features.reshape(b, t, d)
    g = gamma.reshape(b, t, k)

    # each image walks the tiles it would alone; a pipeline stack holds at
    # most TILE_VALUES (images, rows, K, D) values, so it fits in one tile
    tile = gmm.tile_rows(t, k * d)
    # row 0 of the alpha and alpha^2 buffers carries a running (K, D) sum,
    # weighted by the 1.0 in row 0 of the gamma and h buffers
    alpha_buf, sq_buf = np.empty((2, b, tile + 1, k, d))
    beta_buf = np.empty((b, tile, k, d))
    g_buf, h_buf = np.ones((2, b, tile + 1, k))
    bp, cp = np.empty((2, b, t, k))
    tot = np.empty((b, t))
    direct_var = np.empty((b, t, d))

    ga = ga2 = ha = hq = None
    for lo in range(0, t, tile):
        hi = min(lo + tile, t)
        n = hi - lo
        alpha = alpha_buf[:, 1 : n + 1]
        sq = sq_buf[:, 1 : n + 1]
        beta = beta_buf[:, :n]
        gt = g_buf[:, 1 : n + 1]
        gt[...] = g[:, lo:hi]
        # x - mu, subtracted over contiguous K * D values as in gmm
        np.copyto(alpha, x[:, lo:hi, None, :])
        alpha -= mu
        if want_input:
            np.divide(alpha, var, out=beta)
        np.divide(alpha, sigma, out=alpha)
        np.multiply(alpha, alpha, out=sq)
        ga = _row_sum(g_buf, alpha_buf, n, ga)
        ga2 = _row_sum(g_buf, sq_buf, n, ga2)
        sq -= 1.0  # q = alpha^2 - 1

        np.einsum("bkd,bckd->bck", u_mu, alpha, out=bp[:, lo:hi])
        np.einsum("bkd,bckd->bck", u_var, sq, out=cp[:, lo:hi])
        r = (u_w[:, None] + bp[:, lo:hi]) / sqw + cp[:, lo:hi] / sq2w
        np.einsum("bck,bck->bc", gt, r, out=tot[:, lo:hi])
        gr = gt * r
        np.subtract(gr, gt * tot[:, lo:hi, None], out=h_buf[:, 1 : n + 1])
        ha = _row_sum(h_buf, alpha_buf, n, ha)
        hq = _row_sum(h_buf, sq_buf, n, hq)

        if want_input:
            pooled = np.einsum("bck,bcke->bce", gt, beta)
            np.subtract(
                pooled * gr.sum(axis=2)[..., None],
                np.einsum("bck,bcke->bce", gr, beta),
                out=d_x[:, lo:hi],
            )
            beta *= direct_var_coef[:, None]
            np.einsum("bck,bcke->bce", gt, beta, out=direct_var[:, lo:hi])

    s0 = g.sum(axis=1)
    d_w += u_w * (s0 - t * w) / (2.0 * w * sqw)
    d_w += np.einsum("bck,bck->bk", g, bp) / (2.0 * w * sqw)
    d_w += np.einsum("bck,bck->bk", g, cp) / (2.0 * w * sq2w)
    d_w -= (g * tot[..., None]).sum(axis=1) / w
    d_mu += (
        ha - u_mu * (s0 / sqw)[..., None] - 2.0 * u_var * ga / sq2w[:, None]
    ) / sigma
    d_var += (
        hq - u_mu * ga / sqw[:, None] - 2.0 * u_var * ga2 / sq2w[:, None]
    ) / (2.0 * var)

    if want_input:
        direct = g @ direct_mu_coef
        direct += direct_var
        d_x += direct

    d_x /= t
    d_w, d_mu, d_var = _unstack(n_images, d_w / t, d_mu / t, d_var / t)
    return d_w, d_mu, d_var, d_x.reshape(b * t, d)
