"""Diagonal-covariance Gaussian mixtures.

Fitting (k-means++ seeding plus EM), log-domain posterior computation, and
the unconstrained reparameterization that lets mixture weights and variances
be trained by plain gradient steps without projection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Floor added to every variance produced by fitting or reparameterization.
VARIANCE_FLOOR = 1e-4

# Raw weight coordinates are clamped to this range before the logistic map;
# outside it the logistic is flat to double precision anyway.
NU_LIMIT = 30.0

# Raw variance coordinates are clamped the same way before exp, keeping
# variances finite (at most ~1e13) for arbitrarily large raw values.
ZETA_LIMIT = 30.0

LOG_2PI = float(np.log(2.0 * np.pi))

# Passes that form (rows, K, D) intermediates stream over slabs of this many
# points: the E-step's never exceeds CHUNK_ROWS * K * D values, and the
# encoder's backward groups its sums per slab but walks it in tiles of
# fisher.TILE_VALUES. What still grows with T is O(T * K) or O(T * D).
# Fixed so results are reproducible bit for bit.
CHUNK_ROWS = 1024

__all__ = [
    "CHUNK_ROWS",
    "VARIANCE_FLOOR",
    "NU_LIMIT",
    "ZETA_LIMIT",
    "GmmParams",
    "RawGmmParams",
    "posteriors",
    "kmeans_init",
    "em_fit",
    "reparam_forward",
    "reparam_backward",
    "raw_from_params",
]


@dataclass
class GmmParams:
    """Constrained mixture parameters.

    weights: (K,) positive, summing to one.
    means: (K, D).
    variances: (K, D) per-coordinate, strictly positive.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def validate(self) -> None:
        """Raise ValueError unless shapes and value constraints hold."""
        w, mu, var = self.weights, self.means, self.variances
        if w.ndim != 1 or mu.ndim != 2 or var.ndim != 2:
            raise ValueError("expected weights (K,), means (K, D), variances (K, D)")
        k = w.shape[0]
        if mu.shape[0] != k or var.shape != mu.shape:
            raise ValueError(
                f"component count mismatch: weights {w.shape}, means {mu.shape}, "
                f"variances {var.shape}"
            )
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(mu)) or not np.all(
            np.isfinite(var)
        ):
            raise ValueError("mixture parameters must be finite")
        if np.any(w <= 0.0) or np.any(w >= 1.0):
            if k == 1 and np.allclose(w, 1.0, rtol=0, atol=1e-12):
                pass  # a single component carries weight exactly one
            else:
                raise ValueError("weights must lie strictly inside (0, 1)")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        if np.any(var <= 0.0):
            raise ValueError("variances must be strictly positive")

    def copy(self) -> "GmmParams":
        return GmmParams(self.weights.copy(), self.means.copy(), self.variances.copy())


@dataclass
class RawGmmParams:
    """Unconstrained coordinates for weights and variances.

    Weights are materialized as normalized logistics of nu, variances as
    epsilon + exp(zeta). Means stay in their natural coordinates. Any finite
    (nu, zeta) therefore maps to valid constrained parameters and gradient
    steps never need projection.
    """

    nu: np.ndarray  # (K,)
    zeta: np.ndarray  # (K, D)
    means: np.ndarray  # (K, D)
    epsilon: float = VARIANCE_FLOOR

    @property
    def n_components(self) -> int:
        return self.nu.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "RawGmmParams":
        return RawGmmParams(
            self.nu.copy(), self.zeta.copy(), self.means.copy(), self.epsilon
        )


def _check_features(features: np.ndarray, dim: int | None = None) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (T, D), got shape {features.shape}")
    if features.shape[0] == 0:
        raise ValueError("features are empty")
    if dim is not None and features.shape[1] != dim:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match mixture dim {dim}"
        )
    return features


def _log_density_matrix(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Per-point, per-component log-densities, shape (T, K).

    Streamed over CHUNK_ROWS-row slabs; each row's arithmetic does not depend
    on the slab it falls in, so the result is independent of CHUNK_ROWS.
    """
    mu = params.means
    var = params.variances
    # constant per component, then the quadratic form
    const = -0.5 * np.sum(LOG_2PI + np.log(var), axis=1)  # (K,)
    inv_var = 1.0 / var
    out = np.empty((features.shape[0], params.n_components))
    for start in range(0, features.shape[0], CHUNK_ROWS):
        diff = features[start : start + CHUNK_ROWS, None, :] - mu[None]  # (c, K, D)
        diff *= diff
        quad = np.einsum("tkd,kd->tk", diff, inv_var)
        out[start : start + CHUNK_ROWS] = const[None, :] - 0.5 * quad
    return out


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def posteriors(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Component posterior probabilities for every point, shape (T, K).

    Computed entirely in the log domain so that badly scaled inputs only
    shift log-densities instead of overflowing them. Rows sum to one.
    Memory is O(T * K + CHUNK_ROWS * K * D): no (T, K, D) array is formed.
    """
    features = _check_features(features, params.dim)
    log_dens = _log_density_matrix(features, params)
    log_joint = log_dens + np.log(params.weights)[None, :]
    log_norm = _logsumexp(log_joint, axis=1)
    return np.exp(log_joint - log_norm[:, None])


def _kmeanspp_centers(
    features: np.ndarray, n_components: int, rng: np.random.Generator
) -> np.ndarray:
    t = features.shape[0]
    centers = np.empty((n_components, features.shape[1]))
    first = int(rng.integers(t))
    centers[0] = features[first]
    d2 = np.sum((features - centers[0]) ** 2, axis=1)
    for k in range(1, n_components):
        total = d2.sum()
        if total <= 0.0:
            # every row coincides with one of the k distinct centers chosen so
            # far (or lies within an underflowing squared distance of one)
            raise ValueError(
                f"need at least {n_components} distinct rows, found {k}"
            )
        idx = int(rng.choice(t, p=d2 / total))
        centers[k] = features[idx]
        d2 = np.minimum(d2, np.sum((features - centers[k]) ** 2, axis=1))
    return centers


def kmeans_init(
    features: np.ndarray, n_components: int, seed: int
) -> GmmParams:
    """Seed a mixture from k-means++ plus Lloyd iterations.

    Cluster fractions become weights, centroids become means, and
    within-cluster per-coordinate variances (floored at VARIANCE_FLOOR)
    become variances. Deterministic for a fixed seed.

    Bit-exactness contract: for D >= 2 the result is bit-identical to the
    textbook loop that recomputes squared distances as
    |x|^2 - 2 x.c + |c|^2, re-seeds each empty cluster (in ascending order)
    with the point farthest from its center, and sets each center to
    ``features[assign == k].mean(axis=0)``. Both the weighted bincount used
    here and that axis-0 mean add rows sequentially in row order. For D == 1
    numpy's mean sums pairwise instead, so centroids agree to rounding only.
    One departure: a re-seed never takes a cluster's sole member. The
    textbook loop does, and then always passes through an empty cluster
    with a NaN centroid; only on such inputs do the two differ.
    """
    features = _check_features(features)
    t, d = features.shape
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_centers(features, n_components, rng)

    row_norms = np.sum(features**2, axis=1)
    columns = np.ascontiguousarray(features.T)  # (D, T): one bincount per coordinate
    sums = np.empty((n_components, d))
    assign = np.full(t, -1, dtype=np.intp)
    for _ in range(100):
        # scaling by -2 is exact, so this is |x|^2 - 2 x.c + |c|^2 bit for bit
        d2 = features @ centers.T
        d2 *= -2.0
        d2 += row_norms[:, None]
        d2 += np.sum(centers**2, axis=1)[None, :]
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=n_components)
        for k in range(n_components):
            # empty cluster takes the point farthest from its center among
            # clusters of >= 2 members (one exists, as T >= K)
            if counts[k] == 0:
                far = d2[np.arange(t), new_assign]
                worst = int(np.argmax(np.where(counts[new_assign] > 1, far, -np.inf)))
                counts[new_assign[worst]] -= 1
                counts[k] += 1
                new_assign[worst] = k
        if np.array_equal(new_assign, assign):
            break  # fixed point: centers are the centroids of `assign`
        assign = new_assign
        for j in range(d):
            sums[:, j] = np.bincount(assign, weights=columns[j], minlength=n_components)
        np.divide(sums, counts[:, None], out=centers)

    weights = np.empty(n_components)
    variances = np.empty((n_components, features.shape[1]))
    for k in range(n_components):
        mask = assign == k
        weights[k] = mask.sum() / t
        if mask.any():
            variances[k] = np.maximum(features[mask].var(axis=0), VARIANCE_FLOOR)
        else:
            variances[k] = np.maximum(features.var(axis=0), VARIANCE_FLOOR)
    weights = weights / weights.sum()
    params = GmmParams(weights, centers.copy(), variances)
    params.validate()
    return params


def em_fit(
    features: np.ndarray,
    init: GmmParams,
    tol: float = 1e-6,
    max_iter: int = 200,
    seed: int = 0,
) -> GmmParams:
    """Expectation-maximization refinement of a seeded mixture.

    Stops when the mean log-likelihood improves by less than `tol` in
    relative terms. A component whose posterior mass starves (below 1e-12)
    is re-seeded to a random data point and logged as a warning. Memory is
    O(T * K + T * D + CHUNK_ROWS * K * D): the E-step streams its (rows, K, D)
    intermediate like `posteriors` does.
    """
    features = _check_features(features, init.dim)
    t = features.shape[0]
    params = init.copy()
    rng = np.random.default_rng(seed)
    data_var = np.maximum(features.var(axis=0), VARIANCE_FLOOR)
    prev_ll = -np.inf
    sq = features**2
    for _ in range(max_iter):
        log_dens = _log_density_matrix(features, params)
        log_joint = log_dens + np.log(params.weights)[None, :]
        log_norm = _logsumexp(log_joint, axis=1)
        mean_ll = float(log_norm.mean())
        gamma = np.exp(log_joint - log_norm[:, None])

        nk = gamma.sum(axis=0)
        starved = nk < 1e-12
        if starved.any():
            for k in np.flatnonzero(starved):
                pick = int(rng.integers(t))
                params.means[k] = features[pick]
                params.variances[k] = data_var
                logger.warning(
                    "re-seeded starved mixture component %d to data point %d", k, pick
                )
            # keep healthy components, renormalize weight mass
            params.weights[starved] = 1.0 / t
            params.weights /= params.weights.sum()
            prev_ll = -np.inf
            continue

        params.weights = nk / t
        params.means = (gamma.T @ features) / nk[:, None]
        second = (gamma.T @ sq) / nk[:, None]
        params.variances = np.maximum(
            second - params.means**2, VARIANCE_FLOOR
        )
        if mean_ll - prev_ll <= tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = mean_ll
    params.weights = params.weights / params.weights.sum()
    params.validate()
    return params


def _clamped_logistic(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    clamped = np.clip(nu, -NU_LIMIT, NU_LIMIT)
    s = 1.0 / (1.0 + np.exp(-clamped))
    return s, clamped


def reparam_forward(raw: RawGmmParams) -> GmmParams:
    """Materialize constrained parameters from raw coordinates.

    weights_j = logistic(nu_j) / sum_l logistic(nu_l), with nu clamped to
    [-NU_LIMIT, NU_LIMIT]; variances = epsilon + exp(zeta), with zeta
    clamped to [-ZETA_LIMIT, ZETA_LIMIT] so exp never overflows. Valid for
    every real raw value, so no projection step exists anywhere in training.
    """
    s, _ = _clamped_logistic(np.asarray(raw.nu, dtype=np.float64))
    weights = s / s.sum()
    zeta = np.clip(np.asarray(raw.zeta, dtype=np.float64), -ZETA_LIMIT, ZETA_LIMIT)
    variances = raw.epsilon + np.exp(zeta)
    return GmmParams(weights, np.array(raw.means, dtype=np.float64, copy=True), variances)


def reparam_backward(
    raw: RawGmmParams, d_weights: np.ndarray, d_variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pull gradients on (weights, variances) back to (nu, zeta).

    d nu_j = s'(nu_j) * (d_weights_j - sum_k d_weights_k * weights_k) / Z
    with Z the logistic normalizer; d zeta = d_variances * exp(zeta).
    Coordinates beyond either clamp get zero, matching the flat forward.
    """
    nu = np.asarray(raw.nu, dtype=np.float64)
    s, clamped = _clamped_logistic(nu)
    z = s.sum()
    weights = s / z
    sprime = s * (1.0 - s)
    inner = d_weights - float(np.dot(d_weights, weights))
    d_nu = sprime * inner / z
    d_nu = np.where(np.abs(nu) > NU_LIMIT, 0.0, d_nu)
    zeta = np.asarray(raw.zeta, dtype=np.float64)
    d_zeta = np.asarray(d_variances, dtype=np.float64) * np.exp(
        np.clip(zeta, -ZETA_LIMIT, ZETA_LIMIT)
    )
    d_zeta = np.where(np.abs(zeta) > ZETA_LIMIT, 0.0, d_zeta)
    return d_nu, d_zeta


def raw_from_params(params: GmmParams, epsilon: float = VARIANCE_FLOOR) -> RawGmmParams:
    """Invert the reparameterization for a fitted mixture.

    nu = logit(weights / 2), so the logistic values come out as weights / 2
    and the normalizer rescales them back to exactly the input weights.
    zeta = log(variances - epsilon) with variances first floored just above
    epsilon so the log exists.
    """
    params.validate()
    nu = np.log(params.weights) - np.log(2.0 - params.weights)
    floored = np.maximum(params.variances, epsilon + 1e-12)
    zeta = np.log(floored - epsilon)
    return RawGmmParams(nu, zeta, params.means.copy(), epsilon)
