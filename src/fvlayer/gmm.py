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

# A component whose posterior mass over a point set is below this starves:
# EM re-seeds it, and an encoding counts it.
STARVED_MASS = 1e-12

# Bounds `em_fit`'s E-steps, which repeat only while a component starves
# and is re-seeded.
EM_MAX_ITER = 200

# Passes that form (rows, K, D) intermediates walk them in tiles of at most
# this many values (1 MiB of float64 per buffer): the E-step, whose rows are
# independent, and the encoder's backward, whose tiles carry every sum in
# row order. Row-wise scratch of (rows, K) or (rows, D) values walks blocks
# of the same budget: the E-step's exponentials, k-means++ distances and
# phase one's inversion and layer passes. So the tile size bounds memory
# and never changes a result bit. The same budget caps an image stack at
# this many (rows, K, D) values, so the stack's (rows, K) and (rows, D)
# per-point arrays fit it too. What still grows with T is the O(T * K) or
# O(T * D) arrays of one image above the budget, and those a pass keeps,
# such as posteriors and pooled points: phase one's mixture fit holds its
# column-major pooled points plus one (N, K) work array.
TILE_VALUES = 131072

__all__ = [
    "TILE_VALUES",
    "VARIANCE_FLOOR",
    "NU_LIMIT",
    "ZETA_LIMIT",
    "STARVED_MASS",
    "EM_MAX_ITER",
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
    VARIANCE_FLOOR + exp(zeta). Means stay in their natural coordinates. Any
    finite (nu, zeta) therefore maps to valid constrained parameters and
    gradient steps never need projection.
    """

    nu: np.ndarray  # (K,)
    zeta: np.ndarray  # (K, D)
    means: np.ndarray  # (K, D)

    @property
    def n_components(self) -> int:
        return self.nu.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "RawGmmParams":
        return RawGmmParams(self.nu.copy(), self.zeta.copy(), self.means.copy())


class _Scratch(np.ndarray):
    """Points whose owner gives them up to `em_fit`: its M-step squares
    them in place rather than allocating their (T, D) squares. Pipeline's
    mixture fit views its own pooled copy as this type; em_fit writes to no
    other array."""


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


def tile_rows(t: int, unit: int) -> int:
    """Rows per tile when each row forms `unit` values: at most
    TILE_VALUES // unit, at least 1, and no more than the T rows there are."""
    return max(1, min(TILE_VALUES // unit, t))


def _log_density_matrix(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Per-point, per-component log-densities, shape (T, K).

    Walks the rows in tiles of tile_rows(T, K * D) rows through one buffer;
    each row's arithmetic does not depend on the tile it falls in, so the
    result is independent of the tile size.
    """
    mu = params.means
    k, d = mu.shape
    # constant per component, then the quadratic form
    const = -0.5 * (LOG_2PI + np.log(params.variances)).sum(axis=1)  # (K,)
    inv_var = 1.0 / params.variances
    t = features.shape[0]
    tile = tile_rows(t, k * d)
    buf = np.empty((tile, k, d))
    out = np.empty((t, k))
    for lo in range(0, t, tile):
        rows = features[lo : lo + tile]
        diff = buf[: rows.shape[0]]
        # the same subtractions as the broadcast np.subtract(rows[:, None, :],
        # mu), but over contiguous K * D values rather than D at a time
        np.copyto(diff, rows[:, None, :])
        diff -= mu
        diff *= diff
        out[lo : lo + tile] = const - 0.5 * np.einsum("tkd,kd->tk", diff, inv_var)
    return out


def _log_posteriors(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """(T, K) log posteriors of checked features: the log joint less the
    log-sum-exp of each of its rows, shifted by the row maximum. The E-step
    of both `posteriors` and `em_fit`.

    It works in place on the log-density matrix. The shifted exponentials
    go through one buffer of tile_rows(T, K) rows, each row summed alone,
    so the (T, K) log posteriors are the one array of that size.
    """
    log_joint = _log_density_matrix(features, params)
    log_joint += np.log(params.weights)
    m = log_joint.max(axis=1, keepdims=True)
    t, k = log_joint.shape
    tile = tile_rows(t, k)
    buf = np.empty((tile, k))
    sums = np.empty((t, 1))
    for lo in range(0, t, tile):
        shifted = buf[: min(tile, t - lo)]
        np.subtract(log_joint[lo : lo + tile], m[lo : lo + tile], out=shifted)
        np.exp(shifted, out=shifted)
        np.sum(shifted, axis=1, keepdims=True, out=sums[lo : lo + tile])
    log_joint -= m + np.log(sums)
    return log_joint


def posteriors(features: np.ndarray, params: GmmParams) -> np.ndarray:
    """Component posterior probabilities for every point, shape (T, K).

    Computed entirely in the log domain so that badly scaled inputs only
    shift log-densities instead of overflowing them. Rows sum to one.
    Memory is the (T, K) result, exponentiated in place, plus O(T) and
    tile buffers: no (T, K, D) array and no second (T, K) array is formed.
    """
    features = _check_features(features, params.dim)
    gamma = _log_posteriors(features, params)
    return np.exp(gamma, out=gamma)


def _sq_distances(features: np.ndarray, center) -> np.ndarray:
    """Squared distance of every row to `center`, shape (T,). Rows go
    through one buffer of tile_rows(T, D) rows and each row is summed
    alone, so no (T, D) temporary is formed and no block size changes a
    result bit. A center of 0.0 gives the squared row norms exactly."""
    t, d = features.shape
    tile = tile_rows(t, d)
    buf = np.empty((tile, d))
    out = np.empty(t)
    for lo in range(0, t, tile):
        block = buf[: min(tile, t - lo)]
        np.subtract(features[lo : lo + tile], center, out=block)
        np.square(block, out=block)
        np.sum(block, axis=1, out=out[lo : lo + tile])
    return out


def _kmeanspp_centers(
    features: np.ndarray, n_components: int, rng: np.random.Generator
) -> np.ndarray:
    t = features.shape[0]
    centers = np.empty((n_components, features.shape[1]))
    first = int(rng.integers(t))
    centers[0] = features[first]
    d2 = _sq_distances(features, centers[0])
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
        np.minimum(d2, _sq_distances(features, centers[k]), out=d2)
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

    Memory beyond the points is one (T, K) distance buffer and O(T) row
    norms and assignments. Column-major points are read in place; any
    other layout adds a (D, T) column copy. The layout changes no bit.
    """
    features = _check_features(features)
    t, d = features.shape
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_centers(features, n_components, rng)

    row_norms = _sq_distances(features, 0.0)
    # (D, T): one bincount per coordinate; on the strided columns of
    # row-major `features`, bincount runs about five times slower. A view
    # of column-major features, else a copy.
    columns = np.ascontiguousarray(features.T)
    sums = np.empty((n_components, d))
    assign = np.full(t, -1, dtype=np.intp)
    d2 = np.empty((t, n_components))  # reused by every pass
    for _ in range(100):
        # scaling by -2 is exact, so this is |x|^2 - 2 x.c + |c|^2 bit for bit
        np.matmul(features, -2.0 * centers.T, out=d2)
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

    # `counts` are those of `assign`, and every pass leaves each cluster a member
    weights = counts / t
    variances = np.empty((n_components, d))
    for k in range(n_components):
        mask = assign == k
        variances[k] = np.maximum(features[mask].var(axis=0), VARIANCE_FLOOR)
    weights = weights / weights.sum()
    params = GmmParams(weights, centers.copy(), variances)
    params.validate()
    return params


def em_fit(features: np.ndarray, init: GmmParams, seed: int = 0) -> GmmParams:
    """One expectation-maximization step from a seeded mixture.

    The E-step runs until no component starves: one whose posterior mass is
    below STARVED_MASS is re-seeded to a random data point, logged as a
    warning, and the E-step runs again, at most EM_MAX_ITER times in all.
    Then one M-step, if some E-step starved nothing. The strict xfail
    `test_em_runs_more_than_one_e_step` records that EM stops there; more
    steps change fitted mixtures, so they wait for a re-baseline (ROADMAP
    item 5).

    Memory is the (T, K) posteriors of the E-step `posteriors` runs, plus
    the (T, D) squared features of the M-step. Points given up as
    `_Scratch` are squared in place instead, as no pass reads them after
    it; a re-seed copies points that are not row-major. The points' layout
    changes no bit.
    """
    overwrite = isinstance(features, _Scratch)
    features = _check_features(features, init.dim)
    t = features.shape[0]
    params = init.copy()
    rng = np.random.default_rng(seed)
    data_var = None  # the re-seed variance, computed on first use
    for _ in range(EM_MAX_ITER):
        gamma = _log_posteriors(features, params)
        np.exp(gamma, out=gamma)
        nk = gamma.sum(axis=0)
        starved = nk < STARVED_MASS
        if not starved.any():
            params.weights = nk / t
            params.means = (gamma.T @ features) / nk[:, None]
            squares = np.square(features, out=features) if overwrite else features**2
            second = (gamma.T @ squares) / nk[:, None]
            params.variances = np.maximum(second - params.means**2, VARIANCE_FLOOR)
            break
        if data_var is None:
            # numpy sums the columns of row-major points in row order, and
            # those of column-major ones pairwise
            rowwise = np.ascontiguousarray(features).var(axis=0)
            data_var = np.maximum(rowwise, VARIANCE_FLOOR)
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
    params.weights = params.weights / params.weights.sum()
    params.validate()
    return params


def _clamp(values: np.ndarray, limit: float) -> np.ndarray:
    """np.clip(values, -limit, limit), without its per-call Python overhead."""
    return np.minimum(np.maximum(values, -limit), limit)


def _clamped_logistic(nu: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-_clamp(nu, NU_LIMIT)))


def reparam_forward(raw: RawGmmParams) -> GmmParams:
    """Materialize constrained parameters from raw coordinates.

    weights_j = logistic(nu_j) / sum_l logistic(nu_l), with nu clamped to
    [-NU_LIMIT, NU_LIMIT]; variances = VARIANCE_FLOOR + exp(zeta), with zeta
    clamped to [-ZETA_LIMIT, ZETA_LIMIT] so exp never overflows. Valid for
    every real raw value, so no projection step exists anywhere in training.
    """
    s = _clamped_logistic(np.asarray(raw.nu, dtype=np.float64))
    weights = s / s.sum()
    zeta = _clamp(np.asarray(raw.zeta, dtype=np.float64), ZETA_LIMIT)
    variances = VARIANCE_FLOOR + np.exp(zeta)
    return GmmParams(weights, np.array(raw.means, dtype=np.float64, copy=True), variances)


def reparam_backward(
    raw: RawGmmParams, d_weights: np.ndarray, d_variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pull gradients on (weights, variances) back to (nu, zeta).

    d nu_j = s'(nu_j) * (d_weights_j - sum_k d_weights_k * weights_k) / Z
    with Z the logistic normalizer; d zeta = d_variances * exp(zeta).
    Coordinates beyond either clamp get zero, matching the flat forward.
    d_weights (K,) and d_variances (K, D) may carry a leading image axis,
    (B, K) and (B, K, D); each image's rows are then bit for bit its
    one-image results, since the sum over k stays one dot per image.
    """
    nu = np.asarray(raw.nu, dtype=np.float64)
    s = _clamped_logistic(nu)
    z = s.sum()
    weights = s / z
    sprime = s * (1.0 - s)
    d_weights = np.asarray(d_weights, dtype=np.float64)
    dots = [np.dot(row, weights) for row in d_weights.reshape(-1, weights.shape[0])]
    inner = d_weights - np.reshape(dots, d_weights.shape[:-1] + (1,))
    d_nu = sprime * inner / z
    d_nu = np.where(np.abs(nu) > NU_LIMIT, 0.0, d_nu)
    zeta = np.asarray(raw.zeta, dtype=np.float64)
    d_zeta = np.asarray(d_variances, dtype=np.float64) * np.exp(_clamp(zeta, ZETA_LIMIT))
    d_zeta = np.where(np.abs(zeta) > ZETA_LIMIT, 0.0, d_zeta)
    return d_nu, d_zeta


def raw_from_params(params: GmmParams) -> RawGmmParams:
    """Invert the reparameterization for a fitted mixture.

    nu = logit(weights / 2), so the logistic values come out as weights / 2
    and the normalizer rescales them back to exactly the input weights.
    zeta = log(variances - VARIANCE_FLOOR) with variances first floored just
    above VARIANCE_FLOOR so the log exists.
    """
    params.validate()
    nu = np.log(params.weights) - np.log(2.0 - params.weights)
    floored = np.maximum(params.variances, VARIANCE_FLOOR + 1e-12)
    zeta = np.log(floored - VARIANCE_FLOOR)
    return RawGmmParams(nu, zeta, params.means.copy())
