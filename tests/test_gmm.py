"""Mixture model: densities, posteriors, fitting, reparameterization."""

import logging
import tracemalloc

import mpmath
import numpy as np
import pytest

import fvlayer.gmm as gmm
from fvlayer.gmm import (
    GmmParams,
    RawGmmParams,
    VARIANCE_FLOOR,
    NU_LIMIT,
    em_fit,
    kmeans_init,
    posteriors,
    raw_from_params,
    reparam_backward,
    reparam_forward,
)
from fvlayer.gradcheck import (
    fd_jacobian,
    max_rel_error,
    posterior_grad_input,
    posterior_grad_params,
)


def random_params(k, d, rng):
    weights = rng.dirichlet(np.full(k, 4.0))
    means = rng.normal(size=(k, d))
    variances = rng.uniform(0.3, 2.0, size=(k, d))
    return GmmParams(weights=weights, means=means, variances=variances)


def mean_log_likelihood(features, params):
    # independent oracle: direct densities with max-subtraction, no shared code
    t, d = features.shape
    logs = np.empty((t, params.n_components))
    for k in range(params.n_components):
        var = params.variances[k]
        diff = features - params.means[k]
        logs[:, k] = (np.log(params.weights[k])
                      - 0.5 * np.sum(np.log(2.0 * np.pi * var))
                      - 0.5 * np.sum(diff * diff / var, axis=1))
    m = logs.max(axis=1, keepdims=True)
    return float(np.mean(m[:, 0] + np.log(np.exp(logs - m).sum(axis=1))))


# ------------------------------------------------------------- density


def test_log_density_matrix_matches_mpmath():
    # oracle: 50-digit evaluation of the same diagonal normal log-density,
    # at the point-component pairs of the E-step's own (T, K) matrix
    rng = np.random.default_rng(3)
    mpmath.mp.dps = 50
    for _ in range(20):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(3, d))
        params = GmmParams(weights=np.full(k, 1.0 / k),
                           means=rng.normal(size=(k, d)),
                           variances=rng.uniform(0.1, 3.0, size=(k, d)))
        got = gmm._log_density_matrix(x, params)
        assert got.shape == (3, k)
        for t in range(3):
            for c in range(k):
                expected = mpmath.mpf(0)
                for j in range(d):
                    xj = mpmath.mpf(x[t, j])
                    mj = mpmath.mpf(params.means[c, j])
                    vj = mpmath.mpf(params.variances[c, j])
                    expected += (-mpmath.log(2 * mpmath.pi * vj) / 2
                                 - (xj - mj) ** 2 / (2 * vj))
                assert abs(got[t, c] - float(expected)) <= \
                    1e-12 * max(1.0, abs(float(expected)))


# ---------------------------------------------------------- posteriors


def test_posteriors_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        params = random_params(k, d, rng)
        feats = rng.normal(size=(int(rng.integers(1, 30)), d))
        gamma = posteriors(feats, params)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(gamma >= 0.0)


def test_posteriors_match_direct_softmax():
    # oracle: unnormalized densities in linear space (safe at this scale)
    rng = np.random.default_rng(5)
    params = random_params(3, 2, rng)
    feats = rng.normal(size=(40, 2))
    dens = np.empty((40, 3))
    for k in range(3):
        var = params.variances[k]
        diff = feats - params.means[k]
        dens[:, k] = (params.weights[k]
                      * np.exp(-0.5 * np.sum(diff * diff / var, axis=1))
                      / np.sqrt(np.prod(2.0 * np.pi * var)))
    expected = dens / dens.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(posteriors(feats, params), expected, rtol=1e-12)


def test_posteriors_survive_extreme_separation():
    # log-domain path: naive linear-space densities underflow to 0/0 here
    params = GmmParams(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [120.0]]),
        variances=np.array([[0.01], [0.01]]),
    )
    gamma = posteriors(np.array([[0.0], [120.0]]), params)
    assert np.all(np.isfinite(gamma))
    np.testing.assert_allclose(gamma, np.eye(2), atol=1e-200)


# ------------------------------------------------------------- k-means


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(7)
    true_centers = np.array([[-6.0, 0.0], [6.0, 0.0], [0.0, 9.0]])
    feats = np.concatenate(
        [c + 0.2 * rng.normal(size=(50, 2)) for c in true_centers])
    params = kmeans_init(feats, 3, seed=1)
    # match learned means to true centers greedily; blobs are far apart
    found = params.means.copy()
    for c in true_centers:
        i = int(np.argmin(np.linalg.norm(found - c, axis=1)))
        assert np.linalg.norm(found[i] - c) < 0.2
        found[i] = np.inf
    np.testing.assert_allclose(params.weights, 1.0 / 3.0, atol=0.02)


def test_kmeans_assignment_is_locally_optimal():
    # brute force: every point must sit with its nearest learned center
    rng = np.random.default_rng(19)
    feats = rng.normal(size=(60, 3))
    params = kmeans_init(feats, 4, seed=2)
    d2 = ((feats[:, None, :] - params.means[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    counts = np.bincount(assign, minlength=4)
    np.testing.assert_allclose(params.weights, counts / 60.0, atol=1e-12)
    for k in range(4):
        cluster = feats[assign == k]
        np.testing.assert_allclose(params.means[k], cluster.mean(axis=0),
                                   atol=1e-10)


def test_kmeans_needs_enough_distinct_rows():
    feats = np.tile(np.array([[1.0, 2.0]]), (10, 1))
    with pytest.raises(ValueError, match="distinct"):
        kmeans_init(feats, 2, seed=0)


def _reference_kmeans_init(features, n_components, seed):
    """kmeans_init as a plain per-cluster Lloyd loop: the oracle for its
    bit-exactness contract. Returns (params, Lloyd iterations, re-seeds)."""
    t = features.shape[0]
    rng = np.random.default_rng(seed)
    centers = gmm._kmeanspp_centers(features, n_components, rng)
    assign = np.full(t, -1, dtype=np.intp)
    iterations = reseeds = 0
    for _ in range(100):
        iterations += 1
        d2 = (
            np.sum(features**2, axis=1)[:, None]
            - 2.0 * features @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)
        for k in range(n_components):
            if not np.any(new_assign == k):
                reseeds += 1
                worst = int(np.argmax(d2[np.arange(t), new_assign]))
                new_assign[worst] = k
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(n_components):
            centers[k] = features[assign == k].mean(axis=0)
    weights = np.empty(n_components)
    variances = np.empty((n_components, features.shape[1]))
    for k in range(n_components):
        mask = assign == k
        weights[k] = mask.sum() / t
        variances[k] = np.maximum(features[mask].var(axis=0), VARIANCE_FLOOR)
    weights = weights / weights.sum()
    return GmmParams(weights, centers, variances), iterations, reseeds


def _assert_same_mixture(got, expected):
    np.testing.assert_array_equal(got.weights, expected.weights)
    np.testing.assert_array_equal(got.means, expected.means)
    np.testing.assert_array_equal(got.variances, expected.variances)


@pytest.mark.parametrize("case", range(12))
def test_kmeans_bit_identical_to_reference_loop(case):
    rng = np.random.default_rng(300 + case)
    t = int(rng.integers(20, 600))
    d = int(rng.integers(2, 7))
    k = int(rng.integers(1, 10))
    feats = rng.normal(size=(t, d)) * rng.uniform(0.1, 10.0) + rng.normal(size=d)
    expected, _, _ = _reference_kmeans_init(feats, k, seed=case)
    _assert_same_mixture(kmeans_init(feats, k, seed=case), expected)


@pytest.mark.parametrize("seed, capped", [(2, True), (3, False), (4, True), (7, False)])
def test_kmeans_bit_identical_to_reference_loop_on_near_ties(seed, capped):
    # 80 copies of 6 rows that differ by ~1e-5 at an offset of 100: the
    # expanded |x|^2 - 2 x.c + |c|^2 rounds at the scale of their separation,
    # so the order of its additions decides assignments. For some seeds
    # clusters keep emptying, get re-seeded, and the loop never settles.
    rng = np.random.default_rng(seed)
    rows = 100.0 + 1e-5 * rng.normal(size=(6, 2))
    feats = rows[rng.integers(0, 6, size=80)]
    expected, iterations, reseeds = _reference_kmeans_init(feats, 6, seed)
    assert (reseeds > 0 and iterations == 100) == capped  # the cap, not a fixed point
    _assert_same_mixture(kmeans_init(feats, 6, seed), expected)


@pytest.mark.parametrize("seed", range(8))
def test_kmeans_reseed_never_empties_a_visited_cluster(seed):
    # 6 rows 1e-6 apart at an offset of 100: assignments are rounding noise,
    # so re-seeds keep firing; a re-seed that took a sole member would leave
    # an earlier cluster empty with a NaN centroid on all 8 seeds
    rng = np.random.default_rng(seed)
    rows = 100.0 + 1e-6 * rng.normal(size=(6, 2))
    feats = rows[rng.integers(0, 6, size=80)]
    params = kmeans_init(feats, 6, seed)
    members = params.weights * 80
    np.testing.assert_allclose(members, np.round(members), rtol=0, atol=1e-9)
    assert np.all(np.round(members) >= 1)
    assert np.all(np.isfinite(params.means))


def test_kmeans_reseed_skips_the_sole_member_of_a_later_cluster(monkeypatch):
    # cluster 0 starts empty and (13, 0), the sole member of cluster 2, is the
    # farthest point from its center. The textbook loop takes it; re-seeding
    # cluster 2 then takes it back, now 87 from center 0, and the mean of the
    # emptied cluster 0 warns. kmeans_init takes (1, 0) from cluster 1.
    feats = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [1.0, 0.0], [13.0, 0.0]])
    centers = np.array([[100.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    monkeypatch.setattr(gmm, "_kmeanspp_centers", lambda *_: centers.copy())
    with pytest.warns(RuntimeWarning, match="empty slice"), np.errstate(invalid="ignore"):
        _reference_kmeans_init(feats, 3, seed=0)
    params = kmeans_init(feats, 3, seed=0)
    np.testing.assert_allclose(params.weights * 5, [2.0, 2.0, 1.0], rtol=1e-12)
    np.testing.assert_array_equal(params.means, [[0.75, 0.0], [-0.25, 0.0], [13.0, 0.0]])


def test_kmeans_one_dimensional_matches_reference_loop_to_rounding():
    # for (n, 1) input numpy's axis-0 mean coalesces to a 1-D pairwise sum,
    # whereas kmeans_init adds rows in order, so centroids may differ in the
    # last bits; assignments (hence weights) still agree
    for seed in range(4):
        rng = np.random.default_rng(400 + seed)
        feats = rng.normal(size=(int(rng.integers(50, 500)), 1))
        expected, _, _ = _reference_kmeans_init(feats, 5, seed)
        got = kmeans_init(feats, 5, seed)
        np.testing.assert_array_equal(got.weights, expected.weights)
        np.testing.assert_allclose(got.means, expected.means, rtol=0, atol=1e-12)


def test_kmeans_variances_floored():
    feats = np.array([[0.0, 0.0], [0.0, 1e-9], [5.0, 0.0], [5.0, 1e-9]])
    params = kmeans_init(feats, 2, seed=0)
    assert np.all(params.variances >= VARIANCE_FLOOR)


# ------------------------------------------------------------------ EM


def test_em_improves_mean_log_likelihood():
    rng = np.random.default_rng(23)
    feats = np.concatenate([
        rng.normal(loc=-2.0, scale=0.5, size=(80, 2)),
        rng.normal(loc=2.0, scale=1.0, size=(80, 2)),
    ])
    init = kmeans_init(feats, 2, seed=3)
    fitted = em_fit(feats, init, seed=3)
    fitted.validate()
    assert mean_log_likelihood(feats, fitted) >= mean_log_likelihood(feats, init) - 1e-12


def test_em_recovers_generating_mixture():
    rng = np.random.default_rng(29)
    feats = np.concatenate([
        rng.normal(loc=[-3.0, 0.0], scale=[0.6, 1.1], size=(400, 2)),
        rng.normal(loc=[3.0, 1.0], scale=[1.0, 0.5], size=(600, 2)),
    ])
    fitted = em_fit(feats, kmeans_init(feats, 2, seed=4), seed=4)
    order = np.argsort(fitted.means[:, 0])
    np.testing.assert_allclose(fitted.weights[order], [0.4, 0.6], atol=0.05)
    np.testing.assert_allclose(fitted.means[order],
                               [[-3.0, 0.0], [3.0, 1.0]], atol=0.15)
    np.testing.assert_allclose(fitted.variances[order],
                               [[0.36, 1.21], [1.0, 0.25]], rtol=0.3)


def test_em_reseeds_starved_component(caplog):
    # second component sits impossibly far away: zero posterior mass
    feats = np.random.default_rng(31).normal(size=(40, 1)) * 1e-2
    init = GmmParams(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [1e6]]),
        variances=np.array([[1.0], [1.0]]),
    )
    with caplog.at_level(logging.WARNING, logger="fvlayer.gmm"):
        fitted = em_fit(feats, init, max_iter=5, seed=0)
    assert any("starved" in rec.message for rec in caplog.records)
    fitted.validate()
    # the re-seeded mean must have moved onto the data
    assert np.all(np.abs(fitted.means) < 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="em_fit stops after one M-step: on the first pass prev_ll is -inf, "
    "so `inf <= tol * inf` holds",
)
def test_em_runs_more_than_one_e_step(monkeypatch):
    rng = np.random.default_rng(61)
    feats = np.concatenate([
        rng.normal(loc=-1.0, scale=1.0, size=(200, 2)),
        rng.normal(loc=1.0, scale=0.5, size=(200, 2)),
    ])
    init = kmeans_init(feats, 2, seed=5)
    e_steps = []
    density = gmm._log_density_matrix

    def counting(features, params):
        e_steps.append(1)
        return density(features, params)

    monkeypatch.setattr(gmm, "_log_density_matrix", counting)
    em_fit(feats, init, seed=5)
    assert len(e_steps) > 1


def test_e_step_memory_bounded_in_t():
    # one unchunked (T, K, D) float64 intermediate here would be 188 MiB
    rng = np.random.default_rng(67)
    feats = rng.normal(size=(48000, 32))
    params = random_params(16, 32, rng)
    limit = 64 * 2**20
    tracemalloc.start()
    try:
        posteriors(feats, params)
        posteriors_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        em_fit(feats, params)
        em_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert posteriors_peak < limit
    assert em_peak < limit


# ------------------------------------------------- reparameterization


def test_reparam_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(10):
        params = random_params(int(rng.integers(1, 5)), int(rng.integers(1, 4)), rng)
        back = reparam_forward(raw_from_params(params))
        np.testing.assert_allclose(back.weights, params.weights, rtol=1e-12)
        np.testing.assert_allclose(back.means, params.means, rtol=1e-12)
        np.testing.assert_allclose(back.variances, params.variances, rtol=1e-10)


def test_reparam_always_feasible():
    # any unconstrained setting must map to a valid mixture
    rng = np.random.default_rng(41)
    for _ in range(50):
        raw = RawGmmParams(
            nu=rng.uniform(-50.0, 50.0, size=3),
            zeta=rng.uniform(-40.0, 10.0, size=(3, 2)),
            means=rng.normal(size=(3, 2)),
        )
        params = reparam_forward(raw)
        params.validate()
        assert abs(params.weights.sum() - 1.0) <= 1e-12
        assert np.all(params.variances > VARIANCE_FLOOR * 0.999)


def test_reparam_backward_matches_fd():
    rng = np.random.default_rng(43)
    k, d = 3, 2
    raw = RawGmmParams(
        nu=rng.normal(size=k),
        zeta=rng.normal(size=(k, d)),
        means=rng.normal(size=(k, d)),
    )
    u_w = rng.normal(size=k)
    u_v = rng.normal(size=(k, d))

    def loss(vec):
        r = RawGmmParams(nu=vec[:k], zeta=vec[k:].reshape(k, d),
                         means=raw.means)
        p = reparam_forward(r)
        return np.array([np.dot(u_w, p.weights) + np.sum(u_v * p.variances)])

    x0 = np.concatenate([raw.nu, raw.zeta.ravel()])
    numeric = fd_jacobian(loss, x0)[0]
    d_nu, d_zeta = reparam_backward(raw, u_w, u_v)
    analytic = np.concatenate([d_nu, d_zeta.ravel()])
    assert max_rel_error(analytic, numeric) <= 1e-6


def test_reparam_backward_clips_saturated_weights():
    raw = RawGmmParams(
        nu=np.array([NU_LIMIT + 5.0, 0.0]),
        zeta=np.zeros((2, 1)),
        means=np.zeros((2, 1)),
    )
    d_nu, _ = reparam_backward(raw, np.array([1.0, -1.0]), np.zeros((2, 1)))
    assert d_nu[0] == 0.0  # clipped coordinate carries no gradient


def test_reparam_survives_extreme_zeta():
    # exp must not overflow, and clipped coordinates freeze like nu does
    raw = RawGmmParams(
        nu=np.zeros(2),
        zeta=np.array([[800.0], [-800.0]]),
        means=np.zeros((2, 1)),
    )
    params = reparam_forward(raw)
    params.validate()
    assert np.all(np.isfinite(params.variances))
    _, d_zeta = reparam_backward(raw, np.zeros(2), np.ones((2, 1)))
    np.testing.assert_array_equal(d_zeta, 0.0)


# -------------------------------------------------- posterior gradients


def test_posterior_grads_sum_to_zero():
    # rows of gamma sum to 1, so their derivatives must sum to 0 over k
    rng = np.random.default_rng(47)
    params = random_params(3, 2, rng)
    feats = rng.normal(size=(6, 2))
    g_in = posterior_grad_input(feats, params)
    np.testing.assert_allclose(g_in.sum(axis=1), 0.0, atol=1e-12)
    d_w, d_mu, d_var = posterior_grad_params(feats, params)
    np.testing.assert_allclose(d_w.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(d_mu.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(d_var.sum(axis=1), 0.0, atol=1e-12)


def test_posterior_grad_input_matches_fd():
    rng = np.random.default_rng(53)
    params = random_params(2, 2, rng)
    x = rng.normal(size=2)

    def gam(vec):
        return posteriors(vec[None, :], params)[0]

    numeric = fd_jacobian(gam, x)
    analytic = posterior_grad_input(x[None, :], params)[0]  # (K, D)
    assert max_rel_error(analytic, numeric) <= 1e-6


def test_validate_rejects_bad_params():
    good = GmmParams(weights=np.array([0.4, 0.6]),
                     means=np.zeros((2, 1)),
                     variances=np.ones((2, 1)))
    good.validate()
    with pytest.raises(ValueError):
        GmmParams(weights=np.array([0.5, 0.6]), means=np.zeros((2, 1)),
                  variances=np.ones((2, 1))).validate()
    with pytest.raises(ValueError):
        GmmParams(weights=np.array([0.4, 0.6]), means=np.zeros((2, 1)),
                  variances=np.array([[1.0], [0.0]])).validate()
    with pytest.raises(ValueError):
        GmmParams(weights=np.array([0.4, 0.6]), means=np.zeros((3, 1)),
                  variances=np.ones((2, 1))).validate()
