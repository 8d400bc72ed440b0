"""Encoding layer: forward agreement, invariances, backward vs oracles."""

import numpy as np
import pytest

import fvlayer.gmm as gmm
from fvlayer.fisher import (
    fv_backward_input,
    fv_backward_params,
    fv_forward,
    fv_forward_naive,
    fv_jacobian_input,
    fv_jacobian_params,
    fv_length,
    split_blocks,
)
from fvlayer.gmm import GmmParams, em_fit, posteriors
from fvlayer.gradcheck import (
    check_fv_blocks,
    fd_jacobian,
    max_rel_error,
    random_instance,
)


def make_instance(k, d, t, seed):
    rng = np.random.default_rng(seed)
    params = GmmParams(
        weights=rng.dirichlet(np.full(k, 4.0)),
        means=rng.normal(size=(k, d)),
        variances=rng.uniform(0.3, 2.0, size=(k, d)),
    )
    return rng.normal(size=(t, d)), params, rng


# -------------------------------------------------------------- layout


def test_fv_length_values():
    assert fv_length(1, 1) == 3
    assert fv_length(2, 3) == 14
    assert fv_length(5, 4) == 45


def test_split_blocks_partitions_vector():
    k, d = 3, 2
    vec = np.arange(fv_length(k, d), dtype=np.float64)
    w, mu, var = split_blocks(vec, k, d)
    assert w.shape == (k,) and mu.shape == (k, d) and var.shape == (k, d)
    np.testing.assert_array_equal(
        np.concatenate([w, mu.ravel(), var.ravel()]), vec)


def test_split_blocks_rejects_wrong_length():
    with pytest.raises(ValueError):
        split_blocks(np.zeros(10), 3, 2)


# ------------------------------------------------------------- forward


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        t = int(rng.integers(1, 40))
        feats, params, _ = make_instance(k, d, t, int(rng.integers(1 << 30)))
        fast, gamma, _ = fv_forward(feats, params)
        slow = fv_forward_naive(feats, params)
        assert max_rel_error(fast, slow) <= 1e-10
        np.testing.assert_allclose(gamma, posteriors(feats, params),
                                   rtol=1e-12, atol=1e-300)


def test_forward_single_point_single_component():
    # K=1 forces gamma=1; the three blocks collapse to closed forms
    x = np.array([[0.7, -1.1]])
    params = GmmParams(weights=np.array([1.0]),
                       means=np.array([[0.2, 0.3]]),
                       variances=np.array([[0.5, 2.0]]))
    encoding, _, _ = fv_forward(x, params)
    alpha = (x[0] - params.means[0]) / np.sqrt(params.variances[0])
    np.testing.assert_allclose(encoding[0], 0.0, atol=1e-15)  # (1-1)/sqrt(1)
    np.testing.assert_allclose(encoding[1:3], alpha, rtol=1e-14)
    np.testing.assert_allclose(encoding[3:5], (alpha**2 - 1.0) / np.sqrt(2.0),
                               rtol=1e-14)


def test_forward_permutation_invariant():
    feats, params, rng = make_instance(3, 2, 20, seed=9)
    base, _, _ = fv_forward(feats, params)
    shuffled, _, _ = fv_forward(feats[rng.permutation(20)], params)
    np.testing.assert_allclose(shuffled, base, rtol=1e-12, atol=1e-14)


def test_forward_duplication_invariant():
    # every block is an average over points, so tiling the set is a no-op
    feats, params, _ = make_instance(2, 3, 11, seed=13)
    base, _, _ = fv_forward(feats, params)
    doubled, _, _ = fv_forward(np.tile(feats, (2, 1)), params)
    np.testing.assert_allclose(doubled, base, rtol=1e-12, atol=1e-14)


def test_forward_rejects_dim_mismatch():
    feats, params, _ = make_instance(2, 3, 4, seed=1)
    with pytest.raises(ValueError):
        fv_forward(feats[:, :2], params)


def test_stats_starved_count():
    feats, params, _ = make_instance(2, 2, 8, seed=3)
    _, _, stats = fv_forward(feats, params)
    assert stats.starved_count() == 0
    far = GmmParams(weights=np.array([0.5, 0.5]),
                    means=np.array([[0.0, 0.0], [500.0, 500.0]]),
                    variances=np.ones((2, 2)))
    _, _, stats = fv_forward(feats, far)
    assert stats.starved_count() == 1


# ------------------------------------------------------------ backward


def test_backward_params_matches_fd():
    errs = check_fv_blocks(n_components=2, dim=2, n_points=5, seed=17)
    for name, err in errs.items():
        assert err <= 1e-6, f"{name}: {err}"


def test_backward_input_matches_fd_directly():
    feats, params, rng = make_instance(2, 2, 3, seed=21)
    upstream = rng.normal(size=fv_length(2, 2))

    def loss(flat):
        enc, _, _ = fv_forward(flat.reshape(3, 2), params)
        return np.array([enc @ upstream])

    numeric = fd_jacobian(loss, feats.ravel())[0].reshape(3, 2)
    _, gamma, _ = fv_forward(feats, params)
    analytic = fv_backward_input(feats, params, gamma, upstream)
    assert max_rel_error(analytic, numeric) <= 1e-6


def test_backward_linear_in_upstream():
    feats, params, rng = make_instance(3, 2, 6, seed=23)
    _, gamma, _ = fv_forward(feats, params)
    u1 = rng.normal(size=fv_length(3, 2))
    u2 = rng.normal(size=fv_length(3, 2))
    separate = [
        np.concatenate([b.ravel() for b in
                        fv_backward_params(feats, params, gamma, u)])
        for u in (u1, u2)
    ]
    combined = np.concatenate([
        b.ravel() for b in fv_backward_params(feats, params, gamma, u1 + u2)])
    np.testing.assert_allclose(combined, separate[0] + separate[1],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        fv_backward_input(feats, params, gamma, u1 + u2),
        fv_backward_input(feats, params, gamma, u1)
        + fv_backward_input(feats, params, gamma, u2),
        rtol=1e-12, atol=1e-12)


def test_backward_independent_of_chunk_size(monkeypatch):
    feats, params, rng = make_instance(3, 2, 50, seed=29)
    _, gamma, _ = fv_forward(feats, params)
    upstream = rng.normal(size=fv_length(3, 2))
    base_p = fv_backward_params(feats, params, gamma, upstream)
    base_x = fv_backward_input(feats, params, gamma, upstream)
    base_fit = em_fit(feats, params)
    # one constant sets the slabs of the E-step and of both backward passes
    monkeypatch.setattr(gmm, "CHUNK_ROWS", 7)
    chunked_p = fv_backward_params(feats, params, gamma, upstream)
    chunked_x = fv_backward_input(feats, params, gamma, upstream)
    for a, b in zip(base_p, chunked_p):
        np.testing.assert_allclose(b, a, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(chunked_x, base_x, rtol=1e-13, atol=1e-13)
    # the E-step's rows do not depend on their slab, so it is bit-equal
    np.testing.assert_array_equal(posteriors(feats, params), gamma)
    chunked_fit = em_fit(feats, params)
    np.testing.assert_array_equal(chunked_fit.weights, base_fit.weights)
    np.testing.assert_array_equal(chunked_fit.means, base_fit.means)
    np.testing.assert_array_equal(chunked_fit.variances, base_fit.variances)


def test_jacobians_match_onehot_backward():
    feats, params, rng = make_instance(2, 2, 4, seed=31)
    n = fv_length(2, 2)
    jp = fv_jacobian_params(feats, params)
    jx = fv_jacobian_input(feats, params)
    assert jp.shape == (n, 2 + 2 * 2 * 2)
    assert jx.shape == (n, 4 * 2)
    _, gamma, _ = fv_forward(feats, params)
    for i in (0, n // 2, n - 1):
        one_hot = np.zeros(n)
        one_hot[i] = 1.0
        d_w, d_mu, d_var = fv_backward_params(feats, params, gamma, one_hot)
        np.testing.assert_allclose(
            jp[i], np.concatenate([d_w, d_mu.ravel(), d_var.ravel()]),
            rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(
            jx[i], fv_backward_input(feats, params, gamma, one_hot).ravel(),
            rtol=1e-13, atol=1e-15)


def test_battery_instance_battery_is_wide_enough():
    # the gradcheck grid drives the acceptance suite; pin its extent
    from fvlayer.gradcheck import battery_instances
    grid = battery_instances()
    assert len(grid) >= 20
    ks, ds, ts = zip(*grid)
    assert set(ks) == {1, 2, 3} and set(ds) == {1, 2, 3} and set(ts) == {1, 4, 8}


def test_random_instance_is_reproducible():
    a = random_instance(2, 3, 5, seed=77)
    b = random_instance(2, 3, 5, seed=77)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1].weights, b[1].weights)
