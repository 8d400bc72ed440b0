"""Encoding layer: forward agreement, invariances, backward vs oracles."""

import tracemalloc

import numpy as np
import pytest

import fvlayer.fisher as fisher
import fvlayer.gmm as gmm
from fvlayer.fisher import (
    fv_backward,
    fv_backward_input,
    fv_backward_params,
    fv_forward,
    fv_length,
    split_blocks,
)
from fvlayer.gmm import GmmParams, em_fit, posteriors
from fvlayer.gradcheck import (
    check_fv_blocks,
    fd_jacobian,
    fv_forward_naive,
    fv_jacobian_input,
    fv_jacobian_params,
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
    feats, params, rng = make_instance(2, 3, 4, seed=1)
    gamma = posteriors(feats, params)
    upstream = rng.normal(size=fv_length(2, 3))
    # the backward takes no posterior pass, so it needs the row check too
    cases = ((feats[:, :2], "mixture dim"), (feats[:0], "empty"), (feats[0], "2-D"))
    for bad, why in cases:
        with pytest.raises(ValueError, match=why):
            fv_forward(bad, params)
        with pytest.raises(ValueError, match=why):
            fv_backward(bad, params, gamma, upstream)


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
    analytic = fv_backward(feats, params, gamma, upstream)[3]
    assert max_rel_error(analytic, numeric) <= 1e-6


def test_backward_linear_in_upstream():
    feats, params, rng = make_instance(3, 2, 6, seed=23)
    _, gamma, _ = fv_forward(feats, params)
    u1 = rng.normal(size=fv_length(3, 2))
    u2 = rng.normal(size=fv_length(3, 2))
    separate = [
        np.concatenate([b.ravel() for b in
                        fv_backward(feats, params, gamma, u)[:3]])
        for u in (u1, u2)
    ]
    combined = np.concatenate([
        b.ravel() for b in fv_backward(feats, params, gamma, u1 + u2)[:3]])
    np.testing.assert_allclose(combined, separate[0] + separate[1],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        fv_backward(feats, params, gamma, u1 + u2)[3],
        fv_backward(feats, params, gamma, u1)[3]
        + fv_backward(feats, params, gamma, u2)[3],
        rtol=1e-12, atol=1e-12)


def test_backward_independent_of_chunk_size(monkeypatch):
    feats, params, rng = make_instance(3, 2, 50, seed=29)
    _, gamma, _ = fv_forward(feats, params)
    upstream = rng.normal(size=fv_length(3, 2))
    base = fv_backward(feats, params, gamma, upstream)
    base_fit = em_fit(feats, params)
    # tiles inside a chunk carry their sums in row order: bit-equal
    monkeypatch.setattr(gmm, "TILE_VALUES", 13)
    tiled = fv_backward(feats, params, gamma, upstream)
    for a, b in zip(base, tiled):
        np.testing.assert_array_equal(b, a)
    for a, b in zip(base, fv_backward_params(feats, params, gamma, upstream)):
        np.testing.assert_array_equal(b, a)
    # the E-step walks tiles of the same budget, two rows each here
    np.testing.assert_array_equal(posteriors(feats, params), gamma)
    tiled_fit = em_fit(feats, params)
    np.testing.assert_array_equal(tiled_fit.weights, base_fit.weights)
    np.testing.assert_array_equal(tiled_fit.means, base_fit.means)
    np.testing.assert_array_equal(tiled_fit.variances, base_fit.variances)


# Frozen copies of the two backward kernels that fv_backward replaced. They
# stream (chunk, K, D) arrays per chunk of `rows` points; run with one chunk
# per image, the single pass must reproduce them bit for bit. Kept here only
# as the reference.
def _reference_backward_params(features, params, gamma, upstream):
    t = features.shape[0]
    k, d = params.n_components, params.dim
    u_w, u_mu, u_var = split_blocks(upstream, k, d)
    w, mu, var = params.weights, params.means, params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)
    sq2w = np.sqrt(2.0 * w)
    d_w = np.zeros(k)
    d_mu = np.zeros((k, d))
    d_var = np.zeros((k, d))
    rows = t
    for start in range(0, t, rows):
        x = features[start : start + rows]
        g = gamma[start : start + rows]
        c = x.shape[0]
        alpha = (x[:, None, :] - mu[None]) / sigma[None]
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
            ha - u_mu * (s0c / sqw)[:, None] - 2.0 * u_var * ga / sq2w[:, None]
        ) / sigma
        d_var += (
            hq - u_mu * ga / sqw[:, None] - 2.0 * u_var * ga2 / sq2w[:, None]
        ) / (2.0 * var)
    return d_w / t, d_mu / t, d_var / t


def _reference_backward_input(features, params, gamma, upstream):
    t = features.shape[0]
    k, d = params.n_components, params.dim
    u_w, u_mu, u_var = split_blocks(upstream, k, d)
    w, mu, var = params.weights, params.means, params.variances
    sigma = np.sqrt(var)
    sqw = np.sqrt(w)
    sq2w = np.sqrt(2.0 * w)
    direct_mu_coef = u_mu / (sqw[:, None] * sigma)
    direct_var_coef = 2.0 * u_var / sq2w[:, None]
    out = np.empty((t, d))
    rows = t
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


@pytest.mark.parametrize(
    "t,k,d,scale,offset",
    [
        (200, 16, 32, 1.0, 0.0),  # one tile
        (1000, 16, 32, 1.0, 0.0),  # several tiles
        (2500, 16, 32, 1.0, 0.0),  # T > 1024, the old slab size
        (769, 16, 32, 1.0, 0.0),  # last tile of one row
        (2049, 1, 1, 1.0, 0.0),  # K = D = 1: one tile per image
        (5, 300, 500, 1.0, 0.0),  # K * D above the tile budget
        (1100, 129, 3, 2.0, 0.0),  # several tiles, T > 1024
        (1000, 16, 32, 100.0, 1e3),  # off-centre
        (1000, 16, 32, 0.3, -50.0),  # off-centre, narrow
        (600, 8, 64, 1e-3, 1e4),  # badly scaled
    ],
)
def test_backward_bit_identical_to_reference_kernels(t, k, d, scale, offset):
    rng = np.random.default_rng(t * 31 + k * 7 + d)
    params = GmmParams(
        weights=rng.dirichlet(np.full(k, 3.0)),
        means=offset + scale * rng.normal(size=(k, d)),
        variances=scale**2 * rng.uniform(0.3, 2.0, size=(k, d)),
    )
    feats = offset + scale * rng.normal(size=(t, d))
    upstream = rng.normal(size=fv_length(k, d))
    _, gamma, _ = fv_forward(feats, params)
    d_w, d_mu, d_var, d_x = fv_backward(feats, params, gamma, upstream)
    ref_w, ref_mu, ref_var = _reference_backward_params(feats, params, gamma, upstream)
    np.testing.assert_array_equal(d_w, ref_w)
    np.testing.assert_array_equal(d_mu, ref_mu)
    np.testing.assert_array_equal(d_var, ref_var)
    ref_x = _reference_backward_input(feats, params, gamma, upstream)
    np.testing.assert_array_equal(d_x, ref_x)
    # the params-only pass skips the d_features work, not a bit of the sums
    for got, ref in zip(fv_backward_params(feats, params, gamma, upstream),
                        (ref_w, ref_mu, ref_var)):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(
        fv_backward_input(feats, params, gamma, upstream), ref_x)


def test_backward_memory_bounded_by_tile_budget():
    # whole-chunk (rows, K, D) temporaries would take ~200 MiB at this size
    feats, params, rng = make_instance(128, 64, 1500, seed=37)
    _, gamma, _ = fv_forward(feats, params)
    upstream = rng.normal(size=fv_length(128, 64))
    tracemalloc.start()
    try:
        fv_backward(feats, params, gamma, upstream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"


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
        d_w, d_mu, d_var, d_x = fv_backward(feats, params, gamma, one_hot)
        np.testing.assert_allclose(
            jp[i], np.concatenate([d_w, d_mu.ravel(), d_var.ravel()]),
            rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(
            jx[i], d_x.ravel(),
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
