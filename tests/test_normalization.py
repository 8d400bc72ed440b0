"""Power + L2 normalization and its exact backward."""

import numpy as np

from fvlayer.gradcheck import fd_jacobian, max_rel_error
from fvlayer.normalization import norm_backward, norm_forward


def bounded_vector(dim, rng):
    # keep coordinates away from 0 where |v|^(1/2) has unbounded slope
    signs = rng.choice([-1.0, 1.0], size=dim)
    return signs * rng.uniform(0.1, 1.5, size=dim)


def test_forward_hand_case():
    out = norm_forward(np.array([4.0, -9.0]))
    expected = np.array([2.0, -3.0]) / np.sqrt(13.0)
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_forward_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = bounded_vector(int(rng.integers(1, 12)), rng)
        assert abs(np.linalg.norm(norm_forward(v)) - 1.0) <= 1e-12


def test_forward_zero_vector_maps_to_zero():
    np.testing.assert_array_equal(norm_forward(np.zeros(5)), np.zeros(5))


def test_forward_preserves_signs():
    v = np.array([0.5, -0.25, 2.0, -4.0])
    np.testing.assert_array_equal(np.sign(norm_forward(v)), np.sign(v))


def test_backward_matches_fd():
    rng = np.random.default_rng(7)
    for _ in range(15):
        dim = int(rng.integers(2, 10))
        v = bounded_vector(dim, rng)
        u = rng.normal(size=dim)
        numeric = fd_jacobian(lambda x: norm_forward(x), v).T @ u
        analytic = norm_backward(v, u)
        assert max_rel_error(analytic, numeric) <= 1e-6


def test_backward_is_orthogonal_to_input():
    # phi(c v) = phi(v) for c > 0, so the input direction carries no gradient
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = bounded_vector(8, rng)
        u = rng.normal(size=8)
        assert abs(float(v @ norm_backward(v, u))) <= 1e-9 * np.linalg.norm(u)


def test_forward_tangency():
    # ||phi|| == 1 identically, so phi^T J w = 0 for every direction w;
    # verified numerically on the forward map itself
    rng = np.random.default_rng(13)
    for _ in range(10):
        v = bounded_vector(8, rng)
        w = rng.normal(size=8)
        step = 1e-6
        jw = (norm_forward(v + step * w) - norm_forward(v - step * w)) / (2 * step)
        assert abs(float(norm_forward(v) @ jw)) <= 1e-7


def test_backward_masks_near_zero_coordinates():
    v = np.array([1.0, 0.0, -0.5])
    u = np.ones(3)
    out = norm_backward(v, u)
    assert out[1] == 0.0
    assert np.all(np.isfinite(out))
