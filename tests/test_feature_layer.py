"""tanh feature layer: init, inversion trick, backward."""

import numpy as np
import pytest

from fvlayer.feature_layer import (
    ATANH_MARGIN,
    FeatureLayerParams,
    invert_features,
    layer_backward,
    layer_forward,
    xavier_init,
)
from fvlayer.gradcheck import fd_jacobian, max_rel_error


def test_xavier_bounds_and_bias():
    for dim, seed in ((2, 0), (5, 1), (16, 2)):
        params = xavier_init(dim, seed=seed)
        limit = np.sqrt(6.0 / (2 * dim))
        assert params.weight.shape == (dim, dim)
        assert np.all(np.abs(params.weight) <= limit)
        np.testing.assert_array_equal(params.bias, np.zeros(dim))


def test_xavier_deterministic_and_well_conditioned():
    a = xavier_init(4, seed=9)
    b = xavier_init(4, seed=9)
    np.testing.assert_array_equal(a.weight, b.weight)
    assert np.linalg.cond(a.weight) < 1e6


def test_inversion_round_trip():
    rng = np.random.default_rng(3)
    for seed in range(5):
        params = xavier_init(3, seed=seed)
        z = rng.uniform(-1.5, 1.5, size=(20, 3))
        x = layer_forward(z, params)
        assert np.all(np.abs(x) < 1.0)
        np.testing.assert_allclose(invert_features(x, params), z,
                                   rtol=1e-9, atol=1e-9)


def test_inversion_then_forward_recovers_saturating_inputs():
    # values at exactly +-1 are clamped inside the atanh domain first
    params = FeatureLayerParams(weight=np.eye(2), bias=np.zeros(2))
    x = np.array([[1.0, -1.0], [0.3, 0.9]])
    z = invert_features(x, params)
    assert np.all(np.isfinite(z))
    back = layer_forward(z, params)
    np.testing.assert_allclose(back[1], x[1], rtol=1e-9)
    np.testing.assert_allclose(back[0], [1.0 - ATANH_MARGIN,
                                         -(1.0 - ATANH_MARGIN)], rtol=1e-12)


@pytest.mark.parametrize("t,d,n", [(32, 2, 120), (1000, 32, 48), (1500, 8, 5),
                                   (7, 3, 40), (10, 1, 5)])
def test_one_solve_over_stacked_images_equals_per_image_solves(t, d, n):
    # phase one inverts every training image in one call, then pools the
    # layer outputs with one layer_forward over the stacked inverted rows
    rng = np.random.default_rng(t + d + n)
    params = xavier_init(d, seed=n)
    params.bias = rng.normal(0.0, 0.1, size=d)
    images = [rng.uniform(-0.99, 0.99, size=(t + i % 3, d)) for i in range(n)]
    ends = np.cumsum([len(x) for x in images])[:-1]
    rows = invert_features(np.vstack(images), params)
    pooled = np.split(layer_forward(rows, params), ends)
    for got, out, image in zip(np.split(rows, ends), pooled, images):
        alone = invert_features(image, params)
        np.testing.assert_array_equal(got, alone)
        np.testing.assert_array_equal(out, layer_forward(alone, params))


def test_inversion_rejects_singular_weight():
    params = FeatureLayerParams(weight=np.zeros((2, 2)), bias=np.zeros(2))
    with pytest.raises(ValueError):
        invert_features(np.zeros((3, 2)), params)


def test_backward_matches_fd():
    rng = np.random.default_rng(17)
    dim, t = 3, 4
    params = xavier_init(dim, seed=5)
    inputs = rng.uniform(-1.2, 1.2, size=(t, dim))
    upstream = rng.normal(size=(t, dim))

    def through_weight(wflat):
        p = FeatureLayerParams(weight=wflat.reshape(dim, dim),
                               bias=params.bias)
        return np.array([np.sum(layer_forward(inputs, p) * upstream)])

    def through_bias(b):
        p = FeatureLayerParams(weight=params.weight, bias=b)
        return np.array([np.sum(layer_forward(inputs, p) * upstream)])

    def through_inputs(flat):
        return np.array([np.sum(
            layer_forward(flat.reshape(t, dim), params) * upstream)])

    d_w, d_b, d_x = layer_backward(inputs, params, upstream)
    assert max_rel_error(
        d_w.ravel(), fd_jacobian(through_weight, params.weight.ravel())[0]) <= 1e-6
    assert max_rel_error(
        d_b, fd_jacobian(through_bias, params.bias)[0]) <= 1e-6
    assert max_rel_error(
        d_x.ravel(), fd_jacobian(through_inputs, inputs.ravel())[0]) <= 1e-6


def test_backward_shapes():
    params = xavier_init(2, seed=0)
    inputs = np.zeros((5, 2))
    upstream = np.ones((5, 2))
    d_w, d_b, d_x = layer_backward(inputs, params, upstream)
    assert d_w.shape == (2, 2) and d_b.shape == (2,) and d_x.shape == (5, 2)


def test_forward_matches_definition():
    params = FeatureLayerParams(weight=np.array([[2.0, 0.0], [1.0, -1.0]]),
                                bias=np.array([0.1, -0.2]))
    z = np.array([[0.3, -0.4]])
    np.testing.assert_allclose(layer_forward(z, params),
                               np.tanh(z @ params.weight.T + params.bias),
                               rtol=1e-15)
