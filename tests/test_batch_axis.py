"""The encoder's image axis: a stack of images is bit for bit its images alone.

Every stacked result is compared with `assert_array_equal` against the same
image encoded as a stack of one, under the default tile budget and under a
patched small one that splits the batch into several stacks.
"""

import tracemalloc

import numpy as np
import pytest

import fvlayer.gmm as gmm
import fvlayer.pipeline as pipeline
from fvlayer.feature_layer import layer_backward, layer_forward, xavier_init
from fvlayer.fisher import fv_backward, fv_forward, fv_length
from fvlayer.gmm import (
    NU_LIMIT,
    ZETA_LIMIT,
    GmmParams,
    RawGmmParams,
    raw_from_params,
    reparam_backward,
)
from fvlayer.pipeline import (
    Encoder,
    _encode_chunk,
    _forward_stacks,
    _grad_chunk,
    _stacks,
)

# (point counts of the images, K, D)
CASES = {
    "24x(32,2,2)": ([32] * 24, 2, 2),
    "120x(32,2,2)": ([32] * 120, 2, 2),
    "T=1": ([1] * 9, 3, 2),
    "K=D=1": ([40] * 11, 1, 1),
    "multi-tile image": ([1000] * 3, 16, 32),
    # above 1,024 points per image; the id predates the one stack budget
    "T>CHUNK_ROWS": ([1100] * 7, 2, 3),
    "mixed T": ([32, 7, 32, 1, 7, 32, 50, 1, 32, 7], 3, 2),
}


def _instance(ts, k, d, seed):
    rng = np.random.default_rng(seed)
    params = GmmParams(rng.dirichlet(np.full(k, 3.0)), rng.normal(size=(k, d)),
                       rng.uniform(0.3, 2.0, size=(k, d)))
    layer = xavier_init(d, seed)
    layer.bias = rng.normal(0.0, 0.1, size=d)
    images = [rng.normal(0.0, 0.8, size=(t, d)) for t in ts]
    upstreams = rng.normal(size=(len(ts), fv_length(k, d)))
    return params, layer, images, upstreams


def _outputs(encoder, encodings, cache, grads, j):
    """Every per-image output of stack position j, as a flat list."""
    t = cache.gamma.shape[0] // encodings.shape[0]
    out = [encodings[j], cache.gamma[j * t : (j + 1) * t],
           cache.stats.s0[j], cache.stats.s1[j], cache.stats.s2[j]]
    return out + [g[j] for g in grads if g is not None]


def _per_image(encoder, images, upstreams, want_input):
    out = []
    for image, upstream in zip(images, upstreams):
        encodings, cache = encoder.forward(image[None])
        grads = encoder.backward(cache, upstream[None], want_input)
        out.append(_outputs(encoder, encodings, cache, grads, 0))
    return out


def _stacked(encoder, images, upstreams, want_input):
    out = [None] * len(images)
    for indices, encodings, cache in _forward_stacks(encoder, images):
        grads = encoder.backward(cache, upstreams[indices], want_input)
        for j, i in enumerate(indices):
            out[i] = _outputs(encoder, encodings, cache, grads, j)
    return out


@pytest.fixture(params=["default", "split"])
def budget(request, monkeypatch):
    """Either the default tile budget, or one that holds 5 images of the
    most common size, so stack boundaries cut through each batch."""
    def apply(ts, k, d):
        if request.param == "split":
            monkeypatch.setattr(gmm, "TILE_VALUES", 5 * max(ts, key=ts.count) * k * d)
    return apply


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("with_layer", [True, False], ids=["layer", "identity"])
@pytest.mark.parametrize("want_input", [True, False], ids=["input", "params-only"])
def test_stacked_encoder_matches_one_image_stacks(case, with_layer, want_input, budget):
    ts, k, d = CASES[case]
    budget(ts, k, d)
    params, layer, images, upstreams = _instance(ts, k, d, seed=len(ts) + 7 * k + d)
    encoder = Encoder(params, layer if with_layer else None)
    stacks = _stacks(images, k * d)
    assert sorted(i for s in stacks for i in s) == list(range(len(ts)))
    alone = _per_image(encoder, images, upstreams, want_input)
    together = _stacked(encoder, images, upstreams, want_input)
    n_outputs = 5 + 3 + (3 if with_layer and want_input else 1 if want_input else 0)
    for got, ref in zip(together, alone):
        assert len(got) == len(ref) == n_outputs
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def test_kernels_stack_multi_tile_images():
    # the pipeline never stacks an image above the budget, but the kernels
    # carry each image's tile sums in its own row order at any stack size
    ts, k, d = [1000] * 3, 16, 32
    params, _, images, upstreams = _instance(ts, k, d, seed=13)
    rows = np.vstack(images)
    fv, gamma, stats = fv_forward(rows, params, 3)
    grads = fv_backward(rows, params, gamma, upstreams, 3)
    for j, image in enumerate(images):
        fv1, gamma1, stats1 = fv_forward(image, params)
        grads1 = fv_backward(image, params, gamma1, upstreams[j])
        np.testing.assert_array_equal(fv[j], fv1)
        np.testing.assert_array_equal(gamma[j * 1000 : (j + 1) * 1000], gamma1)
        for s, s1 in zip((stats.s0, stats.s1, stats.s2), (stats1.s0, stats1.s1, stats1.s2)):
            np.testing.assert_array_equal(s[j], s1)
        for g, g1 in zip(grads[:3], grads1[:3]):
            np.testing.assert_array_equal(g[j], g1)
        np.testing.assert_array_equal(grads[3][j * 1000 : (j + 1) * 1000], grads1[3])


def test_stacks_group_equal_t_in_stable_order(monkeypatch):
    images = [np.zeros((t, 2)) for t in (4, 9, 4, 4, 9, 1, 4)]
    assert _stacks(images, 2) == [[0, 2, 3, 6], [1, 4], [5]]
    monkeypatch.setattr(gmm, "TILE_VALUES", 2 * 4 * 2)  # two 4-point images
    assert _stacks(images, 2) == [[0, 2], [3, 6], [1], [4], [5]]
    monkeypatch.setattr(gmm, "TILE_VALUES", 1)  # above budget: one at a time
    assert _stacks(images, 2) == [[i] for i in (0, 2, 3, 6, 1, 4, 5)]


def test_one_tile_budget_bounds_small_image_stacks():
    # 200 images of T = 32 at K = D = 2 hold 25,600 (rows, K, D) values, under
    # TILE_VALUES, and their 6,400 rows need no cap of their own
    images = [np.zeros((32, 2)) for _ in range(200)]
    assert _stacks(images, 2 * 2) == [list(range(200))]


@pytest.mark.parametrize("case", ["24x(32,2,2)", "mixed T", "T>CHUNK_ROWS"])
@pytest.mark.parametrize("update_gmm,update_layer", [(True, True), (True, False),
                                                     (False, False)])
def test_grad_and_encode_chunks_match_one_image_calls(case, update_gmm, update_layer,
                                                      budget):
    ts, k, d = CASES[case]
    budget(ts, k, d)
    params, layer, images, _ = _instance(ts, k, d, seed=3)
    raw = raw_from_params(params)
    rng = np.random.default_rng(4)
    thetas = rng.normal(size=(2, fv_length(k, d) + 1))
    labels = np.where(rng.random((len(ts), 2)) < 0.5, 1.0, -1.0)
    chunk = list(zip(images, labels))
    args = (raw, layer, thetas, update_gmm, update_layer)
    together = _grad_chunk(chunk, *args)
    for entry, pair in zip(together, chunk):
        alone = _grad_chunk([pair], *args)[0]
        assert entry.keys() == alone.keys()
        for key in entry:
            np.testing.assert_array_equal(entry[key], alone[key])
    encoder = Encoder(params, layer)
    for (enc, starved), image in zip(_encode_chunk(images, encoder), images):
        enc_alone, starved_alone = _encode_chunk([image], encoder)[0]
        np.testing.assert_array_equal(enc, enc_alone)
        assert starved == starved_alone


def _saturated_raw(k, d, seed):
    """Raw coordinates with some nu and zeta beyond their clamps, both sides."""
    rng = np.random.default_rng(seed)
    nu = rng.normal(0.0, 2.0, size=k)
    nu[[0, -1]] = NU_LIMIT + 2.5, -NU_LIMIT - 0.5
    zeta = rng.normal(0.0, 0.5, size=(k, d))
    zeta[0, -1], zeta[-1, 0] = ZETA_LIMIT + 1.0, -ZETA_LIMIT - 4.0
    return RawGmmParams(nu, zeta, rng.normal(size=(k, d)))


@pytest.mark.parametrize("b", [1, 2, 24])
def test_reparam_backward_stack_matches_one_image_calls(b):
    k, d = 5, 3
    raw = _saturated_raw(k, d, seed=b)
    rng = np.random.default_rng(100 + b)
    d_w = rng.normal(size=(b, k))
    d_var = rng.normal(size=(b, k, d))
    d_nu, d_zeta = reparam_backward(raw, d_w, d_var)
    assert d_nu.shape == (b, k) and d_zeta.shape == (b, k, d)
    for j in range(b):
        one_nu, one_zeta = reparam_backward(raw, d_w[j], d_var[j])
        np.testing.assert_array_equal(d_nu[j], one_nu)
        np.testing.assert_array_equal(d_zeta[j], one_zeta)
    np.testing.assert_array_equal(d_nu[:, [0, -1]], 0.0)
    np.testing.assert_array_equal(d_zeta[:, [0, -1], [-1, 0]], 0.0)
    assert np.all(d_nu[:, 1:-1] != 0.0)


@pytest.mark.parametrize("update_layer", [False, True], ids=["theta-gmm", "theta-gmm-feature"])
def test_grad_chunk_pulls_back_each_stack_in_one_reparam_call(update_layer, monkeypatch):
    ts, k, d = [32] * 24 + [7] * 3, 3, 2
    params, layer, images, _ = _instance(ts, k, d, seed=17)
    raw = _saturated_raw(k, d, seed=17)
    rng = np.random.default_rng(18)
    thetas = rng.normal(size=(2, fv_length(k, d) + 1))
    labels = np.where(rng.random((len(ts), 2)) < 0.5, 1.0, -1.0)
    chunk = list(zip(images, labels))
    calls = []

    def counted(*args):
        calls.append(args[1].shape)
        return reparam_backward(*args)

    monkeypatch.setattr(pipeline, "reparam_backward", counted)
    together = _grad_chunk(chunk, raw, layer, thetas, True, update_layer)
    assert calls == [(24, k), (3, k)]
    for entry, pair in zip(together, chunk):
        alone = _grad_chunk([pair], raw, layer, thetas, True, update_layer)[0]
        assert entry.keys() == alone.keys()
        for key in entry:
            np.testing.assert_array_equal(entry[key], alone[key])


def test_layer_backward_reuses_the_forward_activation():
    rng = np.random.default_rng(5)
    layer = xavier_init(3, 5)
    inputs = rng.normal(size=(4 * 6, 3))
    upstream = rng.normal(size=(4 * 6, 3))
    activated = layer_forward(inputs, layer, 4)
    given = layer_backward(inputs, layer, upstream, activated, 4)
    for got, ref in zip(given, layer_backward(inputs, layer, upstream, n_images=4)):
        np.testing.assert_array_equal(got, ref)


def test_large_batch_gradient_memory_bounded_by_tile_budget():
    # 96 images of (64, 16, 32): stacked whole, each (images, rows, K, D)
    # buffer would take 24 MiB; stacks of 4 keep them at 1 MiB
    rng = np.random.default_rng(71)
    k, d = 16, 32
    params = GmmParams(rng.dirichlet(np.full(k, 3.0)), rng.normal(size=(k, d)),
                       rng.uniform(0.3, 2.0, size=(k, d)))
    raw = raw_from_params(params)
    layer = xavier_init(d, 71)
    chunk = [(rng.normal(size=(64, d)), np.array([1.0])) for _ in range(96)]
    thetas = rng.normal(size=(1, fv_length(k, d) + 1))
    assert max(len(s) for s in _stacks([x for x, _ in chunk], k * d)) == 4
    tracemalloc.start()
    try:
        entries = _grad_chunk(chunk, raw, layer, thetas, True, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for e in entries for v in e.values() if isinstance(v, np.ndarray))
    assert peak - kept < 16 * 2**20, f"peaked at {peak / 2**20:.1f} MiB"
