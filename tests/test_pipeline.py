"""Two-phase trainer: init, SGD mechanics, determinism, demo."""

import copy
import tracemalloc

import numpy as np
import pytest

import fvlayer.gmm as gmm
import fvlayer.pipeline as pipeline
from fvlayer.data_io import (
    Dataset,
    DatasetItem,
    make_synthetic_2d,
    read_checkpoint,
    write_checkpoint,
)
from fvlayer.feature_layer import invert_features, layer_forward
from fvlayer.gmm import VARIANCE_FLOOR, raw_from_params
from fvlayer.pipeline import (
    METRICS_HEADER,
    TrainConfig,
    TrainMode,
    TrainState,
    _clip_block,
    _fit_mixture,
    _fit_svms,
    _grad_chunk,
    checkpoint_encode,
    evaluate_checkpoint,
    joint_step,
    phase1_init,
    retrain_svms,
    shift_demo,
    train,
)
from fvlayer.svm import accuracy, average_precision, decision_scores


def tiny_config(mode=TrainMode.THETA_GMM_FEATURE, **overrides):
    base = dict(n_components=2, batch_size=8, eta=1e-3, svm_init_epochs=8,
                svm_epochs=40, joint_epochs=2, mode=mode, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_2d(n_per_class=10, seed=7)


# -------------------------------------------------------------- phase 1


def test_phase1_inverts_all_rows_in_one_call_per_pass(dataset, monkeypatch):
    calls = []

    def counted(features, params):
        calls.append(features.shape)
        return invert_features(features, params)

    monkeypatch.setattr(pipeline, "invert_features", counted)
    # images of 20 to 24 points, all within one row block: one solve over
    # all rows for the points the mixture is fitted on, then one for the
    # layer inputs, split back
    items = [DatasetItem(item.image_id, item.features[: 20 + i % 5], item.labels)
             for i, item in enumerate(dataset.items)]
    state = phase1_init(Dataset(items), tiny_config())
    assert calls == [(sum(len(item.features) for item in items), 2)] * 2
    for inputs, item in zip(state.inputs, items):
        np.testing.assert_array_equal(
            inputs, invert_features(item.features, state.init_layer))


def test_phase1_produces_consistent_state(dataset):
    state = phase1_init(dataset, tiny_config())
    state.gmm().validate()
    assert state.n_images == 20
    assert len(state.svms) == 2
    assert len(state.inputs) == 20
    # epoch-zero metrics, one row per class
    assert len(state.metrics) == 2
    assert all(row[0] == 0 for row in state.metrics)
    # inversion round trip: the checkpoint encodes raw features as the
    # trainer encodes their inverted inputs
    for mode in (TrainMode.THETA, TrainMode.THETA_GMM_FEATURE):
        state = phase1_init(dataset, tiny_config(mode=mode))
        assert (state.to_checkpoint().layer is not None) == mode.updates_layer
        np.testing.assert_allclose(
            checkpoint_encode(state.to_checkpoint(), dataset.items[0].features),
            state.encoder().forward(state.inputs[0][None])[0][0],
            rtol=1e-10, atol=1e-12)


def blob_dataset(lengths, dim, seed):
    """Two-class images of the given point counts, features inside (-1, 1)."""
    rng = np.random.default_rng(seed)
    items = []
    for i, t in enumerate(lengths):
        label = np.array([1.0, -1.0]) if i % 2 else np.array([-1.0, 1.0])
        features = np.tanh(0.5 * rng.normal(size=(t, dim)) + 0.1 * label[0])
        items.append(DatasetItem(f"img{i}", features, label))
    return Dataset(items)


def test_phase1_blocks_are_bit_identical_to_one_pass(monkeypatch):
    # blocks of 37 rows on 12 images of 50 to 94 points: most block edges
    # fall inside an image
    data = blob_dataset([50 + 4 * i for i in range(12)], dim=8, seed=5)
    config = tiny_config(n_components=3)
    monkeypatch.setattr(gmm, "TILE_VALUES", 37 * 8)
    state = phase1_init(data, config)

    # the one-pass path: one solve and one layer pass over all rows
    prepared = [item.features for item in data.items]
    rows = invert_features(np.vstack(prepared), state.init_layer)
    fitted = _fit_mixture(layer_forward(rows, state.init_layer), 3, config.seed)
    expected = TrainState(
        config=config,
        raw=raw_from_params(fitted),
        init_layer=state.init_layer,
        layer=state.init_layer.copy(),
        svms=[],
        inputs=np.split(rows, np.cumsum([len(f) for f in prepared])[:-1]),
        labels=data.label_matrix(),
    )
    _fit_svms(expected, 0, None)

    for got, want in zip(state.inputs, expected.inputs, strict=True):
        assert np.array_equal(got, want)
    for name in ("nu", "zeta", "means"):
        assert np.array_equal(getattr(state.raw, name), getattr(expected.raw, name))
    for got, want in zip(state.svms, expected.svms, strict=True):
        assert np.array_equal(got.theta, want.theta)


def test_phase1_memory_bounded_by_pooled_points():
    # train-mid shapes: 48 images of T = 1000, D = 32, K = 16. While the
    # mixture is fitted, phase one keeps the column-major pooled points plus
    # one (N, K) work array (N * K = N * D / 2 here); the layer inputs are
    # made only after the fit, once the pooled points are freed.
    data = blob_dataset([1000] * 48, dim=32, seed=9)
    pooled_bytes = 48 * 1000 * 32 * 8
    config = tiny_config(n_components=16, svm_init_epochs=2)
    tracemalloc.start()
    try:
        phase1_init(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * pooled_bytes


def test_training_and_the_demo_leave_the_callers_features_untouched():
    # the mixture fit squares its points in place: they must be its own
    data = blob_dataset([48] * 10, dim=4, seed=13)
    before = [item.features.copy() for item in data.items]
    phase1_init(data, tiny_config(n_components=3))
    train(data, tiny_config(n_components=3, joint_epochs=1))
    shift_demo(data, steps=1, eta=0.3, n_components=3, seed=1)
    for item, features in zip(data.items, before, strict=True):
        np.testing.assert_array_equal(item.features, features)


def test_phase1_subsample_limits_gmm_pool(dataset):
    state = phase1_init(dataset, tiny_config(subsample=5))
    assert all(x.shape[0] == 5 for x in state.inputs)


@pytest.mark.parametrize("subsample", [None, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_phase1_rejects_non_finite_features_by_image_and_row(value, subsample):
    # checked before subsampling, so the row is the image's own; an inf
    # would otherwise be clamped and train silently
    data = make_synthetic_2d(10, seed=7)
    bad = data.items[3]
    bad.features[5, 1] = value
    with pytest.raises(
        ValueError,
        match=rf"image {bad.image_id}: non-finite value {value} at row 5, column 1",
    ):
        phase1_init(data, tiny_config(subsample=subsample))


def test_phase1_rejects_empty_dataset():
    from fvlayer.data_io import Dataset
    with pytest.raises(ValueError):
        phase1_init(Dataset(items=[]), tiny_config())


# ------------------------------------------------------- SGD mechanics


def test_batch_gradient_is_sum_of_per_image_gradients(dataset):
    state = phase1_init(dataset, tiny_config())
    args = (state.raw, state.layer, state.theta_matrix(), True, True)
    pairs = [(state.inputs[i], state.labels[i]) for i in (0, 1, 2)]
    together = _grad_chunk(pairs, *args)
    separate = [_grad_chunk([p], *args)[0] for p in pairs]
    for key in ("d_nu", "d_zeta", "d_means", "d_weight", "d_bias"):
        total = sum(entry[key] for entry in separate)
        batch_total = sum(entry[key] for entry in together)
        np.testing.assert_allclose(batch_total, total, rtol=1e-12, atol=1e-12)


def test_joint_step_applies_clipped_sgd_update(dataset):
    state = phase1_init(dataset, tiny_config())
    frozen = copy.deepcopy(state)
    batch = np.array([0, 3, 5])
    joint_step(state, batch)

    entries = _grad_chunk(
        [(frozen.inputs[i], frozen.labels[i]) for i in batch],
        frozen.raw, frozen.layer, frozen.theta_matrix(), True, True)
    eta = frozen.config.eta
    clip = pipeline.GRAD_CLIP
    expect_nu = frozen.raw.nu - eta * _clip_block(
        sum(e["d_nu"] for e in entries), clip)
    expect_w = frozen.layer.weight - eta * _clip_block(
        sum(e["d_weight"] for e in entries), clip)
    np.testing.assert_allclose(state.raw.nu, expect_nu, rtol=1e-14)
    np.testing.assert_allclose(state.layer.weight, expect_w, rtol=1e-14)


def test_theta_mode_freezes_all_encoder_parameters(dataset):
    state = phase1_init(dataset, tiny_config(mode=TrainMode.THETA))
    before_nu = state.raw.nu.copy()
    before_w = state.layer.weight.copy()
    loss = joint_step(state, np.arange(8))
    assert np.isfinite(loss)
    np.testing.assert_array_equal(state.raw.nu, before_nu)
    np.testing.assert_array_equal(state.layer.weight, before_w)


def test_gmm_mode_freezes_layer_only(dataset):
    state = phase1_init(dataset, tiny_config(mode=TrainMode.THETA_GMM))
    before_nu = state.raw.nu.copy()
    before_w = state.layer.weight.copy()
    joint_step(state, np.arange(8))
    assert np.any(state.raw.nu != before_nu)
    np.testing.assert_array_equal(state.layer.weight, before_w)


def test_constraints_hold_without_projections(dataset):
    state = phase1_init(dataset, tiny_config(eta=5e-3))
    for start in range(0, 16, 4):
        before = state.raw.zeta.copy()
        joint_step(state, np.arange(start, start + 4))
        assert np.any(state.raw.zeta != before)  # the step moved the mixture
        params = state.gmm()
        assert abs(params.weights.sum() - 1.0) <= 1e-12
        assert np.all(params.variances > VARIANCE_FLOOR)


def test_non_finite_gradient_aborts_with_block_report(dataset):
    state = phase1_init(dataset, tiny_config(mode=TrainMode.THETA_GMM))
    state.raw.nu[0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite gradient"):
        joint_step(state, np.arange(4))


def test_retrain_svms_warm_start_converges(dataset):
    state = phase1_init(dataset, tiny_config())
    joint_step(state, np.arange(8))
    retrain_svms(state, round_index=1)
    for svm in state.svms:
        assert svm.gap <= state.config.gap_tol or \
            svm.epochs_run == state.config.svm_epochs


# --------------------------------------------------------- determinism


def test_train_metrics_reproducible(dataset, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        train(dataset, tiny_config(), metrics_path=p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_metrics_independent_of_workers(dataset, tmp_path):
    paths = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
    train(dataset, tiny_config(), workers=1, metrics_path=paths[0])
    train(dataset, tiny_config(), workers=2, metrics_path=paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_bits_independent_of_tile_and_stack_sizes(monkeypatch, tmp_path):
    ds = make_synthetic_2d(8, seed=3)

    def run(tag):
        metrics, checkpoint = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.fvmd"
        state = train(ds, tiny_config(), metrics_path=metrics)
        write_checkpoint(checkpoint, state.to_checkpoint())
        return metrics.read_bytes(), checkpoint.read_bytes()

    base = run("base")
    # one image per stack, and tiles of 3 rows at K = D = 2
    monkeypatch.setattr(gmm, "TILE_VALUES", 13)
    assert run("small") == base


def test_metrics_file_schema(dataset, tmp_path):
    path = tmp_path / "m.csv"
    state = train(dataset, tiny_config(joint_epochs=1), metrics_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(state.metrics)
    for row in rows:
        assert len(row) == 7
        assert row[2] == TrainMode.THETA_GMM_FEATURE.value
        float(row[4]), float(row[5]), float(row[6])  # numeric columns parse


# ---------------------------------------------------------- evaluation


@pytest.mark.parametrize("mode", [TrainMode.THETA, TrainMode.THETA_GMM_FEATURE])
def test_checkpoint_eval_matches_state_eval(dataset, tmp_path, mode):
    state = train(dataset, tiny_config(mode=mode, joint_epochs=1))
    encoder = state.encoder()
    encodings = np.stack([encoder.forward(x[None])[0][0] for x in state.inputs])
    path = tmp_path / "m.fvmd"
    write_checkpoint(path, state.to_checkpoint())
    loaded = evaluate_checkpoint(read_checkpoint(path), dataset)
    assert (read_checkpoint(path).layer is not None) == mode.updates_layer
    assert len(loaded) == len(state.svms)
    for svm, b in zip(state.svms, loaded):
        scores = decision_scores(svm, encodings)
        labels = state.labels[:, b.class_index]
        assert average_precision(scores, labels) == pytest.approx(b.ap, abs=1e-12)
        assert accuracy(scores, labels) == pytest.approx(b.accuracy, abs=1e-12)


@pytest.mark.parametrize("mode", [TrainMode.THETA, TrainMode.THETA_GMM_FEATURE])
def test_evaluate_checkpoint_scores_the_encodings_checkpoint_encode_makes(dataset, mode):
    # one inference path: three point counts form several stacks, and the
    # last image is above one stack's budget, so the kernels tile its rows
    checkpoint = train(dataset, tiny_config(mode=mode, joint_epochs=1)).to_checkpoint()
    big = gmm.TILE_VALUES // (2 * 2) + 100
    heldout = blob_dataset([20, 31, 20, 47, 31, 20, 47, big], dim=2, seed=19)
    images = [item.features for item in heldout.items]
    assert len(pipeline._stacks(images, 2 * 2)) == 4
    encodings = np.stack([checkpoint_encode(checkpoint, x) for x in images])
    labels = heldout.label_matrix()
    reports = evaluate_checkpoint(checkpoint, heldout)
    assert [r.class_index for r in reports] == [0, 1]
    for report, theta in zip(reports, checkpoint.thetas):
        scores = encodings @ theta[:-1] + theta[-1]
        assert report.ap == average_precision(scores, labels[:, report.class_index])
        assert report.accuracy == accuracy(scores, labels[:, report.class_index])


def test_checkpoint_encode_matches_state_encode(dataset):
    state = train(dataset, tiny_config(joint_epochs=1))
    checkpoint = state.to_checkpoint()
    features = dataset.items[0].features
    np.testing.assert_allclose(checkpoint_encode(checkpoint, features),
                               state.encoder().forward(state.inputs[0][None])[0][0],
                               rtol=1e-10, atol=1e-12)


def test_evaluate_reports_all_classes(dataset):
    state = phase1_init(dataset, tiny_config())
    reports = evaluate_checkpoint(state.to_checkpoint(), dataset)
    assert [r.class_index for r in reports] == [0, 1]
    for rep in reports:
        assert 0.0 <= rep.ap <= 1.0
        assert 0.0 <= rep.accuracy <= 1.0


@pytest.mark.parametrize("mode", [TrainMode.THETA, TrainMode.THETA_GMM_FEATURE])
def test_checkpoint_encode_rejects_a_nan_by_row_and_column(dataset, mode):
    checkpoint = phase1_init(dataset, tiny_config(mode=mode)).to_checkpoint()
    features = dataset.items[0].features.copy()
    features[4, 1] = np.nan
    with pytest.raises(ValueError, match=r"^the image: non-finite value nan at row 4, "
                       r"column 1$"):
        checkpoint_encode(checkpoint, features)
    # a non-finite encoding of finite features says so without a location
    checkpoint.raw.means[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^the image encodes to non-finite values$"):
        checkpoint_encode(checkpoint, dataset.items[0].features)


def test_evaluate_checkpoint_names_the_image_with_a_nan(dataset):
    checkpoint = phase1_init(dataset, tiny_config()).to_checkpoint()
    items = list(dataset.items)
    bad = items[6]
    features = bad.features.copy()
    features[2, 0] = np.nan
    items[6] = DatasetItem(bad.image_id, features, bad.labels)
    with pytest.raises(ValueError, match=rf"^image {bad.image_id}: non-finite value nan "
                       r"at row 2, column 0$"):
        evaluate_checkpoint(checkpoint, Dataset(items))
    # a non-finite encoding of finite features names the image alone
    checkpoint.raw.means[0, 0] = np.nan
    with pytest.raises(ValueError, match=rf"^image {items[0].image_id} encodes to "
                       r"non-finite values$"):
        evaluate_checkpoint(checkpoint, dataset)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("mode", [TrainMode.THETA, TrainMode.THETA_GMM_FEATURE])
def test_encoding_rejects_an_infinite_feature_by_image_row_and_column(dataset, mode, value):
    # clamping would otherwise turn it into 1 - 1e-6 and encode it silently
    checkpoint = phase1_init(dataset, tiny_config(mode=mode)).to_checkpoint()
    items = list(dataset.items)
    bad = items[13]
    features = bad.features.copy()
    features[3, 1] = value
    items[13] = DatasetItem(bad.image_id, features, bad.labels)
    with pytest.raises(ValueError, match=rf"^the image: non-finite value {value} "
                       r"at row 3, column 1$"):
        checkpoint_encode(checkpoint, features)
    with pytest.raises(ValueError, match=rf"^image {bad.image_id}: non-finite value "
                       rf"{value} at row 3, column 1$"):
        evaluate_checkpoint(checkpoint, Dataset(items))


# --------------------------------------------------------------- demo


def test_shift_demo_step_zero_is_untouched_input():
    ds = make_synthetic_2d(n_per_class=5, seed=3)
    result = shift_demo(ds, steps=2, eta=0.3, n_components=2, seed=1)
    assert len(result.positions) == 3
    assert result.accuracies.shape == (3,)
    assert result.separations.shape == (3,)
    for i, item in enumerate(ds.items):
        np.testing.assert_array_equal(result.positions[0][i], item.features)


def test_shift_demo_moves_points():
    ds = make_synthetic_2d(n_per_class=5, seed=3)
    result = shift_demo(ds, steps=2, eta=0.3, n_components=2, seed=1)
    assert np.any(result.positions[1] != result.positions[0])
    assert np.all(np.isfinite(result.positions[-1]))
