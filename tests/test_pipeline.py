"""Two-phase trainer: init, SGD mechanics, determinism, demo."""

import copy

import numpy as np
import pytest

from fvlayer.data_io import make_synthetic_2d, read_checkpoint, write_checkpoint
from fvlayer.gmm import VARIANCE_FLOOR
from fvlayer.pipeline import (
    METRICS_HEADER,
    TrainConfig,
    TrainMode,
    _clip_block,
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
            state.encoder().forward(state.inputs[0])[0],
            rtol=1e-10, atol=1e-12)


def test_phase1_subsample_limits_gmm_pool(dataset):
    state = phase1_init(dataset, tiny_config(subsample=5))
    assert all(x.shape[0] == 5 for x in state.inputs)


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
    clip = frozen.config.grad_clip
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
    encodings = np.stack([encoder.forward(x)[0] for x in state.inputs])
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


def test_checkpoint_encode_matches_state_encode(dataset):
    state = train(dataset, tiny_config(joint_epochs=1))
    checkpoint = state.to_checkpoint()
    features = dataset.items[0].features
    np.testing.assert_allclose(checkpoint_encode(checkpoint, features),
                               state.encoder().forward(state.inputs[0])[0],
                               rtol=1e-10, atol=1e-12)


def test_evaluate_reports_all_classes(dataset):
    state = phase1_init(dataset, tiny_config())
    reports = evaluate_checkpoint(state.to_checkpoint(), dataset)
    assert [r.class_index for r in reports] == [0, 1]
    for rep in reports:
        assert 0.0 <= rep.ap <= 1.0
        assert 0.0 <= rep.accuracy <= 1.0


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
