"""Binary formats, preprocessing, labels, datasets, synthetic data."""

import struct

import numpy as np
import pytest

from fvlayer.data_io import (
    BadMagicError,
    CheckpointData,
    Dataset,
    DatasetItem,
    FileFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
    load_dataset,
    make_synthetic_2d,
    pca_apply,
    pca_fit,
    read_checkpoint,
    read_features,
    read_label_file,
    read_pca,
    save_dataset,
    subsample,
    write_checkpoint,
    write_features,
    write_label_file,
    write_pca,
)
from fvlayer.feature_layer import FeatureLayerParams
from fvlayer.gmm import RawGmmParams


# ------------------------------------------------------- feature files


def test_features_round_trip_bit_exact(tmp_path):
    # signed zero, subnormal, huge, and ordinary values must all survive
    values = np.array([
        [-0.0, np.nextafter(0.0, 1.0)],
        [1e308, -1e-308],
        [np.pi, -2.0 / 3.0],
    ])
    path = tmp_path / "x.fvfs"
    write_features(path, values)
    back = read_features(path)
    assert back.tobytes() == values.tobytes()  # bit-for-bit, keeps -0.0


def test_features_reject_bad_magic(tmp_path):
    path = tmp_path / "bad.fvfs"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError, match="byte 0"):
        read_features(path)


def test_features_reject_bad_version(tmp_path):
    path = tmp_path / "bad.fvfs"
    path.write_bytes(b"FVFS" + struct.pack("<III", 99, 1, 1) + b"\x00" * 8)
    with pytest.raises(UnsupportedVersionError, match="version 99 at byte 4"):
        read_features(path)


def test_features_reject_truncation(tmp_path):
    path = tmp_path / "short.fvfs"
    write_features(path, np.ones((2, 2)))
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(TruncatedFileError, match="byte"):
        read_features(path)


def test_features_reject_trailing_bytes(tmp_path):
    path = tmp_path / "long.fvfs"
    write_features(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FileFormatError, match="2 trailing bytes"):
        read_features(path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_features_reject_non_finite_payload(tmp_path, bad):
    features = np.arange(12.0).reshape(4, 3)
    features[2, 1] = bad
    features[3, 0] = np.nan  # only the first bad value is named
    path = tmp_path / "img.fvfs"
    write_features(path, features)
    with pytest.raises(FileFormatError,
                       match=rf"img\.fvfs: non-finite value {bad} at row 2, column 1$"):
        read_features(path)


def test_features_writer_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError):
        write_features(tmp_path / "x.fvfs", np.zeros(4))


# ----------------------------------------------------------------- PCA


def test_pca_recovers_dominant_direction():
    rng = np.random.default_rng(5)
    direction = np.array([3.0, 4.0]) / 5.0
    samples = (rng.normal(size=(500, 1)) * 5.0) @ direction[None, :]
    samples += 0.01 * rng.normal(size=(500, 2))
    model = pca_fit(samples, 1)
    cos = abs(float(model.basis[0] @ direction))
    assert cos > 0.9999


def test_pca_projection_centers_and_decorrelates():
    rng = np.random.default_rng(7)
    mix = rng.normal(size=(3, 3))
    samples = rng.normal(size=(400, 3)) @ mix.T + np.array([1.0, -2.0, 0.5])
    model = pca_fit(samples, 3)
    proj = pca_apply(model, samples)
    np.testing.assert_allclose(proj.mean(axis=0), 0.0, atol=1e-12)
    cov = np.cov(proj.T)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-10
    assert np.all(np.diff(np.diag(cov)) <= 1e-10)  # variance sorted descending


def test_pca_reconstruction_beats_any_random_plane():
    rng = np.random.default_rng(9)
    samples = rng.normal(size=(200, 4)) * np.array([4.0, 2.0, 0.5, 0.1])
    model = pca_fit(samples, 2)
    centered = samples - samples.mean(axis=0)
    best = np.sum((centered - (centered @ model.basis.T) @ model.basis) ** 2)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        rival = np.sum((centered - (centered @ q) @ q.T) ** 2)
        assert best <= rival + 1e-9


def test_pca_dim_bounds():
    samples = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(ValueError):
        pca_fit(samples, 4)
    with pytest.raises(ValueError):
        pca_fit(samples, 0)
    with pytest.raises(ValueError):
        pca_fit(samples[:2], 2)  # not enough rows


def test_pca_model_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    model = pca_fit(rng.normal(size=(50, 4)), 2)
    path = tmp_path / "m.fvpc"
    write_pca(path, model)
    back = read_pca(path)
    assert back.mean.tobytes() == model.mean.tobytes()
    assert back.basis.tobytes() == model.basis.tobytes()


# ----------------------------------------------------------- subsample


def test_subsample_keeps_small_sets_whole():
    feats = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(subsample(feats, 4, seed=0), feats)
    np.testing.assert_array_equal(subsample(feats, 9, seed=0), feats)


def test_subsample_preserves_original_order():
    feats = np.arange(40.0).reshape(20, 2)
    picked = subsample(feats, 8, seed=5)
    assert picked.shape == (8, 2)
    assert np.all(np.diff(picked[:, 0]) > 0)  # ascending row order kept


def test_subsample_is_unbiased():
    # Monte Carlo: each row kept with probability n/T within 5 points
    t, n, trials = 20, 8, 4000
    feats = np.arange(t, dtype=np.float64).reshape(t, 1)
    counts = np.zeros(t)
    for trial in range(trials):
        picked = subsample(feats, n, seed=trial)
        counts[picked[:, 0].astype(int)] += 1
    rates = counts / trials
    assert np.all(np.abs(rates - n / t) < 0.05)


def test_subsample_deterministic():
    feats = np.random.default_rng(1).normal(size=(30, 2))
    np.testing.assert_array_equal(subsample(feats, 10, seed=9),
                                  subsample(feats, 10, seed=9))


# ---------------------------------------------------- labels / dataset


def test_label_file_round_trip(tmp_path):
    items = [
        DatasetItem("img_a", np.zeros((1, 2)), np.array([1.0, -1.0])),
        DatasetItem("img_b", np.zeros((1, 2)), np.array([-1.0, 1.0])),
    ]
    path = tmp_path / "labels.txt"
    write_label_file(path, Dataset(items))
    entries = read_label_file(path)
    assert [e[0] for e in entries] == ["img_a", "img_b"]
    np.testing.assert_array_equal(entries[0][1], [1.0, -1.0])
    np.testing.assert_array_equal(entries[1][1], [-1.0, 1.0])


def test_label_file_rejects_bad_token(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("img_a +1 maybe\n")
    with pytest.raises(ValueError, match="maybe"):
        read_label_file(path)


def test_label_file_rejects_inconsistent_counts(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("img_a +1 -1\nimg_b +1\n")
    with pytest.raises(ValueError, match="expected 2"):
        read_label_file(path)


def test_label_file_accepts_bare_one(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("img_a 1 -1\n")
    np.testing.assert_array_equal(read_label_file(path)[0][1], [1.0, -1.0])


def test_dataset_save_load_round_trip(tmp_path):
    dataset = make_synthetic_2d(3, seed=2, n_points=5)
    feats_dir = tmp_path / "feats"
    feats_dir.mkdir()
    labels = tmp_path / "labels.txt"
    save_dataset(dataset, feats_dir, labels)
    back = load_dataset(feats_dir, labels)
    assert [i.image_id for i in back.items] == [i.image_id for i in dataset.items]
    for a, b in zip(dataset.items, back.items):
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)


def test_load_dataset_missing_feature_file(tmp_path):
    feats_dir = tmp_path / "feats"
    feats_dir.mkdir()
    labels = tmp_path / "labels.txt"
    labels.write_text("ghost +1\n")
    with pytest.raises(FileNotFoundError):
        load_dataset(feats_dir, labels)


def test_load_dataset_rejects_non_finite_features(tmp_path):
    dataset = make_synthetic_2d(3, seed=2, n_points=5)
    bad = dataset.items[4]
    bad.features[3, 0] = np.inf
    feats_dir = tmp_path / "feats"
    feats_dir.mkdir()
    labels = tmp_path / "labels.txt"
    save_dataset(dataset, feats_dir, labels)
    with pytest.raises(FileFormatError,
                       match=rf"{bad.image_id}\.fvfs: non-finite value inf at row 3, column 0"):
        load_dataset(feats_dir, labels)


# ----------------------------------------------------------- checkpoint


def checkpoint_fixture(with_layer, k=2, d=2, n_classes=2, seed=3):
    rng = np.random.default_rng(seed)
    raw = RawGmmParams(nu=rng.normal(size=k), zeta=rng.normal(size=(k, d)),
                       means=rng.normal(size=(k, d)))
    layer = None
    if with_layer:
        layer = FeatureLayerParams(weight=rng.normal(size=(d, d)),
                                   bias=rng.normal(size=d))
    thetas = rng.normal(size=(n_classes, (2 * d + 1) * k + 1))
    return CheckpointData(raw=raw, layer=layer, thetas=thetas)


@pytest.mark.parametrize("with_layer", [True, False])
def test_checkpoint_round_trip(tmp_path, with_layer):
    ck = checkpoint_fixture(with_layer)
    path = tmp_path / "m.fvmd"
    write_checkpoint(path, ck)
    back = read_checkpoint(path)
    assert back.raw.nu.tobytes() == ck.raw.nu.tobytes()
    assert back.raw.zeta.tobytes() == ck.raw.zeta.tobytes()
    assert back.raw.means.tobytes() == ck.raw.means.tobytes()
    assert back.thetas.tobytes() == ck.thetas.tobytes()
    if with_layer:
        assert back.layer.weight.tobytes() == ck.layer.weight.tobytes()
        assert back.layer.bias.tobytes() == ck.layer.bias.tobytes()
    else:
        assert back.layer is None


def test_checkpoint_rejects_wrong_theta_width(tmp_path):
    ck = checkpoint_fixture(True)
    ck.thetas = ck.thetas[:, :-1]
    with pytest.raises(ValueError, match="thetas"):
        write_checkpoint(tmp_path / "m.fvmd", ck)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "m.fvmd"
    write_checkpoint(path, checkpoint_fixture(True))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedFileError, match="byte"):
        read_checkpoint(path)


# ------------------------------------------------------- synthetic set


def test_synthetic_shapes_and_range():
    ds = make_synthetic_2d(4, seed=0, n_points=16)
    assert len(ds.items) == 8
    assert ds.n_classes == 2
    for item in ds.items:
        assert item.features.shape == (16, 2)
        assert np.all(np.abs(item.features) <= 0.96)


def test_synthetic_labels_and_ids():
    ds = make_synthetic_2d(2, seed=1)
    ids = [i.image_id for i in ds.items]
    assert ids == ["a0000", "b0000", "a0001", "b0001"]
    for item in ds.items:
        expected = [1.0, -1.0] if item.image_id[0] == "a" else [-1.0, 1.0]
        np.testing.assert_array_equal(item.labels, expected)


def test_synthetic_is_deterministic():
    a = make_synthetic_2d(3, seed=7)
    b = make_synthetic_2d(3, seed=7)
    for x, y in zip(a.items, b.items):
        assert x.features.tobytes() == y.features.tobytes()


def test_synthetic_classes_differ_only_by_correlation_sign():
    # pooled per-coordinate moments agree; within-blob correlations flip
    ds = make_synthetic_2d(150, seed=3)
    points = {"a": [], "b": []}
    for item in ds.items:
        points[item.image_id[0]].append(item.features)
    stats = {}
    for tag, clouds in points.items():
        stacked = np.concatenate(clouds)
        right = stacked[stacked[:, 0] > 0.0]
        stats[tag] = (stacked.mean(axis=0), stacked.var(axis=0),
                      np.corrcoef(right.T)[0, 1])
    np.testing.assert_allclose(stats["a"][0], stats["b"][0], atol=0.01)
    np.testing.assert_allclose(stats["a"][1], stats["b"][1], atol=0.01)
    assert stats["a"][2] > 0.5 and stats["b"][2] < -0.5
    assert abs(stats["a"][2] + stats["b"][2]) < 0.05
