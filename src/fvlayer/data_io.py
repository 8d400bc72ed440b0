"""Datasets, preprocessing, and the binary file formats.

Three little-endian container formats, all strict about length:

  features   magic 'FVFS' | u32 version=1 | u32 T | u32 D | T*D f64
  pca model  magic 'FVPC' | u32 version=1 | u32 D0 | u32 d | D0 f64 mean
             | d*D0 f64 basis rows
  checkpoint magic 'FVMD' | u32 version=1 | u32 K | u32 D | u8 has_layer
             | K f64 nu | K*D f64 zeta | K*D f64 means
             | [D*D f64 weight | D f64 bias]
             | u32 n_classes | n_classes * ((2D+1)K + 1) f64 thetas

Labels live in a plain text file, one image per line:
image id, then one +1/-1 token per class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feature_layer import FeatureLayerParams
from .fisher import fv_length
from .gmm import RawGmmParams

__all__ = [
    "FileFormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "DatasetItem",
    "Dataset",
    "PcaModel",
    "CheckpointData",
    "write_features",
    "read_features",
    "non_finite",
    "pca_fit",
    "pca_apply",
    "write_pca",
    "read_pca",
    "subsample",
    "write_label_file",
    "read_label_file",
    "load_dataset",
    "save_dataset",
    "write_checkpoint",
    "read_checkpoint",
    "make_synthetic_2d",
]

MAGIC_FEATURES = b"FVFS"
MAGIC_PCA = b"FVPC"
MAGIC_CHECKPOINT = b"FVMD"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Base class for malformed container files."""


class BadMagicError(FileFormatError):
    pass


class UnsupportedVersionError(FileFormatError):
    pass


class TruncatedFileError(FileFormatError):
    pass


class _Reader:
    """Sequential binary reader that reports exact byte offsets on failure."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise TruncatedFileError(
                f"{self.name}: {what} needs bytes {self.pos}..{end}, "
                f"file ends at byte {len(self.data)}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def magic(self, expected: bytes) -> None:
        got = self.take(4, "magic")
        if got != expected:
            raise BadMagicError(
                f"{self.name}: bad magic {got!r} at byte 0, expected {expected!r}"
            )

    def version(self) -> None:
        at = self.pos
        (value,) = struct.unpack("<I", self.take(4, "version"))
        if value != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"{self.name}: unsupported version {value} at byte {at}"
            )

    def u32(self, what: str) -> int:
        (value,) = struct.unpack("<I", self.take(4, what))
        return value

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def f64(self, count: int, what: str) -> np.ndarray:
        raw = self.take(count * 8, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FileFormatError(
                f"{self.name}: {len(self.data) - self.pos} trailing bytes "
                f"starting at byte {self.pos}"
            )


def write_features(path: str | Path, features: np.ndarray) -> None:
    features = np.ascontiguousarray(features, dtype="<f8")
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    t, d = features.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC_FEATURES)
        fh.write(struct.pack("<III", FORMAT_VERSION, t, d))
        fh.write(features.tobytes())


def read_features(path: str | Path) -> np.ndarray:
    reader = _Reader(Path(path).read_bytes(), str(path))
    reader.magic(MAGIC_FEATURES)
    reader.version()
    t = reader.u32("point count")
    d = reader.u32("dimension")
    values = reader.f64(t * d, f"{t}x{d} payload").reshape(t, d)
    reader.done()
    problem = non_finite(values)
    if problem:
        raise FileFormatError(f"{path}: {problem}")
    return values


def non_finite(values: np.ndarray) -> str | None:
    """Where the first non-finite entry of a 2-D array is, as
    "non-finite value v at row r, column c"; None when every entry is finite."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    row, col = np.unravel_index(int(np.argmin(finite)), values.shape)
    return f"non-finite value {values[row, col]} at row {row}, column {col}"


@dataclass
class PcaModel:
    mean: np.ndarray  # (D0,)
    basis: np.ndarray  # (d, D0), rows are principal directions

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]


def pca_fit(samples: np.ndarray, n_components: int) -> PcaModel:
    """Principal directions of the sample covariance, no whitening.

    Basis rows are the top eigenvectors in descending eigenvalue order, each
    signed so its largest-magnitude coordinate is positive.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
    m, d0 = samples.shape
    if n_components < 1 or n_components > d0:
        raise ValueError(
            f"n_components must be in [1, {d0}], got {n_components}"
        )
    if m <= n_components:
        raise ValueError(
            f"need more than {n_components} samples to fit, got {m}"
        )
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (m - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    basis = eigvecs[:, order].T
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    return PcaModel(mean=mean, basis=np.ascontiguousarray(basis))


def pca_apply(model: PcaModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.input_dim:
        raise ValueError(
            f"features must have shape (T, {model.input_dim}), got {features.shape}"
        )
    return (features - model.mean) @ model.basis.T


def write_pca(path: str | Path, model: PcaModel) -> None:
    d0, d = model.input_dim, model.output_dim
    with open(path, "wb") as fh:
        fh.write(MAGIC_PCA)
        fh.write(struct.pack("<III", FORMAT_VERSION, d0, d))
        fh.write(np.ascontiguousarray(model.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.basis, dtype="<f8").tobytes())


def read_pca(path: str | Path) -> PcaModel:
    reader = _Reader(Path(path).read_bytes(), str(path))
    reader.magic(MAGIC_PCA)
    reader.version()
    d0 = reader.u32("input dimension")
    d = reader.u32("output dimension")
    mean = reader.f64(d0, "mean")
    basis = reader.f64(d * d0, "basis").reshape(d, d0)
    reader.done()
    return PcaModel(mean=mean, basis=basis)


def subsample(features: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Uniform sample of n rows without replacement, original order kept.

    Asking for at least as many rows as exist returns the input unchanged.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if n < 1:
        raise ValueError("n must be at least 1")
    t = features.shape[0]
    if n >= t:
        return features
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(t, size=n, replace=False))
    return features[picked]


@dataclass
class DatasetItem:
    image_id: str
    features: np.ndarray  # (T, D)
    labels: np.ndarray  # (C,), each entry -1 or +1


@dataclass
class Dataset:
    items: list[DatasetItem]

    @property
    def n_classes(self) -> int:
        return self.items[0].labels.shape[0] if self.items else 0

    @property
    def dim(self) -> int:
        return self.items[0].features.shape[1] if self.items else 0

    def label_matrix(self) -> np.ndarray:
        return np.stack([item.labels for item in self.items])


def write_label_file(path: str | Path, dataset: Dataset) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for item in dataset.items:
            tokens = ["+1" if y > 0 else "-1" for y in item.labels]
            fh.write(item.image_id + " " + " ".join(tokens) + "\n")


def read_label_file(path: str | Path) -> list[tuple[str, np.ndarray]]:
    entries: list[tuple[str, np.ndarray]] = []
    n_classes: int | None = None
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"{path}:{lineno}: expected an id and at least one label")
        labels = []
        for tok in tokens[1:]:
            if tok not in ("+1", "-1", "1"):
                raise ValueError(f"{path}:{lineno}: label token {tok!r} is not +1/-1")
            labels.append(1.0 if tok in ("+1", "1") else -1.0)
        if n_classes is None:
            n_classes = len(labels)
        elif len(labels) != n_classes:
            raise ValueError(
                f"{path}:{lineno}: {len(labels)} labels, expected {n_classes}"
            )
        entries.append((tokens[0], np.array(labels)))
    if not entries:
        raise ValueError(f"{path}: no labeled images")
    return entries


def load_dataset(features_dir: str | Path, labels_path: str | Path) -> Dataset:
    """Read '<image id>.fvfs' from features_dir for every labeled image."""
    features_dir = Path(features_dir)
    items = []
    for image_id, labels in read_label_file(labels_path):
        features = read_features(features_dir / f"{image_id}.fvfs")
        items.append(DatasetItem(image_id=image_id, features=features, labels=labels))
    dims = {item.features.shape[1] for item in items}
    if len(dims) > 1:
        raise ValueError(f"inconsistent feature dimensions across images: {sorted(dims)}")
    return Dataset(items=items)


def save_dataset(
    dataset: Dataset, features_dir: str | Path, labels_path: str | Path
) -> None:
    features_dir = Path(features_dir)
    features_dir.mkdir(parents=True, exist_ok=True)
    for item in dataset.items:
        write_features(features_dir / f"{item.image_id}.fvfs", item.features)
    write_label_file(labels_path, dataset)


@dataclass
class CheckpointData:
    raw: RawGmmParams
    layer: FeatureLayerParams | None
    thetas: np.ndarray  # (n_classes, (2D+1)K + 1)


def write_checkpoint(path: str | Path, checkpoint: CheckpointData) -> None:
    raw = checkpoint.raw
    k, d = raw.n_components, raw.dim
    theta_len = fv_length(k, d) + 1
    thetas = np.asarray(checkpoint.thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != theta_len:
        raise ValueError(
            f"thetas must have shape (C, {theta_len}), got {thetas.shape}"
        )
    with open(path, "wb") as fh:
        fh.write(MAGIC_CHECKPOINT)
        fh.write(struct.pack("<III", FORMAT_VERSION, k, d))
        fh.write(struct.pack("<B", 1 if checkpoint.layer is not None else 0))
        fh.write(np.ascontiguousarray(raw.nu, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(raw.zeta, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(raw.means, dtype="<f8").tobytes())
        if checkpoint.layer is not None:
            fh.write(np.ascontiguousarray(checkpoint.layer.weight, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(checkpoint.layer.bias, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", thetas.shape[0]))
        fh.write(np.ascontiguousarray(thetas, dtype="<f8").tobytes())


def read_checkpoint(path: str | Path) -> CheckpointData:
    reader = _Reader(Path(path).read_bytes(), str(path))
    reader.magic(MAGIC_CHECKPOINT)
    reader.version()
    k = reader.u32("component count")
    d = reader.u32("dimension")
    has_layer = reader.u8("feature layer flag")
    nu = reader.f64(k, "nu")
    zeta = reader.f64(k * d, "zeta").reshape(k, d)
    means = reader.f64(k * d, "means").reshape(k, d)
    layer = None
    if has_layer:
        weight = reader.f64(d * d, "layer weight").reshape(d, d)
        bias = reader.f64(d, "layer bias")
        layer = FeatureLayerParams(weight=weight, bias=bias)
    n_classes = reader.u32("class count")
    theta_len = fv_length(k, d) + 1
    thetas = reader.f64(n_classes * theta_len, "thetas").reshape(n_classes, theta_len)
    reader.done()
    return CheckpointData(
        raw=RawGmmParams(nu=nu, zeta=zeta, means=means), layer=layer, thetas=thetas
    )


# Geometry of the synthetic two-class set. Both classes occupy the same two
# blobs; class b is class a pushed through the fixed invertible map
# diag(1, -1), which flips the sign of the within-blob correlation. Per-blob
# coordinate means and variances are identical across classes, so a diagonal
# mixture fitted on the pool cannot tell them apart until the encoder input
# is rotated.
_BLOB_CENTERS = np.array([[-0.35, 0.0], [0.35, 0.0]])
_BLOB_STD = 0.15
_BLOB_RHO = 0.85
_COORD_CLIP = 0.96


def make_synthetic_2d(
    n_per_class: int, seed: int, n_points: int = 32
) -> Dataset:
    """Two-class 2-D point-cloud dataset with mirrored one-vs-rest labels.

    Each image is a cloud of n_points draws from two correlated blobs. The
    classes differ only in correlation sign, which per-coordinate statistics
    cannot see, so a stock encoding scores near chance while a learned
    rotation of the inputs separates them.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    rng = np.random.default_rng(seed)
    chol = _BLOB_STD * np.array(
        [[1.0, 0.0], [_BLOB_RHO, np.sqrt(1.0 - _BLOB_RHO**2)]]
    )
    flip = np.array([1.0, -1.0])
    items = []
    for index in range(n_per_class):
        for class_tag, sign in (("a", 1.0), ("b", -1.0)):
            blob = rng.integers(2, size=n_points)
            z = rng.standard_normal((n_points, 2))
            cloud = _BLOB_CENTERS[blob] + z @ chol.T
            if sign < 0:
                cloud = cloud * flip
            cloud = np.clip(cloud, -_COORD_CLIP, _COORD_CLIP)
            labels = np.array([sign, -sign])
            items.append(
                DatasetItem(
                    image_id=f"{class_tag}{index:04d}",
                    features=cloud,
                    labels=labels,
                )
            )
    return Dataset(items=items)
