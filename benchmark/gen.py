"""Seeded inputs for the benchmark: class-dependent blob mixtures.

Every image of a workload is a cloud of points drawn from the same fixed set
of overlapping Gaussian blobs. The two classes differ only in how often each
blob is drawn: class 0 draws the even blobs a little more often than class 1
and the odd blobs a little less, by the workload's `shift`. The signal is a
small shift in component occupancy, which is exactly what the weight block of
a Fisher vector measures, and it is weak enough that held-out AP stays
clearly between chance and 1, so it can move either way.

The blob geometry is fixed per workload (not drawn from the run seed), so a
run seed changes the sampled images and nothing else: shapes, blob layout and
class signal stay the same, and work per run stays comparable across seeds.
All coordinates are clipped inside (-1, 1), the domain of the tanh feature
layer.

This module only makes arrays; `write_split` hands them to the program's own
file writer, so the program under test receives only generated files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Coordinates stay this far inside (-1, 1), like the program's 2-D generator.
COORD_CLIP = 0.96

# Geometry is a property of the workload, not of the run seed.
GEOMETRY_SEED = 20170208


@dataclass(frozen=True)
class BlobSpec:
    dim: int
    n_blobs: int
    std_lo: float
    std_hi: float
    shift: float  # relative change of each blob's draw probability by class


@dataclass
class Split:
    features: list[np.ndarray]  # per image, (T, D)
    labels: np.ndarray  # (N, 2), one-vs-rest +1/-1
    image_ids: list[str]


def blob_geometry(spec: BlobSpec) -> tuple[np.ndarray, np.ndarray]:
    """(centers (B, D), per-coordinate stds (B, D)) of the fixed blob set."""
    rng = np.random.default_rng((GEOMETRY_SEED, spec.dim, spec.n_blobs))
    centers = rng.uniform(-0.5, 0.5, size=(spec.n_blobs, spec.dim))
    stds = rng.uniform(spec.std_lo, spec.std_hi, size=(spec.n_blobs, spec.dim))
    return centers, stds


def class_weights(spec: BlobSpec) -> np.ndarray:
    """(2, B) blob draw probabilities for class 0 and class 1."""
    pattern = np.where(np.arange(spec.n_blobs) % 2 == 0, 1.0, -1.0)
    weights = np.stack([1.0 + spec.shift * pattern, 1.0 - spec.shift * pattern])
    return weights / weights.sum(axis=1, keepdims=True)


def make_split(
    spec: BlobSpec, n_per_class: int, n_points: int, seed: int, tag: str
) -> Split:
    """n_per_class images of each class, interleaved, T = n_points each."""
    centers, stds = blob_geometry(spec)
    weights = class_weights(spec)
    rng = np.random.default_rng(seed)
    features, labels, ids = [], [], []
    for index in range(n_per_class):
        for cls in (0, 1):
            blob = rng.choice(spec.n_blobs, size=n_points, p=weights[cls])
            noise = rng.standard_normal((n_points, spec.dim))
            cloud = np.clip(centers[blob] + stds[blob] * noise, -COORD_CLIP, COORD_CLIP)
            features.append(cloud)
            labels.append([1.0, -1.0] if cls == 0 else [-1.0, 1.0])
            ids.append(f"{tag}{cls}-{index:04d}")
    return Split(features=features, labels=np.array(labels), image_ids=ids)


def write_split(split: Split, features_dir, labels_path) -> None:
    """Write a split in the program's dataset format (one file per image)."""
    from fvlayer.data_io import Dataset, DatasetItem, save_dataset

    items = [
        DatasetItem(image_id=i, features=f, labels=y)
        for i, f, y in zip(split.image_ids, split.features, split.labels)
    ]
    save_dataset(Dataset(items=items), features_dir, labels_path)


def probe_inputs(n_points: int, dim: int, n_components: int, seed: int):
    """A fixed probe image and a fixed checkpoint to encode it with.

    Returns (features (T, D), CheckpointData). The mixture and the layer are
    drawn directly, not fitted, so the probe encoding depends only on the
    encoder kernels.
    """
    from fvlayer.data_io import CheckpointData
    from fvlayer.feature_layer import FeatureLayerParams
    from fvlayer.fisher import fv_length
    from fvlayer.gmm import RawGmmParams

    rng = np.random.default_rng(seed)
    spec = BlobSpec(dim=dim, n_blobs=n_components, std_lo=0.1, std_hi=0.3, shift=0.0)
    split = make_split(spec, 1, n_points, seed, "probe")
    raw = RawGmmParams(
        nu=rng.normal(0.0, 0.5, size=n_components),
        zeta=np.log(rng.uniform(0.02, 0.1, size=(n_components, dim))),
        means=rng.uniform(-0.5, 0.5, size=(n_components, dim)),
    )
    layer = FeatureLayerParams(
        weight=np.eye(dim) + rng.normal(0.0, 0.1, size=(dim, dim)),
        bias=rng.normal(0.0, 0.05, size=dim),
    )
    thetas = rng.normal(size=(2, fv_length(n_components, dim) + 1))
    return split.features[0], CheckpointData(raw=raw, layer=layer, thetas=thetas)
