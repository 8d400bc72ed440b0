"""Two-phase end-to-end training.

Phase one fits the mixture (k-means++ and EM) on pooled points, prepares the
feature-layer inputs by inversion, and trains one SVM per class on the fixed
encodings. Phase two alternates SGD steps on the encoder parameters (driven
by the classifiers' backward signal) with warm-started SVM retraining.
Every encode and every backward goes through one `Encoder`, on stacks of
equal-size images (see `_stacks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import gmm
from .data_io import CheckpointData, Dataset, non_finite, subsample
from .feature_layer import (
    FeatureLayerParams,
    clamp_features,
    invert_features,
    layer_backward,
    layer_forward,
    xavier_init,
)
from .fisher import (
    SufficientStats,
    fv_backward,
    fv_backward_params,
    fv_forward,
    fv_length,
)
from .gmm import (
    GmmParams,
    RawGmmParams,
    em_fit,
    kmeans_init,
    raw_from_params,
    reparam_backward,
    reparam_forward,
)
from .normalization import norm_backward, norm_forward
from .parallel import WorkerPool, map_chunks, seed_for
from .svm import (
    SvmModel,
    accuracy,
    average_precision,
    backward_signal,
    decision_scores,
    sdca_train,
)

__all__ = [
    "Encoder",
    "EncoderCache",
    "TrainMode",
    "TrainConfig",
    "TrainState",
    "EvalReport",
    "ShiftDemoResult",
    "phase1_init",
    "joint_step",
    "retrain_svms",
    "train",
    "evaluate_checkpoint",
    "checkpoint_encode",
    "shift_demo",
    "METRICS_HEADER",
]

METRICS_HEADER = "epoch,batch,mode,class,ap,gap,loss"

# substream tags for seed derivation
_TAG_SUBSAMPLE = 1
_TAG_KMEANS = 2
_TAG_EM = 3
_TAG_LAYER = 4
_TAG_SVM = 5
_TAG_SHUFFLE = 6

# L2 norm to which each parameter block's summed gradient is clipped
GRAD_CLIP = 1e3


class TrainMode(Enum):
    THETA = "theta"
    THETA_GMM = "theta-gmm"
    THETA_GMM_FEATURE = "theta-gmm-feature"

    @property
    def updates_gmm(self) -> bool:
        return self in (TrainMode.THETA_GMM, TrainMode.THETA_GMM_FEATURE)

    @property
    def updates_layer(self) -> bool:
        return self is TrainMode.THETA_GMM_FEATURE


@dataclass
class TrainConfig:
    n_components: int = 32
    batch_size: int = 24
    eta: float = 1e-4
    svm_init_epochs: int = 15  # epoch cap for the phase-one classifiers
    svm_epochs: int = 200  # epoch cap for retrains during phase two
    gap_tol: float = 0.01
    joint_epochs: int = 10
    mode: TrainMode = TrainMode.THETA_GMM_FEATURE
    seed: int = 0
    subsample: int | None = None  # per-image point cap applied before anything


@dataclass
class EvalReport:
    class_index: int
    ap: float
    accuracy: float


@dataclass
class EncoderCache:
    """What Encoder.backward needs from the forward pass of an image stack."""

    inputs: np.ndarray  # (B * T, D) layer inputs
    points: np.ndarray  # (B * T, D) layer outputs, the points the mixture encodes
    fv: np.ndarray  # (B, length) encodings before normalization
    gamma: np.ndarray  # (B * T, K) posteriors
    stats: SufficientStats  # per image, with a leading image axis


@dataclass
class Encoder:
    """The differentiable chain: feature layer, Fisher encoding, power + L2
    normalization. A None layer is the identity map.

    It works on a stack of B images of equal point count T, and each image's
    results are bit for bit those of a stack of one. The stages are looked
    up as module globals at call time, so a wrapper installed on this
    module's names sees every call.
    """

    params: GmmParams
    layer: FeatureLayerParams | None = None

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, EncoderCache]:
        """Normalized (B, length) encodings of a (B, T, D) stack, plus its cache."""
        b, t, d = inputs.shape
        rows = inputs.reshape(b * t, d)
        points = rows if self.layer is None else layer_forward(rows, self.layer, b)
        fv, gamma, stats = fv_forward(points, self.params, b)
        return norm_forward(fv), EncoderCache(rows, points, fv, gamma, stats)

    def backward(
        self, cache: EncoderCache, d_encoding: np.ndarray, want_input: bool = True
    ) -> tuple:
        """Contract (B, length) d_encoding (on the normalized encodings)
        through the chain.

        Returns (d_weights, d_means, d_variances, d_layer_weight, d_layer_bias,
        d_inputs), each with a leading image axis; d_inputs is (B, T, D). The
        last three are None when want_input is false, which skips the whole
        d_features pass; the layer terms are None under the identity map.
        """
        b = cache.fv.shape[0]
        d_fv = norm_backward(cache.fv, d_encoding)
        if not want_input:
            return (*fv_backward_params(cache.points, self.params, cache.gamma, d_fv, b),
                    None, None, None)
        d_w, d_mu, d_var, d_x = fv_backward(cache.points, self.params, cache.gamma, d_fv, b)
        if self.layer is None:
            return d_w, d_mu, d_var, None, None, d_x.reshape(b, -1, d_x.shape[1])
        d_weight, d_bias, d_in = layer_backward(
            cache.inputs, self.layer, d_x, cache.points, b
        )
        return d_w, d_mu, d_var, d_weight, d_bias, d_in.reshape(b, -1, d_in.shape[1])


def _stacks(images: list[np.ndarray], unit: int) -> list[list[int]]:
    """Indices of `images` grouped by equal point count T (groups in order
    of first appearance, indices ascending), in stacks of at most
    gmm.TILE_VALUES // (T * unit) images, unit being K * D, so a stack's
    (rows, K, D) values fit in one tile. That one budget also bounds the
    stack's per-point arrays, whose (rows, K) or (rows, D) values are
    fewer. An image above it is a stack of its own, tiled by row inside
    the kernels. No stack size changes a result bit."""
    groups: dict[int, list[int]] = {}
    for index, image in enumerate(images):
        groups.setdefault(image.shape[0], []).append(index)
    out = []
    for t, indices in groups.items():
        size = max(1, gmm.TILE_VALUES // (t * unit))
        out.extend(indices[s : s + size] for s in range(0, len(indices), size))
    return out


def _forward_stacks(encoder: Encoder, images: list[np.ndarray]):
    """Yield (indices, encodings, cache) for each stack of `images`."""
    unit = encoder.params.n_components * encoder.params.dim
    for indices in _stacks(images, unit):
        stack = np.stack([images[i] for i in indices], dtype=np.float64)
        encodings, cache = encoder.forward(stack)
        yield indices, encodings, cache


@dataclass
class TrainState:
    config: TrainConfig
    raw: RawGmmParams
    init_layer: FeatureLayerParams  # frozen basis used to invert new images
    layer: FeatureLayerParams  # trainable copy, starts equal to init_layer
    svms: list[SvmModel]
    inputs: list[np.ndarray]  # feature-layer inputs per training image
    labels: np.ndarray  # (N, C)
    epoch: int = 0
    batches_done: int = 0
    starved_events: int = 0
    metrics: list[tuple] = field(default_factory=list)

    @property
    def n_images(self) -> int:
        return len(self.inputs)

    def gmm(self) -> GmmParams:
        return reparam_forward(self.raw)

    def encoder(self) -> Encoder:
        """The trainer's encoder; it takes the inverted inputs in `inputs`."""
        return Encoder(self.gmm(), self.layer)

    def theta_matrix(self) -> np.ndarray:
        return np.stack([svm.theta for svm in self.svms])

    def to_checkpoint(self) -> CheckpointData:
        """Bundle for the model file.

        The stored layer is the trained map composed with the frozen
        inversion basis, so a loaded checkpoint encodes raw features as
        tanh(A atanh(x) + c) with no reference to the original basis.
        """
        layer = None
        if self.config.mode.updates_layer:
            basis_inv = np.linalg.inv(self.init_layer.weight)
            composed = self.layer.weight @ basis_inv
            offset = self.layer.bias - composed @ self.init_layer.bias
            layer = FeatureLayerParams(weight=composed, bias=offset)
        return CheckpointData(
            raw=self.raw.copy(), layer=layer, thetas=self.theta_matrix()
        )


def _encode_chunk(
    chunk: list[np.ndarray], encoder: Encoder
) -> list[tuple[np.ndarray, int]]:
    """(encoding, starved component count) per image."""
    out: list = [None] * len(chunk)
    for indices, encodings, cache in _forward_stacks(encoder, chunk):
        for i, encoding, starved in zip(indices, encodings, cache.stats.starved_count()):
            out[i] = (encoding, int(starved))
    return out


def _grad_chunk(
    chunk: list[tuple[np.ndarray, np.ndarray]],
    raw: RawGmmParams,
    layer: FeatureLayerParams,
    thetas: np.ndarray,
    update_gmm: bool,
    update_layer: bool,
) -> list[dict]:
    """Loss, starved count and parameter gradients per (inputs, label row)."""
    encoder = Encoder(reparam_forward(raw), layer)
    signal = thetas[:, :-1]  # bias never reaches the encoder
    out: list = [None] * len(chunk)
    stacks = _forward_stacks(encoder, [inputs for inputs, _ in chunk])
    for indices, encodings, cache in stacks:
        upstream = np.stack([-(chunk[i][1] @ signal) for i in indices])
        starved = cache.stats.starved_count()
        if update_gmm or update_layer:
            d_w, d_mu, d_var, d_weight, d_bias, _ = encoder.backward(
                cache, upstream, want_input=update_layer
            )
        if update_gmm:
            d_nu, d_zeta = reparam_backward(raw, d_w, d_var)
        for j, i in enumerate(indices):
            entry: dict = {
                "loss": float(upstream[j] @ encodings[j]),
                "starved": int(starved[j]),
            }
            if update_gmm:
                entry["d_nu"], entry["d_zeta"] = d_nu[j], d_zeta[j]
                entry["d_means"] = d_mu[j]
            if update_layer:
                entry["d_weight"], entry["d_bias"] = d_weight[j], d_bias[j]
            out[i] = entry
    return out


def _column_major(images: list[np.ndarray]) -> np.ndarray:
    """The images' rows stacked into one column-major (N, D) array."""
    rows = sum(len(image) for image in images)
    return np.concatenate(images, out=np.empty((images[0].shape[1], rows)).T)


def _fit_mixture(pooled: np.ndarray, n_components: int, seed: int) -> GmmParams:
    """k-means++ and Lloyd seeding, then EM, on pooled points the caller
    gives up: EM's M-step overwrites them with their squares. k-means
    reads column-major points without a column copy."""
    seeded = kmeans_init(pooled, n_components, seed_for(seed, _TAG_KMEANS))
    return em_fit(pooled.view(gmm._Scratch), seeded, seed=seed_for(seed, _TAG_EM))


def _fit_svms(
    state: TrainState, round_index: int, pool: WorkerPool | None
) -> np.ndarray:
    """Encode the training set and fit every class's classifier; returns the
    encodings. Round 0 starts cold under svm_init_epochs; later rounds
    warm-start from the previous dual variables under svm_epochs."""
    config = state.config
    results = map_chunks(_encode_chunk, state.inputs, (state.encoder(),), pool)
    state.starved_events += sum(starved for _, starved in results)
    encodings = np.stack([vec for vec, _ in results])
    warm = round_index > 0
    state.svms = [
        sdca_train(
            encodings,
            state.labels[:, class_index],
            gap_tol=config.gap_tol,
            max_epochs=config.svm_epochs if warm else config.svm_init_epochs,
            seed=seed_for(config.seed, _TAG_SVM, class_index, round_index),
            init_alpha=state.svms[class_index].alpha if warm else None,
        )
        for class_index in range(state.labels.shape[1])
    ]
    return encodings


def phase1_init(
    dataset: Dataset, config: TrainConfig, pool: WorkerPool | None = None
) -> TrainState:
    """Fit the mixture, prepare inputs, and train the initial classifiers."""
    if not dataset.items:
        raise ValueError("dataset is empty")
    labels = dataset.label_matrix()
    seed = config.seed

    prepared = []
    for index, item in enumerate(dataset.items):
        features = np.asarray(item.features, dtype=np.float64)
        problem = non_finite(features)
        if problem:
            raise ValueError(f"image {item.image_id}: {problem}")
        if config.subsample is not None:
            features = subsample(
                features, config.subsample, seed_for(seed, _TAG_SUBSAMPLE, index)
            )
        prepared.append(features)

    dim = prepared[0].shape[1]
    layer0 = xavier_init(dim, seed_for(seed, _TAG_LAYER))
    # The mixture is fitted on the layer's own outputs (`pooled`): they
    # equal the clamped raw features only to rounding, not bit for bit.
    # They are made and fitted before the layer inputs (`rows`) exist, and
    # column-major, so the fit reads them in place and squares them in
    # place: it holds `pooled` plus one (N, K) work array. `rows` are
    # inverted again after it. The passes go in row blocks, each copied out
    # row-major, which bounds their scratch. Each row has the bits of its
    # image alone, so neither the blocks, nor the layout, nor the second
    # inversion changes a result bit.
    pooled = _column_major(prepared)
    block = gmm.tile_rows(len(pooled), dim)
    for lo in range(0, len(pooled), block):
        part = slice(lo, lo + block)
        # bound to no name, the row-major block copy is freed with its results
        pooled[part] = layer_forward(
            invert_features(pooled[part].copy(), layer0), layer0
        )
    fitted = _fit_mixture(pooled, config.n_components, seed)
    del pooled
    rows = np.vstack(prepared)
    for lo in range(0, len(rows), block):
        rows[lo : lo + block] = invert_features(rows[lo : lo + block], layer0)
    ends = np.cumsum([len(f) for f in prepared])[:-1]

    state = TrainState(
        config=config,
        raw=raw_from_params(fitted),
        init_layer=layer0,
        layer=layer0.copy(),
        svms=[],
        inputs=np.split(rows, ends),
        labels=labels,
    )
    encodings = _fit_svms(state, 0, pool)
    _log_metrics(state, encodings, mean_loss=_mean_loss(state, encodings))
    return state


def _mean_loss(state: TrainState, encodings: np.ndarray) -> float:
    signal = state.theta_matrix()[:, :-1]
    per_image = -(state.labels @ signal) * encodings
    return float(per_image.sum(axis=1).mean())


def _log_metrics(state: TrainState, encodings: np.ndarray, mean_loss: float) -> None:
    for class_index, svm in enumerate(state.svms):
        scores = decision_scores(svm, encodings)
        ap = average_precision(scores, state.labels[:, class_index])
        state.metrics.append(
            (
                state.epoch,
                state.batches_done,
                state.config.mode.value,
                class_index,
                ap,
                svm.gap,
                mean_loss,
            )
        )


def _clip_block(grad: np.ndarray, limit: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
    if norm > limit:
        return grad * (limit / norm)
    return grad


def joint_step(
    state: TrainState, batch_indices: np.ndarray, pool: WorkerPool | None = None
) -> float:
    """One SGD step on the encoder parameters over a batch of images.

    Per-image gradients are computed independently (in `pool`'s workers,
    if given) and reduced in ascending batch order, so the update is
    identical for any worker count. Returns the mean surrogate loss of the
    batch. In THETA mode no parameter moves but the loss is still reported.
    """
    config = state.config
    mode = config.mode
    items = [(state.inputs[i], state.labels[i]) for i in batch_indices]
    results = map_chunks(
        _grad_chunk,
        items,
        (
            state.raw,
            state.layer,
            state.theta_matrix(),
            mode.updates_gmm,
            mode.updates_layer,
        ),
        pool,
    )

    losses = [entry["loss"] for entry in results]
    state.starved_events += sum(entry["starved"] for entry in results)
    state.batches_done += 1

    # each trained gradient key and the array its step updates
    targets: dict[str, np.ndarray] = {}
    if mode.updates_gmm:
        targets.update(d_nu=state.raw.nu, d_zeta=state.raw.zeta, d_means=state.raw.means)
    if mode.updates_layer:
        targets.update(d_weight=state.layer.weight, d_bias=state.layer.bias)

    blocks: dict[str, np.ndarray] = {}
    for key in targets:
        total = np.zeros_like(results[0][key])
        for entry in results:  # ascending batch order
            total += entry[key]
        blocks[key] = total

    bad = [k for k, g in blocks.items() if not np.all(np.isfinite(g))]
    if bad:
        norms = {k: float(np.linalg.norm(np.nan_to_num(g))) for k, g in blocks.items()}
        raise RuntimeError(
            f"non-finite gradient in blocks {bad} at epoch {state.epoch} "
            f"batch {state.batches_done}; block norms: {norms}"
        )
    for key, param in targets.items():
        param -= config.eta * _clip_block(blocks[key], GRAD_CLIP)
    return float(np.mean(losses))


def retrain_svms(
    state: TrainState, round_index: int, pool: WorkerPool | None = None
) -> np.ndarray:
    """Re-encode the training set and retrain every classifier, warm-started
    from its previous dual variables; round_index is the epoch, at least 1.
    Returns the fresh encodings."""
    return _fit_svms(state, round_index, pool)


def train(
    dataset: Dataset,
    config: TrainConfig,
    workers: int = 1,
    metrics_path: str | Path | None = None,
) -> TrainState:
    """Run both phases and return the final state.

    Metrics rows (one per class per epoch, including epoch zero right after
    initialization) are kept on the state and optionally streamed to a CSV.
    With two or more workers, one pool serves the whole run; it is up
    before phase one starts and gone when this returns or raises.
    """
    with WorkerPool(workers) as pool:
        state = phase1_init(dataset, config, pool)
        writer = _MetricsWriter(metrics_path)
        try:
            writer.write(state.metrics)
            n = state.n_images
            for epoch in range(1, config.joint_epochs + 1):
                state.epoch = epoch
                rng = np.random.default_rng(seed_for(config.seed, _TAG_SHUFFLE, epoch))
                order = rng.permutation(n)
                epoch_losses = []
                for start in range(0, n, config.batch_size):
                    batch = order[start : start + config.batch_size]
                    epoch_losses.append(joint_step(state, batch, pool))
                encodings = retrain_svms(state, round_index=epoch, pool=pool)
                before = len(state.metrics)
                _log_metrics(state, encodings, mean_loss=float(np.mean(epoch_losses)))
                writer.write(state.metrics[before:])
        finally:
            writer.close()
    return state


class _MetricsWriter:
    def __init__(self, path: str | Path | None):
        self._fh = open(path, "w", encoding="ascii") if path is not None else None
        if self._fh is not None:
            self._fh.write(METRICS_HEADER + "\n")

    def write(self, rows: list[tuple]) -> None:
        if self._fh is None:
            return
        for epoch, batch, mode, class_index, ap, gap, loss in rows:
            self._fh.write(
                f"{epoch},{batch},{mode},{class_index},"
                f"{ap:.17g},{gap:.17g},{loss:.17g}\n"
            )
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _encode_raw(encoder: Encoder, stack: np.ndarray, names: list[str]) -> np.ndarray:
    """(B, length) encodings of a (B, T, D) stack of raw images named
    `names`, under a loaded checkpoint's encoder; raises a ValueError
    naming the first image with a non-finite feature or encoding.

    The stored layer, when present, already includes the inversion basis,
    so it applies directly to atanh of the clamped features; without one
    the mixture encodes the clamped features themselves. The clamped copy
    under a layer is bound to no name, so it is freed before the encoder
    runs.
    """
    if not np.isfinite(stack).all():
        for image, name in zip(stack, names):
            problem = non_finite(image)
            if problem:
                raise ValueError(f"{name}: {problem}")
    if encoder.layer is None:
        stack = clamp_features(stack)
    else:
        stack = np.arctanh(clamp_features(stack))
    encodings = encoder.forward(stack)[0]
    flat = encodings.reshape(-1)
    # entries of a finite L2-normalized row are at most 1 in magnitude, so
    # this sum cannot overflow: it is NaN or inf exactly when an entry is
    if not math.isfinite(flat.dot(flat)):
        bad = int(np.argmin(np.isfinite(encodings).all(axis=1)))
        raise ValueError(f"{names[bad]} encodes to non-finite values")
    return encodings


def checkpoint_encode(checkpoint: CheckpointData, features: np.ndarray) -> np.ndarray:
    """Encode one image's raw features with a loaded checkpoint; raises a
    ValueError if a feature or the encoding is not finite."""
    encoder = Encoder(reparam_forward(checkpoint.raw), checkpoint.layer)
    stack = np.asarray(features, dtype=np.float64)[None]
    return _encode_raw(encoder, stack, ["the image"])[0]


def evaluate_checkpoint(
    checkpoint: CheckpointData, dataset: Dataset
) -> list[EvalReport]:
    """Per-class AP and accuracy of a loaded checkpoint on raw features;
    raises a ValueError naming the image if a feature or an encoding is
    not finite."""
    items = dataset.items
    images = [item.features for item in items]
    encoder = Encoder(reparam_forward(checkpoint.raw), checkpoint.layer)
    k, d = encoder.params.n_components, encoder.params.dim
    encodings = np.empty((len(items), fv_length(k, d)))
    for indices in _stacks(images, k * d):
        encodings[indices] = _encode_raw(
            encoder,
            np.stack([images[i] for i in indices], dtype=np.float64),
            [f"image {items[i].image_id}" for i in indices],
        )
    labels = dataset.label_matrix()
    reports = []
    for class_index, theta in enumerate(checkpoint.thetas):
        scores = encodings @ theta[:-1] + theta[-1]
        reports.append(
            EvalReport(
                class_index=class_index,
                ap=average_precision(scores, labels[:, class_index]),
                accuracy=accuracy(scores, labels[:, class_index]),
            )
        )
    return reports


@dataclass
class ShiftDemoResult:
    image_ids: list[str]
    labels: np.ndarray  # (N,) first-class labels
    positions: list[np.ndarray]  # per recorded step, (N, T, 2)
    accuracies: np.ndarray  # (steps + 1,)
    separations: np.ndarray  # (steps + 1,) encoding-space centroid distance


def shift_demo(
    dataset: Dataset, steps: int, eta: float, n_components: int, seed: int
) -> ShiftDemoResult:
    """Move raw points down the classifier's input gradient.

    The mixture is fitted once on the pooled initial points and frozen; the
    SVM is retrained (warm-started) after every shift. Step zero records the
    untouched inputs, so accuracies[0] is the baseline of the stock encoder.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    labels = dataset.label_matrix()[:, 0]
    clouds = [np.array(item.features, dtype=np.float64, copy=True) for item in dataset.items]
    encoder = Encoder(_fit_mixture(_column_major(clouds), n_components, seed))

    positions: list[np.ndarray] = []
    accuracies = np.empty(steps + 1)
    separations = np.empty(steps + 1)
    alpha = None
    for step in range(steps + 1):
        encodings = np.empty((len(clouds), fv_length(n_components, encoder.params.dim)))
        stacks = []
        for indices, encoded, cache in _forward_stacks(encoder, clouds):
            encodings[indices] = encoded
            stacks.append((indices, cache))
        svm = sdca_train(
            encodings, labels, seed=seed_for(seed, _TAG_SVM, 0, step), init_alpha=alpha
        )
        alpha = svm.alpha
        scores = decision_scores(svm, encodings)
        accuracies[step] = accuracy(scores, labels)
        pos_centroid = encodings[labels > 0].mean(axis=0)
        neg_centroid = encodings[labels < 0].mean(axis=0)
        separations[step] = float(np.linalg.norm(pos_centroid - neg_centroid))
        positions.append(np.stack(clouds))
        if step == steps:
            break
        upstreams = backward_signal(labels, svm)
        for indices, cache in stacks:
            *_, d_x = encoder.backward(cache, upstreams[indices])
            for i, d_cloud in zip(indices, d_x):
                clouds[i] -= eta * d_cloud
    return ShiftDemoResult(
        image_ids=[item.image_id for item in dataset.items],
        labels=labels,
        positions=positions,
        accuracies=accuracies,
        separations=separations,
    )
