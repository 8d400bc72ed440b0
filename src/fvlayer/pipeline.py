"""Two-phase end-to-end training.

Phase one fits the mixture (k-means++ and EM) on pooled points, prepares the
feature-layer inputs by inversion, and trains one SVM per class on the fixed
encodings. Phase two alternates SGD steps on the encoder parameters (driven
by the classifiers' backward signal) with warm-started SVM retraining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .data_io import CheckpointData, Dataset, subsample
from .feature_layer import (
    ATANH_MARGIN,
    FeatureLayerParams,
    invert_features,
    layer_backward,
    layer_forward,
    xavier_init,
)
from .fisher import fv_backward, fv_backward_input, fv_backward_params, fv_forward
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
from .parallel import map_chunks, seed_for
from .svm import (
    SvmModel,
    accuracy,
    average_precision,
    backward_signal,
    decision_scores,
    sdca_train,
)

__all__ = [
    "TrainMode",
    "TrainConfig",
    "TrainState",
    "EvalReport",
    "ShiftDemoResult",
    "phase1_init",
    "joint_step",
    "retrain_svms",
    "train",
    "evaluate",
    "evaluate_checkpoint",
    "encode_image",
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
    grad_clip: float = 1e3  # L2 clip applied per parameter block


@dataclass
class EvalReport:
    class_index: int
    ap: float
    accuracy: float
    duality_gap: float


@dataclass
class TrainState:
    config: TrainConfig
    raw: RawGmmParams
    init_layer: FeatureLayerParams  # frozen basis used to invert new images
    layer: FeatureLayerParams  # trainable copy, starts equal to init_layer
    svms: list[SvmModel]
    inputs: list[np.ndarray]  # feature-layer inputs per training image
    labels: np.ndarray  # (N, C)
    image_ids: list[str]
    epoch: int = 0
    batches_done: int = 0
    starved_events: int = 0
    # reparameterized steps never leave the feasible set, so nothing ever
    # increments this; it exists to make that property assertable
    projection_ops: int = 0
    metrics: list[tuple] = field(default_factory=list)

    @property
    def n_images(self) -> int:
        return len(self.inputs)

    def gmm(self) -> GmmParams:
        return reparam_forward(self.raw)

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
    chunk: list[np.ndarray], raw: RawGmmParams, layer: FeatureLayerParams
) -> list[tuple[np.ndarray, int]]:
    params = reparam_forward(raw)
    out = []
    for inputs in chunk:
        fv, _, stats = fv_forward(layer_forward(inputs, layer), params)
        out.append((norm_forward(fv), stats.starved_count()))
    return out


def _grad_chunk(
    chunk: list[tuple[np.ndarray, np.ndarray]],
    raw: RawGmmParams,
    layer: FeatureLayerParams,
    thetas: np.ndarray,
    update_gmm: bool,
    update_layer: bool,
) -> list[dict]:
    params = reparam_forward(raw)
    signal = thetas[:, :-1]  # bias never reaches the encoder
    out = []
    for inputs, label_row in chunk:
        x = layer_forward(inputs, layer)
        fv, gamma, stats = fv_forward(x, params)
        upstream_norm = -(label_row @ signal)
        entry: dict = {
            "loss": float(upstream_norm @ norm_forward(fv)),
            "starved": stats.starved_count(),
        }
        if update_gmm or update_layer:
            upstream_fv = norm_backward(fv, upstream_norm)
            if update_layer:
                d_w, d_mu, d_var, d_x = fv_backward(x, params, gamma, upstream_fv)
            else:
                d_w, d_mu, d_var = fv_backward_params(x, params, gamma, upstream_fv)
            if update_gmm:
                d_nu, d_zeta = reparam_backward(raw, d_w, d_var)
                entry["d_nu"] = d_nu
                entry["d_zeta"] = d_zeta
                entry["d_means"] = d_mu
            if update_layer:
                d_weight, d_bias, _ = layer_backward(inputs, layer, d_x)
                entry["d_weight"] = d_weight
                entry["d_bias"] = d_bias
        out.append(entry)
    return out


def _encode_all(state: TrainState, workers: int = 1) -> np.ndarray:
    results = map_chunks(
        _encode_chunk, state.inputs, (state.raw, state.layer), workers
    )
    state.starved_events += sum(starved for _, starved in results)
    return np.stack([vec for vec, _ in results])


def phase1_init(dataset: Dataset, config: TrainConfig, workers: int = 1) -> TrainState:
    """Fit the mixture, prepare inputs, and train the initial classifiers."""
    if not dataset.items:
        raise ValueError("dataset is empty")
    labels = dataset.label_matrix()
    seed = config.seed

    prepared = []
    for index, item in enumerate(dataset.items):
        features = item.features
        if config.subsample is not None:
            features = subsample(
                features, config.subsample, seed_for(seed, _TAG_SUBSAMPLE, index)
            )
        prepared.append(np.asarray(features, dtype=np.float64))

    dim = prepared[0].shape[1]
    layer0 = xavier_init(dim, seed_for(seed, _TAG_LAYER))
    inputs = [invert_features(f, layer0) for f in prepared]

    # the pooled encoder inputs at initialization are exactly the clamped
    # raw features, by the inversion round trip
    pooled = np.vstack([layer_forward(xt, layer0) for xt in inputs])
    seeded = kmeans_init(pooled, config.n_components, seed_for(seed, _TAG_KMEANS))
    fitted = em_fit(pooled, seeded, seed=seed_for(seed, _TAG_EM))
    raw = raw_from_params(fitted)

    state = TrainState(
        config=config,
        raw=raw,
        init_layer=layer0,
        layer=layer0.copy(),
        svms=[],
        inputs=inputs,
        labels=labels,
        image_ids=[item.image_id for item in dataset.items],
    )
    encodings = _encode_all(state, workers)
    for class_index in range(labels.shape[1]):
        state.svms.append(
            sdca_train(
                encodings,
                labels[:, class_index],
                gap_tol=config.gap_tol,
                max_epochs=config.svm_init_epochs,
                seed=seed_for(seed, _TAG_SVM, class_index, 0),
            )
        )
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


def joint_step(state: TrainState, batch_indices: np.ndarray, workers: int = 1) -> float:
    """One SGD step on the encoder parameters over a batch of images.

    Per-image gradients are computed independently (possibly in parallel)
    and reduced in ascending batch order, so the update is identical for any
    worker count. Returns the mean surrogate loss of the batch. In THETA
    mode no parameter moves but the loss is still reported.
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
        workers,
    )

    losses = [entry["loss"] for entry in results]
    state.starved_events += sum(entry["starved"] for entry in results)
    state.batches_done += 1
    if not mode.updates_gmm and not mode.updates_layer:
        return float(np.mean(losses))

    blocks: dict[str, np.ndarray] = {}
    keys = [k for k in ("d_nu", "d_zeta", "d_means", "d_weight", "d_bias") if k in results[0]]
    for key in keys:
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

    eta = config.eta
    for key in keys:
        blocks[key] = _clip_block(blocks[key], config.grad_clip)
    if mode.updates_gmm:
        state.raw.nu -= eta * blocks["d_nu"]
        state.raw.zeta -= eta * blocks["d_zeta"]
        state.raw.means -= eta * blocks["d_means"]
    if mode.updates_layer:
        state.layer.weight -= eta * blocks["d_weight"]
        state.layer.bias -= eta * blocks["d_bias"]
    return float(np.mean(losses))


def retrain_svms(state: TrainState, round_index: int, workers: int = 1) -> np.ndarray:
    """Re-encode the training set and retrain every classifier, warm-started
    from its previous dual variables. Returns the fresh encodings."""
    config = state.config
    encodings = _encode_all(state, workers)
    for class_index in range(len(state.svms)):
        state.svms[class_index] = sdca_train(
            encodings,
            state.labels[:, class_index],
            gap_tol=config.gap_tol,
            max_epochs=config.svm_epochs,
            seed=seed_for(config.seed, _TAG_SVM, class_index, round_index),
            init_alpha=state.svms[class_index].alpha,
        )
    return encodings


def train(
    dataset: Dataset,
    config: TrainConfig,
    workers: int = 1,
    metrics_path: str | Path | None = None,
) -> TrainState:
    """Run both phases and return the final state.

    Metrics rows (one per class per epoch, including epoch zero right after
    initialization) are kept on the state and optionally streamed to a CSV.
    """
    state = phase1_init(dataset, config, workers)
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
                epoch_losses.append(joint_step(state, batch, workers))
            encodings = retrain_svms(state, round_index=epoch, workers=workers)
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


def encode_image(features: np.ndarray, state: TrainState) -> np.ndarray:
    """Normalized encoding of raw features under the current parameters."""
    inputs = invert_features(np.asarray(features, dtype=np.float64), state.init_layer)
    fv, _, _ = fv_forward(layer_forward(inputs, state.layer), state.gmm())
    return norm_forward(fv)


def evaluate(state: TrainState, dataset: Dataset, workers: int = 1) -> list[EvalReport]:
    """Per-class metrics of the current model on a dataset."""
    items = [
        invert_features(np.asarray(item.features, dtype=np.float64), state.init_layer)
        for item in dataset.items
    ]
    results = map_chunks(_encode_chunk, items, (state.raw, state.layer), workers)
    encodings = np.stack([vec for vec, _ in results])
    labels = dataset.label_matrix()
    reports = []
    for class_index, svm in enumerate(state.svms):
        scores = decision_scores(svm, encodings)
        reports.append(
            EvalReport(
                class_index=class_index,
                ap=average_precision(scores, labels[:, class_index]),
                accuracy=accuracy(scores, labels[:, class_index]),
                duality_gap=svm.gap,
            )
        )
    return reports


def checkpoint_encode(checkpoint: CheckpointData, features: np.ndarray) -> np.ndarray:
    """Encode raw features with a loaded checkpoint.

    The stored layer, when present, already includes the inversion basis,
    so it applies directly to atanh of the clamped features.
    """
    x = np.clip(
        np.asarray(features, dtype=np.float64),
        -(1.0 - ATANH_MARGIN),
        1.0 - ATANH_MARGIN,
    )
    if checkpoint.layer is not None:
        x = np.tanh(np.arctanh(x) @ checkpoint.layer.weight.T + checkpoint.layer.bias)
    fv, _, _ = fv_forward(x, reparam_forward(checkpoint.raw))
    return norm_forward(fv)


def evaluate_checkpoint(
    checkpoint: CheckpointData, dataset: Dataset
) -> list[EvalReport]:
    encodings = np.stack(
        [checkpoint_encode(checkpoint, item.features) for item in dataset.items]
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
                duality_gap=float("nan"),
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
    dataset: Dataset,
    steps: int = 60,
    eta: float = 0.5,
    n_components: int = 2,
    seed: int = 0,
    gap_tol: float = 0.01,
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
    pooled = np.vstack(clouds)
    seeded = kmeans_init(pooled, n_components, seed_for(seed, _TAG_KMEANS))
    params = em_fit(pooled, seeded, seed=seed_for(seed, _TAG_EM))

    positions: list[np.ndarray] = []
    accuracies = np.empty(steps + 1)
    separations = np.empty(steps + 1)
    alpha = None
    for step in range(steps + 1):
        encoded = []
        gammas = []
        raw_fvs = []
        for cloud in clouds:
            fv, gamma, _ = fv_forward(cloud, params)
            raw_fvs.append(fv)
            gammas.append(gamma)
            encoded.append(norm_forward(fv))
        encodings = np.stack(encoded)
        svm = sdca_train(
            encodings,
            labels,
            gap_tol=gap_tol,
            max_epochs=200,
            seed=seed_for(seed, _TAG_SVM, 0, step),
            init_alpha=alpha,
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
        for i, cloud in enumerate(clouds):
            upstream_fv = norm_backward(raw_fvs[i], upstreams[i])
            d_x = fv_backward_input(cloud, params, gammas[i], upstream_fv)
            cloud -= eta * d_x
    return ShiftDemoResult(
        image_ids=[item.image_id for item in dataset.items],
        labels=labels,
        positions=positions,
        accuracies=accuracies,
        separations=separations,
    )
