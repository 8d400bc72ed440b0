"""Linear SVM trained by stochastic dual coordinate ascent.

Primal objective: 0.5 ||theta||^2 + sum_i hinge(y_i theta^T xhat_i), the
C-SVM objective with C = N, where xhat appends a constant 1 so the bias rides
inside theta. The dual is box-constrained to [0, C / N] = [0, 1] per item and
each coordinate update is closed form, so the dual objective never decreases.
Training stops once the duality gap per item drops below a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SvmModel",
    "sdca_train",
    "decision_scores",
    "backward_signal",
    "average_precision",
    "accuracy",
]


@dataclass
class SvmModel:
    theta: np.ndarray  # (dim + 1,), bias last
    alpha: np.ndarray  # (N,) dual variables of the training set
    gap: float  # duality gap per item at the last check
    epochs_run: int
    dual_history: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.theta.shape[0] - 1


def _check_training_set(vectors: np.ndarray, labels: np.ndarray) -> None:
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D (N, dim), got {vectors.shape}")
    n = vectors.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} must be ({n},)")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if n < 2 or np.all(labels == labels[0]):
        raise ValueError("training set must contain both labels")
    _check_finite(vectors, "vectors")


def _check_finite(values: np.ndarray, name: str) -> None:
    """Reject NaN or inf, naming the first bad entry and its row."""
    finite = np.isfinite(values)
    if not finite.all():
        index = np.unravel_index(int(np.argmin(finite)), values.shape)
        where = ", ".join(str(int(i)) for i in index)
        raise ValueError(
            f"{name} row {index[0]} is not finite: {name}[{where}] = {values[index]}"
        )


def _objectives(
    augmented: np.ndarray,
    labels: np.ndarray,
    theta: np.ndarray,
    alpha: np.ndarray,
) -> tuple[float, float]:
    margins = labels * (augmented @ theta)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    reg = 0.5 * float(theta @ theta)
    primal = reg + hinge
    dual = float(alpha.sum()) - reg
    return primal, dual


def sdca_train(
    vectors: np.ndarray,
    labels: np.ndarray,
    gap_tol: float = 0.01,
    max_epochs: int = 200,
    seed: int = 0,
    init_alpha: np.ndarray | None = None,
) -> SvmModel:
    """Train a binary SVM by dual coordinate ascent.

    One epoch visits every item once in a fresh random permutation; theta is
    maintained incrementally and the duality gap (primal - dual) / N is
    checked after each epoch. `init_alpha` warm-starts the dual variables,
    e.g. after the feature vectors have moved slightly; it is clipped to the
    box and theta is rebuilt from it before the first epoch.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    _check_training_set(vectors, labels)
    n = vectors.shape[0]
    augmented = np.hstack([vectors, np.ones((n, 1))])
    sq_norms = np.einsum("ij,ij->i", augmented, augmented)

    if init_alpha is not None:
        if init_alpha.shape != (n,):
            raise ValueError(f"init_alpha shape {init_alpha.shape} must be ({n},)")
        _check_finite(init_alpha, "init_alpha")
        alpha = np.clip(init_alpha.astype(np.float64, copy=True), 0.0, 1.0)
    else:
        alpha = np.zeros(n)
    theta = augmented.T @ (alpha * labels)

    # Scalar work runs on Python floats, since numpy's per-call overhead on
    # 0-d values would dominate an update at small dim; only the O(dim) dot
    # (the BLAS dot that row @ theta calls) and the update touch arrays.
    # alpha is written back once per epoch, before the objectives read it.
    rows = list(augmented)
    ys = labels.tolist()
    norms = sq_norms.tolist()
    duals = alpha.tolist()
    step = np.empty_like(theta)
    dot, multiply = theta.dot, np.multiply  # theta is only updated in place
    rng = np.random.default_rng(seed)
    primal, dual = _objectives(augmented, labels, theta, alpha)
    gap = (primal - dual) / n
    history: list[float] = []
    epochs = 0
    while gap >= gap_tol and epochs < max_epochs:
        for i in rng.permutation(n).tolist():
            row, y, old = rows[i], ys[i], duals[i]
            margin = y * float(dot(row))
            delta = min(max(old + (1.0 - margin) / norms[i], 0.0), 1.0) - old
            if delta != 0.0:
                duals[i] = old + delta
                theta += multiply(row, delta * y, step)
        alpha[:] = duals
        epochs += 1
        primal, dual = _objectives(augmented, labels, theta, alpha)
        gap = (primal - dual) / n
        history.append(dual)

    return SvmModel(
        theta=theta, alpha=alpha, gap=gap, epochs_run=epochs, dual_history=history
    )


def decision_scores(model: SvmModel, vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != model.dim:
        raise ValueError(
            f"vectors must have shape (M, {model.dim}), got {vectors.shape}"
        )
    return vectors @ model.theta[:-1] + model.theta[-1]


def backward_signal(labels: np.ndarray, model: SvmModel) -> np.ndarray:
    """Upstream gradient the classifier sends into the encoder.

    For item i the surrogate loss is -y_i theta^T v_i, so the gradient with
    respect to v_i is -y_i theta (bias dropped, since the bias does not touch
    the encoding). Dense regardless of margins: every item keeps pulling its
    encoding toward the correct side.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    return np.outer(-labels, model.theta[:-1])


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean of precision at each positive's rank, scores sorted descending.

    Ties are broken by ascending original index. Raises if no positive
    labels are present (the metric is undefined there).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order] > 0
    n_pos = int(hits.sum())
    if n_pos == 0:
        raise ValueError("average precision is undefined without positive labels")
    ranks = np.arange(1, scores.shape[0] + 1)
    precision_at = np.cumsum(hits) / ranks
    return float(precision_at[hits].mean())


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of items on the correct side; a score of exactly 0 counts
    as the negative class."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    predicted = np.where(scores > 0.0, 1.0, -1.0)
    return float(np.mean(predicted == labels))
