"""SDCA SVM: convergence, duality, ranking metrics, backward signal."""

import zlib

import numpy as np
import pytest

from fvlayer.svm import (
    SvmModel,
    accuracy,
    average_precision,
    backward_signal,
    decision_scores,
    sdca_train,
)


def separable_set(n, margin, dim, seed):
    # two unit-direction clusters pushed apart so min margin >= `margin`
    rng = np.random.default_rng(seed)
    direction = np.zeros(dim)
    direction[0] = 1.0
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    offsets = rng.uniform(margin, 3.0 * margin, size=n)
    vectors = labels[:, None] * offsets[:, None] * direction
    vectors[:, 1:] += 0.1 * rng.normal(size=(n, dim - 1))
    return vectors, labels


def ap_oracle(scores, labels):
    # literal definition: precision at each positive in rank order
    order = np.argsort(-scores, kind="stable")
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] > 0:
            hits += 1
            total += hits / rank
    return total / hits


# ------------------------------------------------------------ training


def test_sdca_solves_separable_problem():
    vectors, labels = separable_set(80, margin=0.5, dim=4, seed=1)
    model = sdca_train(vectors, labels, gap_tol=0.01, seed=0)
    assert model.gap < 0.01
    scores = decision_scores(model, vectors)
    assert accuracy(scores, labels) == 1.0


def test_sdca_dual_objective_never_decreases():
    vectors, labels = separable_set(60, margin=0.3, dim=3, seed=2)
    model = sdca_train(vectors, labels, gap_tol=1e-4, max_epochs=60, seed=3)
    hist = np.array(model.dual_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) >= -1e-9)


def test_sdca_box_constraint_and_default_c():
    # C = N, so the dual box C / N is [0, 1]
    vectors, labels = separable_set(40, margin=0.4, dim=2, seed=4)
    model = sdca_train(vectors, labels, seed=0)
    assert np.all(model.alpha >= 0.0)
    assert np.all(model.alpha <= 1.0)


def test_sdca_theta_is_dual_combination():
    # theta must equal sum_i alpha_i y_i x^_i at all times
    vectors, labels = separable_set(30, margin=0.4, dim=3, seed=5)
    model = sdca_train(vectors, labels, seed=1)
    augmented = np.concatenate([vectors, np.ones((30, 1))], axis=1)
    rebuilt = (model.alpha * labels) @ augmented
    np.testing.assert_allclose(model.theta, rebuilt, rtol=1e-10, atol=1e-12)


def test_sdca_warm_start_converges_immediately():
    vectors, labels = separable_set(50, margin=0.5, dim=3, seed=6)
    cold = sdca_train(vectors, labels, gap_tol=0.01, seed=2)
    warm = sdca_train(vectors, labels, gap_tol=0.01, seed=2,
                      init_alpha=cold.alpha)
    assert warm.epochs_run == 0  # gap already under tolerance before epoch 1
    np.testing.assert_allclose(warm.theta, cold.theta, rtol=1e-12)


def test_sdca_requires_both_labels():
    vectors = np.ones((4, 2))
    with pytest.raises(ValueError):
        sdca_train(vectors, np.ones(4))


def test_sdca_hits_epoch_cap_on_hard_data():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(40, 2))
    labels = np.where(rng.random(40) > 0.5, 1.0, -1.0)  # unlearnable
    model = sdca_train(vectors, labels, gap_tol=1e-9, max_epochs=5, seed=0)
    assert model.epochs_run == 5
    assert model.gap > 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sdca_rejects_non_finite_vectors(bad):
    vectors, labels = separable_set(10, margin=0.5, dim=3, seed=8)
    vectors[6, 2] = bad
    vectors[8, 0] = np.nan  # only the first bad row is named
    with pytest.raises(ValueError, match=r"vectors row 6 is not finite: vectors\[6, 2\]"):
        sdca_train(vectors, labels)


def test_sdca_rejects_non_finite_init_alpha():
    vectors, labels = separable_set(10, margin=0.5, dim=3, seed=8)
    init = np.full(10, 0.5)
    init[4] = np.inf
    with pytest.raises(ValueError, match=r"init_alpha row 4 is not finite"):
        sdca_train(vectors, labels, init_alpha=init)


def _reference_sdca_train(vectors, labels, gap_tol=0.01, max_epochs=200,
                          seed=0, init_alpha=None):
    """sdca_train's coordinate loop on numpy scalars, frozen: the oracle for
    its bit-exactness contract. Returns (SvmModel, updates clipped at 0,
    updates clipped at the box)."""
    n = vectors.shape[0]
    c = float(n)
    box = c / n
    augmented = np.hstack([vectors, np.ones((n, 1))])
    sq_norms = np.einsum("ij,ij->i", augmented, augmented)
    if init_alpha is not None:
        alpha = np.clip(init_alpha.astype(np.float64, copy=True), 0.0, box)
    else:
        alpha = np.zeros(n)
    theta = augmented.T @ (alpha * labels)

    def gap_and_dual():
        margins = labels * (augmented @ theta)
        hinge = np.maximum(0.0, 1.0 - margins).sum()
        reg = 0.5 * float(theta @ theta)
        dual = float(alpha.sum()) - reg
        return (reg + box * hinge - dual) / n, dual

    rng = np.random.default_rng(seed)
    gap, _ = gap_and_dual()
    history, epochs, at_zero, at_box = [], 0, 0, 0
    while gap >= gap_tol and epochs < max_epochs:
        for i in rng.permutation(n):
            margin = labels[i] * float(augmented[i] @ theta)
            target = alpha[i] + (1.0 - margin) / sq_norms[i]
            at_zero += bool(target < 0.0)
            at_box += bool(target > box)
            delta = np.clip(target, 0.0, box) - alpha[i]
            if delta != 0.0:
                alpha[i] += delta
                theta += delta * labels[i] * augmented[i]
        epochs += 1
        gap, dual = gap_and_dual()
        history.append(dual)
    model = SvmModel(theta=theta, alpha=alpha, gap=gap, epochs_run=epochs,
                     dual_history=history)
    return model, at_zero, at_box


# name: (N, dim, gap_tol, max_epochs, init_alpha kind, class overlap)
SDCA_CASES = {
    "cold": (40, 10, 0.01, 200, None, 0.5),
    "cold dim 1040": (48, 1040, 0.01, 200, None, 1.0),
    "cold N=2": (2, 10, 0.01, 200, None, 0.5),
    "warm inside": (40, 10, 0.01, 200, "inside", 0.5),
    "warm on bounds": (40, 10, 0.01, 200, "bounds", 0.5),
    "warm outside": (40, 10, 0.01, 200, "outside", 0.5),
    "warm dim 1040 outside": (48, 1040, 0.001, 200, "outside", 1.0),
    "warm N=2 on bounds": (2, 10, 0.01, 200, "bounds", 0.5),
    "gap_tol=0 epoch cap": (40, 10, 0.0, 9, None, 0.5),
    "gap_tol=0 warm epoch cap": (24, 1040, 0.0, 4, "outside", 1.0),
    "overlapping classes": (60, 10, 1e-6, 40, None, 3.0),
    "dim 1": (50, 1, 0.01, 200, None, 2.0),
}


def _sdca_case(name):
    n, dim, gap_tol, max_epochs, init, overlap = SDCA_CASES[name]
    # seeded by the name, so adding or removing a case redraws no other
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(labels)
    center = rng.normal(size=dim) / np.sqrt(dim)
    vectors = labels[:, None] * center + overlap * rng.normal(size=(n, dim)) / np.sqrt(dim)
    init_alpha = {
        None: None,
        "inside": rng.uniform(0.0, 1.0, size=n),
        "bounds": np.where(rng.random(n) < 0.5, 0.0, 1.0),
        "outside": rng.uniform(-1.0, 2.0, size=n),
    }[init]
    kwargs = dict(gap_tol=gap_tol, max_epochs=max_epochs, seed=len(name),
                  init_alpha=init_alpha)
    return vectors, labels, kwargs


@pytest.mark.parametrize("name", sorted(SDCA_CASES))
def test_sdca_bit_identical_to_reference_loop(name):
    vectors, labels, kwargs = _sdca_case(name)
    expected, _, _ = _reference_sdca_train(vectors, labels, **kwargs)
    got = sdca_train(vectors, labels, **kwargs)
    np.testing.assert_array_equal(got.theta, expected.theta)
    np.testing.assert_array_equal(got.alpha, expected.alpha)
    np.testing.assert_array_equal(got.gap, expected.gap)
    assert got.epochs_run == expected.epochs_run
    np.testing.assert_array_equal(got.dual_history, expected.dual_history)


def test_sdca_reference_cases_cover_both_clips_and_the_epoch_cap():
    runs = {}
    for name in SDCA_CASES:
        vectors, labels, kwargs = _sdca_case(name)
        runs[name] = _reference_sdca_train(vectors, labels, **kwargs)
    assert sum(at_zero for _, at_zero, _ in runs.values()) > 0
    assert sum(at_box for _, _, at_box in runs.values()) > 0
    for name in ("gap_tol=0 epoch cap", "gap_tol=0 warm epoch cap"):
        assert runs[name][0].epochs_run == SDCA_CASES[name][3]
    assert runs["warm on bounds"][0].epochs_run >= 1


# ------------------------------------------------------------- metrics


def test_average_precision_perfect_ranking():
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    assert average_precision(scores, labels) == 1.0


def test_average_precision_positives_ranked_last():
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    # precisions 1/3 and 2/4 at the two positives
    assert abs(average_precision(scores, labels) - 5.0 / 12.0) <= 1e-15


def test_average_precision_matches_literal_definition():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n)
        labels = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        if not np.any(labels > 0):
            labels[0] = 1.0
        got = average_precision(scores, labels)
        assert abs(got - ap_oracle(scores, labels)) <= 1e-12


def test_average_precision_tie_break_by_index():
    scores = np.array([1.0, 1.0, 1.0])
    # stable sort keeps index order under equal scores: ranks are 1,2,3
    assert average_precision(scores, np.array([1.0, -1.0, -1.0])) == 1.0
    assert average_precision(scores, np.array([-1.0, -1.0, 1.0])) == pytest.approx(1.0 / 3.0)


def test_average_precision_needs_a_positive():
    with pytest.raises(ValueError):
        average_precision(np.array([1.0, 2.0]), np.array([-1.0, -1.0]))


def test_accuracy_boundary_counts_as_negative():
    scores = np.array([0.5, 0.0, -0.5])
    labels = np.array([1.0, -1.0, -1.0])
    assert accuracy(scores, labels) == 1.0
    assert accuracy(scores, np.array([1.0, 1.0, -1.0])) == pytest.approx(2.0 / 3.0)


# ----------------------------------------------------- backward signal


def test_backward_signal_is_negated_label_times_theta():
    theta = np.array([0.3, -0.7, 2.0, 0.25])  # last entry is the bias
    model = SvmModel(theta=theta, alpha=np.zeros(2), gap=0.0, epochs_run=0,
                     dual_history=[])
    labels = np.array([1.0, -1.0])
    signal = backward_signal(labels, model)
    assert signal.shape == (2, 3)  # bias coordinate dropped
    np.testing.assert_array_equal(signal[0], -theta[:-1])
    np.testing.assert_array_equal(signal[1], theta[:-1])


def test_backward_signal_ignores_margin():
    # same label gives the same signal no matter where the item sits
    theta = np.array([1.0, -1.0, 0.0])
    model = SvmModel(theta=theta, alpha=np.zeros(3), gap=0.0, epochs_run=0,
                     dual_history=[])
    signal = backward_signal(np.array([1.0, 1.0, 1.0]), model)
    assert np.all(signal == signal[0])
