"""Acceptance gate: ten pinned criteria, one test and one verdict line each.

Each test prints a single summary line through capsys.disabled() so the
numbers are visible in any pytest run. Frozen seeds and thresholds are
recorded next to each criterion; tolerances are asserted, not tuned.
"""

import os
import time

import numpy as np
import pytest

from fvlayer.bench import batch_speedup, interleaved_doubling_factors
from fvlayer.cli import main as cli_main
from fvlayer.data_io import make_synthetic_2d
from fvlayer.fisher import fv_forward, fv_length
from fvlayer.gmm import (
    RawGmmParams,
    VARIANCE_FLOOR,
    reparam_backward,
    reparam_forward,
)
from fvlayer.gradcheck import (
    check_end_to_end,
    fv_forward_naive,
    max_rel_error,
    random_instance,
    run_battery,
)
from fvlayer.pipeline import (
    TrainConfig,
    TrainMode,
    evaluate_checkpoint,
    joint_step,
    phase1_init,
    shift_demo,
    train,
)
from fvlayer.svm import accuracy, decision_scores, sdca_train


def report(capsys, text):
    with capsys.disabled():
        print(f"\n{text}")


def test_criterion_01_derivative_battery(capsys):
    # every analytic block vs central differences over the (K, D, T) grid
    start = time.monotonic()
    worst = run_battery(seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    bad = {name: err for name, err in worst.items() if err > 1e-6}
    assert not bad, f"blocks above 1e-6: {bad}"
    report(capsys, f"[criterion 1] PASS: {len(worst)} derivative blocks on "
                   f"27 instances, max rel err {max(worst.values()):.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_forward_oracle_equivalence(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    sizes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
              int(rng.integers(1, 1001))) for _ in range(99)]
    sizes.append((8, 8, 1000))  # pin the stated extreme corner
    for i, (k, d, t) in enumerate(sizes):
        feats, params = random_instance(k, d, t, seed=i)
        fast, _, _ = fv_forward(feats, params)
        worst = max(worst, max_rel_error(fast, fv_forward_naive(feats, params)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(capsys, f"[criterion 2] PASS: stats-based vs naive forward on 100 "
                   f"instances up to K=8,D=8,T=1000, max rel err {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_03_encoding_dimensionality(capsys):
    assert fv_length(32, 64) == 4128
    report(capsys, "[criterion 3] PASS: K=32, D=64 encodes to length 4128")


def test_criterion_04_constraint_free_updates(capsys):
    # 10^4 unconstrained SGD steps, then every step of a real training run:
    # the mixture must stay feasible with no projection anywhere
    rng = np.random.default_rng(1)
    raw = RawGmmParams(nu=rng.normal(size=8),
                       zeta=rng.normal(size=(8, 8)),
                       means=rng.normal(size=(8, 8)))
    eta = 1e-2
    for _ in range(10_000):
        d_w = rng.normal(size=8)
        d_var = rng.normal(size=(8, 8))
        d_nu, d_zeta = reparam_backward(raw, d_w, d_var)
        raw.nu -= eta * d_nu
        raw.zeta -= eta * d_zeta
        params = reparam_forward(raw)
        assert abs(params.weights.sum() - 1.0) <= 1e-12
        assert np.all(params.variances > VARIANCE_FLOOR)

    state = phase1_init(make_synthetic_2d(6, seed=2),
                        TrainConfig(n_components=2, batch_size=6, eta=1e-3,
                                    svm_init_epochs=6, svm_epochs=20,
                                    joint_epochs=2, seed=1))
    steps = 0
    for _ in range(state.config.joint_epochs):
        for start in range(0, state.n_images, state.config.batch_size):
            before = state.raw.nu.copy()
            joint_step(state, np.arange(start, start + state.config.batch_size))
            assert np.any(state.raw.nu != before)  # a real step
            params = state.gmm()
            assert abs(params.weights.sum() - 1.0) <= 1e-12
            assert np.all(params.variances > VARIANCE_FLOOR)
            steps += 1
    report(capsys, f"[criterion 4] PASS: 10000 SGD steps and {steps} joint "
                   "steps kept sum(w)=1 within 1e-12 and var>floor")


def test_criterion_05_sdca_on_separable_data(capsys):
    # margin >= 0.5 by construction along the first axis
    rng = np.random.default_rng(4)
    n = 200
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vectors = np.zeros((n, 5))
    vectors[:, 0] = labels * rng.uniform(0.5, 2.0, size=n)
    vectors[:, 1:] += 0.05 * rng.normal(size=(n, 4))
    separator = np.zeros(5)
    separator[0] = 1.0
    assert np.min(labels * (vectors @ separator)) >= 0.5

    model = sdca_train(vectors, labels, gap_tol=0.01, max_epochs=50, seed=0)
    assert model.gap < 0.01
    assert model.epochs_run <= 50
    assert accuracy(decision_scores(model, vectors), labels) == 1.0
    hist = np.array(model.dual_history)
    assert np.all(np.diff(hist) >= -1e-9)
    report(capsys, f"[criterion 5] PASS: N=200 margin-0.5 set solved in "
                   f"{model.epochs_run} epochs, gap {model.gap:.2e}, "
                   f"accuracy 1.0, dual non-decreasing")


def test_criterion_06_point_shifting_demo(capsys):
    # frozen run: data seed 23, demo seed 9; baseline accuracy recorded 0.6167
    start = time.monotonic()
    dataset = make_synthetic_2d(n_per_class=60, seed=23)
    result = shift_demo(dataset, steps=40, eta=0.4, n_components=2, seed=9)
    elapsed = time.monotonic() - start
    baseline, final = result.accuracies[0], result.accuracies[-1]
    assert baseline <= 0.75
    assert final >= 0.99
    sep = np.asarray(result.separations)
    ratios = sep[1:] / np.maximum(sep[:-1], 1e-12)
    assert np.all(ratios >= 0.95), f"worst separation ratio {ratios.min():.4f}"
    assert elapsed < 300.0
    report(capsys, f"[criterion 6] PASS: accuracy {baseline:.4f} -> "
                   f"{final:.4f}, worst separation ratio {ratios.min():.4f}, "
                   f"{elapsed:.1f}s")


def test_criterion_07_mode_ordering_on_held_out_split(capsys):
    # equal budgets, frozen seeds; slack -0.005 allows metric noise only
    start = time.monotonic()
    train_ds = make_synthetic_2d(n_per_class=60, seed=11)
    test_ds = make_synthetic_2d(n_per_class=100, seed=999)
    mean_ap = {}
    for mode in TrainMode:
        config = TrainConfig(n_components=2, batch_size=24, eta=1e-4,
                             svm_init_epochs=15, svm_epochs=120,
                             joint_epochs=10, mode=mode, seed=5)
        state = train(train_ds, config)
        reports = evaluate_checkpoint(state.to_checkpoint(), test_ds)
        mean_ap[mode] = float(np.mean([r.ap for r in reports]))
    elapsed = time.monotonic() - start
    ap_t = mean_ap[TrainMode.THETA]
    ap_g = mean_ap[TrainMode.THETA_GMM]
    ap_f = mean_ap[TrainMode.THETA_GMM_FEATURE]
    assert ap_g >= ap_t - 0.005, f"theta-gmm {ap_g:.4f} < theta {ap_t:.4f}"
    assert ap_f >= ap_g - 0.005, f"full {ap_f:.4f} < theta-gmm {ap_g:.4f}"
    assert elapsed < 600.0
    report(capsys, f"[criterion 7] PASS: held-out mean AP {ap_t:.4f} <= "
                   f"{ap_g:.4f} <= {ap_f:.4f} (slack -0.005), {elapsed:.1f}s")


def test_criterion_08_end_to_end_gradient(capsys):
    # the 2 equal-size images go through the trainer's batched _grad_chunk
    # as one stack; the finite differences encode them one at a time
    err, gap_abs, gap_rel = check_end_to_end(seed=0)
    assert err <= 1e-5
    report(capsys, f"[criterion 8] PASS: composed-pipeline gradient vs "
                   f"finite differences, max rel err {err:.2e} (unfloored: "
                   f"max abs gap {gap_abs:.2e}, max rel gap {gap_rel:.2e})")


def test_criterion_09a_backward_scales_linearly_in_t(capsys):
    # T, 2T and 4T timed in turn over 21 rounds; each factor is the median
    # of its per-round ratios, so one slow spell cannot move it alone
    factors = interleaved_doubling_factors([4096, 8192, 16384], rounds=21)
    for factor in factors:
        assert 1.5 <= factor <= 2.5, f"doubling factor {factor:.3f}"
    report(capsys, f"[criterion 9a] PASS: backward T-doubling factors "
                   f"{[round(f, 3) for f in factors]} within [1.5, 2.5]")


def test_criterion_09b_batch_parallel_speedup(capsys):
    cores = len(os.sched_getaffinity(0))
    ms1, ms4, ratio = batch_speedup(workers=4, seed=0)
    if cores < 4:
        report(capsys, f"[criterion 9b] SKIP: host exposes {cores} CPU "
                       f"core(s); 4-worker speedup measured {ratio:.2f}x "
                       f"({ms1:.0f}ms -> {ms4:.0f}ms), >=2x needs >=4 cores")
        pytest.skip(f"needs >=4 CPU cores for a 2x speedup, host has {cores}")
    assert ratio >= 2.0, f"speedup {ratio:.2f}x below 2x on {cores} cores"
    report(capsys, f"[criterion 9b] PASS: 24-image batch {ratio:.2f}x faster "
                   f"with 4 workers ({ms1:.0f}ms -> {ms4:.0f}ms)")


def test_criterion_10_byte_identical_metrics(capsys, tmp_path):
    feats = tmp_path / "feats"
    labels = tmp_path / "labels.txt"
    assert cli_main(["synth", "--images", "8", "--out", str(feats),
                     "--labels", str(labels)]) == 0

    def run_train(tag, threads):
        metrics = tmp_path / f"{tag}.csv"
        code = cli_main(["train", "--train", str(feats),
                         "--labels", str(labels), "--k", "2", "--batch", "8",
                         "--epochs", "2", "--init-epochs", "6",
                         "--svm-epochs", "30", "--seed", "7",
                         "--threads", str(threads),
                         "--checkpoint", str(tmp_path / f"{tag}.fvmd"),
                         "--metrics", str(metrics)])
        assert code == 0
        return metrics.read_bytes()

    repeat_a = run_train("a", threads=1)
    repeat_b = run_train("b", threads=1)
    parallel = run_train("c", threads=3)
    assert repeat_a == repeat_b, "identical command produced different metrics"
    assert repeat_a == parallel, "worker count changed the metrics"

    demos = []
    for tag in ("d1", "d2"):
        path = tmp_path / f"{tag}.csv"
        assert cli_main(["demo2d", "--steps", "3", "--images", "4",
                         "--seed", "11", "--out", str(path)]) == 0
        demos.append(path.read_bytes())
    assert demos[0] == demos[1]
    report(capsys, "[criterion 10] PASS: metrics and demo CSVs byte-identical "
                   "across repeats and worker counts 1 vs 3")
