"""Tests of the benchmark itself (not of the program).

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# train-small-2d cut down to seconds, with two workers so pools start
TINY = dataclasses.replace(
    WORKLOADS["train-small-2d"],
    name="tiny",
    n_train_per_class=8,
    n_heldout_per_class=6,
    config={**WORKLOADS["train-small-2d"].config, "joint_epochs": 2},
    workers=2,
)


@pytest.fixture
def tiny_paths():
    work = run.WORK_ROOT / "test-tiny"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield run.prepare_inputs(TINY, 3, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(paths, workers):
    tracer = spans.Tracer()
    with tracer.installed():
        result = run.run_iteration(TINY, 3, paths, workers)
    return result, spans.layer_metrics(tracer)


def test_exact_counts_repeat_across_traced_runs(tiny_paths):
    (first, a), (second, b) = _traced(tiny_paths, 2), _traced(tiny_paths, 2)
    counted = [
        name for name, _ in spans.METRIC_UNITS
        if name.endswith((".tkd", ".calls"))
    ] + ["svm.sdca_train.epochs", "parallel.pool_starts"]
    assert {n: a[n] for n in counted} == {n: b[n] for n in counted}
    assert a["parallel.pool_starts"] > 0
    assert a["fisher.fv_forward.tkd"] > 0
    assert first["failures"] == second["failures"] == []
    # worker count changes scheduling only: rows and model match serial
    serial = run.run_iteration(TINY, 3, tiny_paths, workers=1)
    assert serial["metrics_bytes"] == first["metrics_bytes"]
    assert serial["checkpoint_bytes"] == first["checkpoint_bytes"]


def test_tracer_restores_functions_and_reports_absent_targets():
    from fvlayer import fisher, pipeline

    original = pipeline.fv_forward
    tracer = spans.Tracer(targets=spans.TARGETS + (
        ("fisher", "fv_forward_moved"), ("no_such_module", "f")))
    with tracer.installed():
        assert pipeline.fv_forward is not original
        assert fisher.fv_forward is not original
    assert pipeline.fv_forward is original and fisher.fv_forward is original
    assert tracer.absent == ["fisher.fv_forward_moved", "no_such_module.f"]
    assert spans.layer_metrics(tracer)["fisher.fv_forward.calls"] == 0


def test_probe_check_fails_on_perturbed_encoding():
    from fvlayer import pipeline

    reference = checks.load_reference()["probe_encoding"]
    features, checkpoint = gen.probe_inputs(**checks.PROBE)
    encoding = pipeline.checkpoint_encode(checkpoint, features)
    assert checks.probe_matches(encoding, reference)
    assert checks.encoding_ok(encoding)

    reordered = encoding.copy()
    reordered[3] += 1e-14  # the size of a reordered sum
    assert checks.probe_matches(reordered, reference)

    wrong = encoding.copy()
    wrong[3] += 1e-6
    assert not checks.probe_matches(wrong, reference)
    assert not checks.probe_matches(encoding[:-1], reference)
    assert not checks.encoding_ok(wrong * 1.001)
    wrong[0] = np.nan
    assert not checks.encoding_ok(wrong)


def test_seed_changes_inputs_but_not_shapes():
    for workload in WORKLOADS.values():
        make = lambda seed: gen.make_split(  # noqa: E731
            workload.blobs, 3, workload.n_points, seed, "t")
        a, b, a_again = make(1), make(2), make(1)
        assert [f.shape for f in a.features] == [f.shape for f in b.features]
        assert a.image_ids == b.image_ids
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features[0], b.features[0])
        for x, y in zip(a.features, a_again.features):
            np.testing.assert_array_equal(x, y)
        assert max(np.abs(f).max() for f in a.features) < 1.0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(spans.METRIC_UNITS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result_object(capsys, trace):
    args = ["--workload", "train-small-2d", "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    units = dict(spans.METRIC_UNITS) if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
