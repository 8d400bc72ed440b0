#!/usr/bin/env python3
"""The fvlayer benchmark: one workload per run, from the repository root.

    python3 benchmark/run.py --workload train-mid --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

The load is closed-loop, one call at a time. A run generates its inputs from
--seed (workloads.py says why each workload exists), writes them in the
program's file formats, and repeats iterations for about --seconds seconds.
An iteration goes through the entry points the CLI uses:
`data_io.load_dataset`, `pipeline.train`, `data_io.write_checkpoint`,
`data_io.read_checkpoint`, then `pipeline.checkpoint_encode` per held-out
image (latency) and `pipeline.evaluate_checkpoint` on the whole split.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced iterations and reports per-layer metrics from the traced ones
(spans.py), with the tracing overhead as traced minus untraced iteration
time. Every line but the last is a human-readable report; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
BLAS threads are left at their default and recorded with the host.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

IMPORT_REPEATS = 7  # fresh-interpreter imports timed for setup_s
LOAD_REPEATS = 5  # input reads timed for setup_s

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "epoch_s": "s",
    "train_s": "s",
    "encode_images_per_s": "1/s",
    "encode_ms_p50": "ms",
    "encode_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "heldout_map": "AP",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fvlayer; "
    "print(time.perf_counter() - t)"
)


class BenchmarkError(RuntimeError):
    """No result can be reported: a boundary the benchmark times at is gone,
    or every timed iteration raised."""


# ------------------------------------------------------------------ host


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="ascii").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_info() -> dict:
    blas: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no dict mode
        pass
    build = str(blas.get("openblas configuration", ""))
    max_threads = None
    if "MAX_THREADS=" in build:
        max_threads = int(build.split("MAX_THREADS=")[1].split()[0])
    cores = len(os.sched_getaffinity(0))
    env = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    default_threads = min(cores, max_threads) if max_threads else cores
    return {
        "git_sha": _git_sha(),
        "cores": cores,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_max_threads": max_threads,
        "blas_thread_env": env,
        "blas_threads": int(next(iter(env.values()))) if env else default_threads,
    }


# ----------------------------------------------------------------- setup


def prepare_inputs(workload, seed: int, work: Path) -> dict:
    from gen import make_split, write_split
    from workloads import HELDOUT_SEED

    paths = {
        "train_dir": work / "train",
        "train_labels": work / "train_labels.txt",
        "heldout_dir": work / "heldout",
        "heldout_labels": work / "heldout_labels.txt",
        "checkpoint": work / "model.fvmd",
        "metrics": work / "metrics.csv",
    }
    train = make_split(workload.blobs, workload.n_train_per_class,
                       workload.n_points, seed, "t")
    write_split(train, paths["train_dir"], paths["train_labels"])
    del train
    heldout = make_split(workload.blobs, workload.n_heldout_per_class,
                         workload.n_points, HELDOUT_SEED, "h")
    write_split(heldout, paths["heldout_dir"], paths["heldout_labels"])
    return paths


def load_inputs(paths: dict):
    from fvlayer import data_io

    train = data_io.load_dataset(paths["train_dir"], paths["train_labels"])
    heldout = data_io.load_dataset(paths["heldout_dir"], paths["heldout_labels"])
    return train, heldout


def measure_setup(paths: dict) -> tuple[float, dict]:
    """Median fresh-interpreter import time plus median input read time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    loads = []
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        load_inputs(paths)
        loads.append(time.perf_counter() - start)
    import_s = statistics.median(imports)
    load_s = statistics.median(loads)
    return import_s + load_s, {"import_s": import_s, "load_s": load_s}


# ------------------------------------------------------------- iteration


class Boundaries:
    """Timestamps of phase one and of each epoch's end inside `train`.

    `train` looks up `phase1_init` and `retrain_svms` in the pipeline
    module, so wrapping them there marks the phase boundaries without
    tracing anything else.
    """

    NAMES = ("phase1_init", "retrain_svms")

    def __init__(self):
        self.phase1: tuple[float, float] | None = None
        self.epoch_ends: list[float] = []

    def __enter__(self):
        from fvlayer import pipeline

        self._saved = {}
        for name in self.NAMES:
            original = getattr(pipeline, name, None)
            if original is None:
                raise BenchmarkError(
                    f"fvlayer.pipeline.{name} is gone; the benchmark times "
                    "phase one and epochs at it, so update benchmark/run.py"
                )
            self._saved[name] = original
        phase1, retrain = self._saved["phase1_init"], self._saved["retrain_svms"]

        def timed_phase1(*args, **kwargs):
            start = time.perf_counter()
            result = phase1(*args, **kwargs)
            self.phase1 = (start, time.perf_counter())
            return result

        def timed_retrain(*args, **kwargs):
            result = retrain(*args, **kwargs)
            self.epoch_ends.append(time.perf_counter())
            return result

        pipeline.phase1_init = timed_phase1
        pipeline.retrain_svms = timed_retrain
        return self

    def __exit__(self, *exc):
        from fvlayer import pipeline

        for name, original in self._saved.items():
            setattr(pipeline, name, original)
        return False

    def fit_and_epochs(self, n_epochs: int) -> tuple[float, list[float]]:
        if self.phase1 is None or len(self.epoch_ends) != n_epochs:
            raise BenchmarkError(
                "pipeline.train no longer calls phase1_init once and "
                "retrain_svms once per epoch; update benchmark/run.py"
            )
        marks = [self.phase1[1]] + self.epoch_ends
        return self.phase1[1] - self.phase1[0], [float(d) for d in np.diff(marks)]


def train_config(workload, seed: int):
    from fvlayer.pipeline import TrainConfig, TrainMode

    fields = dict(workload.config)
    fields["mode"] = TrainMode(fields["mode"])
    return TrainConfig(seed=seed, **fields)


def run_iteration(workload, seed: int, paths: dict, workers: int) -> dict:
    """One closed-loop pass: read, train, round-trip the model, encode, score.

    Returns timings, the bytes of the metrics rows and the checkpoint, the
    number of attempted operations (the train call and each held-out image
    encoded) and one entry in "failures" per failed output check.
    """
    from fvlayer import data_io, pipeline

    from checks import MAP_TOL, encoding_ok, heldout_map_from_encodings

    start = time.perf_counter()
    train_ds, heldout = load_inputs(paths)
    config = train_config(workload, seed)
    out = {"attempted": 1 + len(heldout.items), "failures": []}
    with Boundaries() as marks:
        t0 = time.perf_counter()
        state = pipeline.train(train_ds, config, workers=workers,
                               metrics_path=paths["metrics"])
        out["train_s"] = time.perf_counter() - t0
    out["fit_s"], out["epoch_s"] = marks.fit_and_epochs(config.joint_epochs)
    out["metrics_bytes"] = Path(paths["metrics"]).read_bytes()

    data_io.write_checkpoint(paths["checkpoint"], state.to_checkpoint())
    out["checkpoint_bytes"] = Path(paths["checkpoint"]).read_bytes()
    checkpoint = data_io.read_checkpoint(paths["checkpoint"])

    latencies, encodings = [], []
    for item in heldout.items:
        t0 = time.perf_counter()
        encoding = pipeline.checkpoint_encode(checkpoint, item.features)
        latencies.append((time.perf_counter() - t0) * 1e3)
        encodings.append(encoding)
        if not encoding_ok(encoding):
            out["failures"].append("encoding not finite or not of unit norm")
    t0 = time.perf_counter()
    reports = pipeline.evaluate_checkpoint(checkpoint, heldout)
    eval_s = time.perf_counter() - t0
    out["latencies_ms"] = latencies
    out["images_per_s"] = len(heldout.items) / eval_s
    out["heldout_map"] = float(np.mean([r.ap for r in reports]))
    recomputed = heldout_map_from_encodings(
        np.stack(encodings), checkpoint.thetas, heldout.label_matrix()
    )
    if abs(recomputed - out["heldout_map"]) > MAP_TOL:
        out["failures"].append("evaluate_checkpoint AP differs from its encodings")
    out["total_s"] = time.perf_counter() - start
    return out


def check_probe(reference: dict) -> tuple[bool, str]:
    from fvlayer import pipeline

    from checks import PROBE, probe_matches
    from gen import probe_inputs

    features, checkpoint = probe_inputs(**PROBE)
    encoding = pipeline.checkpoint_encode(checkpoint, features)
    stored = reference["probe_encoding"]
    ok = probe_matches(encoding, stored)
    if len(encoding) != len(stored):
        return ok, f"length {len(encoding)}, reference has {len(stored)}"
    diff = float(np.max(np.abs(np.asarray(encoding) - np.asarray(stored))))
    return ok, f"max abs diff {diff:.3e}"


# -------------------------------------------------------------------- run


def _timed_loop(step, seconds: float) -> list:
    """Call step() until the next call would likely end past the deadline."""
    deadline = time.perf_counter() + seconds
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return results


def _median(values) -> float:
    return float(statistics.median(values))


def _guarded(step) -> dict:
    """Run one iteration; an exception counts its train call as failed."""
    try:
        return step()
    except BenchmarkError:
        raise
    except Exception as exc:  # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        return {"attempted": 1, "failures": [f"exception: {exc!r}"], "error": True}


def run(args) -> int:
    import checks
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = checks.load_reference()
    work = WORK_ROOT / f"run-{workload.name}-s{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    report: dict = {"workload": workload.name, "seed": args.seed,
                    "why": workload.why, "host": host_info()}
    try:
        paths = prepare_inputs(workload, args.seed, work)
        setup_s, report["setup"] = measure_setup(paths)

        ok, report["probe"] = check_probe(reference)
        attempted, failures = 1, ([] if ok else ["probe encoding"])

        def untraced(workers=workload.workers):
            return _guarded(lambda: run_iteration(workload, args.seed, paths, workers))

        traced_runs: list[tuple[dict, spans.Tracer]] = []

        def traced():
            tracer = spans.Tracer()

            def step():
                with tracer.installed():
                    return run_iteration(workload, args.seed, paths, workload.workers)

            result = _guarded(step)
            if "error" not in result:
                traced_runs.append((result, tracer))
            return result

        # Untimed first pass: the serial run that a multi-worker workload
        # must match byte for byte, or else a warm-up before tracing, so the
        # overhead is not measured against a cold iteration.
        first = []
        if workload.same_model_as:
            first.append(untraced(workers=1))
        elif args.trace:
            first.append(untraced())
        if args.trace:
            pairs = _timed_loop(lambda: (untraced(), traced()), args.seconds)
            timed = [r for pair in pairs for r in pair]
            plain = [pair[0] for pair in pairs]
        else:
            timed = plain = _timed_loop(untraced, args.seconds)

        done = [it for it in first + timed if "error" not in it]
        plain = [it for it in plain if "error" not in it]
        if not plain or (args.trace and not traced_runs):
            raise BenchmarkError("every timed iteration raised; see stderr")
        expected = (done[0]["metrics_bytes"], done[0]["checkpoint_bytes"])
        for it in first + timed:
            attempted += it["attempted"]
            failures += it["failures"]
            if "error" not in it and (
                    it["metrics_bytes"], it["checkpoint_bytes"]) != expected:
                failures.append("metrics rows or checkpoint differ between runs")

        heldout_map = done[0]["heldout_map"]
        matches = checks.map_matches(
            heldout_map, workload.same_model_as or workload.name, args.seed,
            reference)
        report["heldout_map_reference"] = (
            "none stored for this seed" if matches is None
            else "match" if matches else "MISMATCH")
        if matches is False:
            failures.append("heldout_map differs from the stored reference")

        latencies = [x for it in plain for x in it["latencies_ms"]]
        p50, p90 = np.percentile(latencies, [50, 90])
        e2e = {
            "setup_s": setup_s,
            "fit_s": _median([it["fit_s"] for it in plain]),
            "epoch_s": _median([e for it in plain for e in it["epoch_s"]]),
            "train_s": _median([it["train_s"] for it in plain]),
            "encode_images_per_s": _median([it["images_per_s"] for it in plain]),
            "encode_ms_p50": float(p50),
            "encode_ms_p90": float(p90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "heldout_map": heldout_map,
        }
        failed = len(failures)
        report["iterations"] = len(plain)
        report["per_iteration"] = {
            "train_s": [it["train_s"] for it in plain],
            "fit_s": [it["fit_s"] for it in plain],
            "encode_ms_p50": [float(np.median(it["latencies_ms"])) for it in plain],
        }
        report["latency_samples"] = len(latencies)
        report["failed_ratio"] = failed / attempted
        report["failures"] = sorted(set(failures))

        print(f"== {workload.name}, seed {args.seed}, {len(plain)} iterations, "
              f"{len(latencies)} encode latency samples")
        for name, value in e2e.items():
            print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")

        if args.trace:
            metrics = _layer_report(workload, plain, traced_runs, report)
            units = dict(spans.METRIC_UNITS)
        else:
            metrics = e2e
            units = END_TO_END_UNITS
        print("report: " + json.dumps(report, sort_keys=True))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _layer_report(workload, plain, traced_runs, report) -> dict:
    import spans

    per_iteration = [
        spans.layer_metrics(tracer, workload.reported_modules)
        for _, tracer in traced_runs
    ]
    metrics = {
        name: _median([m[name] for m in per_iteration])
        for name, _ in spans.METRIC_UNITS
    }
    overhead_s = (_median([r["total_s"] for r, _ in traced_runs])
                  - _median([it["total_s"] for it in plain]))
    metrics["trace.overhead_ms"] = overhead_s * 1e3
    first = traced_runs[0][1]
    counts = [name for name, unit in spans.METRIC_UNITS if unit == "count"]
    report["trace"] = {
        "traced_iterations": len(traced_runs),
        "absent": first.absent,
        "uncounted": sorted(first.uncounted),
        "counts_repeat": all(
            m[c] == per_iteration[0][c] for m in per_iteration for c in counts),
        "phase1": spans.phase1_accounting(first),
        "fit_ms_untraced": _median([it["fit_s"] for it in plain]) * 1e3,
        "overhead_ms": metrics["trace.overhead_ms"],
    }
    if workload.reported_modules is not None:
        report["trace"]["note"] = (
            "spans inside worker processes are not visible; only "
            + ", ".join(workload.reported_modules) + " metrics are reported")
    trace_dir = WORK_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload.name}-seed{report['seed']}.jsonl"
    first.write_jsonl(trace_path)
    report["trace"]["spans_file"] = str(trace_path.relative_to(ROOT))
    return metrics


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fvlayer" / "__init__.py").is_file():
        print(f"benchmark: no fvlayer sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        from workloads import WORKLOADS

        # one process per workload, so each reports its own peak memory
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
