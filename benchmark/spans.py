"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the runtime modules from outside the
program. Each wrapper is installed wherever a caller looks the name up:
`pipeline` and `fisher` bind names with `from ... import`, so the wrapper
replaces the binding in every `fvlayer` module that holds the original
function object, not only in the defining module. Spans (name, start, end,
parent span) are kept in memory and written out by the caller at the end.

A target that no longer exists is recorded as absent; its metrics read 0 and
the run goes on. Code running in worker processes is not visible: spans
recorded there stay in the worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

PACKAGE = "fvlayer"

# Public functions of the runtime layers. `cli` is a front end and
# `gradcheck` and `bench` are verification tools, so they are not layers.
TARGETS = (
    ("gmm", "kmeans_init"),
    ("gmm", "em_fit"),
    ("gmm", "posteriors"),
    ("gmm", "reparam_forward"),
    ("gmm", "reparam_backward"),
    ("fisher", "fv_forward"),
    ("fisher", "fv_backward_params"),
    ("fisher", "fv_backward_input"),
    ("normalization", "norm_forward"),
    ("normalization", "norm_backward"),
    ("feature_layer", "invert_features"),
    ("feature_layer", "layer_forward"),
    ("feature_layer", "layer_backward"),
    ("svm", "sdca_train"),
    ("svm", "decision_scores"),
    ("data_io", "load_dataset"),
    ("data_io", "read_features"),
    ("data_io", "read_checkpoint"),
    ("data_io", "write_checkpoint"),
    ("pipeline", "train"),
    ("pipeline", "phase1_init"),
    ("pipeline", "joint_step"),
    ("pipeline", "retrain_svms"),
    ("pipeline", "evaluate_checkpoint"),
    ("pipeline", "checkpoint_encode"),
    ("parallel", "map_chunks"),
)
TARGET_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)

# Kernels whose (features, params) arguments give an exact work count T*K*D.
TKD_TARGETS = (
    "gmm.posteriors",
    "fisher.fv_forward",
    "fisher.fv_backward_params",
    "fisher.fv_backward_input",
)
# Readers whose first argument is the path of the file they read.
READ_TARGETS = ("data_io.read_features", "data_io.read_checkpoint")

# (name, unit) of every metric `layer_metrics` returns, in output order.
METRIC_UNITS = (
    [(f"{n}.{k}", u) for n in TARGET_NAMES for k, u in
     (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"))]
    + [(f"{n}.tkd", "count") for n in TKD_TARGETS]
    + [
        ("svm.sdca_train.epochs", "count"),
        ("svm.max_gap", "gap"),
        ("data_io.bytes_read", "bytes"),
        ("pipeline.joint_step.ms_p50", "ms"),
        ("pipeline.joint_step.ms_p90", "ms"),
        ("pipeline.self_ms", "ms"),
        ("parallel.pool_starts", "count"),
        ("parallel.shipped_mb", "MB"),
        ("trace.overhead_ms", "ms"),
    ]
)


@dataclass
class Span:
    span_id: int
    parent_id: int  # 0 for a call made outside every traced call
    name: str
    start: float
    end: float = 0.0
    tkd: int = 0
    bytes_read: int = 0
    epochs: int = 0
    gap: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def array_nbytes(obj) -> int:
    """Bytes of every numpy array reachable through containers and dataclasses."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(array_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(array_nbytes(x) for x in obj.values())
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _record_counts(span: Span, args: tuple, kwargs: dict, result) -> None:
    if span.name in TKD_TARGETS:
        features = _arg(args, kwargs, 0, "features")
        params = _arg(args, kwargs, 1, "params")
        span.tkd = int(np.shape(features)[0]) * params.n_components * params.dim
    elif span.name in READ_TARGETS:
        span.bytes_read = os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif span.name == "svm.sdca_train":
        span.epochs = int(result.epochs_run)
        span.gap = float(result.gap)


class Tracer:
    """Collects spans of the wrapped calls made while `installed()` is active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self.pool_starts = 0
        self.shipped_bytes = 0
        self._stack: list[Span] = []
        self._next_id = 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].span_id if self._stack else 0
            span = Span(self._next_id, parent, name, time.perf_counter())
            self._next_id += 1
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            try:
                _record_counts(span, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                # the signature moved; the call is still timed
                self.uncounted.add(name)
            return result

        return traced

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pool_starts += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                tracer.shipped_bytes += array_nbytes((args, kwargs))
                return super().submit(fn, *args, **kwargs)

        return CountingPool

    @contextmanager
    def installed(self):
        """Patch every target in place; restore the originals on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        patches: list[tuple[object, str, object]] = []
        try:
            for module_name, func_name in self.targets:
                name = f"{module_name}.{func_name}"
                try:
                    home = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    self.absent.append(name)
                    continue
                original = getattr(home, func_name, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(func_name) is original:
                        patches.append((module, func_name, original))
                        setattr(module, func_name, wrapper)
            parallel = sys.modules.get(f"{PACKAGE}.parallel")
            base = getattr(parallel, "ProcessPoolExecutor", None)
            if base is None:
                self.absent.append("parallel.ProcessPoolExecutor")
            else:
                patches.append((parallel, "ProcessPoolExecutor", base))
                parallel.ProcessPoolExecutor = self._counting_pool(base)
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(asdict(span)) + "\n")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, reported_modules=None) -> dict[str, float]:
    """Per-layer metrics from one traced iteration (overhead filled in later).

    `reported_modules`, when given, limits the output to those modules;
    every other metric reads 0 (used where calls run out of sight in
    worker processes).
    """
    child_ms: dict[int, float] = {}
    for span in tracer.spans:
        child_ms[span.parent_id] = child_ms.get(span.parent_id, 0.0) + span.ms
    out: dict[str, float] = {name: 0.0 for name, _ in METRIC_UNITS}
    joint_ms: list[float] = []
    for span in tracer.spans:
        name = span.name
        out[f"{name}.calls"] += 1
        out[f"{name}.ms"] += span.ms
        out[f"{name}.self_ms"] += span.ms - child_ms.get(span.span_id, 0.0)
        if name in TKD_TARGETS:
            out[f"{name}.tkd"] += span.tkd
        out["data_io.bytes_read"] += span.bytes_read
        if name == "svm.sdca_train":
            out["svm.sdca_train.epochs"] += span.epochs
            out["svm.max_gap"] = max(out["svm.max_gap"], span.gap)
        if name == "pipeline.joint_step":
            joint_ms.append(span.ms)
    out["pipeline.joint_step.ms_p50"] = _percentile(joint_ms, 50)
    out["pipeline.joint_step.ms_p90"] = _percentile(joint_ms, 90)
    out["pipeline.self_ms"] = sum(
        out[f"{n}.self_ms"] for n in TARGET_NAMES if n.startswith("pipeline.")
    )
    out["parallel.pool_starts"] = float(tracer.pool_starts)
    out["parallel.shipped_mb"] = tracer.shipped_bytes / 1e6
    if reported_modules is not None:
        for key in out:
            if key.split(".", 1)[0] not in reported_modules:
                out[key] = 0.0
    return out


def phase1_accounting(tracer: Tracer) -> dict:
    """Where phase-1 time went: the direct children of each phase-1 span."""
    phase1 = [s for s in tracer.spans if s.name == "pipeline.phase1_init"]
    ids = {s.span_id for s in phase1}
    children: dict[str, float] = {}
    for span in tracer.spans:
        if span.parent_id in ids:
            children[span.name] = children.get(span.name, 0.0) + span.ms
    total = sum(s.ms for s in phase1)
    return {
        "phase1_ms": total,
        "children_ms": children,
        "unaccounted_ms": total - sum(children.values()),
    }
