"""Wall-clock benchmarks for the encoding layer.

Two measurements matter here: how the backward pass scales with
the number of points per image, and how much batch-level parallelism buys
when several images are encoded at once.  Results format as a small CSV so
they can be plotted or diffed between machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fisher import fv_backward, fv_forward
from .gmm import GmmParams
from .parallel import map_chunks
from .pipeline import Encoder, _encode_chunk

CSV_FIELDS = ("t", "k", "d", "threads", "fwd_ms", "bwd_ms")

_WARMUP_RUNS = 1
_DEFAULT_REPEATS = 5


@dataclass
class BenchRow:
    t: int
    k: int
    d: int
    threads: int
    fwd_ms: float
    bwd_ms: float

    def as_csv(self) -> list[str]:
        return [
            str(self.t),
            str(self.k),
            str(self.d),
            str(self.threads),
            f"{self.fwd_ms:.3f}",
            f"{self.bwd_ms:.3f}",
        ]


def _random_instance(t: int, k: int, d: int, seed: int):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(k, 5.0))
    means = rng.normal(size=(k, d))
    variances = rng.uniform(0.5, 1.5, size=(k, d))
    params = GmmParams(weights=weights, means=means, variances=variances)
    features = rng.normal(size=(t, d))
    upstream = rng.normal(size=(2 * d + 1) * k)
    return features, params, upstream


def _median_ms(fn, repeats: int) -> float:
    for _ in range(_WARMUP_RUNS):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def time_instance(t: int, k: int, d: int, seed: int = 0,
                  repeats: int = _DEFAULT_REPEATS, threads: int = 1) -> BenchRow:
    """Median per-pass wall time for one (T, K, D) problem size."""
    features, params, upstream = _random_instance(t, k, d, seed)
    _, gamma, _ = fv_forward(features, params)

    fwd = _median_ms(lambda: fv_forward(features, params), repeats)
    bwd = _median_ms(lambda: fv_backward(features, params, gamma, upstream), repeats)
    return BenchRow(t=t, k=k, d=d, threads=threads, fwd_ms=fwd, bwd_ms=bwd)


def scaling_in_t(t_values: list[int], k: int = 16, d: int = 32,
                 seed: int = 0, repeats: int = _DEFAULT_REPEATS) -> list[BenchRow]:
    """One row per T at fixed K, D; used to check linear growth in T."""
    return [time_instance(t, k, d, seed=seed, repeats=repeats) for t in t_values]


def doubling_factors(rows: list[BenchRow]) -> list[float]:
    """bwd time ratios between consecutive rows (expected ~2 when T doubles)."""
    return [cur.bwd_ms / max(prev.bwd_ms, 1e-9) for prev, cur in zip(rows, rows[1:])]


def batch_speedup(n_images: int = 24, t: int = 2000, k: int = 16, d: int = 32,
                  workers: int = 4, seed: int = 0,
                  repeats: int = 3) -> tuple[float, float, float]:
    """Times a batch encode with 1 worker and with `workers`; returns (ms1, msN, ratio)."""
    rng = np.random.default_rng(seed)
    _, params, _ = _random_instance(4, k, d, seed)
    encoder = Encoder(params)
    images = [rng.normal(size=(t, d)) for _ in range(n_images)]

    def run(n_workers: int) -> float:
        return _median_ms(
            lambda: map_chunks(_encode_chunk, images, (encoder,), n_workers),
            repeats)

    ms_serial = run(1)
    ms_parallel = run(workers)
    return ms_serial, ms_parallel, ms_serial / max(ms_parallel, 1e-9)


def format_csv(rows: list[BenchRow]) -> str:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(",".join(row.as_csv()) for row in rows)
    return "\n".join(lines) + "\n"
