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
from .parallel import WorkerPool, map_chunks
from .pipeline import Encoder, _encode_chunk

CSV_FIELDS = ("t", "k", "d", "threads", "fwd_ms", "bwd_ms")

_WARMUP_RUNS = 1
# fresh workers run their first few batches several times slower
_POOL_WARMUP_RUNS = 3
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


def scaling_in_t(t_values: list[int], k: int = 16, d: int = 32,
                 seed: int = 0, repeats: int = _DEFAULT_REPEATS) -> list[BenchRow]:
    """Median per-pass wall times, one row per T at fixed K, D; used to check
    linear growth in T. Every row is timed in this process (threads 1)."""
    rows = []
    for t in t_values:
        features, params, upstream = _random_instance(t, k, d, seed)
        _, gamma, _ = fv_forward(features, params)
        fwd = _median_ms(lambda: fv_forward(features, params), repeats)
        bwd = _median_ms(lambda: fv_backward(features, params, gamma, upstream), repeats)
        rows.append(BenchRow(t=t, k=k, d=d, threads=1, fwd_ms=fwd, bwd_ms=bwd))
    return rows


def interleaved_doubling_factors(t_values: list[int], k: int = 16, d: int = 32,
                                 seed: int = 0, rounds: int = 21) -> list[float]:
    """bwd time ratios between consecutive T values, robust to a shared host.

    Each round times one backward pass at every T in turn, so a slow spell
    tends to hit neighbouring sizes alike; the factor for each consecutive
    pair is the median of its per-round ratios.
    """
    passes = []
    for t in t_values:
        features, params, upstream = _random_instance(t, k, d, seed)
        _, gamma, _ = fv_forward(features, params)
        passes.append((features, params, gamma, upstream))
    for args in passes:  # warm-up
        fv_backward(*args)
    times = np.empty((rounds, len(passes)))
    for r in range(rounds):
        for j, args in enumerate(passes):
            start = time.perf_counter()
            fv_backward(*args)
            times[r, j] = time.perf_counter() - start
    return [float(f) for f in np.median(times[:, 1:] / times[:, :-1], axis=0)]


def batch_speedup(n_images: int = 24, t: int = 2000, k: int = 16, d: int = 32,
                  workers: int = 4, seed: int = 0,
                  repeats: int = 3) -> tuple[float, float, float]:
    """Times a batch encode inline and on a pool of `workers`; returns
    (ms1, msN, ratio). The pool is started and warmed up before any timed
    call, as `pipeline.train` starts one pool for a whole run."""
    rng = np.random.default_rng(seed)
    _, params, _ = _random_instance(4, k, d, seed)
    encoder = Encoder(params)
    images = [rng.normal(size=(t, d)) for _ in range(n_images)]

    ms_serial = _median_ms(
        lambda: map_chunks(_encode_chunk, images, (encoder,)), repeats)
    with WorkerPool(workers) as pool:
        def encode():
            return map_chunks(_encode_chunk, images, (encoder,), pool)

        for _ in range(_POOL_WARMUP_RUNS):
            encode()
        ms_parallel = _median_ms(encode, repeats)
    return ms_serial, ms_parallel, ms_serial / max(ms_parallel, 1e-9)


def format_csv(rows: list[BenchRow]) -> str:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(",".join(row.as_csv()) for row in rows)
    return "\n".join(lines) + "\n"
