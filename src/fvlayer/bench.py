"""Wall-clock benchmarks for the encoding layer.

Two measurements matter here: how the backward pass scales with
the number of points per image, and how much batch-level parallelism buys
when several images are encoded at once.  Results format as a small CSV so
they can be plotted or diffed between machines.
"""

from __future__ import annotations

import time

import numpy as np

from .fisher import fv_backward, fv_forward
from .gmm import GmmParams
from .parallel import WorkerPool, map_chunks
from .pipeline import Encoder, _encode_chunk

CSV_FIELDS = ("t", "k", "d", "fwd_ms", "bwd_ms")

_WARMUP_RUNS = 1
# fresh workers run their first few batches several times slower
_POOL_WARMUP_RUNS = 3
_DEFAULT_REPEATS = 5

# mixture size of every timing (scaling_in_t's default)
_K, _D = 16, 32
# the batch speedup times BATCH_IMAGES images of _BATCH_T points each
BATCH_IMAGES = 24
_BATCH_T = 2000
_BATCH_REPEATS = 3


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


def scaling_in_t(t_values: list[int], k: int = _K, d: int = _D,
                 seed: int = 0, repeats: int = _DEFAULT_REPEATS) -> list[tuple]:
    """Median per-pass wall times, one (t, k, d, fwd_ms, bwd_ms) row per T
    at fixed K, D, timed in this process; used to check linear growth in T."""
    rows = []
    for t in t_values:
        features, params, upstream = _random_instance(t, k, d, seed)
        _, gamma, _ = fv_forward(features, params)
        fwd = _median_ms(lambda: fv_forward(features, params), repeats)
        bwd = _median_ms(lambda: fv_backward(features, params, gamma, upstream), repeats)
        rows.append((t, k, d, fwd, bwd))
    return rows


def interleaved_doubling_factors(t_values: list[int], rounds: int = 21) -> list[float]:
    """bwd time ratios between consecutive T values, robust to a shared host.

    Each round times one backward pass at every T in turn, so a slow spell
    tends to hit neighbouring sizes alike; the factor for each consecutive
    pair is the median of its per-round ratios.
    """
    passes = []
    for t in t_values:
        features, params, upstream = _random_instance(t, _K, _D, 0)
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


def batch_speedup(workers: int = 4, seed: int = 0) -> tuple[float, float, float]:
    """Times a batch encode inline and on a pool of `workers`; returns
    (ms1, msN, ratio). The pool is started and warmed up before any timed
    call, as `pipeline.train` starts one pool for a whole run."""
    rng = np.random.default_rng(seed)
    _, params, _ = _random_instance(4, _K, _D, seed)
    encoder = Encoder(params)
    images = [rng.normal(size=(_BATCH_T, _D)) for _ in range(BATCH_IMAGES)]

    ms_serial = _median_ms(
        lambda: map_chunks(_encode_chunk, images, (encoder,)), _BATCH_REPEATS)
    with WorkerPool(workers) as pool:
        def encode():
            return map_chunks(_encode_chunk, images, (encoder,), pool)

        for _ in range(_POOL_WARMUP_RUNS):
            encode()
        ms_parallel = _median_ms(encode, _BATCH_REPEATS)
    return ms_serial, ms_parallel, ms_serial / max(ms_parallel, 1e-9)


def format_csv(rows: list[tuple]) -> str:
    lines = [",".join(CSV_FIELDS)]
    lines.extend(f"{t},{k},{d},{fwd:.3f},{bwd:.3f}" for t, k, d, fwd, bwd in rows)
    return "\n".join(lines) + "\n"
