"""Deterministic batch parallelism and seed derivation.

Work is split into contiguous chunks of items, one chunk per worker process,
and the per-item results are concatenated back in submission order. Every
item's computation is independent of which worker ran it, so results are
identical for any worker count if every process runs BLAS with the same
thread count: BLAS products round differently with 1 and 2 threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["resolve_workers", "map_chunks", "seed_for"]

THREADS_ENV = "FVLAYER_THREADS"


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count from an explicit request, the environment, or 1."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"worker count must be at least 1, got {explicit}")
        return explicit
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV}={env!r} is not an integer") from exc
        if value < 1:
            raise ValueError(f"{THREADS_ENV} must be at least 1, got {value}")
        return value
    return 1


def map_chunks(fn, items: list, shared: tuple, workers: int) -> list:
    """Apply fn(chunk, *shared) over contiguous chunks; flatten in order.

    fn must return one result per chunk item. With one worker the call runs
    inline. Chunk boundaries never affect per-item results, only scheduling.
    """
    if workers <= 1 or len(items) <= 1:
        return fn(items, *shared)
    parts = np.array_split(np.arange(len(items)), min(workers, len(items)))
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fn, [items[i] for i in part], *shared)
            for part in parts
            if len(part)
        ]
        for future in futures:
            out.extend(future.result())
    return out


def seed_for(root: int, *tags: int) -> int:
    """Stable derived seed for a named substream of the run seed."""
    ss = np.random.SeedSequence((root,) + tags)
    return int(ss.generate_state(1)[0])
