"""Deterministic batch parallelism and seed derivation.

Work is split into contiguous chunks of items, one chunk per worker process,
and the per-item results are concatenated back in submission order. Every
item's computation is independent of which worker ran it, so results are
identical for any worker count if every process runs BLAS with the same
thread count: BLAS products round differently with 1 and 2 threads.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["map_chunks", "seed_for"]


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
