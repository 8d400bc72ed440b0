"""Deterministic batch parallelism and seed derivation.

Work is split into contiguous tasks of items, at least one per worker,
each holding at most gmm.TILE_VALUES values of item arrays unless it is a
single item above that budget. The per-item results are concatenated back
in submission order. Every item's computation is independent of which task
or worker ran it, so results are identical for any worker count if every
process runs BLAS with the same thread count: BLAS products round
differently with 1 and 2 threads.

A call submits all its tasks at once, but the executor pickles a task only
when it moves into the call queue, which holds workers + 1 tasks. So the
parent holds a few budgets of pickled items in flight, not the whole input.

A `WorkerPool` starts its processes once and serves every `map_chunks` call
until it is closed; `pipeline.train` holds one for the whole run. Workers
are spawned, not forked, with OPENBLAS_THREAD_TIMEOUT set in the
environment they start from (the parent's is restored at once). Their idle
OpenBLAS helper threads then sleep instead of spinning against the other
workers' on a small host, while each process keeps the same BLAS thread
count, so results stay bit for bit. Spawned workers import fvlayer afresh:
a monkeypatch made in the parent process does not reach them.

Spawned workers also re-import the main module. A script that starts
workers (a `WorkerPool` or `pipeline.train` with two or more) must therefore
do so under `if __name__ == "__main__":`; without the guard the pool's
constructor raises a RuntimeError that says so.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker

import numpy as np

from . import gmm

__all__ = ["WorkerPool", "map_chunks", "seed_for"]

# OpenBLAS helper threads wait 2**4 cycles before they sleep, instead of
# the default 2**28 (about 0.1 s of spinning after every call).
_BLAS_TIMEOUT = ("OPENBLAS_THREAD_TIMEOUT", "4")

_GUARD_HINT = (
    "spawned workers re-import the main module, so a script that starts "
    'workers must do so under `if __name__ == "__main__":`'
)


class WorkerPool:
    """`workers` processes for map_chunks, all up once the constructor
    returns; with one worker there is no process and calls run inline.

    `close` (or leaving a `with` block) ends the workers and the
    multiprocessing resource tracker that spawning starts, so no process
    started here outlives the pool.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None
        if workers <= 1:
            return
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            # a worker re-running an unguarded main module: fail before
            # making semaphores that its parent may kill it holding
            raise RuntimeError(
                f"a starting worker tried to start workers: {_GUARD_HINT}"
            )
        tracker = resource_tracker._resource_tracker
        self._stop_tracker = tracker._fd is None  # not ours to stop otherwise
        context = multiprocessing.get_context("spawn")
        key, value = _BLAS_TIMEOUT
        preset = os.environ.get(key)
        os.environ[key] = value
        try:
            # looked up at call time, so a wrapper on this module's name
            # sees each pool start; the barrier lives only in the executor,
            # so close() frees its semaphores before it stops the tracker
            self._executor = ProcessPoolExecutor(
                workers, context,
                functools.partial(context.Barrier(workers).wait, 120),
            )
            # one no-op task per process: each submit spawns a worker, since
            # no worker takes a task before every worker has started and
            # passed the barrier in its initializer
            for future in [self._executor.submit(int) for _ in range(workers)]:
                future.result()
        except BrokenProcessPool:
            self.close()
            raise RuntimeError(
                f"a worker process died while starting: {_GUARD_HINT}"
            ) from None
        except BaseException:
            self.close()
            raise
        finally:
            if preset is None:
                del os.environ[key]
            else:
                os.environ[key] = preset

    def close(self) -> None:
        if self._executor is None:
            return
        self._executor.shutdown()
        self._executor = None
        if self._stop_tracker:
            resource_tracker._resource_tracker._stop()

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def map_chunks(fn, items: list, shared: tuple, pool: WorkerPool | None = None) -> list:
    """Apply fn(task, *shared) over contiguous tasks of items; flatten in order.

    fn must return one result per task item. Without a pool of two or more
    workers the call runs inline, as one task. Otherwise see `_task_bounds`
    for how items are cut; if a task raises, the tasks not yet started are
    cancelled and the error is re-raised. Task boundaries never affect
    per-item results, only scheduling and the parent's memory.
    """
    if pool is None or pool._executor is None or len(items) <= 1:
        return fn(items, *shared)
    futures = [
        pool._executor.submit(fn, items[lo:hi], *shared)
        for lo, hi in _task_bounds(items, pool.workers)
    ]
    out: list = []
    try:
        for future in futures:
            out.extend(future.result())
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return out


def _task_bounds(items: list, workers: int) -> list[tuple[int, int]]:
    """(start, stop) of each task: the items split as evenly as they go into
    min(workers, len(items)) parts, each part cut before an item that would
    take its task past gmm.TILE_VALUES values of item arrays. An item is an
    array or a tuple of arrays; one above the budget is a task of its own."""
    starts = []
    for part in np.array_split(np.arange(len(items)), min(workers, len(items))):
        values = 0
        for index in part.tolist():
            item = items[index]
            size = sum(map(np.size, item)) if isinstance(item, tuple) else np.size(item)
            if index == part[0] or values + size > gmm.TILE_VALUES:
                starts.append(index)
                values = 0
            values += size
    bounds = starts + [len(items)]
    return list(zip(bounds[:-1], bounds[1:]))


def seed_for(root: int, *tags: int) -> int:
    """Stable derived seed for a named substream of the run seed."""
    ss = np.random.SeedSequence((root,) + tags)
    return int(ss.generate_state(1)[0])
