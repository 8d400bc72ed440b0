"""The worker pool: inline results bit for bit, the environment left as
found, and no process left behind."""

import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

import fvlayer
import fvlayer.pipeline as pipeline
from fvlayer.data_io import make_synthetic_2d
from fvlayer.feature_layer import xavier_init
from fvlayer.fisher import fv_length
from fvlayer.gmm import TILE_VALUES, GmmParams, raw_from_params
from fvlayer.parallel import WorkerPool, _task_bounds, map_chunks
from fvlayer.pipeline import Encoder, TrainConfig, TrainMode, _encode_chunk, _grad_chunk

TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"

# (point counts of the images, K, D)
CASES = {
    "mixed T": ([32, 7, 32, 1, 7, 32, 50, 1, 32, 7], 3, 2),
    "multi-tile images": ([1000] * 3, 16, 32),
}


def _children() -> set[int]:
    """Pids of this process's children, running or not yet reaped."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc to list child processes")
    me, out = os.getpid(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        if ppid == me:
            out.add(int(stat.parent.name))
    return out


def _assert_equal_entries(got: list, ref: list) -> None:
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        if isinstance(a, dict):
            assert a.keys() == b.keys()
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
        else:
            np.testing.assert_array_equal(a[0], b[0])
            assert a[1] == b[1]


def test_pool_results_equal_inline_chunks():
    with WorkerPool(3) as pool:
        for ts, k, d in CASES.values():
            rng = np.random.default_rng(len(ts) + k)
            params = GmmParams(rng.dirichlet(np.full(k, 3.0)), rng.normal(size=(k, d)),
                               rng.uniform(0.3, 2.0, size=(k, d)))
            layer = xavier_init(d, 5)
            images = [rng.normal(0.0, 0.8, size=(t, d)) for t in ts]
            labels = np.where(rng.random((len(ts), 2)) < 0.5, 1.0, -1.0)
            thetas = rng.normal(size=(2, fv_length(k, d) + 1))
            items = list(zip(images, labels))
            for mode in TrainMode:
                shared = (raw_from_params(params), layer, thetas,
                          mode.updates_gmm, mode.updates_layer)
                _assert_equal_entries(map_chunks(_grad_chunk, items, shared, pool),
                                      _grad_chunk(items, *shared))
            for encoder in (Encoder(params, layer), Encoder(params)):
                _assert_equal_entries(map_chunks(_encode_chunk, images, (encoder,), pool),
                                      _encode_chunk(images, encoder))
        # fewer items than workers: one chunk per item, in order
        _assert_equal_entries(map_chunks(_encode_chunk, images[:2], (encoder,), pool),
                              _encode_chunk(images[:2], encoder))


class _RecordingExecutor:
    """Runs each submitted task at once in this process and keeps it."""

    def __init__(self):
        self.tasks = []

    def submit(self, fn, task, *shared):
        self.tasks.append(task)
        future = Future()
        future.set_result(fn(task, *shared))
        return future


class _FailingExecutor:
    """The first task fails; every later one stays queued, never started."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, task, *shared):
        future = Future()
        if not self.futures:
            future.set_exception(ZeroDivisionError("task 0 failed"))
        self.futures.append(future)
        return future


def _stub_pool(workers: int, executor) -> WorkerPool:
    pool = WorkerPool(1)  # no process
    pool.workers, pool._executor = workers, executor
    return pool


def _values(item) -> int:
    return sum(map(np.size, item)) if isinstance(item, tuple) else np.size(item)


# (workers, point counts of the D = 2 images): small images, one image above
# the budget of TILE_VALUES values, and fewer images than workers
TASK_CASES = {
    "mixed sizes": (2, [5, 30000, 40000, 1, 70000, 20000, 20000, 30000, 7, 7]),
    "over budget first": (3, [66000, 3, 3, 40000, 40000, 40000, 2]),
    "small only": (3, [32, 7, 32, 1, 7]),
    "fewer than workers": (3, [9, 70000]),
}


@pytest.mark.parametrize("workers, ts", TASK_CASES.values(), ids=TASK_CASES.keys())
def test_tasks_are_contiguous_within_budget_and_one_per_worker_at_least(workers, ts):
    rng = np.random.default_rng(len(ts))
    params = GmmParams(np.array([0.3, 0.7]), rng.normal(size=(2, 2)),
                       rng.uniform(0.3, 2.0, size=(2, 2)))
    encoder = Encoder(params, xavier_init(2, 5))
    images = [rng.normal(0.0, 0.8, size=(t, 2)) for t in ts]
    executor = _RecordingExecutor()
    got = map_chunks(_encode_chunk, images, (encoder,), _stub_pool(workers, executor))
    tasks = executor.tasks
    # contiguous and in item order: the tasks laid end to end are the items
    assert [id(x) for task in tasks for x in task] == [id(x) for x in images]
    for task in tasks:
        assert len(task) == 1 or sum(map(_values, task)) <= TILE_VALUES
    assert len(tasks) >= min(workers, len(images))
    _assert_equal_entries(got, _encode_chunk(images, encoder))


def test_a_train_mid_retrain_ships_twelve_tasks_and_a_batch_two():
    images = [np.broadcast_to(0.0, (1000, 32))] * 48
    assert _task_bounds(images, 2) == [(lo, lo + 4) for lo in range(0, 48, 4)]
    batch = [(image, np.ones(2)) for image in images[:8]]
    assert _task_bounds(batch, 2) == [(0, 4), (4, 8)]


def test_a_failed_task_cancels_the_queued_ones():
    executor = _FailingExecutor()
    images = [np.zeros((40000, 2))] * 10
    with pytest.raises(ZeroDivisionError, match="task 0 failed"):
        map_chunks(_encode_chunk, images, (None,), _stub_pool(2, executor))
    assert len(executor.futures) == 10  # one image per task
    assert all(future.cancelled() for future in executor.futures[1:])


def test_pool_parent_holds_a_fraction_of_the_input():
    rng = np.random.default_rng(4)
    k, d = 16, 32
    encoder = Encoder(GmmParams(rng.dirichlet(np.full(k, 3.0)), rng.normal(size=(k, d)),
                                rng.uniform(0.3, 2.0, size=(k, d))), xavier_init(d, 5))
    images = [rng.normal(0.0, 0.8, size=(1000, d)) for _ in range(48)]
    with WorkerPool(2) as pool:
        map_chunks(_encode_chunk, images[:2], (encoder,), pool)  # warm
        tracemalloc.start()
        try:
            map_chunks(_encode_chunk, images, (encoder,), pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one task per worker pickles every image at once, which reads 1.05x
    assert peak < 0.35 * sum(image.nbytes for image in images)


@pytest.mark.parametrize("preset", [None, "30"], ids=["unset", "preset"])
def test_pool_leaves_environ_as_found(preset, monkeypatch):
    if preset is None:
        monkeypatch.delenv(TIMEOUT, raising=False)
    else:
        monkeypatch.setenv(TIMEOUT, preset)
    before = dict(os.environ)
    with WorkerPool(2) as pool:
        assert dict(os.environ) == before
        # the workers started with a short BLAS spin timeout
        assert pool._executor.submit(os.getenv, TIMEOUT).result(timeout=60) == "4"
    assert dict(os.environ) == before


def test_one_worker_runs_inline_without_a_process():
    rng = np.random.default_rng(2)
    encoder = Encoder(GmmParams(np.array([0.4, 0.6]), rng.normal(size=(2, 2)),
                                np.ones((2, 2))))
    images = [rng.normal(size=(5, 2)) for _ in range(3)]
    before = _children()
    with WorkerPool(1) as pool:
        assert _children() == before
        _assert_equal_entries(map_chunks(_encode_chunk, images, (encoder,), pool),
                              _encode_chunk(images, encoder))


def _train_config(mode=TrainMode.THETA_GMM_FEATURE):
    return TrainConfig(n_components=2, batch_size=8, eta=1e-3, svm_init_epochs=8,
                       svm_epochs=40, joint_epochs=1, mode=mode, seed=3)


@pytest.fixture
def fresh_process():
    """No resource tracker running, as in a fresh process: a pool leaves
    one that it found running, so an earlier pool's would hide a leak."""
    resource_tracker._resource_tracker._stop()


def test_no_process_outlives_train(fresh_process):
    dataset = make_synthetic_2d(n_per_class=6, seed=7)
    before = _children()
    pipeline.train(dataset, _train_config(), workers=2)
    assert _children() - before == set()


def test_no_process_outlives_a_train_that_raises(fresh_process, monkeypatch):
    dataset = make_synthetic_2d(n_per_class=6, seed=7)
    phase1 = pipeline.phase1_init

    def poisoned(*args, **kwargs):
        state = phase1(*args, **kwargs)
        state.raw.nu[0] = np.nan  # shipped to the workers with each step
        return state

    monkeypatch.setattr(pipeline, "phase1_init", poisoned)
    before = _children()
    with pytest.raises(RuntimeError, match="non-finite gradient"):
        pipeline.train(dataset, _train_config(TrainMode.THETA_GMM), workers=2)
    assert _children() - before == set()


def test_a_pool_in_an_unguarded_script_names_the_missing_guard(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from fvlayer.parallel import WorkerPool\n"
        "WorkerPool(2).close()\n"
    )
    src = str(Path(fvlayer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: a worker process died while starting")
    assert 'if __name__ == "__main__":' in last
    # the workers' own tracebacks precede it, but nothing leaks at exit
    assert "BrokenProcessPool" not in done.stderr
    assert "leaked" not in done.stderr
    assert "FileNotFoundError" not in done.stderr
