"""The shared process-pool executor: order, payloads, and the fallback rule.

Every fan-out in the stack (campaigns, stream shards, CEGAR leaves,
portfolio races, competition cells) runs through
:class:`~repro.verification.pool.WorkerPool`, so its contract is pinned
here once: results in task order, the same ``fn(state, task)`` call in a
worker and in-process, shared-memory payloads that never leak, and the
fallback — a pool failure keeps what was returned and finishes the rest
in-process, any other exception propagates.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.verification import pool as pool_module
from repro.verification import shm
from repro.verification.pool import POOL_FAILURES, Payload, WorkerPool, unavailable

_PARENT = os.getpid()


def _shm_segments() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.glob("psm_*")} if root.is_dir() else set()


def _offset(state, task):
    """Task function: ``task + state``, tagged with where it ran."""
    return task + state, os.getpid() == _PARENT


def _sum_rows(state, task: Payload):
    lower, upper = task.arrays
    return float(lower.sum() + upper.sum()) * state, task.meta


def _die_on(state, task):
    """Kill the worker on task ``state``; elsewhere answer ``task``."""
    if task == state and os.getpid() != _PARENT:
        os._exit(1)
    return task, os.getpid() == _PARENT


def _raise_on(state, task):
    if task == state:
        raise ValueError(f"task {task} is broken")
    return task


def _die_on_payload(state, task: Payload):
    return _die_on(state, task.meta)


def _raise_on_payload(state, task: Payload):
    return _raise_on(state, task.meta)


def _double(state):
    return 2 * state


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no semaphores")

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)


class TestMap:
    def test_results_in_task_order_from_workers(self):
        with WorkerPool(2, 10) as pool:
            results = list(pool.map(_offset, range(12), chunksize=3))
        assert [value for value, _ in results] == [10 + i for i in range(12)]
        assert not any(in_parent for _, in_parent in results)
        assert pool.failure is None
        assert pool.label("process-pool[2]", "sequential") == "process-pool[2]"

    def test_initializer_builds_the_worker_state(self):
        with WorkerPool(2, 5, initializer=_double) as pool:
            assert [v for v, _ in pool.map(_offset, [1, 2])] == [11, 12]

    @pytest.mark.parametrize("use_shm", [True, False])
    def test_payload_arrays_arrive_intact(self, use_shm, monkeypatch):
        if not use_shm:
            monkeypatch.setattr(shm, "available", lambda: False)
        elif not shm.available():
            pytest.skip("shared memory unavailable on this host")
        rng = np.random.default_rng(0)
        tasks = [
            Payload((rng.uniform(size=(3, 4)), rng.uniform(size=5)), meta=i)
            for i in range(7)
        ]
        expected = [_sum_rows(2.0, task) for task in tasks]
        before = _shm_segments()
        with WorkerPool(2, 2.0) as pool:
            assert list(pool.map(_sum_rows, tasks, chunksize=2)) == expected
        assert _shm_segments() - before == set()

    def test_inflight_bounds_how_far_tasks_are_drawn(self):
        drawn = []

        def tasks():
            for i in range(10):
                drawn.append(i)
                yield i

        with WorkerPool(2, 0) as pool:
            results = pool.map(_offset, tasks(), inflight=3)
            assert next(results)[0] == 0
            assert len(drawn) == 3  # nothing drawn past the window
            assert [v for v, _ in results] == list(range(1, 10))


class TestFallback:
    def test_start_up_failure_runs_everything_in_process(self, no_pool):
        pool = WorkerPool(2, 10, initializer=_double)
        assert isinstance(pool.failure, POOL_FAILURES)
        with pool:
            results = list(pool.map(_offset, range(4)))
        assert results == [(20 + i, True) for i in range(4)]
        assert pool.label("process-pool[2]", "sequential") == (
            "sequential (pool unavailable: BrokenProcessPool)"
        )

    def test_dead_worker_keeps_returned_results(self):
        before = _shm_segments()
        tasks = [Payload((np.full(2, float(i)),), meta=i) for i in range(8)]
        with WorkerPool(2, 5) as pool:
            results = list(pool.map(_die_on_payload, tasks, inflight=2))
            assert [value for value, _ in results] == list(range(8))
            in_parent = [i for i, (_, parent) in enumerate(results) if parent]
            # task 5 goes out once 3 has drained: at most the two tasks in
            # flight when its worker died, and all after, rerun in-process
            assert in_parent and in_parent == list(range(in_parent[0], 8))
            assert in_parent[0] >= 4 and 5 in in_parent
            assert type(pool.failure).__name__ == "BrokenProcessPool"
            # never submitted to again: later maps run in-process
            assert [p for _, p in pool.map(_die_on, [7, 8])] == [True, True]
            with pytest.raises(type(pool.failure)):
                pool.submit(_die_on, 1)
        assert _shm_segments() - before == set()

    def test_task_error_propagates_and_cancels(self):
        before = _shm_segments()
        tasks = [Payload((np.zeros(3),), meta=i) for i in range(20)]
        with WorkerPool(2, 3) as pool:
            with pytest.raises(ValueError, match="task 3 is broken"):
                list(pool.map(_raise_on_payload, tasks, inflight=4))
            assert pool.failure is None
        assert _shm_segments() - before == set()

    def test_label_names_the_failure(self):
        assert unavailable("portfolio-adaptive", BrokenPipeError()) == (
            "portfolio-adaptive (pool unavailable: BrokenPipeError)"
        )

