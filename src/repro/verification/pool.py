"""One process-pool executor for every fan-out of verification work.

The assume-guarantee workflow splits one verification into independent
sub-queries: campaign queries, stream shards, CEGAR leaves, portfolio
racers and competition cells.  :class:`WorkerPool` is the one way any
of them reaches worker processes:

- *start method*: ``fork`` where the platform has it (workers inherit
  the parent's state instead of unpickling it), else the platform
  default;
- *start-up*: a platform that cannot start a pool (``OSError``,
  ``NotImplementedError``: no fork/spawn, no semaphores) is a
  :class:`~concurrent.futures.process.BrokenProcessPool` like any
  other pool failure;
- *worker state*: each worker keeps ``initializer(state)`` (or
  ``state`` itself) and every task runs as ``fn(state, task)`` — the
  same call in a worker and in-process;
- *payload*: the arrays of a :class:`Payload` task travel in one
  shared-memory segment per submission when
  :func:`repro.verification.shm.available`, else inline in the pickle;
  workers load them in one place;
- *fallback*: on a :data:`POOL_FAILURES` error the results already
  returned are kept, the pool is shut down for good and the remaining
  tasks run in-process; :meth:`WorkerPool.label` names the executor
  that ran.  Any other exception propagates.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from repro.verification import shm

__all__ = ["POOL_FAILURES", "Payload", "WorkerPool", "shared_event", "unavailable"]

#: failures of the pool itself, as opposed to a task's own exception:
#: only these move the remaining work in-process
POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError)


@dataclass(frozen=True)
class Payload:
    """A task carrying arrays: they ride shared memory to the worker.

    ``meta`` holds the task's other (picklable) fields.  The shipped
    copy carries ``segment = (handle, first, stop)`` instead of arrays.
    """

    arrays: tuple = ()
    meta: Any = None
    segment: tuple | None = None


def unavailable(executor: str, exc: BaseException) -> str:
    """The label of work that fell back to ``executor`` from a failed pool."""
    return f"{executor} (pool unavailable: {type(exc).__name__})"


@contextmanager
def _starting() -> Iterator[None]:
    try:
        yield
    except (OSError, NotImplementedError) as exc:  # no fork/spawn, semaphores
        raise BrokenProcessPool(f"cannot start a process pool: {exc}") from exc


def _context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def shared_event():
    """An event shared with the workers of pools started after it."""
    with _starting():
        return _context().Event()


class WorkerPool:
    """Up to ``workers`` processes, each holding one worker state.

    A worker's state is ``initializer(state)``, or ``state`` itself
    without an initializer; in-process tasks get the same, built once in
    the parent on first need.  Use as a context manager: leaving it
    shuts the workers down and cancels queued work.  A pool that fails
    to start records the failure and runs everything in-process.
    """

    def __init__(
        self,
        workers: int,
        state: Any = None,
        *,
        initializer: Callable[[Any], Any] | None = None,
    ):
        self.workers = workers
        self.state = state
        self.initializer = initializer
        self.failure: BaseException | None = None
        self._local: tuple[Any] | None = None
        self._executor: ProcessPoolExecutor | None = None
        try:
            with _starting():
                self._executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=_context(),
                    initializer=_install,
                    initargs=(initializer, state),
                )
        except BrokenProcessPool as exc:
            self.failure = exc

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down, cancelling queued work (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def label(self, executor: str, fallback: str) -> str:
        """``executor``, or ``fallback`` naming the failure if the pool failed."""
        return executor if self.failure is None else unavailable(fallback, self.failure)

    def submit(self, fn: Callable[[Any, Any], Any], task: Any) -> Future:
        """``fn(state, task)`` on a worker; raises the failure of a dead pool."""
        if self._executor is None:
            raise self.failure or BrokenProcessPool("the pool is closed")
        with _starting():
            return self._executor.submit(_call, fn, task)

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Iterable[Any],
        *,
        chunksize: int = 1,
        inflight: int | None = None,
    ) -> Iterator[Any]:
        """Yield ``fn(state, task)`` for every task, in task order.

        Tasks go out ``chunksize`` to a submission with at most
        ``inflight`` submissions outstanding (``None``: no bound), so a
        lazy ``tasks`` iterator is only drawn as results drain.  On a
        :data:`POOL_FAILURES` error the tasks not yet yielded run
        in-process; any other exception cancels the queued work and
        propagates.
        """
        tasks = iter(tasks)
        window: deque = deque()  # [chunk, future, shm block or None]
        try:
            while self._executor is not None:
                chunk = list(islice(tasks, chunksize))
                if chunk:
                    shipped, block = _ship(chunk)
                    window.append([chunk, None, block])
                    with _starting():  # workers fork on first submit
                        window[-1][1] = self._executor.submit(_work, fn, shipped)
                if not window:
                    return
                if chunk and (inflight is None or len(window) < inflight):
                    continue
                results = window[0][1].result()
                _release(window.popleft()[2])
                yield from results
        except POOL_FAILURES as exc:
            self.failure = exc
            tasks = chain.from_iterable([*(entry[0] for entry in window), tasks])
            self.close()
        finally:
            for _, future, block in window:
                if future is not None:
                    future.cancel()
                _release(block)
        if self._local is None:
            state = self.state
            self._local = (state if self.initializer is None else self.initializer(state),)
        for task in tasks:
            yield fn(self._local[0], task)


def _ship(chunk: list) -> tuple[list, "shm.ShmBlock | None"]:
    """The chunk as sent: every payload's arrays in one shared segment."""
    payloads = [task for task in chunk if isinstance(task, Payload)]
    if not payloads or not shm.available():
        return chunk, None
    block = shm.pack_arrays([array for task in payloads for array in task.arrays])
    shipped, first = [], 0
    for task in chunk:
        if isinstance(task, Payload):
            stop = first + len(task.arrays)
            task = Payload(meta=task.meta, segment=(block.handle, first, stop))
            first = stop
        shipped.append(task)
    return shipped, block


def _release(block: "shm.ShmBlock | None") -> None:
    if block is not None:
        block.release()


# -- worker side (module-level: pool callables must pickle) -----------------

_STATE: Any = None


def _install(initializer: Callable[[Any], Any] | None, state: Any) -> None:
    global _STATE
    _STATE = state if initializer is None else initializer(state)


def _load(task: Any) -> Any:
    """A shipped payload with its arrays attached (read-only views)."""
    if isinstance(task, Payload) and task.segment is not None:
        handle, first, stop = task.segment
        return Payload(tuple(shm.attach(handle)[first:stop]), task.meta)
    return task


def _call(fn: Callable[[Any, Any], Any], task: Any) -> Any:
    return fn(_STATE, _load(task))


def _work(fn: Callable[[Any, Any], Any], tasks: list) -> list:
    return [_call(fn, task) for task in tasks]
