"""The job queue over the verification engine.

:class:`VerificationService` keeps a priority heap of submitted jobs
that ``workers`` job threads pop under one condition variable, so a job
crosses one thread hop, from its submitter to the worker that runs it.
Each job answers one (model, property) pair through the bench runner's
own per-instance loop, :func:`~repro.interchange.instances.answer_instance`
— per-disjunct queries under a genuine wall budget, ``sat``
short-circuits, a late answer scores ``timeout``, and cancelled > error >
timeout > verdict — but against **long-lived per-model engines** whose
enclosure/encoding caches and persistent result store survive across
jobs, which is the whole point of running as a daemon.

Job lifecycle::

    queued -> running -> done | failed | cancelled | timeout

- *priorities*: higher runs first among queued jobs (FIFO within a
  priority);
- *single-flight*: two concurrent jobs that ask the identical question
  (same model and property digests, same spec up to ``priority`` and
  ``label``) compute once — the follower waits for the leader and
  copies its outcome;
- *cancellation*: queued jobs cancel immediately; running CEGAR jobs
  are executed in budget slices and checkpoint between slices, leaving
  the engine's cached loop frontier intact for a resubmission to
  resume;
- *graceful shutdown*: :meth:`close` either drains the queue or cancels
  it, interrupts in-flight CEGAR loops at a round boundary (the
  resumable :class:`~repro.verification.cegar.RefinementTrace` survives
  in the engine cache), and joins every thread;
- *fault isolation*: an exception inside a job — including a crashed
  process-pool worker surfacing as ``BrokenProcessPool`` — fails that
  job and nothing else.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import QueryResult, VerificationEngine, VerificationQuery
from repro.interchange.instances import (
    CANCELLED,
    ERROR,
    TIMEOUT,
    UNKNOWN,
    answer_instance,
    check_dimensions,
)
from repro.interchange.onnx import import_onnx
from repro.interchange.vnnlib import VnnLibProperty, read_vnnlib
from repro.nn.sequential import Sequential
from repro.service.digest import model_digest, property_digest
from repro.service.store import ResultStore

#: CEGAR subproblem budget per execution slice; cancellation and wall
#: budgets are checked between slices, so smaller = more responsive
_CEGAR_SLICE = 8

#: default CEGAR total budget when neither the job nor a suite sets one
_CEGAR_BUDGET = 64


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"


#: job state of each instance status that is not a verdict
_JOB_STATES = {
    CANCELLED: JobState.CANCELLED,
    ERROR: JobState.FAILED,
    TIMEOUT: JobState.TIMEOUT,
}

#: states a job never leaves
TERMINAL_STATES = (
    JobState.DONE,
    JobState.FAILED,
    JobState.CANCELLED,
    JobState.TIMEOUT,
)


@dataclass(frozen=True)
class JobSpec:
    """One verification job: a model/property pair plus how to answer it.

    ``model`` / ``property`` are paths (``.onnx`` or the native ``.npz``
    for models, ``.vnnlib`` for properties) resolved against the
    service's root directory.  ``timeout`` is the per-job wall budget in
    seconds (bench semantics); ``priority`` orders the queue (higher
    first); ``label`` is a free-form tag echoed in reports.
    """

    model: str
    property: str
    method: str = "exact"
    domain: str = "interval"
    solver: str | None = None
    timeout: float | None = None
    priority: int = 0
    refine_budget: int | None = None
    #: cegar-only: refine with the structural (neuron-merging) axis; the
    #: merge state checkpoints with the loop, so slices and resubmitted
    #: jobs resume both the frontier AND the abstraction level
    structural: bool = False
    label: str | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.refine_budget is not None and self.refine_budget <= 0:
            raise ValueError(
                f"refine_budget must be positive, got {self.refine_budget}"
            )
        if self.method not in ("exact", "relaxed", "cegar", "portfolio"):
            raise ValueError(
                f"service jobs answer verdict methods exact/relaxed/cegar/"
                f"portfolio, got {self.method!r}"
            )
        if self.structural and self.method != "cegar":
            raise ValueError(
                f"structural=True is a cegar-only option, got method "
                f"{self.method!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "model": self.model,
            "property": self.property,
            "method": self.method,
            "domain": self.domain,
        }
        if self.solver is not None:
            out["solver"] = self.solver
        if self.timeout is not None:
            out["timeout"] = self.timeout
        if self.priority:
            out["priority"] = self.priority
        if self.refine_budget is not None:
            out["refine_budget"] = self.refine_budget
        if self.structural:
            out["structural"] = True
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass
class Job:
    """A submitted :class:`JobSpec` plus its runtime state."""

    id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    coalesced_with: str | None = None  #: leader job id when single-flighted
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: threading.Event = field(default_factory=threading.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.done_event.wait(timeout)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "spec": self.spec.to_dict(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.coalesced_with is not None:
            out["coalesced_with"] = self.coalesced_with
        return out


class ServiceClosed(RuntimeError):
    """Submit after :meth:`VerificationService.close`."""


@dataclass
class _EngineEntry:
    """One long-lived per-model engine plus its serialization lock."""

    engine: VerificationEngine
    model: Sequential
    digest: str
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: property digest -> registered set name
    sets: dict[str, str] = field(default_factory=dict)
    #: lazily-built adaptive racer for ``method == "portfolio"`` jobs —
    #: cached per engine so win/loss statistics persist across jobs
    portfolio: Any = None


class VerificationService:
    """The daemon core: submit/inspect/cancel jobs, shared result store.

    Thread-safe: :meth:`submit`, :meth:`job`, :meth:`cancel`,
    :meth:`metrics` and :meth:`close` may be called from any thread (the
    HTTP front end calls them from handler threads).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        *,
        workers: int = 2,
        solver: str = "branch-and-bound",
        root: str | Path | None = None,
        cegar_slice: int = _CEGAR_SLICE,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cegar_slice < 1:
            raise ValueError(f"cegar_slice must be >= 1, got {cegar_slice}")
        self.store = store if store is not None else ResultStore()
        self.workers = workers
        self.solver = solver
        self.root = Path(root).resolve() if root is not None else None
        self.cegar_slice = cegar_slice
        self.started_at = time.time()

        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._engines: dict[Path, _EngineEntry] = {}
        self._engines_lock = threading.Lock()
        #: resolved path -> ((st_mtime_ns, st_size), property, its digest)
        self._properties: dict[Path, tuple[tuple[int, int], VnnLibProperty, str]] = {}
        self._properties_lock = threading.Lock()
        self._inflight: dict[tuple, Job] = {}
        self._flight_lock = threading.Lock()
        self._coalesced = 0
        self._latencies: list[float] = []
        self._closing = False

        # the scheduler: ``_ready`` guards the job table, the heap,
        # ``_closing`` and every queued -> running/cancelled transition
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ready = threading.Condition()
        self._workers = [
            threading.Thread(target=self._work, name=f"repro-job-{n}", daemon=True)
            for n in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job; returns once it is visible to the scheduler."""
        with self._ready:
            if self._closing:
                raise ServiceClosed("service is shutting down; job rejected")
            job = Job(id=f"job-{next(self._ids):06d}", spec=spec)
            self._jobs[job.id] = job
            heapq.heappush(self._heap, (-spec.priority, next(self._seq), job))
            self._ready.notify()
        return job

    def submit_payload(self, payload: dict[str, Any]) -> Job:
        """Build a spec from wire JSON (suite references resolved) and submit.

        Accepts either explicit ``model``/``property`` paths or the
        ``{"suite": "smoke", "instance": "e1-unreachable"}`` convenience,
        which resolves to the bundled suite's files and inherits the
        instance's timeout unless the payload overrides it.
        """
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        payload = dict(payload)
        suite = payload.pop("suite", None)
        instance_name = payload.pop("instance", None)
        if suite is not None:
            if instance_name is None:
                raise ValueError("suite submissions need an 'instance' name")
            from repro.bench.suites import ensure_suite

            _, instances = ensure_suite(suite)
            matches = [i for i in instances if i.name == instance_name]
            if not matches:
                raise ValueError(
                    f"no instance {instance_name!r} in suite {suite!r}; "
                    f"known: {[i.name for i in instances]}"
                )
            instance = matches[0]
            payload.setdefault("model", str(instance.model_path))
            payload.setdefault("property", str(instance.property_path))
            payload.setdefault("timeout", instance.timeout)
            payload.setdefault("label", instance.name)
        known = set(JobSpec.__dataclass_fields__)
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job fields: {unknown}")
        if "model" not in payload or "property" not in payload:
            raise ValueError("job payload needs 'model' and 'property' paths")
        return self.submit(JobSpec(**payload))

    def _work(self) -> None:
        """One job thread: run the highest-priority queued job, repeat
        until the service is closing and the heap is empty."""
        while True:
            with self._ready:
                while not self._heap:
                    if self._closing:
                        return
                    self._ready.wait()
                _, _, job = heapq.heappop(self._heap)
                if job.terminal:  # cancelled while queued
                    continue
                job.state = JobState.RUNNING
                job.started = time.time()
            try:
                self._execute(job)
            except Exception as exc:  # the daemon outlives any job
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JobState.FAILED
            finally:
                job.finished = time.time()
                self._latencies.append(job.finished - job.started)
                del self._latencies[:-512]
                job.done_event.set()

    # -- inspection / cancellation -----------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._ready:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._ready:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if it was still cancellable.

        Queued jobs terminate immediately; running jobs get their cancel
        event set (checked between disjuncts and CEGAR slices) and every
        live CEGAR loop an interrupt request, so the job checkpoints at
        the next round boundary with a resumable frontier.
        """
        job = self.job(job_id)
        if job is None or job.terminal:
            return False
        job.cancel_event.set()
        with self._ready:
            if job.state is JobState.QUEUED:
                self._finish(job, JobState.CANCELLED)
                return True
        self._interrupt_cegar()
        return True

    def _interrupt_cegar(self) -> None:
        with self._engines_lock:
            entries = list(self._engines.values())
        for entry in entries:
            entry.engine.interrupt_cegar()

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished = time.time()
        job.done_event.set()

    # -- execution ---------------------------------------------------------

    def _resolve(self, path_text: str) -> Path:
        path = Path(path_text)
        if self.root is not None:
            path = path if path.is_absolute() else self.root / path
            path = path.resolve()
            if self.root != path and self.root not in path.parents:
                raise ValueError(f"path {path_text!r} escapes the service root")
        else:
            path = path.resolve()
        if not path.is_file():
            raise FileNotFoundError(f"no such file: {path}")
        return path

    def _load_model(self, path: Path) -> Sequential:
        if path.suffix == ".onnx":
            return import_onnx(path)
        from repro.nn.serialization import load_model

        return load_model(path)

    def _engine_entry(self, model_path: Path) -> _EngineEntry:
        with self._engines_lock:
            entry = self._engines.get(model_path)
            if entry is None:
                model = self._load_model(model_path)
                digest = model_digest(model)
                cut = model.piecewise_linear_cut_points()[0]
                engine = VerificationEngine(
                    model, cut, solver=self.solver, store=self.store
                )
                # a retrained model invalidates its old digest's store
                # entries — the IR cache's training hook carries it
                model.add_invalidation_hook(self.store.invalidation_hook(digest))
                entry = _EngineEntry(engine=engine, model=model, digest=digest)
                self._engines[model_path] = entry
        return entry

    def _read_property(self, path: Path) -> tuple[VnnLibProperty, str]:
        """The parsed property file and its digest, parsed once per file
        version: cached by path and re-read when one ``os.stat`` shows a
        new ``(st_mtime_ns, st_size)``."""
        info = os.stat(path)
        stamp = (info.st_mtime_ns, info.st_size)
        with self._properties_lock:
            cached = self._properties.get(path)
        if cached is not None and cached[0] == stamp:
            return cached[1], cached[2]
        prop = read_vnnlib(path)
        digest = property_digest(prop.input_lower, prop.input_upper, prop.disjuncts)
        with self._properties_lock:
            self._properties[path] = (stamp, prop, digest)
        return prop, digest

    def _property_set(
        self, entry: _EngineEntry, prop: VnnLibProperty, digest: str
    ) -> str:
        """Register the property's input box once per engine; return the
        set's name.

        The check and the registration hold ``entry.lock``: a second job
        on the same new property waits for the first registration
        instead of registering again, which would remove the set while
        another thread queries it.
        """
        model = entry.model
        check_dimensions(model, prop)
        with entry.lock:
            set_name = entry.sets.get(digest)
            if set_name is None:
                set_name = f"prop-{digest[:12]}"
                entry.engine.add_static_feature_set(
                    prop.input_lower.reshape(model.input_shape),
                    prop.input_upper.reshape(model.input_shape),
                    name=set_name,
                    overwrite=True,
                )
                entry.sets[digest] = set_name
        return set_name

    def _flight_key(self, entry: _EngineEntry, prop_digest: str, spec: JobSpec) -> tuple:
        """Every spec field that shapes the answer: only identical
        questions coalesce (``priority`` and ``label`` do not count)."""
        return (
            entry.digest,
            prop_digest,
            spec.method,
            spec.domain,
            spec.solver or self.solver,
            spec.timeout,
            spec.refine_budget,
            spec.structural,
        )

    def _execute(self, job: Job) -> None:
        spec = job.spec
        if job.cancel_event.is_set():
            self._apply_outcome(job, JobState.CANCELLED, None)
            return
        model_path = self._resolve(spec.model)
        property_path = self._resolve(spec.property)
        entry = self._engine_entry(model_path)
        prop, prop_digest = self._read_property(property_path)
        set_name = self._property_set(entry, prop, prop_digest)

        key = self._flight_key(entry, prop_digest, spec)
        with self._flight_lock:
            leader = self._inflight.get(key)
            if leader is None:
                self._inflight[key] = job
        if leader is not None:
            # single-flight: ride the in-flight computation of the same
            # question instead of queueing a duplicate solve
            leader.done_event.wait()
            if leader.state is JobState.DONE and leader.result is not None:
                job.coalesced_with = leader.id
                self._coalesced += 1
                result = dict(leader.result)
                result["coalesced_with"] = leader.id
                self._apply_outcome(job, JobState.DONE, result)
                return
            # leader failed / was cancelled: fall through and compute
            with self._flight_lock:
                self._inflight.setdefault(key, job)
        try:
            self._execute_instance(job, entry, prop, set_name)
        finally:
            with self._flight_lock:
                if self._inflight.get(key) is job:
                    del self._inflight[key]

    def _execute_instance(
        self, job: Job, entry: _EngineEntry, prop: VnnLibProperty, set_name: str
    ) -> None:
        """Answer the job through the bench runner's per-instance loop.

        Only ``ask`` differs by method; the loop's budget, cancellation
        and precedence rules are :func:`answer_instance`'s.
        """
        spec = job.spec
        hits_before = self.store.stats.hits

        def query(disjunct, remaining, **options) -> VerificationQuery:
            return VerificationQuery(
                risk=disjunct,
                set_name=set_name,
                domain=spec.domain,
                solver=spec.solver,
                time_limit=remaining,
                **options,
            )

        def ask(disjunct, remaining) -> QueryResult:
            with entry.lock:
                return entry.engine.run_query_safe(
                    query(disjunct, remaining, method=spec.method)
                )

        def ask_portfolio(disjunct, remaining) -> QueryResult:
            with entry.lock:
                if entry.portfolio is None:
                    from repro.api.portfolio import Portfolio

                    entry.portfolio = Portfolio(entry.engine)
                return entry.portfolio.run_query(
                    query(disjunct, remaining, method="exact"),
                    cancel=job.cancel_event,
                )

        def ask_cegar(disjunct, remaining) -> QueryResult:
            """Spend the CEGAR budget in slices, checkpointing between them.

            The engine caches the loop per (set, risk), so every slice
            resumes the surviving frontier; a cancellation or wall-budget
            expiry between slices returns the last slice's result and
            leaves that frontier intact for a resubmitted job to pick up.
            """
            deadline = None if remaining is None else time.monotonic() + remaining
            left = spec.refine_budget or _CEGAR_BUDGET
            while True:
                step = min(self.cegar_slice, left)
                with entry.lock:
                    result = entry.engine.run_query_safe(
                        query(
                            disjunct,
                            remaining,
                            method="cegar",
                            refine_budget=step,
                            structural=spec.structural,
                        )
                    )
                left -= step
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                if (
                    not left
                    or not result.ok
                    or result.cegar is None
                    or result.cegar.queued == 0
                    or result.verdict.verdict.value != "unknown"
                    or job.cancel_event.is_set()
                    or (remaining is not None and remaining <= 0.0)
                ):
                    return result

        ask = {"cegar": ask_cegar, "portfolio": ask_portfolio}.get(spec.method, ask)
        answer = answer_instance(ask, prop.disjuncts, spec.timeout, job.cancel_event)
        payload: dict[str, Any] = {
            "status": UNKNOWN if answer.status == CANCELLED else answer.status,
            "statuses": answer.statuses,
            "decided_by": answer.decided_by,
            "elapsed": answer.elapsed,
            "store_hits": self.store.stats.hits - hits_before,
            "model_digest": entry.digest,
        }
        if spec.label is not None:
            payload["label"] = spec.label
        cegars = [r.cegar for r in answer.results if r.cegar is not None]
        if cegars:
            cegar = cegars[-1]
            payload["cegar"] = {
                "subproblems_processed": cegar.subproblems_processed,
                "queued": cegar.queued,
                "parked": cegar.parked,
                "rounds": len(cegar.trace.rounds),
            }
            if spec.structural:
                payload["cegar"]["structural_splits"] = sum(
                    r.structural_splits for r in cegar.trace.rounds
                )
        if answer.status == ERROR:
            job.error = answer.error
        state = _JOB_STATES.get(answer.status, JobState.DONE)
        self._apply_outcome(job, state, payload)

    def _apply_outcome(
        self, job: Job, state: JobState, payload: dict[str, Any] | None
    ) -> None:
        job.result = payload
        job.state = state

    # -- store passthrough -------------------------------------------------

    def invalidate(self, model_digest_hex: str) -> int:
        """Evict a model's stored results (``POST /v1/invalidate``)."""
        return self.store.invalidate(model_digest_hex)

    def results_for_model(self, model_digest_hex: str) -> list[dict[str, Any]]:
        return self.store.results_for_model(model_digest_hex)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        by_state = {state.value: 0 for state in JobState}
        for job in self.jobs():
            by_state[job.state.value] += 1
        latencies = sorted(self._latencies)

        def percentile(q: float) -> float | None:
            if not latencies:
                return None
            index = min(len(latencies) - 1, int(q * (len(latencies) - 1) + 0.5))
            return latencies[index]

        return {
            "jobs": by_state,
            "queue_depth": by_state[JobState.QUEUED.value],
            "running": by_state[JobState.RUNNING.value],
            "coalesced": self._coalesced,
            "store": self.store.stats.to_dict(),
            "store_entries": len(self.store),
            "engines": len(self._engines),
            "latency_p50": percentile(0.50),
            "latency_p95": percentile(0.95),
            "uptime": time.time() - self.started_at,
            "closing": self._closing,
        }

    # -- shutdown ----------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> bool:
        """Stop the service; True when every job reached a terminal state.

        ``drain=True`` finishes queued and running jobs first;
        ``drain=False`` cancels the queue and interrupts running CEGAR
        loops at their next round boundary, checkpointing the frontiers
        in the engine caches (a later daemon with the same store resumes
        from stored results; an in-process resubmission resumes the
        frontier itself).  Idempotent.
        """
        with self._ready:
            self._closing = True
            if not drain:
                for job in self._jobs.values():
                    if not job.terminal:
                        job.cancel_event.set()
                        if job.state is JobState.QUEUED:
                            self._finish(job, JobState.CANCELLED)
            self._ready.notify_all()
        if not drain:
            self._interrupt_cegar()
        # once closing, a job thread exits when its job is done and the
        # heap is empty: every job is terminal when every thread is gone
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._workers:
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(left)
        return not any(thread.is_alive() for thread in self._workers)
