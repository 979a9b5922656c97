"""The track-based competition runner.

:func:`run_competition` is the CHC-COMP-shaped evaluation loop: every
:class:`~repro.bench.tracks.Track` answers every
:class:`~repro.interchange.instances.BenchmarkInstance` under a
per-instance wall-clock budget, outcomes are scored
(:mod:`repro.bench.scoring`) and cross-checked for verdict consistency,
and the whole run is collected into a JSON-able
:class:`CompetitionReport` (rendered by :mod:`repro.bench.report`).

Every (track, instance) cell loads its own model and parsed property
and gets a **fresh** :class:`~repro.api.VerificationEngine`, so no
track benefits from another track's caches — times are attributable to
the configuration alone, and a cell runs the same in-process or on a
pool worker.  A cell answers through
:func:`~repro.interchange.instances.answer_instance`, the per-instance
budget loop the daemon's jobs run too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.bench.scoring import (
    InstanceOutcome,
    TrackScore,
    rank_scores,
    score_track,
    verdict_disagreements,
)
from repro.api import VerificationQuery
from repro.bench.tracks import Track
from repro.interchange.instances import (
    ERROR,
    TIMEOUT,
    UNKNOWN,
    BenchmarkInstance,
    answer_instance,
    instance_engine,
)
from repro.verification.pool import WorkerPool

#: default cegar subproblem budget when a cegar track does not set one
_CEGAR_BUDGET = 32


@dataclass
class CompetitionReport:
    """Everything one :func:`run_competition` call learned."""

    instance_dir: str
    suite: str | None
    tracks: list[Track]
    instances: list[str]
    outcomes: list[InstanceOutcome]
    scores: list[TrackScore]
    disagreements: list[str]
    total_time: float
    timeout: float | None = None  #: CLI-level override, if any

    @property
    def consistent(self) -> bool:
        return not self.disagreements

    @property
    def unsound_answers(self) -> int:
        return sum(score.unsound for score in self.scores)

    @property
    def ok(self) -> bool:
        """Whether the run is trustworthy: consistent, sound, error-free."""
        return (
            self.consistent
            and self.unsound_answers == 0
            and all(score.errors == 0 for score in self.scores)
        )

    def outcome(self, track: str, instance: str) -> InstanceOutcome | None:
        for row in self.outcomes:
            if row.track == track and row.instance == instance:
                return row
        return None

    def to_dict(self) -> dict:
        return {
            "instance_dir": self.instance_dir,
            "suite": self.suite,
            "tracks": [track.to_dict() for track in self.tracks],
            "instances": list(self.instances),
            "scores": [score.to_dict() for score in rank_scores(self.scores)],
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "disagreements": list(self.disagreements),
            "consistent": self.consistent,
            "unsound_answers": self.unsound_answers,
            "ok": self.ok,
            "total_time": round(self.total_time, 4),
        }


def run_instance(
    track: Track,
    instance: BenchmarkInstance,
    model=None,
    prop=None,
    timeout: float | None = None,
) -> InstanceOutcome:
    """Answer one instance under one track's configuration.

    ``model``/``prop`` may be passed pre-loaded (the runner shares them
    across tracks); ``timeout`` overrides the instance's own budget.
    The wall clock covers engine construction, so expensive encodings
    count against the track that needs them.

    The budget is a genuine **per-instance** wall budget, CHC-COMP
    style: :func:`~repro.interchange.instances.answer_instance` gives
    every disjunct query only the *remaining* budget as its solver
    limit, and scores an answer arriving after the budget ``timeout``.
    """
    budget = float(timeout if timeout is not None else instance.timeout)
    start = time.perf_counter()
    refine_budget = (
        (track.refine_budget or _CEGAR_BUDGET) if track.method == "cegar" else None
    )
    try:
        model = instance.load_model() if model is None else model
        prop = instance.load_property() if prop is None else prop
        engine = instance_engine(model, prop, solver=track.solver)

        def ask(disjunct, remaining):
            return engine.run_query_safe(
                VerificationQuery(
                    risk=disjunct,
                    set_name="instance",
                    method=track.method,
                    domain=track.domain,
                    time_limit=remaining,
                    refine_budget=refine_budget,
                )
            )

        answer = answer_instance(
            ask, prop.disjuncts, budget - (time.perf_counter() - start)
        )
        status, detail = answer.status, answer.error or ",".join(answer.decided_by)
    except Exception as exc:  # a broken instance must not sink the run
        status, detail = ERROR, f"{type(exc).__name__}: {exc}"
    return _outcome(
        track, instance, budget, status, detail, time.perf_counter() - start
    )


def _outcome(
    track: Track,
    instance: BenchmarkInstance,
    timeout: float | None,
    status: str,
    detail: str,
    elapsed: float = 0.0,
) -> InstanceOutcome:
    """One scored cell; ``timeout`` overrides the instance's own budget."""
    return InstanceOutcome(
        track=track.name,
        instance=instance.name,
        status=status,
        elapsed=elapsed,
        timeout=float(timeout if timeout is not None else instance.timeout),
        expected=instance.expected,
        detail=detail,
    )


def run_instance_daemon(
    client,
    track: Track,
    instance: BenchmarkInstance,
    timeout: float | None = None,
) -> InstanceOutcome:
    """Answer one instance by submitting it to a running daemon.

    ``client`` is a :class:`~repro.service.ServiceClient`.  The daemon's
    job runs the same per-instance loop as :func:`run_instance` (late
    answers score ``timeout``), but against
    long-lived engines and the persistent result store — so unlike the
    in-process runner, repeated instances may be answered from the
    store, and times are not attributable to the track configuration
    alone.
    """
    budget = float(timeout if timeout is not None else instance.timeout)
    payload: dict = {
        "model": str(instance.model_path),
        "property": str(instance.property_path),
        "method": track.method,
        "domain": track.domain,
        "solver": track.solver,
        "timeout": budget,
        "label": f"{track.name}/{instance.name}",
    }
    if track.method == "cegar":
        payload["refine_budget"] = track.refine_budget or _CEGAR_BUDGET
    try:
        job = client.submit(payload)
        # generous client-side deadline: the job may sit in the queue
        # behind others before its own wall budget even starts
        job = client.wait_for(job["id"], timeout=max(4.0 * budget, 60.0))
    except Exception as exc:
        return _outcome(track, instance, budget, ERROR, f"{type(exc).__name__}: {exc}")
    result = job.get("result") or {}
    state = job["state"]
    if state == "done":
        status = result.get("status", UNKNOWN)
        detail = ",".join(result.get("decided_by", ()))
    elif state == "timeout":
        status = TIMEOUT
        detail = ",".join(result.get("decided_by", ()))
    else:
        status = ERROR
        detail = job.get("error") or state
    elapsed = float(result.get("elapsed", 0.0))
    return _outcome(track, instance, budget, status, detail, elapsed)


def _run_cell(
    timeout: float | None, cell: tuple[BenchmarkInstance, Track]
) -> InstanceOutcome:
    """One (instance, track) competition cell, self-contained.

    Loads model and property itself — cells share nothing, so every
    cell's time stays attributable to its configuration alone — and
    applies the static-IR pre-check: a file outside the supported
    subset or an invalid model becomes this cell's error outcome
    instead of sinking the whole run.  The same step runs in-process
    and as a pool task (module-level, so it pickles).
    """
    instance, track = cell
    try:
        model = instance.load_model()
        prop = instance.load_property()
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
    else:
        from repro.analysis.ir_analysis import model_error_summary

        diagnostics = model_error_summary(model)
        if diagnostics is None:
            return run_instance(track, instance, model, prop, timeout=timeout)
        detail = f"static analysis rejected model: {diagnostics}"
    return _outcome(track, instance, timeout, ERROR, detail)


def run_competition(
    instances: Sequence[BenchmarkInstance],
    tracks: Sequence[Track] | None = None,
    *,
    instance_dir: str = "",
    suite: str | None = None,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
    daemon: str | None = None,
    workers: int = 1,
) -> CompetitionReport:
    """Run every track over every instance and score the matrix.

    ``daemon`` targets a running service (a base URL) instead of
    constructing in-process engines: every (track, instance) cell is
    submitted as a job via :func:`run_instance_daemon`.

    ``workers > 1`` fans the (instance, track) cells out over a
    :class:`~repro.verification.pool.WorkerPool` (ignored under
    ``daemon`` — the daemon is the executor there).  Per-instance wall
    budgets still apply inside each worker, and the outcome order
    matches the sequential loop.  If the pool fails, the outcomes
    already returned are kept and the remaining cells run in-process;
    any other exception propagates.
    """
    tracks = list(tracks) if tracks else None
    if not tracks:
        from repro.bench.tracks import DEFAULT_TRACKS

        tracks = list(DEFAULT_TRACKS)
    names = [track.name for track in tracks]
    if len(set(names)) != len(names):
        raise ValueError(f"track names must be unique, got {names}")
    if not instances:
        raise ValueError("run_competition needs at least one instance")

    start = time.perf_counter()
    cells = [(instance, track) for instance in instances for track in tracks]
    if daemon is not None:
        from repro.service.client import ServiceClient

        with ServiceClient(daemon) as client:
            outcomes = _reported(
                (
                    run_instance_daemon(client, track, instance, timeout=timeout)
                    for instance, track in cells
                ),
                progress,
            )
    elif workers > 1:
        with WorkerPool(workers, timeout) as pool:
            outcomes = _reported(pool.map(_run_cell, cells), progress)
    else:
        outcomes = _reported((_run_cell(timeout, cell) for cell in cells), progress)
    scores = [score_track(track.name, outcomes) for track in tracks]
    return CompetitionReport(
        instance_dir=str(instance_dir),
        suite=suite,
        tracks=tracks,
        instances=[instance.name for instance in instances],
        outcomes=outcomes,
        scores=scores,
        disagreements=verdict_disagreements(outcomes),
        total_time=time.perf_counter() - start,
        timeout=timeout,
    )


def _reported(
    outcomes: Iterable[InstanceOutcome], progress: Callable[[str], None] | None
) -> list[InstanceOutcome]:
    """Drain ``outcomes`` in cell order, reporting each to ``progress``."""
    drained = []
    for outcome in outcomes:
        drained.append(outcome)
        if progress is not None:
            progress(
                f"  {outcome.track:<18} {outcome.instance:<22} "
                f"{outcome.status:<8} {outcome.elapsed:7.3f}s"
            )
    return drained
