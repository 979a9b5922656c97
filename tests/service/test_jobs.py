"""The job queue: states, priorities, faults, shutdown.

Every test runs against a real :class:`VerificationService` (job worker
threads on the priority heap, shared engines) — no mocked scheduler.
Determinism comes from the workload, not from sleeps: the "slow" job is
a sliced CEGAR run whose every slice re-enters the service, so
cancellation points and queue reordering are exercised at well-defined
boundaries.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import ResultStore, VerificationService
from repro.service.jobs import JobSpec, JobState, ServiceClosed

from tests.service.conftest import submit_wait

#: a sliced CEGAR job on the undecidable-without-refinement property;
#: large budget + slice=1 keeps the worker busy for many slices
HARD_CEGAR = {
    "model": "model.onnx",
    "property": "hard.vnnlib",
    "method": "cegar",
    "refine_budget": 5000,
}


def _slow_service(bench_dir, workers=1):
    return VerificationService(
        ResultStore(),
        workers=workers,
        solver="highs",
        root=bench_dir,
        cegar_slice=1,
    )


def _gate_engine(monkeypatch):
    """Block the worker inside its first engine query until released.

    Returns ``(entered, release)`` events: ``entered`` fires once a
    worker is provably mid-execution (occupying its slot), and the
    query only proceeds after the test sets ``release`` — so whatever
    the test does in between happens at a well-defined point.
    """
    from repro.api import VerificationEngine

    entered = threading.Event()
    release = threading.Event()
    original = VerificationEngine.run_query_safe

    def gated(engine, query):
        entered.set()
        release.wait(timeout=60.0)
        return original(engine, query)

    monkeypatch.setattr(VerificationEngine, "run_query_safe", gated)
    return entered, release


class TestLifecycle:
    def test_unsat_instance_runs_to_done(self, service):
        job = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert job.state is JobState.DONE
        assert job.result["status"] == "unsat"
        assert job.result["decided_by"] == ["prescreen"]
        assert job.started is not None and job.finished >= job.started

    def test_sat_instance_reports_sat(self, service):
        job = submit_wait(
            service, {"model": "model.onnx", "property": "sat.vnnlib"}
        )
        assert job.state is JobState.DONE
        assert job.result["status"] == "sat"

    def test_job_ids_are_deterministic(self, service):
        first = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        second = submit_wait(
            service, {"model": "model.onnx", "property": "sat.vnnlib"}
        )
        assert (first.id, second.id) == ("job-000001", "job-000002")

    def test_to_dict_is_json_shaped(self, service):
        job = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        payload = job.to_dict()
        assert payload["state"] == "done"
        assert payload["spec"]["model"] == "model.onnx"
        assert payload["result"]["model_digest"]


class TestStoreIntegration:
    def test_resubmission_hits_the_store(self, service):
        cold = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert cold.result["store_hits"] == 0
        warm = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert warm.result["store_hits"] == 1
        assert warm.result["status"] == cold.result["status"]
        assert warm.result["decided_by"] == ["store"]

    def test_invalidate_on_retrain_evicts_the_stored_results(self, service):
        job = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        digest = job.result["model_digest"]
        assert len(service.store) == 1
        # a training pass through the daemon's cached model fires the
        # IR-invalidation hook, which carries the eviction into the store
        entry = next(iter(service._engines.values()))
        import numpy as np

        entry.model.forward(np.zeros((1, 4)), training=True)
        assert len(service.store) == 0
        assert service.store.stats.invalidations == 1
        assert service.results_for_model(digest) == []

    def test_explicit_invalidate_reports_the_eviction_count(self, service):
        job = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert service.invalidate(job.result["model_digest"]) == 1
        assert service.invalidate(job.result["model_digest"]) == 0

    def test_single_flight_computes_the_answer_once(self, bench_dir):
        """N identical concurrent jobs -> exactly one solve.

        Whatever the interleaving — follower coalesces onto the
        in-flight leader, or arrives late and hits the store — the
        expensive answer is computed and stored exactly once.
        """
        svc = VerificationService(
            ResultStore(), workers=4, solver="highs", root=bench_dir
        )
        try:
            payload = {"model": "model.onnx", "property": "sat.vnnlib"}
            jobs = [svc.submit_payload(payload) for _ in range(4)]
            for job in jobs:
                assert job.wait(120.0)
                assert job.state is JobState.DONE
                assert job.result["status"] == "sat"
            assert svc.store.stats.puts == 1
            metrics = svc.metrics()
            deduped = metrics["coalesced"] + svc.store.stats.hits
            assert deduped == 3
        finally:
            svc.close(drain=False)


    @pytest.mark.parametrize(
        "leader_fields, follower_fields",
        [
            ({"structural": True}, {"structural": False}),
            ({"refine_budget": 30}, {"refine_budget": 31}),
        ],
        ids=["structural", "refine_budget"],
    )
    def test_single_flight_never_merges_different_questions(
        self, bench_dir, monkeypatch, leader_fields, follower_fields
    ):
        """A follower that differs in a field shaping the answer computes
        its own answer instead of copying the in-flight leader's."""
        svc = VerificationService(
            ResultStore(), workers=2, solver="highs", root=bench_dir
        )
        entered, release = _gate_engine(monkeypatch)
        try:
            base = {**HARD_CEGAR, "refine_budget": 30}
            leader = svc.submit_payload({**base, **leader_fields})
            assert entered.wait(60.0), "leader never reached the engine"
            follower = svc.submit_payload({**base, **follower_fields})
            # the leader is held in the engine: a follower keyed apart
            # registers its own flight instead of waiting on the leader
            deadline = time.monotonic() + 10.0
            while len(svc._inflight) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            for job in (leader, follower):
                assert job.wait(300.0)
                assert job.state is JobState.DONE
                assert job.coalesced_with is None
            assert svc.metrics()["coalesced"] == 0
        finally:
            release.set()
            svc.close(drain=False)



class TestPropertyCache:
    def test_repeated_submits_parse_the_property_once(self, service, monkeypatch):
        from repro.service import jobs

        parsed = []
        read = jobs.read_vnnlib

        def counting_read(path):
            parsed.append(path)
            return read(path)

        monkeypatch.setattr(jobs, "read_vnnlib", counting_read)
        answers = [
            submit_wait(service, {"model": "model.onnx", "property": "sat.vnnlib"})
            for _ in range(3)
        ]
        assert [job.result["status"] for job in answers] == ["sat"] * 3
        assert len(parsed) == 1

    def test_racing_jobs_register_a_new_property_once(self, service, monkeypatch):
        """One job's registration of a new property pauses while a second
        job on it runs: the second waits for that registration and makes
        none of its own (a second, overwriting one would remove the set
        while the first job queries it)."""
        from repro.api import VerificationEngine

        paused, resume = threading.Event(), threading.Event()
        registered = []
        register = VerificationEngine.add_static_feature_set

        def pausing(engine, *args, **kwargs):
            registered.append(kwargs["name"])
            if len(registered) == 1:
                paused.set()
                assert resume.wait(60.0)
            else:  # a second registration raced the paused one
                resume.set()
            return register(engine, *args, **kwargs)

        class WaitingLock:
            """``entry.lock`` that resumes the paused registration once a
            second thread has to wait for the lock."""

            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                if not self._lock.acquire(blocking=False):
                    resume.set()
                    self._lock.acquire()
                return self

            def __exit__(self, *exc):
                self._lock.release()

        entry = service._engine_entry(service._resolve("model.onnx"))
        entry.lock = WaitingLock()
        monkeypatch.setattr(VerificationEngine, "add_static_feature_set", pausing)
        payload = {"model": "model.onnx", "property": "sat.vnnlib"}
        first = service.submit_payload(payload)
        assert paused.wait(60.0)
        second = service.submit_payload(payload)
        assert first.wait(120.0) and second.wait(120.0)
        assert [job.result["status"] for job in (first, second)] == ["sat", "sat"]
        assert len(registered) == 1

    def test_concurrent_jobs_share_parsed_properties(self, bench_dir, monkeypatch):
        """More job threads than cores on two property files: every
        answer matches its file, and each file is parsed at most once
        per thread that raced for it."""
        import sys

        from repro.service import jobs

        parsed = []
        read = jobs.read_vnnlib

        def counting_read(path):
            parsed.append(path.name)
            return read(path)

        monkeypatch.setattr(jobs, "read_vnnlib", counting_read)
        workers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service = VerificationService(
            ResultStore(), workers=workers, solver="highs", root=bench_dir
        )
        try:
            names = ["sat.vnnlib", "unsat.vnnlib"] * 6
            submitted = [
                service.submit_payload({"model": "model.onnx", "property": name})
                for name in names
            ]
            assert all(job.wait(120.0) for job in submitted)
        finally:
            service.close(drain=False, timeout=60.0)
            sys.setswitchinterval(interval)
        statuses = [job.result["status"] for job in submitted]
        assert statuses == [name.split(".")[0] for name in names]
        for name in set(names):
            assert 1 <= parsed.count(name) <= workers

    def test_rewritten_property_is_read_again(
        self, service, bench_dir, reachable, monkeypatch
    ):
        import os

        import numpy as np

        from repro.interchange.vnnlib import write_vnnlib
        from repro.service import jobs

        from tests.service.conftest import _risk

        parsed = []
        read = jobs.read_vnnlib

        def counting_read(path):
            parsed.append(path)
            return read(path)

        monkeypatch.setattr(jobs, "read_vnnlib", counting_read)
        lo, hi = reachable
        path = bench_dir / "rewritten.vnnlib"
        job = {"model": "model.onnx", "property": path.name}
        write_vnnlib(path, np.zeros(4), np.ones(4), [_risk(0.5 * (lo + hi))])
        assert submit_wait(service, job).result["status"] == "sat"
        before = os.stat(path).st_mtime_ns
        write_vnnlib(path, np.zeros(4), np.ones(4), [_risk(hi + 50.0)])
        # a later modification time, whatever the clock's resolution
        os.utime(path, ns=(before + 10**9, before + 10**9))
        assert submit_wait(service, job).result["status"] == "unsat"
        assert submit_wait(service, job).result["status"] == "unsat"
        assert len(parsed) == 2

class TestPrioritiesAndCancellation:
    def test_higher_priority_overtakes_the_queue(self, bench_dir, monkeypatch):
        svc = _slow_service(bench_dir, workers=1)
        entered, release = _gate_engine(monkeypatch)
        try:
            blocker = svc.submit_payload({**HARD_CEGAR, "refine_budget": 30})
            assert entered.wait(60.0), "blocker never reached the engine"
            # the single worker is held inside the blocker: both rivals
            # are queued, and the heap must release the high-priority
            # one first
            low = svc.submit_payload(
                {"model": "model.onnx", "property": "unsat.vnnlib", "priority": 0}
            )
            high = svc.submit_payload(
                {"model": "model.onnx", "property": "sat.vnnlib", "priority": 10}
            )
            release.set()
            for job in (blocker, low, high):
                assert job.wait(300.0)
            assert high.started <= low.started
        finally:
            svc.close(drain=False)

    def test_cancel_queued_job_never_runs(self, bench_dir, monkeypatch):
        svc = _slow_service(bench_dir, workers=1)
        entered, release = _gate_engine(monkeypatch)
        try:
            svc.submit_payload({**HARD_CEGAR, "refine_budget": 30})
            assert entered.wait(60.0)
            queued = svc.submit_payload(
                {"model": "model.onnx", "property": "unsat.vnnlib"}
            )
            assert svc.cancel(queued.id) is True
            assert queued.state is JobState.CANCELLED
            assert queued.started is None
            release.set()
        finally:
            svc.close(drain=False)

    def test_cancel_mid_cegar_leaves_a_resumable_frontier(
        self, bench_dir, monkeypatch
    ):
        from repro.api import VerificationEngine

        svc = _slow_service(bench_dir, workers=1)
        # gate the worker between CEGAR slices: after the first slice
        # returns (UNKNOWN, open frontier) the worker blocks until the
        # test has issued the cancellation — no timing races
        first_slice_done = threading.Event()
        may_continue = threading.Event()
        original = VerificationEngine.run_query_safe

        def gated(engine, query):
            result = original(engine, query)
            if not first_slice_done.is_set():
                first_slice_done.set()
                may_continue.wait(timeout=60.0)
            return result

        monkeypatch.setattr(VerificationEngine, "run_query_safe", gated)
        try:
            job = svc.submit_payload(HARD_CEGAR)
            assert first_slice_done.wait(60.0), "first CEGAR slice never ran"
            assert job.state is JobState.RUNNING
            entry = next(iter(svc._engines.values()))
            frontier = [
                loop
                for loop in entry.engine._cegar_loops.values()
                if loop.frontier_size > 0
            ]
            assert frontier, "first slice left no open frontier"
            assert svc.cancel(job.id) is True
            may_continue.set()
            assert job.wait(60.0)
            assert job.state is JobState.CANCELLED
            # the engine's cached loop survived the cancellation with
            # its frontier intact: a resubmission resumes refinement
            # instead of restarting from the root subproblem
            assert frontier[0].frontier_size > 0
            svc.cegar_slice = 64  # the resume needn't stay cancellation-fine
            resumed = submit_wait(svc, dict(HARD_CEGAR), timeout=600.0)
            assert resumed.state is JobState.DONE
            assert resumed.result["status"] == "unsat"
            assert resumed.result["cegar"]["subproblems_processed"] >= 1
        finally:
            svc.close(drain=False)

    def test_cancel_unknown_or_finished_job_is_false(self, service):
        assert service.cancel("job-999999") is False
        job = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert service.cancel(job.id) is False


class TestStructuralJobs:
    def test_structural_flag_round_trips_and_reports_splits(self, service):
        job = submit_wait(service, {**HARD_CEGAR, "structural": True})
        assert job.state is JobState.DONE
        assert job.result["status"] == "unsat"
        assert job.to_dict()["spec"]["structural"] is True
        # the hard property sits just above the reachable maximum: the
        # structural axis genuinely splits merged groups on the way
        assert job.result["cegar"]["structural_splits"] >= 1

    def test_sliced_structural_job_resumes_merge_state(self, bench_dir):
        # slice=1 forces every round through the service checkpoint: the
        # merge state must survive each frontier handoff or the job
        # would re-merge (and re-pay) every slice
        svc = _slow_service(bench_dir, workers=1)
        try:
            job = submit_wait(
                svc, {**HARD_CEGAR, "structural": True}, timeout=600.0
            )
            assert job.state is JobState.DONE
            assert job.result["status"] == "unsat"
            assert job.result["cegar"]["structural_splits"] >= 1
        finally:
            svc.close(drain=False)

    def test_structural_verdict_matches_plain_cegar(self, service):
        plain = submit_wait(service, dict(HARD_CEGAR))
        structural = submit_wait(service, {**HARD_CEGAR, "structural": True})
        assert plain.result["status"] == structural.result["status"] == "unsat"
        # the store is verdict-level and method-agnostic on purpose:
        # structural is a strategy, not a different question, so the
        # resubmission is legitimately served from the plain run's entry
        assert structural.result["decided_by"] == ["store"]

    def test_structural_requires_cegar_method(self):
        with pytest.raises(ValueError, match="cegar"):
            JobSpec(
                model="m", property="p", method="exact", structural=True
            )


class TestBudgets:
    def test_budget_exceeded_is_timeout_not_failed(self, service):
        job = submit_wait(
            service,
            {"model": "model.onnx", "property": "open.vnnlib", "timeout": 0.001},
        )
        assert job.state is JobState.TIMEOUT
        assert job.result["status"] == "timeout"
        assert job.error is None

    def test_sliced_cegar_respects_the_wall_budget(self, bench_dir, monkeypatch):
        from repro.api import VerificationEngine

        original = VerificationEngine.run_query_safe

        def slow(engine, query):
            # each slice outlasts most of the wall budget, so the
            # between-slice deadline check (or the late-answer rule)
            # must fire well before the refine budget runs out
            time.sleep(0.2)
            return original(engine, query)

        monkeypatch.setattr(VerificationEngine, "run_query_safe", slow)
        svc = _slow_service(bench_dir, workers=1)
        try:
            job = svc.submit_payload({**HARD_CEGAR, "timeout": 0.3})
            assert job.wait(120.0)
            assert job.state is JobState.TIMEOUT
            assert job.result["status"] == "timeout"
        finally:
            svc.close(drain=False)

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError, match="timeout"):
            JobSpec(model="m", property="p", timeout=0.0)
        with pytest.raises(ValueError, match="refine_budget"):
            JobSpec(model="m", property="p", refine_budget=-1)


class TestFaultIsolation:
    def test_missing_model_fails_the_job_not_the_daemon(self, service):
        bad = submit_wait(
            service, {"model": "nope.onnx", "property": "unsat.vnnlib"}
        )
        assert bad.state is JobState.FAILED
        assert "nope.onnx" in bad.error
        good = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert good.state is JobState.DONE

    def test_corrupt_model_fails_the_job_not_the_daemon(self, service, bench_dir):
        (bench_dir / "corrupt.onnx").write_bytes(b"not an onnx file")
        bad = submit_wait(
            service, {"model": "corrupt.onnx", "property": "unsat.vnnlib"}
        )
        assert bad.state is JobState.FAILED
        good = submit_wait(
            service, {"model": "model.onnx", "property": "sat.vnnlib"}
        )
        assert good.state is JobState.DONE

    def test_dimension_mismatch_fails_cleanly(self, service, bench_dir):
        import numpy as np

        from repro.interchange.vnnlib import write_vnnlib
        from repro.properties.risk import RiskCondition, output_geq

        write_vnnlib(
            bench_dir / "wrong-dims.vnnlib",
            np.zeros(7),
            np.ones(7),
            [RiskCondition("r", (output_geq(2, 0, 0.0),))],
        )
        bad = submit_wait(
            service, {"model": "model.onnx", "property": "wrong-dims.vnnlib"}
        )
        assert bad.state is JobState.FAILED
        assert "input variables" in bad.error

    def test_crashed_executor_degrades_the_job_only(self, service, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def explode(*_args, **_kwargs):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(service, "_execute_instance", explode)
        crashed = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert crashed.state is JobState.FAILED
        assert "BrokenProcessPool" in crashed.error
        monkeypatch.undo()
        recovered = submit_wait(
            service, {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        assert recovered.state is JobState.DONE

    def test_path_escape_is_rejected(self, service):
        job = submit_wait(
            service, {"model": "../../etc/passwd", "property": "unsat.vnnlib"}
        )
        assert job.state is JobState.FAILED
        assert "escape" in job.error or "No such file" in job.error


class TestPayloadValidation:
    def test_unknown_fields_are_rejected(self, service):
        with pytest.raises(ValueError, match="unknown job fields"):
            service.submit_payload(
                {"model": "m", "property": "p", "bogus": 1}
            )

    def test_missing_paths_are_rejected(self, service):
        with pytest.raises(ValueError, match="model"):
            service.submit_payload({"method": "exact"})

    def test_unknown_suite_instance_is_rejected(self, service):
        with pytest.raises(ValueError, match="no instance"):
            service.submit_payload({"suite": "smoke", "instance": "nope"})

    def test_non_verdict_method_is_rejected(self, service):
        with pytest.raises(ValueError, match="verdict methods"):
            service.submit_payload(
                {"model": "m", "property": "p", "method": "range"}
            )


class TestShutdown:
    def test_drain_finishes_queued_work(self, bench_dir):
        svc = VerificationService(
            ResultStore(), workers=1, solver="highs", root=bench_dir
        )
        jobs = [
            svc.submit_payload({"model": "model.onnx", "property": "unsat.vnnlib"})
            for _ in range(3)
        ]
        assert svc.close(drain=True) is True
        assert all(job.state is JobState.DONE for job in jobs)

    def test_no_drain_cancels_the_queue_and_interrupts_cegar(
        self, bench_dir, monkeypatch
    ):
        svc = _slow_service(bench_dir, workers=1)
        entered, release = _gate_engine(monkeypatch)
        running = svc.submit_payload(HARD_CEGAR)
        assert entered.wait(60.0)
        queued = svc.submit_payload(
            {"model": "model.onnx", "property": "unsat.vnnlib"}
        )
        # close() sets every live job's cancel event before waiting on
        # the done events; release the gated worker at that point so it
        # observes the cancellation at its next slice boundary
        threading.Thread(
            target=lambda: (running.cancel_event.wait(60.0), release.set()),
            daemon=True,
        ).start()
        assert svc.close(drain=False, timeout=60.0) is True
        assert queued.state is JobState.CANCELLED
        assert queued.started is None
        assert running.state is JobState.CANCELLED

    def test_submit_after_close_raises(self, bench_dir):
        svc = VerificationService(ResultStore(), root=bench_dir)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit_payload({"model": "model.onnx", "property": "unsat.vnnlib"})

    @pytest.mark.parametrize("trial", range(20))
    def test_submit_racing_close_is_queued_or_rejected(self, bench_dir, trial):
        """Submit and close share one lock: a racing submission is
        either queued before the close (and so reaches a terminal state)
        or rejected, never stranded or blocked."""
        svc = VerificationService(
            ResultStore(), workers=1, solver="highs", root=bench_dir
        )
        accepted, rejected = [], []
        submitting = threading.Event()

        def submit_until_rejected():
            payload = {"model": "model.onnx", "property": "unsat.vnnlib"}
            while True:
                try:
                    accepted.append(svc.submit_payload(payload))
                except ServiceClosed:
                    rejected.append(True)
                    return
                submitting.set()

        thread = threading.Thread(target=submit_until_rejected, daemon=True)
        thread.start()
        assert submitting.wait(60.0)
        assert svc.close(drain=False, timeout=60.0) is True
        thread.join(10.0)
        assert not thread.is_alive() and rejected
        assert all(job.terminal for job in accepted)

    def test_close_is_idempotent(self, bench_dir):
        svc = VerificationService(ResultStore(), root=bench_dir)
        assert svc.close() is True
        assert svc.close() is True


class TestMetrics:
    def test_metrics_shape_and_counts(self, service):
        submit_wait(service, {"model": "model.onnx", "property": "unsat.vnnlib"})
        submit_wait(service, {"model": "model.onnx", "property": "unsat.vnnlib"})
        metrics = service.metrics()
        assert metrics["jobs"]["done"] == 2
        assert metrics["queue_depth"] == 0
        assert metrics["running"] == 0
        assert metrics["engines"] == 1
        assert metrics["store"]["puts"] == 1
        assert metrics["store"]["hits"] == 1
        assert metrics["latency_p50"] is not None
        assert metrics["latency_p95"] >= metrics["latency_p50"] - 1e-9
        assert metrics["uptime"] > 0
