"""The CEGAR refinement engine: queue, rounds, witnesses, resume, pool."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.perception.network import build_mlp_perception_network
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.cegar import (
    CegarConfig,
    CegarLoop,
    RefinementTrace,
    Subproblem,
    _ScopedLeafSolver,
    refine_region,
)
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.output_range import trivial_reachability_risk
from repro.verification.sets import Box
from repro.verification.solver.result import SolveStatus


@pytest.fixture(scope="module")
def model():
    return build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=1
    )


@pytest.fixture(scope="module")
def reachable(model):
    """Empirical y0 range over [0, 1]^4 (for picking thresholds)."""
    rng = np.random.default_rng(0)
    out = model.forward(rng.uniform(0, 1, size=(4000, 4)), training=False)
    return float(out[:, 0].min()), float(out[:, 0].max())


def _risk(threshold: float) -> RiskCondition:
    return RiskCondition("y0-high", (output_geq(2, 0, threshold),))


class TestVerdicts:
    def test_clearly_safe_region_is_proved_in_one_round(self, model, reachable):
        result = refine_region(model, _risk(reachable[1] + 50.0), 0.0, 1.0, budget=8)
        assert result.proved
        assert result.status is SolveStatus.UNSAT
        assert result.decided_fraction == pytest.approx(1.0)
        assert len(result.trace.rounds) == 1
        assert result.trace.rounds[0].prescreen_safe == 1

    def test_reachable_risk_yields_genuine_input_witness(self, model, reachable):
        lo, hi = reachable
        result = refine_region(model, _risk(0.5 * (lo + hi)), 0.0, 1.0, budget=64)
        assert result.status is SolveStatus.SAT
        cex = result.counterexample
        assert cex is not None and cex.risk_occurs
        # the witness is a real input inside the region whose *actual*
        # network output satisfies the risk
        assert np.all(cex.image >= 0.0) and np.all(cex.image <= 1.0)
        replay = model.forward(cex.image[None, ...], training=False)[0]
        assert float(_risk(0.5 * (lo + hi)).margin(replay[None, :])[0]) >= 0.0

    def test_tight_safe_threshold_needs_refinement(self, model, reachable):
        loop = CegarLoop(
            model, _risk(reachable[1] + 0.3), 0.0, 1.0, cut_layer=2,
            config=CegarConfig(solve_depth=3),
        )
        result = loop.run(budget=2000)
        assert result.proved
        assert result.subproblems_processed > 1  # at least one split happened
        fractions = result.trace.decided_fractions()
        assert fractions[-1] == pytest.approx(1.0)
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


class TestAnytimeBudget:
    def test_budget_exhaustion_returns_open_frontier(self, model, reachable):
        loop = CegarLoop(model, _risk(reachable[1] + 0.3), 0.0, 1.0, cut_layer=2)
        result = loop.run(budget=3)
        assert result.status is SolveStatus.UNKNOWN
        assert loop.frontier_size > 0
        assert result.subproblems_processed <= 3

    def test_resume_continues_rounds_and_volume(self, model, reachable):
        loop = CegarLoop(
            model, _risk(reachable[1] + 0.3), 0.0, 1.0, cut_layer=2,
            config=CegarConfig(solve_depth=3),
        )
        first = loop.run(budget=3)
        rounds_before = len(first.trace.rounds)
        decided_before = first.decided_fraction
        second = loop.run(budget=2000)
        assert second.status is SolveStatus.UNSAT
        assert len(second.trace.rounds) > rounds_before
        assert second.decided_fraction >= decided_before
        indices = [r.index for r in second.trace.rounds]
        assert indices == list(range(len(indices)))
        # the first result is a snapshot: resuming must not have
        # retroactively grown its trace
        assert len(first.trace.rounds) == rounds_before

    def test_fully_parked_frontier_is_distinguishable(self, model, reachable):
        # with max_depth=1 an undecidable band parks everything: the
        # result must say so (resuming spends no budget on dead ends)
        loop = CegarLoop(
            model, _risk(reachable[1] + 0.3), 0.0, 1.0, cut_layer=2,
            config=CegarConfig(solver=None, max_depth=1),
        )
        result = loop.run(budget=100)
        assert result.status is SolveStatus.UNKNOWN
        assert result.queued == 0 and result.parked > 0
        assert "parked at max_depth" in result.summary()
        resumed = loop.run(budget=100)
        assert resumed.subproblems_processed == result.subproblems_processed

    def test_mid_round_failure_poisons_the_loop(self, model, reachable, monkeypatch):
        # an exception mid-round loses popped subproblems: the loop must
        # refuse to resume (an empty frontier would read as SAFE) and
        # its status must stop short of UNSAT
        loop = CegarLoop(
            model, _risk(reachable[1] + 0.3), 0.0, 1.0, cut_layer=2,
            config=CegarConfig(solver=None),
        )
        monkeypatch.setattr(
            loop, "_prescreen", lambda boxes: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(RuntimeError, match="boom"):
            loop.run(budget=10)
        assert loop.status is SolveStatus.UNKNOWN
        with pytest.raises(RuntimeError, match="fresh loop"):
            loop.run(budget=10)

    def test_budget_must_be_positive(self, model):
        loop = CegarLoop(model, _risk(1e9), 0.0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            loop.run(budget=0)


class TestSplitting:
    def test_children_partition_parent(self, model):
        loop = CegarLoop(model, _risk(1e9), 0.0, 1.0)
        lower = np.array([0.0, 0.2, 0.0, 0.0])
        upper = np.array([1.0, 0.4, 0.3, 1.0])
        sub = Subproblem(lower, upper, depth=0, volume=1.0, path="p")
        left, right = loop._split(sub)
        dim = int(np.argmax(upper - lower))  # widest dimension
        assert left.upper[dim] == pytest.approx(0.5 * (lower[dim] + upper[dim]))
        assert right.lower[dim] == pytest.approx(left.upper[dim])
        np.testing.assert_array_equal(left.lower, lower)
        np.testing.assert_array_equal(right.upper, upper)
        assert left.volume == right.volume == pytest.approx(0.5)
        assert left.depth == right.depth == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            CegarConfig(domain="polyhedra")


class TestTrace:
    def test_trace_is_json_serializable(self, model, reachable):
        result = refine_region(model, _risk(reachable[1] + 0.3), 0.0, 1.0, budget=10)
        payload = json.loads(json.dumps(result.trace.to_dict()))
        assert payload["rounds"]
        assert 0.0 <= payload["decided_fraction"] <= 1.0

    def test_empty_trace_defaults(self):
        trace = RefinementTrace()
        assert trace.decided_fraction == 0.0
        assert trace.open_frontier == 1
        assert "0 refinement round" in trace.summary()

    def test_summary_mentions_unsafe_witness(self, model, reachable):
        lo, hi = reachable
        result = refine_region(model, _risk(0.5 * (lo + hi)), 0.0, 1.0, budget=64)
        assert "UNSAFE" in result.summary()


class TestWorkers:
    def test_parallel_leaves_agree_with_sequential(self, model, reachable):
        risk = _risk(reachable[1] + 0.3)
        sequential = CegarLoop(
            model, risk, 0.0, 1.0, cut_layer=2, config=CegarConfig(solve_depth=1)
        ).run(budget=2000)
        parallel = CegarLoop(
            model, risk, 0.0, 1.0, cut_layer=2, config=CegarConfig(solve_depth=1)
        ).run(budget=2000, workers=2)
        assert sequential.status is parallel.status is SolveStatus.UNSAT
        assert parallel.decided_fraction == pytest.approx(1.0)

    def test_pool_path_agrees_even_on_one_core(self, model, reachable, monkeypatch):
        # the worker cap skips the pool on single-core machines; force it
        # so the pool code path is exercised deterministically everywhere
        import repro.verification.cegar as cegar_module

        monkeypatch.setattr(cegar_module.os, "cpu_count", lambda: 4)
        risk = _risk(reachable[1] + 0.3)
        loop = CegarLoop(
            model, risk, 0.0, 1.0, cut_layer=2, config=CegarConfig(solve_depth=1)
        )
        result = loop.run(budget=2000, workers=2)
        assert result.status is SolveStatus.UNSAT
        assert result.decided_fraction == pytest.approx(1.0)

    def test_pool_worker_functions_round_trip(self, model, reachable):
        # the initializer/task pair must also behave in-process
        from repro.verification.cegar import _leaf_solver, _solve_leaf
        from repro.verification.abstraction.propagate import region_boxes
        from repro.verification.pool import Payload
        from repro.verification.sets import BoxBatch

        suffix = model.suffix_network(2)
        root = region_boxes(
            model, BoxBatch(np.zeros((1, 4)), np.ones((1, 4))), 2
        ).box(0)
        solver = _leaf_solver(
            (suffix, root, _risk(reachable[1] + 50.0), "highs", {})
        )
        result = _solve_leaf(solver, Payload((root.lower, root.upper)))
        assert result.status is SolveStatus.UNSAT


class TestLeafWitnessConcretization:
    def test_cut0_sat_leaf_becomes_input_witness(self, model, reachable):
        # at cut_layer=0 the leaf MILP encodes the whole network exactly,
        # so its SAT witness is a real input point: with concretization
        # restricted to box centers (steps=0) and a risk reachable only
        # away from the center, the solver rung must produce the UNSAFE
        # verdict instead of splitting forever
        lo, hi = reachable
        center_out = model.forward(np.full((1, 4), 0.5), training=False)[0, 0]
        threshold = 0.5 * (float(center_out) + hi)  # misses the center
        loop = CegarLoop(
            model, _risk(threshold), 0.0, 1.0, cut_layer=0,
            config=CegarConfig(solve_depth=0, concretize_steps=0),
        )
        result = loop.run(budget=200)
        assert result.status is SolveStatus.SAT
        cex = result.counterexample
        replay = model.forward(cex.image[None, ...], training=False)[0]
        assert float(_risk(threshold).margin(replay[None, :])[0]) >= 0.0
        assert np.all(cex.image >= 0.0) and np.all(cex.image <= 1.0)

    def test_later_cut_sat_leaf_is_not_trusted(self, model, reachable):
        loop = CegarLoop(model, _risk(reachable[1]), 0.0, 1.0, cut_layer=2)
        sub = Subproblem(
            np.zeros(4), np.ones(4), depth=0, volume=1.0, path="p"
        )
        from repro.verification.solver.result import SolveResult

        fake = SolveResult(
            status=SolveStatus.SAT,
            witness=np.zeros(1),
            stats={"features": np.full(12, 0.5)},
        )
        assert loop._concretize_leaf_witness(sub, fake) is None


class TestLeafSolver:
    def test_scoped_solve_rolls_back_the_shared_encoding(self, model, reachable):
        suffix = model.suffix_network(2)
        root = Box(np.full(suffix.in_dim, -5.0), np.full(suffix.in_dim, 5.0))
        problem = encode_verification_problem(
            suffix, root, trivial_reachability_risk(suffix.out_dim)
        )
        rows_before = len(problem.model.constraints)
        bounds_before = (list(problem.model.lower), list(problem.model.upper))
        leaf = _ScopedLeafSolver(problem, _risk(reachable[1] + 50.0), "highs")
        child = Box(np.full(suffix.in_dim, -1.0), np.full(suffix.in_dim, 1.0))
        result = leaf.solve(child)
        assert result.status is SolveStatus.UNSAT
        assert len(problem.model.constraints) == rows_before
        assert (list(problem.model.lower), list(problem.model.upper)) == bounds_before

    def test_disjoint_child_box_is_unsat_without_solving(self, model, reachable):
        suffix = model.suffix_network(2)
        root = Box(np.zeros(suffix.in_dim), np.ones(suffix.in_dim))
        leaf = _ScopedLeafSolver.fresh(suffix, root, _risk(0.0), "highs")
        far = Box(np.full(suffix.in_dim, 10.0), np.full(suffix.in_dim, 11.0))
        assert leaf.solve(far).status is SolveStatus.UNSAT

    def test_relaxed_backend_rejected(self, model):
        suffix = model.suffix_network(2)
        root = Box(np.zeros(suffix.in_dim), np.ones(suffix.in_dim))
        with pytest.raises(ValueError, match="MILP-encoding"):
            _ScopedLeafSolver.fresh(suffix, root, _risk(0.0), "phase-split")


class TestValidation:
    def test_risk_dimension_mismatch(self, model):
        bad = RiskCondition("bad", (output_geq(5, 0, 0.0),))
        with pytest.raises(ValueError, match="outputs"):
            CegarLoop(model, bad, 0.0, 1.0)

    def test_inverted_root_rejected(self, model):
        with pytest.raises(ValueError, match="lower > upper"):
            CegarLoop(model, _risk(0.0), 1.0, 0.0)

    def test_point_region_is_decided_exactly(self, model, reachable):
        # a degenerate (zero-volume) region cannot be split: it must be
        # decided by exact evaluation of its single point
        point = np.full(4, 0.5)
        result = refine_region(
            model, _risk(reachable[1] + 50.0), point, point, budget=16,
            config=CegarConfig(solver=None),
        )
        assert result.status is not SolveStatus.UNKNOWN

    def test_loop_state_is_picklable(self, model, reachable):
        # campaign workers ship engines around; a parked loop must not
        # break that (the engine excludes loops from its state, but the
        # loop itself should still round-trip for checkpointing)
        loop = CegarLoop(
            model, _risk(reachable[1] + 0.3), 0.0, 1.0, cut_layer=2,
            config=CegarConfig(solver=None),
        )
        loop.run(budget=2)
        clone = pickle.loads(pickle.dumps(loop))
        assert clone.frontier_size == loop.frontier_size
        assert clone.decided_volume == loop.decided_volume


class TestPoolLifecycle:
    """Round-pool failure handling and chunk sizing (regression tests).

    Two bugs flushed out by the shared-memory handoff work: a pool that
    died mid-round used to stay referenced (every later round re-raised
    ``BrokenProcessPool`` against the dead executor), and the chunk size
    was derived from a worker count the degrade path resets to 1,
    silently collapsing later rounds into one giant chunk.
    """

    @staticmethod
    def _loop_with_fake_solver(model, solved):
        class FakeLeafSolver:
            def solve(self, box):
                solved.append(box)
                from repro.verification.solver.result import SolveResult

                return SolveResult(status=SolveStatus.UNSAT)

        return CegarLoop(
            model, _risk(100.0), 0.0, 1.0, cut_layer=2,
            config=CegarConfig(solve_depth=1),
            leaf_solver=FakeLeafSolver(),
        )

    @staticmethod
    def _leaves(n):
        return [
            (
                Subproblem(
                    np.zeros(4), np.ones(4), depth=1, volume=0.5, path=f"/{i}"
                ),
                Box(np.full(4, float(i)), np.full(4, float(i) + 1.0)),
            )
            for i in range(n)
        ]

    def test_broken_pool_is_dropped_and_round_degrades(self, model):
        import os

        from repro.verification.pool import WorkerPool
        from repro.verification.solver.result import SolveResult

        parent = os.getpid()
        solved: list = []
        loop = self._loop_with_fake_solver(model, solved)

        class DyingSolver:
            """Kills any worker it runs in; solves in the parent."""

            def solve(self, box):
                if os.getpid() != parent:
                    os._exit(1)
                solved.append("pool-fallback")
                return SolveResult(status=SolveStatus.UNSAT)

        with WorkerPool(2, DyingSolver()) as pool:
            loop._pool = pool
            results = loop._solve_leaves(self._leaves(3))
            assert len(results) == 3  # degraded in-process, same round
            assert solved == ["pool-fallback"] * 3
            assert type(pool.failure).__name__ == "BrokenProcessPool"
            assert pool._executor is None  # shut down for good

            # later rounds never submit to the dead pool again: they
            # solve in-process on the loop's own leaf solver
            solved.clear()
            assert len(loop._solve_leaves(self._leaves(2))) == 2
            assert len(solved) == 2
            assert all(isinstance(box, Box) for box in solved)

    def test_chunk_size_uses_pool_size_captured_at_creation(
        self, model, monkeypatch
    ):
        from repro.verification.pool import WorkerPool
        from repro.verification.solver.result import SolveResult

        captured = {}

        def recording_map(self, fn, tasks, chunksize=1, inflight=None):
            tasks = list(tasks)
            captured["chunksize"] = chunksize
            captured["n_tasks"] = len(tasks)
            return iter([SolveResult(status=SolveStatus.UNSAT) for _ in tasks])

        monkeypatch.setattr(WorkerPool, "map", recording_map)
        loop = self._loop_with_fake_solver(model, [])
        with WorkerPool(4) as pool:  # no worker starts before a submit
            loop._pool = pool
            results = loop._solve_leaves(self._leaves(40))
        assert len(results) == 40
        assert captured["n_tasks"] == 40
        # 40 leaves / (4 * the pool's 4 workers), fixed at creation
        assert captured["chunksize"] == 2

    def test_close_is_idempotent(self):
        from repro.verification.pool import WorkerPool

        pool = WorkerPool(2)
        pool.close()
        assert pool._executor is None
        pool.close()  # a no-op afterwards
        assert pool.failure is None
