"""The structural (neuron-merging) refinement axis of the CEGAR loop.

Regression coverage for the second refinement move: verdict agreement
with pure region splitting, deterministic two-axis interleaving under a
fixed seed, checkpoint/resume with merged programs in flight, and the
pool degrade path when a worker dies mid-structural-round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perception.network import build_mlp_perception_network
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.cegar import CegarConfig, CegarLoop, Subproblem
from repro.verification.sets import Box
from repro.verification.solver.result import SolveStatus


@pytest.fixture(scope="module")
def model():
    return build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=1
    )


@pytest.fixture(scope="module")
def reachable(model):
    rng = np.random.default_rng(0)
    out = model.forward(rng.uniform(0, 1, size=(4000, 4)), training=False)
    return float(out[:, 0].min()), float(out[:, 0].max())


def _risk(threshold: float) -> RiskCondition:
    return RiskCondition("y0-high", (output_geq(2, 0, threshold),))


def _loop(model, threshold: float, *, structural: bool, **kwargs) -> CegarLoop:
    return CegarLoop(
        model, _risk(threshold), 0.0, 1.0, cut_layer=2,
        config=CegarConfig(solve_depth=3, structural=structural, **kwargs),
    )


def _trace_key(result) -> list[dict]:
    """Round records minus wall-clock noise."""
    rounds = [r.to_dict() for r in result.trace.rounds]
    for record in rounds:
        record.pop("elapsed")
    return rounds


class TestVerdictAgreement:
    def test_unsat_matches_region_only_and_uses_structural_moves(
        self, model, reachable
    ):
        threshold = reachable[1] + 0.3
        region = _loop(model, threshold, structural=False).run(budget=2000)
        structural_loop = _loop(model, threshold, structural=True)
        structural = structural_loop.run(budget=2000)

        assert region.status is SolveStatus.UNSAT
        assert structural.status is SolveStatus.UNSAT
        assert structural.decided_fraction == pytest.approx(1.0)
        # the borderline threshold forces the abstraction to refine: the
        # interleave really exercised both axes
        assert structural_loop.structural_refinements >= 1
        assert sum(r.structural_splits for r in structural.trace.rounds) == (
            structural_loop.structural_refinements
        )

    def test_sat_witness_is_genuine_under_structural(self, model, reachable):
        lo, hi = reachable
        threshold = 0.5 * (lo + hi)
        loop = _loop(model, threshold, structural=True)
        result = loop.run(budget=200)

        assert result.status is SolveStatus.SAT
        cex = result.counterexample
        assert cex is not None and cex.risk_occurs
        assert np.all(cex.image >= 0.0) and np.all(cex.image <= 1.0)
        replay = model.forward(cex.image[None, ...], training=False)[0]
        assert float(_risk(threshold).margin(replay[None, :])[0]) >= 0.0

    def test_clearly_safe_region_needs_no_structural_move(self, model, reachable):
        loop = _loop(model, reachable[1] + 50.0, structural=True)
        result = loop.run(budget=8)
        assert result.status is SolveStatus.UNSAT
        assert loop.structural_refinements == 0

    def test_unsupported_suffix_degrades_to_region_splitting(
        self, model, reachable, monkeypatch
    ):
        # a suffix that is not a bare affine/relu chain raises
        # MergeUnsupported at merge time: the structural axis must
        # disable itself permanently instead of failing the run
        from repro.verification.abstraction.merge import MergeUnsupported

        def refuse(cls, *args, **kwargs):
            raise MergeUnsupported("not an affine/relu chain")

        monkeypatch.setattr(
            "repro.verification.cegar.MergeState.coarsest", classmethod(refuse)
        )
        loop = _loop(model, reachable[1] + 0.3, structural=True)
        result = loop.run(budget=2000)
        assert result.status is SolveStatus.UNSAT
        assert loop.structural_refinements == 0
        assert loop._merge_failed and loop._merge is None


class TestDeterminism:
    def test_two_axis_interleave_is_reproducible(self, model, reachable):
        threshold = reachable[1] + 0.3
        first = _loop(model, threshold, structural=True).run(budget=2000)
        second = _loop(model, threshold, structural=True).run(budget=2000)

        assert first.status is second.status
        assert _trace_key(first) == _trace_key(second)


class TestInterruptResume:
    def test_interrupt_after_structural_move_leaves_resumable_frontier(
        self, model, reachable, monkeypatch
    ):
        loop = _loop(model, reachable[1] + 0.3, structural=True)
        original = loop._maybe_structural_refine

        def interrupt_after_refine(undecided):
            applied = original(undecided)
            if applied:
                loop.request_interrupt()
            return applied

        monkeypatch.setattr(loop, "_maybe_structural_refine", interrupt_after_refine)
        first = loop.run(budget=2000)

        assert loop.interrupted
        assert first.status is SolveStatus.UNKNOWN
        assert loop.frontier_size > 0
        version_at_checkpoint = loop.structural_refinements
        assert version_at_checkpoint >= 1

        # resume: the merge state survives the checkpoint — refinement
        # continues from where it stopped instead of re-merging
        monkeypatch.setattr(loop, "_maybe_structural_refine", original)
        second = loop.run(budget=2000)
        assert second.status is SolveStatus.UNSAT
        assert second.decided_fraction == pytest.approx(1.0)
        assert loop.structural_refinements >= version_at_checkpoint


class TestPoolDegrade:
    @staticmethod
    def _count_pool_starts(monkeypatch) -> list[int]:
        """Merge version at every leaf-pool start (cores forced to 4)."""
        import repro.verification.cegar as cegar_module

        monkeypatch.setattr(cegar_module.os, "cpu_count", lambda: 4)
        starts: list[int] = []
        start_pool = CegarLoop._start_pool

        def counting(self, workers):
            starts.append(self._merge_version)
            return start_pool(self, workers)

        monkeypatch.setattr(CegarLoop, "_start_pool", counting)
        return starts

    def test_broken_pool_mid_structural_round_degrades_sequential(
        self, model, monkeypatch
    ):
        import os

        import repro.verification.cegar as cegar_module
        from repro.verification.cegar import _ScopedLeafSolver

        monkeypatch.setattr(cegar_module.os, "cpu_count", lambda: 4)
        parent = os.getpid()
        solve = _ScopedLeafSolver.solve

        def dying_solve(self, box):
            if os.getpid() != parent:
                os._exit(1)  # forked workers inherit the patch
            return solve(self, box)

        monkeypatch.setattr(_ScopedLeafSolver, "solve", dying_solve)
        loop = _loop(model, 100.0, structural=True, solver="highs")
        state = loop._merge_state()
        assert state is not None and not state.is_refined

        cut = loop._root_box_at_cut()
        leaves = [
            (
                Subproblem(
                    np.zeros(4), np.ones(4), depth=1, volume=0.5, path=f"/{i}"
                ),
                Box(cut.lower.copy(), cut.upper.copy()),
            )
            for i in range(3)
        ]
        with loop._start_pool(2) as pool:  # workers encode the merged suffix
            loop._pool = pool
            results = loop._solve_leaves(leaves)
        assert len(results) == 3  # merged leaves re-solved in-process
        assert all(r.status is SolveStatus.UNSAT for r in results)
        assert type(pool.failure).__name__ == "BrokenProcessPool"

    def test_failed_pool_is_not_rebuilt_after_structural_move(
        self, model, reachable, monkeypatch
    ):
        from repro.verification import pool as pool_module

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        starts = self._count_pool_starts(monkeypatch)
        loop = _loop(model, reachable[1] + 0.3, structural=True, solver="highs")
        result = loop.run(budget=2000, workers=2)
        assert result.status is SolveStatus.UNSAT
        assert loop.structural_refinements >= 1
        # refinement must not resurrect the failed pool
        assert starts == [0]
        assert result.workers_used == 1

    def test_stale_pool_is_rebuilt_after_structural_move(
        self, model, reachable, monkeypatch
    ):
        starts = self._count_pool_starts(monkeypatch)
        loop = _loop(model, reachable[1] + 0.3, structural=True, solver="highs")
        result = loop.run(budget=2000, workers=2)
        assert result.status is SolveStatus.UNSAT
        assert loop.structural_refinements >= 1
        # one pool per merge state the workers had to encode
        assert starts == list(range(loop.structural_refinements + 1))
        assert result.workers_used == 2
