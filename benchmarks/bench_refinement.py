"""Refinement benches: the CEGAR engine loop and the chained levels.

Two experiments live here.

**CEGAR on an abstraction-hard region** (``TestCegarEngineLoop``): one
E6-style abstraction workload — an input-domain region whose boxed
abstraction is too coarse at the root, so the verdict *only* falls out
of refinement — runs through the CEGAR loop: the whole pending frontier
prescreened per round through the batched abstraction backend
(:func:`~repro.verification.prescreen.prescreen_batch`), one shared
leaf encoding with transactional bound tightening, batched
projected-gradient concretization, and ``workers=4`` frontier-parallel
leaf solving (capped at the machine's core count).  The loop must prove
the region safe over its whole volume, with both the prescreen and the
solver rung deciding subregions and a monotone anytime trace.

**Layer-wise chained envelopes** (the original ablation): cost profile
of :func:`~repro.verification.refinement.verify_with_refinement` —
baseline level, deepest chained level, and the full loop with
spuriousness checks.
"""

import time

import numpy as np
import pytest

from repro.perception.features import extract_features
from repro.perception.network import build_mlp_perception_network
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.assume_guarantee import feature_set_from_data
from repro.verification.cegar import CegarConfig, CegarLoop
from repro.verification.refinement import (
    encode_chained_problem,
    verify_with_refinement,
)
from repro.verification.solver import BranchAndBoundSolver, HighsSolver
from repro.verification.solver.result import SolveStatus


# -- CEGAR: batched frontier + workers on the E6 workload --------------------


@pytest.fixture(scope="module")
def e6_workload():
    """E6 abstraction workload: boxed abstraction too coarse at the root.

    The risk threshold (7.8) sits far above everything the network can
    actually produce on ``[0, 1]^6`` but far below the root's interval
    bound (~15.8), so neither the prescreen nor a single solve decides
    the root: the verdict only falls out of refinement.  At the chosen
    cut the suffix carries one hidden ReLU layer, so prescreen and the
    exact solver rung both genuinely decide subregions (255 vs 5 on
    this seed).
    """
    model = build_mlp_perception_network(
        input_dim=6, hidden=(24, 24), feature_width=8, seed=8
    )
    risk = RiskCondition("e6-far", (output_geq(2, 0, 7.8),))
    return model, risk, 4  # cut layer


def _cegar_loop(workload) -> CegarLoop:
    model, risk, cut = workload
    return CegarLoop(
        model, risk, 0.0, 1.0, cut_layer=cut, config=CegarConfig(solve_depth=9)
    )


class TestCegarEngineLoop:
    """Acceptance: the CEGAR loop proves the E6 region, anytime-monotone."""

    def test_engine_loop_proves_e6_region(self, e6_workload):
        start = time.perf_counter()
        result = _cegar_loop(e6_workload).run(budget=30_000, workers=4)
        elapsed = time.perf_counter() - start

        assert result.status is SolveStatus.UNSAT
        assert result.decided_fraction == pytest.approx(1.0)

        # both ladder rungs genuinely decided subregions
        trace = result.trace
        assert sum(r.prescreen_safe for r in trace.rounds) > 0
        assert sum(r.solver_safe for r in trace.rounds) > 0

        # the anytime guarantee: decided volume never regresses
        fractions = trace.decided_fractions()
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
        print(
            f"\nCEGAR E6 workload: {elapsed * 1e3:.0f}ms, "
            f"{result.subproblems_processed} subproblems in "
            f"{len(trace.rounds)} rounds"
        )

    @pytest.mark.benchmark(group="cegar")
    def test_engine_loop_throughput(self, benchmark, e6_workload):
        result = benchmark.pedantic(
            lambda loop: loop.run(budget=30_000, workers=4),
            setup=lambda: ((_cegar_loop(e6_workload),), {}),
            rounds=3,
        )
        assert result.status is SolveStatus.UNSAT


# -- layer-wise chained envelopes (the original ablation) --------------------


@pytest.fixture(scope="module")
def refinement_system():
    rng = np.random.default_rng(77)
    model = build_mlp_perception_network(
        input_dim=6, hidden=(12, 12), feature_width=6, seed=8
    )
    images = rng.uniform(0, 1, size=(250, 6))
    cuts = [l for l in model.piecewise_linear_cut_points() if 0 < l < model.num_layers]
    envelopes = {
        layer: feature_set_from_data(
            extract_features(model, images, layer), kind="box+diff"
        )
        for layer in cuts
    }

    def chained_max(active):
        risk = RiskCondition("any", (output_geq(2, 0, -1e9),))
        problem = encode_chained_problem(model, active, envelopes, risk)
        problem.model.set_objective({problem.output_vars[0]: -1.0})
        return -BranchAndBoundSolver().minimize(problem.model).objective

    baseline = chained_max(cuts[-1:])
    deepest = chained_max(cuts)
    return model, images, cuts, envelopes, baseline, deepest


@pytest.mark.benchmark(group="refinement")
def test_refinement_baseline_level(benchmark, refinement_system):
    model, _, cuts, envelopes, baseline, deepest = refinement_system
    risk = RiskCondition("between", (output_geq(2, 0, baseline + 1.0),))
    problem = encode_chained_problem(model, cuts[-1:], envelopes, risk)
    result = benchmark(lambda: HighsSolver().solve(problem.model))
    assert result.is_unsat


@pytest.mark.benchmark(group="refinement")
def test_refinement_deepest_level(benchmark, refinement_system):
    model, _, cuts, envelopes, baseline, deepest = refinement_system
    risk = RiskCondition("between", (output_geq(2, 0, deepest + 0.1),))
    problem = encode_chained_problem(model, cuts, envelopes, risk)
    result = benchmark(lambda: HighsSolver().solve(problem.model))
    assert result.is_unsat


@pytest.mark.benchmark(group="refinement")
def test_refinement_full_loop(benchmark, refinement_system):
    model, images, cuts, envelopes, baseline, deepest = refinement_system
    if not deepest < baseline - 0.05:
        pytest.skip("no refinement gap on this seed")
    threshold = 0.5 * (deepest + baseline)
    risk = RiskCondition("between", (output_geq(2, 0, threshold),))

    result = benchmark.pedantic(
        lambda: verify_with_refinement(model, images, risk, cut_layers=cuts),
        rounds=2,
        iterations=1,
    )
    assert result.proved
    assert result.refinements_used >= 1
