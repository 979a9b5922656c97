"""Soundness of the linear support (CROWN-style back-substitution).

:func:`~repro.verification.output_range.linear_support` must bound
``min direction·network(x)`` from below on random relu-like suffixes and
boxes: bound <= the exact (HiGHS) minimum <= the replayed vertex value,
meeting :func:`box_support` wherever every neuron is stable.
:func:`~repro.verification.output_range.linear_op_bounds` must stay inside
the interval bounds and still contain every reachable activation.  The
engine's support stage may answer SAT only with a point of the set whose
replay through the real network meets the risk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.nn.graph import (
    AffineOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    PiecewiseLinearNetwork,
    ReLUOp,
    ReshapeOp,
)
from repro.perception.network import build_mlp_perception_network
from repro.properties.risk import RiskCondition, output_geq, output_leq
from repro.verification.abstraction.interval import op_output_bounds
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.output_range import (
    box_support,
    linear_op_bounds,
    linear_support,
    trivial_reachability_risk,
)
from repro.verification.sets import Box
from repro.verification.solver import make_solver
from repro.verification.solver.result import SolveStatus


def _random_box(rng, dim):
    center = rng.normal(size=dim)
    radius = rng.uniform(0.0, 1.5, size=dim)
    return Box(center - radius, center + radius)


def _relu_suffix(rng, in_dim) -> PiecewiseLinearNetwork:
    """Random chain of affine, elementwise-affine, reshape and relu-like
    ops, ending in an affine head."""
    ops, width = [], in_dim
    for _ in range(rng.integers(1, 4)):
        out = int(rng.integers(1, 7))
        ops.append(AffineOp(rng.normal(size=(out, width)), rng.normal(size=out)))
        width = out
        if rng.random() < 0.3:
            ops.append(
                ElementwiseAffineOp(rng.normal(size=width), rng.normal(size=width))
            )
        if rng.random() < 0.2:
            ops.append(ReshapeOp((width,), (width, 1)))
        if rng.random() < 0.5:
            ops.append(ReLUOp(width))
        else:
            ops.append(LeakyReLUOp(width, float(rng.uniform(0.0, 0.5))))
    out = int(rng.integers(1, 4))
    ops.append(AffineOp(rng.normal(size=(out, width)), rng.normal(size=out)))
    return PiecewiseLinearNetwork(ops, in_dim)


def _directions(rng, out) -> np.ndarray:
    """One row or a matrix of rows."""
    if rng.random() < 0.5:
        return rng.normal(size=out)
    return rng.normal(size=(int(rng.integers(2, 4)), out))


def _highs_minimum(network, box, direction) -> float:
    problem = encode_verification_problem(
        network, box, trivial_reachability_risk(network.out_dim)
    )
    problem.model.set_objective(
        {var: float(a) for var, a in zip(problem.output_vars, direction)}
    )
    result = make_solver("highs").minimize(problem.model)
    assert result.status is SolveStatus.SAT
    return float(result.objective)


def _scale(network, box) -> float:
    """Tolerance scale: the interval magnitude of the outputs."""
    out = op_output_bounds(network, box)[-1][1]
    return 1.0 + float(np.max(np.abs(np.concatenate([out.lower, out.upper]))))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_bound_brackets_the_exact_minimum(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    network = _relu_suffix(rng, dim)
    box = _random_box(rng, dim)
    bounds = linear_op_bounds(network, op_output_bounds(network, box))
    directions = _directions(rng, network.out_dim)
    bound, vertex = linear_support(network, box, directions, bounds)
    rows = np.atleast_2d(directions)
    bound, vertex = np.atleast_1d(bound), np.atleast_2d(vertex)
    assert bound.shape == (len(rows),) and vertex.shape == (len(rows), dim)
    tol = 1e-7 * _scale(network, box) * (1.0 + np.abs(rows).sum(axis=1))
    for row, low, point, slack in zip(rows, bound, vertex, tol):
        assert np.all(point >= box.lower) and np.all(point <= box.upper)
        exact = _highs_minimum(network, box, row)
        replayed = float(row @ network.apply(point[None, :])[0])
        assert low <= exact + slack
        assert exact <= replayed + slack


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stable_neurons_give_the_closed_form(seed):
    """Where every neuron keeps its phase the bound is ``box_support``'s
    value and meets its replay; tiny boxes make most draws stable."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    network = _relu_suffix(rng, dim)
    center = rng.normal(size=dim)
    radius = rng.uniform(0.0, 1e-3, size=dim)
    box = Box(center - radius, center + radius)
    bounds = linear_op_bounds(network, op_output_bounds(network, box))
    direction = rng.normal(size=network.out_dim)
    closed = box_support(network, box, direction, bounds)
    bound, vertex = linear_support(network, box, direction, bounds)
    if closed is None:
        return  # an unstable neuron even on a tiny box
    assert bound == closed[0]
    np.testing.assert_array_equal(vertex, closed[1])
    replayed = float(direction @ network.apply(vertex[None, :])[0])
    assert replayed == pytest.approx(bound, rel=1e-9, abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_back_substituted_bounds_tighten_soundly(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    network = _relu_suffix(rng, dim)
    box = _random_box(rng, dim)
    tight = linear_op_bounds(network, op_output_bounds(network, box))
    loose = op_output_bounds(network, box)
    values = np.vstack([box.sample(rng, 200), box.lower, box.upper])
    for op, (tight_in, tight_out), (loose_in, loose_out) in zip(
        network.ops, tight, loose
    ):
        for inner, outer in ((tight_in, loose_in), (tight_out, loose_out)):
            assert np.all(inner.lower >= outer.lower)
            assert np.all(inner.upper <= outer.upper)
            assert np.all(inner.lower <= inner.upper)
        slack = 1e-9 * (1.0 + np.abs(values).max())
        assert np.all(values >= tight_in.lower - slack)
        assert np.all(values <= tight_in.upper + slack)
        values = op.apply(values)


def test_unsupported_op_has_no_linear_support():
    from repro.nn.graph import MaxGroupOp

    network = PiecewiseLinearNetwork([MaxGroupOp(2, [[0, 1]])], 2)
    box = Box(np.zeros(2), np.ones(2))
    assert linear_support(network, box, np.ones(1)) is None


# -- the engine's support stage ---------------------------------------------


def _risks(rng, outputs) -> list[RiskCondition]:
    """Single-row thresholds across the sampled range, and bands."""
    lo, hi = float(outputs[:, 0].min()), float(outputs[:, 0].max())
    span = hi - lo + 1e-3
    risks = []
    for t in rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=6):
        risks.append(RiskCondition("ge", (output_geq(2, 0, float(t)),)))
        risks.append(RiskCondition("le", (output_leq(2, 0, float(t)),)))
    for t in rng.uniform(lo, hi, size=3):
        band = (output_geq(2, 0, float(t)), output_leq(2, 0, float(t) + 0.2 * span))
        risks.append(RiskCondition("band", band))
    return risks


@given(st.integers(0, 10_000), st.sampled_from([0, 2]))
@settings(max_examples=15, deadline=None)
def test_support_stage_sat_is_a_point_of_the_set(seed, cut):
    """Over box+diff sets, a SAT from the linear support is never a hull
    vertex outside the set, and every one replays into the risk."""
    rng = np.random.default_rng(seed)
    model = build_mlp_perception_network(
        input_dim=4, hidden=(6,), feature_width=4, seed=seed
    )
    images = rng.uniform(0, 1, size=(60, 4))
    engine = VerificationEngine(model, cut, solver="highs")
    engine.add_feature_set_from_data(images, kind="box+diff", name="set")
    feature_set = engine.feature_set("set")
    risks = _risks(rng, model.forward(images))
    one_off = [
        engine.run_query(VerificationQuery(risk=r, set_name="set", domain=None))
        for r in risks
    ]
    campaign = engine.run(
        Campaign("sweep").add_grid(risks=risks, sets=["set"], domain=None)
    )
    for result in one_off + campaign.results:
        assert result.ok, result.error
        stats = result.verdict.solve_result.stats
        if result.decided_by != "support-cache" or "replayed" not in stats:
            continue  # not answered by the linear support
        cex = result.verdict.counterexample
        if cex is None:
            continue  # an UNSAT
        assert feature_set.contains_point(cex.features, tol=0.0)
        output = model.suffix_apply(cex.features[None, :], cut)
        np.testing.assert_array_equal(output[0], cex.predicted_output)
        assert result.query.risk.margin(output)[0] >= 0.0
