"""Closed-form support of a suffix that is affine on a box.

:func:`~repro.verification.output_range.box_support` must agree with an
exact MILP minimization (HiGHS) on random affine suffixes and on affine
suffixes with stable relu-like neurons, and its minimizing vertex must
replay through the network to the value it reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.graph import (
    AffineOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    MaxGroupOp,
    PiecewiseLinearNetwork,
    ReLUOp,
    ReshapeOp,
)
from repro.verification.abstraction.interval import op_output_bounds
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.output_range import box_support, trivial_reachability_risk
from repro.verification.sets import Box
from repro.verification.solver import make_solver
from repro.verification.solver.result import SolveStatus


def _random_box(rng, dim):
    center = rng.normal(size=dim)
    radius = rng.uniform(0.0, 1.5, size=dim)
    return Box(center - radius, center + radius)


def _affine_suffix(rng, in_dim):
    """Random chain of affine, elementwise-affine and reshape ops."""
    ops, width = [], in_dim
    for _ in range(rng.integers(1, 4)):
        out = int(rng.integers(1, 7))
        ops.append(AffineOp(rng.normal(size=(out, width)), rng.normal(size=out)))
        width = out
        if rng.random() < 0.4:
            ops.append(
                ElementwiseAffineOp(rng.normal(size=width), rng.normal(size=width))
            )
        if rng.random() < 0.3:
            ops.append(ReshapeOp((width,), (width, 1)))
    return ops, width


def _stable_relu_suffix(rng, box):
    """Affine -> relu-like -> affine, every neuron stable over ``box``.

    An affine map's interval over a box is exact, so shifting each
    pre-activation interval by a bias past 0 (randomly up or down) makes
    its neuron active or inactive on the whole box.
    """
    dim = box.lower.shape[0]
    hidden = int(rng.integers(1, 8))
    weight = rng.normal(size=(hidden, dim))
    center, radius = (box.lower + box.upper) / 2, (box.upper - box.lower) / 2
    lo = weight @ center - np.abs(weight) @ radius
    hi = weight @ center + np.abs(weight) @ radius
    gap = rng.uniform(0.05, 1.0, size=hidden)
    bias = np.where(rng.random(hidden) < 0.5, gap - lo, -hi - gap)
    relu = ReLUOp(hidden) if rng.random() < 0.5 else LeakyReLUOp(hidden, 0.1)
    out = int(rng.integers(1, 4))
    head = AffineOp(rng.normal(size=(out, hidden)), rng.normal(size=out))
    return [AffineOp(weight, bias), relu, head], out


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


def _check_against_highs(network, box, direction, bounds=None) -> None:
    value, vertex = box_support(network, box, direction, bounds)
    expected = _highs_minimum(network, box, direction)
    assert value == pytest.approx(expected, rel=1e-7, abs=1e-7)
    assert np.all(vertex >= box.lower) and np.all(vertex <= box.upper)
    replayed = float(direction @ network.apply(vertex[None, :])[0])
    assert replayed == pytest.approx(value, rel=1e-7, abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_affine_suffix_matches_highs(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    ops, out = _affine_suffix(rng, dim)
    network = PiecewiseLinearNetwork(ops, dim)
    _check_against_highs(network, _random_box(rng, dim), rng.normal(size=out))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stable_relu_suffix_matches_highs(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 7))
    box = _random_box(rng, dim)
    ops, out = _stable_relu_suffix(rng, box)
    network = PiecewiseLinearNetwork(ops, dim)
    bounds = op_output_bounds(network, box)
    _check_against_highs(network, box, rng.normal(size=out), bounds)


def test_unstable_relu_has_no_closed_form():
    network = PiecewiseLinearNetwork(
        [AffineOp(np.eye(2), np.zeros(2)), ReLUOp(2), AffineOp(np.ones((1, 2)), [0.0])],
        2,
    )
    box = Box(-np.ones(2), np.ones(2))
    bounds = op_output_bounds(network, box)
    assert box_support(network, box, np.ones(1), bounds) is None


def test_relu_without_bounds_is_rejected():
    network = PiecewiseLinearNetwork([ReLUOp(2)], 2)
    with pytest.raises(ValueError, match="op_bounds"):
        box_support(network, Box(np.zeros(2), np.ones(2)), np.ones(2))


def test_unsupported_op_has_no_closed_form():
    network = PiecewiseLinearNetwork([MaxGroupOp(2, [[0, 1]])], 2)
    box = Box(np.zeros(2), np.ones(2))
    assert box_support(network, box, np.ones(1)) is None
