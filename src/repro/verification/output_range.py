"""Output range analysis over a feature set.

Computes ``min`` / ``max`` of one output coordinate of the verified
sub-network over ``S~`` (optionally intersected with a characterizer's
acceptance region) by two MILP optimizations.  This is the
output-range-analysis view of verification (refs [4], [9] of the paper):
a risk ``y_i >= t`` is provable iff ``t`` exceeds the computed maximum.

Experiments E3/E6 use these ranges to report *how much* each ingredient
(characterizer conjunct, adjacent-difference record, pairwise octagon)
tightens the provable frontier.

Without a solver, :func:`linear_support` brackets ``min a·y`` over a
box: back-substitution through the suffix (relu-like ops relaxed by
two lines each, CROWN-style) gives a sound lower bound and the box
vertex attaining it, whose replay gives an upper one; the two meet
where every neuron is stable (:func:`box_support`).
:func:`linear_op_bounds` tightens per-op interval bounds the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    PiecewiseLinearNetwork,
    ReLUOp,
    ReshapeOp,
)
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.abstraction.interval import transform
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.sets import Box, FeatureSet
from repro.verification.solver import make_solver
from repro.verification.solver.result import SolveStatus


@dataclass(frozen=True)
class OutputRange:
    """Exact reachable interval of one output coordinate."""

    output_index: int
    lower: float
    upper: float
    exact: bool  #: False if a solver limit interrupted either optimization

    @property
    def width(self) -> float:
        return self.upper - self.lower


def trivial_reachability_risk(dim: int) -> RiskCondition:
    """A risk placeholder no output can violate (pure reachability)."""
    return RiskCondition("reachability", (output_geq(dim, 0, -1e9),))


def optimize_range(problem, backend, output_index: int = 0) -> OutputRange:
    """Min/max of one output coordinate over an already-encoded problem.

    Shared by :func:`output_range` (fresh encoding per call) and the
    ``repro.api`` engine (cached encodings).  Mutates the problem's
    objective; callers reusing the model must restore it afterwards.
    Raises :class:`ValueError` on an empty region and
    :class:`RuntimeError` when the solver gives up without an incumbent.
    """
    target = problem.output_vars[output_index]
    exact = True
    bounds = []
    for sign in (1.0, -1.0):  # minimize, then maximize (via negation)
        problem.model.set_objective({target: sign})
        result = backend.minimize(problem.model)
        if result.status is SolveStatus.UNSAT:
            raise ValueError(
                "constrained feature region is empty; the characterizer never "
                "accepts inside the feature set"
            )
        if result.status is SolveStatus.UNKNOWN:
            raise RuntimeError("solver hit its resource limit before any incumbent")
        if not result.stats.get("proved_optimal", True):
            exact = False
        bounds.append(sign * result.objective)

    lower, upper = bounds
    return OutputRange(output_index=output_index, lower=lower, upper=upper, exact=exact)


#: relu-like ops: affine on a box where their input interval keeps one
#: sign, relaxed between two lines where it does not
RELU_LIKE_OPS = (ReLUOp, LeakyReLUOp)

#: the ops :func:`linear_support` pulls a direction back through
LINEAR_SUPPORT_OPS = (AffineOp, ElementwiseAffineOp, ReshapeOp, *RELU_LIKE_OPS)


def _relu_relaxation(op, pre: Box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lower slope, upper slope, upper intercept)`` per neuron of a
    relu-like op whose input lies in ``pre``.

    ``lower·z <= act(z) <= upper·z + intercept`` on ``pre``.  A stable
    neuron has one line (slope 1 or ``alpha``, no intercept); an
    unstable one takes the chord as its upper line (the formula of
    :func:`repro.verification.abstraction.symbolic._relu_core`) and the
    adaptive lower slope: 1 where ``u > -l``, else ``alpha``.
    """
    alpha = op.alpha if isinstance(op, LeakyReLUOp) else 0.0
    active = pre.lower >= 0.0
    lower = np.where(active, 1.0, alpha)
    upper = lower.copy()
    intercept = np.zeros_like(lower)
    unstable = ~active & (pre.upper > 0.0)
    if np.any(unstable):
        lo, hi = pre.lower[unstable], pre.upper[unstable]
        chord = (hi - alpha * lo) / (hi - lo)
        upper[unstable] = chord
        intercept[unstable] = (alpha - chord) * lo
        lower[unstable] = np.where(hi > -lo, 1.0, alpha)
    return lower, upper, intercept


def _pull_back(
    ops, relaxations, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float]:
    """``(C, d)`` with ``rows·ops(x) >= C x + d`` row by row.

    The rows are pulled back one vector-Jacobian product at a time, so
    no op's Jacobian is ever formed; at a relu-like op each coefficient
    takes the line that bounds its term from below (the lower line where
    it is non-negative, the upper one elsewhere).
    """
    c, offset = rows, 0.0
    for op, relaxation in zip(reversed(ops), reversed(relaxations)):
        if isinstance(op, AffineOp):
            offset = offset + c @ op.bias
            c = c @ op.weight
        elif isinstance(op, ElementwiseAffineOp):
            offset = offset + c @ op.shift
            c = c * op.scale
        elif relaxation is not None:
            lower, upper, intercept = relaxation
            below = c < 0.0
            offset = offset + np.where(below, c, 0.0) @ intercept
            c = c * np.where(below, upper, lower)
    return c, offset


def _minimize_on_box(
    c: np.ndarray, offset: np.ndarray | float, box: Box
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise minimum of ``c x + offset`` over ``box``, and its vertex."""
    vertex = np.where(c >= 0.0, box.lower, box.upper)
    return (c * vertex).sum(axis=1) + offset, vertex


def linear_support(
    network: PiecewiseLinearNetwork,
    box: Box,
    direction: np.ndarray,
    op_bounds: list[tuple[Box, Box]] | None = None,
) -> tuple[float, np.ndarray] | tuple[np.ndarray, np.ndarray] | None:
    """Sound lower bound on ``min direction·network(x)`` over ``box``.

    Every op must be in :data:`LINEAR_SUPPORT_OPS`.  Relu-like ops read
    their input interval from ``op_bounds[i][0]`` (per-op bounds over
    this box, such as :func:`linear_op_bounds` gives; needed only when
    such an op is present) and are replaced by the lines of
    :func:`_relu_relaxation`, so the network is bounded below by a
    linear function ``c x + d`` on the box, CROWN-style (Zhang et al.,
    https://arxiv.org/abs/1811.00866).  Its minimum is at the vertex
    taking ``lower_j`` where ``c_j >= 0`` and ``upper_j`` elsewhere.
    With every neuron stable the network *is* ``W x + b`` on the box
    and the bound is the exact minimum; otherwise replaying the vertex
    through the network gives the other end of a bracket on it.

    ``direction`` is one row (returns ``(bound, vertex)``) or a matrix
    of rows (returns a bound per row and a vertex per row).  Returns
    ``None`` when some op is not supported.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.nn.graph import AffineOp, PiecewiseLinearNetwork
    >>> net = PiecewiseLinearNetwork([AffineOp([[1.0, -2.0]], [0.5])], 2)
    >>> value, x = linear_support(net, Box(np.zeros(2), np.ones(2)), np.ones(1))
    >>> value, x.tolist()
    (-1.5, [0.0, 1.0])
    """
    relaxations = []
    for index, op in enumerate(network.ops):
        if not isinstance(op, LINEAR_SUPPORT_OPS):
            return None
        if not isinstance(op, RELU_LIKE_OPS):
            relaxations.append(None)
            continue
        if op_bounds is None:
            raise ValueError("relu-like ops need op_bounds to relax them")
        relaxations.append(_relu_relaxation(op, op_bounds[index][0]))
    direction = np.asarray(direction, dtype=float)
    c, offset = _pull_back(network.ops, relaxations, np.atleast_2d(direction))
    bound, vertex = _minimize_on_box(c, offset, box)
    if direction.ndim == 1:
        return float(bound[0]), vertex[0]
    return bound, vertex


def box_support(
    network: PiecewiseLinearNetwork,
    box: Box,
    direction: np.ndarray,
    op_bounds: list[tuple[Box, Box]] | None = None,
) -> tuple[float, np.ndarray] | None:
    """Exact ``min direction·network(x)`` over ``box`` where the network
    is affine on it: the case of :func:`linear_support` with no unstable
    neuron.  ``None`` when some neuron is unstable or an op unsupported.
    """
    support = linear_support(network, box, direction, op_bounds)
    if support is None or any(
        np.any((op_bounds[i][0].lower < 0.0) & (op_bounds[i][0].upper > 0.0))
        for i, op in enumerate(network.ops)
        if isinstance(op, RELU_LIKE_OPS)
    ):
        return None
    return support


def linear_op_bounds(
    network: PiecewiseLinearNetwork, op_bounds: list[tuple[Box, Box]]
) -> list[tuple[Box, Box]]:
    """Per-op ``(input, output)`` interval bounds, tightened by
    back-substitution.

    ``op_bounds`` are the interval ones over a box (its first input),
    such as :func:`~repro.verification.milp.bigm.op_bounds_for_set`
    gives.  Where a relu-like op's input has unstable neurons, each of
    them is bounded by pulling ``±e_i`` back through the ops before it
    (one matrix per op, earlier relu-like ops relaxed over their own
    tightened bounds) and the result is intersected with its interval;
    every op's output is propagated from its tightened input and
    intersected with the interval one too.  Past an op
    :func:`linear_support` does not support, no neuron is tightened.
    """
    box = op_bounds[0][0]
    pairs: list[tuple[Box, Box]] = []
    relaxations: list | None = []
    pre = box
    for index, (op, (_, interval_out)) in enumerate(zip(network.ops, op_bounds)):
        if not isinstance(op, LINEAR_SUPPORT_OPS):
            relaxations = None
        elif relaxations is not None and isinstance(op, RELU_LIKE_OPS):
            pre = _tightened(network.ops[:index], relaxations, box, pre)
            relaxations.append(_relu_relaxation(op, pre))
        elif relaxations is not None:
            relaxations.append(None)
        out = transform(op, pre)
        out = _clipped(out.lower, out.upper, interval_out)
        pairs.append((pre, out))
        pre = out
    return pairs


def _tightened(prefix, relaxations, box: Box, pre: Box) -> Box:
    """``pre`` with each unstable neuron's interval intersected with its
    back-substituted bounds over ``box``."""
    unstable = (pre.lower < 0.0) & (pre.upper > 0.0)
    if not np.any(unstable):
        return pre
    rows = np.eye(pre.dim)[unstable]
    c, offset = _pull_back(prefix, relaxations, np.concatenate([rows, -rows]))
    bound, _ = _minimize_on_box(c, offset, box)
    lower, upper = pre.lower.copy(), pre.upper.copy()
    lower[unstable] = bound[: len(rows)]
    upper[unstable] = -bound[len(rows) :]
    return _clipped(lower, upper, pre)


def _clipped(lower: np.ndarray, upper: np.ndarray, outer: Box) -> Box:
    """``[lower, upper] ∩ outer``, keeping ``outer``'s interval wherever
    a rounding error would leave the intersection empty."""
    lower = np.maximum(lower, outer.lower)
    upper = np.minimum(upper, outer.upper)
    crossed = lower > upper
    lower[crossed] = outer.lower[crossed]
    upper[crossed] = outer.upper[crossed]
    return Box(lower, upper)


def output_range(
    suffix: PiecewiseLinearNetwork,
    feature_set: FeatureSet,
    characterizer: PiecewiseLinearNetwork | None = None,
    output_index: int = 0,
    solver: str = "highs",
    **solver_options,
) -> OutputRange:
    """Exact min/max of ``output[output_index]`` over the constrained set.

    Raises :class:`ValueError` if the constrained region is empty (e.g. a
    characterizer that never accepts inside ``S~``).
    """
    if not 0 <= output_index < suffix.out_dim:
        raise ValueError(
            f"output index {output_index} out of range for {suffix.out_dim} outputs"
        )
    problem = encode_verification_problem(
        suffix, feature_set, trivial_reachability_risk(suffix.out_dim), characterizer
    )
    return optimize_range(problem, make_solver(solver, **solver_options), output_index)


def output_range_batch(
    suffix: PiecewiseLinearNetwork,
    feature_sets: Sequence[FeatureSet],
    output_index: int = 0,
    domain: str = "interval",
) -> list[OutputRange]:
    """Sound (not exact) ranges of one output over *many* sets at once.

    The batched-abstraction view of output-range analysis: a single
    vectorized propagation (:func:`~repro.verification.prescreen.output_enclosure_batch`)
    bounds the target coordinate for every feature set.  The intervals
    *contain* the exact reachable ranges — ``exact=False`` marks them as
    enclosures; use :func:`output_range` for the two-MILP exact answer
    on any region where the enclosure is too coarse.
    """
    from repro.verification.prescreen import output_enclosure_batch

    if not 0 <= output_index < suffix.out_dim:
        raise ValueError(
            f"output index {output_index} out of range for {suffix.out_dim} outputs"
        )
    ranges = []
    for enclosure in output_enclosure_batch(suffix, feature_sets, domain):
        if domain == "zonotope":
            direction = [0.0] * suffix.out_dim
            direction[output_index] = 1.0
            lo, hi = enclosure.linear_value_bounds(direction)
        else:
            lo = float(enclosure.lower[output_index])
            hi = float(enclosure.upper[output_index])
        ranges.append(
            OutputRange(
                output_index=output_index, lower=float(lo), upper=float(hi), exact=False
            )
        )
    return ranges
