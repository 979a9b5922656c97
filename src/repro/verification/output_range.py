"""Exact output range analysis over a feature set.

Computes ``min`` / ``max`` of one output coordinate of the verified
sub-network over ``S~`` (optionally intersected with a characterizer's
acceptance region) by two MILP optimizations.  This is the
output-range-analysis view of verification (refs [4], [9] of the paper):
a risk ``y_i >= t`` is provable iff ``t`` exceeds the computed maximum.

Experiments E3/E6 use these ranges to report *how much* each ingredient
(characterizer conjunct, adjacent-difference record, pairwise octagon)
tightens the provable frontier.
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


#: relu-like ops, affine on a box where their input interval keeps one sign
RELU_LIKE_OPS = (ReLUOp, LeakyReLUOp)

#: the ops :func:`box_support` pulls a direction back through
BOX_SUPPORT_OPS = (AffineOp, ElementwiseAffineOp, ReshapeOp, *RELU_LIKE_OPS)


def box_support(
    network: PiecewiseLinearNetwork,
    box: Box,
    direction: np.ndarray,
    op_bounds: list[tuple[Box, Box]] | None = None,
) -> tuple[float, np.ndarray] | None:
    """Closed-form ``min direction·network(x)`` over ``box``.

    Exact when ``network`` is affine on the box: every op is in
    :data:`BOX_SUPPORT_OPS` and every relu-like op's input interval
    (``op_bounds[i][0]``, the per-op bounds of
    :func:`~repro.verification.milp.bigm.op_bounds_for_set` over this
    box; needed only when such an op is present) lies on one side of 0.
    The network is then ``y = W x + b`` on the box; with
    ``c = directionᵀW`` the minimum is at the vertex taking ``lower_j``
    where ``c_j >= 0`` and ``upper_j`` elsewhere.  The direction is
    pulled back through the ops one vector-Jacobian product at a time,
    so ``W`` is never formed.

    Returns ``(value, vertex)``, or ``None`` when some op is not affine
    on the box.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.nn.graph import AffineOp, PiecewiseLinearNetwork
    >>> net = PiecewiseLinearNetwork([AffineOp([[1.0, -2.0]], [0.5])], 2)
    >>> value, x = box_support(net, Box(np.zeros(2), np.ones(2)), np.ones(1))
    >>> value, x.tolist()
    (-1.5, [0.0, 1.0])
    """
    slopes: list[np.ndarray | None] = []
    for index, op in enumerate(network.ops):
        if not isinstance(op, BOX_SUPPORT_OPS):
            return None
        if not isinstance(op, RELU_LIKE_OPS):
            slopes.append(None)
            continue
        if op_bounds is None:
            raise ValueError("relu-like ops need op_bounds to decide stability")
        pre = op_bounds[index][0]
        active = pre.lower >= 0.0
        if not np.all(active | (pre.upper <= 0.0)):
            return None  # an unstable neuron: not affine on the box
        alpha = op.alpha if isinstance(op, LeakyReLUOp) else 0.0
        slopes.append(np.where(active, 1.0, alpha))
    c = np.asarray(direction, dtype=float)
    offset = 0.0
    for op, slope in zip(reversed(network.ops), reversed(slopes)):
        if isinstance(op, AffineOp):
            offset += float(c @ op.bias)
            c = c @ op.weight
        elif isinstance(op, ElementwiseAffineOp):
            offset += float(c @ op.shift)
            c = c * op.scale
        elif slope is not None:
            c = c * slope
    vertex = np.where(c >= 0.0, box.lower, box.upper)
    return float(c @ vertex) + offset, vertex


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
