"""Binary-free relaxed encoding for case-splitting solvers.

Section V of the paper names ReLUplex [8] and Planet [5] alongside MILP
as the exact methods applicable to ReLU/BatchNorm close-to-output
layers.  Those engines avoid big-M binaries: each nonlinear neuron gets
its *convex relaxation* (the triangle for ReLU), plus a **split point**
recording the exact case split a search procedure may apply (ReLU phase
positive/negative, or which member of a max group wins).

:func:`encode_relaxed_problem` mirrors
:func:`repro.verification.milp.encoder.encode_verification_problem`
with this relaxation; the
:class:`~repro.verification.solver.case_split.PhaseSplitSolver` performs
the DPLL(LP)-style search over the recorded splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    MaxGroupOp,
    PiecewiseLinearNetwork,
    ReLUOp,
    ReshapeOp,
)
from repro.properties.risk import RiskCondition
from repro.verification.milp.bigm import op_bounds_for_set
from repro.verification.milp.encoder import EncodedProblem, append_risk_rows
from repro.verification.milp.model import MILPModel
from repro.verification.sets import Box, FeatureSet


@dataclass(frozen=True)
class PhaseOption:
    """One exact case of a split point: rows + bound tightenings to add."""

    label: str
    eq_rows: tuple[tuple[dict[int, float], float], ...] = ()
    leq_rows: tuple[tuple[dict[int, float], float], ...] = ()
    bounds: tuple[tuple[int, float, float], ...] = ()  #: (var, lo, hi)


@dataclass(frozen=True)
class SplitPoint:
    """A neuron whose exact semantics needs a case split."""

    kind: str  #: "relu", "leaky-relu" or "max-group"
    in_vars: tuple[int, ...]
    out_var: int
    alpha: float = 0.0
    options: tuple[PhaseOption, ...] = ()

    def violation(self, assignment: np.ndarray) -> float:
        """How far the LP point is from the neuron's exact semantics."""
        y = assignment[self.out_var]
        xs = assignment[list(self.in_vars)]
        if self.kind in ("relu", "leaky-relu"):
            exact = max(xs[0], self.alpha * xs[0])
        else:
            exact = xs.max()
        return abs(float(y - exact))


@dataclass
class RelaxedProblem(EncodedProblem):
    """Relaxation LP plus the split points a search may decide."""

    splits: list[SplitPoint] = field(default_factory=list)


class _RelaxedEncoder:
    """Relaxation-based network encoder sharing input variables."""

    def __init__(self, problem: RelaxedProblem, prefix: str):
        self.problem = problem
        self.model = problem.model
        self.prefix = prefix
        self._op_count = 0

    def encode(
        self,
        network: PiecewiseLinearNetwork,
        input_vars: list[int],
        op_bounds: list[tuple[Box, Box]],
    ) -> list[int]:
        cur = list(input_vars)
        for op, (in_box, out_box) in zip(network.ops, op_bounds):
            tag = f"{self.prefix}op{self._op_count}"
            self._op_count += 1
            if isinstance(op, AffineOp):
                cur = self._affine(op, cur, out_box, tag)
            elif isinstance(op, ElementwiseAffineOp):
                cur = self._elementwise_affine(op, cur, out_box, tag)
            elif isinstance(op, ReshapeOp):
                pass  # identity on flat variables
            elif isinstance(op, ReLUOp):
                cur = self._relu_like(cur, in_box, 0.0, tag)
            elif isinstance(op, LeakyReLUOp):
                cur = self._relu_like(cur, in_box, op.alpha, tag)
            elif isinstance(op, MaxGroupOp):
                cur = self._max_group(op, cur, in_box, tag)
            else:  # pragma: no cover - lower_layers only emits the above
                raise TypeError(f"cannot encode op {type(op).__name__}")
        return cur

    def _affine(self, op: AffineOp, xs: list[int], out_box: Box, tag: str) -> list[int]:
        ys = [
            self.model.add_continuous(out_box.lower[j], out_box.upper[j], f"{tag}.y{j}")
            for j in range(op.out_dim)
        ]
        for j in range(op.out_dim):
            coeffs: dict[int, float] = {ys[j]: -1.0}
            for k in range(op.in_dim):
                w = op.weight[j, k]
                if w != 0.0:
                    coeffs[xs[k]] = coeffs.get(xs[k], 0.0) + w
            self.model.add_eq(coeffs, -op.bias[j])
        return ys

    def _elementwise_affine(
        self, op: ElementwiseAffineOp, xs: list[int], out_box: Box, tag: str
    ) -> list[int]:
        """Diagonal affine: one two-variable equality row per neuron."""
        ys = [
            self.model.add_continuous(out_box.lower[j], out_box.upper[j], f"{tag}.y{j}")
            for j in range(op.out_dim)
        ]
        for j, (x, y) in enumerate(zip(xs, ys)):
            self.model.add_eq({y: -1.0, x: float(op.scale[j])}, -float(op.shift[j]))
        return ys

    def _relu_like(
        self, xs: list[int], in_box: Box, alpha: float, tag: str
    ) -> list[int]:
        ys: list[int] = []
        for k, x in enumerate(xs):
            lo, hi = float(in_box.lower[k]), float(in_box.upper[k])
            out_lo = lo if lo >= 0.0 else alpha * lo
            out_hi = hi if hi >= 0.0 else alpha * hi
            y = self.model.add_continuous(out_lo, out_hi, f"{tag}.y{k}")
            if lo >= 0.0:
                self.model.add_eq({y: 1.0, x: -1.0}, 0.0)
            elif hi <= 0.0:
                self.model.add_eq({y: 1.0, x: -alpha}, 0.0)
            else:
                # triangle relaxation: y >= x, y >= alpha x,
                # y <= slope * (x - lo) + alpha * lo
                slope = (hi - alpha * lo) / (hi - lo)
                self.model.add_leq({x: 1.0, y: -1.0}, 0.0)
                if alpha != 0.0:
                    self.model.add_leq({x: alpha, y: -1.0}, 0.0)
                else:
                    pass  # y >= 0 already via the variable bound
                self.model.add_leq(
                    {y: 1.0, x: -slope}, alpha * lo - slope * lo
                )
                positive = PhaseOption(
                    label="x>=0",
                    eq_rows=(({y: 1.0, x: -1.0}, 0.0),),
                    bounds=((x, max(lo, 0.0), hi),),
                )
                negative = PhaseOption(
                    label="x<=0",
                    eq_rows=(({y: 1.0, x: -alpha}, 0.0),),
                    bounds=((x, lo, min(hi, 0.0)),),
                )
                self.problem.splits.append(
                    SplitPoint(
                        kind="relu" if alpha == 0.0 else "leaky-relu",
                        in_vars=(x,),
                        out_var=y,
                        alpha=alpha,
                        options=(positive, negative),
                    )
                )
            ys.append(y)
        return ys

    def _max_group(
        self, op: MaxGroupOp, xs: list[int], in_box: Box, tag: str
    ) -> list[int]:
        ys: list[int] = []
        for j, group in enumerate(op.groups):
            lows = in_box.lower[group]
            highs = in_box.upper[group]
            y = self.model.add_continuous(
                float(lows.max()), float(highs.max()), f"{tag}.y{j}"
            )
            members = [xs[int(g)] for g in group]
            for x in members:
                self.model.add_leq({x: 1.0, y: -1.0}, 0.0)
            dominant = int(np.argmax(lows))
            others_hi = np.delete(highs, dominant)
            if len(members) == 1 or lows[dominant] >= others_hi.max(initial=-np.inf):
                self.model.add_eq({y: 1.0, members[dominant]: -1.0}, 0.0)
            else:
                options = []
                for i, x in enumerate(members):
                    leq_rows = tuple(
                        ({other: 1.0, x: -1.0}, 0.0)
                        for other in members
                        if other != x
                    )
                    options.append(
                        PhaseOption(
                            label=f"argmax={i}",
                            eq_rows=(({y: 1.0, x: -1.0}, 0.0),),
                            leq_rows=leq_rows,
                        )
                    )
                self.problem.splits.append(
                    SplitPoint(
                        kind="max-group",
                        in_vars=tuple(members),
                        out_var=y,
                        options=tuple(options),
                    )
                )
            ys.append(y)
        return ys


def encode_relaxed_problem(
    suffix: PiecewiseLinearNetwork,
    feature_set: FeatureSet,
    risk: RiskCondition,
    characterizer: PiecewiseLinearNetwork | None = None,
    characterizer_threshold: float = 0.0,
    *,
    suffix_bounds: list[tuple[Box, Box]] | None = None,
    characterizer_bounds: list[tuple[Box, Box]] | None = None,
) -> RelaxedProblem:
    """Relaxed (binary-free) version of the verification encoding.

    ``suffix_bounds`` / ``characterizer_bounds`` accept precomputed
    :func:`~repro.verification.milp.bigm.op_bounds_for_set` results, as
    in :func:`~repro.verification.milp.encoder.encode_verification_problem`.
    """
    if risk.dim != suffix.out_dim:
        raise ValueError(
            f"risk condition is over {risk.dim} outputs, network has {suffix.out_dim}"
        )
    if characterizer is not None and characterizer.in_dim != suffix.in_dim:
        raise ValueError(
            f"characterizer input {characterizer.in_dim} does not match "
            f"cut-layer dimension {suffix.in_dim}"
        )

    model = MILPModel()
    lower, upper = feature_set.bounds()
    input_vars = [
        model.add_continuous(lower[i], upper[i], f"n{i}") for i in range(suffix.in_dim)
    ]
    problem = RelaxedProblem(model=model, input_vars=input_vars, output_vars=[])

    a_extra, b_extra = feature_set.linear_constraints()
    for row, rhs in zip(a_extra, b_extra):
        coeffs = {
            input_vars[j]: float(row[j]) for j in range(len(input_vars)) if row[j] != 0.0
        }
        if coeffs:
            model.add_leq(coeffs, float(rhs))

    net_encoder = _RelaxedEncoder(problem, "f.")
    if suffix_bounds is None:
        suffix_bounds = op_bounds_for_set(suffix, feature_set)
    problem.output_vars = net_encoder.encode(suffix, input_vars, suffix_bounds)

    append_risk_rows(model, problem.output_vars, risk)

    if characterizer is not None:
        char_encoder = _RelaxedEncoder(problem, "h.")
        if characterizer_bounds is None:
            characterizer_bounds = op_bounds_for_set(characterizer, feature_set)
        char_outputs = char_encoder.encode(characterizer, input_vars, characterizer_bounds)
        problem.characterizer_logit_var = char_outputs[0]
        model.add_leq(
            {problem.characterizer_logit_var: -1.0}, -characterizer_threshold
        )

    return problem
