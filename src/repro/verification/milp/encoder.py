"""Exact MILP encoding of the verification problem (Definition 1 + Lemma 2).

The encoded feasibility problem asks for a cut-layer vector ``n̂ ∈ S~``
such that

- the characterizer accepts: ``h(n̂) >= threshold`` (its logit), and
- the sub-network output ``g^(L)(…(n̂))`` satisfies every inequality of
  the risk condition ``psi``.

Feasible  ⇒ a counterexample candidate exists (UNSAFE within ``S~``);
infeasible ⇒ the network is (conditionally) safe — Lemma 2 instantiated
with ``S = S~`` plus the assume-guarantee monitor.

Encodings are *exact* for the piecewise-linear ops: a property-based test
checks that for every feasible MILP solution, the decoded input
reproduces the decoded output through the real network.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

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
from repro.verification.milp.model import MILPModel
from repro.verification.sets import Box, FeatureSet


def append_risk_rows(
    model: MILPModel, output_vars: list[int], risk: RiskCondition
) -> None:
    """Conjoin every ``a . y <= b`` row of ``risk`` onto encoded outputs.

    The single definition of how a risk condition meets a MILP model —
    used by both encoders, the refinement chain, and the ``repro.api``
    engine when it appends per-query rows to a cached base encoding.
    """
    a_risk, b_risk = risk.as_matrix()
    for row, rhs in zip(a_risk, b_risk):
        coeffs = {
            output_vars[j]: float(row[j])
            for j in range(len(output_vars))
            if row[j] != 0.0
        }
        model.add_leq(coeffs, float(rhs))


@dataclass
class EncodedProblem:
    """A MILP model plus the variable maps needed to decode witnesses."""

    model: MILPModel
    input_vars: list[int]
    output_vars: list[int]
    characterizer_logit_var: int | None = None
    characterizer_output_vars: list[int] = field(default_factory=list)

    def decode_input(self, x: np.ndarray) -> np.ndarray:
        """Cut-layer feature vector from a full variable assignment."""
        return np.asarray(x, dtype=float)[self.input_vars]

    def decode_output(self, x: np.ndarray) -> np.ndarray:
        """Network output vector from a full variable assignment."""
        return np.asarray(x, dtype=float)[self.output_vars]

    @contextmanager
    def scoped(self) -> Iterator["EncodedProblem"]:
        """Transaction on this encoding: rows, objective and input bounds.

        Anything a caller adds or tightens inside the block (risk rows,
        an objective, a child box on the input variables) is rolled back
        on exit, so a cached or shared encoding stays pristine.
        """
        model = self.model
        n_rows = len(model.constraints)
        objective = dict(model.objective)
        bounds = [(var, model.lower[var], model.upper[var]) for var in self.input_vars]
        try:
            yield self
        finally:
            del model.constraints[n_rows:]
            model.objective = objective
            for var, lo, hi in bounds:
                model.lower[var] = lo
                model.upper[var] = hi


class _NetworkEncoder:
    """Encodes one piecewise-linear network onto shared input variables."""

    def __init__(self, model: MILPModel, prefix: str):
        self.model = model
        self.prefix = prefix
        self._op_count = 0

    def encode(
        self,
        network: PiecewiseLinearNetwork,
        input_vars: list[int],
        op_bounds: list[tuple[Box, Box]],
    ) -> list[int]:
        """Add all ops; return the output variable indices."""
        cur = list(input_vars)
        for op, (in_box, out_box) in zip(network.ops, op_bounds):
            tag = f"{self.prefix}op{self._op_count}"
            self._op_count += 1
            if isinstance(op, AffineOp):
                cur = self._affine(op, cur, out_box, tag)
            elif isinstance(op, ElementwiseAffineOp):
                cur = self._elementwise_affine(op, cur, out_box, tag)
            elif isinstance(op, ReLUOp):
                cur = self._relu_like(cur, in_box, 0.0, tag)
            elif isinstance(op, LeakyReLUOp):
                cur = self._relu_like(cur, in_box, op.alpha, tag)
            elif isinstance(op, MaxGroupOp):
                cur = self._max_group(op, cur, in_box, tag)
            elif isinstance(op, ReshapeOp):
                pass  # identity on flat variables
            else:  # pragma: no cover - the PL view only emits the above
                raise TypeError(f"cannot encode op {type(op).__name__}")
        return cur

    # -- op encoders ----------------------------------------------------------

    def _affine(
        self, op: AffineOp, xs: list[int], out_box: Box, tag: str
    ) -> list[int]:
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
        """Exact big-M encoding of ``y = max(x, alpha * x)``.

        Stable neurons (sign known from the bounds) are encoded without
        binaries; unstable ones get one binary ``d`` (1 iff ``x >= 0``)
        with indicator constraints forcing ``d`` from the sign of ``x``.
        """
        ys: list[int] = []
        for k, x in enumerate(xs):
            lo, hi = in_box.lower[k], in_box.upper[k]
            out_lo = lo if lo >= 0.0 else alpha * lo
            out_hi = hi if hi >= 0.0 else alpha * hi
            y = self.model.add_continuous(out_lo, out_hi, f"{tag}.y{k}")
            if lo >= 0.0:
                self.model.add_eq({y: 1.0, x: -1.0}, 0.0)
            elif hi <= 0.0:
                self.model.add_eq({y: 1.0, x: -alpha}, 0.0)
            else:
                d = self.model.add_binary(f"{tag}.d{k}")
                # y >= x  and  y >= alpha * x
                self.model.add_leq({x: 1.0, y: -1.0}, 0.0)
                if alpha != 0.0:
                    self.model.add_leq({x: alpha, y: -1.0}, 0.0)
                # y <= alpha*x + (1 - alpha) * hi * d
                self.model.add_leq({y: 1.0, x: -alpha, d: -(1.0 - alpha) * hi}, 0.0)
                # y <= x - (1 - alpha) * lo * (1 - d)
                self.model.add_leq(
                    {y: 1.0, x: -1.0, d: -(1.0 - alpha) * lo}, -(1.0 - alpha) * lo
                )
                # indicator links: d = 1 iff x >= 0 (up to ties at 0)
                self.model.add_leq({x: 1.0, d: -hi}, 0.0)  # x <= hi * d
                self.model.add_leq({x: -1.0, d: -lo}, -lo)  # x >= lo * (1 - d)
            ys.append(y)
        return ys

    def _max_group(
        self, op: MaxGroupOp, xs: list[int], in_box: Box, tag: str
    ) -> list[int]:
        """Exact encoding of ``y_j = max(x[group_j])`` with selector binaries."""
        ys: list[int] = []
        for j, group in enumerate(op.groups):
            lows = in_box.lower[group]
            highs = in_box.upper[group]
            y_lo, y_hi = float(lows.max()), float(highs.max())
            y = self.model.add_continuous(y_lo, y_hi, f"{tag}.y{j}")
            members = [xs[int(g)] for g in group]
            # y >= x_i for all members
            for x in members:
                self.model.add_leq({x: 1.0, y: -1.0}, 0.0)
            dominant = int(np.argmax(lows))
            others_hi = np.delete(highs, dominant)
            if len(members) == 1 or lows[dominant] >= others_hi.max(initial=-np.inf):
                # one member dominates the group; max equals it exactly
                self.model.add_eq({y: 1.0, members[dominant]: -1.0}, 0.0)
            else:
                selectors = [
                    self.model.add_binary(f"{tag}.s{j}_{i}")
                    for i in range(len(members))
                ]
                self.model.add_eq({s: 1.0 for s in selectors}, 1.0)
                for i, (x, s) in enumerate(zip(members, selectors)):
                    # y <= x_i + (y_hi - lo_i) * (1 - s_i)
                    big_m = y_hi - float(lows[i])
                    self.model.add_leq({y: 1.0, x: -1.0, s: big_m}, big_m)
            ys.append(y)
        return ys


def encode_verification_problem(
    suffix: PiecewiseLinearNetwork,
    feature_set: FeatureSet,
    risk: RiskCondition,
    characterizer: PiecewiseLinearNetwork | None = None,
    characterizer_threshold: float = 0.0,
    *,
    suffix_bounds: list[tuple[Box, Box]] | None = None,
    characterizer_bounds: list[tuple[Box, Box]] | None = None,
) -> EncodedProblem:
    """Encode "exists ``n̂ ∈ S~`` with ``h(n̂)`` accepting and ``psi`` holding".

    ``suffix`` is the verified sub-network ``g^(l+1..L)``;
    ``characterizer`` (optional) maps the same cut-layer features to a
    single acceptance logit; ``h(n̂) = 1`` becomes ``logit >= threshold``.
    Omitting the characterizer verifies the risk over all of ``S~``.

    ``suffix_bounds`` / ``characterizer_bounds`` let callers that encode
    the same ``(network, feature_set)`` pair repeatedly (the
    ``repro.api`` engine) pass precomputed
    :func:`~repro.verification.milp.bigm.op_bounds_for_set` results
    instead of re-propagating per query.
    """
    if risk.dim != suffix.out_dim:
        raise ValueError(
            f"risk condition is over {risk.dim} outputs, network has {suffix.out_dim}"
        )
    if characterizer is not None:
        if characterizer.in_dim != suffix.in_dim:
            raise ValueError(
                f"characterizer input {characterizer.in_dim} does not match "
                f"cut-layer dimension {suffix.in_dim}"
            )
        if characterizer.out_dim != 1:
            raise ValueError(
                f"characterizer must output a single logit, got {characterizer.out_dim}"
            )

    model = MILPModel()
    lower, upper = feature_set.bounds()
    input_vars = [
        model.add_continuous(lower[i], upper[i], f"n{i}") for i in range(suffix.in_dim)
    ]

    # S~ shape constraints beyond the interval hull (e.g. adjacent diffs)
    a_extra, b_extra = feature_set.linear_constraints()
    for row, rhs in zip(a_extra, b_extra):
        coeffs = {
            input_vars[j]: float(row[j]) for j in range(len(input_vars)) if row[j] != 0.0
        }
        if coeffs:
            model.add_leq(coeffs, float(rhs))

    # main sub-network g^(l+1..L)
    net_encoder = _NetworkEncoder(model, "f.")
    if suffix_bounds is None:
        suffix_bounds = op_bounds_for_set(suffix, feature_set)
    output_vars = net_encoder.encode(suffix, input_vars, suffix_bounds)

    # risk condition psi over the outputs: every inequality must hold
    append_risk_rows(model, output_vars, risk)

    # characterizer acceptance h(n̂) = 1
    logit_var = None
    char_outputs: list[int] = []
    if characterizer is not None:
        char_encoder = _NetworkEncoder(model, "h.")
        if characterizer_bounds is None:
            characterizer_bounds = op_bounds_for_set(characterizer, feature_set)
        char_outputs = char_encoder.encode(characterizer, input_vars, characterizer_bounds)
        logit_var = char_outputs[0]
        # logit >= threshold  <=>  -logit <= -threshold
        model.add_leq({logit_var: -1.0}, -characterizer_threshold)

    return EncodedProblem(
        model=model,
        input_vars=input_vars,
        output_vars=output_vars,
        characterizer_logit_var=logit_var,
        characterizer_output_vars=char_outputs,
    )
