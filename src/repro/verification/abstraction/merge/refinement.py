"""Counterexample-guided refinement of a merged program.

Given a spurious witness, refinement picks a merged group to split so
the abstraction tightens where it hurt.  :func:`merged_attack` finds the
witness with the sign-gradient ascent of
:mod:`repro.verification.counterexample`, run on the merged program
with the rewritten risk: its first merged-risk hit, or else its last
iterate.  Candidate ordering is deterministic and guided by three
signals evaluated at the witness:

- **deviation gap** — how far the merged rail value strays from the
  tightest member it covers (the abstraction error this group injects);
- **influence** — absolute outgoing weight mass of the merged value in
  the next merged affine op (how much of that error reaches the output);
- **saturation** — groups whose merged pre-activation is saturated
  (<= 0) at the witness are heavily down-weighted, since the ReLU wipes
  their error out locally.

``plan_refinement`` optionally re-scores the top candidates with a
caller-supplied evaluator (e.g. the prescreen margin of the refined
program) and returns the winning :class:`RefinementStep`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.properties.risk import RiskCondition
from repro.verification.abstraction.merge.abstraction import MergeState
from repro.verification.abstraction.merge.classify import RAILS
from repro.verification.counterexample import _ascend

SATURATED_WEIGHT = 0.1


@dataclass(frozen=True)
class RefinementStep:
    """Split ``group`` of ``(layer, rail)`` into ``parts``."""

    layer: int
    rail: str
    group: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rail not in RAILS:
            raise ValueError(f"rail must be one of {RAILS}, got {self.rail!r}")
        if len(self.parts) < 2:
            raise ValueError("a refinement step needs at least two parts")

    def apply(self, state: MergeState) -> MergeState:
        return state.split_group(self.layer, self.rail, self.group, self.parts)


def merged_attack(
    state: MergeState,
    risk: RiskCondition,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    steps: int = 12,
    step_fraction: float = 0.25,
) -> np.ndarray:
    """A spurious-witness point for ``state`` inside one box.

    The sign-gradient ascent of
    :mod:`repro.verification.counterexample` run on the merged program
    with the rewritten risk: its first merged-risk hit, or else its last
    iterate.
    """
    hits, last = _ascend(
        state.program(),
        state.merged_risk(risk),
        np.asarray(lower, dtype=float).reshape(1, -1),
        np.asarray(upper, dtype=float).reshape(1, -1),
        steps=steps,
        step_fraction=step_fraction,
    )
    return hits[0].image if hits else last[0]


def _merged_layer_values(
    state: MergeState, point: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pre-activation, post-activation) per hidden layer of the merged net."""
    program = state.program()
    values = np.asarray(point, dtype=float)
    captured: list[tuple[np.ndarray, np.ndarray]] = []
    ops = list(program.ops)
    for index in range(0, len(ops) - 1, 2):
        pre = ops[index].apply(values)
        values = ops[index + 1].apply(pre)
        captured.append((pre, values))
    return captured


def refinement_candidates(
    state: MergeState, witness: np.ndarray
) -> list[RefinementStep]:
    """Splittable groups, most-promising first, with scores baked into order.

    Each candidate splits the member deviating most at the witness off
    into a singleton.  Ordering is deterministic: score descending, then
    (layer, rail, group) ascending.
    """
    if state.is_refined:
        return []
    witness = np.asarray(witness, dtype=float).reshape(-1)
    hidden = state.chain.hidden_values(witness)
    merged_layers = _merged_layer_values(state, witness)
    program = state.program()
    affine_ops = [op for op in program.ops if hasattr(op, "weight")]

    scored: list[tuple[float, int, int, tuple[int, ...], RefinementStep]] = []
    for layer in range(state.chain.num_hidden):
        pre, _post = merged_layers[layer]
        inc_groups, dec_groups = state.partitions[layer]
        next_weight = affine_ops[layer + 1].weight
        for rail_index, (rail, groups) in enumerate(
            (("inc", inc_groups), ("dec", dec_groups))
        ):
            offset = 0 if rail == "inc" else len(inc_groups)
            for position, group in enumerate(groups):
                if len(group) < 2:
                    continue
                members = hidden[layer][list(group)]
                merged_pre = float(pre[offset + position])
                merged_value = max(merged_pre, 0.0)
                if rail == "inc":
                    gap = merged_value - float(members.max())
                    outlier = group[int(np.argmin(members))]
                else:
                    gap = float(members.min()) - merged_value
                    outlier = group[int(np.argmax(members))]
                influence = float(
                    np.abs(next_weight[:, offset + position]).sum()
                )
                activity = 1.0 if merged_pre > 0.0 else SATURATED_WEIGHT
                score = max(gap, 0.0) * influence * activity
                rest = tuple(m for m in group if m != outlier)
                step = RefinementStep(layer, rail, group, ((outlier,), rest))
                scored.append((score, layer, rail_index, group, step))
    scored.sort(key=lambda item: (-item[0], item[1], item[2], item[3]))
    return [item[4] for item in scored]


def plan_refinement(
    state: MergeState,
    witness: np.ndarray,
    *,
    evaluate=None,
    top_k: int = 3,
) -> RefinementStep | None:
    """Pick the refinement step to apply for ``witness``.

    Without ``evaluate`` the heuristically best candidate wins; with it,
    the ``top_k`` leading candidates are re-scored by
    ``evaluate(refined_state)`` (lower is better — e.g. the prescreen
    ``best_possible_margin``) and ties resolve to the earlier candidate.
    """
    candidates = refinement_candidates(state, witness)
    if not candidates:
        return None
    if evaluate is None:
        return candidates[0]
    best_step = None
    best_score = np.inf
    for step in candidates[: max(1, int(top_k))]:
        score = float(evaluate(step.apply(state)))
        if score < best_score:
            best_score = score
            best_step = step
    return best_step


__all__ = [
    "RefinementStep",
    "merged_attack",
    "plan_refinement",
    "refinement_candidates",
]
