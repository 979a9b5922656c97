"""Counterexample handling: witness decoding and adversarial falsification.

A SAT verification result yields a cut-layer vector ``n̂`` — a
*feature-space* counterexample candidate.  :func:`decode_witness` checks
it against the real network.  For properties that cannot be proved, the
paper suggests "it should be possible to construct a counter example
either by capturing more data or by using adversarial perturbation
techniques [17], [10]".  Every such search here is the one
sign-gradient ascent on the risk margin over stacked input boxes,
:func:`_ascend`: :func:`pgd_hits_in_boxes` returns every box's first
hit on the real network, :func:`pgd_in_boxes` the earliest of them,
:func:`fgsm_falsify` is :func:`pgd_in_boxes` over the boxes
``clip(seed ± epsilon, 0, 1)``, and
:func:`~repro.verification.abstraction.merge.merged_attack` runs the
ascent on a merged program with the rewritten risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.sequential import Sequential
from repro.properties.risk import RiskCondition
from repro.verification.ir import LoweredProgram, lowered_full, lowered_split
from repro.verification.milp.encoder import EncodedProblem


@dataclass(frozen=True)
class FeatureCounterexample:
    """A feature-space witness produced by the MILP solver."""

    features: np.ndarray  #: cut-layer vector n̂
    predicted_output: np.ndarray  #: suffix network output on n̂
    risk_margin: float  #: risk margin at the output (>= 0: risk occurs)
    characterizer_logit: float | None  #: accepting logit, if h was encoded

    @property
    def risk_occurs(self) -> bool:
        return self.risk_margin >= -1e-6


def decode_witness(
    problem: EncodedProblem,
    witness: np.ndarray,
    model: Sequential,
    cut_layer: int,
    risk: RiskCondition,
) -> FeatureCounterexample:
    """Replay a MILP witness through the *real* network suffix.

    Raises :class:`ValueError` if the witness does not reproduce (which
    would indicate an encoder bug — the encodings are exact).
    """
    features = problem.decode_input(witness)
    milp_output = problem.decode_output(witness)
    real_output = model.suffix_apply(features[None, :], cut_layer)[0]
    if not np.allclose(milp_output, real_output, atol=1e-4):
        raise ValueError(
            f"MILP witness does not replay: encoder output {milp_output} vs "
            f"network output {real_output}"
        )
    logit = None
    if problem.characterizer_logit_var is not None:
        logit = float(witness[problem.characterizer_logit_var])
    return FeatureCounterexample(
        features=features,
        predicted_output=real_output,
        risk_margin=float(risk.margin(real_output[None, :])[0]),
        characterizer_logit=logit,
    )


@dataclass(frozen=True)
class InputCounterexample:
    """An input-space counterexample found by adversarial search.

    ``features`` is the hit image's flat cut-layer vector ``f^(l)(image)``
    when the search was given a cut layer (see
    :func:`pgd_hits_in_boxes`): the ascent's own forward pass computed
    it, so it is the paper's feature-space witness at no extra cost.
    Without a cut it is ``None``.
    """

    image: np.ndarray
    output: np.ndarray
    risk_margin: float
    iterations: int
    features: np.ndarray | None = None

    @property
    def risk_occurs(self) -> bool:
        return self.risk_margin >= 0.0


def _ascend(
    program: LoweredProgram,
    risk: RiskCondition,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    steps: int,
    step_fraction: float,
    cut_index: int | None = None,
) -> tuple[dict[int, InputCounterexample], np.ndarray]:
    """The one sign-gradient ascent behind every attack.

    Each stacked box ``lower[i] .. upper[i]`` (any trailing shape that
    flattens to ``program.in_dim``) starts at its centre and steps
    ``step_fraction`` of its width along the sign of the input gradient
    of its worst risk row's margin, clipped to the box.  All boxes
    advance together: one batched forward pass per iterate, whose
    activations also feed that iterate's batched gradient.  A box's
    first iterate with a non-negative margin is frozen as its hit; the
    ascent stops after ``steps`` steps or once every box has a hit.
    With ``cut_index``, a hit also keeps its iterate's input to op
    ``cut_index`` from that forward pass as its ``features``.

    Returns ``(hits, x)``: the hits keyed by box index, and the last
    iterates.
    """
    a_matrix, _ = risk.as_matrix()
    x = 0.5 * (lower + upper)
    width = upper - lower
    k = x.shape[0]
    hits: dict[int, InputCounterexample] = {}
    for it in range(steps + 1):
        flat = x.reshape(k, -1)
        values = program.activations(flat)
        outputs = values[-1]
        margins = risk.margins(outputs)
        margin = margins.min(axis=1)
        for index in np.flatnonzero(margin >= 0.0).tolist():
            if index not in hits:
                hits[index] = InputCounterexample(
                    image=x[index].copy(),
                    output=outputs[index].copy(),
                    risk_margin=float(margin[index]),
                    iterations=it,
                    features=(
                        None if cut_index is None else values[cut_index][index].copy()
                    ),
                )
        if it == steps or len(hits) == k:
            break
        _, grads = program.value_and_input_gradient(
            flat, -a_matrix[margins.argmin(axis=1)], activations=values
        )
        x = np.clip(
            x + step_fraction * width * np.sign(grads.reshape(x.shape)), lower, upper
        )
    return hits, x


def pgd_in_boxes(
    model: Sequential,
    risk: RiskCondition,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    steps: int = 10,
    step_fraction: float = 0.25,
) -> tuple[int, InputCounterexample] | None:
    """Batched counterexample concretization inside many input boxes.

    The CEGAR loop's concretization primitive: for ``k`` input regions
    at once, start at each box center and run projected gradient ascent
    on the risk margin, clipping every iterate to its own box.  All
    ``k`` searches advance together — one batched forward and one
    batched gradient per step — so concretizing a whole refinement
    frontier costs roughly one adversarial search.

    Parameters
    ----------
    model : Sequential
        The real network; candidates are evaluated with exact forward
        passes, so a hit is a *genuine* input-space counterexample.
    risk : RiskCondition
        The undesired output region ``psi``.
    lower, upper : numpy.ndarray
        Stacked box bounds of shape ``(k, *model.input_shape)``.
    steps : int, optional
        Gradient-ascent iterations (step 0 already evaluates centers).
    step_fraction : float, optional
        Step size per iteration as a fraction of each box's per-pixel
        width, so narrow subregions take proportionally small steps.

    Returns
    -------
    tuple[int, InputCounterexample] or None
        ``(box index, counterexample)`` for the box whose iterate
        satisfied the risk first (lowest index on a tie), or ``None``
        if no search reached it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.perception.network import build_mlp_perception_network
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> model = build_mlp_perception_network(
    ...     input_dim=3, hidden=(4,), feature_width=3, seed=0)
    >>> lower = np.zeros((2, 3)); upper = np.ones((2, 3))
    >>> risk = RiskCondition("reach", (output_geq(2, 0, -1e9),))  # always on
    >>> index, cex = pgd_in_boxes(model, risk, lower, upper, steps=1)
    >>> index in (0, 1) and cex.risk_occurs
    True
    """
    hits = pgd_hits_in_boxes(
        model, risk, lower, upper, steps=steps, step_fraction=step_fraction
    )
    # rows ascend independently, so the earliest hit (ties: lowest box)
    # is the box, image and margin a first-hit loop would stop at
    return min(hits, key=lambda hit: (hit[1].iterations, hit[0]), default=None)


def pgd_hits_in_boxes(
    model: Sequential,
    risk: RiskCondition,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    steps: int = 10,
    step_fraction: float = 0.25,
    cut_layer: int | None = None,
) -> list[tuple[int, InputCounterexample]]:
    """Batched PGD over many input boxes, returning every box's hit.

    The ascent (:func:`_ascend`) on the model's lowered program: the
    streaming campaign executor falsifies as many of the regions its
    prescreen left as one batched ascent can reach, and
    :func:`pgd_in_boxes` (CEGAR's concretization) keeps the earliest of
    these hits.  Boxes keep climbing until ``steps`` run out or every
    box has a hit; each box's first hit is frozen, and all hits are
    returned together.

    Without ``cut_layer`` the ascent runs on
    :func:`~repro.verification.ir.lowered_full` and every hit's
    ``features`` is ``None``.  With it, the ascent runs on
    :func:`~repro.verification.ir.lowered_split` (the prefix's ops, then
    the suffix's), and every hit carries its flat cut-layer features
    from the same forward pass that found it: the feature-space witness
    needs no second pass through layers ``1 .. cut_layer``.

    Returns
    -------
    list[tuple[int, InputCounterexample]]
        ``(box index, counterexample)`` for every box that reached the
        risk, in box order; empty when no search reached it.  Each
        counterexample is a genuine input-space witness (evaluated with
        exact forward passes), so the caller may conclude UNSAFE for
        that box without invoking a solver.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.perception.network import build_mlp_perception_network
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> model = build_mlp_perception_network(
    ...     input_dim=3, hidden=(4,), feature_width=3, seed=0)
    >>> lower = np.zeros((2, 3)); upper = np.ones((2, 3))
    >>> risk = RiskCondition("reach", (output_geq(2, 0, -1e9),))  # always on
    >>> hits = pgd_hits_in_boxes(model, risk, lower, upper, steps=1)
    >>> [index for index, _ in hits]
    [0, 1]
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.shape[1:] != model.input_shape:
        raise ValueError(
            f"expected stacked bounds of shape (k, {model.input_shape}), got "
            f"{lower.shape} / {upper.shape}"
        )
    if cut_layer is None:
        program, cut_index = lowered_full(model), None
    else:
        program, cut_index = lowered_split(model, cut_layer)
    hits, _ = _ascend(
        program,
        risk,
        lower,
        upper,
        steps=steps,
        step_fraction=step_fraction,
        cut_index=cut_index,
    )
    return sorted(hits.items())


def undecided_band_threshold(
    model: Sequential,
    make_risk,
    lower: np.ndarray,
    upper: np.ndarray,
    lo: float,
    hi: float,
    *,
    band: float = 0.1,
    iterations: int = 12,
    steps: int = 20,
) -> float:
    """A threshold just above the attack frontier (the undecided band).

    The one shared policy behind ``repro refine``'s default threshold
    and the refinement examples.  Bisection between ``lo`` and ``hi``
    locates the largest threshold the attack CEGAR's concretization
    uses can still reach, and the returned threshold sits ``band`` of
    the way from there toward ``hi`` (the sound output bound) — low
    enough that bound propagation cannot decide the root, high enough
    that concretization cannot instantly refute it, so a refinement
    loop genuinely has to work.

    ``make_risk(t)`` builds the risk "output beyond threshold t";
    ``lower, upper`` are stacked region bounds of shape
    ``(k, *model.input_shape)``; ``iterations`` bisection steps locate
    the frontier to within ``(hi - lo) / 2**iterations``, each probe a
    ``steps``-step :func:`pgd_in_boxes`.
    """
    frontier, unreachable = lo, hi
    for _ in range(iterations):
        mid = 0.5 * (frontier + unreachable)
        if pgd_in_boxes(model, make_risk(mid), lower, upper, steps=steps) is not None:
            frontier = mid
        else:
            unreachable = mid
    return round(frontier + band * (hi - frontier), 3)


def fgsm_falsify(
    model: Sequential,
    risk: RiskCondition,
    images: np.ndarray,
    *,
    epsilon: float = 0.05,
    steps: int = 20,
    step_size: float | None = None,
) -> InputCounterexample | None:
    """Projected gradient ascent on the risk margin around seed images.

    :func:`pgd_in_boxes` over the boxes ``clip(seed ± epsilon, 0, 1)``:
    perturbations stay within an L∞ ball of radius ``epsilon`` around
    each seed and within the ``[0, 1]`` pixel range, so a seed
    satisfying ``phi`` keeps satisfying it for perceptually small
    ``epsilon``.  Each search starts at its box centre and steps
    ``step_size`` (default ``2.5 * epsilon / steps``) per pixel where
    the box is a full ball; the earliest hit over all seeds is
    returned, or ``None``.
    """
    if epsilon <= 0.0 or steps <= 0:
        raise ValueError("epsilon and steps must be positive")
    images = np.asarray(images, dtype=float)
    if images.ndim == len(model.input_shape):
        images = images[None, ...]
    alpha = step_size if step_size is not None else 2.5 * epsilon / steps
    hit = pgd_in_boxes(
        model,
        risk,
        np.clip(images - epsilon, 0.0, 1.0),
        np.clip(images + epsilon, 0.0, 1.0),
        steps=steps,
        step_fraction=alpha / (2.0 * epsilon),
    )
    return None if hit is None else hit[1]
