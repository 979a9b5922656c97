"""Counterexample handling: witness decoding and adversarial falsification.

A SAT verification result yields a cut-layer vector ``n̂`` — a
*feature-space* counterexample candidate.  :func:`decode_witness` checks
it against the real network.  For properties that cannot be proved, the
paper suggests "it should be possible to construct a counter example
either by capturing more data or by using adversarial perturbation
techniques [17], [10]"; :func:`fgsm_falsify` implements that input-space
search (FGSM-style ascent on the risk margin restricted to images that
satisfy ``phi``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.autodiff import input_gradient
from repro.nn.sequential import Sequential
from repro.properties.risk import RiskCondition
from repro.verification.ir import LoweredProgram, lowered_full
from repro.verification.milp.encoder import EncodedProblem


def _attack_program(model: Sequential) -> LoweredProgram | None:
    """The cached lowered program PGD ascends, if the model lowers.

    Falling back to ``None`` (layer-walking forward + autodiff) keeps
    adversarial search available for exotic models without an IR
    lowering; every built-in layer lowers.
    """
    try:
        return lowered_full(model)
    except ValueError:
        return None


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
    """An input-space counterexample found by adversarial search."""

    image: np.ndarray
    output: np.ndarray
    risk_margin: float
    iterations: int

    @property
    def risk_occurs(self) -> bool:
        return self.risk_margin >= 0.0


def _risk_gradient_direction(risk: RiskCondition, output: np.ndarray) -> np.ndarray:
    """Gradient of the (soft-min) risk margin with respect to the output.

    Ascending this direction pushes the output *toward* satisfying psi
    (increasing the worst inequality's slack).
    """
    margins = np.array([float(ineq.margin(output)) for ineq in risk.inequalities])
    worst = int(np.argmin(margins))
    a, _ = risk.inequalities[worst].normalized()
    # margin = b - a.y, so d(margin)/dy = -a
    return -a


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
) -> list[tuple[int, InputCounterexample]]:
    """Batched PGD over many input boxes, returning every box's hit.

    The one ascent behind both attacks: the streaming campaign executor
    falsifies as many of the regions its prescreen left as one batched
    ascent can reach, and :func:`pgd_in_boxes` (CEGAR's concretization)
    keeps the earliest of these hits.  Every box keeps climbing for the
    full ``steps`` budget (see :func:`pgd_in_boxes` for the step rule),
    each box's first hit is frozen, and all hits are returned together.

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
    a_matrix, _ = risk.as_matrix()
    program = _attack_program(model)
    x = 0.5 * (lower + upper)
    width = upper - lower
    k = x.shape[0]
    hits: dict[int, InputCounterexample] = {}
    for it in range(steps + 1):
        if program is not None:
            outputs = program.apply(x.reshape(k, -1))
        else:
            outputs = model.forward(x, training=False)
        margins = np.asarray(risk.margin(outputs), dtype=float)
        for index in np.nonzero(margins >= 0.0)[0]:
            index = int(index)
            if index not in hits:  # freeze each box's first hit
                hits[index] = InputCounterexample(
                    image=x[index].copy(),
                    output=outputs[index].copy(),
                    risk_margin=float(margins[index]),
                    iterations=it,
                )
        if it == steps or len(hits) == k:
            break
        per_row = np.stack(
            [np.asarray(ineq.margin(outputs), dtype=float) for ineq in risk.inequalities]
        )
        worst = np.argmin(per_row, axis=0)
        directions = -a_matrix[worst]
        if program is not None:
            _, flat_grads = program.value_and_input_gradient(
                x.reshape(k, -1), directions
            )
            grads = flat_grads.reshape(x.shape)
        else:
            _, grads = input_gradient(model, x, directions)
        x = np.clip(x + step_fraction * width * np.sign(grads), lower, upper)
    return [(index, hits[index]) for index in sorted(hits)]


def attack_frontier(
    model: Sequential,
    make_risk,
    lower: np.ndarray,
    upper: np.ndarray,
    lo: float,
    hi: float,
    *,
    iterations: int = 12,
    steps: int = 20,
) -> float:
    """Bisect the PGD-reachable frontier of a threshold family.

    The shared threshold-picking primitive of the CLI ``refine``
    command and the refinement examples: thresholds *below* the
    returned frontier are reachable by the same attack CEGAR's
    concretization uses (instant UNSAFE), thresholds just *above* it
    are the genuinely undecided band where refinement has to work.

    Parameters
    ----------
    model : Sequential
        The network under attack.
    make_risk : callable
        ``make_risk(t)`` builds the risk "output beyond threshold t".
    lower, upper : numpy.ndarray
        Stacked region bounds of shape ``(k, *model.input_shape)``.
    lo, hi : float
        Bracketing thresholds (e.g. the output enclosure's bounds).
    iterations : int, optional
        Bisection steps; the frontier is located to within
        ``(hi - lo) / 2**iterations``.
    steps : int, optional
        PGD steps per probe (see :func:`pgd_in_boxes`).

    Returns
    -------
    float
        The largest probed threshold the attack could still reach
        (``lo`` if even that is unreachable).
    """
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if pgd_in_boxes(model, make_risk(mid), lower, upper, steps=steps) is not None:
            lo = mid
        else:
            hi = mid
    return lo


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
    and the refinement examples: :func:`attack_frontier` locates the
    PGD-reachable maximum, and the returned threshold sits ``band`` of
    the way from there toward ``hi`` (the sound output bound) — low
    enough that bound propagation cannot decide the root, high enough
    that concretization cannot instantly refute it, so a refinement
    loop genuinely has to work.
    """
    frontier = attack_frontier(
        model, make_risk, lower, upper, lo, hi, iterations=iterations, steps=steps
    )
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
    """Projected gradient ascent on the risk margin from seed images.

    Perturbations stay within an L∞ ball of radius ``epsilon`` around the
    seed (and within ``[0, 1]`` pixel range), so a seed satisfying
    ``phi`` keeps satisfying it for perceptually small ``epsilon``.
    Returns the first perturbed image whose output satisfies the risk
    condition, or ``None``.
    """
    if epsilon <= 0.0 or steps <= 0:
        raise ValueError("epsilon and steps must be positive")
    images = np.asarray(images, dtype=float)
    if images.ndim == len(model.input_shape):
        images = images[None, ...]
    alpha = step_size if step_size is not None else 2.5 * epsilon / steps
    program = _attack_program(model)

    for seed in images:
        x = seed.copy()
        for it in range(steps):
            if program is not None:
                output = program.apply(x.reshape(1, -1))
            else:
                output = model.forward(x[None, ...], training=False)
            direction = _risk_gradient_direction(risk, output[0])
            if float(risk.margin(output)[0]) >= 0.0:
                return InputCounterexample(
                    image=x,
                    output=output[0],
                    risk_margin=float(risk.margin(output)[0]),
                    iterations=it,
                )
            if program is not None:
                _, flat_grad = program.value_and_input_gradient(
                    x.reshape(1, -1), direction[None, :]
                )
                grad_in = flat_grad.reshape(x[None, ...].shape)
            else:
                _, grad_in = input_gradient(model, x[None, ...], direction[None, :])
            x = x + alpha * np.sign(grad_in[0])
            x = np.clip(x, seed - epsilon, seed + epsilon)
            x = np.clip(x, 0.0, 1.0)
        output = model.forward(x[None, ...], training=False)
        margin = float(risk.margin(output)[0])
        if margin >= 0.0:
            return InputCounterexample(
                image=x, output=output[0], risk_margin=margin, iterations=steps
            )
    return None
