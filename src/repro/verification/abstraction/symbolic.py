"""Symbolic linear bound propagation (the paper's refs [19], [21]).

Each neuron carries *linear* lower/upper bounds in terms of the input
variables: ``lower_a . x + lower_b <= z <= upper_a . x + upper_b`` for
every ``x`` in the input box.  Affine layers compose exactly; ReLU
relaxes per neuron using its concretized pre-activation range (the
DeepPoly/Neurify-style relaxation):

- stable (``lo >= 0``): bounds pass through unchanged;
- dead  (``hi <= 0``): both bounds become the constant 0;
- unstable: ``relu(z) <= s * (U(x) - lo)`` and ``relu(z) >= s * L(x)``
  with slope ``s = hi / (hi - lo)`` — both sound for ``z in [lo, hi]``.

The single transformer implementation is batched over a leading region
axis (:class:`SymbolicBatch`); as in Neurify, a concrete interval state
runs *inside* the element and is intersected with the concretized
linear bounds before every op, so symbolic enclosures are sound and
never looser than plain interval propagation
(``refines = ("interval",)``).  The scalar :class:`SymbolicBounds` API
is a batch-of-one view of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    MaxGroupOp,
    PiecewiseLinearNetwork,
    PLOp,
    ReLUOp,
    ReshapeOp,
)
from repro.verification.abstraction.domain import (
    AbstractDomain,
    register_domain,
    register_transformer,
)
from repro.verification.abstraction.interval import INTERVAL
from repro.verification.sets import Box, BoxBatch


@dataclass(frozen=True)
class SymbolicBounds:
    """Per-neuron linear bounds over a fixed input box (batch-of-one view).

    ``lower_a`` / ``upper_a`` have shape ``(d, n)`` (d neurons, n input
    variables); the invariant ``L(x) <= z <= U(x)`` holds for every
    ``x`` in ``input_box``.
    """

    input_box: Box
    lower_a: np.ndarray
    lower_b: np.ndarray
    upper_a: np.ndarray
    upper_b: np.ndarray

    def __post_init__(self) -> None:
        n = self.input_box.dim
        d = self.lower_b.shape[0]
        for name, arr, shape in (
            ("lower_a", self.lower_a, (d, n)),
            ("upper_a", self.upper_a, (d, n)),
            ("lower_b", self.lower_b, (d,)),
            ("upper_b", self.upper_b, (d,)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @property
    def dim(self) -> int:
        return self.lower_b.shape[0]

    @classmethod
    def identity(cls, box: Box) -> "SymbolicBounds":
        eye = np.eye(box.dim)
        zero = np.zeros(box.dim)
        return cls(box, eye.copy(), zero.copy(), eye.copy(), zero.copy())

    def concretize(self) -> Box:
        """Tightest interval implied by the linear bounds over the box."""
        lower, upper = _concretize_arrays(
            self.lower_a[None],
            self.lower_b[None],
            self.upper_a[None],
            self.upper_b[None],
            self.input_box.lower[None],
            self.input_box.upper[None],
        )
        return Box(lower[0], upper[0])


@dataclass(frozen=True)
class SymbolicBatch:
    """``n`` regions' symbolic bounds plus their concrete interval state.

    ``lower_a`` / ``upper_a`` are ``(n, d, in)``; ``lower_b`` /
    ``upper_b`` are ``(n, d)``; ``concrete`` is the running interval
    state the transformers intersect with (initially the input box).
    """

    input_box: BoxBatch
    lower_a: np.ndarray
    lower_b: np.ndarray
    upper_a: np.ndarray
    upper_b: np.ndarray
    concrete: BoxBatch

    @property
    def n_regions(self) -> int:
        return self.lower_b.shape[0]

    @property
    def dim(self) -> int:
        return self.lower_b.shape[1]


def _concretize_arrays(lower_a, lower_b, upper_a, upper_b, lo_in, hi_in):
    """Batched tightest intervals implied by linear bounds over boxes."""
    lo = lo_in[:, None, :]
    hi = hi_in[:, None, :]
    lower = lower_b + np.where(lower_a >= 0.0, lower_a * lo, lower_a * hi).sum(axis=-1)
    upper = upper_b + np.where(upper_a >= 0.0, upper_a * hi, upper_a * lo).sum(axis=-1)
    # numerical guard: relaxations can cross by rounding error
    return np.minimum(lower, upper), upper


def _guarded_intersect(a: BoxBatch, b: BoxBatch) -> BoxBatch:
    """Intersection tolerant to rounding-level crossings of sound boxes."""
    lower = np.maximum(a.lower, b.lower)
    upper = np.minimum(a.upper, b.upper)
    mid = 0.5 * (lower + upper)
    crossed = lower > upper
    lower = np.where(crossed, mid, lower)
    upper = np.where(crossed, mid, upper)
    return BoxBatch(lower, upper)


def _refined_pre(element: SymbolicBatch) -> BoxBatch:
    """Concrete pre-activation bounds: linear bounds ∩ interval state."""
    lower, upper = _concretize_arrays(
        element.lower_a,
        element.lower_b,
        element.upper_a,
        element.upper_b,
        element.input_box.lower,
        element.input_box.upper,
    )
    return _guarded_intersect(BoxBatch(lower, upper), element.concrete)


def _affine_core(lower_a, lower_b, upper_a, upper_b, weight, bias):
    w_pos = np.maximum(weight, 0.0)
    w_neg = np.minimum(weight, 0.0)
    return (
        np.matmul(w_pos, lower_a) + np.matmul(w_neg, upper_a),
        lower_b @ w_pos.T + upper_b @ w_neg.T + bias,
        np.matmul(w_pos, upper_a) + np.matmul(w_neg, lower_a),
        upper_b @ w_pos.T + lower_b @ w_neg.T + bias,
    )


def _relu_core(lower_a, lower_b, upper_a, upper_b, alpha, pre_lo, pre_hi):
    """Batched DeepPoly-style relu relaxation given pre-activation bounds."""
    lower_a = lower_a.copy()
    lower_b = lower_b.copy()
    upper_a = upper_a.copy()
    upper_b = upper_b.copy()

    dead = pre_hi <= 0.0
    lower_a[dead] *= alpha
    lower_b[dead] *= alpha
    upper_a[dead] *= alpha
    upper_b[dead] *= alpha

    unstable = (pre_lo < 0.0) & (pre_hi > 0.0)
    if np.any(unstable):
        lo_u = pre_lo[unstable]
        hi_u = pre_hi[unstable]
        slope = (hi_u - alpha * lo_u) / (hi_u - lo_u)
        # upper: act(z) <= slope * (U(x) - lo) + alpha * lo
        upper_a[unstable] *= slope[:, None]
        upper_b[unstable] = slope * (upper_b[unstable] - lo_u) + alpha * lo_u
        # lower: act(z) >= s' * L(x) for any s' in [alpha, 1]; use slope
        lower_slope = np.clip(slope, alpha, 1.0)
        lower_a[unstable] *= lower_slope[:, None]
        lower_b[unstable] *= lower_slope

    return lower_a, lower_b, upper_a, upper_b


def _max_group_core(lower_a, lower_b, upper_a, upper_b, op, pre_lo, pre_hi):
    """Interval fallback per group, exact when one member dominates."""
    n, _, n_in = lower_a.shape
    out_dim = op.out_dim
    new_lower_a = np.zeros((n, out_dim, n_in))
    new_lower_b = np.zeros((n, out_dim))
    new_upper_a = np.zeros((n, out_dim, n_in))
    new_upper_b = np.zeros((n, out_dim))
    rows = np.arange(n)
    for j, group in enumerate(op.groups):
        lows = pre_lo[:, group]
        highs = pre_hi[:, group]
        best = np.argmax(lows, axis=1)
        masked = highs.copy()
        masked[rows, best] = -np.inf
        other_high = (
            masked.max(axis=1) if group.size > 1 else np.full(n, -np.inf)
        )
        dominates = lows[rows, best] >= other_high
        g_best = group[best]
        new_lower_a[:, j] = np.where(
            dominates[:, None], lower_a[rows, g_best], 0.0
        )
        new_upper_a[:, j] = np.where(
            dominates[:, None], upper_a[rows, g_best], 0.0
        )
        new_lower_b[:, j] = np.where(
            dominates, lower_b[rows, g_best], lows.max(axis=1)
        )
        new_upper_b[:, j] = np.where(
            dominates, upper_b[rows, g_best], highs.max(axis=1)
        )
    return new_lower_a, new_lower_b, new_upper_a, new_upper_b


def _step(element: SymbolicBatch, op, core) -> SymbolicBatch:
    """One transformer step: refine, apply the core, advance the
    concrete state through the interval domain."""
    refined = _refined_pre(element)
    lower_a, lower_b, upper_a, upper_b = core(refined)
    concrete = INTERVAL.transform(op, refined)
    return SymbolicBatch(
        element.input_box, lower_a, lower_b, upper_a, upper_b, concrete
    )


@register_transformer("symbolic", AffineOp)
def _affine(domain, op: AffineOp, element: SymbolicBatch) -> SymbolicBatch:
    return _step(
        element,
        op,
        lambda refined: _affine_core(
            element.lower_a,
            element.lower_b,
            element.upper_a,
            element.upper_b,
            op.weight,
            op.bias,
        ),
    )


@register_transformer("symbolic", ElementwiseAffineOp)
def _elementwise_affine(
    domain, op: ElementwiseAffineOp, element: SymbolicBatch
) -> SymbolicBatch:
    s_pos = np.maximum(op.scale, 0.0)[None, :, None]
    s_neg = np.minimum(op.scale, 0.0)[None, :, None]
    return _step(
        element,
        op,
        lambda refined: (
            s_pos * element.lower_a + s_neg * element.upper_a,
            element.lower_b * np.maximum(op.scale, 0.0)
            + element.upper_b * np.minimum(op.scale, 0.0)
            + op.shift,
            s_pos * element.upper_a + s_neg * element.lower_a,
            element.upper_b * np.maximum(op.scale, 0.0)
            + element.lower_b * np.minimum(op.scale, 0.0)
            + op.shift,
        ),
    )


@register_transformer("symbolic", ReLUOp)
def _relu(domain, op: ReLUOp, element: SymbolicBatch) -> SymbolicBatch:
    return _step(
        element,
        op,
        lambda refined: _relu_core(
            element.lower_a,
            element.lower_b,
            element.upper_a,
            element.upper_b,
            0.0,
            refined.lower,
            refined.upper,
        ),
    )


@register_transformer("symbolic", LeakyReLUOp)
def _leaky_relu(domain, op: LeakyReLUOp, element: SymbolicBatch) -> SymbolicBatch:
    return _step(
        element,
        op,
        lambda refined: _relu_core(
            element.lower_a,
            element.lower_b,
            element.upper_a,
            element.upper_b,
            op.alpha,
            refined.lower,
            refined.upper,
        ),
    )


@register_transformer("symbolic", MaxGroupOp)
def _max_group(domain, op: MaxGroupOp, element: SymbolicBatch) -> SymbolicBatch:
    return _step(
        element,
        op,
        lambda refined: _max_group_core(
            element.lower_a,
            element.lower_b,
            element.upper_a,
            element.upper_b,
            op,
            refined.lower,
            refined.upper,
        ),
    )


@register_transformer("symbolic", ReshapeOp)
def _reshape(domain, op: ReshapeOp, element: SymbolicBatch) -> SymbolicBatch:
    return element


class SymbolicDomain(AbstractDomain):
    """Linear input-relative bounds with a concrete interval sidecar."""

    name = "symbolic"
    cost_rank = 3
    refines: tuple[str, ...] = ("interval",)

    def lift(self, regions: BoxBatch) -> SymbolicBatch:
        box = regions.flat()
        n, d = box.lower.shape
        eye = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        zero = np.zeros((n, d))
        return SymbolicBatch(box, eye, zero.copy(), eye.copy(), zero.copy(), box)

    def concretize(self, element: SymbolicBatch) -> BoxBatch:
        return _refined_pre(element)

    def extract(self, element: SymbolicBatch, index: int) -> Box:
        return self.concretize(element).box(index)

    def enclosure_box(self, enclosure: Box) -> Box:
        return enclosure


SYMBOLIC = register_domain(SymbolicDomain())


# -- scalar conveniences (batch-of-one views) --------------------------------


def transform(
    bounds: SymbolicBounds, op: PLOp, pre: Box | None = None
) -> SymbolicBounds:
    """Symbolic transformer for one primitive op (batch of one).

    ``pre`` optionally supplies refined concrete pre-activation bounds
    (used by :func:`propagate_symbolic` to fold interval state back in).
    """
    if bounds.dim != op.in_dim:
        raise ValueError(f"bounds dim {bounds.dim} vs op input {op.in_dim}")
    pre_box = pre if pre is not None else bounds.concretize()
    element = SymbolicBatch(
        BoxBatch(bounds.input_box.lower[None], bounds.input_box.upper[None]),
        bounds.lower_a[None],
        bounds.lower_b[None],
        bounds.upper_a[None],
        bounds.upper_b[None],
        BoxBatch(pre_box.lower[None], pre_box.upper[None]),
    )
    out = SYMBOLIC.transform(op, element)
    return SymbolicBounds(
        bounds.input_box,
        out.lower_a[0],
        out.lower_b[0],
        out.upper_a[0],
        out.upper_b[0],
    )


def propagate_symbolic(network: PiecewiseLinearNetwork, box: Box) -> Box:
    """Symbolic image of the whole network over an input box.

    As in Neurify, a concrete interval state runs alongside the linear
    bounds and the two are intersected at every step — so the result is
    sound and never looser than plain interval propagation, while
    retaining the input correlations that make affine chains exact.
    """
    element = SYMBOLIC.lift(BoxBatch(box.lower[None], box.upper[None]))
    return SYMBOLIC.extract(SYMBOLIC.propagate(network, element), 0)
