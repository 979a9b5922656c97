"""Octagon-style adjacent-difference domain.

Section V of the paper: box abstraction alone is usually too coarse, so
additionally record the minimum and maximum *difference between adjacent
neurons* ``n_{i+1} - n_i``.  This module provides that record two ways:

- :class:`OctagonDomain` — a first-class registered domain whose
  batched element :class:`OctagonBatch` carries per-region interval
  hulls *plus* adjacent-difference bounds through every primitive op.
  The box half of every transformer is identical to the interval
  domain's (so octagon enclosures are never looser than interval —
  ``refines = ("interval",)``), while the difference half exploits op
  structure: affine rows subtract before interval evaluation, relu-like
  ops use their Lipschitz envelope, everything else falls back to the
  (always sound) box-difference hull.
- :func:`box_with_diffs_from_zonotope` — the legacy derivation of
  difference bounds from a propagated zonotope, still the tightest
  source for static feature sets and used by the zonotope domain's
  ``feature_set``.

Screening over an octagon enclosure solves a tiny LP over the box plus
difference constraints when SciPy is available (strictly tighter than
the box bound), and soundly falls back to the box bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ConvOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    MaxGroupOp,
    MonotoneOp,
    ReLUOp,
    ReshapeOp,
)
from repro.verification.abstraction.domain import (
    AbstractDomain,
    register_domain,
    register_transformer,
)
from repro.verification.abstraction.interval import INTERVAL
from repro.verification.abstraction.zonotope import Zonotope
from repro.verification.sets import Box, BoxBatch, BoxWithDiffs


def adjacent_difference_bounds(zonotope: Zonotope) -> tuple[np.ndarray, np.ndarray]:
    """Sound bounds on ``x[i+1] - x[i]`` over a zonotope."""
    if zonotope.dim < 2:
        raise ValueError("need at least 2 dimensions for adjacent differences")
    center_diff = np.diff(zonotope.center)
    gen_diff = np.diff(zonotope.generators, axis=1) if zonotope.num_generators else (
        np.zeros((0, zonotope.dim - 1))
    )
    radius = np.abs(gen_diff).sum(axis=0)
    return center_diff - radius, center_diff + radius


def box_with_diffs_from_zonotope(zonotope: Zonotope) -> BoxWithDiffs:
    """Interval hull plus zonotope-derived adjacent-difference bounds."""
    box = zonotope.to_box()
    dlo, dhi = adjacent_difference_bounds(zonotope)
    return BoxWithDiffs(box, dlo, dhi)


def box_with_diffs_from_box(box: Box) -> BoxWithDiffs:
    """Difference bounds implied by an interval box alone (the coarse case)."""
    if box.dim < 2:
        raise ValueError("need at least 2 dimensions for adjacent differences")
    dlo = box.lower[1:] - box.upper[:-1]
    dhi = box.upper[1:] - box.lower[:-1]
    return BoxWithDiffs(box, dlo, dhi)


@dataclass(frozen=True)
class OctagonBatch:
    """``n`` octagon-lite elements: box hulls plus adjacent-diff bounds.

    ``box`` is a flat ``(n, d)`` :class:`~repro.verification.sets.BoxBatch`;
    ``diff_lower`` / ``diff_upper`` are ``(n, d-1)`` bounds on
    ``x[i+1] - x[i]`` per region (empty for ``d == 1``).
    """

    box: BoxBatch
    diff_lower: np.ndarray
    diff_upper: np.ndarray

    def __post_init__(self) -> None:
        dlo = np.asarray(self.diff_lower, dtype=float)
        dhi = np.asarray(self.diff_upper, dtype=float)
        n, d = self.box.lower.shape
        if dlo.shape != (n, max(d - 1, 0)) or dhi.shape != dlo.shape:
            raise ValueError(
                f"difference bounds must be ({n}, {max(d - 1, 0)}), got "
                f"{dlo.shape}/{dhi.shape}"
            )
        object.__setattr__(self, "diff_lower", dlo)
        object.__setattr__(self, "diff_upper", dhi)

    @property
    def n_regions(self) -> int:
        return self.box.n_regions

    @property
    def dim(self) -> int:
        return self.box.lower.shape[1]


def _box_diffs(box: BoxBatch) -> tuple[np.ndarray, np.ndarray]:
    """The difference bounds a box alone implies (the coarse fallback)."""
    return (
        box.lower[:, 1:] - box.upper[:, :-1],
        box.upper[:, 1:] - box.lower[:, :-1],
    )


def _with_box_fallback(
    out_box: BoxBatch,
    dlo: np.ndarray | None = None,
    dhi: np.ndarray | None = None,
) -> OctagonBatch:
    """Intersect derived difference bounds with the box-implied hull.

    Both bound sources are sound for the same quantity, but they are
    computed through differently-associated float expressions, so on
    degenerate (point) regions the intersection can cross by rounding
    error — collapse such crossings to the midpoint.
    """
    base_lo, base_hi = _box_diffs(out_box)
    if dlo is not None:
        base_lo = np.maximum(base_lo, dlo)
        base_hi = np.minimum(base_hi, dhi)
        crossed = base_lo > base_hi
        if np.any(crossed):
            mid = 0.5 * (base_lo + base_hi)
            base_lo = np.where(crossed, mid, base_lo)
            base_hi = np.where(crossed, mid, base_hi)
    return OctagonBatch(out_box, base_lo, base_hi)


@register_transformer("octagon", AffineOp)
def _affine(domain, op: AffineOp, element: OctagonBatch) -> OctagonBatch:
    """Box half exactly as interval; diff half from subtracted rows.

    ``y[j+1] - y[j] = (W[j+1] - W[j]) . x + (b[j+1] - b[j])`` — interval
    evaluation of the *row difference* keeps cancellation between
    adjacent rows that differencing the output box throws away.
    """
    out_box = INTERVAL.transform(op, element.box)
    if op.out_dim < 2:
        return _with_box_fallback(out_box)
    w_diff = np.diff(op.weight, axis=0)  # (out-1, in)
    b_diff = np.diff(op.bias)
    center = 0.5 * (element.box.lower + element.box.upper)
    radius = 0.5 * (element.box.upper - element.box.lower)
    mid = center @ w_diff.T + b_diff
    rad = radius @ np.abs(w_diff).T
    return _with_box_fallback(out_box, mid - rad, mid + rad)


@register_transformer("octagon", ElementwiseAffineOp)
def _elementwise_affine(
    domain, op: ElementwiseAffineOp, element: OctagonBatch
) -> OctagonBatch:
    out_box = INTERVAL.transform(op, element.box)
    if op.out_dim < 2:
        return _with_box_fallback(out_box)
    # where adjacent coordinates share a scale, the input diff maps
    # exactly: s * (x[i+1] - x[i]) + (t[i+1] - t[i])
    s_next, s_prev = op.scale[1:], op.scale[:-1]
    t_diff = np.diff(op.shift)
    shared = s_next == s_prev
    a = s_next * element.diff_lower + t_diff
    b = s_next * element.diff_upper + t_diff
    mapped_lo = np.where(shared, np.minimum(a, b), -np.inf)
    mapped_hi = np.where(shared, np.maximum(a, b), np.inf)
    return _with_box_fallback(out_box, mapped_lo, mapped_hi)


def _lipschitz_diffs(
    element: OctagonBatch, lo_slope: float, hi_slope: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diff bounds through an elementwise map with slope in a range.

    For ``f`` with ``f' in [lo_slope, hi_slope]`` (``0 <= lo <= hi``),
    ``f(a) - f(b)`` lies between the extreme slopes applied to
    ``a - b``, whichever side of zero the difference is on.
    """
    dlo, dhi = element.diff_lower, element.diff_upper
    lower = np.minimum(lo_slope * dlo, hi_slope * dlo)
    upper = np.maximum(lo_slope * dhi, hi_slope * dhi)
    return lower, upper


@register_transformer("octagon", ReLUOp)
def _relu(domain, op: ReLUOp, element: OctagonBatch) -> OctagonBatch:
    out_box = INTERVAL.transform(op, element.box)
    if op.out_dim < 2:
        return _with_box_fallback(out_box)
    dlo, dhi = _lipschitz_diffs(element, 0.0, 1.0)
    return _with_box_fallback(out_box, dlo, dhi)


@register_transformer("octagon", LeakyReLUOp)
def _leaky_relu(domain, op: LeakyReLUOp, element: OctagonBatch) -> OctagonBatch:
    out_box = INTERVAL.transform(op, element.box)
    if op.out_dim < 2:
        return _with_box_fallback(out_box)
    dlo, dhi = _lipschitz_diffs(element, op.alpha, 1.0)
    return _with_box_fallback(out_box, dlo, dhi)


@register_transformer(
    "octagon", MaxGroupOp, ConvOp, ReshapeOp, MonotoneOp
)
def _box_only(domain, op, element: OctagonBatch) -> OctagonBatch:
    """Ops with no difference-aware transformer: box exact, diffs coarse."""
    return _with_box_fallback(INTERVAL.transform(op, element.box))


def _lp_lower_bound(enclosure: BoxWithDiffs, a: np.ndarray) -> float | None:
    """``min a . y`` over box + difference constraints via a tiny LP.

    ``None`` unless the LP solved to optimality (the box bound stands).
    """
    # imported here: the solver package imports the encoders, which
    # import this domain
    from repro.verification.milp.model import MILPArrays
    from repro.verification.solver.lp import solve_lp_relaxation

    a_ub, b_ub = enclosure.linear_constraints()
    dim = enclosure.dim
    result = solve_lp_relaxation(
        MILPArrays(
            c=np.asarray(a, dtype=float),
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=np.zeros((0, dim)),
            b_eq=np.zeros(0),
            lower=enclosure.box.lower,
            upper=enclosure.box.upper,
            binary_mask=np.zeros(dim, dtype=bool),
        )
    )
    return result.objective if result.feasible else None


class OctagonDomain(AbstractDomain):
    """Box hulls plus adjacent-difference bounds, batched per region."""

    name = "octagon"
    cost_rank = 1
    refines: tuple[str, ...] = ("interval",)

    def lift(self, regions: BoxBatch) -> OctagonBatch:
        box = regions.flat()
        dlo, dhi = _box_diffs(box)
        return OctagonBatch(box, dlo, dhi)

    def concretize(self, element: OctagonBatch) -> BoxBatch:
        return element.box

    def extract(self, element: OctagonBatch, index: int) -> "Box | BoxWithDiffs":
        box = element.box.box(index)
        if element.dim < 2:
            return box
        return BoxWithDiffs(
            box, element.diff_lower[index], element.diff_upper[index]
        )

    def linear_lower_bounds(self, enclosures, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        bounds = super().linear_lower_bounds(enclosures, a)
        for i, enclosure in enumerate(enclosures):
            if not isinstance(enclosure, BoxWithDiffs):
                continue
            for r, row in enumerate(a):
                tightened = _lp_lower_bound(enclosure, row)
                if tightened is not None:
                    # the LP feasible region is a subset of the box, so
                    # its minimum can only be larger (sound either way)
                    bounds[i, r] = max(bounds[i, r], tightened)
        return bounds

    def enclosure_box(self, enclosure) -> Box:
        return enclosure if isinstance(enclosure, Box) else enclosure.box

    def feature_set(self, enclosure):
        return enclosure


OCTAGON = register_domain(OctagonDomain())
