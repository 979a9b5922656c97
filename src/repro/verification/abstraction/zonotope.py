"""Zonotope domain (affine forms with shared noise symbols).

A zonotope is ``{ center + generators.T @ e  :  e in [-1, 1]^k }``.
Affine ops transform it exactly; ReLU uses the standard minimal-area
(DeepZ-style) transformer that introduces one fresh noise symbol per
unstable neuron.  Because generators are shared across neurons, the
domain tracks *relations* between neurons that plain intervals lose —
which is what makes the derived adjacent-difference bounds
(:mod:`repro.verification.abstraction.octagon`) non-trivial.

The only transformer implementation is batched
(:class:`ZonotopeBatch`: ``n`` zonotopes sharing one rectangular
generator tensor ``(n, k, d)``), registered per op in the domain
registry; :class:`Zonotope` is the per-region enclosure value the
engine caches and screens against.  Regions whose ReLU transformer
would introduce fewer fresh symbols than their batch-mates simply carry
zero generator rows — zero rows contribute nothing to any radius, so
the per-region bounds are identical to a batch-of-one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ConvOp,
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
from repro.verification.sets import Box, BoxBatch


@dataclass(frozen=True)
class Zonotope:
    """``center (d,)`` plus ``generators (k, d)`` over ``e in [-1,1]^k``."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self) -> None:
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        generators = np.asarray(self.generators, dtype=float)
        if generators.size == 0:
            generators = np.zeros((0, center.shape[0]))
        if generators.ndim != 2 or generators.shape[1] != center.shape[0]:
            raise ValueError(
                f"generators must be (k, {center.shape[0]}), got {generators.shape}"
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "generators", generators)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def num_generators(self) -> int:
        return self.generators.shape[0]

    @classmethod
    def from_box(cls, box: Box) -> "Zonotope":
        """One independent noise symbol per coordinate."""
        radius = box.radius()
        return cls(box.center(), np.diag(radius))

    def radius(self) -> np.ndarray:
        return np.abs(self.generators).sum(axis=0)

    def to_box(self) -> Box:
        r = self.radius()
        return Box(self.center - r, self.center + r)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Concrete points inside the zonotope."""
        e = rng.uniform(-1.0, 1.0, size=(n, self.num_generators))
        return self.center[None, :] + e @ self.generators

    def linear_value_bounds(self, a: np.ndarray) -> tuple[float, float]:
        """Exact bounds of ``a . x`` over the zonotope."""
        a = np.asarray(a, dtype=float)
        mid = float(a @ self.center)
        rad = float(np.abs(self.generators @ a).sum())
        return mid - rad, mid + rad


#: refuse dense generator stacks (and their conv columns) bigger than
#: this many entries: one image-space lift allocates ``n * d * d`` of them
MAX_GENERATOR_ENTRIES = 64_000_000


def _check_generator_entries(entries: int, what: str) -> None:
    if entries > MAX_GENERATOR_ENTRIES:
        raise ValueError(
            f"{what} needs {entries} dense generator entries "
            f"(limit {MAX_GENERATOR_ENTRIES}); propagate image-space regions "
            f"with the interval domain or split them into smaller batches"
        )


@dataclass(frozen=True)
class ZonotopeBatch:
    """``n`` zonotopes: ``center (n, d)`` plus ``generators (n, k, d)``.

    All regions share the generator count ``k``; regions needing fewer
    symbols pad with zero rows (sound and bound-identical — a zero row
    adds exactly 0.0 to every radius sum).
    """

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        generators = np.asarray(self.generators, dtype=float)
        if center.ndim != 2:
            raise ValueError(f"center must be (n, d), got {center.shape}")
        if generators.size == 0:
            generators = np.zeros((center.shape[0], 0, center.shape[1]))
        if generators.ndim != 3 or generators.shape[::2] != center.shape:
            raise ValueError(
                f"generators must be (n={center.shape[0]}, k, d={center.shape[1]}), "
                f"got {generators.shape}"
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "generators", generators)

    @property
    def n_regions(self) -> int:
        return self.center.shape[0]

    @property
    def dim(self) -> int:
        return self.center.shape[1]

    @property
    def num_generators(self) -> int:
        return self.generators.shape[1]

    @classmethod
    def from_box_batch(cls, batch: BoxBatch) -> "ZonotopeBatch":
        """One independent noise symbol per coordinate, per region."""
        batch = batch.flat()
        n, d = batch.lower.shape
        _check_generator_entries(n * d * d, f"lifting {n} boxes of dimension {d}")
        radius = 0.5 * (batch.upper - batch.lower)
        generators = np.zeros((n, d, d))
        idx = np.arange(d)
        generators[:, idx, idx] = radius
        return cls(0.5 * (batch.lower + batch.upper), generators)

    def zonotope(self, region: int) -> Zonotope:
        """Member ``region`` as a scalar :class:`Zonotope`."""
        return Zonotope(self.center[region], self.generators[region])

    def radius(self) -> np.ndarray:
        return np.abs(self.generators).sum(axis=1)

    def to_box_batch(self) -> BoxBatch:
        r = self.radius()
        return BoxBatch(self.center - r, self.center + r)

    def linear_value_bounds(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-region exact bounds of ``a . x``: two ``(n,)`` arrays."""
        a = np.asarray(a, dtype=float)
        mid = self.center @ a
        rad = np.abs(self.generators @ a).sum(axis=1)
        return mid - rad, mid + rad


@register_transformer("zonotope", AffineOp)
def _affine(domain, op: AffineOp, batch: ZonotopeBatch) -> ZonotopeBatch:
    return ZonotopeBatch(
        batch.center @ op.weight.T + op.bias,
        batch.generators @ op.weight.T,
    )


@register_transformer("zonotope", ElementwiseAffineOp)
def _elementwise_affine(
    domain, op: ElementwiseAffineOp, batch: ZonotopeBatch
) -> ZonotopeBatch:
    return ZonotopeBatch(
        batch.center * op.scale + op.shift,
        batch.generators * op.scale[None, None, :],
    )


@register_transformer("zonotope", ConvOp)
def _conv(domain, op: ConvOp, batch: ZonotopeBatch) -> ZonotopeBatch:
    """Exact zonotope image of a convolution, kept in kernel form.

    The center goes through the op; generator rows go through the
    bias-free product with ``W`` as one stacked ``(n * k)`` column batch.
    """
    n, k = batch.n_regions, batch.num_generators
    center = op.apply_spatial(batch.center).reshape(n, -1)
    if k:
        _check_generator_entries(
            n * k * op.plan.size,
            f"the conv columns of {n} zonotopes with {k} generators "
            f"of dimension {op.in_dim}",
        )
        w_flat = op.weight.reshape(op.weight.shape[0], -1)
        gens = np.matmul(
            w_flat, op.columns(batch.generators.reshape(n * k, -1))
        ).reshape(n, k, -1)
    else:
        gens = np.zeros((n, 0, center.shape[1]))
    return ZonotopeBatch(center, gens)


def _relu_like(batch: ZonotopeBatch, alpha: float) -> ZonotopeBatch:
    """Batched ReLU/LeakyReLU transformer.

    For an unstable neuron with pre-activation range ``[lo, hi]``
    (``lo < 0 < hi``), the activation output is enclosed by the affine
    form ``lam * x + mu ± beta`` with

        lam  = (hi - alpha*lo) / (hi - lo)
        beta = (1 - alpha) * hi * (-lo) / (hi - lo) / 2
        mu   = beta

    which is the minimal-area parallelogram enclosure.  Fresh noise
    symbols are appended as one ``(n, d, d)`` diagonal block per layer —
    diagonal entries are the per-region ``beta`` (zero for stable
    neurons), so each region's bounds equal a batch-of-one run's.
    """
    hull = batch.to_box_batch()
    lo, hi = hull.lower, hull.upper
    n, d = lo.shape

    lam = np.ones((n, d))
    mu = np.zeros((n, d))
    beta = np.zeros((n, d))

    stable_neg = hi <= 0.0
    lam[stable_neg] = alpha

    unstable = (lo < 0.0) & (hi > 0.0)
    if np.any(unstable):
        lo_u, hi_u = lo[unstable], hi[unstable]
        lam_u = (hi_u - alpha * lo_u) / (hi_u - lo_u)
        beta_u = 0.5 * (1.0 - alpha) * hi_u * (-lo_u) / (hi_u - lo_u)
        lam[unstable] = lam_u
        mu[unstable] = beta_u
        beta[unstable] = beta_u

    center = lam * batch.center + mu
    generators = batch.generators * lam[:, None, :]
    if np.any(beta > 0.0):
        fresh = np.zeros((n, d, d))
        idx = np.arange(d)
        fresh[:, idx, idx] = beta
        generators = np.concatenate([generators, fresh], axis=1)
    return ZonotopeBatch(center, generators)


@register_transformer("zonotope", ReLUOp)
def _relu(domain, op: ReLUOp, batch: ZonotopeBatch) -> ZonotopeBatch:
    return _relu_like(batch, 0.0)


@register_transformer("zonotope", LeakyReLUOp)
def _leaky_relu(domain, op: LeakyReLUOp, batch: ZonotopeBatch) -> ZonotopeBatch:
    return _relu_like(batch, op.alpha)


@register_transformer("zonotope", MaxGroupOp)
def _max_group(domain, op: MaxGroupOp, batch: ZonotopeBatch) -> ZonotopeBatch:
    """Batched grouped max, vectorized over regions.

    Per output group, regions where one member dominates keep that
    member's exact affine form; the rest get a fresh symbol spanning the
    interval hull of the group maximum.
    """
    hull = batch.to_box_batch()
    n = batch.n_regions
    out_dim = op.out_dim
    center = np.zeros((n, out_dim))
    keep = np.zeros((n, batch.num_generators, out_dim))
    fresh = np.zeros((n, out_dim, out_dim))
    for j, group in enumerate(op.groups):
        lows = hull.lower[:, group]  # (n, |g|)
        highs = hull.upper[:, group]
        best = np.argmax(lows, axis=1)  # (n,)
        rows = np.arange(n)
        best_low = lows[rows, best]
        # highest upper bound among the *other* members, per region
        masked = highs.copy()
        masked[rows, best] = -np.inf
        other_high = masked.max(axis=1) if group.size > 1 else np.full(n, -np.inf)
        dominates = best_low >= other_high

        g_best = group[best]  # (n,) flat indices of the dominating member
        center[:, j] = np.where(
            dominates,
            batch.center[rows, g_best],
            0.5 * (lows.max(axis=1) + highs.max(axis=1)),
        )
        keep[:, :, j] = np.where(
            dominates[:, None], batch.generators[rows, :, g_best], 0.0
        )
        fresh[:, j, j] = np.where(
            dominates, 0.0, 0.5 * (highs.max(axis=1) - lows.max(axis=1))
        )
    if not np.any(fresh):  # every group dominated in every region
        return ZonotopeBatch(center, keep)
    return ZonotopeBatch(center, np.concatenate([keep, fresh], axis=1))


@register_transformer("zonotope", ReshapeOp)
def _reshape(domain, op: ReshapeOp, batch: ZonotopeBatch) -> ZonotopeBatch:
    return batch


class ZonotopeDomain(AbstractDomain):
    """Relational domain of affine forms over shared noise symbols."""

    name = "zonotope"
    cost_rank = 2
    refines: tuple[str, ...] = ()

    def lift(self, regions: BoxBatch) -> ZonotopeBatch:
        return ZonotopeBatch.from_box_batch(regions)

    def concretize(self, element: ZonotopeBatch) -> BoxBatch:
        return element.to_box_batch()

    def extract(self, element: ZonotopeBatch, index: int) -> Zonotope:
        return element.zonotope(index)

    def linear_lower_bounds(
        self, enclosures: Sequence[Zonotope], a: np.ndarray
    ) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        bounds = np.empty((len(enclosures), len(a)))
        for i, enclosure in enumerate(enclosures):
            for r, row in enumerate(a):
                bounds[i, r] = enclosure.linear_value_bounds(row)[0]
        return bounds

    def enclosure_box(self, enclosure: Zonotope) -> Box:
        return enclosure.to_box()

    def feature_set(self, enclosure: Zonotope):
        """Interval hull plus zonotope-derived adjacent-difference bounds
        (a :class:`~repro.verification.sets.BoxWithDiffs`) when the
        dimension admits them — the record the paper's Section V asks
        for; a plain box in one dimension."""
        if enclosure.dim < 2:
            return enclosure.to_box()
        from repro.verification.abstraction.octagon import (
            box_with_diffs_from_zonotope,
        )

        return box_with_diffs_from_zonotope(enclosure)


ZONOTOPE = register_domain(ZonotopeDomain())


# -- scalar conveniences (batch-of-one views) --------------------------------


def transform(zonotope: Zonotope, op: PLOp) -> Zonotope:
    """Zonotope transformer for one primitive op (batch of one)."""
    if zonotope.dim != op.in_dim:
        raise ValueError(f"zonotope dim {zonotope.dim} vs op input {op.in_dim}")
    out = ZONOTOPE.transform(
        op, ZonotopeBatch(zonotope.center[None], zonotope.generators[None])
    )
    return out.zonotope(0)


def propagate_zonotope(
    network: PiecewiseLinearNetwork, start: Zonotope | Box
) -> Zonotope:
    """Zonotope image of the whole network (batch of one)."""
    zonotope = Zonotope.from_box(start) if isinstance(start, Box) else start
    element = ZonotopeBatch(zonotope.center[None], zonotope.generators[None])
    return ZONOTOPE.propagate(network, element).zonotope(0)

