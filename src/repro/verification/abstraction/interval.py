"""Interval (box) domain over the lowered IR ops.

Soundness invariant (tested with hypothesis): for any ``x`` in the input
box, ``op.apply(x)`` lies in the transformed box.  Besides Lemma 2 sets,
interval propagation supplies the per-neuron pre-activation bounds that
the MILP encoder turns into big-M constants.

There is exactly **one** transformer implementation per op, and it is
batched over a leading region axis (:class:`~repro.verification.sets.BoxBatch`);
the scalar helpers (:func:`transform`, :func:`propagate_box`,
:func:`op_output_bounds`) are thin batch-of-one views of the same code.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ConvOp,
    ElementwiseAffineOp,
    LeakyReLUOp,
    MaxGroupOp,
    MonotoneOp,
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


@register_transformer("interval", AffineOp)
def _affine(domain, op: AffineOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of an affine map (midpoint/radius form)."""
    center = 0.5 * (batch.lower + batch.upper)
    radius = 0.5 * (batch.upper - batch.lower)
    out_center = center @ op.weight.T + op.bias
    out_radius = radius @ np.abs(op.weight).T
    return BoxBatch(out_center - out_radius, out_center + out_radius)


@register_transformer("interval", ElementwiseAffineOp)
def _elementwise_affine(domain, op: ElementwiseAffineOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of a diagonal affine map."""
    a = batch.lower * op.scale + op.shift
    b = batch.upper * op.scale + op.shift
    return BoxBatch(np.minimum(a, b), np.maximum(a, b))


@register_transformer("interval", ConvOp)
def _conv(domain, op: ConvOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of a kernel-form convolution.

    Midpoint/radius arithmetic on the kernel itself — one batched GEMM
    for centers and one with ``|W|`` for radii, never materializing the
    affine matrix.
    """
    n = batch.n_regions
    spatial = (n,) + op.in_shape
    center = (0.5 * (batch.lower + batch.upper)).reshape(spatial)
    radius = (0.5 * (batch.upper - batch.lower)).reshape(spatial)
    out_center = op.apply_spatial(center)
    out_radius = op.apply_spatial(
        radius, np.abs(op.weight), np.zeros_like(op.bias)
    )
    return BoxBatch(
        (out_center - out_radius).reshape(n, -1),
        (out_center + out_radius).reshape(n, -1),
    )


@register_transformer("interval", ReLUOp)
def _relu(domain, op: ReLUOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of ReLU (monotone)."""
    return BoxBatch(np.maximum(batch.lower, 0.0), np.maximum(batch.upper, 0.0))


@register_transformer("interval", LeakyReLUOp)
def _leaky_relu(domain, op: LeakyReLUOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of LeakyReLU (monotone for alpha in [0, 1))."""
    return BoxBatch(op.apply(batch.lower), op.apply(batch.upper))


@register_transformer("interval", MaxGroupOp)
def _max_group(domain, op: MaxGroupOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of grouped max (monotone): one gather per bound."""
    return BoxBatch(op.apply(batch.lower), op.apply(batch.upper))


@register_transformer("interval", ReshapeOp)
def _reshape(domain, op: ReshapeOp, batch: BoxBatch) -> BoxBatch:
    return batch


@register_transformer("interval", MonotoneOp)
def _monotone(domain, op: MonotoneOp, batch: BoxBatch) -> BoxBatch:
    """Exact interval image of an elementwise monotone activation."""
    return BoxBatch(op.apply(batch.lower), op.apply(batch.upper))


class IntervalDomain(AbstractDomain):
    """Box domain: element and hull coincide (a flat ``BoxBatch``)."""

    name = "interval"
    cost_rank = 0
    refines: tuple[str, ...] = ()

    def lift(self, regions: BoxBatch) -> BoxBatch:
        return regions.flat()

    def concretize(self, element: BoxBatch) -> BoxBatch:
        return element

    def extract(self, element: BoxBatch, index: int) -> Box:
        return element.box(index)

    def enclosure_box(self, enclosure: Box) -> Box:
        return enclosure


INTERVAL = register_domain(IntervalDomain())


# -- scalar / per-op conveniences (thin views of the registry) ---------------


def transform(op: PLOp, box: Box) -> Box:
    """Interval transformer for one primitive op (batch of one)."""
    if box.dim != op.in_dim:
        raise ValueError(f"box dim {box.dim} does not match op input {op.in_dim}")
    out = INTERVAL.transform(op, BoxBatch(box.lower[None], box.upper[None]))
    return out.box(0)


def affine_bounds(op: AffineOp, box: Box) -> Box:
    """Exact interval image of an affine map (batch-of-one view)."""
    return transform(op, box)


def relu_bounds(box: Box) -> Box:
    """Exact interval image of ReLU (batch-of-one view)."""
    return transform(ReLUOp(box.dim), box)


def leaky_relu_bounds(op: LeakyReLUOp, box: Box) -> Box:
    """Exact interval image of LeakyReLU (batch-of-one view)."""
    return transform(op, box)


def max_group_bounds(op: MaxGroupOp, box: Box) -> Box:
    """Exact interval image of grouped max (batch-of-one view)."""
    return transform(op, box)


def propagate_box(network: PiecewiseLinearNetwork, box: Box) -> Box:
    """Interval image of the whole network (batch of one)."""
    element = INTERVAL.lift(BoxBatch(box.lower[None], box.upper[None]))
    return INTERVAL.propagate(network, element).box(0)


def op_output_bounds(
    network: PiecewiseLinearNetwork, box: Box
) -> list[tuple[Box, Box]]:
    """Per-op ``(input_box, output_box)`` pairs along the network.

    The input box of op ``i`` is the output box of op ``i-1``; the MILP
    encoder reads pre-activation bounds for ReLU/max ops from here.
    """
    element = INTERVAL.lift(BoxBatch(box.lower[None], box.upper[None]))
    pairs = []
    for op in network.ops:
        out = INTERVAL.transform(op, element)
        pairs.append((element.box(0), out.box(0)))
        element = out
    return pairs

