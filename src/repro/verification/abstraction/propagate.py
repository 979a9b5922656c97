"""Input-region propagation to a cut layer over the lowered IR.

This is the static analysis of the paper's Lemma 2 (and footnote 1):
starting from the raw input domain — e.g. ``[0, 1]`` per pixel — push a
batch of regions through *every* layer (convolutions, pooling, batch
normalization, smooth activations included) down to the cut layer
``l``, obtaining sound over-approximations ``S`` of ``f^(l)`` images.

The canonical entry point is :func:`propagate_regions`: it lowers the
prefix **once** (cached, see :mod:`repro.verification.ir`) and runs the
chosen abstract domain's batched transformers over the program — one
code path for every region count and every domain.
"""

from __future__ import annotations

from repro.nn.sequential import Sequential
from repro.verification.abstraction.domain import get_domain
from repro.verification.ir import lowered_prefix
from repro.verification.sets import BoxBatch, IntervalBoundError


def propagate_regions(
    model: Sequential,
    regions: BoxBatch,
    to_layer: int,
    domain: str = "interval",
):
    """Push ``n`` input regions through layers ``1 .. to_layer`` at once.

    ``regions`` members must have the model's input shape (an ``(n,
    *input shape)`` stack).  Returns the chosen domain's batched element
    at the cut layer; concretize it (``get_domain(domain).concretize``)
    for per-region boxes, or extract per-region enclosure values /
    feature sets.  :class:`IntervalBoundError` raised mid-propagation
    carries the offending layer and region.
    """
    model._check_index(to_layer, allow_zero=True)
    shape = model.input_shape
    if regions.lower.shape[1:] != shape:
        raise ValueError(
            f"batch members have shape {regions.lower.shape[1:]}, "
            f"model input is {shape}"
        )
    program = lowered_prefix(model, to_layer)
    dom = get_domain(domain)
    if not dom.supports_program(program):
        unsupported = sorted(
            {
                type(op).__name__
                for op in program.ops
                if not dom.supports(op)
            }
        )
        raise ValueError(
            f"domain {domain!r} has no transformer for {', '.join(unsupported)} "
            f"in the prefix (layers 1..{to_layer}); use a domain that supports "
            f"every prefix op (e.g. 'interval') or cut after the offending layer"
        )
    element = dom.lift(regions)
    for op, layer_index in zip(program.ops, program.op_layers):
        try:
            element = dom.transform(op, element)
        except IntervalBoundError as err:
            raise IntervalBoundError(
                "interval has lower > upper bound",
                layer_index=layer_index,
                region_index=err.region_index,
            ) from None
    return element


def region_boxes(
    model: Sequential,
    regions: BoxBatch,
    to_layer: int,
    domain: str = "interval",
) -> BoxBatch:
    """Per-region cut-layer interval hulls (flat ``(n, d_l)``)."""
    dom = get_domain(domain)
    element = propagate_regions(model, regions, to_layer, domain)
    return dom.concretize(element).flat()

