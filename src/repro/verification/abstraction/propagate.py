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

PRECISIONS = ("exact64", "fast32")


def _check_precision(precision: str) -> None:
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )


def propagate_regions(
    model: Sequential,
    regions: BoxBatch,
    to_layer: int,
    domain: str = "interval",
    *,
    precision: str = "exact64",
):
    """Push ``n`` input regions through layers ``1 .. to_layer`` at once.

    ``regions`` members must have the model's input shape (an ``(n,
    *input shape)`` stack).  Returns the chosen domain's batched element
    at the cut layer; concretize it (``get_domain(domain).concretize``)
    for per-region boxes, or extract per-region enclosure values /
    feature sets.  :class:`IntervalBoundError` raised mid-propagation
    carries the offending layer and region.

    ``precision="fast32"`` routes the interval domain through the
    float32 raw-speed backend over the fused program view (see
    :mod:`repro.verification.abstraction.fast32`); the result provably
    *contains* the exact64 element, so every sound verdict derived from
    it stays sound.  Domains or programs the fast backend cannot
    express fall back to exact64 silently.
    """
    _check_precision(precision)
    model._check_index(to_layer, allow_zero=True)
    shape = model.input_shape
    if regions.lower.shape[1:] != shape:
        raise ValueError(
            f"batch members have shape {regions.lower.shape[1:]}, "
            f"model input is {shape}"
        )
    if precision == "fast32" and domain == "interval":
        from repro.verification.abstraction import fast32

        fused = lowered_prefix(model, to_layer, fused=True)
        try:
            # the plan flattens internally — no need to revalidate the
            # batch through ``.flat()`` on the hot path
            return fast32.propagate_interval_fast32(fused, regions)
        except fast32.Fast32Unsupported:
            pass
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
    *,
    precision: str = "exact64",
) -> BoxBatch:
    """Per-region cut-layer interval hulls (flat ``(n, d_l)``)."""
    dom = get_domain(domain)
    element = propagate_regions(
        model, regions, to_layer, domain, precision=precision
    )
    return dom.concretize(element).flat()

