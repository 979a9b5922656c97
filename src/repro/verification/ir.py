"""One lowered network IR shared by every verification path.

Historically the stack grew **four** near-duplicate propagation paths:
layer-level scalar and batched interval propagation walking
:class:`~repro.nn.layers.base.Layer` objects, plus lowered scalar and
batched transformers over :class:`~repro.nn.graph.PiecewiseLinearNetwork`
ops — while the MILP encoder and the PGD concretizer each rebuilt their
own view of the network.  This module collapses them: a network is
lowered **once** into a cached :class:`LoweredProgram` of primitive ops

- :class:`~repro.nn.graph.AffineOp` — dense affine maps,
- :class:`~repro.nn.graph.ConvOp` — convolution kept in kernel form
  (conv-as-gather-matmul, never materialized for prefix propagation),
- :class:`~repro.nn.graph.ElementwiseAffineOp` — diagonal affine
  (eval-mode BatchNorm, folded into an adjacent affine/conv op whenever
  one precedes it),
- :class:`~repro.nn.graph.ReLUOp` / :class:`~repro.nn.graph.LeakyReLUOp`
  — relu-like activations,
- :class:`~repro.nn.graph.MaxGroupOp` — grouped max (max pooling),
- :class:`~repro.nn.graph.ReshapeOp` — feature-shape changes,
- :class:`~repro.nn.graph.MonotoneOp` — monotone smooth activations
  (prefix-only),

and every consumer — prescreen, CEGAR's frontier prescreen, the MILP
encoder's big-M bounds, PGD concretization — reuses the same cached
program through the abstract-domain registry
(:mod:`repro.verification.abstraction.domain`).

``Dropout`` (eval mode) lowers to nothing and ``BatchNorm`` folds into
the nearest preceding affine/conv op, so lowered programs carry no
redundant ops.  Programs are cached per ``(model, start, end, view)``
on the model itself; training invalidates the cache (see
:meth:`repro.nn.sequential.Sequential.invalidate_lowering`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.nn.graph import (
    AffineOp,
    ConvOp,
    ElementwiseAffineOp,
    IROp,
    LeakyReLUOp,
    MaxGroupOp,
    MonotoneOp,
    PiecewiseLinearNetwork,
    PLOp,
    ReLUOp,
    ReshapeOp,
)
from repro.nn.tensor import FLOAT, flat_size

if TYPE_CHECKING:
    from repro.nn.sequential import Sequential

#: module-level lowering-cache accounting (hit-rate asserted in CI)
_STATS: dict[str, int] = {"hits": 0, "misses": 0}


def lowering_stats() -> dict[str, int]:
    """Copy of the global lowering-cache counters (``hits`` / ``misses``)."""
    return dict(_STATS)


def reset_lowering_stats() -> None:
    _STATS["hits"] = 0
    _STATS["misses"] = 0


class LoweredProgram(PiecewiseLinearNetwork):
    """A cached, provenance-carrying chain of primitive IR ops.

    Extends :class:`~repro.nn.graph.PiecewiseLinearNetwork` (so every
    existing consumer of ``.ops`` / ``.apply`` / ``.in_dim`` keeps
    working) with

    - ``op_layers`` — the 0-based source-layer index of each op, used to
      attach layer provenance to
      :class:`~repro.verification.sets.IntervalBoundError`;
    - ``source`` — a human-readable provenance tag;
    - :meth:`value_and_input_gradient` — the exact VJP through the
      program, which is what PGD concretization ascends.
    """

    def __init__(
        self,
        ops: list[IROp],
        in_dim: int,
        *,
        op_layers: tuple[int, ...] | None = None,
        source: str = "",
    ) -> None:
        super().__init__(ops, in_dim)
        self.op_layers = tuple(op_layers) if op_layers is not None else tuple(
            [None] * len(self.ops)
        )
        if len(self.op_layers) != len(self.ops):
            raise ValueError(
                f"{len(self.op_layers)} layer tags for {len(self.ops)} ops"
            )
        self.source = source

    @property
    def piecewise_linear(self) -> bool:
        """True when every op is MILP-encodable."""
        return all(isinstance(op, PLOp) for op in self.ops)

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """Every op's input for a flat batch ``(n, in_dim)``, then the output.

        The forward pass :meth:`value_and_input_gradient` differentiates
        through: a caller that reads the outputs before choosing its
        directions hands this list back instead of paying a second pass.
        """
        x = np.asarray(x, dtype=FLOAT)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (n, {self.in_dim}) inputs, got {x.shape}")
        values = [x]
        for op in self.ops:
            values.append(op.apply(values[-1]))
        return values

    def value_and_input_gradient(
        self,
        x: np.ndarray,
        directions: np.ndarray,
        *,
        activations: list[np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outputs and gradients of ``directions . output`` per sample.

        ``x`` is a flat batch ``(n, in_dim)``; ``directions`` is
        ``(n, out_dim)``.  Returns ``(outputs, gradients)`` with
        gradients flat of shape ``(n, in_dim)`` — the exact vector-
        Jacobian product through every op, including the smooth
        monotone ones.  ``activations``, this ``x``'s
        :meth:`activations`, replaces the forward pass.
        """
        values = self.activations(x) if activations is None else activations
        cur = values[-1]
        grad = np.asarray(directions, dtype=FLOAT)
        if grad.shape != cur.shape:
            raise ValueError(
                f"directions shape {grad.shape} does not match outputs {cur.shape}"
            )
        for op, op_in in zip(reversed(self.ops), reversed(values[:-1])):
            grad = _op_vjp(op, op_in, grad)
        return cur, grad

    def __repr__(self) -> str:
        kinds = ">".join(type(op).__name__.removesuffix("Op") for op in self.ops)
        tag = f" [{self.source}]" if self.source else ""
        return f"LoweredProgram({self.in_dim}->{self.out_dim}: {kinds}){tag}"


def _op_vjp(op: IROp, op_in: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Input gradient of one op given its input and the output gradient."""
    if isinstance(op, AffineOp):
        return grad @ op.weight
    if isinstance(op, ElementwiseAffineOp):
        return grad * op.scale
    if isinstance(op, ConvOp):
        return op.input_gradient(grad)
    if isinstance(op, ReLUOp):
        return grad * (op_in > 0.0)
    if isinstance(op, LeakyReLUOp):
        return np.where(op_in >= 0.0, grad, op.alpha * grad)
    if isinstance(op, MaxGroupOp):
        # each group's first argmax; add.at visits a row's groups in
        # order, so overlapping groups sum their gradients as a loop would
        first = op_in[:, op.index].argmax(axis=2)
        winner = op.index[np.arange(op.out_dim), first]
        out = np.zeros_like(op_in)
        np.add.at(out, (np.arange(op_in.shape[0])[:, None], winner), grad)
        return out
    if isinstance(op, ReshapeOp):
        return grad
    if isinstance(op, MonotoneOp):
        return grad * op.derivative(op_in)
    raise TypeError(f"no VJP for op {type(op).__name__}")


# -- lowering ----------------------------------------------------------------


def _fold_elementwise(previous: IROp, ew: ElementwiseAffineOp) -> IROp | None:
    """Fold ``scale * (previous) + shift`` into ``previous`` when affine."""
    if isinstance(previous, AffineOp):
        return AffineOp(
            previous.weight * ew.scale[:, None], previous.bias * ew.scale + ew.shift
        )
    if isinstance(previous, ConvOp):
        # per-channel coefficients: every filter's spatial positions
        # share one (scale, shift) pair, so folding is exact
        filters = previous.weight.shape[0]
        per_filter = ew.scale.reshape(filters, -1)
        shift = ew.shift.reshape(filters, -1)
        if not (
            np.all(per_filter == per_filter[:, :1])
            and np.all(shift == shift[:, :1])
        ):
            return None
        scale = per_filter[:, 0]
        return ConvOp(
            previous.weight * scale[:, None, None, None],
            previous.bias * scale + shift[:, 0],
            previous.stride,
            previous.padding,
            previous.in_shape,
        )
    if isinstance(previous, ElementwiseAffineOp):
        return ElementwiseAffineOp(
            previous.scale * ew.scale, previous.shift * ew.scale + ew.shift
        )
    return None


def _build_program(
    model: "Sequential", start: int, end: int, source: str
) -> LoweredProgram:
    ops: list[IROp] = []
    op_layers: list[int] = []
    for index in range(start, end):
        layer = model.layers[index]
        layer_ops = layer.as_abstract_ops()
        if layer_ops is None:
            raise ValueError(
                f"layer {layer!r} cannot be lowered to IR ops; it may only "
                f"appear before the verification cut layer"
            )
        for op in layer_ops:
            if isinstance(op, ElementwiseAffineOp) and ops:
                folded = _fold_elementwise(ops[-1], op)
                if folded is not None:
                    ops[-1] = folded
                    continue
            ops.append(op)
            op_layers.append(index)
    in_dim = model.feature_dim(start)
    return LoweredProgram(ops, in_dim, op_layers=tuple(op_layers), source=source)


def _piecewise_linear_view(program: LoweredProgram) -> LoweredProgram:
    """The MILP-encodable view: conv materialized, monotone ops rejected."""
    ops: list[IROp] = []
    for op, layer in zip(program.ops, program.op_layers):
        if isinstance(op, ConvOp):
            ops.append(op.as_affine())
        elif isinstance(op, MonotoneOp):
            raise ValueError(
                f"op {type(op).__name__}({op.kind!r}) at layer {layer} is not "
                f"piecewise-linear and cannot be part of the verified "
                f"sub-network; choose a later cut layer"
            )
        else:
            ops.append(op)
    return LoweredProgram(
        ops,
        program.in_dim,
        op_layers=program.op_layers,
        source=f"{program.source}/pl",
    )


def lower_network(
    model: "Sequential",
    start: int = 0,
    end: int | None = None,
    *,
    piecewise_linear: bool = False,
) -> LoweredProgram:
    """Lower layers ``start+1 .. end`` of a model, cached per view.

    ``model`` is a :class:`~repro.nn.sequential.Sequential` (or anything
    with its ``layers`` / ``feature_dim`` / ``_check_index`` surface).
    The default view keeps convolutions in kernel form and admits smooth
    monotone activations (what abstract prefix propagation wants);
    ``piecewise_linear=True`` materializes convolutions and rejects
    non-piecewise-linear ops (what the MILP encoder wants).

    The program is cached on the model keyed by ``(start, end, view)``
    and reused across prescreen, CEGAR, MILP encoding and PGD
    concretization; :func:`lowering_stats` counts hits and misses.

    Every cache miss runs the static IR validator
    (:func:`repro.analysis.ir_analysis.validate_program`), so a
    malformed program raises an op-indexed
    :class:`~repro.analysis.ir_analysis.IRValidationError` here instead
    of a numpy shape error deep inside propagation or MILP encoding.
    """
    end = model.num_layers if end is None else end
    model._check_index(start, allow_zero=True)
    model._check_index(end, allow_zero=True)
    if end < start:
        raise ValueError(f"cannot lower a negative span: start={start} end={end}")
    cache = model.__dict__.setdefault("_lowering_cache", {})
    key = (start, end, piecewise_linear)
    cached = cache.get(key)
    if cached is not None:
        _STATS["hits"] += 1
        return cached
    _STATS["misses"] += 1
    if piecewise_linear:
        program = _piecewise_linear_view(lower_network(model, start, end))
    else:
        program = _build_program(model, start, end, source=f"layers[{start}:{end}]")
    from repro.analysis.ir_analysis import validate_program

    validate_program(program)
    cache[key] = program
    return program


def lowered_prefix(model: "Sequential", cut_layer: int) -> LoweredProgram:
    """The abstract-propagation view of layers ``1 .. cut_layer``."""
    return lower_network(model, 0, cut_layer)


def lowered_suffix(model: "Sequential", cut_layer: int) -> LoweredProgram:
    """The MILP-encodable view of layers ``cut_layer+1 .. L``."""
    return lower_network(model, cut_layer, None, piecewise_linear=True)


def lowered_full(model: "Sequential") -> LoweredProgram:
    """The abstract-propagation view of the whole model."""
    return lower_network(model, 0, None)


def lowered_split(
    model: "Sequential", cut_layer: int
) -> tuple[LoweredProgram, int]:
    """The whole model with an op boundary at ``cut_layer``.

    Returns ``(program, index)``: the cached abstract-propagation views
    of layers ``1 .. cut_layer`` and ``cut_layer+1 .. L`` chained, and
    the prefix's op count, so ``program.activations(x)[index]`` is the
    flat cut-layer features ``f^(l)(x)``.  :func:`lowered_full` may fold
    a BatchNorm right after the cut into the op before it and then holds
    no value equal to the features; this program never folds across the
    cut, and is op-for-op :func:`lowered_full` wherever nothing folds
    there.
    """
    prefix = lower_network(model, 0, cut_layer)
    suffix = lower_network(model, cut_layer, None)
    program = LoweredProgram(
        prefix.ops + suffix.ops,
        prefix.in_dim,
        op_layers=prefix.op_layers + suffix.op_layers,
        source=f"{prefix.source}+{suffix.source}",
    )
    return program, len(prefix.ops)
