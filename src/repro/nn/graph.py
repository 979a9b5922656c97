"""Piecewise-linear view of a trained network.

The verification stack does not work on :class:`~repro.nn.layers.base.Layer`
objects directly.  Instead, every layer that admits an exact
piecewise-linear semantics lowers itself (via
``Layer.as_verification_ops``) to a list of primitive ops over *flat*
feature vectors:

- :class:`AffineOp` — ``y = W x + b`` (Dense, eval-mode BatchNorm,
  Conv2D, AvgPool2D all lower to this),
- :class:`ReLUOp` / :class:`LeakyReLUOp` — elementwise activations,
- :class:`MaxGroupOp` — ``y_j = max(x[group_j])`` (MaxPool2D).

A :class:`PiecewiseLinearNetwork` is the chained list of such ops and is
what the MILP encoder and the abstract domains consume.  This is the
"gray sub-network" of Figure 1 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.tensor import FLOAT, col2im, conv_output_size, flat_size, im2col

#: refuse to materialize affine matrices bigger than this many entries
MAX_AFFINE_ENTRIES = 64_000_000


@dataclass
class AffineOp:
    """``y = weight @ x + bias`` with ``weight`` of shape ``(out, in)``."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=FLOAT)
        self.bias = np.asarray(self.bias, dtype=FLOAT)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} incompatible with weight "
                f"shape {self.weight.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a flat vector or a batch of flat vectors."""
        return x @ self.weight.T + self.bias


@dataclass
class ReLUOp:
    """Elementwise ``y = max(x, 0)``."""

    dim: int

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


@dataclass
class LeakyReLUOp:
    """Elementwise ``y = x if x >= 0 else alpha * x`` with ``0 <= alpha < 1``."""

    dim: int
    alpha: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.where(x >= 0.0, x, self.alpha * x)


@dataclass
class MaxGroupOp:
    """``y_j = max(x[groups[j]])`` — the flat form of max pooling."""

    in_dim: int
    groups: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.groups = [np.asarray(g, dtype=np.intp) for g in self.groups]
        for g in self.groups:
            if g.size == 0:
                raise ValueError("empty max group")
            if g.min() < 0 or g.max() >= self.in_dim:
                raise ValueError(f"group indices out of range for in_dim={self.in_dim}")
        #: ``(out_dim, widest group)`` gather index: each group padded by
        #: repeating its own members, which leaves its max and its first
        #: argmax unchanged, so one gather serves every group at once
        width = max((g.size for g in self.groups), default=1)
        self.index = np.array(
            [np.resize(g, width) for g in self.groups], dtype=np.intp
        ).reshape(len(self.groups), width)

    @property
    def out_dim(self) -> int:
        return len(self.groups)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=FLOAT)
        return x[..., self.index].max(axis=-1)


@dataclass
class ElementwiseAffineOp:
    """``y_i = scale_i * x_i + shift_i`` — a diagonal affine map kept sparse.

    This is what eval-mode :class:`~repro.nn.layers.batchnorm.BatchNorm`
    lowers to in the IR (per-channel coefficients broadcast to the flat
    feature vector) when it cannot be folded into an adjacent affine or
    convolution op.  Unlike ``AffineOp(np.diag(scale), shift)`` it never
    materializes a ``d x d`` matrix.
    """

    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        self.scale = np.asarray(self.scale, dtype=FLOAT).reshape(-1)
        self.shift = np.asarray(self.shift, dtype=FLOAT).reshape(-1)
        if self.scale.shape != self.shift.shape:
            raise ValueError(
                f"scale shape {self.scale.shape} != shift shape {self.shift.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.scale.shape[0]

    @property
    def out_dim(self) -> int:
        return self.scale.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x * self.scale + self.shift


@dataclass
class ReshapeOp:
    """Marker op recording a feature-shape change (e.g. ``Flatten``).

    Every IR value is already a flat row-major vector, so the op is the
    identity at run time; it exists so a lowered program documents where
    the spatial interpretation of the vector changes.
    """

    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        self.in_shape = tuple(int(d) for d in self.in_shape)
        self.out_shape = tuple(int(d) for d in self.out_shape)
        if flat_size(self.in_shape) != flat_size(self.out_shape):
            raise ValueError(
                f"reshape changes element count: {self.in_shape} -> {self.out_shape}"
            )

    @property
    def in_dim(self) -> int:
        return flat_size(self.in_shape)

    @property
    def out_dim(self) -> int:
        return flat_size(self.out_shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x


@dataclass
class ConvOp:
    """2-D convolution kept in kernel form (conv-as-im2col-matmul).

    The IR twin of :class:`~repro.nn.layers.conv.Conv2D`: the op stores
    the ``(filters, channels, k, k)`` kernel instead of a materialized
    ``d_out x d_in`` affine matrix, so prefix propagation of image-space
    regions runs as one batched GEMM per op instead of a dense matmul
    against a huge materialized matrix.  ``apply`` follows the flat-vector
    IR convention (rows are flattened NCHW images).
    """

    weight: np.ndarray  #: (filters, channels, k, k)
    bias: np.ndarray  #: (filters,)
    stride: int
    padding: int
    in_shape: tuple[int, int, int]  #: (C, H, W)

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=FLOAT)
        self.bias = np.asarray(self.bias, dtype=FLOAT)
        if self.weight.ndim != 4:
            raise ValueError(f"conv weight must be 4-D, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} incompatible with "
                f"{self.weight.shape[0]} filters"
            )
        self.in_shape = tuple(int(d) for d in self.in_shape)
        if len(self.in_shape) != 3 or self.in_shape[0] != self.weight.shape[1]:
            raise ValueError(
                f"in_shape {self.in_shape} incompatible with conv weight "
                f"{self.weight.shape}"
            )

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    @property
    def out_shape(self) -> tuple[int, int, int]:
        _, h, w = self.in_shape
        ho = conv_output_size(h, self.kernel, self.stride, self.padding)
        wo = conv_output_size(w, self.kernel, self.stride, self.padding)
        return (self.weight.shape[0], ho, wo)

    @property
    def in_dim(self) -> int:
        return flat_size(self.in_shape)

    @property
    def out_dim(self) -> int:
        return flat_size(self.out_shape)

    def apply_spatial(
        self,
        x: np.ndarray,
        weight: np.ndarray | None = None,
        bias: np.ndarray | None = None,
    ) -> np.ndarray:
        """Convolution forward on ``(N, C, H, W)`` with substitutable
        weights (abstract transformers run it with ``|W|`` for radii)."""
        weight = self.weight if weight is None else weight
        bias = self.bias if bias is None else bias
        cols, ho, wo = im2col(x, self.kernel, self.stride, self.padding)
        w_flat = weight.reshape(weight.shape[0], -1)
        out = np.matmul(w_flat, cols) + bias[None, :, None]
        return out.reshape(x.shape[0], weight.shape[0], ho, wo)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=FLOAT)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = self.apply_spatial(x.reshape((x.shape[0],) + self.in_shape))
        out = out.reshape(x.shape[0], -1)
        return out[0] if single else out

    def input_gradient(self, grad_out: np.ndarray) -> np.ndarray:
        """Flat input gradient from a flat output gradient (the conv VJP)."""
        n = grad_out.shape[0]
        g = grad_out.reshape((n,) + self.out_shape)
        f, ho, wo = self.out_shape
        w_flat = self.weight.reshape(f, -1)
        dcols = np.einsum("fk,nfp->nkp", w_flat, g.reshape(n, f, ho * wo))
        dx = col2im(
            dcols, (n,) + self.in_shape, self.kernel, self.stride, self.padding
        )
        return dx.reshape(n, -1)

    def as_affine(self, max_entries: int = MAX_AFFINE_ENTRIES) -> AffineOp:
        """Materialize the convolution as a dense affine map on flat vectors.

        Only feasible for modest spatial sizes; used by the MILP-facing
        piecewise-linear view of a lowered program.
        """
        din, dout = self.in_dim, self.out_dim
        if din * dout > max_entries:
            raise ValueError(
                f"Conv2D affine materialization would need {din}x{dout} entries; "
                f"choose a later verification cut layer"
            )
        basis = np.eye(din, dtype=FLOAT)
        col_out = self.apply(basis)  # (din, dout) columns of the map
        bias_out = self.apply(np.zeros((1, din), dtype=FLOAT))[0]
        return AffineOp((col_out - bias_out[None, :]).T, bias_out)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


#: named elementwise monotone functions usable in a MonotoneOp: the op
#: stores the *name* (keeping lowered programs picklable for process
#: pools) and looks up ``(forward, derivative)`` here
MONOTONE_FNS: dict = {
    "sigmoid": (_sigmoid, lambda x: _sigmoid(x) * (1.0 - _sigmoid(x))),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
}


@dataclass
class MonotoneOp:
    """Elementwise monotone (but not piecewise-linear) activation.

    Lowers ``Sigmoid`` / ``Tanh`` prefix layers: interval propagation is
    exact on monotone maps (apply to both bounds), while MILP encoding
    and the relational domains reject the op — such layers may only
    appear before the verification cut, exactly as before.
    """

    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in MONOTONE_FNS:
            raise ValueError(
                f"unknown monotone function {self.kind!r}; "
                f"known: {sorted(MONOTONE_FNS)}"
            )

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return MONOTONE_FNS[self.kind][0](np.asarray(x, dtype=FLOAT))

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return MONOTONE_FNS[self.kind][1](np.asarray(x, dtype=FLOAT))


#: ops with an exact piecewise-linear semantics (MILP-encodable)
PLOp = AffineOp | ElementwiseAffineOp | ReLUOp | LeakyReLUOp | MaxGroupOp | ReshapeOp

#: every op a lowered program may contain
IROp = PLOp | ConvOp | MonotoneOp


class PiecewiseLinearNetwork:
    """A chain of primitive piecewise-linear ops over flat vectors.

    This is the exact semantics of the sub-network handed to the MILP
    encoder and the abstraction domains.  ``apply`` must agree with the
    original :class:`~repro.nn.sequential.Sequential` suffix to machine
    precision — a property-based test enforces this.
    """

    def __init__(self, ops: list[PLOp], in_dim: int):
        if in_dim <= 0:
            raise ValueError(f"in_dim must be positive, got {in_dim}")
        dim = in_dim
        for i, op in enumerate(ops):
            if op.in_dim != dim:
                raise ValueError(
                    f"op {i} ({type(op).__name__}) expects input dim "
                    f"{op.in_dim}, previous op produces {dim}"
                )
            dim = op.out_dim
        self.ops = list(ops)
        self.in_dim = in_dim
        self.out_dim = dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on a flat vector or a batch of flat vectors."""
        x = np.asarray(x, dtype=FLOAT)
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"expected trailing dim {self.in_dim}, got {x.shape}")
        for op in self.ops:
            x = op.apply(x)
        return x

    def num_relu(self) -> int:
        """Number of scalar ReLU decisions (the MILP binary count)."""
        total = 0
        for op in self.ops:
            if isinstance(op, (ReLUOp, LeakyReLUOp)):
                total += op.dim
            elif isinstance(op, MaxGroupOp):
                total += sum(len(g) for g in op.groups)
        return total

    def compose(self, other: "PiecewiseLinearNetwork") -> "PiecewiseLinearNetwork":
        """``self`` followed by ``other``."""
        if other.in_dim != self.out_dim:
            raise ValueError(
                f"cannot compose: {self.out_dim} outputs vs {other.in_dim} inputs"
            )
        return PiecewiseLinearNetwork(self.ops + other.ops, self.in_dim)

    def __repr__(self) -> str:
        kinds = ">".join(type(op).__name__.removesuffix("Op") for op in self.ops)
        return f"PiecewiseLinearNetwork({self.in_dim}->{self.out_dim}: {kinds})"


def lower_layers(layers, in_dim: int) -> PiecewiseLinearNetwork:
    """Lower a list of built layers to a :class:`PiecewiseLinearNetwork`.

    Raises :class:`ValueError` if any layer lacks a piecewise-linear
    semantics (``as_verification_ops() is None``).
    """
    ops: list[PLOp] = []
    for layer in layers:
        layer_ops = layer.as_verification_ops()
        if layer_ops is None:
            raise ValueError(
                f"layer {layer!r} is not piecewise-linear and cannot be part "
                f"of the verified sub-network; choose a later cut layer"
            )
        ops.extend(layer_ops)
    return PiecewiseLinearNetwork(ops, in_dim)
