"""Parameter containers and small shape utilities shared by all layers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FLOAT = np.float64


@dataclass
class Parameter:
    """A trainable array together with its accumulated gradient.

    Layers own :class:`Parameter` objects; optimizers mutate
    :attr:`value` in place using :attr:`grad`.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=FLOAT)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.value.shape)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.shape})"


def as_batch(x: np.ndarray, feature_ndim: int) -> tuple[np.ndarray, bool]:
    """Promote a single sample to a batch of one.

    Returns the (possibly reshaped) array and a flag telling whether the
    input was a single sample, so callers can squeeze the output again.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim == feature_ndim:
        return x[None, ...], True
    if x.ndim == feature_ndim + 1:
        return x, False
    raise ValueError(
        f"expected array of {feature_ndim} (single sample) or "
        f"{feature_ndim + 1} (batch) dimensions, got shape {x.shape}"
    )


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def flat_size(shape: tuple[int, ...]) -> int:
    """Number of scalar entries of a feature shape."""
    return int(math.prod(shape))


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :meth:`~repro.nn.graph.ConvOp.columns` (scatter-add
    ``(N, C*k*k, Ho*Wo)`` columns back to an ``(N, C, H, W)`` image)."""
    n, c, h, w = x_shape
    ho = conv_output_size(h, kernel, stride, padding)
    wo = conv_output_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=FLOAT)
    cols = cols.reshape(n, c, kernel, kernel, ho, wo)
    for ki in range(kernel):
        for kj in range(kernel):
            out[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += (
                cols[:, :, ki, kj]
            )
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out
