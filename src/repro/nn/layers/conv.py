"""2-D convolution over NCHW batches, implemented with im2col."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nn import initializers
from repro.nn.graph import ConvOp
from repro.nn.layers.base import Layer
from repro.nn.tensor import FLOAT, Parameter, col2im, conv_output_size, im2col


class Conv2D(Layer):
    """Cross-correlation layer ``(N, C, H, W) -> (N, F, Ho, Wo)``."""

    def __init__(self, filters: int, kernel: int, stride: int = 1, padding: int = 0):
        if filters <= 0 or kernel <= 0 or stride <= 0 or padding < 0:
            raise ValueError(
                f"invalid Conv2D configuration: filters={filters} kernel={kernel} "
                f"stride={stride} padding={padding}"
            )
        self.filters = filters
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.weight: Parameter | None = None
        self.bias: Parameter | None = None
        self._cache: tuple | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (C, H, W) features, got {input_shape}")
        _, h, w = input_shape
        ho = conv_output_size(h, self.kernel, self.stride, self.padding)
        wo = conv_output_size(w, self.kernel, self.stride, self.padding)
        return (self.filters, ho, wo)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        super().build(input_shape, rng)
        c = input_shape[0]
        fan_in = c * self.kernel * self.kernel
        w = initializers.he_normal(rng, (self.filters, c, self.kernel, self.kernel), fan_in)
        self.weight = Parameter("weight", w)
        self.bias = Parameter("bias", initializers.zeros((self.filters,)))

    def parameters(self) -> list[Parameter]:
        if self.weight is None or self.bias is None:
            return []
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        assert self.weight is not None and self.bias is not None, "layer not built"
        n = x.shape[0]
        cols, ho, wo = im2col(x, self.kernel, self.stride, self.padding)
        w_flat = self.weight.value.reshape(self.filters, -1)
        out = np.einsum("fk,nkp->nfp", w_flat, cols) + self.bias.value[None, :, None]
        if training:
            self._cache = (cols, x.shape)
        return out.reshape(n, self.filters, ho, wo)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self.weight is not None and self.bias is not None
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cols, x_shape = self._cache
        n, f, ho, wo = grad_out.shape
        g = grad_out.reshape(n, f, ho * wo)
        w_flat = self.weight.value.reshape(f, -1)
        self.weight.grad += np.einsum("nfp,nkp->fk", g, cols).reshape(
            self.weight.value.shape
        )
        self.bias.grad += g.sum(axis=(0, 2))
        dcols = np.einsum("fk,nfp->nkp", w_flat, g)
        return col2im(dcols, x_shape, self.kernel, self.stride, self.padding)

    def config(self) -> dict[str, Any]:
        return {
            "filters": self.filters,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
        }

    def as_verification_ops(self) -> list:
        """Materialize the convolution as a dense affine map on flat vectors.

        Delegates to :meth:`~repro.nn.graph.ConvOp.as_affine` — the
        single implementation of the identity-basis materialization —
        so it shares the size guard and the exact arithmetic with the
        IR's piecewise-linear view.  Only feasible for modest spatial
        sizes; the intended verification cut is after the convolutional
        stack, so this path is exercised by whole-network analyses
        (e.g. experiment E7) on small images.
        """
        return [op.as_affine() for op in self.as_abstract_ops()]

    def as_abstract_ops(self) -> list:
        """Kernel-form IR lowering: conv stays a batched gather-matmul."""
        assert self.weight is not None and self.bias is not None, "layer not built"
        assert self.input_shape is not None
        return [
            ConvOp(
                self.weight.value,
                self.bias.value,
                self.stride,
                self.padding,
                self.input_shape,
            )
        ]
