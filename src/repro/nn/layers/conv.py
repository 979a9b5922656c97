"""2-D convolution over NCHW batches on the IR's gather-plan kernel.

The layer's forward and backward passes run on a
:class:`~repro.nn.graph.ConvOp` over the live parameters: the forward
pass is ``w_flat @ columns(x) + bias``, the weight gradient one GEMM over
the cached columns and the input gradient ``ConvOp.input_gradient``.  The
op's gather plan depends only on the geometry, so it is built once per
layer, and the trained layer computes what its lowered program computes,
bit for bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nn import initializers
from repro.nn.graph import ConvOp
from repro.nn.layers.base import Layer
from repro.nn.tensor import Parameter, conv_output_size


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
        self._op: ConvOp | None = None
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

    def _conv_op(self) -> ConvOp:
        """The IR op on the live parameter arrays.  Optimizers and weight
        loading update those arrays in place, so the op (and its gather
        plan) is rebuilt only when a parameter array is replaced."""
        assert self.weight is not None and self.bias is not None, "layer not built"
        op = self._op
        if (
            op is None
            or op.weight is not self.weight.value
            or op.bias is not self.bias.value
        ):
            assert self.input_shape is not None
            op = self._op = ConvOp(
                self.weight.value,
                self.bias.value,
                self.stride,
                self.padding,
                self.input_shape,
            )
        return op

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        op = self._conv_op()
        if x.shape[1:] != op.in_shape:
            raise ValueError(
                f"Conv2D built for {op.in_shape} inputs, got {x.shape[1:]}"
            )
        cols = op.columns(x)
        if training:
            self._cache = (cols, x.shape)
        return op.product(cols)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self.weight is not None and self.bias is not None
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cols, x_shape = self._cache
        n, f, ho, wo = grad_out.shape
        g = grad_out.reshape(n, f, ho * wo)
        # one GEMM over the whole batch: (F, N*P) @ (N*P, C*k*k)
        self.weight.grad += np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(
            self.weight.value.shape
        )
        self.bias.grad += g.sum(axis=(0, 2))
        dx = self._conv_op().input_gradient(grad_out.reshape(n, -1))
        return dx.reshape(x_shape)

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
        """Kernel-form IR lowering: conv stays a batched gather-matmul, on
        the op (and gather plan) the layer itself runs."""
        return [self._conv_op()]
