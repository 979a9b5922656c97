"""Spatial pooling layers over NCHW batches."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nn.graph import AffineOp, MaxGroupOp
from repro.nn.layers.base import Layer
from repro.nn.tensor import FLOAT, conv_output_size, flat_size


class _Pool2D(Layer):
    """Shared window bookkeeping for max/average pooling (no padding)."""

    def __init__(self, size: int, stride: int | None = None):
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self.stride = stride if stride is not None else size
        if self.stride <= 0:
            raise ValueError(f"pool stride must be positive, got {self.stride}")
        self._cache: tuple | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"pooling expects (C, H, W) features, got {input_shape}")
        c, h, w = input_shape
        ho = conv_output_size(h, self.size, self.stride, 0)
        wo = conv_output_size(w, self.size, self.stride, 0)
        return (c, ho, wo)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """View ``(N, C, Ho, Wo, k, k)`` of all pooling windows."""
        v = np.lib.stride_tricks.sliding_window_view(x, (self.size, self.size), axis=(2, 3))
        return v[:, :, :: self.stride, :: self.stride]

    def config(self) -> dict[str, Any]:
        return {"size": self.size, "stride": self.stride}

    def _window_index_groups(self) -> np.ndarray:
        """``(out, k·k)`` flat-input indices of every pooling window, one
        row per output in output order, each window row-major."""
        assert self.input_shape is not None and self.output_shape_ is not None
        c, h, w = self.input_shape
        _, ho, wo = self.output_shape_
        flat = np.arange(c * h * w).reshape(c, h, w)
        windows = np.lib.stride_tricks.sliding_window_view(
            flat, (self.size, self.size), axis=(1, 2)
        )[:, :: self.stride, :: self.stride][:, :ho, :wo]
        return windows.reshape(c * ho * wo, self.size * self.size)


class MaxPool2D(_Pool2D):
    """Max pooling; lowers to :class:`~repro.nn.graph.MaxGroupOp`."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        win = self._windows(x)
        n, c, ho, wo = win.shape[:4]
        flat = win.reshape(n, c, ho, wo, -1)
        out = flat.max(axis=-1)
        if training:
            self._cache = (flat.argmax(axis=-1), x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        argmax, x_shape = self._cache
        n, c, ho, wo = grad_out.shape
        dx = np.zeros(x_shape, dtype=FLOAT)
        ki, kj = np.divmod(argmax, self.size)
        ni, ci, ii, jj = np.indices((n, c, ho, wo))
        rows = ii * self.stride + ki
        cols = jj * self.stride + kj
        np.add.at(dx, (ni, ci, rows, cols), grad_out)
        return dx

    def as_verification_ops(self) -> list:
        assert self.input_shape is not None, "layer not built"
        return [MaxGroupOp(flat_size(self.input_shape), self._window_index_groups())]


class AvgPool2D(_Pool2D):
    """Average pooling; exactly linear, lowers to an affine op."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        win = self._windows(x)
        n, c, ho, wo = win.shape[:4]
        if training:
            self._cache = (x.shape,)
        return win.reshape(n, c, ho, wo, -1).mean(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        (x_shape,) = self._cache
        n, c, ho, wo = grad_out.shape
        dx = np.zeros(x_shape, dtype=FLOAT)
        share = grad_out / float(self.size * self.size)
        for i in range(ho):
            for j in range(wo):
                dx[
                    :,
                    :,
                    i * self.stride : i * self.stride + self.size,
                    j * self.stride : j * self.stride + self.size,
                ] += share[:, :, i : i + 1, j : j + 1]
        return dx

    def as_verification_ops(self) -> list:
        assert self.input_shape is not None and self.output_shape_ is not None
        din = flat_size(self.input_shape)
        index = self._window_index_groups()
        weight = np.zeros((len(index), din), dtype=FLOAT)
        weight[np.arange(len(index))[:, None], index] = 1.0 / index.shape[1]
        return [AffineOp(weight, np.zeros(len(index), dtype=FLOAT))]
