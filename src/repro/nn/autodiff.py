"""Eval-mode input gradients.

Training backpropagation (``Sequential.backward``) differentiates the
*training* forward pass — in particular BatchNorm's batch statistics.
Adversarial search (FGSM, ref [17] of the paper) instead needs the
gradient of the *deployed* network, where BatchNorm is a fixed affine
map and dropout is the identity.  :func:`input_gradient` computes
``d(out_grad . f(x)) / dx`` for that eval-mode semantics, without
touching any layer's training caches.  The attacks ascend the lowered
program's exact VJP instead; this layer walk is its independent
reference in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.activations import Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.base import Layer
from repro.nn.layers.batchnorm import BatchNorm
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.sequential import Sequential
from repro.nn.tensor import FLOAT, col2im


def _layer_input_grad(layer: Layer, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of one layer's eval-mode output wrt its input at ``x``."""
    if isinstance(layer, Dense):
        return grad @ layer.weight.value.T

    if isinstance(layer, Conv2D):
        n, f, ho, wo = grad.shape
        w_flat = layer.weight.value.reshape(f, -1)
        dcols = np.einsum("fk,nfp->nkp", w_flat, grad.reshape(n, f, ho * wo))
        return col2im(dcols, x.shape, layer.kernel, layer.stride, layer.padding)

    if isinstance(layer, BatchNorm):
        scale, _ = layer.affine_coefficients()
        if grad.ndim == 4:
            scale = scale[None, :, None, None]
        return grad * scale

    if isinstance(layer, ReLU):
        return grad * (x > 0.0)

    if isinstance(layer, LeakyReLU):
        return grad * np.where(x >= 0.0, 1.0, layer.alpha)

    if isinstance(layer, Sigmoid):
        s = layer.forward(x, training=False)
        return grad * s * (1.0 - s)

    if isinstance(layer, Tanh):
        t = np.tanh(x)
        return grad * (1.0 - t**2)

    if isinstance(layer, (Identity, Dropout)):
        return grad

    if isinstance(layer, Flatten):
        return grad.reshape(x.shape)

    if isinstance(layer, MaxPool2D):
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (layer.size, layer.size), axis=(2, 3)
        )[:, :, :: layer.stride, :: layer.stride]
        n, c, ho, wo = windows.shape[:4]
        argmax = windows.reshape(n, c, ho, wo, -1).argmax(axis=-1)
        ki, kj = np.divmod(argmax, layer.size)
        ni, ci, ii, jj = np.indices((n, c, ho, wo))
        dx = np.zeros(x.shape, dtype=FLOAT)
        np.add.at(
            dx, (ni, ci, ii * layer.stride + ki, jj * layer.stride + kj), grad
        )
        return dx

    if isinstance(layer, AvgPool2D):
        n, c, ho, wo = grad.shape
        dx = np.zeros(x.shape, dtype=FLOAT)
        share = grad / float(layer.size * layer.size)
        for i in range(ho):
            for j in range(wo):
                dx[
                    :,
                    :,
                    i * layer.stride : i * layer.stride + layer.size,
                    j * layer.stride : j * layer.stride + layer.size,
                ] += share[:, :, i : i + 1, j : j + 1]
        return dx

    raise TypeError(f"no eval-mode gradient for layer {type(layer).__name__}")


def input_gradient(
    model: Sequential, x: np.ndarray, out_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode ``(output, d(out_grad . f(x)) / dx)`` for a batch ``x``.

    ``out_grad`` has the output's shape (or broadcasts to it).
    """
    x = np.asarray(x, dtype=FLOAT)
    activations = [x]
    for layer in model.layers:
        activations.append(layer.forward(activations[-1], training=False))
    output = activations[-1]
    grad = np.broadcast_to(np.asarray(out_grad, dtype=FLOAT), output.shape).copy()
    for layer, layer_input in zip(reversed(model.layers), reversed(activations[:-1])):
        grad = _layer_input_grad(layer, layer_input, grad)
    return output, grad
