"""Differential test: lowered-IR interval propagation vs a layer-walk.

The reference below is the pre-IR batched interval propagation: it walks
the model's :class:`~repro.nn.layers.base.Layer` objects directly and
shares no code with the lowering, the BatchNorm fold or the domain
registry.  Pushing the same input boxes through both must give the same
cut-layer bounds (``atol=1e-9``) at every cut of a small seeded
conv + BatchNorm + dense model, so a bug in lowering, folding or an
interval transformer shows up as a bound mismatch here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Identity,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.sets import BoxBatch
from tests.nn.test_conv_plan import im2col

# -- the pre-IR layer-walking reference --------------------------------------


def _legacy_conv_apply(layer, x, weight, bias):
    cols, ho, wo = im2col(x, layer.kernel, layer.stride, layer.padding)
    w_flat = weight.reshape(layer.filters, -1)
    out = np.matmul(w_flat, cols) + bias[None, :, None]
    return out.reshape(x.shape[0], layer.filters, ho, wo)


_MONOTONE = (ReLU, LeakyReLU, Sigmoid, Tanh, Identity, MaxPool2D, AvgPool2D)


def _legacy_layer_bounds_batch(layer, lower, upper):
    """The pre-IR batched transformer bodies, verbatim modulo plumbing."""
    if isinstance(layer, Dense):
        center = 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
        w = layer.weight.value
        out_center = center @ w + layer.bias.value
        out_radius = radius @ np.abs(w)
        return out_center - out_radius, out_center + out_radius
    if isinstance(layer, Conv2D):
        center = 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
        out_center = _legacy_conv_apply(
            layer, center, layer.weight.value, layer.bias.value
        )
        zero_bias = np.zeros_like(layer.bias.value)
        out_radius = _legacy_conv_apply(
            layer, radius, np.abs(layer.weight.value), zero_bias
        )
        return out_center - out_radius, out_center + out_radius
    if isinstance(layer, BatchNorm):
        scale, shift = layer.affine_coefficients()
        if lower.ndim == 4:
            scale = scale[:, None, None]
            shift = shift[:, None, None]
        a = scale * lower + shift
        b = scale * upper + shift
        return np.minimum(a, b), np.maximum(a, b)
    if isinstance(layer, Dropout):
        return lower, upper
    if isinstance(layer, Flatten):
        n = lower.shape[0]
        return lower.reshape(n, -1), upper.reshape(n, -1)
    if isinstance(layer, _MONOTONE):
        return (
            layer.forward(lower, training=False),
            layer.forward(upper, training=False),
        )
    raise TypeError(f"no legacy transformer for {type(layer).__name__}")


def _legacy_propagate_batch(model, boxes, to_layer):
    lo = boxes.lower.astype(float, copy=True)
    hi = boxes.upper.astype(float, copy=True)
    for layer in model.layers[:to_layer]:
        lo, hi = _legacy_layer_bounds_batch(layer, lo, hi)
    n = lo.shape[0]
    return lo.reshape(n, -1), hi.reshape(n, -1)


# -- the model and regions under test ----------------------------------------


@pytest.fixture(scope="module")
def model():
    """Conv + BatchNorm + dense over 1x10x10, every reference layer kind.

    BatchNorm appears after a conv and after a dense (both fold into the
    preceding op) and after an activation (no fold: it stays a diagonal
    affine op).
    """
    net = Sequential(
        [
            Conv2D(3, 3),
            BatchNorm(),
            ReLU(),
            MaxPool2D(2),
            Conv2D(2, 2, padding=1),
            LeakyReLU(0.1),
            AvgPool2D(2),
            Flatten(),
            Dropout(0.3),
            Dense(12),
            BatchNorm(),
            Tanh(),
            BatchNorm(),
            Dense(8),
            Sigmoid(),
            Identity(),
            Dense(6),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 10, 10),
        seed=5,
    )
    rng = np.random.default_rng(5)
    # biases start at zero; make them count in every fold and transformer
    for layer in net.layers:
        if isinstance(layer, (Conv2D, Dense)):
            layer.bias.value[...] = rng.normal(scale=0.5, size=layer.bias.value.shape)
    # warm the running statistics so every BatchNorm is non-trivial
    net.forward(rng.random((32, 1, 10, 10)), training=True)
    net.invalidate_lowering()
    return net


@pytest.fixture(scope="module")
def boxes(model):
    """24 input regions: narrow, wide and full-range pixel boxes."""
    rng = np.random.default_rng(17)
    n = 24
    center = rng.uniform(0.0, 1.0, size=(n, *model.input_shape))
    radius = rng.uniform(0.0, 0.05, size=center.shape)
    radius[8:16] *= 10.0
    lower = np.clip(center - radius, 0.0, 1.0)
    upper = np.clip(center + radius, 0.0, 1.0)
    lower[-1], upper[-1] = 0.0, 1.0
    return BoxBatch(lower, upper)


@pytest.mark.parametrize("cut", range(1, 20))
def test_ir_bounds_match_the_layer_walk(model, boxes, cut):
    legacy_lo, legacy_hi = _legacy_propagate_batch(model, boxes, cut)
    hull = region_boxes(model, boxes, cut)
    np.testing.assert_allclose(hull.lower, legacy_lo, atol=1e-9)
    np.testing.assert_allclose(hull.upper, legacy_hi, atol=1e-9)
