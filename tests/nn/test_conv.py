"""Unit tests for Conv2D: a naive loop reference, the shared IR kernel,
and gradients against the einsum formulas and central differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.nn.graph import AffineOp
from repro.nn.layers.conv import Conv2D
from repro.nn.tensor import col2im
from repro.verification.ir import lowered_full
from tests.nn.gradcheck import (
    check_layer_gradients,
    numeric_input_grad,
    numeric_param_grad,
)
from tests.nn.test_conv_plan import im2col


def naive_conv(x, weight, bias, stride, padding):
    """Straightforward loop implementation used as ground truth."""
    n, c, h, w = x.shape
    f, _, k, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for b in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = x[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, fi, i, j] = np.sum(patch * weight[fi]) + bias[fi]
    return out


def _built(filters=3, kernel=3, stride=1, padding=0, input_shape=(2, 6, 6), seed=0):
    layer = Conv2D(filters, kernel, stride=stride, padding=padding)
    layer.build(input_shape, np.random.default_rng(seed))
    return layer


class TestConvForward:
    @pytest.mark.parametrize(
        "kernel,stride,padding", [(3, 1, 0), (3, 1, 1), (3, 2, 1), (5, 2, 2), (2, 2, 0)]
    )
    def test_matches_naive(self, kernel, stride, padding):
        layer = _built(kernel=kernel, stride=stride, padding=padding, input_shape=(2, 8, 8))
        x = np.random.default_rng(1).normal(size=(3, 2, 8, 8))
        expected = naive_conv(x, layer.weight.value, layer.bias.value, stride, padding)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)

    def test_output_shape(self):
        layer = _built(filters=4, kernel=3, stride=2, padding=1)
        assert layer.output_shape((2, 6, 6)) == (4, 3, 3)

    def test_rejects_flat_input_shape(self):
        with pytest.raises(ValueError, match="expects"):
            Conv2D(2, 3).output_shape((10,))

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            Conv2D(0, 3)
        with pytest.raises(ValueError):
            Conv2D(2, 3, stride=0)
        with pytest.raises(ValueError):
            Conv2D(2, 3, padding=-1)


class TestConvGradients:
    def test_gradcheck_basic(self):
        layer = _built(filters=2, kernel=3, input_shape=(1, 5, 5))
        x = np.random.default_rng(2).normal(size=(2, 1, 5, 5))
        check_layer_gradients(layer, x, rtol=1e-4, atol=1e-6)

    def test_gradcheck_stride_padding(self):
        layer = _built(filters=2, kernel=3, stride=2, padding=1, input_shape=(2, 5, 5))
        x = np.random.default_rng(3).normal(size=(2, 2, 5, 5))
        check_layer_gradients(layer, x, rtol=1e-4, atol=1e-6)


class TestSharedKernel:
    """The training layer runs on its lowered ``ConvOp``'s kernel, so a
    trained model computes what its lowered program computes, bit for bit."""

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(5, 2, 2), (3, 2, 1), (3, 1, 0), (1, 1, 0)]
    )
    def test_forward_is_the_ops_forward(self, kernel, stride, padding):
        layer = _built(kernel=kernel, stride=stride, padding=padding, input_shape=(3, 9, 9))
        layer.bias.value[...] = np.random.default_rng(5).normal(size=3)
        (op,) = layer.as_abstract_ops()
        x = np.random.default_rng(6).normal(size=(7, 3, 9, 9))
        expected = op.apply_spatial(x)
        assert np.array_equal(layer.forward(x), expected)
        assert np.array_equal(layer.forward(x, training=True), expected)

    def test_sequential_forward_is_the_lowered_forward(self):
        model = Sequential(
            [
                Conv2D(4, 5, stride=2, padding=2),
                ReLU(),
                MaxPool2D(2),
                BatchNorm(),
                Conv2D(6, 3, stride=2, padding=1),
                ReLU(),
                Flatten(),
                Dense(5),
            ],
            input_shape=(2, 16, 16),
            seed=3,
        )
        rng = np.random.default_rng(7)
        # a BatchNorm after a pool stays its own op; unit gamma and zero
        # shift keep its two evaluation orders bitwise equal
        model.layers[3].running_var[...] = rng.uniform(0.5, 2.0, size=4)
        for layer in (model.layers[0], model.layers[4]):
            layer.bias.value[...] = rng.normal(size=layer.filters)
        x = rng.normal(size=(9, 2, 16, 16))
        program = lowered_full(model)
        assert np.array_equal(model.forward(x), program.apply(x.reshape(9, -1)))

    def test_a_replaced_parameter_array_rebuilds_the_op(self):
        layer = _built(input_shape=(2, 6, 6))
        x = np.random.default_rng(8).normal(size=(2, 2, 6, 6))
        before = layer.forward(x)
        layer.weight.value = 2.0 * layer.weight.value
        np.testing.assert_allclose(layer.forward(x), 2.0 * before, atol=1e-12)

    def test_rejects_an_input_of_another_shape(self):
        layer = _built(input_shape=(2, 6, 6))
        with pytest.raises(ValueError, match="built for"):
            layer.forward(np.zeros((1, 2, 4, 9)))


@st.composite
def conv_layer_cases(draw):
    """A built ``Conv2D``, an input batch and an output gradient for it."""
    channels = draw(st.sampled_from([1, 3]))
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.sampled_from([1, 2, 3]))
    padding = draw(st.sampled_from([0, 1, 2]))
    n = draw(st.sampled_from([1, 7]))
    height = draw(st.integers(kernel, 8))
    width = draw(st.integers(kernel, 8))
    filters = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    layer = Conv2D(filters, kernel, stride=stride, padding=padding)
    layer.build((channels, height, width), rng)
    layer.bias.value[...] = rng.normal(size=filters)
    x = rng.normal(size=(n, channels, height, width))
    grad_out = rng.normal(size=(n,) + layer.output_shape(x.shape[1:]))
    return layer, x, grad_out


class TestGradientsAgainstReferences:
    @staticmethod
    def _einsum_gradients(layer, x, grad_out):
        """The pre-BLAS training formulas: einsum over im2col columns."""
        cols, _, _ = im2col(x, layer.kernel, layer.stride, layer.padding)
        n, f = grad_out.shape[:2]
        g = grad_out.reshape(n, f, -1)
        w_flat = layer.weight.value.reshape(f, -1)
        d_weight = np.einsum("nfp,nkp->fk", g, cols).reshape(layer.weight.value.shape)
        d_bias = g.sum(axis=(0, 2))
        dcols = np.einsum("fk,nfp->nkp", w_flat, g)
        d_x = col2im(dcols, x.shape, layer.kernel, layer.stride, layer.padding)
        return d_weight, d_bias, d_x

    @staticmethod
    def _backward(layer, x, grad_out):
        for p in layer.parameters():
            p.zero_grad()
        layer.forward(x, training=True)
        d_x = layer.backward(grad_out)
        return layer.weight.grad.copy(), layer.bias.grad.copy(), d_x

    @settings(max_examples=60, deadline=None)
    @given(conv_layer_cases())
    def test_match_the_einsum_formulas(self, case):
        layer, x, grad_out = case
        got = self._backward(layer, x, grad_out)
        for value, reference in zip(got, self._einsum_gradients(layer, x, grad_out)):
            np.testing.assert_allclose(value, reference, rtol=1e-12, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(conv_layer_cases())
    def test_match_central_differences(self, case):
        layer, x, grad_out = case
        d_weight, d_bias, d_x = self._backward(layer, x, grad_out)
        tol = {"rtol": 1e-5, "atol": 1e-6}
        np.testing.assert_allclose(
            d_x, numeric_input_grad(layer, x, grad_out), **tol
        )
        np.testing.assert_allclose(
            d_weight, numeric_param_grad(layer, x, grad_out, layer.weight), **tol
        )
        np.testing.assert_allclose(
            d_bias, numeric_param_grad(layer, x, grad_out, layer.bias), **tol
        )


class TestConvVerificationView:
    def test_affine_materialization_exact(self):
        layer = _built(filters=3, kernel=3, stride=2, padding=1, input_shape=(2, 6, 6))
        (op,) = layer.as_verification_ops()
        assert isinstance(op, AffineOp)
        x = np.random.default_rng(4).normal(size=(5, 2, 6, 6))
        flat_out = op.apply(x.reshape(5, -1))
        np.testing.assert_allclose(
            flat_out, layer.forward(x).reshape(5, -1), atol=1e-10
        )

    def test_materialization_size_guard(self):
        layer = Conv2D(64, 3, padding=1)
        layer.build((64, 64, 64), np.random.default_rng(0))
        with pytest.raises(ValueError, match="materialization"):
            layer.as_verification_ops()

    def test_config_roundtrip(self):
        layer = Conv2D(7, 5, stride=2, padding=2)
        clone = Conv2D.from_config(layer.config())
        assert clone.config() == layer.config()
