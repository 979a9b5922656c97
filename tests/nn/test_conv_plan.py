"""Parity of the IR conv and max-group kernels with their im2col references.

``ConvOp`` unfolds its input through a gather plan built once per op, and
``MaxGroupOp`` folds its groups column by column.  Both must reproduce
the ``im2col`` / fancy-index formulas value for value (``np.array_equal``
treats ``-0.0`` and ``+0.0`` as equal), in the forward pass and in the
interval and zonotope transformers that prefix propagation runs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.graph import ConvOp, MaxGroupOp
from repro.nn.tensor import conv_output_size
from repro.verification.abstraction import get_domain
from repro.verification.abstraction.zonotope import ZonotopeBatch
from repro.verification.sets import BoxBatch


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x (N, C, H, W)`` into columns ``(N, C*k*k, Ho*Wo)``.

    The independent reference every conv kernel is checked against: the
    strided-window unfold the library used before ``ConvOp``'s gather
    plan, kept verbatim here.
    """
    n, c, h, w = x.shape
    ho = conv_output_size(h, kernel, stride, padding)
    wo = conv_output_size(w, kernel, stride, padding)
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (N, C, Ho, Wo, k, k)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kernel * kernel, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


@st.composite
def conv_cases(draw):
    """A random ``ConvOp`` and a batch of flat inputs for it."""
    channels = draw(st.sampled_from([1, 3]))
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.sampled_from([1, 2, 3]))
    padding = draw(st.sampled_from([0, 1, 2]))
    height = draw(st.integers(kernel, 12))
    width = draw(st.integers(kernel, 12))
    n = draw(st.sampled_from([1, 7, 64]))
    filters = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    op = ConvOp(
        rng.normal(size=(filters, channels, kernel, kernel)),
        rng.normal(size=filters),
        stride,
        padding,
        (channels, height, width),
    )
    return op, rng.normal(size=(n, op.in_dim)), rng


def _reference_columns(op: ConvOp, x: np.ndarray) -> np.ndarray:
    spatial = x.reshape((x.shape[0],) + op.in_shape)
    return im2col(spatial, op.kernel, op.stride, op.padding)[0]


def _reference_product(
    op: ConvOp, weight: np.ndarray, bias: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The pre-plan kernel: ``w_flat @ im2col(x) + bias`` on flat rows."""
    w_flat = weight.reshape(weight.shape[0], -1)
    out = np.matmul(w_flat, _reference_columns(op, x)) + bias[None, :, None]
    return out.reshape(x.shape[0], -1)


class TestConvPlan:
    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_columns_and_apply_match_im2col(self, case):
        op, x, _ = case
        assert np.array_equal(op.columns(x), _reference_columns(op, x))
        spatial = x.reshape((x.shape[0],) + op.in_shape)
        assert np.array_equal(op.columns(spatial), _reference_columns(op, x))
        expected = _reference_product(op, op.weight, op.bias, x)
        assert np.array_equal(op.apply(x), expected)
        assert np.array_equal(op.apply(x[0]), expected[0])

    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_interval_transformer_matches_the_im2col_formula(self, case):
        op, lower, rng = case
        upper = lower + rng.uniform(0.0, 1.0, size=lower.shape)
        image = get_domain("interval").transform(op, BoxBatch(lower, upper))
        center = 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
        out_center = _reference_product(op, op.weight, op.bias, center)
        out_radius = _reference_product(
            op, np.abs(op.weight), np.zeros_like(op.bias), radius
        )
        assert np.array_equal(image.lower, out_center - out_radius)
        assert np.array_equal(image.upper, out_center + out_radius)

    @settings(max_examples=60, deadline=None)
    @given(conv_cases(), st.integers(0, 3))
    def test_zonotope_transformer_matches_the_im2col_formula(self, case, k):
        op, center, rng = case
        n = center.shape[0]
        generators = rng.normal(size=(n, k, op.in_dim))
        image = get_domain("zonotope").transform(op, ZonotopeBatch(center, generators))
        assert np.array_equal(
            image.center, _reference_product(op, op.weight, op.bias, center)
        )
        if k:
            gens = _reference_product(
                op, op.weight, np.zeros_like(op.bias), generators.reshape(n * k, -1)
            ).reshape(n, k, -1)
        else:
            gens = np.zeros((n, 0, op.out_dim))
        assert np.array_equal(image.generators, gens)

    @settings(max_examples=20, deadline=None)
    @given(conv_cases())
    def test_pickle_round_trip(self, case):
        op, x, _ = case
        back = pickle.loads(pickle.dumps(op))
        assert np.array_equal(back.plan, op.plan)
        assert np.array_equal(back.apply(x), op.apply(x))


class TestConvGeometry:
    """``ConvOp`` rejects what ``Conv2D`` rejects, before any plan is built."""

    @staticmethod
    def _op(weight_shape=(2, 1, 3, 3), stride=1, padding=0):
        return ConvOp(
            np.ones(weight_shape), np.zeros(weight_shape[0]), stride, padding, (1, 5, 5)
        )

    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            self._op(stride=0)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError, match="padding"):
            self._op(padding=-1)

    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError, match="square"):
            self._op(weight_shape=(2, 1, 3, 2))


@st.composite
def max_group_cases(draw):
    """A ``MaxGroupOp`` with unequal groups and an input with 1 or 2 leading axes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    in_dim = draw(st.integers(1, 24))
    groups = [
        rng.integers(0, in_dim, size=int(rng.integers(1, 6)))
        for _ in range(draw(st.integers(1, 10)))
    ]
    leading = draw(st.sampled_from([(5,), (3, 4)]))
    # small integers make ties within a group common
    x = rng.integers(-3, 4, size=leading + (in_dim,)).astype(float)
    return MaxGroupOp(in_dim, groups), x


class TestMaxGroupColumns:
    @settings(max_examples=80, deadline=None)
    @given(max_group_cases())
    def test_apply_matches_the_gathered_max(self, case):
        op, x = case
        assert np.array_equal(op.apply(x), x[..., op.index].max(-1))
        row = x.reshape(-1, op.in_dim)[0]
        assert np.array_equal(op.apply(row), row[op.index].max(-1))

    @settings(max_examples=20, deadline=None)
    @given(max_group_cases())
    def test_pickle_round_trip(self, case):
        op, x = case
        back = pickle.loads(pickle.dumps(op))
        assert np.array_equal(back.index, op.index)
        assert np.array_equal(back.apply(x), op.apply(x))
