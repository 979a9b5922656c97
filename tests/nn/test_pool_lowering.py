"""Pooling layers lower to the same window index as the per-window loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.interchange.onnx import model_to_onnx_bytes, onnx_bytes_to_model
from repro.nn.graph import MaxGroupOp
from repro.nn.layers import AvgPool2D, Conv2D, Flatten, MaxPool2D
from repro.nn.sequential import Sequential
from repro.perception.network import build_direct_perception_network


def _loop_groups(layer) -> list[np.ndarray]:
    """The windows one at a time: channel, output row, output column."""
    c, h, w = layer.input_shape
    _, ho, wo = layer.output_shape_
    flat = np.arange(c * h * w).reshape(c, h, w)
    k, s = layer.size, layer.stride
    return [
        flat[ci, i * s : i * s + k, j * s : j * s + k].ravel()
        for ci in range(c)
        for i in range(ho)
        for j in range(wo)
    ]


def _resized_index(groups: list[np.ndarray]) -> np.ndarray:
    """Each group cycled to the widest one's length (``np.resize``)."""
    width = max(g.size for g in groups)
    return np.array([np.resize(g, width) for g in groups], dtype=np.intp)


def _pools(model: Sequential) -> list:
    return [layer for layer in model.layers if isinstance(layer, (MaxPool2D, AvgPool2D))]


def _assert_lowered_like_loop(layer) -> None:
    groups = _loop_groups(layer)
    (op,) = layer.as_verification_ops()
    if isinstance(layer, MaxPool2D):
        assert isinstance(op, MaxGroupOp)
        assert op.index.dtype == np.intp
        assert np.array_equal(op.index, _resized_index(groups))
        assert len(op.groups) == len(groups)
        for got, want in zip(op.groups, groups):
            assert got.dtype == np.intp and np.array_equal(got, want)
    else:
        weight = np.zeros((len(groups), layer.input_shape[0] * layer.input_shape[1]
                           * layer.input_shape[2]))
        for row, group in enumerate(groups):
            weight[row, group] = 1.0 / group.size
        assert np.array_equal(op.weight, weight)


GEOMETRIES = [
    # (input shape, size, stride)
    ((1, 4, 4), 2, None),
    ((2, 5, 5), 2, None),  # the last row and column are dropped
    ((3, 7, 6), 3, 2),  # overlapping windows
    ((2, 6, 6), 2, 1),
    ((1, 9, 9), 3, 3),
    ((4, 3, 3), 3, None),  # one window per channel
]


@pytest.mark.parametrize("pool", [MaxPool2D, AvgPool2D])
@pytest.mark.parametrize("shape,size,stride", GEOMETRIES)
def test_window_index_equals_per_window_loop(pool, shape, size, stride):
    model = Sequential([pool(size, stride), Flatten()], input_shape=shape, seed=0)
    (layer,) = _pools(model)
    _assert_lowered_like_loop(layer)


def test_builtin_perception_network():
    """The scenario network's pool: 512 windows of a 8x16x16 feature map."""
    model = build_direct_perception_network()
    (layer,) = _pools(model)
    (op,) = layer.as_verification_ops()
    assert op.index.shape == (512, 4)
    _assert_lowered_like_loop(layer)


def test_onnx_imported_pool():
    native = Sequential(
        [Conv2D(2, 3, padding=1), MaxPool2D(2), Conv2D(2, 3), MaxPool2D(3, 2), Flatten()],
        input_shape=(1, 14, 14),
        seed=1,
    )
    imported = onnx_bytes_to_model(model_to_onnx_bytes(native))
    pools = _pools(imported)
    assert [(p.size, p.stride) for p in pools] == [(2, 2), (3, 2)]
    for layer in pools:
        _assert_lowered_like_loop(layer)


def test_ragged_groups_pad_with_their_own_members():
    groups = [np.array([4]), np.array([0, 1, 2]), np.array([3, 1]), np.array([2, 2, 0, 1, 4])]
    op = MaxGroupOp(5, groups)
    assert np.array_equal(op.index, _resized_index(groups))
    assert all(np.array_equal(g, want) for g, want in zip(op.groups, groups))


def test_array_groups_validated():
    with pytest.raises(ValueError, match="out of range"):
        MaxGroupOp(3, np.array([[0, 1], [2, 3]]))
    with pytest.raises(ValueError, match="empty"):
        MaxGroupOp(3, np.zeros((2, 0), dtype=int))
    with pytest.raises(ValueError, match="out of range"):
        MaxGroupOp(3, [np.array([0]), np.array([-1, 2])])
