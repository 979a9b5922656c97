"""Unit and property tests for the interval domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, ReLU, Sequential
from repro.nn.graph import AffineOp, LeakyReLUOp, MaxGroupOp, ReLUOp
from repro.verification.abstraction.interval import (
    op_output_bounds,
    propagate_box,
    transform,
)
from repro.verification.sets import Box


class TestOpTransformers:
    def test_affine_exact_on_point_box(self):
        op = AffineOp(np.array([[2.0, -1.0]]), np.array([0.5]))
        point = Box(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        out = transform(op, point)
        assert out.lower[0] == out.upper[0] == pytest.approx(0.5)

    def test_affine_width_scales_with_abs_weights(self):
        op = AffineOp(np.array([[1.0, -3.0]]), np.zeros(1))
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        out = transform(op, box)
        assert out.lower[0] == -4.0 and out.upper[0] == 4.0

    def test_relu_clamps(self):
        box = Box(np.array([-2.0, 1.0, -3.0]), np.array([-1.0, 2.0, 3.0]))
        out = transform(ReLUOp(box.dim), box)
        np.testing.assert_array_equal(out.lower, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(out.upper, [0.0, 2.0, 3.0])

    def test_leaky_relu_monotone(self):
        op = LeakyReLUOp(2, alpha=0.1)
        box = Box(np.array([-10.0, -1.0]), np.array([10.0, -0.5]))
        out = transform(op, box)
        np.testing.assert_allclose(out.lower, [-1.0, -0.1])
        np.testing.assert_allclose(out.upper, [10.0, -0.05])

    def test_max_group(self):
        op = MaxGroupOp(4, [np.array([0, 1]), np.array([2, 3])])
        box = Box(np.array([0.0, 1.0, -5.0, -4.0]), np.array([2.0, 3.0, -1.0, 0.0]))
        out = transform(op, box)
        np.testing.assert_array_equal(out.lower, [1.0, -4.0])
        np.testing.assert_array_equal(out.upper, [3.0, 0.0])

    def test_transform_checks_dim(self):
        with pytest.raises(ValueError, match="does not match"):
            transform(ReLUOp(3), Box(np.zeros(2), np.ones(2)))


class TestPropagateSoundness:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_samples_inside_propagated_box(self, seed):
        """Soundness: f(x) in propagate(box) for all sampled x in box."""
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Dense(7), ReLU(), Dense(5), ReLU(), Dense(3)],
            input_shape=(4,),
            seed=seed % 97,
        )
        net = model.full_network()
        box = Box(-rng.uniform(0.1, 2, 4), rng.uniform(0.1, 2, 4))
        out_box = propagate_box(net, box)
        samples = box.sample(rng, 500)
        outputs = net.apply(samples)
        assert np.all(outputs >= out_box.lower[None, :] - 1e-9)
        assert np.all(outputs <= out_box.upper[None, :] + 1e-9)

    def test_point_box_is_exact(self):
        model = Sequential([Dense(5), ReLU(), Dense(2)], input_shape=(3,), seed=1)
        net = model.full_network()
        x = np.array([0.3, -0.7, 1.1])
        box = Box(x, x)
        out = propagate_box(net, box)
        expected = net.apply(x)
        np.testing.assert_allclose(out.lower, expected, atol=1e-12)
        np.testing.assert_allclose(out.upper, expected, atol=1e-12)


class TestOpOutputBounds:
    def test_chained_boxes_consistent(self):
        model = Sequential([Dense(6), ReLU(), Dense(2)], input_shape=(3,), seed=2)
        net = model.full_network()
        box = Box(-np.ones(3), np.ones(3))
        pairs = op_output_bounds(net, box)
        assert len(pairs) == len(net.ops)
        # output of op i is input of op i+1
        for (_, out_a), (in_b, _) in zip(pairs, pairs[1:]):
            np.testing.assert_array_equal(out_a.lower, in_b.lower)
            np.testing.assert_array_equal(out_a.upper, in_b.upper)
        # final box equals propagate_box
        final = propagate_box(net, box)
        np.testing.assert_array_equal(pairs[-1][1].lower, final.lower)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pairs_bitwise_equal_to_per_op_boxes(self, seed):
        """Each op's box is built once and shared as the next op's input;
        the values are those of rebuilding every box from its element."""
        from repro.nn import Conv2D, Flatten, LeakyReLU, MaxPool2D
        from repro.verification.abstraction.interval import INTERVAL
        from repro.verification.sets import BoxBatch

        rng = np.random.default_rng(seed)
        model = Sequential(
            [Conv2D(2, 3, padding=1), LeakyReLU(0.1), MaxPool2D(2), Flatten(),
             Dense(5), ReLU(), Dense(2)],
            input_shape=(1, 4, 4),
            seed=int(rng.integers(0, 1000)),
        )
        net = model.full_network()
        lower = rng.uniform(-1.0, 1.0, 16)
        box = Box(lower, lower + rng.uniform(0.0, 0.5, 16))
        element = INTERVAL.lift(BoxBatch(box.lower[None], box.upper[None]))
        expected = []
        for op in net.ops:
            out = INTERVAL.transform(op, element)
            expected.append((element.box(0), out.box(0)))
            element = out
        pairs = op_output_bounds(net, box)
        assert len(pairs) == len(expected)
        for (got_in, got_out), (want_in, want_out) in zip(pairs, expected):
            for got, want in ((got_in, want_in), (got_out, want_out)):
                assert got.lower.tobytes() == want.lower.tobytes()
                assert got.upper.tobytes() == want.upper.tobytes()
        for (_, out_a), (in_b, _) in zip(pairs, pairs[1:]):
            assert out_a is in_b
