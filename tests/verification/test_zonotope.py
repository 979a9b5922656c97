"""Unit and property tests for the zonotope domain."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, LeakyReLU, ReLU, Sequential
from repro.nn.graph import AffineOp, ConvOp, MaxGroupOp, ReLUOp
from repro.verification.abstraction import get_domain
from repro.verification.abstraction.zonotope import (
    MAX_GENERATOR_ENTRIES,
    Zonotope,
    ZonotopeBatch,
    propagate_zonotope,
    transform,
)
from repro.verification.sets import Box, BoxBatch


class TestZonotopeBasics:
    def test_from_box_roundtrip(self):
        box = Box(np.array([-1.0, 2.0]), np.array([1.0, 4.0]))
        z = Zonotope.from_box(box)
        back = z.to_box()
        np.testing.assert_allclose(back.lower, box.lower)
        np.testing.assert_allclose(back.upper, box.upper)

    def test_samples_inside_interval_hull(self):
        rng = np.random.default_rng(0)
        z = Zonotope(np.array([1.0, -1.0]), rng.normal(size=(5, 2)))
        samples = z.sample(rng, 200)
        hull = z.to_box()
        assert hull.contains(samples).all()

    def test_linear_value_bounds(self):
        z = Zonotope(np.array([0.0, 0.0]), np.array([[1.0, 1.0]]))
        lo, hi = z.linear_value_bounds(np.array([1.0, -1.0]))
        # x0 - x1 = e - e = 0 exactly: shared generator captures the relation
        assert lo == pytest.approx(0.0) and hi == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="generators"):
            Zonotope(np.zeros(2), np.zeros((3, 5)))

    def test_empty_generators_ok(self):
        z = Zonotope(np.array([1.0]), np.zeros((0, 1)))
        assert z.num_generators == 0
        np.testing.assert_array_equal(z.radius(), [0.0])


class TestTransformers:
    def test_affine_exact(self):
        rng = np.random.default_rng(1)
        z = Zonotope(rng.normal(size=3), rng.normal(size=(4, 3)))
        op = AffineOp(rng.normal(size=(2, 3)), rng.normal(size=2))
        out = transform(z, op)
        # exactness: sample mapping agrees
        samples = z.sample(rng, 100)
        mapped = op.apply(samples)
        hull = out.to_box()
        assert hull.contains(mapped).all()

    def test_relu_stable_positive_is_identity(self):
        z = Zonotope(np.array([5.0]), np.array([[1.0]]))
        out = transform(z, ReLUOp(1))
        np.testing.assert_allclose(out.center, z.center)
        np.testing.assert_allclose(out.generators, z.generators)

    def test_relu_stable_negative_is_zero(self):
        z = Zonotope(np.array([-5.0]), np.array([[1.0]]))
        out = transform(z, ReLUOp(1))
        hull = out.to_box()
        np.testing.assert_allclose(hull.lower, 0.0)
        np.testing.assert_allclose(hull.upper, 0.0)

    def test_relu_unstable_sound(self):
        z = Zonotope(np.array([0.0]), np.array([[2.0]]))  # range [-2, 2]
        out = transform(z, ReLUOp(1))
        hull = out.to_box()
        assert hull.lower[0] <= 0.0 and hull.upper[0] >= 2.0

    def test_max_group_dominated_is_exact(self):
        z = Zonotope(np.array([10.0, 0.0]), np.array([[0.5, 0.5]]))
        op = MaxGroupOp(2, [np.array([0, 1])])
        out = transform(z, op)
        np.testing.assert_allclose(out.center, [10.0])

    def test_dim_mismatch(self):
        z = Zonotope(np.zeros(2), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="dim"):
            transform(z, ReLUOp(3))


class TestPropagationSoundness:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_relu_network_sound(self, seed):
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Dense(6), ReLU(), Dense(5), ReLU(), Dense(2)],
            input_shape=(3,),
            seed=seed % 89,
        )
        net = model.full_network()
        box = Box(-rng.uniform(0.1, 1.5, 3), rng.uniform(0.1, 1.5, 3))
        z_out = propagate_zonotope(net, box)
        hull = z_out.to_box()
        samples = box.sample(rng, 300)
        outputs = net.apply(samples)
        assert np.all(outputs >= hull.lower[None, :] - 1e-9)
        assert np.all(outputs <= hull.upper[None, :] + 1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_leaky_relu_network_sound(self, seed):
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Dense(5), LeakyReLU(0.1), Dense(2)], input_shape=(3,), seed=seed % 83
        )
        net = model.full_network()
        box = Box(-np.ones(3), np.ones(3))
        hull = propagate_zonotope(net, box).to_box()
        outputs = net.apply(box.sample(rng, 300))
        assert np.all(outputs >= hull.lower[None, :] - 1e-9)
        assert np.all(outputs <= hull.upper[None, :] + 1e-9)

    def test_affine_chain_is_exact(self):
        """Pure affine chains lose nothing in the zonotope domain."""
        model = Sequential([Dense(4), Dense(3), Dense(2)], input_shape=(3,), seed=5)
        net = model.full_network()
        box = Box(-np.ones(3), np.ones(3))
        hull = propagate_zonotope(net, box).to_box()
        # brute-force corners give the exact affine image bounds
        corners = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        outputs = net.apply(corners)
        np.testing.assert_allclose(hull.lower, outputs.min(axis=0), atol=1e-9)
        np.testing.assert_allclose(hull.upper, outputs.max(axis=0), atol=1e-9)


class TestGeneratorSizeGuard:
    """Dense generator stacks past ``MAX_GENERATOR_ENTRIES`` are refused
    before anything of their size is allocated."""

    def test_image_space_lift_raises_without_allocating(self):
        n, d = 128, 1 * 32 * 32
        lower = np.zeros((n, d))
        batch = BoxBatch(lower, lower + 0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} boxes of dimension {d}") as err:
                ZonotopeBatch.from_box_batch(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(n * d * d) in str(err.value)
        assert peak < 8 * n * d * 4  # a few input-sized buffers at most

    def test_conv_columns_raise_without_allocating(self):
        op = ConvOp(np.ones((8, 1, 5, 5)), np.zeros(8), 1, 2, (1, 32, 32))
        n, k = 8, 400  # 25 column entries per input entry
        assert n * k * op.plan.size > MAX_GENERATOR_ENTRIES > n * k * op.in_dim
        zonotopes = ZonotopeBatch(np.zeros((n, op.in_dim)), np.zeros((n, k, op.in_dim)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="conv columns of 8 zonotopes"):
                get_domain("zonotope").transform(op, zonotopes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * k * op.in_dim  # less than the generators

    def test_small_lifts_are_unchanged(self):
        rng = np.random.default_rng(4)
        lower = rng.normal(size=(5, 6))
        upper = lower + rng.uniform(0.0, 1.0, size=lower.shape)
        lifted = ZonotopeBatch.from_box_batch(BoxBatch(lower, upper))
        assert np.array_equal(lifted.center, 0.5 * (lower + upper))
        expected = np.zeros((5, 6, 6))
        expected[:, np.arange(6), np.arange(6)] = 0.5 * (upper - lower)
        assert np.array_equal(lifted.generators, expected)
