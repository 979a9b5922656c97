"""Unit and property tests for the piecewise-linear graph view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.graph import (
    AffineOp,
    LeakyReLUOp,
    MaxGroupOp,
    PiecewiseLinearNetwork,
    ReLUOp,
    lower_layers,
)
from repro.nn.layers.activations import ReLU, Sigmoid
from repro.nn.layers.dense import Dense


class TestAffineOp:
    def test_apply_vector_and_batch(self):
        op = AffineOp(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(op.apply(np.array([1.0, 1.0])), [4.0, -1.0])
        batch = op.apply(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(batch, [[4.0, -1.0], [1.0, 0.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            AffineOp(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="bias"):
            AffineOp(np.zeros((2, 3)), np.zeros(3))


class TestReLUOps:
    def test_relu(self):
        op = ReLUOp(3)
        np.testing.assert_array_equal(
            op.apply(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_leaky(self):
        op = LeakyReLUOp(2, alpha=0.5)
        np.testing.assert_array_equal(op.apply(np.array([-2.0, 2.0])), [-1.0, 2.0])

    def test_leaky_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            LeakyReLUOp(2, alpha=-0.1)


class TestMaxGroupOp:
    def test_apply(self):
        op = MaxGroupOp(4, [np.array([0, 1]), np.array([2, 3])])
        np.testing.assert_array_equal(
            op.apply(np.array([1.0, 5.0, -1.0, 2.0])), [5.0, 2.0]
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MaxGroupOp(2, [np.array([0, 5])])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            MaxGroupOp(2, [np.array([], dtype=int)])

    @settings(max_examples=60, deadline=None)
    @given(
        in_dim=st.integers(1, 9),
        n_groups=st.integers(1, 6),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_equals_per_group_loop(self, in_dim, n_groups, rows, seed):
        """One padded gather gives each group's max and first argmax."""
        from repro.verification.abstraction.domain import get_domain
        from repro.verification.ir import _op_vjp
        from repro.verification.sets import BoxBatch

        rng = np.random.default_rng(seed)
        # unequal, overlapping groups (members may repeat); small integer
        # values make ties within a group common
        groups = [
            rng.integers(0, in_dim, size=int(rng.integers(1, in_dim + 3)))
            for _ in range(n_groups)
        ]
        op = MaxGroupOp(in_dim, groups)
        x = rng.integers(-2, 3, size=(rows, in_dim)).astype(float)
        upper = x + rng.integers(0, 2, size=x.shape)
        grad = rng.normal(size=(rows, n_groups))

        def loop_max(values):
            return np.stack([values[:, g].max(axis=1) for g in op.groups], axis=1)

        vjp = np.zeros_like(x)
        for j, g in enumerate(op.groups):
            np.add.at(vjp, (np.arange(rows), g[np.argmax(x[:, g], axis=1)]), grad[:, j])

        assert np.array_equal(op.apply(x), loop_max(x))
        assert np.array_equal(op.apply(x[0]), loop_max(x[:1])[0])
        image = get_domain("interval").transform(op, BoxBatch(x, upper))
        assert np.array_equal(image.lower, loop_max(x))
        assert np.array_equal(image.upper, loop_max(upper))
        assert np.array_equal(_op_vjp(op, x, grad), vjp)


class TestPiecewiseLinearNetwork:
    def test_dimension_chain_checked(self):
        good = PiecewiseLinearNetwork(
            [AffineOp(np.zeros((3, 2)), np.zeros(3)), ReLUOp(3)], in_dim=2
        )
        assert good.out_dim == 3
        with pytest.raises(ValueError, match="expects input dim"):
            PiecewiseLinearNetwork(
                [AffineOp(np.zeros((3, 2)), np.zeros(3)), ReLUOp(4)], in_dim=2
            )

    def test_num_relu_counts_decisions(self):
        net = PiecewiseLinearNetwork(
            [
                AffineOp(np.zeros((3, 2)), np.zeros(3)),
                ReLUOp(3),
                MaxGroupOp(3, [np.array([0, 1, 2])]),
            ],
            in_dim=2,
        )
        assert net.num_relu() == 6  # 3 relu + 3 group members

    def test_compose(self):
        a = PiecewiseLinearNetwork([ReLUOp(3)], in_dim=3)
        b = PiecewiseLinearNetwork([AffineOp(np.ones((1, 3)), np.zeros(1))], in_dim=3)
        c = a.compose(b)
        np.testing.assert_array_equal(c.apply(np.array([-1.0, 1.0, 2.0])), [3.0])
        with pytest.raises(ValueError, match="compose"):
            b.compose(a)

    def test_apply_checks_dim(self):
        net = PiecewiseLinearNetwork([ReLUOp(3)], in_dim=3)
        with pytest.raises(ValueError, match="trailing dim"):
            net.apply(np.zeros(4))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lowered_model_matches_forward(self, seed):
        """Soundness of lowering: PL view == Sequential forward, any weights."""
        from repro.nn.sequential import Sequential

        model = Sequential(
            [Dense(6), ReLU(), Dense(3)], input_shape=(4,), seed=seed % 1000
        )
        net = model.full_network()
        x = np.random.default_rng(seed).normal(size=(5, 4))
        np.testing.assert_allclose(net.apply(x), model.forward(x), atol=1e-10)


class TestLowerLayers:
    def test_rejects_non_pl_layer(self):
        sigmoid = Sigmoid()
        sigmoid.build((4,), np.random.default_rng(0))
        with pytest.raises(ValueError, match="not piecewise-linear"):
            lower_layers([sigmoid], 4)
