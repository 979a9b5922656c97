"""Differential and property tests for the batched abstraction backend.

The batched interval/zonotope transformers must be *bound-identical*
(within float reassociation, 1e-9) to looping the scalar transformers
over the batch, and must keep the soundness invariant: any concrete
point inside batch member ``i``'s input box maps into member ``i``'s
propagated output enclosure.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.graph import AffineOp, LeakyReLUOp, MaxGroupOp, ReLUOp, PiecewiseLinearNetwork
from repro.verification.abstraction.domain import get_domain
from repro.verification.abstraction.interval import propagate_box, transform
from repro.verification.abstraction.propagate import (
    IntervalBoundError,
    propagate_regions,
    region_boxes,
)
from repro.verification.abstraction.zonotope import ZonotopeBatch, propagate_zonotope
from repro.verification.sets import Box, BoxBatch

ATOL = 1e-9

INTERVAL = get_domain("interval")
ZONOTOPE = get_domain("zonotope")


def _interval_batch(net, batch):
    """Batched interval image of a whole network via the registry."""
    return INTERVAL.propagate(net, INTERVAL.lift(batch))


def _zonotope_batch(net, batch):
    """Batched zonotope image of a whole network via the registry."""
    return ZONOTOPE.propagate(net, ZONOTOPE.lift(batch))


def _region_box(model, lower, upper, to_layer):
    """One region's cut-layer box, as a batch of one."""
    return region_boxes(
        model, BoxBatch(lower[None], upper[None]), to_layer
    ).box(0)


def _random_box_batch(rng, n, dim, degenerate_every=3):
    """(n, dim) batch; every ``degenerate_every``-th member is zero-width."""
    lower = rng.uniform(-1.0, 1.0, size=(n, dim))
    width = rng.uniform(0.0, 1.5, size=(n, dim))
    if degenerate_every:
        width[::degenerate_every] = 0.0
    return BoxBatch(lower, lower + width)


def _random_pl_network(rng, in_dim):
    """Random Affine/ReLU/LeakyReLU/MaxGroup chain over flat vectors."""
    ops = []
    dim = in_dim
    for _ in range(int(rng.integers(2, 5))):
        kind = rng.choice(["affine", "relu", "leaky", "max"])
        if kind == "affine":
            out = int(rng.integers(2, 7))
            ops.append(
                AffineOp(rng.normal(size=(out, dim)), rng.normal(size=out))
            )
            dim = out
        elif kind == "relu":
            ops.append(ReLUOp(dim))
        elif kind == "leaky":
            ops.append(LeakyReLUOp(dim, alpha=float(rng.uniform(0.01, 0.3))))
        else:
            groups = [
                rng.choice(dim, size=int(rng.integers(1, min(dim, 3) + 1)), replace=False)
                for _ in range(int(rng.integers(2, 5)))
            ]
            ops.append(MaxGroupOp(dim, groups))
            dim = len(groups)
    ops.append(AffineOp(rng.normal(size=(3, dim)), rng.normal(size=3)))
    return PiecewiseLinearNetwork(ops, in_dim)


@pytest.fixture
def batched_convnet():
    """Conv/BN/pool/LeakyReLU stack with warmed BatchNorm statistics."""
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            BatchNorm(),
            LeakyReLU(0.1),
            MaxPool2D(2),
            Flatten(),
            Dense(10),
            BatchNorm(),
            ReLU(),
            Dense(3),
        ],
        input_shape=(1, 12, 12),
        seed=5,
    )
    rng = np.random.default_rng(7)
    model.forward(rng.uniform(0, 1, size=(16, 1, 12, 12)), training=True)
    return model


class TestOpLevelDifferential:
    """Batched op transformers == looped scalar transformers."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_interval_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        net = _random_pl_network(rng, in_dim=5)
        batch = _random_box_batch(rng, n=9, dim=5)
        out = _interval_batch(net, batch)
        for i in range(len(batch)):
            ref = propagate_box(net, batch.box(i))
            np.testing.assert_allclose(out.box(i).lower, ref.lower, atol=ATOL)
            np.testing.assert_allclose(out.box(i).upper, ref.upper, atol=ATOL)

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_zonotope_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        net = _random_pl_network(rng, in_dim=4)
        batch = _random_box_batch(rng, n=7, dim=4)
        out = _zonotope_batch(net, batch)
        for i in range(len(batch)):
            ref = propagate_zonotope(net, batch.box(i)).to_box()
            got = out.zonotope(i).to_box()
            np.testing.assert_allclose(got.lower, ref.lower, atol=ATOL)
            np.testing.assert_allclose(got.upper, ref.upper, atol=ATOL)

    def test_single_op_transformers_match(self):
        rng = np.random.default_rng(42)
        batch = _random_box_batch(rng, n=6, dim=4)
        ops = [
            AffineOp(rng.normal(size=(3, 4)), rng.normal(size=3)),
            ReLUOp(4),
            LeakyReLUOp(4, alpha=0.05),
            MaxGroupOp(4, [np.array([0, 1]), np.array([2, 3]), np.array([0, 3])]),
        ]
        for op in ops:
            out = INTERVAL.transform(op, batch)
            for i in range(len(batch)):
                ref = transform(op, batch.box(i))
                np.testing.assert_allclose(out.box(i).lower, ref.lower, atol=ATOL)
                np.testing.assert_allclose(out.box(i).upper, ref.upper, atol=ATOL)

    def test_degenerate_point_batch_is_exact(self):
        """Zero-width boxes propagate to (near-)zero-width outputs."""
        rng = np.random.default_rng(3)
        net = _random_pl_network(rng, in_dim=5)
        point = rng.normal(size=(4, 5))
        batch = BoxBatch(point, point.copy())
        out = _interval_batch(net, batch)
        values = net.apply(point)
        np.testing.assert_allclose(out.lower, values, atol=1e-9)
        np.testing.assert_allclose(out.upper, values, atol=1e-9)


class TestLayerLevelDifferential:
    """Batched layer propagation == looped scalar layer propagation."""

    def test_full_convnet_batch_matches_scalar(self, batched_convnet):
        model = batched_convnet
        rng = np.random.default_rng(0)
        n = 6
        lower = rng.uniform(0.0, 0.6, size=(n, 1, 12, 12))
        width = rng.uniform(0.0, 0.3, size=(n, 1, 12, 12))
        width[2] = 0.0  # degenerate member
        batch = BoxBatch(lower, lower + width)
        out = region_boxes(model, batch, model.num_layers)
        for i in range(n):
            ref = _region_box(
                model, batch.lower[i], batch.upper[i], model.num_layers
            )
            np.testing.assert_allclose(out.box(i).lower, ref.lower, atol=ATOL)
            np.testing.assert_allclose(out.box(i).upper, ref.upper, atol=ATOL)

    @pytest.mark.parametrize("to_layer", [1, 2, 3, 4, 5, 6, 7])
    def test_every_cut_layer_matches(self, batched_convnet, to_layer):
        """Covers Conv2D, BatchNorm, LeakyReLU, MaxPool2D, Flatten, Dense."""
        model = batched_convnet
        rng = np.random.default_rng(to_layer)
        lower = rng.uniform(0.0, 0.5, size=(4, 1, 12, 12))
        batch = BoxBatch(lower, lower + rng.uniform(0.0, 0.4, size=lower.shape))
        out = region_boxes(model, batch, to_layer)
        for i in range(4):
            ref = _region_box(model, batch.lower[i], batch.upper[i], to_layer)
            np.testing.assert_allclose(out.box(i).lower, ref.lower, atol=ATOL)
            np.testing.assert_allclose(out.box(i).upper, ref.upper, atol=ATOL)

    def test_single_layer_batch_matches_scalar(self, batched_convnet):
        rng = np.random.default_rng(9)
        layer = batched_convnet.layers[0]
        lower = rng.uniform(0.0, 0.5, size=(5, 1, 12, 12))
        upper = lower + rng.uniform(0.0, 0.5, size=lower.shape)
        batched = BoxBatch(lower.reshape(5, -1), upper.reshape(5, -1))
        for op in layer.as_abstract_ops():
            batched = INTERVAL.transform(op, batched)
        for i in range(5):
            single = BoxBatch(lower[i].reshape(1, -1), upper[i].reshape(1, -1))
            for op in layer.as_abstract_ops():
                single = INTERVAL.transform(op, single)
            np.testing.assert_allclose(batched.lower[i], single.lower[0], atol=ATOL)
            np.testing.assert_allclose(batched.upper[i], single.upper[0], atol=ATOL)


class TestSoundnessProperties:
    """Hypothesis: concrete points inside a member's box stay enclosed."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_interval_batch_soundness(self, seed):
        rng = np.random.default_rng(seed)
        net = _random_pl_network(rng, in_dim=4)
        batch = _random_box_batch(rng, n=5, dim=4)
        out = _interval_batch(net, batch)
        for i in range(len(batch)):
            box = batch.box(i)
            points = box.sample(rng, 8)
            values = net.apply(points)
            assert np.all(values >= out.box(i).lower[None, :] - 1e-7)
            assert np.all(values <= out.box(i).upper[None, :] + 1e-7)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_zonotope_batch_soundness(self, seed):
        rng = np.random.default_rng(seed)
        net = _random_pl_network(rng, in_dim=4)
        batch = _random_box_batch(rng, n=4, dim=4)
        out = _zonotope_batch(net, batch)
        hull = out.to_box_batch()
        for i in range(len(batch)):
            points = batch.box(i).sample(rng, 8)
            values = net.apply(points)
            assert np.all(values >= hull.lower[i][None, :] - 1e-7)
            assert np.all(values <= hull.upper[i][None, :] + 1e-7)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_layer_path_batch_soundness(self, seed):
        """Whole-model batched propagation encloses real forward passes."""
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Conv2D(2, 3), ReLU(), Flatten(), Dense(4), ReLU(), Dense(2)],
            input_shape=(1, 6, 6),
            seed=seed % 17,
        )
        lower = rng.uniform(0.0, 0.7, size=(3, 1, 6, 6))
        batch = BoxBatch(lower, lower + rng.uniform(0.0, 0.3, size=lower.shape))
        out = region_boxes(model, batch, model.num_layers)
        for i in range(3):
            span = batch.upper[i] - batch.lower[i]
            points = batch.lower[i][None] + rng.uniform(
                0.0, 1.0, size=(6, 1, 6, 6)
            ) * span[None]
            values = model.forward(points, training=False)
            assert np.all(values >= out.box(i).lower[None, :] - 1e-7)
            assert np.all(values <= out.box(i).upper[None, :] + 1e-7)

    def test_zonotope_batch_exact_on_affine_chain(self):
        """On a pure affine chain the zonotope hull is exact (point images)."""
        rng = np.random.default_rng(21)
        ops = [
            AffineOp(rng.normal(size=(4, 5)), rng.normal(size=4)),
            AffineOp(rng.normal(size=(3, 4)), rng.normal(size=3)),
        ]
        net = PiecewiseLinearNetwork(ops, 5)
        point = rng.normal(size=(6, 5))
        batch = BoxBatch(point, point.copy())
        zb = _zonotope_batch(net, batch).to_box_batch()
        values = net.apply(point)
        np.testing.assert_allclose(zb.lower, values, atol=1e-9)
        np.testing.assert_allclose(zb.upper, values, atol=1e-9)


class TestIntervalBoundErrorContext:
    """Inverted bounds must name the failing layer and region."""

    def test_batch_reports_offending_region(self, batched_convnet, monkeypatch):
        """A transformer failing mid-propagation is re-raised with the
        model layer of the failing op and the offending region."""
        calls = []

        def failing_transform(op, element):
            calls.append(op)
            raise IntervalBoundError("interval has lower > upper bound",
                                     region_index=2)

        monkeypatch.setattr(INTERVAL, "transform", failing_transform)
        lower = np.zeros((4, 1, 12, 12))
        with pytest.raises(IntervalBoundError, match="layer 0.*region 2") as exc:
            propagate_regions(batched_convnet, BoxBatch(lower, lower + 1.0), 2)
        assert len(calls) == 1  # the first op is the layer-0 convolution
        assert exc.value.layer_index == 0
        assert exc.value.region_index == 2

    def test_batch_constructor_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="region 1"):
            BoxBatch(np.zeros((3, 2)), np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]]))

    def test_error_without_context_is_plain(self):
        err = IntervalBoundError("interval has lower > upper bound")
        assert err.layer_index is None and err.region_index is None
        assert "(at" not in str(err)


class TestZonotopeBatchContainer:
    def test_from_box_batch_roundtrip(self):
        rng = np.random.default_rng(2)
        batch = _random_box_batch(rng, n=5, dim=3)
        zb = ZonotopeBatch.from_box_batch(batch)
        hull = zb.to_box_batch()
        np.testing.assert_allclose(hull.lower, batch.lower, atol=ATOL)
        np.testing.assert_allclose(hull.upper, batch.upper, atol=ATOL)
        for i in range(5):
            member = zb.zonotope(i)
            ref = propagate_zonotope(
                PiecewiseLinearNetwork([ReLUOp(3)], 3), batch.box(i)
            )
            assert member.dim == ref.dim

    def test_linear_value_bounds_match_scalar(self):
        rng = np.random.default_rng(8)
        net = _random_pl_network(rng, in_dim=4)
        batch = _random_box_batch(rng, n=5, dim=4)
        zb = _zonotope_batch(net, batch)
        direction = rng.normal(size=net.out_dim)
        lo, hi = zb.linear_value_bounds(direction)
        for i in range(5):
            slo, shi = propagate_zonotope(net, batch.box(i)).linear_value_bounds(
                direction
            )
            assert lo[i] == pytest.approx(slo, abs=ATOL)
            assert hi[i] == pytest.approx(shi, abs=ATOL)

    def test_box_batch_accessors(self):
        batch = BoxBatch(np.zeros((2, 3)), np.ones((2, 3)))
        assert len(batch) == 2 and batch.dim == 3
        assert isinstance(batch.box(0), Box)
        rebuilt = BoxBatch.from_boxes(batch.boxes())
        np.testing.assert_array_equal(rebuilt.lower, batch.lower)
