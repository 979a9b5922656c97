"""Differential/property suite for the abstract-domain registry.

Satellite contract of the IR refactor: for random small networks and
random input boxes,

- every registered domain's output enclosure contains every concrete
  forward execution (soundness), and
- where the precision order promises it (``domain.refines``), the
  refining domain's enclosure is coordinate-wise no looser than the
  refined one's (octagon refines interval; symbolic refines interval).

Plus protocol-level tests: registry integrity, batched-vs-scalar
equivalence (scalar analysis *is* a batch of one), and feature-set
extraction per domain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, LeakyReLU, MaxPool2D, ReLU, Sequential, Sigmoid
from repro.verification.abstraction import (
    get_domain,
    precision_ladder,
    propagate_regions,
    region_boxes,
    registered_domains,
)
from repro.verification.abstraction.domain import register_transformer
from repro.verification.ir import lowered_full
from repro.verification.sets import Box, BoxBatch, BoxWithDiffs

ATOL = 1e-9


def _random_model(seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    layers = [Dense(int(rng.integers(3, 7)))]
    for _ in range(int(rng.integers(1, 3))):
        layers.append(
            ReLU() if rng.random() < 0.6 else LeakyReLU(float(rng.uniform(0.05, 0.3)))
        )
        layers.append(Dense(int(rng.integers(2, 6))))
    return Sequential(layers, input_shape=(4,), seed=seed % 101)


def _random_regions(rng, n: int, dim: int) -> BoxBatch:
    lower = rng.uniform(-1.0, 1.0, size=(n, dim))
    width = rng.uniform(0.0, 1.2, size=(n, dim))
    width[::3] = 0.0  # degenerate members keep the suite honest
    return BoxBatch(lower, lower + width)


class TestRegistry:
    def test_all_four_domains_registered(self):
        assert registered_domains() == ["interval", "octagon", "zonotope", "symbolic"]

    def test_precision_ladder_prefixes(self):
        assert precision_ladder("interval") == ["interval"]
        assert precision_ladder("octagon") == ["interval", "octagon"]
        assert precision_ladder("symbolic") == [
            "interval",
            "octagon",
            "zonotope",
            "symbolic",
        ]

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain"):
            get_domain("polyhedra")

    def test_duplicate_transformer_rejected(self):
        class FakeOp:
            pass

        register_transformer("interval", FakeOp)(lambda d, o, e: e)
        with pytest.raises(ValueError, match="exactly one implementation"):
            register_transformer("interval", FakeOp)(lambda d, o, e: e)

    def test_refinement_promises_declared(self):
        assert "interval" in get_domain("octagon").refines
        assert "interval" in get_domain("symbolic").refines


class TestSoundnessDifferential:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_every_domain_encloses_concrete_executions(self, seed):
        model = _random_model(seed)
        rng = np.random.default_rng(seed + 1)
        regions = _random_regions(rng, n=5, dim=4)
        program = lowered_full(model)
        hulls = {}
        for name in registered_domains():
            hulls[name] = region_boxes(model, regions, model.num_layers, name)
        for i in range(regions.n_regions):
            box = regions.box(i)
            samples = box.sample(rng, 64)
            outputs = program.apply(samples)
            for name, hull in hulls.items():
                member = hull.box(i)
                assert np.all(outputs >= member.lower[None, :] - ATOL), name
                assert np.all(outputs <= member.upper[None, :] + ATOL), name

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_refining_domains_are_no_looser(self, seed):
        """interval ⊇ octagon and interval ⊇ symbolic, per coordinate."""
        model = _random_model(seed)
        rng = np.random.default_rng(seed + 2)
        regions = _random_regions(rng, n=4, dim=4)
        hulls = {
            name: region_boxes(model, regions, model.num_layers, name)
            for name in registered_domains()
        }
        for name in registered_domains():
            for refined in get_domain(name).refines:
                tight, loose = hulls[name], hulls[refined]
                assert np.all(tight.lower >= loose.lower - ATOL), (name, refined)
                assert np.all(tight.upper <= loose.upper + ATOL), (name, refined)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_octagon_difference_bounds_sound(self, seed):
        model = _random_model(seed)
        rng = np.random.default_rng(seed + 3)
        regions = _random_regions(rng, n=3, dim=4)
        program = lowered_full(model)
        octagon = get_domain("octagon")
        element = propagate_regions(model, regions, model.num_layers, "octagon")
        for i in range(regions.n_regions):
            enclosure = octagon.extract(element, i)
            if not isinstance(enclosure, BoxWithDiffs):
                continue
            outputs = program.apply(regions.box(i).sample(rng, 64))
            diffs = np.diff(outputs, axis=1)
            assert np.all(diffs >= enclosure.diff_lower[None, :] - ATOL)
            assert np.all(diffs <= enclosure.diff_upper[None, :] + ATOL)


class TestBatchOfOneEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_batched_equals_stacked_scalars(self, seed):
        """Member i of a batched run equals a batch-of-one run of region i."""
        model = _random_model(seed)
        rng = np.random.default_rng(seed + 4)
        regions = _random_regions(rng, n=4, dim=4)
        for name in registered_domains():
            batched = region_boxes(model, regions, model.num_layers, name)
            for i in range(regions.n_regions):
                single = region_boxes(
                    model,
                    BoxBatch(regions.lower[i][None], regions.upper[i][None]),
                    model.num_layers,
                    name,
                )
                np.testing.assert_allclose(
                    batched.lower[i], single.lower[0], atol=ATOL, err_msg=name
                )
                np.testing.assert_allclose(
                    batched.upper[i], single.upper[0], atol=ATOL, err_msg=name
                )


class TestPrefixCoverage:
    def test_interval_handles_smooth_prefix(self, rng):
        model = Sequential(
            [Dense(5), Sigmoid(), Dense(3)], input_shape=(3,), seed=9
        )
        regions = BoxBatch(np.zeros((2, 3)), np.ones((2, 3)))
        hull = region_boxes(model, regions, model.num_layers, "interval")
        outputs = model.forward(rng.random((50, 3)))
        assert np.all(outputs >= hull.lower.min(axis=0) - ATOL)
        assert np.all(outputs <= hull.upper.max(axis=0) + ATOL)

    def test_relational_domains_reject_smooth_prefix(self):
        """Unsupported (domain, op) pairs fail upfront with a clear error."""
        model = Sequential(
            [Dense(5), Sigmoid(), Dense(3)], input_shape=(3,), seed=9
        )
        regions = BoxBatch(np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(
            ValueError, match="'zonotope' has no transformer for MonotoneOp"
        ):
            region_boxes(model, regions, model.num_layers, "zonotope")
        with pytest.raises(ValueError, match="'symbolic' has no transformer"):
            region_boxes(model, regions, model.num_layers, "symbolic")

    def test_maxpool_prefix_all_relational_domains(self, rng):
        from repro.nn import Conv2D, Flatten

        model = Sequential(
            [Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(3)],
            input_shape=(1, 8, 8),
            seed=5,
        )
        regions = BoxBatch(
            np.zeros((2, 1, 8, 8)), np.full((2, 1, 8, 8), 0.5)
        )
        samples = rng.uniform(0.0, 0.5, size=(40, 1, 8, 8))
        outputs = model.forward(samples)
        for name in ("interval", "octagon", "zonotope"):
            hull = region_boxes(model, regions, model.num_layers, name)
            assert np.all(outputs >= hull.box(0).lower[None, :] - ATOL), name
            assert np.all(outputs <= hull.box(0).upper[None, :] + ATOL), name


class TestFeatureSetExtraction:
    def test_octagon_and_zonotope_yield_box_with_diffs(self):
        model = _random_model(11)
        regions = _random_regions(np.random.default_rng(0), n=2, dim=4)
        for name in ("octagon", "zonotope"):
            dom = get_domain(name)
            element = propagate_regions(model, regions, model.num_layers, name)
            fs = dom.feature_set(dom.extract(element, 0))
            assert isinstance(fs, BoxWithDiffs)

    def test_interval_and_symbolic_yield_boxes(self):
        model = _random_model(12)
        regions = _random_regions(np.random.default_rng(1), n=2, dim=4)
        for name in ("interval", "symbolic"):
            dom = get_domain(name)
            element = propagate_regions(model, regions, model.num_layers, name)
            fs = dom.feature_set(dom.extract(element, 0))
            assert isinstance(fs, Box) and not isinstance(fs, BoxWithDiffs)

    def test_octagon_lp_screen_no_looser_than_box(self):
        """The octagon LP lower bound is >= the plain box lower bound."""
        rng = np.random.default_rng(3)
        octagon = get_domain("octagon")
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        enclosure = BoxWithDiffs(box, np.array([-0.1]), np.array([0.1]))
        for _ in range(10):
            a = rng.normal(size=2)
            box_bound = get_domain("interval").linear_lower_bound(box, a)
            lp_bound = octagon.linear_lower_bound(enclosure, a)
            assert lp_bound >= box_bound - ATOL

    def test_octagon_failed_lp_keeps_box_bound(self, fail_lps):
        """An LP that stops without an optimum tightens nothing."""
        octagon = get_domain("octagon")
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        enclosure = BoxWithDiffs(box, np.array([-0.1]), np.array([0.1]))
        a = np.array([1.0, -1.0])
        assert octagon.linear_lower_bound(enclosure, a) == pytest.approx(-0.1)
        fail_lps()
        assert octagon.linear_lower_bound(enclosure, a) == pytest.approx(-2.0)
