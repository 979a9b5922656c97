"""Unit tests for the bound-propagation prescreen and output-range analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, ReLU, Sequential
from repro.properties.risk import RiskCondition, output_geq, output_in_band, output_leq
from repro.verification.abstraction import get_domain
from repro.verification.assume_guarantee import (
    box_from_data,
    box_with_diffs_from_data,
)
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.output_range import output_range
from repro.verification.prescreen import output_enclosure_batch, prescreen
from repro.verification.sets import Box, BoxBatch
from repro.verification.solver import BranchAndBoundSolver


@pytest.fixture
def net_and_set(rng):
    model = Sequential(
        [Dense(8), ReLU(), Dense(6), ReLU(), Dense(2)], input_shape=(4,), seed=17
    )
    net = model.full_network()
    features = rng.normal(size=(120, 4))
    return net, box_with_diffs_from_data(features), features


class TestPrescreen:
    def test_excludes_unreachable_risk(self, net_and_set):
        net, sbox, _ = net_and_set
        reach = output_range(net, sbox)
        risk = RiskCondition("never", (output_geq(2, 0, reach.upper + 100.0),))
        result = prescreen(net, sbox, risk)
        assert result.excluded
        assert result.best_possible_margin < 0.0

    def test_inconclusive_on_reachable_risk(self, net_and_set):
        net, sbox, features = net_and_set
        outputs = net.apply(features)
        risk = RiskCondition(
            "reach", (output_geq(2, 0, float(np.median(outputs[:, 0]))),)
        )
        result = prescreen(net, sbox, risk)
        assert not result.excluded

    def test_zonotope_domain(self, net_and_set):
        net, sbox, _ = net_and_set
        reach = output_range(net, sbox)
        risk = RiskCondition("never", (output_geq(2, 0, reach.upper + 100.0),))
        result = prescreen(net, sbox, risk, domain="zonotope")
        assert result.excluded and result.domain == "zonotope"

    def test_unknown_domain(self, net_and_set):
        net, sbox, _ = net_and_set
        risk = RiskCondition("x", (output_geq(2, 0, 0.0),))
        with pytest.raises(ValueError, match="unknown domain"):
            prescreen(net, sbox, risk, domain="polyhedra")

    def test_every_registered_domain_screens(self, net_and_set):
        """octagon/symbolic are first-class prescreen backends now."""
        from repro.verification.abstraction import registered_domains

        net, sbox, _ = net_and_set
        risk = RiskCondition("x", (output_geq(2, 0, 1e9),))
        for domain in registered_domains():
            assert prescreen(net, sbox, risk, domain=domain).excluded

    def test_dim_mismatch(self, net_and_set):
        net, sbox, _ = net_and_set
        with pytest.raises(ValueError, match="outputs"):
            prescreen(net, sbox, RiskCondition("x", (output_geq(3, 0, 0.0),)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_never_contradicts_exact_solver(self, seed):
        """Soundness: prescreen-excluded risks must be MILP-UNSAT."""
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Dense(5), ReLU(), Dense(2)], input_shape=(3,), seed=seed % 31
        )
        net = model.full_network()
        sbox = box_from_data(rng.normal(size=(40, 3)))
        threshold = rng.uniform(-5, 15)
        risk = RiskCondition("t", (output_geq(2, 0, threshold),))
        if prescreen(net, sbox, risk).excluded:
            problem = encode_verification_problem(net, sbox, risk)
            assert BranchAndBoundSolver().solve(problem.model).is_unsat

    def test_band_risk_excluded_when_band_unreachable(self, net_and_set):
        net, sbox, _ = net_and_set
        reach = output_range(net, sbox)
        band = tuple(
            output_in_band(2, 0, reach.upper + 10.0, reach.upper + 11.0)
        )
        result = prescreen(net, sbox, RiskCondition("band", band))
        assert result.excluded


@pytest.mark.parametrize("domain", ["interval", "zonotope", "symbolic", "octagon"])
def test_enclosure_batch_stacks_mixed_set_hulls(net_and_set, rng, domain):
    """Box and BoxWithDiffs sets stack their hulls into one batch: the
    enclosures equal those of per-set ``Box`` hulls stacked by ``from_boxes``."""
    net, _, _ = net_and_set
    sets = [
        (box_from_data if i % 2 else box_with_diffs_from_data)(rng.normal(size=(40, 4)))
        for i in range(6)
    ]
    got = output_enclosure_batch(net, sets, domain)
    dom = get_domain(domain)
    hulls = BoxBatch.from_boxes([Box(*fs.bounds()) for fs in sets])
    expected = dom.enclosures(dom.propagate(net, dom.lift(hulls)))
    assert len(got) == len(expected) == len(sets)
    for a, b in zip(got, expected):
        lo_a, hi_a = dom.enclosure_box(a).bounds()
        lo_b, hi_b = dom.enclosure_box(b).bounds()
        assert np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b)


class TestOutputRange:
    def test_brackets_empirical_range(self, net_and_set, rng):
        net, sbox, features = net_and_set
        reach = output_range(net, sbox)
        outputs = net.apply(features)
        assert reach.lower <= outputs[:, 0].min() + 1e-6
        assert reach.upper >= outputs[:, 0].max() - 1e-6
        assert reach.exact
        assert reach.width > 0.0

    def test_both_output_indices(self, net_and_set):
        net, sbox, _ = net_and_set
        r0 = output_range(net, sbox, output_index=0)
        r1 = output_range(net, sbox, output_index=1)
        assert r0.output_index == 0 and r1.output_index == 1

    def test_characterizer_shrinks_range(self, net_and_set):
        net, sbox, _ = net_and_set
        char = Sequential([Dense(1)], input_shape=(4,), seed=0)
        char.layers[0].weight.value[...] = np.array([[1.0], [0.0], [0.0], [0.0]])
        char.layers[0].bias.value[...] = np.array([-0.2])
        constrained = output_range(net, sbox, char.full_network())
        free = output_range(net, sbox)
        assert constrained.upper <= free.upper + 1e-6
        assert constrained.lower >= free.lower - 1e-6

    def test_empty_region_raises(self, net_and_set):
        net, sbox, _ = net_and_set
        never = Sequential([Dense(1)], input_shape=(4,), seed=0)
        never.layers[0].weight.value[...] = 0.0
        never.layers[0].bias.value[...] = np.array([-1.0])
        with pytest.raises(ValueError, match="empty"):
            output_range(net, sbox, never.full_network())

    def test_bad_output_index(self, net_and_set):
        net, sbox, _ = net_and_set
        with pytest.raises(ValueError, match="output index"):
            output_range(net, sbox, output_index=5)

    def test_matches_branch_and_bound_solver(self, net_and_set):
        net, sbox, _ = net_and_set
        highs = output_range(net, sbox, solver="highs")
        bb = output_range(net, sbox, solver="branch-and-bound")
        assert highs.upper == pytest.approx(bb.upper, abs=1e-5)
        assert highs.lower == pytest.approx(bb.lower, abs=1e-5)


class TestVerifierPrescreenIntegration:
    def test_prescreen_fast_path_taken(self, rng):
        from repro.api import VerificationEngine
        from repro.perception.network import build_mlp_perception_network, default_cut_layer

        model = build_mlp_perception_network(input_dim=5, feature_width=6, seed=2)
        images = rng.uniform(0, 1, size=(150, 5))
        cut = default_cut_layer(model)
        engine = VerificationEngine(model, cut)
        fs = engine.add_feature_set_from_data(images)
        reach = output_range(engine.suffix, fs)
        risk = RiskCondition("never", (output_geq(2, 0, reach.upper + 50.0),))
        verdict = engine.verify(risk)
        assert verdict.proved
        assert verdict.solve_result.stats.get("prescreen") == "interval"
        # disabling the prescreen goes through the solver instead
        verdict2 = engine.verify(risk, domain=None)
        assert verdict2.proved
        assert "prescreen" not in verdict2.solve_result.stats
