"""Integration tests for the paper's Section V claims (the reproduction core).

Each test corresponds to an experiment in EXPERIMENTS.md.  The claims are
about the *workflow behaviour* — which ingredients make which properties
provable — not about the authors' absolute numbers, so thresholds are
derived adaptively from exact output-range analysis of the system under
test.
"""

import numpy as np
import pytest

from repro.core.verdict import Verdict
from repro.properties.library import STEER_STRAIGHT, steer_far_left
from repro.verification.assume_guarantee import (
    box_from_data,
    box_with_diffs_from_data,
    feature_set_from_data,
)
from repro.verification.output_range import output_range


@pytest.fixture(scope="module")
def ranges(verified_system):
    """Exact reachable y0 ranges per set shape, with/without characterizer."""
    sys_ = verified_system
    characterizer = sys_.characterizers["bends_right"].as_piecewise_linear()
    out = {}
    for kind in ("box", "box+diff", "box+pairs"):
        fs = feature_set_from_data(sys_.train_features, kind=kind)
        out[(kind, "no-h")] = output_range(sys_.engine.suffix, fs, None, 0)
        out[(kind, "h")] = output_range(sys_.engine.suffix, fs, characterizer, 0)
    return out


class TestClaimProvableProperty:
    """§V: 'possible to conditionally prove … impossibility to suggest
    steering to the far left, when the road image is bending to the right'.

    The provable "far left" frontier is the exact max of the waypoint
    output over S~ ∩ {h accepts}; any threshold above it is conditionally
    proved.  Real bend-right scenes stay far below that frontier."""

    def test_adaptive_far_left_threshold_proved(self, verified_system, ranges):
        sys_ = verified_system
        frontier = ranges[("box+diff", "h")].upper
        verdict = sys_.engine.verify(
            steer_far_left(frontier + 0.25), property_name="bends_right"
        )
        assert verdict.verdict is Verdict.CONDITIONALLY_SAFE
        assert verdict.monitored

    def test_frontier_far_above_real_behaviour(self, verified_system, ranges):
        """The proof is not vacuous: real bend-right outputs are well below."""
        sys_ = verified_system
        labels = sys_.train_data.property_labels("bends_right") > 0.5
        outputs = sys_.model.suffix_apply(
            sys_.train_features[labels], sys_.cut_layer
        )
        assert outputs[:, 0].max() < ranges[("box+diff", "h")].upper

    def test_characterizer_tightens_frontier(self, ranges):
        """The h conjunct can only shrink (and here strictly shrinks) the
        reachable set — the mechanism that makes phi-conditional proofs
        stronger than unconditional ones."""
        for kind in ("box", "box+diff", "box+pairs"):
            assert ranges[(kind, "h")].upper <= ranges[(kind, "no-h")].upper + 1e-6
        assert (
            ranges[("box+diff", "h")].upper
            < ranges[("box+diff", "no-h")].upper - 0.05
        )

    def test_threshold_not_provable_without_characterizer(
        self, verified_system, ranges
    ):
        sys_ = verified_system
        with_h = ranges[("box+diff", "h")].upper
        without_h = ranges[("box+diff", "no-h")].upper
        if without_h - with_h < 0.1:
            pytest.skip("characterizer gap too small on this seed")
        threshold = 0.5 * (with_h + without_h)
        proved = sys_.engine.verify(
            steer_far_left(threshold), property_name="bends_right"
        )
        unconstrained = sys_.engine.verify(steer_far_left(threshold))
        assert proved.verdict is Verdict.CONDITIONALLY_SAFE
        assert unconstrained.verdict is Verdict.UNSAFE_IN_SET


class TestClaimUnprovableProperty:
    """§V: 'still impossible to prove … impossibility to suggest steering
    straight, when the road image is bending to the right'."""

    def test_steer_straight_not_proved(self, verified_system):
        verdict = verified_system.engine.verify(
            STEER_STRAIGHT, property_name="bends_right"
        )
        assert verdict.verdict is Verdict.UNSAFE_IN_SET
        assert verdict.counterexample is not None
        # the witness output really lies in the "straight" band
        assert abs(verdict.counterexample.predicted_output[0]) <= 0.3 + 1e-6


class TestClaimBoxTooCoarse:
    """§V: 'it is commonly not sufficient to only record the minimum and
    maximum value for each neuron' — relational records are tighter."""

    def test_diff_set_cuts_volume(self, verified_system, rng):
        sys_ = verified_system
        box = box_from_data(sys_.train_features)
        diff = box_with_diffs_from_data(sys_.train_features)
        probe = box.sample(rng, 4000)
        assert diff.contains(probe).sum() < box.contains(probe).sum()

    def test_frontier_ladder_monotone(self, ranges):
        """box ⊇ box+diff ⊇ box+pairs: reachable maxima shrink in order."""
        assert (
            ranges[("box+diff", "h")].upper
            <= ranges[("box", "h")].upper + 1e-6
        )
        assert (
            ranges[("box+pairs", "h")].upper
            <= ranges[("box+diff", "h")].upper + 1e-6
        )
        # and the full octagon strictly improves over the plain box
        assert ranges[("box+pairs", "h")].upper < ranges[("box", "h")].upper - 0.05

    def test_diff_set_proves_at_least_as_much(self, verified_system):
        """Any risk provable under box is provable under box+diff."""
        sys_ = verified_system
        sys_.engine.add_feature_set_from_features(
            sys_.train_features, kind="box", name="box-only"
        )
        sys_.engine.add_feature_set_from_features(
            sys_.train_features, kind="box+diff", name="box-diff"
        )
        for threshold in np.linspace(0.5, 6.0, 6):
            risk = steer_far_left(float(threshold))
            box_verdict = sys_.engine.verify(
                risk, property_name="bends_right", set_name="box-only"
            )
            diff_verdict = sys_.engine.verify(
                risk, property_name="bends_right", set_name="box-diff"
            )
            if box_verdict.proved:
                assert diff_verdict.proved


class TestClaimInformationBottleneck:
    """§V: properties like 'traffic participants in adjacent lanes' are
    nearly un-characterizable from close-to-output features (the trained
    classifier 'almost acts like fair coin flipping')."""

    @staticmethod
    def _balanced_accuracy(decisions, labels):
        labels = labels.astype(bool)
        if labels.all() or not labels.any():
            return 0.5
        recall_pos = decisions[labels].mean()
        recall_neg = (~decisions[~labels]).mean()
        return 0.5 * (recall_pos + recall_neg)

    def test_traffic_characterizer_near_coin_flip(self, verified_system):
        from repro.perception.characterizer import train_characterizer
        from repro.scenario.dataset import balanced_property_dataset
        from repro.perception.features import extract_features

        sys_ = verified_system
        char_data = balanced_property_dataset(
            300, "adjacent_traffic", sys_.config.scene, seed=777
        )
        char_features = extract_features(sys_.model, char_data.images, sys_.cut_layer)
        char_labels = char_data.property_labels("adjacent_traffic")
        val_labels = sys_.val_data.property_labels("adjacent_traffic")
        traffic_char, _ = train_characterizer(
            "adjacent_traffic",
            sys_.cut_layer,
            char_features,
            char_labels,
            sys_.val_features,
            val_labels,
            hidden=(16,),
            epochs=200,
            seed=0,
        )
        traffic_ba = self._balanced_accuracy(
            traffic_char.decide(sys_.val_features), val_labels
        )
        bend_ba = self._balanced_accuracy(
            sys_.characterizers["bends_right"].decide(sys_.val_features),
            sys_.val_data.property_labels("bends_right"),
        )
        # bend direction is visible in the affordance-relevant features;
        # adjacent traffic is bottlenecked away
        assert bend_ba > 0.65
        assert traffic_ba < bend_ba - 0.1


class TestClaimOddCounterexamples:
    """Footnote 1: verifying from the raw input domain produces
    counterexamples 'so distant from what can be observed in practice'."""

    def test_static_set_much_wider_than_data_set(self, verified_system):
        sys_ = verified_system
        static = sys_.engine.add_static_feature_set(0.0, 1.0, name="static-e7")
        data = sys_.engine.feature_set("data")
        swidth = static.bounds()[1] - static.bounds()[0]
        dwidth = data.bounds()[1] - data.bounds()[0]
        assert np.median(swidth / np.maximum(dwidth, 1e-9)) > 3.0

    def test_provable_under_data_not_under_static(self, verified_system, ranges):
        sys_ = verified_system
        static = sys_.engine.add_static_feature_set(0.0, 1.0, name="static-e7b")
        threshold = ranges[("box+diff", "h")].upper + 0.25
        static_range = output_range(
            sys_.engine.suffix,
            static,
            sys_.characterizers["bends_right"].as_piecewise_linear(),
            0,
        )
        assert static_range.upper > threshold  # static analysis cannot prove it
        data_verdict = sys_.engine.verify(
            steer_far_left(threshold), property_name="bends_right", set_name="data"
        )
        static_verdict = sys_.engine.verify(
            steer_far_left(threshold),
            property_name="bends_right",
            set_name="static-e7b",
        )
        assert data_verdict.proved
        assert static_verdict.verdict is Verdict.UNSAFE_IN_SET
        # the static counterexample is out-of-ODD: its features violate
        # the data envelope the monitor would enforce
        cx = static_verdict.counterexample
        assert not sys_.engine.feature_set("data").contains(
            cx.features[None], tol=1e-6
        )[0]
