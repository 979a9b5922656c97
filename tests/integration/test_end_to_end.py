"""Integration tests: the full pipeline on the shared trained system."""

import numpy as np

from repro.core.verdict import Verdict
from repro.perception.features import extract_features
from repro.properties.library import steer_far_left
from repro.verification.abstraction.interval import propagate_box
from repro.verification.sets import Box
from repro.verification.statistical import estimate_confusion


class TestPipelineArtifacts:
    def test_system_summary(self, verified_system):
        text = verified_system.summary()
        assert "perception" in text and "characterizer" in text

    def test_perception_learned_something(self, verified_system):
        # waypoint MAE clearly better than predicting the mean
        targets = verified_system.val_data.affordances
        baseline = np.abs(targets - targets.mean(axis=0)).mean(axis=0)
        assert verified_system.training.val_mae[0] < baseline[0]

    def test_characterizers_beat_chance(self, verified_system):
        for name, characterizer in verified_system.characterizers.items():
            assert characterizer.val_accuracy > 0.6, name

    def test_features_consistent(self, verified_system):
        sys_ = verified_system
        recomputed = extract_features(
            sys_.model, sys_.train_data.images, sys_.cut_layer
        )
        np.testing.assert_array_equal(recomputed, sys_.train_features)

    def test_confusions_match_characterizers(self, verified_system):
        sys_ = verified_system
        for name, confusion in sys_.confusions.items():
            characterizer = sys_.characterizers[name]
            decisions = characterizer.decide(sys_.val_features)
            labels = sys_.val_data.property_labels(name).astype(bool)
            expected = estimate_confusion(decisions, labels)
            assert confusion.gamma == expected.gamma


class TestVerificationQueries:
    def test_far_left_threshold_ladder(self, verified_system):
        """Raising the risk threshold flips UNSAFE to CONDITIONALLY_SAFE."""
        sys_ = verified_system
        feature_set = sys_.engine.feature_set("data")
        hull = propagate_box(sys_.engine.suffix, Box(*feature_set.bounds()))
        impossible = float(hull.upper[0]) + 1.0

        low = sys_.engine.verify(steer_far_left(-100.0), property_name="bends_right")
        high = sys_.engine.verify(
            steer_far_left(impossible), property_name="bends_right"
        )
        assert low.verdict is Verdict.UNSAFE_IN_SET  # everything steers "far left" of -100
        assert high.verdict is Verdict.CONDITIONALLY_SAFE

    def test_witness_is_valid_feature_vector(self, verified_system):
        sys_ = verified_system
        verdict = sys_.engine.verify(
            steer_far_left(-100.0), property_name="bends_right"
        )
        cx = verdict.counterexample
        assert cx is not None
        feature_set = sys_.engine.feature_set("data")
        # LP solutions may sit on the boundary up to solver tolerance
        assert feature_set.contains(cx.features[None], tol=1e-6)[0]
        # the characterizer really accepts the witness (boundary-tolerant)
        characterizer = sys_.characterizers["bends_right"]
        assert characterizer.logits(cx.features[None])[0] >= -1e-6

    def test_monitor_accepts_training_stream(self, verified_system):
        sys_ = verified_system
        monitor = sys_.engine.make_monitor()
        report = monitor.run(sys_.train_data.images[:40])
        assert report.violations == 0

    def test_statistical_guarantee_attached(self, verified_system):
        sys_ = verified_system
        feature_set = sys_.engine.feature_set("data")
        hull = propagate_box(sys_.engine.suffix, Box(*feature_set.bounds()))
        verdict = sys_.engine.verify(
            steer_far_left(float(hull.upper[0]) + 1.0),
            property_name="bends_right",
            confusion=sys_.confusions["bends_right"],
        )
        assert verdict.proved
        guarantee = verdict.statistical_guarantee
        assert guarantee is not None and 0.0 < guarantee <= 1.0
