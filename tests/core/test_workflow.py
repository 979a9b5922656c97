"""Unit tests for the Figure 1 workflow on the engine (small MLP systems)."""

import numpy as np
import pytest

from repro.api import VerificationEngine
from repro.core.verdict import Verdict
from repro.nn import Dense, ReLU, Sequential, Sigmoid
from repro.perception.characterizer import train_characterizer
from repro.perception.network import build_mlp_perception_network, default_cut_layer
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.abstraction.interval import propagate_box
from repro.verification.sets import Box


@pytest.fixture
def mlp_system(rng):
    """MLP perception system over synthetic 6-d 'images'."""
    model = build_mlp_perception_network(input_dim=6, hidden=(12,), feature_width=6, seed=4)
    images = rng.uniform(0, 1, size=(200, 6))
    cut = default_cut_layer(model)
    return model, images, cut


class TestSetup:
    def test_rejects_non_pl_cut(self):
        model = Sequential(
            [Dense(4), Sigmoid(), Dense(2)], input_shape=(3,), seed=0
        )
        with pytest.raises(ValueError, match="piecewise-linear"):
            VerificationEngine(model, cut_layer=1)

    def test_unknown_set_name(self, mlp_system):
        model, _, cut = mlp_system
        engine = VerificationEngine(model, cut)
        with pytest.raises(KeyError, match="no feature set"):
            engine.feature_set("nope")

    def test_characterizer_layer_mismatch(self, mlp_system, rng):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        features = model.prefix_apply(images, cut)
        labels = (features[:, 0] > features[:, 0].mean()).astype(float)
        char, _ = train_characterizer(
            "p", cut + 1, features, labels, features, labels, epochs=5
        )
        with pytest.raises(ValueError, match="trained at layer"):
            engine.attach_characterizer(char)

    def test_raw_set_dimension_checked(self, mlp_system):
        model, _, cut = mlp_system
        engine = VerificationEngine(model, cut)
        with pytest.raises(ValueError, match="does not match"):
            engine.add_raw_set(Box(np.zeros(3), np.ones(3)), sound=False, name="x")


class TestFeatureSets:
    def test_data_set_contains_training_features(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        feature_set = engine.add_feature_set_from_data(images)
        features = model.prefix_apply(images, cut)
        assert feature_set.contains(features).all()

    def test_static_interval_set_contains_data_set(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        data_set = engine.add_feature_set_from_data(images, kind="box")
        static_set = engine.add_static_feature_set(0.0, 1.0, name="static")
        dlo, dhi = data_set.bounds()
        slo, shi = static_set.bounds()
        assert np.all(slo <= dlo + 1e-9)
        assert np.all(shi >= dhi - 1e-9)

    def test_static_zonotope_set(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        z_set = engine.add_static_feature_set(0.0, 1.0, domain="zonotope", name="z")
        features = model.prefix_apply(images, cut)
        assert z_set.contains(features).all()  # sound for all in [0,1]^d inputs

    def test_unknown_domain(self, mlp_system):
        model, _, cut = mlp_system
        engine = VerificationEngine(model, cut)
        with pytest.raises(ValueError, match="unknown domain"):
            engine.add_static_feature_set(domain="polytope")


class TestVerify:
    def _reachable_risk(self, model, images, cut, quantile):
        outputs = model.forward(images)
        return RiskCondition(
            "q", (output_geq(2, 0, float(np.quantile(outputs[:, 0], quantile))),)
        )

    def test_unsafe_in_set_with_witness(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        risk = self._reachable_risk(model, images, cut, 0.5)
        verdict = engine.verify(risk)
        assert verdict.verdict is Verdict.UNSAFE_IN_SET
        assert verdict.counterexample is not None
        assert not verdict.proved

    def test_conditionally_safe_on_unreachable_risk(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        feature_set = engine.add_feature_set_from_data(images)
        hull = propagate_box(engine.suffix, Box(*feature_set.bounds()))
        risk = RiskCondition("never", (output_geq(2, 0, float(hull.upper[0]) + 1.0),))
        verdict = engine.verify(risk)
        assert verdict.verdict is Verdict.CONDITIONALLY_SAFE
        assert verdict.monitored and verdict.proved

    def test_sound_set_gives_unconditional_safe(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        static = engine.add_static_feature_set(0.0, 1.0, name="static")
        hull = propagate_box(engine.suffix, Box(*static.bounds()))
        risk = RiskCondition("never", (output_geq(2, 0, float(hull.upper[0]) + 1.0),))
        verdict = engine.verify(risk, set_name="static")
        assert verdict.verdict is Verdict.SAFE
        assert not verdict.monitored

    def test_characterizer_conjunct_used(self, mlp_system, rng):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        features = model.prefix_apply(images, cut)
        labels = (features[:, 0] > np.median(features[:, 0])).astype(float)
        char, _ = train_characterizer(
            "high_f0", cut, features, labels, features, labels, epochs=100, seed=0
        )
        engine.attach_characterizer(char)
        risk = self._reachable_risk(model, images, cut, 0.5)
        with_char = engine.verify(risk, property_name="high_f0")
        without = engine.verify(risk)
        # conjunction can only shrink the feasible region
        if without.verdict is Verdict.CONDITIONALLY_SAFE:
            assert with_char.verdict is Verdict.CONDITIONALLY_SAFE
        if with_char.counterexample is not None:
            assert with_char.counterexample.characterizer_logit >= -1e-9

    def test_missing_characterizer(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        risk = self._reachable_risk(model, images, cut, 0.5)
        with pytest.raises(KeyError, match="no characterizer"):
            engine.verify(risk, property_name="ghost")

    def test_all_solver_backends_agree(self, mlp_system):
        model, images, cut = mlp_system
        risk = self._reachable_risk(model, images, cut, 0.9)
        verdicts = []
        for solver in ("branch-and-bound", "highs", "phase-split"):
            engine = VerificationEngine(model, cut, solver=solver)
            engine.add_feature_set_from_data(images)
            verdicts.append(engine.verify(risk, domain=None).verdict)
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_summary_text(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        risk = self._reachable_risk(model, images, cut, 0.5)
        text = engine.verify(risk).summary()
        assert "verdict" in text and "solver" in text


class TestMonitorFactory:
    def test_monitor_uses_registered_set(self, mlp_system):
        model, images, cut = mlp_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        monitor = engine.make_monitor()
        report = monitor.run(images[:20])
        assert report.violations == 0
