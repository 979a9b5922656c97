"""CEGAR as an engine strategy: method dispatch, fallback rung, reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.perception.network import build_mlp_perception_network, default_cut_layer
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.solver import register_solver
from repro.verification.solver.result import SolveResult, SolveStatus


@pytest.fixture(scope="module")
def model():
    return build_mlp_perception_network(
        input_dim=4, hidden=(8,), feature_width=4, seed=1
    )


@pytest.fixture(scope="module")
def cut(model):
    return default_cut_layer(model)


@pytest.fixture(scope="module")
def reachable(model):
    rng = np.random.default_rng(0)
    out = model.forward(rng.uniform(0, 1, size=(4000, 4)), training=False)
    return float(out[:, 0].min()), float(out[:, 0].max())


def _engine(model, cut, **kwargs) -> VerificationEngine:
    engine = VerificationEngine(model, cut, solver="highs", **kwargs)
    engine.add_static_feature_set(0.0, 1.0, name="domain")
    return engine


def _risk(threshold: float) -> RiskCondition:
    return RiskCondition("y0-high", (output_geq(2, 0, threshold),))


class TestCegarMethod:
    def test_safe_region_gets_unconditional_safe_verdict(self, model, cut, reachable):
        engine = _engine(model, cut)
        query = VerificationQuery(
            risk=_risk(reachable[1] + 50.0), set_name="domain",
            method="cegar", refine_budget=16,
        )
        result = engine.run_query(query)
        assert result.verdict.verdict.value == "safe"
        assert not result.verdict.monitored  # input-region proofs are sound
        assert result.decided_by == "cegar"
        assert result.ladder == ("cegar",)
        assert result.cegar is not None and result.cegar.proved

    def test_unsafe_region_gets_feature_counterexample(self, model, cut, reachable):
        lo, hi = reachable
        engine = _engine(model, cut)
        query = VerificationQuery(
            risk=_risk(0.5 * (lo + hi)), set_name="domain", method="cegar"
        )
        result = engine.run_query(query)
        assert result.verdict.verdict.value == "unsafe-in-set"
        cex = result.verdict.counterexample
        assert cex is not None
        # the decoded feature witness replays: suffix(features) == output
        replay = model.suffix_apply(cex.features[None, :], cut)[0]
        np.testing.assert_allclose(replay, cex.predicted_output, atol=1e-6)
        assert cex.risk_occurs

    def test_budget_exhaustion_is_unknown_and_resumable(self, model, cut, reachable):
        engine = _engine(model, cut)
        query = VerificationQuery(
            risk=_risk(reachable[1] + 0.3), set_name="domain",
            method="cegar", refine_budget=2,
        )
        first = engine.run_query(query)
        assert first.verdict.verdict.value == "unknown"
        assert first.cegar.trace.open_frontier > 0
        # the same query resumes the cached loop instead of restarting
        second = engine.run_query(
            VerificationQuery(
                risk=_risk(reachable[1] + 0.3), set_name="domain",
                method="cegar", refine_budget=4000,
            )
        )
        assert "cegar-loop" in second.cache_hits
        assert second.verdict.verdict.value == "safe"
        combined = second.cegar.trace.decided_fractions()
        assert all(a <= b + 1e-12 for a, b in zip(combined, combined[1:]))

    def test_resume_is_per_solver_configuration(self, model, cut, reachable):
        # a re-submitted query with a different backend or budget must
        # not silently resume the loop built for the old configuration
        engine = _engine(model, cut)
        base = dict(
            risk=_risk(reachable[1] + 0.3), set_name="domain",
            method="cegar", refine_budget=2,
        )
        first = engine.run_query(VerificationQuery(**base))
        assert "cegar-loop" not in first.cache_hits
        same = engine.run_query(VerificationQuery(**base))
        assert "cegar-loop" in same.cache_hits
        different = engine.run_query(
            VerificationQuery(**{**base, "solver": "branch-and-bound"})
        )
        assert "cegar-loop" not in different.cache_hits

    def test_failed_loop_is_evicted_not_resumed(self, model, cut, reachable, monkeypatch):
        # if a cached loop dies mid-round, the engine must evict it so a
        # re-submitted query starts fresh instead of resuming a frontier
        # with lost subproblems (which could end in an unsound SAFE)
        engine = _engine(model, cut)
        query = VerificationQuery(
            risk=_risk(reachable[1] + 0.3), set_name="domain",
            method="cegar", refine_budget=2,
        )
        first = engine.run_query(query)
        assert first.verdict.verdict.value == "unknown"
        (loop,) = engine._cegar_loops.values()
        monkeypatch.setattr(
            loop, "_prescreen", lambda boxes: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        failed = engine.run_query_safe(query)
        assert not failed.ok and "boom" in failed.error
        assert not engine._cegar_loops  # evicted
        monkeypatch.undo()
        retry = engine.run_query(
            VerificationQuery(
                risk=_risk(reachable[1] + 0.3), set_name="domain",
                method="cegar", refine_budget=4000,
            )
        )
        assert "cegar-loop" not in retry.cache_hits  # fresh loop, not resume
        assert retry.verdict.verdict.value == "safe"

    def test_cegar_needs_input_region_provenance(self, model, cut, reachable):
        engine = _engine(model, cut)
        rng = np.random.default_rng(3)
        engine.add_feature_set_from_data(
            rng.uniform(0, 1, size=(50, 4)), name="data"
        )
        query = VerificationQuery(
            risk=_risk(reachable[1]), set_name="data", method="cegar"
        )
        with pytest.raises(ValueError, match="input-region provenance"):
            engine.run_query(query)
        # run_query_safe reports it as a per-query error instead
        assert "input-region" in engine.run_query_safe(query).error

    def test_cegar_is_phi_free(self, model, cut, reachable):
        engine = _engine(model, cut)
        query = VerificationQuery(
            risk=_risk(reachable[1]), set_name="domain",
            property_name="bends_right", method="cegar",
        )
        with pytest.raises(ValueError, match="phi-free"):
            engine.run_query(query)

    def test_region_sets_carry_input_boxes(self, model, cut):
        engine = VerificationEngine(model, cut, solver="highs")
        from repro.verification.sets import BoxBatch

        lower = np.zeros((3, 4))
        upper = np.full((3, 4), 0.5)
        names = engine.add_region_sets(BoxBatch(lower, upper), name_prefix="r")
        for index, name in enumerate(names):
            box = engine._registered(name).input_box
            assert box is not None
            np.testing.assert_array_equal(box[0], lower[index])
            np.testing.assert_array_equal(box[1], upper[index])


@pytest.fixture
def unknown_solver():
    """A backend that always gives up, removed from the registry after."""
    from repro.verification.solver import _REGISTRY

    spec = register_solver(
        "always-unknown",
        lambda **_: type(
            "Stub",
            (),
            {"solve": staticmethod(lambda m: SolveResult(status=SolveStatus.UNKNOWN))},
        )(),
        encoding="milp",
        supports_minimize=False,
        overwrite=True,
    )
    yield spec.name
    for name in spec.all_names():
        _REGISTRY.pop(name, None)


class TestCegarFallback:
    def test_unknown_solver_results_fall_back_to_cegar(
        self, model, cut, reachable, unknown_solver
    ):
        engine = VerificationEngine(
            model, cut, solver="always-unknown",
            lp_screen=False, refine_fallback=True, cegar_budget=4000,
        )
        engine.add_static_feature_set(0.0, 1.0, name="domain")
        query = VerificationQuery(
            risk=_risk(reachable[1] + 0.3), set_name="domain",
            domain=None,
        )
        result = engine.run_query(query)
        assert result.decided_by == "cegar-fallback"
        assert "cegar-fallback" in result.ladder
        assert result.verdict.verdict.value == "safe"
        assert result.cegar is not None


class TestCampaignSerialization:
    def test_report_serializes_the_trace(self, model, cut, reachable):
        engine = _engine(model, cut)
        campaign = Campaign("cegar-sweep").add_grid(
            risks=[_risk(reachable[1] + 50.0), _risk(reachable[1] + 0.3)],
            sets=("domain",),
            method="cegar",
            refine_budget=4000,
        )
        report = engine.run(campaign)
        assert not report.errors
        payload = json.loads(report.to_json())
        for entry in payload["results"]:
            assert entry["cegar"]["status"] == "unsat"
            trace = entry["cegar"]["trace"]
            fractions = [r["decided_volume"] for r in trace["rounds"]]
            assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
            assert trace["decided_fraction"] == pytest.approx(1.0)
        assert report.decided_by_counts() == {"cegar": 2}

    def test_query_to_dict_includes_budget(self, reachable):
        query = VerificationQuery(
            risk=_risk(0.0), method="cegar", refine_budget=7
        )
        assert query.to_dict()["refine_budget"] == 7

    def test_parallel_campaign_with_cegar_queries(self, model, cut, reachable):
        engine = _engine(model, cut)
        campaign = Campaign("cegar-parallel").add_grid(
            risks=[_risk(reachable[1] + 50.0), _risk(reachable[1] + 40.0)],
            sets=("domain",),
            method="cegar",
            refine_budget=64,
        )
        report = engine.run(campaign, workers=2)
        assert not report.errors
        assert [r.verdict.verdict.value for r in report.results] == ["safe", "safe"]
