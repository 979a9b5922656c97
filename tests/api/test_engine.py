"""VerificationEngine: caching, ladder, feature-set guard, method paths."""

import numpy as np
import pytest

from repro.api import Method, VerificationEngine, VerificationQuery
from repro.core.verdict import Verdict
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.abstraction.interval import propagate_box
from repro.verification.output_range import output_range
from repro.verification.sets import Box


@pytest.fixture
def engine(api_system):
    model, images, cut, characterizer = api_system
    engine = VerificationEngine(model, cut)
    engine.add_feature_set_from_data(images)
    engine.attach_characterizer(characterizer)
    return engine


def _reachable_risk(api_system, quantile):
    model, images, _, _ = api_system
    outputs = model.forward(images)
    return RiskCondition(
        "q", (output_geq(2, 0, float(np.quantile(outputs[:, 0], quantile))),)
    )


def _unreachable_risk(engine):
    hull = propagate_box(engine.suffix, Box(*engine.feature_set("data").bounds()))
    return RiskCondition("never", (output_geq(2, 0, float(hull.upper[0]) + 1.0),))


class TestEncodingCache:
    def test_one_encode_across_repeated_queries(self, api_system, open_data_set):
        """The headline win: N same-shape queries, exactly one encoding."""
        model, images, cut, characterizer = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_raw_set(open_data_set, sound=False, name="data")
        outputs = model.forward(images)
        for quantile in np.linspace(0.05, 0.95, 10):
            risk = RiskCondition(
                "q", (output_geq(2, 0, float(np.quantile(outputs[:, 0], quantile))),)
            )
            result = engine.run_query(
                VerificationQuery(risk=risk, domain=None)
            )
            assert result.ok
        # single-row risks: the first query builds the support bracket,
        # which leaves it open, and keeps the one-off feasibility path
        # (one relaxed encode); the repeated direction then triggers one
        # support optimization (one MILP encode) that answers the rest
        assert engine.cache_stats.get("miss:encoding:relaxed", 0) == 1
        assert engine.cache_stats.get("miss:encoding:milp", 0) == 1
        assert engine.cache_stats.get("miss:support", 0) == 1
        assert engine.cache_stats.get("hit:support", 0) == 9
        # suffix abstraction bounds propagated exactly once for the set
        assert engine.cache_stats.get("miss:abstraction-bounds", 0) <= 2

    def test_campaign_computes_support_eagerly(self, api_system):
        """Inside run() the sweep collapses onto one optimization."""
        from repro.api import Campaign
        from repro.properties.library import steer_far_left

        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_feature_set_from_data(images)
        campaign = Campaign("sweep").add_grid(
            risks=[steer_far_left(t) for t in np.linspace(-3.0, 3.0, 8)],
            domain=None,
        )
        report = engine.run(campaign)
        assert engine.cache_stats.get("miss:support", 0) == 1
        assert engine.cache_stats.get("hit:support", 0) == 7
        assert all(r.decided_by == "support-cache" for r in report.results)

    def test_one_relaxed_encode_for_conjunction_risks(self, api_system):
        """Multi-row risks take the LP-screen path; still one encoding."""
        from repro.properties.risk import output_leq

        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_feature_set_from_data(images)
        outputs = model.forward(images)
        for quantile in np.linspace(0.1, 0.9, 6):
            level = float(np.quantile(outputs[:, 0], quantile))
            risk = RiskCondition(
                "band",
                (output_geq(2, 0, level - 0.05), output_leq(2, 0, level + 0.05)),
            )
            result = engine.run_query(
                VerificationQuery(risk=risk, domain=None)
            )
            assert result.ok
        assert engine.cache_stats.get("miss:encoding:relaxed", 0) == 1
        assert engine.cache_stats.get("hit:encoding:relaxed", 0) == 5

    def test_cached_model_rolled_back_between_queries(self, engine, api_system):
        """Risk rows appended for one query must not leak into the next."""
        reachable = _reachable_risk(api_system, 0.5)
        unreachable = _unreachable_risk(engine)
        first = engine.run_query(
            VerificationQuery(risk=unreachable, domain=None)
        )
        second = engine.run_query(
            VerificationQuery(risk=reachable, domain=None)
        )
        third = engine.run_query(
            VerificationQuery(risk=unreachable, domain=None)
        )
        assert first.verdict.verdict is Verdict.CONDITIONALLY_SAFE
        assert second.verdict.verdict is Verdict.UNSAFE_IN_SET
        assert third.verdict.verdict is first.verdict.verdict

    def test_range_objective_rolled_back(self, engine):
        reach_a = engine.run_query(VerificationQuery(method="range", output_index=0))
        reach_b = engine.run_query(VerificationQuery(method="range", output_index=0))
        assert reach_a.output_range.lower == pytest.approx(reach_b.output_range.lower)
        assert reach_a.output_range.upper == pytest.approx(reach_b.output_range.upper)
        assert engine.cache_stats.get("miss:encoding:milp", 0) == 1

    def test_prescreen_enclosure_cached(self, engine, api_system):
        unreachable = _unreachable_risk(engine)
        for _ in range(4):
            result = engine.run_query(VerificationQuery(risk=unreachable))
            assert result.decided_by == "prescreen"
        assert engine.cache_stats.get("miss:prescreen-enclosure", 0) == 1
        assert engine.cache_stats.get("hit:prescreen-enclosure", 0) == 3

    def test_cache_disabled_reencodes(self, engine, api_system, open_data_set):
        """No cache = a fresh engine per query: each encodes from
        scratch and agrees with the cached engine."""
        model, images, cut, _ = api_system
        engine.add_raw_set(open_data_set, sound=False, name="data", overwrite=True)
        risk = _reachable_risk(api_system, 0.5)
        query = VerificationQuery(risk=risk, domain=None)
        cached = engine.run_query(query).verdict.verdict
        for _ in range(3):
            fresh = VerificationEngine(model, cut)
            fresh.add_raw_set(open_data_set, sound=False, name="data")
            assert fresh.run_query(query).verdict.verdict is cached
            assert fresh.cache_stats.get("hit:encoding:relaxed", 0) == 0
            assert fresh.cache_stats.get("miss:encoding:relaxed", 0) == 1


class TestCacheInvalidation:
    def test_reattached_characterizer_invalidates_caches(self, api_system):
        """Stale encodings/support values must not survive re-attachment."""
        from dataclasses import replace

        model, images, cut, characterizer = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_feature_set_from_data(images)
        engine.attach_characterizer(characterizer)
        risk = _reachable_risk(api_system, 0.5)
        query = VerificationQuery(
            risk=risk, property_name="high_f0", domain=None
        )
        # run twice so the support cache is populated for this direction
        first = engine.run_query(query)
        engine.run_query(query)
        assert first.verdict.verdict is Verdict.UNSAFE_IN_SET
        # a characterizer that never accepts empties the region
        engine.attach_characterizer(replace(characterizer, threshold=1e9))
        after = engine.run_query(query)
        assert after.verdict.verdict is Verdict.CONDITIONALLY_SAFE

    def test_engine_rejects_unknown_solver_options(self, api_system):
        model, images, cut, _ = api_system
        with pytest.raises(TypeError, match="does not accept option"):
            VerificationEngine(model, cut, solver="highs", node_limit=5)

    def test_options_filtered_for_fallback_backend(self, api_system):
        """phase-split options must not crash the MILP range fallback."""
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="phase-split", node_limit=500)
        engine.add_feature_set_from_data(images)
        result = engine.run_query(VerificationQuery(method="range", output_index=0))
        assert result.output_range is not None

    def test_prescreen_decides_before_characterizer_lookup(self, api_system):
        """Legacy contract: a prescreen-excluded risk never needs phi."""
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        unreachable = _unreachable_risk(engine)
        result = engine.run_query(
            VerificationQuery(risk=unreachable, property_name="ghost")
        )
        assert result.decided_by == "prescreen"
        with pytest.raises(KeyError, match="no characterizer"):
            engine.run_query(
                VerificationQuery(
                    risk=unreachable, property_name="ghost", domain=None
                )
            )


class TestFeatureSetGuard:
    def test_duplicate_name_raises(self, api_system):
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        with pytest.raises(ValueError, match="already registered"):
            engine.add_feature_set_from_data(images)
        with pytest.raises(ValueError, match="already registered"):
            engine.add_feature_set_from_features(
                model.prefix_apply(images, cut), name="data"
            )

    def test_overwrite_allows_replacement(self, api_system):
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images, kind="box")
        replaced = engine.add_feature_set_from_data(
            images, kind="box+diff", overwrite=True
        )
        assert engine.feature_set("data") is replaced

    def test_overwrite_invalidates_set_caches(self, api_system):
        """A replaced set must not serve encodings built for the old one."""
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_feature_set_from_data(images, kind="box")
        wide = engine.run_query(VerificationQuery(method="range", output_index=0))
        engine.add_feature_set_from_features(
            model.prefix_apply(images, cut)[:10], kind="box", overwrite=True
        )
        narrow = engine.run_query(VerificationQuery(method="range", output_index=0))
        assert narrow.output_range.lower >= wide.output_range.lower - 1e-9
        assert narrow.output_range.upper <= wide.output_range.upper + 1e-9

    def test_overwrite_forgets_seen_directions(self, api_system, open_data_set):
        """A replaced set starts its one-off queries' ladder afresh."""
        model, images, cut, _ = api_system
        query = VerificationQuery(risk=_reachable_risk(api_system, 0.5), domain=None)
        engine = VerificationEngine(model, cut)
        engine.add_raw_set(open_data_set, sound=False, name="data")
        first = engine.run_query(query)
        engine.add_raw_set(open_data_set, sound=False, name="data", overwrite=True)
        again = engine.run_query(query)
        assert again.ladder == first.ladder
        assert "support-cache" not in again.ladder


class TestMethodPaths:
    def test_relaxed_method_sound(self, engine, api_system):
        """Relaxed verdicts must agree with exact ones whenever decisive."""
        for quantile in (0.2, 0.5, 0.8):
            risk = _reachable_risk(api_system, quantile)
            relaxed = engine.run_query(
                VerificationQuery(risk=risk, method="relaxed", domain=None)
            )
            exact = engine.run_query(
                VerificationQuery(risk=risk, method="exact", domain=None)
            )
            if relaxed.verdict.verdict is not Verdict.UNKNOWN:
                assert relaxed.verdict.verdict is exact.verdict.verdict

    def test_refine_method_needs_data(self, engine, api_system):
        risk = _reachable_risk(api_system, 0.5)
        with pytest.raises(ValueError, match="set_refinement_data"):
            engine.run_query(VerificationQuery(risk=risk, method="refine"))

    def test_refine_method(self, api_system):
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        engine.add_feature_set_from_data(images)
        engine.set_refinement_data(images)
        unreachable = _unreachable_risk(engine)
        result = engine.run_query(VerificationQuery(risk=unreachable, method="refine"))
        assert result.verdict.proved
        assert result.refinement is not None and result.refinement.proved

    def test_robustness_method(self, engine, api_system):
        model, images, cut, _ = api_system
        anchor = tuple(model.prefix_apply(images[:1], cut)[0])
        result = engine.run_query(
            VerificationQuery(
                method="robustness", anchor=anchor, epsilon=0.01, delta=10.0
            )
        )
        assert result.robustness is not None and result.robustness.robust

    def test_characterizer_conjunct_tightens_range(self, engine):
        free = engine.run_query(VerificationQuery(method="range", output_index=0))
        constrained = engine.run_query(
            VerificationQuery(method="range", output_index=0, property_name="high_f0")
        )
        assert constrained.output_range.lower >= free.output_range.lower - 1e-6
        assert constrained.output_range.upper <= free.output_range.upper + 1e-6

    def test_missing_characterizer_raises(self, engine, api_system):
        risk = _reachable_risk(api_system, 0.5)
        with pytest.raises(KeyError, match="no characterizer"):
            engine.run_query(VerificationQuery(risk=risk, property_name="ghost"))

    def test_unknown_set_raises(self, engine, api_system):
        risk = _reachable_risk(api_system, 0.5)
        with pytest.raises(KeyError, match="no feature set"):
            engine.run_query(VerificationQuery(risk=risk, set_name="nope"))

    def test_budget_reaches_solver(self, api_system):
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, lp_screen=False)
        engine.add_feature_set_from_data(images)
        risk = _reachable_risk(api_system, 0.5)
        result = engine.run_query(
            VerificationQuery(risk=risk, node_limit=1, domain=None)
        )
        assert result.verdict.verdict in (Verdict.UNKNOWN, Verdict.UNSAFE_IN_SET)


class TestFailedScreenLP:
    """A relaxed LP that stops without an answer must never decide UNSAT."""

    @staticmethod
    def _engine(api_system, open_data_set, solver):
        model, _, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver=solver)
        engine.add_raw_set(open_data_set, sound=False, name="data")
        return engine

    @staticmethod
    def _unreachable_risk(open_data_set, engine):
        """Past the set's reach but within its hull's: the support
        bound (over the hull) proves nothing, the LP over the set does."""
        reach = output_range(engine.suffix, open_data_set).upper
        hull = propagate_box(engine.suffix, open_data_set.box).upper[0]
        assert reach < hull - 0.1
        return RiskCondition("never", (output_geq(2, 0, 0.5 * (reach + hull)),))

    def test_screen_falls_through_to_the_complete_solver(
        self, api_system, open_data_set, fail_lps
    ):
        engine = self._engine(api_system, open_data_set, "highs")
        risk = self._unreachable_risk(open_data_set, engine)
        query = VerificationQuery(risk=risk, domain=None)
        assert engine.run_query(query).decided_by == "relaxed-lp"
        fail_lps()
        result = self._engine(api_system, open_data_set, "highs").run_query(query)
        assert result.decided_by == "solve:highs"
        assert result.verdict.verdict is Verdict.CONDITIONALLY_SAFE

    @pytest.mark.parametrize("method", [Method.EXACT, Method.RELAXED])
    @pytest.mark.parametrize("solver", ["branch-and-bound", "phase-split"])
    def test_no_path_answers_unsat(
        self, api_system, open_data_set, fail_lps, method, solver
    ):
        engine = self._engine(api_system, open_data_set, solver)
        risk = self._unreachable_risk(open_data_set, engine)
        fail_lps()
        result = engine.run_query(
            VerificationQuery(risk=risk, domain=None, method=method)
        )
        assert result.verdict.verdict is Verdict.UNKNOWN


class TestVerifyConvenience:
    def test_verify_matches_run_query(self, api_system):
        """One-off ``verify`` on a fresh engine == ``run_query`` on a
        warm one."""
        model, images, cut, characterizer = api_system
        engine = VerificationEngine(model, cut)
        engine.add_feature_set_from_data(images)
        engine.attach_characterizer(characterizer)

        outputs = model.forward(images)
        for quantile in (0.1, 0.5, 0.9):
            risk = RiskCondition(
                "q", (output_geq(2, 0, float(np.quantile(outputs[:, 0], quantile))),)
            )
            for prop in (None, "high_f0"):
                fresh = VerificationEngine(model, cut)
                fresh.add_feature_set_from_data(images)
                fresh.attach_characterizer(characterizer)
                one_off = fresh.verify(risk, property_name=prop)
                warm = engine.run_query(
                    VerificationQuery(risk=risk, property_name=prop)
                ).verdict
                assert one_off.verdict is warm.verdict
                assert one_off.monitored == warm.monitored
                assert one_off.feature_set_kind == warm.feature_set_kind
