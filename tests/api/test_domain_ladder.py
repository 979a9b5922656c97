"""Domain wiring through the query/engine/campaign stack.

Acceptance surface of the IR + domain-registry refactor: every
registered abstract domain is a first-class engine backend — region
sets, prescreen ladder, CEGAR frontier prescreen — and a scenario-grid
campaign returns **identical verdicts** whichever domain it runs under
(precision changes who decides, never what is decided).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.nn import Dense, Flatten, ReLU, Sequential
from repro.properties.library import steer_far_left
from repro.properties.risk import RiskCondition, output_geq
from repro.scenario.regions import scenario_region_grid
from repro.verification.abstraction import registered_domains
from repro.verification.sets import BoxWithDiffs


@pytest.fixture(scope="module")
def grid():
    return scenario_region_grid(
        n_scenes=2, weather_levels=(0.0, 1.0), traffic_levels=(0,), seed=4
    )


@pytest.fixture(scope="module")
def model():
    model = Sequential(
        [Flatten(), Dense(16), ReLU(), Dense(8), ReLU(), Dense(2)],
        input_shape=(1, 32, 32),
        seed=21,
    )
    return model


def _risk(threshold: float) -> RiskCondition:
    return steer_far_left(threshold)


class TestQueryDomain:
    def test_domain_defaults_to_interval(self):
        risk = _risk(1.0)
        assert VerificationQuery(risk=risk).domain == "interval"
        assert VerificationQuery(risk=risk, domain=None).domain is None
        assert VerificationQuery(risk=risk, domain="octagon").domain == "octagon"

    def test_unknown_domain_rejected_at_query_time(self):
        with pytest.raises(ValueError, match="unknown domain"):
            VerificationQuery(risk=_risk(1.0), domain="polyhedra")

    def test_non_interval_domain_serialized(self):
        query = VerificationQuery(risk=_risk(1.0), domain="zonotope")
        assert query.to_dict()["domain"] == "zonotope"
        assert "domain" not in VerificationQuery(risk=_risk(1.0)).to_dict()


class TestPrescreenLadder:
    def test_ladder_caches_every_rung(self, model, grid):
        engine = VerificationEngine(model, 4, solver="highs")
        names = engine.add_region_sets(grid)
        query = VerificationQuery(
            risk=_risk(1e6), set_name=names[0], domain="symbolic"
        )
        result = engine.run_query(query)
        assert result.decided_by == "prescreen"
        # the cheapest rung (interval) excludes an absurd threshold, so
        # the expensive rungs are never computed
        assert result.verdict.solve_result.stats["prescreen"] == "interval"
        cached = {key[1] for key in engine._enclosure_cache}
        assert cached == {"interval"}

    def test_ladder_escalates_to_requested_domain(self, model, grid):
        # cut after the first ReLU: the suffix is affine -> relu ->
        # affine, where shared noise symbols make zonotope strictly
        # tighter than interval, so the band between the two hulls is
        # decidable only by the escalated rung
        engine = VerificationEngine(model, 3, solver="highs")
        names = engine.add_region_sets(grid)
        # a threshold the interval hull cannot exclude but a relational
        # domain can: probe the band between the two hulls' upper bounds
        enclosure = engine.output_enclosures(names[:1])[0]
        hi_interval = float(enclosure.upper[0])
        from repro.verification.prescreen import output_enclosure

        zonotope_hull = output_enclosure(
            engine.suffix, engine.feature_set(names[0]), "zonotope"
        ).to_box()
        hi_zonotope = float(zonotope_hull.upper[0])
        if not hi_zonotope < hi_interval - 1e-9:
            pytest.skip("zonotope adds no precision on this network")
        threshold = 0.5 * (hi_zonotope + hi_interval)
        query = VerificationQuery(
            risk=_risk(threshold), set_name=names[0], domain="zonotope"
        )
        result = engine.run_query(query)
        assert result.decided_by == "prescreen"
        assert result.verdict.solve_result.stats["prescreen"] == "zonotope"
        cached = {key[1] for key in engine._enclosure_cache}
        assert {"interval", "octagon", "zonotope"} <= cached


class TestRegionSetsPerDomain:
    def test_relational_domains_register_box_with_diffs(self, model, grid):
        engine = VerificationEngine(model, 4, solver="highs")
        names = engine.add_region_sets(grid, domain="octagon")
        for name in names:
            assert isinstance(engine.feature_set(name), BoxWithDiffs)
        registered = engine._registered(names[0])
        assert registered.kind == "octagon(region)"
        assert registered.sound

    def test_static_set_every_domain(self, model):
        for domain in registered_domains():
            engine = VerificationEngine(model, 4, solver="highs")
            fs = engine.add_static_feature_set(0.0, 1.0, domain=domain)
            assert fs.dim == model.feature_dim(4)


class TestCampaignDomainParity:
    def test_identical_verdicts_across_all_domains(self, model, grid):
        """The acceptance check: repro campaign --domain X for every
        registered X yields the same verdict sequence on the grid."""
        verdicts = {}
        for domain in registered_domains():
            engine = VerificationEngine(model, 4, solver="highs")
            engine.add_region_sets(grid, domain=domain)
            enclosures = engine.output_enclosures(grid.names)
            hi = max(float(e.upper[0]) for e in enclosures)
            lo = min(float(e.lower[0]) for e in enclosures)
            campaign = Campaign.from_scenario_grid(
                grid,
                risks=[_risk(round(hi + 0.25, 3)), _risk(round(0.5 * (lo + hi), 3))],
                domain=domain,
            )
            report = engine.run(campaign)
            assert not report.errors
            verdicts[domain] = [r.verdict.verdict.value for r in report.results]
        baseline = verdicts["interval"]
        for domain, values in verdicts.items():
            assert values == baseline, f"{domain} verdicts diverge"


class TestCegarDomain:
    def test_cegar_requires_a_domain(self, model):
        engine = VerificationEngine(model, 0, solver="highs")
        engine.add_static_feature_set(0.0, 1.0, name="root")
        query = VerificationQuery(
            risk=RiskCondition("far", (output_geq(2, 0, 1e6),)),
            set_name="root",
            method="cegar",
            domain=None,
        )
        with pytest.raises(ValueError, match="cegar queries need"):
            engine.run_query(query)

    def test_cegar_runs_under_every_domain(self, model):
        reach_hi = 1.0
        for domain in registered_domains():
            engine = VerificationEngine(
                model, 0, solver="highs", cegar_budget=64
            )
            engine.add_static_feature_set(0.0, 1.0, name="root", domain="interval")
            risk = RiskCondition("far", (output_geq(2, 0, 1e6),))
            query = VerificationQuery(
                risk=risk, set_name="root", method="cegar", domain=domain
            )
            result = engine.run_query(query)
            assert result.verdict.verdict.value == "safe", domain
