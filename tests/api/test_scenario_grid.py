"""Region-major campaigns: batched region sets, planner, verdict parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Campaign, Method, VerificationEngine
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.properties.library import steer_far_left
from repro.scenario.regions import scenario_region_grid
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.output_range import output_range_batch
from repro.verification.prescreen import prescreen, prescreen_batch
from repro.verification.sets import BoxBatch


@pytest.fixture(scope="module")
def grid():
    return scenario_region_grid(
        n_scenes=3, weather_levels=(0.0, 1.0), traffic_levels=(0, 1), seed=2
    )


@pytest.fixture(scope="module")
def conv_model():
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(12),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 32, 32),
        seed=13,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)), training=True
    )
    return model


@pytest.fixture(scope="module")
def cut_layer(conv_model):
    return 6


def _engine(conv_model, cut_layer, **kwargs):
    return VerificationEngine(conv_model, cut_layer, solver="highs", **kwargs)


class TestAddRegionSets:
    def test_batched_equals_scalar_registration(self, conv_model, cut_layer, grid):
        batched = _engine(conv_model, cut_layer)
        names = batched.add_region_sets(grid)
        assert names == grid.names
        for name, region in zip(names, grid):
            a = batched.feature_set(name)
            # scalar = a batch of one through the public propagation API
            b = region_boxes(
                conv_model,
                BoxBatch(region.lower[None], region.upper[None]),
                cut_layer,
            ).box(0)
            np.testing.assert_allclose(a.lower, b.lower, atol=1e-9)
            np.testing.assert_allclose(a.upper, b.upper, atol=1e-9)

    def test_sets_are_sound(self, conv_model, cut_layer, grid):
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        registered = engine._registered("region-000")
        assert registered.sound is True
        assert registered.kind == "interval(region)"

    def test_raw_box_batch_with_prefix(self, conv_model, cut_layer):
        engine = _engine(conv_model, cut_layer)
        lower = np.zeros((3, 1, 32, 32))
        names = engine.add_region_sets(
            BoxBatch(lower, lower + 0.5), name_prefix="cell"
        )
        assert names == ["cell-000", "cell-001", "cell-002"]

    def test_shape_mismatch_rejected(self, conv_model, cut_layer):
        engine = _engine(conv_model, cut_layer)
        bad = BoxBatch(np.zeros((2, 1, 8, 8)), np.ones((2, 1, 8, 8)))
        with pytest.raises(ValueError, match="model input"):
            engine.add_region_sets(bad)

    def test_duplicate_names_atomic(self, conv_model, cut_layer, grid):
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        before = set(engine.feature_set_names())
        with pytest.raises(ValueError, match="already registered"):
            engine.add_region_sets(grid)
        assert set(engine.feature_set_names()) == before
        engine.add_region_sets(grid, overwrite=True)  # no error

    def test_region_contains_rendered_features(self, conv_model, cut_layer, grid):
        """Cut-layer features of any in-box input lie in the region set."""
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        rng = np.random.default_rng(1)
        region = grid[0]
        span = region.upper - region.lower
        inputs = region.lower[None] + rng.uniform(0, 1, size=(5, 1, 32, 32)) * span[None]
        features = conv_model.prefix_apply(inputs, cut_layer)
        assert np.all(engine.feature_set("region-000").contains(features, tol=1e-7))


class TestFromScenarioGrid:
    def test_region_major_expansion(self, grid):
        risks = [steer_far_left(1.0), steer_far_left(2.0)]
        campaign = Campaign.from_scenario_grid(grid, risks, properties=(None,))
        assert len(campaign) == len(grid) * 2
        # regions outermost: the first two queries share region-000
        assert campaign[0].set_name == "region-000"
        assert campaign[1].set_name == "region-000"
        assert campaign[2].set_name == "region-001"

    def test_metadata_provenance(self, grid):
        campaign = Campaign.from_scenario_grid(grid, [steer_far_left(1.0)])
        meta = dict(campaign[0].metadata)
        assert meta["region"] == "region-000"
        assert "weather" in meta and "traffic" in meta
        assert dict(campaign[0].to_dict()["metadata"])["region"] == "region-000"

    def test_needs_risks(self, grid):
        with pytest.raises(ValueError, match="risk"):
            Campaign.from_scenario_grid(grid, risks=[])

    def test_method_and_budget_forwarded(self, grid):
        campaign = Campaign.from_scenario_grid(
            grid, [steer_far_left(1.0)], method="relaxed", time_limit=2.0
        )
        assert campaign[0].method is Method.RELAXED
        assert campaign[0].time_limit == 2.0


class TestRegionMajorExecution:
    @pytest.fixture(scope="class")
    def campaign(self, conv_model, cut_layer, grid):
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        ranges = output_range_batch(
            engine.suffix, [engine.feature_set(n) for n in grid.names]
        )
        hi = max(r.upper for r in ranges)
        lo = min(r.lower for r in ranges)
        return Campaign.from_scenario_grid(
            grid,
            risks=[steer_far_left(hi + 0.25), steer_far_left(0.5 * (lo + hi))],
        )

    def test_batched_and_scalar_verdicts_identical(
        self, conv_model, cut_layer, grid, campaign
    ):
        batched = _engine(conv_model, cut_layer)
        batched.add_region_sets(grid)
        # scalar reference: each query alone, outside a planned campaign
        scalar = _engine(conv_model, cut_layer)
        scalar.add_region_sets(grid)

        # one at a time, but each a campaign of one: same stage policy,
        # so batching must change neither the decider nor the status
        single = _engine(conv_model, cut_layer)
        single.add_region_sets(grid)

        batched_report = batched.run(campaign)
        scalar_results = [scalar.run_query(query) for query in campaign]
        single_results = [single.run(query).results[0] for query in campaign]

        def status(result):
            return result.verdict.solve_result.status

        assert [r.verdict.verdict for r in batched_report.results] == [
            r.verdict.verdict for r in scalar_results
        ]
        assert [status(r) for r in batched_report.results] == [
            status(r) for r in scalar_results
        ]
        assert [
            (r.verdict.verdict, r.decided_by, status(r))
            for r in batched_report.results
        ] == [(r.verdict.verdict, r.decided_by, status(r)) for r in single_results]
        # the batched planner computed every enclosure in one pass ...
        assert (
            batched_report.cache_stats["batch:prescreen-enclosure:interval"]
            == len(grid)
        )
        # ... so per-query prescreens only ever hit the cache
        assert batched_report.cache_stats.get("miss:prescreen-enclosure", 0) == 0
        assert scalar.cache_stats["miss:prescreen-enclosure"] == len(grid)

    def test_prescreen_excludes_safe_region_queries(
        self, conv_model, cut_layer, grid, campaign
    ):
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        report = engine.run(campaign)
        decided = report.decided_by_counts()
        # the high-threshold half is excluded by bound propagation alone
        assert decided.get("prescreen", 0) >= len(grid)
        # region sets are sound: exclusion proves SAFE, not conditional
        safe = [r for r in report if r.decided_by == "prescreen"]
        assert all(r.verdict.verdict.value == "safe" for r in safe)

    def test_prescreen_batch_matches_scalar_prescreen(
        self, conv_model, cut_layer, grid
    ):
        engine = _engine(conv_model, cut_layer)
        names = engine.add_region_sets(grid)
        sets = [engine.feature_set(n) for n in names]
        risk = steer_far_left(1.0)
        batched = prescreen_batch(engine.suffix, sets, risk)
        for feature_set, result in zip(sets, batched):
            scalar = prescreen(engine.suffix, feature_set, risk)
            assert result.excluded == scalar.excluded
            assert result.best_possible_margin == pytest.approx(
                scalar.best_possible_margin, abs=1e-9
            )

    def test_zonotope_domain_batched_parity(self, conv_model, cut_layer, grid):
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        risks = [steer_far_left(0.0)]
        campaign = Campaign.from_scenario_grid(grid, risks, domain="zonotope")
        scalar = _engine(conv_model, cut_layer)
        scalar.add_region_sets(grid)
        a = engine.run(campaign)
        b = [scalar.run_query(query) for query in campaign]
        assert a.cache_stats["batch:prescreen-enclosure:zonotope"] == len(grid)
        assert [r.verdict.verdict for r in a.results] == [
            r.verdict.verdict for r in b
        ]

    def test_output_enclosures_seed_the_campaign_prescreen(
        self, conv_model, cut_layer, grid, campaign
    ):
        """Threshold derivation and the campaign share one propagation."""
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        enclosures = engine.output_enclosures(grid.names)
        assert len(enclosures) == len(grid)
        assert engine.cache_stats["batch:prescreen-enclosure:interval"] == len(grid)
        report = engine.run(campaign)
        # the planner found everything cached: no recomputation at all
        assert "batch:prescreen-enclosure:interval" not in report.cache_stats
        assert report.cache_stats.get("miss:prescreen-enclosure", 0) == 0
        # repeated calls are pure cache reads
        again = engine.output_enclosures(grid.names)
        for a, b in zip(enclosures, again):
            assert a is b

    def test_parallel_workers_inherit_batched_plan(
        self, conv_model, cut_layer, grid, campaign
    ):
        engine = _engine(conv_model, cut_layer)
        engine.add_region_sets(grid)
        sequential = engine.run(campaign)
        parallel = engine.run(campaign, workers=2)
        assert [r.verdict.verdict for r in parallel.results] == [
            r.verdict.verdict for r in sequential.results
        ]
