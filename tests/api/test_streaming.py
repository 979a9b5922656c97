"""Streaming scenario campaigns: parity with the eager path, memory guard.

The streaming pipeline's whole contract is *observational equivalence*
to the eager grid at O(shard) memory:

- region parity: the sharded generator yields bitwise-identical regions
  in the eager grid's order, for any shard size (hypothesis);
- verdict + coverage parity: ``run_stream`` decides every query exactly
  as ``engine.run`` over the eager campaign does (hypothesis over shard
  sizes and thresholds);
- coverage-guided sampling visits distinct, in-range regions and
  reports coverage for exactly the sampled population;
- the memory guard rejects eager grids that cannot fit, pointing at
  the streaming path, while ``run_stream`` itself stays unguarded;
- a shard's own exception under ``workers > 1`` propagates once,
  without a sequential rerun and without leaking shared memory.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Campaign, VerificationEngine
from repro.nn import Dense, Flatten, ReLU, Sequential
from repro.properties.library import steer_far_left
from repro.scenario import regions as regions_mod
from repro.scenario import streaming as streaming_mod
from repro.scenario.regions import (
    RegionMemoryError,
    ensure_regions_fit,
    scenario_region_grid,
)
from repro.scenario.streaming import (
    StreamPlan,
    run_stream,
    stream_enclosure_range,
    stream_scenario_regions,
)

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def model():
    model = Sequential(
        [Flatten(), Dense(8), ReLU(), Dense(2)],
        input_shape=(1, 32, 32),
        seed=7,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)),
        training=True,
    )
    return model


@pytest.fixture(scope="module")
def engine(model):
    return VerificationEngine(model, 3, solver="highs")


@pytest.fixture(scope="module")
def enclosure_range(engine):
    plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
    return stream_enclosure_range(engine, plan)


class TestRegionParity:
    @_SETTINGS
    @given(
        seed=st.integers(0, 50),
        n_scenes=st.integers(1, 3),
        shard_size=st.integers(1, 16),
    )
    def test_streamed_regions_bitwise_equal_eager(
        self, seed, n_scenes, shard_size
    ):
        plan = StreamPlan(n_scenes=n_scenes, seed=seed, shard_size=shard_size)
        eager = scenario_region_grid(n_scenes=n_scenes, seed=seed)
        streamed = [r for grid in stream_scenario_regions(plan) for r in grid]
        assert len(streamed) == len(eager.regions) == plan.total_regions
        for a, b in zip(eager.regions, streamed):
            assert a.name == b.name
            assert np.array_equal(a.lower, b.lower)
            assert np.array_equal(a.upper, b.upper)
            assert a.axes == b.axes

    def test_jitter_axis_parity(self):
        plan = StreamPlan(
            n_scenes=2, jitter_levels=(0.0, 1.5), seed=5, shard_size=3
        )
        eager = scenario_region_grid(
            n_scenes=2, jitter_levels=(0.0, 1.5), seed=5
        )
        streamed = [r for grid in stream_scenario_regions(plan) for r in grid]
        for a, b in zip(eager.regions, streamed):
            assert a.name == b.name
            assert np.array_equal(a.lower, b.lower)
            assert np.array_equal(a.upper, b.upper)

    def test_limit_matches_truncated_grid(self):
        plan = StreamPlan(n_scenes=3, seed=1, shard_size=4, limit=7)
        eager = scenario_region_grid(n_scenes=3, seed=1).truncated(7)
        streamed = [r for grid in stream_scenario_regions(plan) for r in grid]
        assert [r.name for r in streamed] == [r.name for r in eager.regions]


class TestVerdictParity:
    @_SETTINGS
    @given(
        shard_size=st.integers(1, 9),
        offset=st.floats(-0.5, 0.5, allow_nan=False),
    )
    def test_stream_matches_eager_campaign(
        self, engine, enclosure_range, shard_size, offset
    ):
        """Same verdicts, same coverage, any shard size, any threshold."""
        lo, hi = enclosure_range
        # thresholds spanning provable, frontier-ish, and falsifiable
        risks = [
            steer_far_left(round(hi + 0.25 + offset, 3)),
            steer_far_left(round(0.5 * (lo + hi) + offset, 3)),
        ]
        grid = scenario_region_grid(n_scenes=2, seed=3)
        names = engine.add_region_sets(grid)
        try:
            eager = engine.run(
                Campaign("eager").add_grid(
                    risks=risks, properties=(None,), sets=names
                )
            )
        finally:
            engine.remove_feature_sets(names)

        plan = StreamPlan(n_scenes=2, seed=3, shard_size=shard_size)
        streamed = run_stream(engine, plan, risks, collect_results=True)

        assert streamed.results is not None
        assert len(streamed.results) == len(eager.results)
        for a, b in zip(eager.results, streamed.results):
            assert a.query.set_name == b.query.set_name
            assert a.query.risk is b.query.risk
            assert a.verdict is not None and b.verdict is not None
            assert a.verdict.verdict == b.verdict.verdict, (
                f"{a.query.set_name}: eager {a.verdict.verdict} vs "
                f"streamed {b.verdict.verdict} (shard_size={shard_size})"
            )
        # coverage aggregates exactly the verdicts the eager run produced
        total = sum(
            count
            for levels in streamed.coverage["weather"].values()
            for count in levels.values()
        )
        assert total == len(eager.results)

    def test_report_shape(self, engine, enclosure_range):
        lo, hi = enclosure_range
        risks = [steer_far_left(round(hi + 0.25, 3))]
        plan = StreamPlan(n_scenes=2, seed=3, shard_size=3)
        report = run_stream(engine, plan, risks)
        assert report.total_regions == plan.total_regions
        assert report.total_queries == report.total_regions
        assert report.shards == 3  # 8 regions in shards of 3
        assert report.decided == report.total_queries
        assert set(report.coverage) == {"weather", "camera_jitter", "traffic"}
        payload = report.to_dict()
        assert payload["verdict_counts"] == report.verdict_counts
        # collect_results=False keeps the report O(1): campaign_report
        # (which needs every QueryResult) must refuse, not return empty
        with pytest.raises(ValueError):
            report.campaign_report("nope")


def _shm_segments() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.glob("psm_*")} if root.is_dir() else set()


class TestFaultContainment:
    def test_failing_shard_raises_once_and_releases_shm(
        self, engine, enclosure_range, monkeypatch
    ):
        lo, hi = enclosure_range
        parent = os.getpid()
        parent_calls = []
        decide = streaming_mod._decide_shard

        def failing_decide(engine, index, grid, risks, options):
            if os.getpid() == parent:
                parent_calls.append(index)
            if index == 1:
                raise ValueError("shard 1 is broken")
            return decide(engine, index, grid, risks, options)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(streaming_mod, "_decide_shard", failing_decide)
        before = _shm_segments()
        plan = StreamPlan(n_scenes=4, seed=3, shard_size=2)
        with pytest.raises(ValueError, match="shard 1 is broken"):
            run_stream(engine, plan, [steer_far_left(round(hi + 0.25, 3))],
                       workers=2)
        assert parent_calls == []  # no sequential rerun in the parent
        assert _shm_segments() - before == set()


class TestCoverageSampling:
    @_SETTINGS
    @given(
        sample=st.integers(1, 20),
        sample_seed=st.integers(0, 100),
    )
    def test_sample_indices_distinct_sorted_in_range(self, sample, sample_seed):
        plan = StreamPlan(
            n_scenes=6, seed=0, sample=sample, sample_seed=sample_seed
        )
        indices = list(plan.indices())
        assert len(indices) == min(sample, plan.grid_size)
        assert len(set(indices)) == len(indices)
        assert indices == sorted(indices)
        assert all(0 <= i < plan.grid_size for i in indices)

    def test_sampled_stream_covers_every_axis(self, engine, enclosure_range):
        lo, hi = enclosure_range
        risks = [steer_far_left(round(hi + 0.25, 3))]
        plan = StreamPlan(n_scenes=4, seed=3, shard_size=4, sample=9)
        report = run_stream(engine, plan, risks)
        assert report.total_regions == 9
        # the coprime-stride lattice spreads across every axis level
        for axis in ("weather", "traffic"):
            assert len(report.coverage[axis]) == 2, report.coverage[axis]

    def test_sampled_regions_are_a_subset_of_the_grid(self):
        plan = StreamPlan(n_scenes=3, seed=1, shard_size=4, sample=5)
        eager = {r.name: r for r in scenario_region_grid(n_scenes=3, seed=1)}
        for grid in stream_scenario_regions(plan):
            for region in grid:
                assert np.array_equal(region.lower, eager[region.name].lower)
                assert np.array_equal(region.upper, eager[region.name].upper)


class TestMemoryGuard:
    def test_ensure_regions_fit_rejects_oversize(self):
        with pytest.raises(RegionMemoryError) as err:
            ensure_regions_fit(10**6, 1024, available=2**30)
        message = str(err.value)
        assert "run_stream" in message
        assert "--stream" in message

    def test_ensure_regions_fit_accepts_small(self):
        ensure_regions_fit(100, 1024, available=2**30)

    def test_scenario_region_grid_guarded(self, monkeypatch):
        monkeypatch.setattr(
            regions_mod, "available_memory_bytes", lambda: 2**20
        )
        with pytest.raises(RegionMemoryError):
            scenario_region_grid(n_scenes=10_000)

    def test_from_scenario_grid_guarded(self):
        grid = scenario_region_grid(n_scenes=1)
        risks = [steer_far_left(1.0)]
        pixels = int(grid[0].lower.size)
        # the real builder call stays fine on a small grid
        Campaign.from_scenario_grid(grid, risks=risks)
        with pytest.raises(RegionMemoryError):
            ensure_regions_fit(
                10**9, pixels, available=2**30, what="scenario-grid campaign"
            )

    def test_cli_campaign_rejects_oversize_grid(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(
            regions_mod, "available_memory_bytes", lambda: 2**20
        )

        class _Args:
            out = "unused"
            solver = "highs"
            precision = "exact64"
            refine_budget = 0
            scenario_grid = 10_000
            stream = False
            sample = None
            portfolio = False
            seed = 0
            domain = "interval"
            workers = 1
            json = None

        def fake_load(path, **kwargs):
            model = Sequential(
                [Flatten(), Dense(4), ReLU(), Dense(2)],
                input_shape=(1, 32, 32),
                seed=0,
            )
            return VerificationEngine(model, 3, solver="highs"), {
                "properties": ()
            }

        monkeypatch.setattr(cli, "_load", fake_load)
        code = cli._campaign(_Args())
        assert code == 2
        out = capsys.readouterr().out
        assert "error:" in out
        assert "--stream" in out
