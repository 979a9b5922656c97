"""Tests for scenario-perturbation region grids."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.scenario.dataset import SceneConfig, sample_scene
from repro.scenario.regions import (
    PerturbationAxes,
    RegionGrid,
    _camera_variants,
    _traffic_variants,
    _weather_variants,
    region_from_scene,
    scenario_region_grid,
)
from repro.scenario.render import render_ground, render_vehicles
from repro.scenario.streaming import StreamPlan, stream_scenario_regions
from repro.scenario.weather import Weather


@pytest.fixture(scope="module")
def base_config():
    return SceneConfig(weather_variation=False, traffic_probability=0.0)


@pytest.fixture(scope="module")
def base_scene(base_config):
    return sample_scene(np.random.default_rng(5), base_config)


class TestPerturbationAxes:
    def test_validation(self):
        with pytest.raises(ValueError, match="weather"):
            PerturbationAxes(weather=1.5)
        with pytest.raises(ValueError, match="camera_jitter"):
            PerturbationAxes(camera_jitter=-1.0)
        with pytest.raises(ValueError, match="traffic"):
            PerturbationAxes(traffic=-1)

    def test_describe_is_string_pairs(self):
        axes = PerturbationAxes(weather=0.5, camera_jitter=1.0, traffic=2)
        described = dict(axes.describe())
        assert described == {"weather": "0.5", "camera_jitter": "1", "traffic": "2"}


class TestRegionFromScene:
    def test_point_region_without_perturbations(self, base_scene, base_config):
        """Only epsilon widens the box when every axis is at zero."""
        region = region_from_scene(
            base_scene, PerturbationAxes(), base_config, epsilon=0.01
        )
        assert region.lower.shape == (1, 32, 32)
        # interior pixels (not clipped at 0/1) have exactly 2*epsilon width
        assert region.width == pytest.approx(0.02, abs=1e-12)

    def test_zero_epsilon_zero_axes_is_degenerate(self, base_scene, base_config):
        region = region_from_scene(
            base_scene, PerturbationAxes(), base_config, epsilon=0.0
        )
        assert region.width == 0.0

    def test_weather_axis_widens_the_box(self, base_scene, base_config):
        base = region_from_scene(base_scene, PerturbationAxes(), base_config, epsilon=0.0)
        foul = region_from_scene(
            base_scene, PerturbationAxes(weather=1.0), base_config, epsilon=0.0
        )
        assert foul.width > base.width
        assert np.all(foul.lower <= base.lower + 1e-12)
        assert np.all(foul.upper >= base.upper - 1e-12)

    @pytest.mark.parametrize(
        "weather",
        [
            Weather(brightness=1.05, contrast=0.95),  # interior point
            Weather(brightness=1.15, contrast=1.10, fog_density=0.04),  # bright+fog
            Weather(brightness=0.85, contrast=0.90, fog_density=0.04),  # dark+fog
            Weather(brightness=1.15, contrast=0.90),  # mixed (b, c) corner
            Weather(brightness=0.85, contrast=1.10, fog_density=0.02),
        ],
    )
    def test_envelope_contains_variant_renderings(
        self, base_scene, base_config, weather
    ):
        """The box encloses every in-family rendering, combined axes included."""
        axes = PerturbationAxes(weather=1.0)
        region = region_from_scene(base_scene, axes, base_config, epsilon=0.0)
        rng = np.random.default_rng(base_scene.texture_seed)
        image, distance = render_ground(base_scene.road, base_config.camera, rng)
        render_vehicles(image, distance, base_scene.road, base_config.camera, base_scene.vehicles)
        variant = weather.apply(image, distance, rng)
        assert np.all(variant >= region.lower[0] - 1e-9)
        assert np.all(variant <= region.upper[0] + 1e-9)

    def test_traffic_axis_covers_empty_road(self, base_scene, base_config):
        with_traffic = region_from_scene(
            base_scene, PerturbationAxes(traffic=2), base_config, epsilon=0.0
        )
        empty = region_from_scene(
            base_scene, PerturbationAxes(), base_config, epsilon=0.0
        )
        assert np.all(with_traffic.lower <= empty.lower + 1e-12)
        assert np.all(with_traffic.upper >= empty.upper - 1e-12)

    def test_negative_epsilon_rejected(self, base_scene, base_config):
        with pytest.raises(ValueError, match="epsilon"):
            region_from_scene(base_scene, PerturbationAxes(), base_config, epsilon=-0.1)

    def test_bounds_stay_in_pixel_range(self, base_scene, base_config):
        region = region_from_scene(
            base_scene,
            PerturbationAxes(weather=1.0, camera_jitter=2.0, traffic=1),
            base_config,
            epsilon=0.05,
        )
        assert np.all(region.lower >= 0.0) and np.all(region.upper <= 1.0)


def _reference_region(scene, axes, config, epsilon):
    """Per-rendering envelope, independent of the cached generator.

    Renders every camera × traffic variant from scratch, applies each
    weather corner through :meth:`Weather.apply`, then takes the
    per-pixel min/max, widens by ``epsilon`` and clips to ``[0, 1]``.
    """
    images = []
    for camera in _camera_variants(config.camera, axes.camera_jitter):
        # one textured base rendering per camera (geometry changes with it)
        rng = np.random.default_rng(scene.texture_seed)
        base_image, base_distance = render_ground(scene.road, camera, rng)
        for vehicles in _traffic_variants(scene, axes.traffic):
            image = base_image.copy()
            distance = base_distance.copy()
            render_vehicles(image, distance, scene.road, camera, vehicles)
            for weather in _weather_variants(axes.weather):
                # noise_sigma is 0 in every variant: the epsilon widening
                # below covers additive perturbations up to +-epsilon
                images.append(weather.apply(image, distance, rng))
    stack = np.stack(images)
    lower = np.clip(stack.min(axis=0) - epsilon, 0.0, 1.0)[None, :, :]
    upper = np.clip(stack.max(axis=0) + epsilon, 0.0, 1.0)[None, :, :]
    return lower, upper


class TestReferenceParity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scene_seed=st.integers(0, 1000),
        weather=st.floats(0.0, 1.0),
        jitter=st.floats(0.0, 3.0),
        traffic=st.integers(0, 3),
        epsilon=st.floats(0.0, 0.05),
    )
    def test_region_from_scene_bitwise_equals_reference(
        self, base_config, scene_seed, weather, jitter, traffic, epsilon
    ):
        scene = sample_scene(np.random.default_rng(scene_seed), base_config)
        axes = PerturbationAxes(weather=weather, camera_jitter=jitter, traffic=traffic)
        region = region_from_scene(scene, axes, base_config, epsilon=epsilon)
        lower, upper = _reference_region(scene, axes, base_config, epsilon)
        assert np.array_equal(region.lower, lower)
        assert np.array_equal(region.upper, upper)


_LEVELS = dict(
    weather=st.lists(
        st.sampled_from([0.0, 0.25, 0.4, 1.0]) | st.floats(0.0, 1.0),
        min_size=1, max_size=3, unique=True,
    ).map(tuple),
    jitter=st.lists(
        st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=2, unique=True
    ).map(tuple),
    traffic=st.lists(
        st.integers(0, 3), min_size=1, max_size=2, unique=True
    ).map(tuple),
)


class TestStreamedReferenceParity:
    """Every streamed region equals its per-rendering envelope bit for bit."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_scenes=st.integers(1, 3),
        weather_levels=_LEVELS["weather"],
        jitter_levels=_LEVELS["jitter"],
        traffic_levels=_LEVELS["traffic"],
        num_lanes=st.integers(1, 4),
        shard_size=st.integers(1, 7),
        cap=st.none() | st.floats(0.1, 1.0),
        sample=st.none() | st.floats(0.1, 1.0),
        seed=st.integers(0, 1000),
        epsilon=st.floats(0.0, 0.05),
    )
    # one region per shard, and shards of 3 cutting 4-region scenes apart
    @example(1, (0.0, 0.5), (0.0,), (0, 2), 2, 1, None, None, 4, 0.01)
    @example(3, (0.3, 1.0), (0.0, 1.0), (1,), 3, 3, None, None, 9, 0.0)
    def test_streamed_regions_bitwise_equal_reference(
        self, n_scenes, weather_levels, jitter_levels, traffic_levels,
        num_lanes, shard_size, cap, sample, seed, epsilon,
    ):
        grid_size = (
            n_scenes * len(weather_levels) * len(jitter_levels) * len(traffic_levels)
        )
        limit = None if cap is None else max(1, round(cap * grid_size))
        capped = grid_size if limit is None else limit
        plan = StreamPlan(
            n_scenes=n_scenes,
            weather_levels=weather_levels,
            jitter_levels=jitter_levels,
            traffic_levels=traffic_levels,
            epsilon=epsilon,
            config=SceneConfig(num_lanes=num_lanes),
            seed=seed,
            shard_size=shard_size,
            limit=limit,
            sample=None if sample is None else max(1, round(sample * capped)),
            sample_seed=seed,
        )
        shards = list(stream_scenario_regions(plan))
        assert all(len(shard) <= shard_size for shard in shards)
        regions = [region for shard in shards for region in shard]
        assert [r.name for r in regions] == [
            f"region-{flat:03d}" for flat in plan.indices()
        ]
        for region in regions:
            lower, upper = _reference_region(
                region.scene, region.axes, plan.base_config, epsilon
            )
            assert region.lower.shape == lower.shape
            assert np.array_equal(region.lower, lower)
            assert np.array_equal(region.upper, upper)


class TestScenarioRegionGrid:
    def test_grid_shape_and_names(self):
        grid = scenario_region_grid(
            n_scenes=2,
            weather_levels=(0.0, 1.0),
            jitter_levels=(0.0, 1.0),
            traffic_levels=(0,),
            seed=3,
        )
        assert len(grid) == 8
        assert grid.names == [f"region-{i:03d}" for i in range(8)]
        batch = grid.box_batch()
        assert batch.lower.shape == (8, 1, 32, 32)

    def test_deterministic_for_fixed_seed(self):
        a = scenario_region_grid(n_scenes=1, weather_levels=(0.5,), seed=11)
        b = scenario_region_grid(n_scenes=1, weather_levels=(0.5,), seed=11)
        np.testing.assert_array_equal(a[0].lower, b[0].lower)
        np.testing.assert_array_equal(a[0].upper, b[0].upper)

    def test_truncated(self):
        grid = scenario_region_grid(n_scenes=2, seed=0)
        cut = grid.truncated(3)
        assert len(cut) == 3 and cut.names == grid.names[:3]
        with pytest.raises(ValueError):
            grid.truncated(0)
        with pytest.raises(ValueError):
            grid.truncated(len(grid) + 1)

    def test_unique_names_enforced(self):
        grid = scenario_region_grid(n_scenes=1, seed=0)
        with pytest.raises(ValueError, match="unique"):
            RegionGrid([grid[0], grid[0]], grid.config)

    def test_metadata_carries_axes(self):
        grid = scenario_region_grid(
            n_scenes=1, weather_levels=(1.0,), traffic_levels=(2,), seed=0
        )
        meta = dict(grid[0].metadata())
        assert meta["region"] == "region-000"
        assert meta["weather"] == "1" and meta["traffic"] == "2"


class TestRegionSplit:
    @pytest.fixture(scope="class")
    def region(self, base_scene, base_config):
        return region_from_scene(
            base_scene, PerturbationAxes(weather=1.0), base_config, epsilon=0.02
        )

    def test_children_partition_the_region(self, region):
        left, right = region.split()
        assert left.name == region.name + f"/{np.argmax((region.upper - region.lower).reshape(-1))}L"
        np.testing.assert_array_equal(
            np.minimum(left.lower, right.lower), region.lower
        )
        np.testing.assert_array_equal(
            np.maximum(left.upper, right.upper), region.upper
        )
        # children never escape the scenario envelope
        assert np.all(left.lower >= region.lower) and np.all(left.upper <= region.upper)
        assert np.all(right.lower >= region.lower) and np.all(right.upper <= region.upper)

    def test_split_halves_the_widest_pixel(self, region):
        pixel = int(np.argmax((region.upper - region.lower).reshape(-1)))
        left, right = region.split()
        lo = region.lower.reshape(-1)[pixel]
        hi = region.upper.reshape(-1)[pixel]
        assert left.upper.reshape(-1)[pixel] == pytest.approx(0.5 * (lo + hi))
        assert right.lower.reshape(-1)[pixel] == pytest.approx(0.5 * (lo + hi))
        assert left.width <= region.width and right.width <= region.width

    def test_children_keep_provenance(self, region):
        left, _ = region.split()
        assert left.scene is region.scene
        assert left.axes is region.axes
        assert dict(left.metadata())["weather"] == "1"

    def test_explicit_pixel_and_validation(self, region):
        widths = (region.upper - region.lower).reshape(-1)
        wide = int(np.argmax(widths))
        left, right = region.split(pixel=wide)
        assert left.name.endswith(f"/{wide}L") and right.name.endswith(f"/{wide}R")
        with pytest.raises(ValueError, match="out of range"):
            region.split(pixel=widths.shape[0] + 7)

    def test_degenerate_pixel_rejected(self, base_scene, base_config):
        point = region_from_scene(
            base_scene, PerturbationAxes(), base_config, epsilon=0.0
        )
        degenerate = int(np.argmin((point.upper - point.lower).reshape(-1)))
        if (point.upper - point.lower).reshape(-1)[degenerate] > 0.0:
            pytest.skip("no degenerate pixel on this scene")
        with pytest.raises(ValueError, match="degenerate"):
            point.split(pixel=degenerate)
