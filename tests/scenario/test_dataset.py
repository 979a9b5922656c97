"""Unit tests for dataset generation."""

import numpy as np
import pytest

from repro.scenario.dataset import (
    Dataset,
    SceneConfig,
    balanced_property_dataset,
    generate_dataset,
    render_scene,
    render_scenes,
    sample_scene,
)


class TestSampleScene:
    def test_within_config_bounds(self):
        config = SceneConfig(max_curvature=5e-3, max_lane_offset=0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            scene = sample_scene(rng, config)
            assert abs(scene.road.kappa0) <= 5e-3
            assert abs(scene.road.y0) <= 0.5
            assert 0 <= scene.road.ego_lane < config.num_lanes

    def test_weather_variation_toggle(self):
        config = SceneConfig(weather_variation=False)
        rng = np.random.default_rng(1)
        for _ in range(10):
            scene = sample_scene(rng, config)
            assert scene.weather.brightness == 1.0
            assert scene.weather.fog_density == 0.0

    def test_deterministic_given_rng_state(self):
        a = sample_scene(np.random.default_rng(42))
        b = sample_scene(np.random.default_rng(42))
        assert a == b


class TestRenderScene:
    def test_shape_and_range(self):
        scene = sample_scene(np.random.default_rng(2))
        image = render_scene(scene)
        assert image.shape == (1, 32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_deterministic(self):
        scene = sample_scene(np.random.default_rng(3))
        np.testing.assert_array_equal(render_scene(scene), render_scene(scene))

    def test_custom_camera_size(self):
        from repro.scenario.camera import PinholeCamera

        config = SceneConfig(camera=PinholeCamera(width=48, height_px=24))
        scene = sample_scene(np.random.default_rng(4), config)
        assert render_scene(scene, config).shape == (1, 24, 48)


class TestRenderScenes:
    def test_chunked_batch_equals_scenes_alone(self, monkeypatch):
        """Stacked grounds hand each scene's rng on to its vehicles and weather."""
        from repro.scenario import dataset

        config = SceneConfig(num_lanes=3, traffic_probability=1.0)
        rng = np.random.default_rng(8)
        scenes = [sample_scene(rng, config) for _ in range(8)]
        monkeypatch.setattr(dataset, "_RENDER_CHUNK", 3)
        images = render_scenes(scenes, config)
        assert images.shape == (8, 1, 32, 32)
        for scene, image in zip(scenes, images):
            assert np.array_equal(image, render_scene(scene, config))


class TestGenerateDataset:
    def test_structure(self, small_dataset):
        assert len(small_dataset) == 60
        assert small_dataset.images.shape == (60, 1, 32, 32)
        assert small_dataset.affordances.shape == (60, 2)
        assert len(small_dataset.params) == 60

    def test_reproducible(self):
        a = generate_dataset(5, seed=77)
        b = generate_dataset(5, seed=77)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.affordances, b.affordances)

    def test_different_seeds_differ(self):
        a = generate_dataset(5, seed=1)
        b = generate_dataset(5, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="positive"):
            generate_dataset(0)

    def test_property_labels_binary(self, small_dataset):
        labels = small_dataset.property_labels("bends_right")
        assert set(np.unique(labels)) <= {0.0, 1.0}


class TestSplitSubset:
    def test_split_partitions(self, small_dataset):
        a, b = small_dataset.split(0.7, seed=0)
        assert len(a) + len(b) == len(small_dataset)
        assert len(a) == 42

    def test_split_rejects_degenerate(self, small_dataset):
        with pytest.raises(ValueError, match="fraction"):
            small_dataset.split(0.0)

    def test_subset_where(self, small_dataset):
        labels = small_dataset.property_labels("bends_left") > 0.5
        subset = small_dataset.subset_where(labels)
        assert len(subset) == int(labels.sum())
        assert all(p.property_label("bends_left") for p in subset.params)

    def test_subset_where_shape_checked(self, small_dataset):
        with pytest.raises(ValueError, match="mask"):
            small_dataset.subset_where(np.ones(3, dtype=bool))


class TestBalancedDataset:
    def test_balance_achieved(self):
        ds = balanced_property_dataset(30, "bends_right", seed=11)
        labels = ds.property_labels("bends_right")
        assert labels.sum() == 15

    def test_impossible_property_raises(self):
        config = SceneConfig(max_curvature=1e-5)  # never bends strongly
        with pytest.raises(RuntimeError, match="could not balance"):
            balanced_property_dataset(10, "bends_right", config, seed=0, max_draws=50)
