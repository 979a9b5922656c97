"""Unit tests for the rasterizer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.scenario.camera import PinholeCamera
from repro.scenario.geometry import RoadGeometry
from repro.scenario.render import (
    GRASS,
    MARKING,
    ROAD,
    SKY_TOP,
    render_ground,
    render_grounds,
    render_vehicles,
)
from repro.scenario.traffic import Vehicle


def _render(road=None, camera=None, seed=0):
    road = road or RoadGeometry()
    camera = camera or PinholeCamera()
    return camera, render_ground(road, camera, np.random.default_rng(seed))


class TestRenderGround:
    def test_value_range(self):
        _, (image, _) = _render()
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_sky_on_top(self):
        cam, (image, distance) = _render()
        assert abs(image[0].mean() - SKY_TOP) < 0.05
        assert np.isinf(distance[0]).all()

    def test_road_in_bottom_center(self):
        cam, (image, _) = _render()
        bottom_center = image[-1, cam.width // 2]
        assert abs(bottom_center - ROAD) < 0.1

    def test_grass_at_midfield_edges(self):
        # the bottom rows are all road (narrow FOV close to the bumper);
        # grass appears at the image edges in the mid-field rows where
        # the ground strip is wide
        cam, (image, _) = _render()
        row = int(cam.cy) + 4
        edge = image[row, 0]
        assert abs(edge - GRASS) < 0.15

    def test_markings_present(self):
        _, (image, _) = _render()
        assert (image >= MARKING - 0.05).sum() > 3

    def test_right_bend_shifts_road_right(self):
        cam, (straight, _) = _render()
        _, (bent, _) = _render(road=RoadGeometry(kappa0=-8e-3))
        # compare road-pixel column centroids in an upper band of the ground
        def road_centroid(img, row):
            cols = np.nonzero(np.abs(img[row] - ROAD) < 0.08)[0]
            return cols.mean() if cols.size else np.nan

        # a right bend (negative y) projects to larger column indices
        # (columns grow toward the image right: col = cx - f*y/x)
        row = int(cam.cy) + 3  # far-away ground row
        assert road_centroid(bent, row) > road_centroid(straight, row)

    def test_texture_varies_between_seeds(self):
        _, (a, _) = _render(seed=1)
        _, (b, _) = _render(seed=2)
        assert not np.array_equal(a, b)

    def test_distance_finite_below_horizon(self):
        cam, (_, distance) = _render()
        assert np.isfinite(distance[-1]).all()


class TestRenderVehicles:
    def test_vehicle_paints_dark_pixels(self):
        cam = PinholeCamera()
        road = RoadGeometry(num_lanes=2, ego_lane=0)
        image, distance = render_ground(road, cam, np.random.default_rng(0))
        before = image.copy()
        render_vehicles(image, distance, road, cam, [Vehicle(distance=15.0, lane=1)])
        changed = np.abs(image - before) > 1e-12
        assert changed.any()
        assert image[changed].min() <= 0.25  # vehicle body shade

    def test_near_vehicle_larger_than_far(self):
        cam = PinholeCamera()
        road = RoadGeometry()

        def painted_area(dist):
            image, dmap = render_ground(road, cam, np.random.default_rng(0))
            before = image.copy()
            render_vehicles(image, dmap, road, cam, [Vehicle(distance=dist, lane=1)])
            return int((np.abs(image - before) > 1e-12).sum())

        assert painted_area(10.0) > painted_area(40.0)

    def test_vehicle_updates_distance_map(self):
        cam = PinholeCamera()
        road = RoadGeometry()
        image, distance = render_ground(road, cam, np.random.default_rng(0))
        render_vehicles(image, distance, road, cam, [Vehicle(distance=12.0, lane=1)])
        assert (distance == 12.0).any()

    def test_no_vehicles_is_noop(self):
        cam = PinholeCamera()
        road = RoadGeometry()
        image, distance = render_ground(road, cam, np.random.default_rng(0))
        before = image.copy()
        render_vehicles(image, distance, road, cam, [])
        np.testing.assert_array_equal(image, before)


class TestRenderGrounds:
    @pytest.mark.parametrize("horizon_row", [None, 10.0, 13.5])
    def test_batch_equals_batches_of_one(self, horizon_row):
        """Scene ``i`` of a batch renders, and leaves its rng, as it would alone."""
        camera = replace(PinholeCamera(), horizon_row=horizon_row)
        draw = np.random.default_rng(7)
        roads = [
            RoadGeometry(
                kappa0=float(draw.uniform(-8e-3, 8e-3)),
                kappa_rate=float(draw.uniform(-1e-4, 1e-4)),
                y0=float(draw.uniform(-0.8, 0.8)),
                psi0=float(draw.uniform(-0.05, 0.05)),
                num_lanes=lanes,
                ego_lane=ego,
            )
            for lanes in range(1, 5)
            for ego in range(lanes)
        ]
        seeds = [int(s) for s in draw.integers(0, 2**31 - 1, size=len(roads))]
        batch_rngs = [np.random.default_rng(seed) for seed in seeds]
        images, distance = render_grounds(roads, camera, batch_rngs)
        assert images.shape == (len(roads), camera.height_px, camera.width)
        for road, seed, image, batch_rng in zip(roads, seeds, images, batch_rngs):
            rng = np.random.default_rng(seed)
            alone, alone_distance = render_grounds([road], camera, [rng])
            assert np.array_equal(image, alone[0])
            assert np.array_equal(distance, alone_distance)
            assert batch_rng.normal() == rng.normal()

    def test_rng_count_must_match(self):
        with pytest.raises(ValueError, match="rngs"):
            render_grounds([RoadGeometry()] * 2, PinholeCamera(), [np.random.default_rng(0)])
