"""Grayscale rasterizer for road scenes.

Rendering is done by inverse perspective mapping: every pixel below the
horizon is cast onto the ground plane, where the road geometry decides
whether it shows pavement, a lane marking or grass.  Vehicles are then
painted as projected boxes, far to near.  Ground surfaces receive a small
amount of procedural texture so that the images are not the degenerate
"texture-free" counter-examples the paper's footnote 1 warns about.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.scenario.camera import PinholeCamera
from repro.scenario.geometry import RoadGeometry, RoadStack
from repro.scenario.traffic import Vehicle

# surface albedos (grayscale)
SKY_TOP = 0.90
SKY_HORIZON = 0.72
GRASS = 0.38
ROAD = 0.55
MARKING = 0.95

# lane marking geometry (meters)
MARK_WIDTH = 0.20
DASH_PERIOD = 12.0
DASH_LENGTH = 6.0

# procedural texture amplitudes
ROAD_TEXTURE = 0.015
GRASS_TEXTURE = 0.04


def _texture(noise: np.ndarray, amplitude: float) -> np.ndarray:
    """Cheap spatially-correlated noise: white noise plus a blurred copy.

    ``noise`` is white noise over the last two (image) axes; leading
    axes are a batch.
    """
    blurred = (
        noise
        + np.roll(noise, 1, axis=-2)
        + np.roll(noise, -1, axis=-2)
        + np.roll(noise, 1, axis=-1)
        + np.roll(noise, -1, axis=-1)
    ) / 5.0
    return amplitude * blurred


def render_grounds(
    roads: Sequence[RoadGeometry],
    camera: PinholeCamera,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Render sky, grass, road and markings of a batch of scenes.

    The camera's ground grid and sky are computed once for the batch.
    Each scene draws its own grass and then road texture noise from its
    own rng; the blur and the road masks broadcast over the leading
    scene axis.  So image ``i`` and the state ``rngs[i]`` is left in are
    those of rendering scene ``i`` alone, bit for bit.

    Returns ``(images, distance)``: ``(n, H, W)`` images, and the
    ``(H, W)`` ground distance per pixel (``inf`` for sky pixels) for
    the fog model, which depends on the camera alone and so serves every
    scene.
    """
    if len(roads) != len(rngs):
        raise ValueError(f"{len(roads)} roads but {len(rngs)} rngs")
    h, w = camera.height_px, camera.width
    gx, gy, below = camera.ground_grid()

    # sky: vertical gradient from SKY_TOP down to SKY_HORIZON at the horizon
    rows = np.arange(h, dtype=float)[:, None]
    horizon = max(camera.cy, 1e-6)
    sky_t = np.clip(rows / horizon, 0.0, 1.0)
    sky = SKY_TOP + (SKY_HORIZON - SKY_TOP) * sky_t

    distance = np.full((h, w), np.inf)
    distance[below] = gx[below]

    # ground: grass by default, road where |y - road_center| <= half_span
    noise = np.empty((2, len(roads), h, w))
    for i, rng in enumerate(rngs):
        noise[0, i] = rng.normal(0.0, 1.0, size=(h, w))
        noise[1, i] = rng.normal(0.0, 1.0, size=(h, w))
    images = np.where(below, GRASS + _texture(noise[0], GRASS_TEXTURE), sky)
    stack = RoadStack(roads)
    on_road = below & stack.on_road(gx, gy)
    np.copyto(images, ROAD + _texture(noise[1], ROAD_TEXTURE), where=on_road)

    # lane markings: solid road edges, dashed interior separators
    center = stack.centerline_offset(gx)
    dashed = np.mod(gx, DASH_PERIOD) <= DASH_LENGTH
    marking = np.zeros(images.shape, dtype=bool)
    for j in range(int(stack.num_lanes.max()) + 1):
        boundary = center + stack.boundary_shift(j)
        near_boundary = np.abs(gy - boundary) <= MARK_WIDTH / 2.0
        interior = (0 < j) & (j < stack.num_lanes)
        marking |= near_boundary & (j <= stack.num_lanes) & (~interior | dashed)
    images[marking & below] = MARKING

    return images, distance


def render_ground(
    road: RoadGeometry,
    camera: PinholeCamera,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Render sky, grass, road and markings: :func:`render_grounds` of one.

    Returns ``(image, distance)`` where ``distance`` holds the ground
    distance per pixel (``inf`` for sky pixels) for the fog model.
    """
    images, distance = render_grounds([road], camera, [rng])
    return images[0], distance


def render_vehicles(
    image: np.ndarray,
    distance: np.ndarray,
    road: RoadGeometry,
    camera: PinholeCamera,
    vehicles: tuple[Vehicle, ...] | list[Vehicle],
) -> None:
    """Paint vehicles (far to near) into ``image`` in place."""
    h, w = image.shape
    for vehicle in sorted(vehicles, key=lambda v: -v.distance):
        x = vehicle.distance
        yc = vehicle.lateral_center(road)
        corners = np.array(
            [
                [x, yc - vehicle.width / 2.0, 0.0],
                [x, yc + vehicle.width / 2.0, vehicle.height],
            ]
        )
        rows, cols, visible = camera.project(corners)
        if not visible.all():
            continue
        r0 = int(np.floor(min(rows)))
        r1 = int(np.ceil(max(rows)))
        c0 = int(np.floor(min(cols)))
        c1 = int(np.ceil(max(cols)))
        r0, r1 = max(r0, 0), min(r1, h - 1)
        c0, c1 = max(c0, 0), min(c1, w - 1)
        if r0 > r1 or c0 > c1:
            continue
        image[r0 : r1 + 1, c0 : c1 + 1] = vehicle.shade
        # windshield highlight on the upper third, if there is room
        if r1 - r0 >= 2 and c1 - c0 >= 2:
            image[r0 + 1, c0 + 1 : c1] = vehicle.shade + 0.25
        distance[r0 : r1 + 1, c0 : c1 + 1] = x
