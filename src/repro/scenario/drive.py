"""Temporally-correlated drive simulation.

Real camera streams are not i.i.d. scenes: curvature, lane position and
weather evolve smoothly frame to frame.  :func:`simulate_drive` rolls a
simple vehicle + road process forward and renders the resulting frame
sequence — used by the monitoring example/benches to exercise the
runtime monitor on realistic streams, including scripted ODD exits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.scenario.affordances import affordances
from repro.scenario.dataset import Dataset, SceneConfig, SceneParams, render_scenes
from repro.scenario.geometry import RoadGeometry
from repro.scenario.weather import Weather


@dataclass(frozen=True)
class DriveConfig:
    """Parameters of the simulated drive."""

    num_frames: int = 100
    frame_distance: float = 2.0  #: meters travelled between frames
    curvature_drift: float = 2e-4  #: random-walk step of kappa0 per frame
    lane_noise: float = 0.05  #: lateral jitter per frame (m)
    heading_noise: float = 0.005  #: heading jitter per frame (rad)
    odd_exit_frame: int | None = None  #: frame at which weather leaves the ODD
    odd_exit_weather: Weather = dataclasses.field(
        default_factory=lambda: Weather(brightness=0.35, noise_sigma=0.05)
    )

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {self.num_frames}")
        if self.frame_distance <= 0.0:
            raise ValueError("frame_distance must be positive")


def simulate_drive(
    config: DriveConfig | None = None,
    scene_config: SceneConfig | None = None,
    seed: int = 0,
) -> Dataset:
    """Roll the drive process and render every frame.

    Returns a :class:`~repro.scenario.dataset.Dataset` whose samples are
    consecutive frames (so downstream code — feature extraction, the
    monitor, property labels — works unchanged).
    """
    config = config or DriveConfig()
    scene_config = scene_config or SceneConfig()
    rng = np.random.default_rng(seed)

    kappa = float(rng.uniform(-scene_config.max_curvature, scene_config.max_curvature))
    lane_offset = float(
        rng.uniform(-scene_config.max_lane_offset, scene_config.max_lane_offset)
    )
    heading = float(
        rng.uniform(-scene_config.max_heading_error, scene_config.max_heading_error)
    )
    ego_lane = int(rng.integers(0, scene_config.num_lanes))
    weather = Weather.clear()

    params: list[SceneParams] = []
    for frame in range(config.num_frames):
        # random-walk the road/vehicle state, clamped to the ODD envelope
        kappa = float(
            np.clip(
                kappa + rng.normal(0.0, config.curvature_drift),
                -scene_config.max_curvature,
                scene_config.max_curvature,
            )
        )
        lane_offset = float(
            np.clip(
                lane_offset + rng.normal(0.0, config.lane_noise),
                -scene_config.max_lane_offset,
                scene_config.max_lane_offset,
            )
        )
        heading = float(
            np.clip(
                heading + rng.normal(0.0, config.heading_noise),
                -scene_config.max_heading_error,
                scene_config.max_heading_error,
            )
        )
        if config.odd_exit_frame is not None and frame >= config.odd_exit_frame:
            weather = config.odd_exit_weather

        road = RoadGeometry(
            kappa0=kappa,
            kappa_rate=0.0,
            y0=lane_offset,
            psi0=heading,
            lane_width=scene_config.lane_width,
            num_lanes=scene_config.num_lanes,
            ego_lane=ego_lane,
        )
        params.append(
            SceneParams(
                road=road,
                weather=weather,
                vehicles=(),
                texture_seed=int(rng.integers(0, 2**31 - 1)),
            )
        )

    images = render_scenes(params, scene_config)
    targets = np.stack(
        [affordances(p.road, scene_config.lookahead) for p in params]
    )
    return Dataset(images=images, affordances=targets, params=params, config=scene_config)
