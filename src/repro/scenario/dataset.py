"""Scene sampling and dataset generation.

A :class:`SceneParams` object fully determines one camera image and its
labels; :func:`generate_dataset` draws N scenes from a seeded
distribution (the synthetic ODD) and renders them into a
:class:`Dataset` of images, affordances and property labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.scenario.affordances import DEFAULT_LOOKAHEAD, affordances
from repro.scenario.camera import PinholeCamera
from repro.scenario.geometry import RoadGeometry
from repro.scenario.labels import ORACLES, PropertyOracle
from repro.scenario.render import render_grounds, render_vehicles
from repro.scenario.traffic import Vehicle, sample_vehicles
from repro.scenario.weather import Weather


@dataclass(frozen=True)
class SceneConfig:
    """Distribution parameters of the synthetic ODD.

    The defaults model a multi-lane highway segment with moderate curves
    — the stand-in for "a particular segment of the German A9 highway,
    considering variations such as weather and the current lane"
    (paper, footnote 7).
    """

    camera: PinholeCamera = field(default_factory=PinholeCamera)
    lookahead: float = DEFAULT_LOOKAHEAD
    num_lanes: int = 2
    lane_width: float = 3.6
    max_curvature: float = 8e-3
    max_curvature_rate: float = 1e-4
    max_lane_offset: float = 0.8
    max_heading_error: float = 0.05
    traffic_probability: float = 0.5
    weather_variation: bool = True

    def __post_init__(self) -> None:
        if self.lookahead <= 0.0:
            raise ValueError(f"lookahead must be positive, got {self.lookahead}")
        if self.max_curvature < 0.0 or self.max_curvature_rate < 0.0:
            raise ValueError("curvature bounds must be non-negative")
        if not 0.0 <= self.traffic_probability <= 1.0:
            raise ValueError(
                f"traffic_probability must be in [0, 1], got {self.traffic_probability}"
            )


@dataclass(frozen=True)
class SceneParams:
    """Everything needed to deterministically render one scene."""

    road: RoadGeometry
    weather: Weather
    vehicles: tuple[Vehicle, ...]
    texture_seed: int

    def property_label(self, oracle: PropertyOracle | str) -> bool:
        """Evaluate a property oracle on this scene."""
        if isinstance(oracle, str):
            oracle = ORACLES[oracle]
        return oracle(self)


def sample_scene(rng: np.random.Generator, config: SceneConfig | None = None) -> SceneParams:
    """Draw one scene from the ODD distribution."""
    config = config or SceneConfig()
    ego_lane = int(rng.integers(0, config.num_lanes))
    road = RoadGeometry(
        kappa0=float(rng.uniform(-config.max_curvature, config.max_curvature)),
        kappa_rate=float(
            rng.uniform(-config.max_curvature_rate, config.max_curvature_rate)
        ),
        y0=float(rng.uniform(-config.max_lane_offset, config.max_lane_offset)),
        psi0=float(rng.uniform(-config.max_heading_error, config.max_heading_error)),
        lane_width=config.lane_width,
        num_lanes=config.num_lanes,
        ego_lane=ego_lane,
    )
    weather = Weather.sample(rng) if config.weather_variation else Weather.clear()
    vehicles = sample_vehicles(
        rng, road, presence_prob=config.traffic_probability
    )
    return SceneParams(
        road=road,
        weather=weather,
        vehicles=vehicles,
        texture_seed=int(rng.integers(0, 2**31 - 1)),
    )


#: scenes per stacked ground rendering, bounding its temporaries
_RENDER_CHUNK = 256


def render_scenes(
    scenes: Sequence[SceneParams], config: SceneConfig | None = None
) -> np.ndarray:
    """Render scenes to ``(N, 1, H, W)`` grayscale images in ``[0, 1]``.

    Grounds are rendered in stacked :func:`render_grounds` calls, each
    scene with an rng seeded from its ``texture_seed``.  That rng then
    goes on to the scene's vehicles and weather, so every image is the
    one the scene renders to alone.
    """
    config = config or SceneConfig()
    camera = config.camera
    images = np.empty((len(scenes), 1, camera.height_px, camera.width))
    for start in range(0, len(scenes), _RENDER_CHUNK):
        chunk = scenes[start : start + _RENDER_CHUNK]
        rngs = [np.random.default_rng(scene.texture_seed) for scene in chunk]
        grounds, ground_distance = render_grounds(
            [scene.road for scene in chunk], camera, rngs
        )
        for i, (scene, ground, rng) in enumerate(zip(chunk, grounds, rngs)):
            distance = ground_distance.copy()
            render_vehicles(ground, distance, scene.road, camera, scene.vehicles)
            images[start + i, 0] = scene.weather.apply(ground, distance, rng)
    return images


def render_scene(params: SceneParams, config: SceneConfig | None = None) -> np.ndarray:
    """Render one scene to a ``(1, H, W)`` grayscale image in ``[0, 1]``."""
    return render_scenes([params], config)[0]


@dataclass
class Dataset:
    """A rendered dataset with all labels.

    Attributes
    ----------
    images:
        ``(N, 1, H, W)`` float array in ``[0, 1]``.
    affordances:
        ``(N, 2)`` ground-truth affordance vectors.
    params:
        The generating :class:`SceneParams` per sample (the "oracle").
    config:
        The ODD distribution the samples were drawn from.
    """

    images: np.ndarray
    affordances: np.ndarray
    params: list[SceneParams]
    config: SceneConfig

    def __len__(self) -> int:
        return self.images.shape[0]

    def property_labels(self, oracle: PropertyOracle | str) -> np.ndarray:
        """0/1 labels of a property oracle over the whole dataset."""
        if isinstance(oracle, str):
            oracle = ORACLES[oracle]
        return np.array([float(oracle(p)) for p in self.params])

    def split(self, fraction: float, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        """Shuffle and split into two datasets (e.g. train/validation)."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        first, second = order[:cut], order[cut:]
        if len(first) == 0 or len(second) == 0:
            raise ValueError(f"split {fraction} leaves an empty part for n={len(self)}")
        return self._subset(first), self._subset(second)

    def _subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            images=self.images[indices],
            affordances=self.affordances[indices],
            params=[self.params[i] for i in indices],
            config=self.config,
        )

    def subset_where(self, mask: np.ndarray) -> "Dataset":
        """Samples selected by a boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(f"mask shape {mask.shape} does not match {len(self)}")
        return self._subset(np.nonzero(mask)[0])


def generate_dataset(
    n: int, config: SceneConfig | None = None, seed: int = 0
) -> Dataset:
    """Sample and render ``n`` scenes."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    config = config or SceneConfig()
    rng = np.random.default_rng(seed)
    params = [sample_scene(rng, config) for _ in range(n)]
    images = render_scenes(params, config)
    targets = np.stack([affordances(p.road, config.lookahead) for p in params])
    return Dataset(images=images, affordances=targets, params=params, config=config)


def balanced_property_dataset(
    n: int,
    oracle: PropertyOracle | str,
    config: SceneConfig | None = None,
    seed: int = 0,
    max_draws: int | None = None,
) -> Dataset:
    """Generate a dataset with a ~50/50 property label balance.

    Rejection-samples scenes until ``n`` samples with as-even-as-possible
    label counts are collected.  Raises :class:`RuntimeError` if the
    property is so rare that ``max_draws`` scenes do not suffice.
    """
    if isinstance(oracle, str):
        oracle = ORACLES[oracle]
    config = config or SceneConfig()
    if max_draws is None:
        max_draws = 60 * n
    rng = np.random.default_rng(seed)
    want_pos = n // 2
    want_neg = n - want_pos
    chosen: list[SceneParams] = []
    pos = neg = 0
    for _ in range(max_draws):
        if pos == want_pos and neg == want_neg:
            break
        scene = sample_scene(rng, config)
        label = oracle(scene)
        if label and pos < want_pos:
            chosen.append(scene)
            pos += 1
        elif not label and neg < want_neg:
            chosen.append(scene)
            neg += 1
    if pos < want_pos or neg < want_neg:
        raise RuntimeError(
            f"could not balance property {oracle.name!r}: "
            f"{pos}/{want_pos} positive, {neg}/{want_neg} negative "
            f"after {max_draws} draws"
        )
    order = np.random.default_rng(seed + 1).permutation(n)
    chosen = [chosen[i] for i in order]
    images = render_scenes(chosen, config)
    targets = np.stack([affordances(p.road, config.lookahead) for p in chosen])
    return Dataset(images=images, affordances=targets, params=chosen, config=config)
