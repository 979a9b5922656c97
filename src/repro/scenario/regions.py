"""Scenario-derived input regions for batched verification campaigns.

A *region* is an axis-aligned box in input (pixel) space that encloses
every image a scene can produce under a bounded family of scenario
perturbations.  Verifying a risk over that box (Lemma 2: propagate the
box to the cut layer, then verify over the resulting feature set) proves
the property for *every* perturbed rendering at once — the scenario-grid
analogue of the paper's ``[0, 1]`` input-domain verification, but tight
enough around a concrete scene to be informative.

How perturbation axes map to input boxes
----------------------------------------

Each :class:`PerturbationAxes` value spans a small family of concrete
renderings of one base scene; the region is the pixel-wise min/max
envelope of those renderings, widened by ``epsilon`` (the sensor-noise
bound) and clipped to the physical pixel range ``[0, 1]``:

``weather`` (intensity ``w`` in ``[0, 1]``)
    Bounds the closed parameter box ``brightness in [1 - 0.15 w,
    1 + 0.15 w]``, ``contrast in [1 - 0.10 w, 1 + 0.10 w]``,
    ``fog_density in [0, 0.04 w]``.  Each pixel of
    :meth:`~repro.scenario.weather.Weather.apply` is monotone in every
    one of the three parameters separately (fog blends linearly toward
    ``fog_gray``; contrast is affine with pixel-dependent sign;
    brightness is a positive scale; the final clip is monotone), so the
    per-pixel extremes over the whole box are attained at its **eight
    corners** — exactly the renderings the envelope takes.
``camera_jitter`` (``j`` pixels, ``>= 0``)
    Re-renders with the camera horizon shifted by ``±j`` rows (pitch
    vibration).  The envelope over the shifted renderings bounds every
    intermediate pitch the jitter can produce at the rendered
    resolution.
``traffic`` (``t`` vehicles)
    Renders the scene with no traffic and with ``t`` vehicles placed in
    non-ego lanes at two longitudinal offsets (near / far), so the
    region covers both the empty road and the populated configurations.

The envelope construction keeps the base scene's procedural texture
fixed across variants (same ``texture_seed``): the box captures the
perturbation axes, not texture resampling.  The ``epsilon`` widening
covers any *additive sensor perturbation bounded by* ``±epsilon`` per
pixel.  Note the ODD's sampled Gaussian noise is unbounded, so no
finite widening covers it with certainty — pick ``epsilon`` as the
truncation you need (e.g. ``3 * noise_sigma`` for a per-pixel
three-sigma bound) and treat noise beyond it as out of family.

This module is the one region generator, and it builds a whole shard
of regions in one stacked pass: the ground of every scene in the shard
is rendered in one call per camera variant, each scene's camera ×
traffic renderings once (they repeat across the weather axis), and the
regions that share a weather intensity get their weather envelope
together, one stacked computation per weather corner.
:func:`region_from_scene` is that pass over a single region;
:func:`scenario_region_grid` materializes a whole grid as the
concatenated shards of
:func:`repro.scenario.streaming.stream_scenario_regions`, so the eager
and streamed paths differ only in sharding.  A grid's
:meth:`RegionGrid.box_batch` feeds the batched abstraction backend
(:func:`repro.verification.abstraction.propagate.propagate_regions`)
and its region names become engine feature-set names
(:meth:`repro.api.VerificationEngine.add_region_sets` /
:meth:`repro.api.Campaign.from_scenario_grid`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.scenario.camera import PinholeCamera
from repro.scenario.dataset import SceneConfig, SceneParams
# render_ground is not called here: perfbench/layers.py traces it by attribute
from repro.scenario.render import render_ground, render_grounds, render_vehicles  # noqa: F401
from repro.scenario.traffic import Vehicle
from repro.scenario.weather import Weather
from repro.verification.sets import BoxBatch, bisect_bounds


@dataclass(frozen=True)
class PerturbationAxes:
    """One grid point of the scenario perturbation space."""

    weather: float = 0.0  #: weather intensity in [0, 1]
    camera_jitter: float = 0.0  #: horizon shift amplitude in pixel rows
    traffic: int = 0  #: number of vehicles placed in non-ego lanes

    def __post_init__(self) -> None:
        if not 0.0 <= self.weather <= 1.0:
            raise ValueError(f"weather intensity must be in [0, 1], got {self.weather}")
        if self.camera_jitter < 0.0:
            raise ValueError(
                f"camera_jitter must be >= 0, got {self.camera_jitter}"
            )
        if self.traffic < 0:
            raise ValueError(f"traffic must be >= 0, got {self.traffic}")

    def describe(self) -> tuple[tuple[str, str], ...]:
        """Provenance pairs for query metadata."""
        return (
            ("weather", f"{self.weather:g}"),
            ("camera_jitter", f"{self.camera_jitter:g}"),
            ("traffic", str(self.traffic)),
        )


@dataclass(frozen=True)
class Region:
    """A named input-space box with its scenario provenance."""

    name: str
    scene: SceneParams
    axes: PerturbationAxes
    lower: np.ndarray  #: ``(1, H, W)`` pixel lower bounds
    upper: np.ndarray  #: ``(1, H, W)`` pixel upper bounds

    def __post_init__(self) -> None:
        if self.lower.shape != self.upper.shape:
            raise ValueError(
                f"bound shapes differ: {self.lower.shape} vs {self.upper.shape}"
            )
        if np.any(self.lower > self.upper):
            raise ValueError(f"region {self.name!r} has lower > upper")

    @property
    def width(self) -> float:
        """Largest per-pixel interval width (0 for a point region)."""
        return float(np.max(self.upper - self.lower))

    def metadata(self) -> tuple[tuple[str, str], ...]:
        return (("region", self.name), *self.axes.describe())

    def split(self, pixel: int | None = None) -> tuple["Region", "Region"]:
        """Bisect the region for CEGAR refinement, keeping provenance.

        ``pixel`` is a flat index into the pixel array (``None`` picks
        the widest pixel interval, the refinement loop's default
        heuristic).  Both children carry the same scene and
        perturbation-axes provenance and are, by construction, subsets
        of this region — refinement never escapes the scenario
        envelope the axes certify.

        Returns
        -------
        tuple[Region, Region]
            The lower and upper halves, named ``{name}/{pixel}L`` and
            ``{name}/{pixel}R``; their union is exactly this region.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.scenario.dataset import SceneConfig, sample_scene
        >>> scene = sample_scene(np.random.default_rng(0), SceneConfig())
        >>> region = region_from_scene(
        ...     scene, PerturbationAxes(), SceneConfig(), epsilon=0.01)
        >>> left, right = region.split()
        >>> bool(np.all(left.upper >= left.lower)) and left.width <= region.width
        True
        """
        if pixel is None:
            pixel = int(np.argmax((self.upper - self.lower).reshape(-1)))
        # range and degenerate-width validation live in bisect_bounds
        left_upper, right_lower = bisect_bounds(self.lower, self.upper, pixel)
        left = replace(self, name=f"{self.name}/{pixel}L", upper=left_upper)
        right = replace(self, name=f"{self.name}/{pixel}R", lower=right_lower)
        return left, right


class RegionGrid:
    """An ordered collection of same-shape scenario regions."""

    def __init__(self, regions: list[Region], config: SceneConfig):
        if not regions:
            raise ValueError("a RegionGrid needs at least one region")
        shape = regions[0].lower.shape
        for region in regions:
            if region.lower.shape != shape:
                raise ValueError(
                    f"region {region.name!r} has shape {region.lower.shape}, "
                    f"expected {shape}"
                )
        names = [r.name for r in regions]
        if len(set(names)) != len(names):
            raise ValueError("region names must be unique")
        self.regions = list(regions)
        self.config = config

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def __getitem__(self, index: int) -> Region:
        return self.regions[index]

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.regions]

    def box_batch(self) -> BoxBatch:
        """All regions stacked for the batched abstraction backend."""
        return BoxBatch(
            np.stack([r.lower for r in self.regions]),
            np.stack([r.upper for r in self.regions]),
        )

    def truncated(self, n: int) -> "RegionGrid":
        """The first ``n`` regions (e.g. to hit an exact campaign size)."""
        if not 0 < n <= len(self.regions):
            raise ValueError(f"cannot truncate {len(self.regions)} regions to {n}")
        return RegionGrid(self.regions[:n], self.config)


class RegionMemoryError(MemoryError):
    """An eager region grid would not fit in available memory.

    Raised *before* any allocation happens, with a message pointing at
    the streaming path (:mod:`repro.scenario.streaming` /
    ``repro campaign --stream``) that handles arbitrarily large grids
    in constant memory.
    """


def available_memory_bytes() -> int | None:
    """Best-effort available physical memory (None when unknowable)."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return None


#: fraction of available memory an eager grid may claim before the
#: guard rejects it — regions are only the first of several O(grid)
#: allocations (engine input-box copies, feature sets, query results)
_MEMORY_FRACTION = 0.5

#: estimated bytes per region pixel: float64 lower + upper bounds, times
#: an overhead factor for the downstream per-region copies listed above
_BYTES_PER_PIXEL = 8 * 2 * 3

#: the most a streamed sweep's threshold pre-pass keeps of its shards
#: (regions, registered sets, enclosures) for the sweep that follows, at
#: ``_BYTES_PER_PIXEL`` per region pixel; a larger plan is streamed twice
_KEPT_SHARDS_BYTES = 64 * 2**20


def ensure_regions_fit(
    n_regions: int,
    pixels_per_region: int,
    *,
    available: int | None = None,
    what: str = "scenario region grid",
) -> None:
    """Reject an eager materialization that would exhaust memory.

    ``available`` overrides the measured available memory (for tests);
    when memory cannot be measured the check is skipped — an eager
    build on an exotic platform is better than a false rejection.

    Raises
    ------
    RegionMemoryError
        When ``n_regions`` regions of ``pixels_per_region`` pixels each
        (plus the engine-side copies they imply) would claim more than
        half the available memory.
    """
    if n_regions <= 0 or pixels_per_region <= 0:
        return
    if available is None:
        available = available_memory_bytes()
    if available is None:
        return
    needed = n_regions * pixels_per_region * _BYTES_PER_PIXEL
    budget = int(available * _MEMORY_FRACTION)
    if needed > budget:
        raise RegionMemoryError(
            f"{what} with {n_regions} regions needs ~{needed / 2**30:.1f} GiB "
            f"(budget {budget / 2**30:.1f} GiB of {available / 2**30:.1f} GiB "
            f"available); materializing it eagerly would OOM mid-allocation. "
            f"Use the streaming path instead — "
            f"repro.scenario.streaming.run_stream / StreamPlan, or "
            f"`repro campaign --scenario-grid N --stream` — which keeps peak "
            f"memory at one shard regardless of grid size."
        )


def _weather_variants(intensity: float) -> list[Weather]:
    """All 8 corners of the intensity family's parameter box.

    Every pixel is separately monotone in brightness, contrast and fog
    density, so the per-pixel envelope over the full (brightness ×
    contrast × fog) box is attained on these corner renderings.
    """
    if intensity == 0.0:
        return [Weather.clear()]
    brightnesses = (1.0 - 0.15 * intensity, 1.0 + 0.15 * intensity)
    contrasts = (1.0 - 0.10 * intensity, 1.0 + 0.10 * intensity)
    fogs = (0.0, 0.04 * intensity)
    return [
        Weather(brightness=b, contrast=c, fog_density=f)
        for b in brightnesses
        for c in contrasts
        for f in fogs
    ]


def _camera_variants(camera: PinholeCamera, jitter: float) -> list[PinholeCamera]:
    """Horizon rows covering a ``±jitter`` pitch vibration."""
    if jitter == 0.0:
        return [camera]
    base = camera.cy
    lo = float(np.clip(base - jitter, 1.0, camera.height_px - 2.0))
    hi = float(np.clip(base + jitter, 1.0, camera.height_px - 2.0))
    return [
        replace(camera, horizon_row=lo),
        replace(camera, horizon_row=hi),
    ]


def _traffic_variants(scene: SceneParams, count: int) -> list[tuple[Vehicle, ...]]:
    """No-traffic plus near/far placements of ``count`` adjacent vehicles."""
    road = scene.road
    if count == 0 or road.num_lanes < 2:
        return [scene.vehicles]
    lanes = [k for k in range(road.num_lanes) if k != road.ego_lane]
    placements = []
    for base_distance in (14.0, 26.0):
        vehicles = tuple(
            Vehicle(distance=base_distance + 9.0 * i, lane=lanes[i % len(lanes)])
            for i in range(count)
        )
        placements.append(vehicles)
    return [(), *placements]


def _variant_key(scene: SceneParams, axes: PerturbationAxes) -> tuple[int, float, int]:
    """The pre-weather renderings a region takes: its scene, jitter and traffic."""
    return id(scene), axes.camera_jitter, axes.traffic


def _weather_envelope(
    images: np.ndarray, distances: np.ndarray | None, intensity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel min/max of ``(m, V, H, W)`` renderings over ``V`` and weather.

    Replays :meth:`Weather.apply`'s exact operation order (fog blend
    when the density is positive, then contrast, brightness, clip) on
    every corner of :func:`_weather_variants`, with ``noise_sigma`` 0.
    Every step is an elementwise IEEE operation on the values a
    per-rendering ``Weather.apply`` computes: the corners that share a
    fog share its blend, and an in-place step rounds exactly as the
    operator it replaces.  Min/max reductions are exact, and the clip to
    ``[0, 1]`` is monotone, so clipping the running min/max once equals
    the min/max of the clipped corners bit for bit.
    """
    shifted: dict[tuple[float, float], np.ndarray] = {}
    out = np.empty_like(images)
    lower = upper = None
    for weather in _weather_variants(intensity):
        fog = (weather.fog_density, weather.fog_gray)
        if fog not in shifted:
            if weather.fog_density > 0.0:
                transmission = np.exp(
                    -weather.fog_density
                    * np.where(np.isfinite(distances), distances, 200.0)
                )
                haze = (1.0 - transmission) * weather.fog_gray
                blend = np.multiply(transmission, images, out=transmission)
                blend += haze
                blend -= 0.5
                shifted[fog] = blend
            else:
                shifted[fog] = images - 0.5
        np.multiply(shifted[fog], weather.contrast, out=out)
        out += 0.5
        out *= weather.brightness
        if lower is None:
            lower, upper = out.copy(), out.copy()
        else:
            np.minimum(lower, out, out=lower)
            np.maximum(upper, out, out=upper)
    assert lower is not None and upper is not None
    return (
        np.clip(lower.min(axis=1), 0.0, 1.0),
        np.clip(upper.max(axis=1), 0.0, 1.0),
    )


def _shard_regions(
    entries: Sequence[tuple[str, SceneParams, PerturbationAxes]],
    config: SceneConfig,
    epsilon: float,
) -> list[Region]:
    """The envelopes of a shard's ``(name, scene, axes)`` regions, in one pass.

    1. **Ground.**  Per camera variant, one :func:`render_grounds` call
       renders every scene of the shard that needs that camera, each
       with an rng seeded from the scene's ``texture_seed``: the
       textured ground depends on the camera alone, so the traffic
       variants share it.
    2. **Variants.**  Each scene's camera × traffic renderings, once per
       ``(camera_jitter, traffic)`` pair, in scene-major order.
    3. **Weather.**  Regions that share a weather intensity and a
       variant count are stacked, and :func:`_weather_envelope` applies
       each weather corner to the whole group.  The envelope is widened
       by ``epsilon``, which covers additive perturbations up to
       ``±epsilon``, and clipped to ``[0, 1]``.

    Regions come back in ``entries`` order, each equal bit for bit to
    the per-rendering envelope of its own scene and axes.
    """
    camera = config.camera
    # 1. ground: the scenes each camera variant renders, in first-use order
    users: dict[PinholeCamera, dict[int, SceneParams]] = {}
    for _, scene, axes in entries:
        for variant in _camera_variants(camera, axes.camera_jitter):
            users.setdefault(variant, {}).setdefault(id(scene), scene)
    grounds: dict[tuple[PinholeCamera, int], tuple[np.ndarray, np.ndarray]] = {}
    for variant, scenes in users.items():
        images, distance = render_grounds(
            [scene.road for scene in scenes.values()],
            variant,
            [np.random.default_rng(scene.texture_seed) for scene in scenes.values()],
        )
        for key, image in zip(scenes, images):
            grounds[variant, key] = (image, distance)

    # 2. variants: every camera x traffic rendering a region takes
    variants: dict[tuple[int, float, int], tuple[np.ndarray, np.ndarray]] = {}
    for _, scene, axes in entries:
        key = _variant_key(scene, axes)
        if key in variants:
            continue
        renderings = [
            (variant, vehicles)
            for variant in _camera_variants(camera, axes.camera_jitter)
            for vehicles in _traffic_variants(scene, axes.traffic)
        ]
        images = np.empty((len(renderings), camera.height_px, camera.width))
        distances = np.empty_like(images)
        for k, (variant, vehicles) in enumerate(renderings):
            images[k], distances[k] = grounds[variant, id(scene)]
            render_vehicles(images[k], distances[k], scene.road, variant, vehicles)
        variants[key] = (images, distances)

    # 3. weather: one stacked envelope per (intensity, variant count)
    groups: dict[tuple[float, int], list[int]] = {}
    for i, (_, scene, axes) in enumerate(entries):
        count = len(variants[_variant_key(scene, axes)][0])
        groups.setdefault((axes.weather, count), []).append(i)
    regions: dict[int, Region] = {}
    for (intensity, _), members in groups.items():
        keys = [_variant_key(entries[i][1], entries[i][2]) for i in members]
        # clear weather (intensity 0) has no fog, so no use for distances
        lower, upper = _weather_envelope(
            np.stack([variants[key][0] for key in keys]),
            np.stack([variants[key][1] for key in keys]) if intensity else None,
            intensity,
        )
        lower = np.clip(lower - epsilon, 0.0, 1.0)
        upper = np.clip(upper + epsilon, 0.0, 1.0)
        for row, i in enumerate(members):
            name, scene, axes = entries[i]
            regions[i] = Region(
                name=name,
                scene=scene,
                axes=axes,
                lower=lower[row : row + 1],
                upper=upper[row : row + 1],
            )
    return [regions[i] for i in range(len(entries))]


def region_from_scene(
    scene: SceneParams,
    axes: PerturbationAxes,
    config: SceneConfig,
    epsilon: float = 0.005,
    name: str = "region",
) -> Region:
    """Pixel-wise envelope of one scene under one perturbation grid point.

    The envelope of the cartesian product of weather / camera / traffic
    variants (all sharing the scene's texture seed): per-pixel min/max,
    widened by ``epsilon`` and clipped to ``[0, 1]``.  The shard pass
    :func:`scenario_region_grid` and the streamed shards share, over a
    single region.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return _shard_regions([(name, scene, axes)], config, epsilon)[0]


def scenario_region_grid(
    n_scenes: int = 2,
    weather_levels: tuple[float, ...] = (0.0, 1.0),
    jitter_levels: tuple[float, ...] = (0.0,),
    traffic_levels: tuple[int, ...] = (0, 1),
    epsilon: float = 0.005,
    config: SceneConfig | None = None,
    seed: int = 0,
) -> RegionGrid:
    """Expand base scenes × perturbation levels into a region grid.

    ``n_scenes`` base scenes are drawn from the ODD distribution with
    the stochastic axes disabled (no sampled weather or traffic — those
    are *grid* axes here), then every combination of axis levels is
    turned into one :class:`Region`.  The grid has ``n_scenes *
    len(weather) * len(jitter) * len(traffic)`` regions named
    ``region-000 ...`` in scene-major order: the concatenated shards of
    :func:`~repro.scenario.streaming.stream_scenario_regions` for the
    same :class:`~repro.scenario.streaming.StreamPlan`.
    """
    # imported here: streaming builds on this module
    from repro.scenario.streaming import StreamPlan, stream_scenario_regions

    plan = StreamPlan(
        n_scenes=n_scenes,
        weather_levels=weather_levels,
        jitter_levels=jitter_levels,
        traffic_levels=traffic_levels,
        epsilon=epsilon,
        config=config,
        seed=seed,
    )
    camera = plan.base_config.camera
    ensure_regions_fit(plan.grid_size, camera.width * camera.height_px)
    shards = stream_scenario_regions(plan)
    return RegionGrid([r for shard in shards for r in shard], plan.base_config)
