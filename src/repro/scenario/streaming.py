"""Streaming scenario campaigns: constant-memory million-region sweeps.

:func:`repro.scenario.regions.scenario_region_grid` materializes every
region up front — at a million regions that is tens of gigabytes of box
bounds before the first query runs.  This module replaces the eager grid
with a *stream*:

- :class:`StreamPlan` describes the scene × weather × jitter × traffic
  enumeration symbolically (plus optional coverage-guided sampling for
  sub-exhaustive sweeps), so the full grid never exists in memory;
- :func:`stream_scenario_regions` turns a plan into shard-sized
  :class:`~repro.scenario.regions.RegionGrid` batches, reusing
  pre-weather renderings across the weather axis (the per-region cost
  drops from a full re-render to a vectorized envelope over cached
  variants, bitwise-identical to :func:`region_from_scene`);
- :func:`run_stream` drives a whole campaign over the stream.  Each
  shard is registered through the engine's own
  :meth:`~repro.api.engine.VerificationEngine.add_region_sets` for the
  shard's lifetime and its queries run the engine's stage list with one
  stream-only stage inserted after the prescreen: a batched PGD pass
  per risk that falsifies what the prescreen left before any solver
  starts.  Survivors go on to the engine's solver stages, the adaptive
  portfolio, or are left ``stream-undecided``; results aggregate into a
  :class:`StreamReport` (verdict histogram + ODD-coverage per
  perturbation axis) whose peak memory is O(shard), not O(grid).

Shards cross the process-pool boundary through the
:mod:`repro.verification.shm` zero-copy path: the parent packs each
shard's stacked bounds into one shared segment and ships only the
handle; workers attach read-only views.

Verdict parity with the eager path is by construction: a shard's sets
are registered by the same propagation, its queries run the same
stages (``domain`` selects the prescreen ladder, exactly as in
``Campaign.from_scenario_grid``), and an attack hit is a *genuine*
input counterexample, so the complete solver would answer SAT over the
same sound feature set.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.scenario.camera import PinholeCamera
from repro.scenario.dataset import SceneConfig, SceneParams, sample_scene
from repro.scenario.regions import (
    PerturbationAxes,
    Region,
    RegionGrid,
    _camera_variants,
    _traffic_variants,
    _weather_variants,
    ensure_regions_fit,
)
from repro.scenario.render import render_ground, render_vehicles
from repro.verification import shm
from repro.verification.abstraction.domain import get_domain
from repro.verification.abstraction.propagate import propagate_regions
from repro.verification.counterexample import (
    FeatureCounterexample,
    pgd_hits_in_boxes,
)
from repro.verification.prescreen import output_enclosure_batch
# not called here: perfbench/layers.py traces this module attribute
from repro.verification.prescreen import screen_enclosure  # noqa: F401

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.api.campaign import CampaignReport, QueryResult
    from repro.api.engine import VerificationEngine
    from repro.properties.risk import RiskCondition

#: failures of the process pool itself, as opposed to a shard's own
#: exception: only these switch a sweep to the sequential executor
_POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError)

#: golden-ratio fraction used to pick the coverage-lattice stride
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class StreamPlan:
    """A symbolic description of a scenario region enumeration.

    The flat index space is ``n_scenes * len(weather_levels) *
    len(jitter_levels) * len(traffic_levels)`` in the exact order
    :func:`~repro.scenario.regions.scenario_region_grid` materializes:
    scenes outermost, then ``itertools.product(weather, jitter,
    traffic)``.  Region ``k`` of the stream is therefore *bitwise
    identical* to region ``k`` of the eager grid built from the same
    parameters — the stream is a re-chunking, not an approximation.

    ``limit`` truncates the enumeration to its first ``limit`` regions
    (the streaming analogue of :meth:`RegionGrid.truncated`).
    ``sample`` draws that many regions from the (possibly truncated)
    index space on a seeded coprime-stride lattice — deterministic,
    duplicate-free, and near-uniform on every perturbation axis, so
    sub-exhaustive sweeps still report meaningful ODD coverage.

    Examples
    --------
    >>> plan = StreamPlan(n_scenes=2)
    >>> plan.total_regions, plan.per_scene
    (8, 4)
    >>> plan.point(5)  # scene 1, weather 0.0, jitter 0.0, traffic 1
    (1, 0.0, 0.0, 1)
    >>> list(replace(plan, sample=3).indices())
    [0, 2, 5]
    """

    n_scenes: int = 2
    weather_levels: tuple[float, ...] = (0.0, 1.0)
    jitter_levels: tuple[float, ...] = (0.0,)
    traffic_levels: tuple[int, ...] = (0, 1)
    epsilon: float = 0.005
    config: SceneConfig | None = None
    seed: int = 0
    shard_size: int = 256
    limit: int | None = None
    sample: int | None = None
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_scenes <= 0:
            raise ValueError(f"n_scenes must be positive, got {self.n_scenes}")
        if self.shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {self.shard_size}")
        for name in ("weather_levels", "jitter_levels", "traffic_levels"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.limit is not None and not 0 < self.limit <= self.grid_size:
            raise ValueError(
                f"limit must be in [1, {self.grid_size}], got {self.limit}"
            )
        if self.sample is not None and not 0 < self.sample <= self.total_regions:
            raise ValueError(
                f"sample must be in [1, {self.total_regions}], got {self.sample}"
            )

    @property
    def per_scene(self) -> int:
        """Regions per scene (the product of the perturbation levels)."""
        return (
            len(self.weather_levels)
            * len(self.jitter_levels)
            * len(self.traffic_levels)
        )

    @property
    def grid_size(self) -> int:
        """Size of the full enumeration, before ``limit``/``sample``."""
        return self.n_scenes * self.per_scene

    @property
    def total_regions(self) -> int:
        """Regions the stream will actually yield."""
        capped = self.grid_size if self.limit is None else self.limit
        return capped if self.sample is None else min(self.sample, capped)

    @property
    def base_config(self) -> SceneConfig:
        """The scene config with the stochastic grid axes disabled."""
        config = self.config or SceneConfig()
        return replace(config, weather_variation=False, traffic_probability=0.0)

    def point(self, flat: int) -> tuple[int, float, float, int]:
        """Decompose a flat index into ``(scene, weather, jitter, traffic)``."""
        if not 0 <= flat < self.grid_size:
            raise ValueError(f"flat index {flat} outside [0, {self.grid_size})")
        scene_index, within = divmod(flat, self.per_scene)
        wj, traffic_index = divmod(within, len(self.traffic_levels))
        weather_index, jitter_index = divmod(wj, len(self.jitter_levels))
        return (
            scene_index,
            self.weather_levels[weather_index],
            self.jitter_levels[jitter_index],
            self.traffic_levels[traffic_index],
        )

    def indices(self) -> Iterator[int]:
        """Flat region indices, ascending (the scene cursor moves forward).

        Without ``sample`` this is simply ``range(total)``.  With it, a
        coprime-stride lattice ``(offset + k * step) mod n`` visits
        ``sample`` distinct indices whose marginal distribution over
        every axis is near-uniform (the stride is the closest
        golden-ratio fraction of ``n`` that is coprime to it); sorting
        them keeps scene generation sequential.
        """
        capped = self.grid_size if self.limit is None else self.limit
        if self.sample is None or self.sample >= capped:
            return iter(range(capped))
        step = _coprime_step(capped)
        offset = self.sample_seed % capped
        return iter(sorted((offset + k * step) % capped for k in range(self.sample)))

    def describe(self) -> dict[str, Any]:
        """JSON-able plan summary for reports."""
        return {
            "n_scenes": self.n_scenes,
            "weather_levels": list(self.weather_levels),
            "jitter_levels": list(self.jitter_levels),
            "traffic_levels": list(self.traffic_levels),
            "epsilon": self.epsilon,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "limit": self.limit,
            "sample": self.sample,
            "sample_seed": self.sample_seed,
            "grid_size": self.grid_size,
            "total_regions": self.total_regions,
        }


def _coprime_step(n: int) -> int:
    """The stride of the coverage lattice: near ``golden * n``, coprime.

    >>> _coprime_step(10)
    7
    >>> all(math.gcd(_coprime_step(n), n) == 1 for n in range(1, 200))
    True
    """
    if n <= 2:
        return 1
    step = max(1, round(n * _GOLDEN)) % n or 1
    while math.gcd(step, n) != 1:
        step = step + 1 if step + 1 < n else 1
    return step


class _SceneCursor:
    """Forward-only seeded scene sampler: O(1) memory at any grid size.

    Scenes come from the same sequential rng stream the eager grid
    draws from, so scene ``k`` here equals scene ``k`` there; ascending
    region indices (guaranteed by :meth:`StreamPlan.indices`) mean the
    cursor never has to rewind or retain past scenes.
    """

    def __init__(self, plan: StreamPlan):
        self._rng = np.random.default_rng(plan.seed)
        self._config = plan.base_config
        self._index = -1
        self._scene: SceneParams | None = None

    def scene(self, index: int) -> SceneParams:
        if index < self._index:
            raise ValueError("scene cursor only moves forward")
        while self._index < index:
            self._scene = sample_scene(self._rng, self._config)
            self._index += 1
        assert self._scene is not None
        return self._scene


class _VariantCache:
    """Pre-weather renderings of one scene, shared across its regions.

    :func:`region_from_scene` re-renders camera and traffic variants for
    every region; within one scene those renderings only depend on
    ``(camera_jitter, traffic)``, which repeat across the weather axis.
    Caching them turns the per-region cost into a vectorized weather
    envelope over already-rendered variants.  The textured ground under
    the traffic depends on the camera alone (its rng is re-seeded from
    ``scene.texture_seed`` on every call), so it is rendered once per
    camera and shared across the traffic levels.  The cache holds one
    scene at a time (scene-major order makes that sufficient), keeping
    memory constant.
    """

    def __init__(self, config: SceneConfig):
        self._config = config
        self._scene: SceneParams | None = None
        self._cache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
        self._ground: dict[PinholeCamera, tuple[np.ndarray, np.ndarray]] = {}

    def variants(
        self, scene: SceneParams, axes: PerturbationAxes
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(images, distances)`` of all camera × traffic variants."""
        if scene is not self._scene:
            self._scene = scene
            self._cache.clear()
            self._ground.clear()
        key = (axes.camera_jitter, axes.traffic)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        images: list[np.ndarray] = []
        distances: list[np.ndarray] = []
        for camera in _camera_variants(self._config.camera, axes.camera_jitter):
            ground = self._ground.get(camera)
            if ground is None:
                # one textured base rendering per camera, exactly as the
                # eager path does (same seed, same call order)
                rng = np.random.default_rng(scene.texture_seed)
                ground = render_ground(scene.road, camera, rng)
                self._ground[camera] = ground
            base_image, base_distance = ground
            for vehicles in _traffic_variants(scene, axes.traffic):
                image = base_image.copy()
                distance = base_distance.copy()
                render_vehicles(image, distance, scene.road, camera, vehicles)
                images.append(image)
                distances.append(distance)
        value = (np.stack(images), np.stack(distances))
        self._cache[key] = value
        return value


def _envelope_region(
    scene: SceneParams,
    axes: PerturbationAxes,
    epsilon: float,
    name: str,
    cache: _VariantCache,
) -> Region:
    """The weather envelope over cached variants — bitwise-identical to
    :func:`region_from_scene`.

    Replays :meth:`Weather.apply`'s exact operation order (fog blend
    when the density is positive, then contrast, brightness, clip) over
    the stacked variants.  Every step is an elementwise IEEE operation
    on the same values the eager path computes — the fog transmission is
    even taken per-variant on the same 2-D array shape — and min/max
    reductions are exact, so the resulting bounds match the eager
    region bit for bit.
    """
    images, distances = cache.variants(scene, axes)
    stacks: list[np.ndarray] = []
    transmissions: dict[float, np.ndarray] = {}
    for weather in _weather_variants(axes.weather):
        out = images.copy()
        if weather.fog_density > 0.0:
            transmission = transmissions.get(weather.fog_density)
            if transmission is None:
                transmission = np.stack(
                    [
                        np.exp(
                            -weather.fog_density
                            * np.where(np.isfinite(d), d, 200.0)
                        )
                        for d in distances
                    ]
                )
                transmissions[weather.fog_density] = transmission
            out = transmission * out + (1.0 - transmission) * weather.fog_gray
        out = (out - 0.5) * weather.contrast + 0.5
        out = out * weather.brightness
        stacks.append(np.clip(out, 0.0, 1.0))
    stack = np.concatenate(stacks)
    lower = np.clip(stack.min(axis=0) - epsilon, 0.0, 1.0)[None, :, :]
    upper = np.clip(stack.max(axis=0) + epsilon, 0.0, 1.0)[None, :, :]
    return Region(name=name, scene=scene, axes=axes, lower=lower, upper=upper)


def stream_scenario_regions(plan: StreamPlan) -> Iterator[RegionGrid]:
    """Yield the plan's regions as shard-sized :class:`RegionGrid` batches.

    Peak memory is one shard plus one scene's rendering cache, at any
    grid size.  Region ``k`` (name ``region-{k:03d}``) is
    bitwise-identical to the eager grid's region ``k``.
    """
    config = plan.base_config
    cursor = _SceneCursor(plan)
    cache = _VariantCache(config)
    shard: list[Region] = []
    for flat in plan.indices():
        scene_index, weather, jitter, traffic = plan.point(flat)
        scene = cursor.scene(scene_index)
        axes = PerturbationAxes(
            weather=weather, camera_jitter=jitter, traffic=traffic
        )
        shard.append(
            _envelope_region(scene, axes, plan.epsilon, f"region-{flat:03d}", cache)
        )
        if len(shard) >= plan.shard_size:
            yield RegionGrid(shard, config)
            shard = []
    if shard:
        yield RegionGrid(shard, config)


# -- the streaming campaign executor ---------------------------------------


@dataclass(frozen=True)
class _StreamOptions:
    """Per-run knobs shipped once to every pool worker."""

    domain: str = "interval"
    properties: tuple[str | None, ...] = (None,)
    attack_steps: int = 20
    solver_fallback: bool = True
    collect_results: bool = False
    max_witnesses: int = 8
    #: race the default portfolio over the solver-fallback survivors
    #: instead of running the engine's solver stages
    portfolio: bool = False


@dataclass
class ShardOutcome:
    """Constant-size aggregate one shard contributes to the report."""

    shard_index: int
    n_regions: int
    n_queries: int
    verdict_counts: dict[str, int] = field(default_factory=dict)
    decided_by_counts: dict[str, int] = field(default_factory=dict)
    #: axis -> level -> verdict -> count (the ODD-coverage histogram)
    coverage: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0
    results: "list[QueryResult] | None" = None


@dataclass
class StreamReport:
    """Everything one :func:`run_stream` sweep learned, O(1) in the grid.

    ``results`` is only populated when the run was started with
    ``collect_results=True`` (small grids — parity testing against the
    eager path); million-region sweeps keep only the histograms,
    coverage table and a bounded witness sample.
    """

    plan: dict[str, Any]
    total_regions: int
    total_queries: int
    shards: int
    verdict_counts: dict[str, int]
    decided_by_counts: dict[str, int]
    coverage: dict[str, dict[str, dict[str, int]]]
    witnesses: list[dict[str, Any]]
    total_time: float
    workers: int
    executor: str
    results: "list[QueryResult] | None" = None

    @property
    def decided(self) -> int:
        return sum(
            count
            for verdict, count in self.verdict_counts.items()
            if verdict not in ("unknown", "error")
        )

    def summary(self) -> str:
        verdicts = ", ".join(
            f"{k}: {v}" for k, v in sorted(self.verdict_counts.items())
        )
        return (
            f"streamed {self.total_queries} queries over {self.total_regions} "
            f"regions in {self.shards} shards ({self.executor}, "
            f"{self.total_time:.2f}s) — {verdicts}"
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "plan": self.plan,
            "total_regions": self.total_regions,
            "total_queries": self.total_queries,
            "shards": self.shards,
            "verdict_counts": dict(self.verdict_counts),
            "decided_by_counts": dict(self.decided_by_counts),
            "coverage": self.coverage,
            "witnesses": self.witnesses,
            "total_time": round(self.total_time, 4),
            "workers": self.workers,
            "executor": self.executor,
        }
        if self.results is not None:
            out["results"] = [r.to_dict() for r in self.results]
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)

    def campaign_report(self, name: str = "stream") -> "CampaignReport":
        """The collected results as an eager-style :class:`CampaignReport`.

        Requires ``collect_results=True`` — the whole point of streaming
        is *not* to hold every result at scale.
        """
        if self.results is None:
            raise ValueError(
                "campaign_report() needs a run with collect_results=True"
            )
        from repro.api.campaign import CampaignReport

        return CampaignReport(
            campaign_name=name,
            results=list(self.results),
            total_time=self.total_time,
            workers=self.workers,
            executor=self.executor,
        )


def _merge_coverage(
    into: dict[str, dict[str, dict[str, int]]],
    add: dict[str, dict[str, dict[str, int]]],
) -> None:
    for axis, levels in add.items():
        axis_map = into.setdefault(axis, {})
        for level, verdicts in levels.items():
            level_map = axis_map.setdefault(level, {})
            for verdict, count in verdicts.items():
                level_map[verdict] = level_map.get(verdict, 0) + count


def _count(counter: dict[str, int], key: str, by: int = 1) -> None:
    counter[key] = counter.get(key, 0) + by


#: per-process portfolio cache, keyed by engine identity, so the
#: adaptive win/loss statistics persist across every shard this process
#: decides (a fresh portfolio per shard would relearn the order each time)
_PORTFOLIOS: dict[int, Any] = {}


def _portfolio_for(engine: "VerificationEngine") -> Any:
    racer = _PORTFOLIOS.get(id(engine))
    if racer is None or racer.engine is not engine:
        from repro.api.portfolio import Portfolio

        racer = Portfolio(engine)
        _PORTFOLIOS.clear()
        _PORTFOLIOS[id(engine)] = racer
    return racer


def _decide_shard(
    engine: "VerificationEngine",
    shard_index: int,
    grid: RegionGrid,
    risks: "Sequence[RiskCondition]",
    options: _StreamOptions,
) -> ShardOutcome:
    """Decide one shard through the engine's stage list, then aggregate.

    The shard's regions are registered for the shard's lifetime through
    :meth:`~repro.api.engine.VerificationEngine.add_region_sets` — the
    eager grid's own propagation — and their queries, in the eager
    campaign's order, run the engine's prescreen, then one batched PGD
    attack per risk over what the prescreen left (a hit is a genuine
    counterexample, so the region is UNSAFE without any solver), then
    the engine's solver stages, the adaptive portfolio, or nothing
    (``stream-undecided``) for the survivors.
    """
    from repro.api.query import VerificationQuery
    from repro.verification.solver.result import SolveStatus

    start = time.perf_counter()

    def attack(batch, pending):
        if options.attack_steps <= 0:
            return pending
        # one batched PGD pass per risk, then one feature pass over that
        # risk's hit images; a sound prescreen never excludes a box an
        # attack can hit, so running it second changes no verdict
        for risk in risks:
            targets = [
                item
                for item in pending
                if item.query.risk is risk and item.query.property_name is None
            ]
            if not targets:
                continue
            hits = pgd_hits_in_boxes(
                engine.model,
                risk,
                np.stack([item.registered.input_box[0] for item in targets]),
                np.stack([item.registered.input_box[1] for item in targets]),
                steps=options.attack_steps,
            )
            if not hits:
                continue
            hit_features = engine.model.prefix_apply(
                np.stack([cex.image for _, cex in hits]), engine.cut_layer
            )
            for (local, cex), features in zip(hits, hit_features):
                engine._answer(
                    targets[local],
                    "attack",
                    SolveStatus.SAT,
                    witness=features,
                    stats={"decided": "attack", "pgd_iterations": cex.iterations},
                    counterexample=FeatureCounterexample(
                        features=features,
                        predicted_output=cex.output,
                        risk_margin=cex.risk_margin,
                        characterizer_logit=None,
                    ),
                )
        return [item for item in pending if item.result is None]

    def race(batch, pending):
        racer = _portfolio_for(engine)
        for item in pending:
            engine._adopt(item, racer.run_query(item.query))
        return []

    def undecided(batch, pending):
        stats = {"stream": "no solver fallback"}
        for item in pending:
            engine._answer(item, "stream-undecided", SolveStatus.UNKNOWN, stats=stats)
        return []

    if not options.solver_fallback:
        rest: tuple = (undecided,)
    elif options.portfolio:
        rest = (race,)
    else:
        rest = engine._solver_stages()
    queries = [
        VerificationQuery(
            risk=risk,
            property_name=prop,
            set_name=region.name,
            domain=options.domain,
            metadata=region.metadata(),
        )
        for region in grid
        for prop in options.properties
        for risk in risks
    ]
    names = engine.add_region_sets(grid, overwrite=True)
    try:
        results = engine._run_queries(
            queries, stages=(engine._prescreen_stage, attack, *rest)
        )
    finally:
        engine.remove_feature_sets(names)

    outcome = ShardOutcome(
        shard_index=shard_index,
        n_regions=len(grid),
        n_queries=len(queries),
        results=[] if options.collect_results else None,
    )
    per_region = len(queries) // len(grid)
    for index, result in enumerate(results):
        region = grid[index // per_region]
        verdict = (
            result.verdict.verdict.value
            if result.ok and result.verdict is not None
            else "error"
        )
        _count(outcome.verdict_counts, verdict)
        _count(outcome.decided_by_counts, result.decided_by or "?")
        for axis, level in region.axes.describe():
            _count(
                outcome.coverage.setdefault(axis, {}).setdefault(level, {}),
                verdict,
            )
        cex = result.verdict.counterexample if result.verdict else None
        if cex is not None and len(outcome.witnesses) < options.max_witnesses:
            outcome.witnesses.append(
                {
                    "region": region.name,
                    "risk": result.query.risk.description,
                    "risk_margin": float(cex.risk_margin),
                    "decided_by": result.decided_by,
                }
            )
        if outcome.results is not None:
            outcome.results.append(result)
    outcome.elapsed = time.perf_counter() - start
    return outcome


# -- process-pool plumbing (module-level: pool callables must pickle) ------

_STREAM_ENGINE: "VerificationEngine | None" = None
_STREAM_RISKS: "Sequence[RiskCondition] | None" = None
_STREAM_OPTIONS: _StreamOptions | None = None


def _stream_worker_init(engine, risks, options) -> None:
    global _STREAM_ENGINE, _STREAM_RISKS, _STREAM_OPTIONS
    _STREAM_ENGINE = engine
    _STREAM_RISKS = risks
    _STREAM_OPTIONS = options


def _stream_worker_run(task) -> ShardOutcome:
    """Rebuild one shard from its zero-copy payload and decide it."""
    assert _STREAM_ENGINE is not None and _STREAM_OPTIONS is not None
    assert _STREAM_RISKS is not None
    shard_index, handle, payload, names, scenes, axes, config = task
    if handle is not None:
        lower, upper = shm.attach(handle)
    else:
        lower, upper = payload
    regions = [
        Region(
            name=names[i],
            scene=scenes[i],
            axes=axes[i],
            lower=lower[i],
            upper=upper[i],
        )
        for i in range(len(names))
    ]
    return _decide_shard(
        _STREAM_ENGINE,
        shard_index,
        RegionGrid(regions, config),
        _STREAM_RISKS,
        _STREAM_OPTIONS,
    )


def run_stream(
    engine: "VerificationEngine",
    plan: StreamPlan,
    risks: "Sequence[RiskCondition]",
    *,
    properties: Sequence[str | None] = (None,),
    domain: str = "interval",
    workers: int = 1,
    attack_steps: int = 20,
    solver_fallback: bool = True,
    collect_results: bool = False,
    max_witnesses: int = 8,
    portfolio: bool = False,
    progress: Callable[[str], None] | None = None,
) -> StreamReport:
    """Stream a scenario campaign: generate, triage, decide, aggregate.

    The streaming twin of building an eager grid and running
    ``Campaign.from_scenario_grid`` over it — verdict-identical on the
    same parameters, but with O(shard) peak memory, a prescreen that
    spares the attack every provable region and an attack pass that
    spares the solver every falsifiable one.  ``workers > 1`` ships
    shards to a process pool through shared memory; the parent only
    ever holds the bounded number of in-flight shards.  ``domain`` is
    the top of the prescreen ladder, as in ``Campaign.from_scenario_grid``;
    regions reach the cut layer through the same interval propagation as
    :meth:`~repro.api.engine.VerificationEngine.add_region_sets`.  Risks
    over the wrong number of outputs are rejected before the first shard
    is generated.
    """
    if not risks:
        raise ValueError("run_stream needs at least one risk condition")
    for risk in risks:
        engine._check_risk(risk)
    if collect_results:
        # collecting every QueryResult is O(grid) by definition — guard
        # it with the same memory check the eager path applies
        pixels = int(np.prod(engine.model.input_shape))
        ensure_regions_fit(
            plan.total_regions, pixels, what="collect_results stream"
        )
    options = _StreamOptions(
        domain=domain,
        properties=tuple(properties),
        attack_steps=attack_steps,
        solver_fallback=solver_fallback,
        collect_results=collect_results,
        max_witnesses=max_witnesses,
        portfolio=portfolio,
    )
    start = time.perf_counter()
    outcomes: dict[int, ShardOutcome] = {}
    executor = "sequential"

    if workers > 1:
        try:
            executor = f"process-pool[{workers}]"
            _run_stream_parallel(engine, plan, risks, options, workers, outcomes)
        except _POOL_FAILURES as exc:
            # a broken pool may have lost finished shards: rerun them all
            outcomes.clear()
            executor = f"sequential (pool unavailable: {type(exc).__name__})"

    if not outcomes:
        for index, grid in enumerate(stream_scenario_regions(plan)):
            outcomes[index] = _decide_shard(engine, index, grid, risks, options)
            if progress is not None:
                progress(
                    f"shard {index}: {outcomes[index].n_queries} queries "
                    f"in {outcomes[index].elapsed:.2f}s"
                )

    verdict_counts: dict[str, int] = {}
    decided_by_counts: dict[str, int] = {}
    coverage: dict[str, dict[str, dict[str, int]]] = {}
    witnesses: list[dict[str, Any]] = []
    results: "list[QueryResult] | None" = [] if collect_results else None
    total_regions = 0
    total_queries = 0
    for index in sorted(outcomes):
        outcome = outcomes[index]
        total_regions += outcome.n_regions
        total_queries += outcome.n_queries
        for key, count in outcome.verdict_counts.items():
            _count(verdict_counts, key, count)
        for key, count in outcome.decided_by_counts.items():
            _count(decided_by_counts, key, count)
        _merge_coverage(coverage, outcome.coverage)
        if len(witnesses) < max_witnesses:
            witnesses.extend(outcome.witnesses[: max_witnesses - len(witnesses)])
        if results is not None and outcome.results is not None:
            results.extend(outcome.results)

    return StreamReport(
        plan=plan.describe(),
        total_regions=total_regions,
        total_queries=total_queries,
        shards=len(outcomes),
        verdict_counts=verdict_counts,
        decided_by_counts=decided_by_counts,
        coverage=coverage,
        witnesses=witnesses,
        total_time=time.perf_counter() - start,
        workers=workers,
        executor=executor,
        results=results,
    )


def stream_enclosure_range(
    engine: "VerificationEngine",
    plan: StreamPlan,
    *,
    domain: str = "interval",
    output_index: int = 0,
) -> tuple[float, float]:
    """Output-enclosure range over a streamed grid, O(shard) memory.

    The streaming twin of registering every region and calling
    :meth:`~repro.api.engine.VerificationEngine.output_enclosures`:
    each shard goes through the same batched input-box propagation and
    abstraction pass, so the (lo, hi) pair is bitwise-identical to the
    eager derivation — the CLI uses it to pick risk thresholds for
    streamed sweeps that match the eager scenario-grid campaign exactly.
    """
    lo = math.inf
    hi = -math.inf
    dom = get_domain(domain)
    for grid in stream_scenario_regions(plan):
        element = propagate_regions(
            engine.model, grid.box_batch(), engine.cut_layer, domain
        )
        sets = [dom.feature_set(enc) for enc in dom.enclosures(element)]
        for enclosure in output_enclosure_batch(engine.suffix, sets, domain):
            lo = min(lo, float(enclosure.lower[output_index]))
            hi = max(hi, float(enclosure.upper[output_index]))
    if not math.isfinite(lo):
        raise ValueError("stream_enclosure_range over an empty plan")
    return lo, hi


def _run_stream_parallel(
    engine: "VerificationEngine",
    plan: StreamPlan,
    risks: "Sequence[RiskCondition]",
    options: _StreamOptions,
    workers: int,
    outcomes: dict[int, ShardOutcome],
) -> None:
    """Fan shards out over a fork pool via the shm zero-copy path.

    A shard's own exception propagates after the queued shards are
    cancelled; every shared-memory segment is released either way.
    Failing to start the pool raises :class:`BrokenProcessPool`.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    use_shm = shm.available()
    # bound in-flight shards: parent memory stays O(workers * shard)
    max_inflight = workers + 2
    inflight: deque = deque()

    def drain_one() -> None:
        future, pending = inflight.popleft()
        try:
            outcome = future.result()
        finally:
            if pending is not None:
                pending.release()
        outcomes[outcome.shard_index] = outcome

    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_stream_worker_init,
            initargs=(engine, tuple(risks), options),
        )
    except (OSError, NotImplementedError) as exc:  # no fork/spawn, semaphores
        raise BrokenProcessPool(f"cannot start a process pool: {exc}") from exc
    block = None
    try:
        for index, grid in enumerate(stream_scenario_regions(plan)):
            lower = np.stack([r.lower for r in grid])
            upper = np.stack([r.upper for r in grid])
            block = shm.pack_arrays([lower, upper]) if use_shm else None
            task = (
                index,
                block.handle if block is not None else None,
                None if block is not None else (lower, upper),
                grid.names,
                [r.scene for r in grid],
                [r.axes for r in grid],
                grid.config,
            )
            inflight.append((pool.submit(_stream_worker_run, task), block))
            if len(inflight) >= max_inflight:
                drain_one()
        while inflight:
            drain_one()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        # release is idempotent; ``block`` covers a failed submission
        for _, pending in inflight:
            if pending is not None:
                pending.release()
        if block is not None:
            block.release()
