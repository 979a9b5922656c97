"""Streaming scenario campaigns: constant-memory million-region sweeps.

Regions have one generator, in :mod:`repro.scenario.regions`; this
module decides how they are sharded.  An eager grid
(:func:`~repro.scenario.regions.scenario_region_grid`) is every shard
of the stream at once — at a million regions that is tens of gigabytes
of box bounds before the first query runs — while a sweep holds one
shard at a time:

- :class:`StreamPlan` describes the scene × weather × jitter × traffic
  enumeration symbolically (plus optional coverage-guided sampling for
  sub-exhaustive sweeps), so the full grid never exists in memory;
- :func:`stream_scenario_regions` turns a plan into shard-sized
  :class:`~repro.scenario.regions.RegionGrid` batches, each region the
  cached-rendering envelope of :mod:`repro.scenario.regions`;
- :func:`run_stream` drives a whole campaign over the stream.  Each
  shard is registered through the engine's own
  :meth:`~repro.api.engine.VerificationEngine.add_region_sets` for the
  shard's lifetime and its queries run the engine's stage list with one
  stream-only stage inserted after the prescreen: a batched PGD pass
  per risk that falsifies what the prescreen left before any solver
  starts.  Survivors go on to the engine's solver stages, the adaptive
  portfolio, or are left ``stream-undecided``; results aggregate into a
  :class:`StreamReport` (verdict histogram + ODD-coverage per
  perturbation axis) whose peak memory is O(shard), not O(grid);
- :func:`stream_enclosure_range` is the sweep's threshold pre-pass.  On
  a plan small enough (a fixed 64 MiB cap at the eager grid's bytes per
  pixel) it keeps every shard it generated and propagated, and the
  :func:`run_stream` over the same plan that follows takes them, so each
  region is generated and propagated once; past the cap both stream.

With ``workers > 1`` shards go to a
:class:`~repro.verification.pool.WorkerPool`: each shard's stacked
bounds ride one shared-memory segment, and a failed pool keeps every
finished shard and decides the rest in-process.

Verdict parity with the eager path is by construction: a shard's sets
are registered by the same propagation, its queries run the same
stages (``domain`` selects the prescreen ladder, exactly as in
``Campaign.from_scenario_grid``), and an attack hit is a *genuine*
input counterexample, so the complete solver would answer SAT over the
same sound feature set.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.scenario import regions
from repro.scenario.dataset import SceneConfig, SceneParams, sample_scene
from repro.scenario.regions import (
    PerturbationAxes,
    Region,
    RegionGrid,
    _envelope_region,
    _VariantCache,
    ensure_regions_fit,
)
# not called here: perfbench/layers.py traces these module attributes
from repro.scenario.render import render_ground, render_vehicles  # noqa: F401
from repro.verification.abstraction.domain import get_domain
from repro.verification.abstraction.propagate import propagate_regions  # noqa: F401
from repro.verification.counterexample import (
    FeatureCounterexample,
    pgd_hits_in_boxes,
)
from repro.verification.pool import Payload, WorkerPool
# not called here: perfbench/layers.py traces these module attributes
from repro.verification.prescreen import (  # noqa: F401
    output_enclosure_batch,
    screen_enclosure,
)

if TYPE_CHECKING:  # repro.api imports this module, so import lazily
    from repro.api.campaign import CampaignReport, QueryResult
    from repro.api.engine import RegisteredFeatureSet, VerificationEngine
    from repro.properties.risk import RiskCondition

#: golden-ratio fraction used to pick the coverage-lattice stride
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class StreamPlan:
    """A symbolic description of a scenario region enumeration.

    The flat index space is ``n_scenes * len(weather_levels) *
    len(jitter_levels) * len(traffic_levels)``: scenes outermost, then
    weather, jitter and traffic, the last varying fastest.  This is the
    only definition of that order;
    :func:`~repro.scenario.regions.scenario_region_grid` is the
    concatenation of the plan's shards.

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
    def _capped(self) -> int:
        """Size of the enumeration after ``limit``, before ``sample``."""
        return self.grid_size if self.limit is None else self.limit

    @property
    def total_regions(self) -> int:
        """Regions the stream will actually yield."""
        return self._capped if self.sample is None else min(self.sample, self._capped)

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
        capped = self._capped
        if self.sample is None or self.sample >= capped:
            return iter(range(capped))
        step = _coprime_step(capped)
        offset = self.sample_seed % capped
        return iter(sorted((offset + k * step) % capped for k in range(self.sample)))

    def yields(self, flat: int) -> bool:
        """Whether :meth:`indices` yields ``flat``, in O(1) at any size.

        A sampled index is ``(offset + k * step) mod n`` for some
        ``k < sample``; the coprime stride is invertible mod ``n``, so
        ``k`` is recovered directly.
        """
        capped = self._capped
        if not 0 <= flat < capped:
            return False
        if self.sample is None or self.sample >= capped:
            return True
        offset = self.sample_seed % capped
        k = (flat - offset) * pow(_coprime_step(capped), -1, capped) % capped
        return k < self.sample

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


def _reject_clashes(engine: "VerificationEngine", plan: StreamPlan) -> None:
    """Refuse a plan whose region names the caller already registered.

    A shard registers its regions under ``region-{k:03d}`` and removes
    them when it is done, which would replace and then drop a caller's
    set of the same name.  The engine's names are parsed, so the check
    is O(registered sets) at any grid size.
    """
    clashes = []
    for name in engine.feature_set_names():
        match = re.fullmatch(r"region-(\d+)", name)
        if match and name == f"region-{int(match[1]):03d}" and plan.yields(int(match[1])):
            clashes.append(name)
    if clashes:
        raise ValueError(
            f"feature sets {clashes} are already registered under names "
            f"this plan's regions take; remove them before streaming"
        )


class _SceneCursor:
    """Forward-only seeded scene sampler: O(1) memory at any grid size.

    Scenes come from one sequential rng stream seeded by ``plan.seed``,
    so scene ``k`` is the same at any shard size, limit or sample;
    ascending region indices (guaranteed by :meth:`StreamPlan.indices`)
    mean the cursor never has to rewind or retain past scenes.
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


def stream_scenario_regions(plan: StreamPlan) -> Iterator[RegionGrid]:
    """Yield the plan's regions as shard-sized :class:`RegionGrid` batches.

    Peak memory is one shard plus one scene's rendering cache, at any
    grid size.  Region ``k`` is named ``region-{k:03d}``; the eager
    grid is these shards concatenated.
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


@dataclass(frozen=True)
class _KeptShard:
    """A shard the threshold pre-pass kept for the sweep that follows.

    Its regions, the interval sets
    :meth:`~repro.api.engine.VerificationEngine.add_region_sets` built
    for them and their interval output enclosures, in region order.
    """

    grid: RegionGrid
    sets: "list[RegisteredFeatureSet]"
    enclosures: list

    def register(self, engine: "VerificationEngine") -> list[str]:
        """Register the kept sets and seed the engine's enclosure cache."""
        for name, registered, enclosure in zip(
            self.grid.names, self.sets, self.enclosures
        ):
            engine._register_set(name, registered, overwrite=False)
            engine._enclosure_cache[(name, "interval")] = enclosure
        return self.grid.names


def _keeps_shards(engine: "VerificationEngine", plan: StreamPlan, domain: str) -> bool:
    """Whether a pre-pass keeps its shards: interval sets, within the cap.

    ``run_stream`` registers interval sets whatever its ``domain``, so
    only an interval pre-pass builds sets it can take.
    """
    pixels = int(np.prod(engine.model.input_shape))
    needed = plan.total_regions * pixels * regions._BYTES_PER_PIXEL
    return domain == "interval" and needed <= regions._KEPT_SHARDS_BYTES


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
    kept: _KeptShard | None = None,
) -> ShardOutcome:
    """Decide one shard through the engine's stage list, then aggregate.

    The shard's regions are registered for the shard's lifetime through
    :meth:`~repro.api.engine.VerificationEngine.add_region_sets` — the
    eager grid's own propagation — or, for a shard the threshold
    pre-pass ``kept``, as the sets and interval enclosures that
    propagation already gave.  Their queries, in the eager
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
    names = engine.add_region_sets(grid) if kept is None else kept.register(engine)
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


def _shard_task(index: int, grid: RegionGrid) -> Payload:
    """A shard as a pool task: its stacked bounds plus the rest."""
    return Payload(
        (np.stack([r.lower for r in grid]), np.stack([r.upper for r in grid])),
        (index, grid.names, [r.scene for r in grid], [r.axes for r in grid], grid.config),
    )


def _run_shard(state, task: Payload) -> ShardOutcome:
    """Rebuild one shard from its pool task and decide it."""
    engine, risks, options = state
    lower, upper = task.arrays
    index, names, scenes, axes, config = task.meta
    regions = [
        Region(name=names[i], scene=scenes[i], axes=axes[i], lower=lower[i], upper=upper[i])
        for i in range(len(names))
    ]
    return _decide_shard(engine, index, RegionGrid(regions, config), risks, options)


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
    shards to a :class:`~repro.verification.pool.WorkerPool` through
    shared memory, with at most ``workers + 2`` shards in flight; if
    the pool fails, the finished shards are kept and the rest are
    decided in-process (``report.executor`` says so), while a shard's
    own exception propagates.  ``domain`` is
    the top of the prescreen ladder, as in ``Campaign.from_scenario_grid``;
    regions reach the cut layer through the same interval propagation as
    :meth:`~repro.api.engine.VerificationEngine.add_region_sets`.  Risks
    over the wrong number of outputs are rejected before the first shard
    is generated.

    After :func:`stream_enclosure_range` kept its shards for an equal
    ``plan``, the sweep takes them instead of generating the regions
    again: sequentially it registers the kept sets and their interval
    enclosures, so nothing is rendered or propagated twice; with
    ``workers > 1`` the kept regions are shipped and the workers
    propagate them.  Equal plans give the same shards and the same
    propagation bit for bit, so no verdict changes.  Every call takes
    the kept shards off the engine, whether it uses them or not.
    """
    kept, engine._kept_shards = engine._kept_shards, None
    shards = kept[1] if kept is not None and kept[0] == plan else None
    if not risks:
        raise ValueError("run_stream needs at least one risk condition")
    for risk in risks:
        engine._check_risk(risk)
    _reject_clashes(engine, plan)
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
    source = enumerate(
        ((grid, None) for grid in stream_scenario_regions(plan))
        if shards is None
        else ((shard.grid, shard) for shard in shards)
    )
    if workers > 1:
        with WorkerPool(workers, (engine, tuple(risks), options)) as pool:
            tasks = (_shard_task(index, grid) for index, (grid, _) in source)
            outcomes = _reported(
                pool.map(_run_shard, tasks, inflight=workers + 2), progress
            )
        executor = pool.label(f"process-pool[{workers}]", "sequential")
    else:
        decided = (
            _decide_shard(engine, index, grid, risks, options, shard)
            for index, (grid, shard) in source
        )
        outcomes = _reported(decided, progress)
        executor = "sequential"

    verdict_counts: dict[str, int] = {}
    decided_by_counts: dict[str, int] = {}
    coverage: dict[str, dict[str, dict[str, int]]] = {}
    witnesses: list[dict[str, Any]] = []
    results: "list[QueryResult] | None" = [] if collect_results else None
    total_regions = 0
    total_queries = 0
    for outcome in outcomes:
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
    """Output-enclosure range over a streamed grid.

    Each shard is registered through
    :meth:`~repro.api.engine.VerificationEngine.add_region_sets`, its
    :meth:`~repro.api.engine.VerificationEngine.output_enclosures` are
    read and its sets are removed again, so the (lo, hi) pair equals
    the eager derivation's up to the last bit (batched propagation's
    last bit depends on the shard size).  The CLI uses it to pick risk
    thresholds for streamed sweeps; its 3-decimal rounding makes them
    equal the eager scenario-grid campaign's except at a rounding
    boundary.  Sets the caller registered under the plan's region names
    are rejected before the first shard (``ValueError``).

    An interval pass whose plan fits a fixed memory cap (64 MiB at the
    eager grid's bytes per pixel, decided before the first shard) keeps
    each shard's regions, sets and enclosures on the engine, outside its
    registered sets, for the :func:`run_stream` over the same plan that
    follows; ``clear_caches`` drops them.  Any other pass holds one
    shard at a time.
    """
    _reject_clashes(engine, plan)
    engine._kept_shards = None
    kept: list[_KeptShard] | None = [] if _keeps_shards(engine, plan, domain) else None
    hull = get_domain(domain).enclosure_box
    lo = math.inf
    hi = -math.inf
    for grid in stream_scenario_regions(plan):
        names = engine.add_region_sets(grid, domain=domain)
        try:
            enclosures = engine.output_enclosures(names, domain)
            if kept is not None:
                sets = [engine._registered(name) for name in names]
                kept.append(_KeptShard(grid, sets, enclosures))
        finally:
            engine.remove_feature_sets(names)
        for box in map(hull, enclosures):
            lo = min(lo, float(box.lower[output_index]))
            hi = max(hi, float(box.upper[output_index]))
    if kept is not None:
        engine._kept_shards = (plan, kept)
    return lo, hi


def _reported(
    outcomes: Iterator[ShardOutcome], progress: Callable[[str], None] | None
) -> list[ShardOutcome]:
    """Drain ``outcomes`` in shard order, reporting each to ``progress``."""
    drained = []
    for outcome in outcomes:
        drained.append(outcome)
        if progress is not None:
            progress(
                f"shard {outcome.shard_index}: {outcome.n_queries} queries "
                f"in {outcome.elapsed:.2f}s"
            )
    return drained
