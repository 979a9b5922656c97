"""Campaign engine: planning/caching ladder + parallel fan-out vs seed path.

Two acceptance experiments live here.

**Scenario-grid batched prescreen** (``test_batched_prescreen_*``): a
102-query region sweep (102 scenario-perturbation input boxes × 1 risk)
whose prescreen stage — input-box propagation to the cut layer plus
output enclosures — runs once region by region (a batch of one each)
and once as a single batch.  The batched stage must be at least 3×
faster and bound-identical, and the planned campaign must return the
verdicts of answering each query alone.

**Planning/caching ladder** (the original experiment): a 20-query
campaign (10 risk thresholds × 2 characterizer settings) through

- the **seed path** — every query runs on a fresh
  ``VerificationEngine(lp_screen=False)``, so it re-lowers,
  re-propagates bounds and re-encodes from scratch and goes straight
  to the exact solver,
- the **cold engine** — fresh caches, full strategy ladder: the
  threshold sweep collapses onto one support-function optimization per
  (set, characterizer, direction),
- the **warm engine** — the steady-state cost a long-running service
  pays per additional query (cache lookups + witness replay),
- the **parallel engine** — the engine fanned out over 4 worker
  processes.

All four must return identical verdicts.  Reference numbers from a
single-core container (102-query variant of the same sweep): seed path
1.98 s, cold engine 0.27 s (7.4×), warm engine 0.008 s (~250×); the
4-worker pool is *slower* there (1.2 s) because one core serializes the
workers and each worker rebuilds its own cache — on a multi-core host
the pool amortizes the per-worker caches across queries instead.
"""

import time

import numpy as np
import pytest

from repro.api import Campaign, VerificationEngine
from repro.properties.library import steer_far_left
from repro.scenario.regions import scenario_region_grid
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.output_range import output_range_batch
from repro.verification.prescreen import output_enclosure, output_enclosure_batch
from repro.verification.sets import BoxBatch


@pytest.fixture(scope="module")
def campaign(system, provable_threshold):
    """20 queries sweeping the provable frontier, with and without phi."""
    thresholds = np.linspace(provable_threshold - 2.0, provable_threshold + 2.0, 10)
    return Campaign("bench-sweep").add_grid(
        risks=[steer_far_left(float(t)) for t in thresholds],
        properties=("bends_right", None),
    )


def _engine(system, **kwargs):
    engine = VerificationEngine(
        system.model, system.cut_layer, solver="highs", **kwargs
    )
    engine.add_feature_set_from_features(system.train_features, kind="box+diff")
    engine.attach_characterizer(system.characterizers["bends_right"])
    return engine


@pytest.fixture(scope="module")
def reference_verdicts(system, campaign):
    engine = _engine(system)
    return [r.verdict.verdict for r in engine.run(campaign).results]


# -- scenario-grid batched prescreen (the 102-query region sweep) ------------


@pytest.fixture(scope="module")
def region_grid():
    """102 regions: 17 base scenes × 3 weather levels × 2 traffic levels."""
    return scenario_region_grid(
        n_scenes=17, weather_levels=(0.0, 0.5, 1.0), traffic_levels=(0, 1), seed=5
    )


def _grid_engine(system, grid, **kwargs):
    engine = VerificationEngine(
        system.model, system.cut_layer, solver="highs", **kwargs
    )
    engine.add_region_sets(grid)
    return engine


@pytest.fixture(scope="module")
def grid_campaign(system, region_grid):
    """102 queries: every region against one frontier risk threshold.

    The threshold sits at the middle of the global enclosure range so the
    prescreen genuinely has to discriminate — looser regions descend the
    solver ladder, tighter ones are excluded outright.
    """
    engine = _grid_engine(system, region_grid)
    ranges = output_range_batch(
        engine.suffix, [engine.feature_set(n) for n in region_grid.names]
    )
    hi = max(r.upper for r in ranges)
    lo = min(r.lower for r in ranges)
    return Campaign.from_scenario_grid(
        region_grid, risks=[steer_far_left(0.5 * (lo + hi))]
    )


@pytest.mark.benchmark(group="scenario-grid")
def test_batched_prescreen_speedup(system, region_grid):
    """The batched prescreen stage must beat the scalar one >= 3x.

    The prescreen stage of a region sweep is (a) propagating every input
    box through the prefix to the cut layer and (b) computing every
    suffix output enclosure.  Scalar = one batch-of-one pass per region;
    batched = one vectorized pass for all 102.  Identical
    bounds are asserted alongside the speedup.
    """
    model, cut = system.model, system.cut_layer
    suffix = system.engine.suffix
    boxes = region_grid.box_batch()

    def scalar_stage():
        sets = [
            region_boxes(
                model,
                BoxBatch(boxes.lower[i][None], boxes.upper[i][None]),
                cut,
            ).box(0)
            for i in range(len(boxes))
        ]
        return [output_enclosure(suffix, s, "interval") for s in sets]

    def batched_stage():
        cut_boxes = region_boxes(model, boxes, cut)
        return output_enclosure_batch(suffix, cut_boxes, "interval")

    scalar_stage(), batched_stage()  # warm both paths
    timings = {}
    for name, stage in (("scalar", scalar_stage), ("batched", batched_stage)):
        rounds = []
        for _ in range(5):
            start = time.perf_counter()
            stage()
            rounds.append(time.perf_counter() - start)
        timings[name] = min(rounds)

    for scalar, batched in zip(scalar_stage(), batched_stage()):
        np.testing.assert_allclose(batched.lower, scalar.lower, atol=1e-9)
        np.testing.assert_allclose(batched.upper, scalar.upper, atol=1e-9)

    speedup = timings["scalar"] / timings["batched"]
    print(
        f"\nprescreen stage over {len(boxes)} regions: "
        f"scalar {timings['scalar'] * 1e3:.1f}ms, "
        f"batched {timings['batched'] * 1e3:.1f}ms ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"batched prescreen only {speedup:.2f}x faster than scalar"
    )


@pytest.mark.benchmark(group="scenario-grid")
def test_grid_campaign_batched(benchmark, system, region_grid, grid_campaign):
    """Full 102-query region sweep through the region-major planner."""
    report = benchmark.pedantic(
        lambda engine: engine.run(grid_campaign),
        setup=lambda: ((_grid_engine(system, region_grid),), {}),
        rounds=3,
    )
    assert len(report) == 102
    assert not report.errors
    # the planner computed every enclosure in one batched pass
    assert report.cache_stats["batch:prescreen-enclosure:interval"] == 102
    assert report.cache_stats.get("miss:prescreen-enclosure", 0) == 0

    # verdict parity with answering each query alone (no planner)
    scalar_engine = _grid_engine(system, region_grid)
    scalar_results = [scalar_engine.run_query(q) for q in grid_campaign]
    assert scalar_engine.cache_stats["miss:prescreen-enclosure"] == 102
    assert [r.verdict.verdict for r in report.results] == [
        r.verdict.verdict for r in scalar_results
    ]


# -- planning/caching ladder (10 thresholds × 2 characterizer settings) ------


@pytest.mark.benchmark(group="campaign")
def test_campaign_seed_path(benchmark, system, campaign, reference_verdicts):
    """A fresh engine per query: every query encodes from scratch, no ladder."""
    verdicts = benchmark.pedantic(
        lambda: [
            _engine(system, lp_screen=False).run_query(query).verdict.verdict
            for query in campaign
        ],
        rounds=3,
    )
    assert verdicts == reference_verdicts


@pytest.mark.benchmark(group="campaign")
def test_campaign_engine_cold(benchmark, system, campaign, reference_verdicts):
    """Fresh caches: the sweep collapses onto two support optimizations."""
    report = benchmark.pedantic(
        lambda engine: engine.run(campaign),
        setup=lambda: ((_engine(system),), {}),
        rounds=3,
    )
    assert [r.verdict.verdict for r in report.results] == reference_verdicts


@pytest.mark.benchmark(group="campaign")
def test_campaign_engine_warm(benchmark, system, campaign, reference_verdicts):
    """Steady-state per-campaign cost once caches are populated."""
    engine = _engine(system)
    engine.run(campaign)  # warm every cache
    report = benchmark.pedantic(lambda: engine.run(campaign), rounds=3)
    assert [r.verdict.verdict for r in report.results] == reference_verdicts
    # every query is answered by a cached artifact: the prescreen
    # enclosure or the support-function value — no solver calls at all
    decided = report.decided_by_counts()
    assert decided.get("support-cache", 0) + decided.get("prescreen", 0) == 20
    assert report.cache_stats.get("hit:support", 0) == decided.get("support-cache", 0)


@pytest.mark.benchmark(group="campaign")
def test_campaign_parallel_workers4(benchmark, system, campaign, reference_verdicts):
    """4-worker process pool, order-preserving and verdict-identical."""
    engine = _engine(system)
    report = benchmark.pedantic(
        lambda: engine.run(campaign, workers=4), rounds=3
    )
    assert report.executor == "process-pool[4]"
    assert [r.verdict.verdict for r in report.results] == reference_verdicts
