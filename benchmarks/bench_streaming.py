"""Streaming million-region campaigns and portfolio racing (PR 9).

Acceptance benchmark of the streamed scenario pipeline and the
portfolio racer:

- **constant memory**: :func:`repro.scenario.streaming.run_stream`
  sweeps grids of increasing size under a tracemalloc watch; the peak
  traced allocation must stay O(shard) — flat across a 16x growth in
  grid size — while the eager path's region storage alone would grow
  linearly (the predicted eager footprint is recorded alongside).
  ``REPRO_BENCH_FULL=1`` additionally runs the full 10^6-region sweep
  (about half an hour sequential; CI runs the scaled sizes only).
- **portfolio speedup**: on a mixed-verdict query set (one provable
  and one falsifiable threshold per region) the adaptive portfolio
  must beat the engine's fixed ``domain="symbolic"`` strategy ladder —
  which walks the full interval -> octagon -> zonotope -> symbolic
  enclosure ladder for every query the cheap rungs cannot decide — by
  at least 1.5x wall-clock, with identical verdicts.

All timed comparisons run interleaved rounds and compare medians (the
``bench_propagate`` convention): one round times every contender
back-to-back on fresh engines, so a slow-tenancy window on a shared
runner hits all contenders alike and cancels out of the ratio.

A pytest run merges the measured ratios into
``.benchmarks/BENCH_9.json``; CI asserts them and uploads the file as
an artifact.  The committed ``BENCH_9.json`` at the repo root changes
only through::

    PYTHONPATH=src python benchmarks/bench_streaming.py --regenerate
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from statistics import median

import numpy as np
import pytest

import measurements
from repro.api import Campaign, Portfolio, VerificationEngine
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.properties.library import steer_far_left
from repro.scenario.regions import scenario_region_grid
from repro.scenario.streaming import (
    StreamPlan,
    run_stream,
    stream_enclosure_range,
)


#: scenes per size step (4 regions per scene under the default axes)
_SCALED_SCENES = (64, 256, 1024)
_FULL_SCENES = 250_000  # 10^6 regions; REPRO_BENCH_FULL=1 only
_ROUNDS = 3


@pytest.fixture(scope="module")
def conv_model():
    """The scenario-sized conv perception stand-in (32x32 grayscale)."""
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(12),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 32, 32),
        seed=13,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)),
        training=True,
    )
    return model


def _engine(conv_model) -> VerificationEngine:
    return VerificationEngine(conv_model, 6, solver="highs")


@pytest.mark.benchmark(group="streaming")
def test_stream_constant_memory(conv_model):
    """Peak memory stays O(shard) while the grid grows 16x (or to 10^6)."""
    engine = _engine(conv_model)
    probe = StreamPlan(n_scenes=2, seed=2, shard_size=64)
    lo, hi = stream_enclosure_range(engine, probe)
    risks = [steer_far_left(round(hi + 0.25, 3))]

    sizes = list(_SCALED_SCENES)
    if os.environ.get("REPRO_BENCH_FULL"):
        sizes.append(_FULL_SCENES)

    peaks: list[float] = []
    walls: list[float] = []
    regions: list[int] = []
    for n_scenes in sizes:
        plan = StreamPlan(n_scenes=n_scenes, seed=2, shard_size=128)
        tracemalloc.start()
        start = time.perf_counter()
        report = run_stream(engine, plan, risks, attack_steps=0)
        walls.append(time.perf_counter() - start)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak / 1e6)
        regions.append(report.total_regions)
        assert report.total_regions == plan.total_regions
        assert sum(report.verdict_counts.values()) == report.total_queries
        print(
            f"\n{report.total_regions} regions: peak {peaks[-1]:.1f} MB, "
            f"{walls[-1]:.2f}s "
            f"({walls[-1] / report.total_regions * 1e3:.2f} ms/region)"
        )

    # the eager path would materialize every region's bounds up front:
    # n * pixels * 2 bounds * 8 bytes, before any engine state
    pixels = int(np.prod(conv_model.input_shape))
    eager_predicted_mb = regions[-1] * pixels * 2 * 8 / 1e6
    memory_ratio = peaks[-1] / peaks[0]
    measurements.update(
        "BENCH_9.json",
        {
            "stream_regions": regions,
            "stream_peak_mb": [round(p, 2) for p in peaks],
            "stream_wall_s": [round(w, 3) for w in walls],
            "stream_memory_ratio": round(memory_ratio, 3),
            "stream_eager_predicted_mb": round(eager_predicted_mb, 1),
            "stream_shard_size": 128,
        }
    )
    # constant-memory contract: 16x (or 3906x) more regions, flat peak
    assert memory_ratio <= 1.5, (
        f"streamed peak grew {memory_ratio:.2f}x across "
        f"{regions[0]} -> {regions[-1]} regions; expected O(shard)"
    )
    assert peaks[-1] < eager_predicted_mb, (
        "streamed peak exceeds even the eager grid's raw region storage"
    )


@pytest.mark.benchmark(group="streaming")
def test_stream_verdict_parity_vs_eager(conv_model):
    """Streamed decisions match the eager campaign query for query."""
    engine = _engine(conv_model)
    grid = scenario_region_grid(n_scenes=8, seed=2)
    names = engine.add_region_sets(grid)
    enclosures = engine.output_enclosures(names)
    hi = max(float(e.upper[0]) for e in enclosures)
    lo = min(float(e.lower[0]) for e in enclosures)
    risks = [
        steer_far_left(round(hi + 0.25, 3)),
        steer_far_left(round(0.5 * (lo + hi), 3)),
    ]
    eager = engine.run(
        Campaign("eager").add_grid(risks=risks, properties=(None,), sets=names)
    )
    engine.remove_feature_sets(names)

    plan = StreamPlan(n_scenes=8, seed=2, shard_size=8)
    streamed = run_stream(engine, plan, risks, collect_results=True)
    assert streamed.results is not None
    assert len(streamed.results) == len(eager.results)
    for a, b in zip(eager.results, streamed.results):
        assert a.query.set_name == b.query.set_name
        assert a.query.risk is b.query.risk
        assert a.verdict is not None and b.verdict is not None
        assert a.verdict.verdict == b.verdict.verdict, a.query.set_name


@pytest.mark.benchmark(group="streaming")
def test_portfolio_vs_fixed_ladder(conv_model):
    """Adaptive portfolio >= 1.5x the fixed symbolic strategy ladder.

    Mixed-verdict workload: every region is swept with one threshold
    above the enclosure frontier (provable by the interval prescreen)
    and one mid-range threshold (falsifiable, needs a genuine solve).
    The fixed ladder pays the full enclosure ladder on every query the
    interval rung cannot decide; the portfolio's learned order answers
    from the cheapest sound configuration instead.
    """
    grid = scenario_region_grid(n_scenes=6, seed=2)

    def fresh() -> tuple[VerificationEngine, list[str]]:
        engine = _engine(conv_model)
        return engine, engine.add_region_sets(grid)

    engine, names = fresh()
    enclosures = engine.output_enclosures(names)
    hi = max(float(e.upper[0]) for e in enclosures)
    lo = min(float(e.lower[0]) for e in enclosures)
    risks = [
        steer_far_left(round(hi + 0.25, 3)),
        steer_far_left(round(0.5 * (lo + hi), 3)),
    ]

    ladder_walls: list[float] = []
    portfolio_walls: list[float] = []
    ladder_verdicts: list[str] | None = None
    portfolio_verdicts: list[str] | None = None
    for _ in range(_ROUNDS):
        engine, names = fresh()
        campaign = Campaign("mixed").add_grid(
            risks=risks, properties=(None,), sets=names, domain="symbolic"
        )
        start = time.perf_counter()
        ladder_report = engine.run(campaign)
        ladder_walls.append(time.perf_counter() - start)
        ladder_verdicts = [
            r.verdict.verdict.value for r in ladder_report.results
        ]

        engine, names = fresh()
        campaign = Campaign("mixed").add_grid(
            risks=risks, properties=(None,), sets=names
        )
        portfolio = Portfolio(engine)
        start = time.perf_counter()
        portfolio_report = portfolio.run(campaign)
        portfolio_walls.append(time.perf_counter() - start)
        portfolio_verdicts = [
            r.verdict.verdict.value for r in portfolio_report.results
        ]

    assert ladder_verdicts == portfolio_verdicts, (
        "portfolio and fixed ladder disagree on the mixed query set"
    )
    assert len(set(ladder_verdicts)) > 1, (
        "query set is not mixed-verdict; the comparison is meaningless"
    )
    ladder_wall = median(ladder_walls)
    portfolio_wall = median(portfolio_walls)
    speedup = ladder_wall / portfolio_wall
    print(
        f"\nmixed sweep ({len(ladder_verdicts)} queries): fixed ladder "
        f"{ladder_wall:.3f}s, portfolio {portfolio_wall:.3f}s "
        f"({speedup:.2f}x)"
    )
    measurements.update(
        "BENCH_9.json",
        {
            "portfolio_queries": len(ladder_verdicts),
            "portfolio_ladder_wall_s": round(ladder_wall, 4),
            "portfolio_wall_s": round(portfolio_wall, 4),
            "portfolio_speedup": round(speedup, 3),
            "portfolio_verdict_parity": True,
        }
    )
    assert speedup >= 1.5, (
        f"portfolio is only {speedup:.2f}x the fixed ladder; "
        f"the adaptive racer promises >= 1.5x on mixed workloads"
    )


if __name__ == "__main__":
    raise SystemExit(
        measurements.regenerate(sys.argv[1:], "BENCH_9.json", __file__)
    )
