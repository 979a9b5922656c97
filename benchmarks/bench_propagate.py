"""Lowered-IR cache benchmark: lower once, reuse everywhere.

A campaign-shaped workload over the 102-region scenario sweep — input
boxes pushed through the prefix to the cut layer, then output
enclosures over the suffix, repeated ten times — must lower the network
a handful of times and *hit* the lowering cache tens of times.

The exact64 bound parity of this propagation against an independent
pre-IR layer-walk is a tier-1 test
(``tests/verification/test_propagate_reference.py``).

Run as a CI smoke step (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import pytest

from repro.scenario.regions import scenario_region_grid
from repro.verification import ir
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.prescreen import output_enclosure_batch


@pytest.fixture(scope="module")
def region_grid():
    """102 scenario-perturbation regions (same shape as bench_campaign)."""
    grid = scenario_region_grid(
        n_scenes=26,
        weather_levels=(0.0, 1.0),
        traffic_levels=(0, 1),
        seed=7,
    )
    return grid.truncated(102)


@pytest.mark.benchmark(group="ir-propagate")
def test_lowering_cache_hit_rate(system, region_grid):
    """A campaign-shaped workload lowers once and hits the cache after."""
    model, cut = system.model, system.cut_layer
    suffix = system.engine.suffix
    boxes = region_grid.box_batch()

    model.invalidate_lowering()
    ir.reset_lowering_stats()
    for _ in range(10):  # repeated sweeps: prefix propagation + enclosures
        cut_boxes = region_boxes(model, boxes, cut)
        output_enclosure_batch(suffix, cut_boxes, "interval")
    stats = ir.lowering_stats()
    total = stats["hits"] + stats["misses"]
    hit_rate = stats["hits"] / total
    print(f"\nlowering cache: {stats} (hit rate {hit_rate:.1%})")
    assert stats["misses"] <= 2, stats  # prefix (+ nested views) lowered once
    assert hit_rate >= 0.8, stats
