"""Lowered-IR propagation vs the pre-IR layer-walking path.

Acceptance benchmark of the one-IR refactor and its float32 raw-speed
backend: the 102-region scenario sweep's propagation stage — input
boxes pushed through the prefix to the cut layer — runs through a
faithful re-implementation of the pre-IR batched layer-walk (the PR 2
path, inlined here as the baseline since the duplicate stack was
deleted), through the cached lowered-IR batch path, and through the
fast32 backend over the fused program view.  Asserted:

- **parity or better**: the IR path is at least as fast as the
  layer-walk (10% tolerance for timer noise), with bound-identical
  results;
- **fast32 speedup with containment**: the float32 backend is at least
  10x the legacy layer-walk, and its outward-rounded bounds contain the
  exact64 bounds region by region (the soundness contract of
  :mod:`repro.verification.abstraction.fast32`);
- **lowering-cache hit rate**: across a repeated campaign-shaped
  workload (propagation + enclosures + re-runs) the network is lowered
  a handful of times and *hit* tens of times — the "lower once, reuse
  everywhere" contract.

All timed comparisons run **interleaved rounds** and compare medians:
one round times every contender back-to-back, so a slow-tenancy window
on a shared runner hits all of them alike and cancels out of the
ratio.  (The old min-of-7 per contender picked each path's luckiest —
and differently lucky — round, which made ratios swing with machine
noise.)  The measured ratios are written to ``BENCH_7.json`` at the
repo root; CI uploads it as an artifact.

Run as a CI smoke step (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.nn.layers.activations import Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.batchnorm import BatchNorm
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.tensor import im2col
from repro.scenario.regions import scenario_region_grid
from repro.verification.abstraction.propagate import region_boxes
from repro.verification import ir
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


# -- the pre-IR layer-walking baseline, inlined ------------------------------


def _legacy_conv_apply(layer, x, weight, bias):
    cols, ho, wo = im2col(x, layer.kernel, layer.stride, layer.padding)
    w_flat = weight.reshape(layer.filters, -1)
    out = np.matmul(w_flat, cols) + bias[None, :, None]
    return out.reshape(x.shape[0], layer.filters, ho, wo)


_MONOTONE = (ReLU, LeakyReLU, Sigmoid, Tanh, Identity, MaxPool2D, AvgPool2D)


def _legacy_layer_bounds_batch(layer, lower, upper):
    """The PR 2 batched transformer bodies, verbatim modulo plumbing."""
    if isinstance(layer, Dense):
        center = 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
        w = layer.weight.value
        out_center = center @ w + layer.bias.value
        out_radius = radius @ np.abs(w)
        return out_center - out_radius, out_center + out_radius
    if isinstance(layer, Conv2D):
        center = 0.5 * (lower + upper)
        radius = 0.5 * (upper - lower)
        out_center = _legacy_conv_apply(
            layer, center, layer.weight.value, layer.bias.value
        )
        zero_bias = np.zeros_like(layer.bias.value)
        out_radius = _legacy_conv_apply(
            layer, radius, np.abs(layer.weight.value), zero_bias
        )
        return out_center - out_radius, out_center + out_radius
    if isinstance(layer, BatchNorm):
        scale, shift = layer.affine_coefficients()
        if lower.ndim == 4:
            scale = scale[:, None, None]
            shift = shift[:, None, None]
        a = scale * lower + shift
        b = scale * upper + shift
        return np.minimum(a, b), np.maximum(a, b)
    if isinstance(layer, Dropout):
        return lower, upper
    if isinstance(layer, Flatten):
        n = lower.shape[0]
        return lower.reshape(n, -1), upper.reshape(n, -1)
    if isinstance(layer, _MONOTONE):
        return (
            layer.forward(lower, training=False),
            layer.forward(upper, training=False),
        )
    raise TypeError(f"no legacy transformer for {type(layer).__name__}")


def _legacy_propagate_batch(model, boxes, to_layer):
    lo = boxes.lower.astype(float, copy=True)
    hi = boxes.upper.astype(float, copy=True)
    for layer in model.layers[:to_layer]:
        lo, hi = _legacy_layer_bounds_batch(layer, lo, hi)
    n = lo.shape[0]
    return lo.reshape(n, -1), hi.reshape(n, -1)


def _interleaved_medians(stages: dict, rounds: int = 7) -> dict:
    """Median per-stage wall time over interleaved timing rounds.

    Every round times each stage once, back to back, before the next
    round starts; a noisy-tenancy window therefore slows every stage in
    that round together, and the per-stage medians keep the *ratios*
    stable.  Taking the minimum instead would pick each stage's
    luckiest — and differently lucky — round.

    Within a round each stage runs twice and the *second* run is
    recorded: campaigns sweep the same plan repeatedly, so steady-state
    (cache-warm) cost is the quantity of interest — without the warm-up
    call, each stage would be billed for evicting its predecessor's
    working set, a cost that only exists in this interleaving.
    """
    samples: dict = {name: [] for name in stages}
    for _ in range(rounds):
        for name, stage in stages.items():
            stage()  # restore this stage's steady-state cache footprint
            start = time.perf_counter()
            stage()
            samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(times)) for name, times in samples.items()}


@pytest.mark.benchmark(group="ir-propagate")
def test_ir_path_parity_or_better(system, region_grid):
    """Lowered-IR batch propagation >= the PR 2 layer-walk, bound-identical."""
    model, cut = system.model, system.cut_layer
    boxes = region_grid.box_batch()

    def legacy_stage():
        return _legacy_propagate_batch(model, boxes, cut)

    def ir_stage():
        hull = region_boxes(model, boxes, cut)
        return hull.lower, hull.upper

    legacy_stage(), ir_stage()  # warm caches (lowering happens here)
    timings = _interleaved_medians({"legacy": legacy_stage, "ir": ir_stage})

    legacy_lo, legacy_hi = legacy_stage()
    ir_lo, ir_hi = ir_stage()
    np.testing.assert_allclose(ir_lo, legacy_lo, atol=1e-9)
    np.testing.assert_allclose(ir_hi, legacy_hi, atol=1e-9)

    ratio = timings["ir"] / timings["legacy"]
    print(
        f"\n102-region propagation: legacy {timings['legacy'] * 1e3:.2f} ms, "
        f"lowered-IR {timings['ir'] * 1e3:.2f} ms ({1 / ratio:.2f}x)"
    )
    # parity or better (10% tolerance absorbs timer noise on CI runners)
    assert ratio <= 1.10, (
        f"lowered-IR path is {ratio:.2f}x the legacy layer-walk; "
        f"expected parity or better"
    )


@pytest.mark.benchmark(group="ir-propagate")
def test_fast32_speedup_and_containment(system, region_grid):
    """fast32 >= 10x the legacy layer-walk, bounds containing exact64.

    Also writes the measured ratios to ``BENCH_7.json`` at the repo
    root so CI can publish them as an artifact.
    """
    from repro.verification.abstraction import fast32

    model, cut = system.model, system.cut_layer
    boxes = region_grid.box_batch()
    if not fast32.kernel_available():
        pytest.skip("fast32 C kernel unavailable (no working compiler)")

    def legacy_stage():
        return _legacy_propagate_batch(model, boxes, cut)

    def exact_stage():
        return region_boxes(model, boxes, cut)

    def fast_stage():
        return region_boxes(model, boxes, cut, precision="fast32")

    # warm: lowering + fusion pass, kernel compile, plan construction
    legacy_stage(), exact_stage(), fast_stage()
    timings = _interleaved_medians(
        {"legacy": legacy_stage, "exact64": exact_stage, "fast32": fast_stage}
    )

    exact = exact_stage()
    fast = fast_stage()
    # the soundness contract: outward rounding keeps every fast32 bound
    # on the conservative side of the exact64 bound, for every region
    assert np.all(fast.lower <= exact.lower), "fast32 lower bound above exact64"
    assert np.all(fast.upper >= exact.upper), "fast32 upper bound below exact64"
    widen = float(
        max(
            np.max(exact.lower - fast.lower),
            np.max(fast.upper - exact.upper),
        )
    )

    speedup = timings["legacy"] / timings["fast32"]
    print(
        f"\n102-region propagation: legacy {timings['legacy'] * 1e3:.2f} ms, "
        f"exact64 {timings['exact64'] * 1e3:.2f} ms, "
        f"fast32 {timings['fast32'] * 1e3:.2f} ms "
        f"({speedup:.1f}x vs legacy, max widen {widen:.3g})"
    )
    payload = {
        "regions": boxes.n_regions,
        "rounds": 7,
        "legacy_ms": timings["legacy"] * 1e3,
        "exact64_ms": timings["exact64"] * 1e3,
        "fast32_ms": timings["fast32"] * 1e3,
        "speedup_fast32_vs_legacy": speedup,
        "speedup_exact64_vs_legacy": timings["legacy"] / timings["exact64"],
        "containment_max_widen": widen,
        "kernel": fast32.kernel_available(),
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_7.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    assert speedup >= 10.0, (
        f"fast32 path is only {speedup:.1f}x the legacy layer-walk; "
        f"the raw-speed backend promises >= 10x"
    )


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
