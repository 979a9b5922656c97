"""E8 (footnote 8): monitoring is cheap and vectorizes.

"Computing the neuron difference … can be done in numpy using a single
instruction diff(n)" — the monitor must be negligible next to the
network forward pass it piggybacks on.
"""

import numpy as np
import pytest

from repro.monitor.throughput import adjacent_differences, monitor_feature_batch
from repro.perception.features import extract_features


@pytest.fixture(scope="module")
def frame_features(system, heldout_images):
    return extract_features(system.model, heldout_images, system.cut_layer)


@pytest.mark.benchmark(group="e8-monitor")
def test_e8_batch_membership_check(benchmark, system, frame_features):
    """Vectorized S~ membership for a 200-frame batch."""
    feature_set = system.engine.feature_set("data")
    mask = benchmark(lambda: monitor_feature_batch(feature_set, frame_features))
    assert mask.shape == (frame_features.shape[0],)


@pytest.mark.benchmark(group="e8-monitor")
def test_e8_adjacent_diff_statistic(benchmark, frame_features):
    """The paper's diff(n) statistic over a frame batch."""
    diffs = benchmark(lambda: adjacent_differences(frame_features))
    assert diffs.shape == (frame_features.shape[0], frame_features.shape[1] - 1)


@pytest.mark.benchmark(group="e8-monitor")
def test_e8_forward_pass_baseline(benchmark, system, heldout_images):
    """The forward pass the monitor piggybacks on (cost reference)."""
    out = benchmark(lambda: system.model.forward(heldout_images))
    assert out.shape == (heldout_images.shape[0], 2)


@pytest.mark.benchmark(group="e8-monitor")
def test_e8_monitor_overhead_negligible(benchmark, system, heldout_images, frame_features):
    """Membership checking is orders of magnitude below feature extraction."""
    import time

    feature_set = system.engine.feature_set("data")

    start = time.perf_counter()
    for _ in range(50):
        monitor_feature_batch(feature_set, frame_features)
    monitor_time = (time.perf_counter() - start) / 50

    start = time.perf_counter()
    system.model.forward(heldout_images)
    forward_time = time.perf_counter() - start

    ratio = benchmark(lambda: forward_time / max(monitor_time, 1e-12))
    assert ratio > 10.0  # the monitor is a rounding error next to inference
