"""Fixtures for the declarative API tests: a small trained MLP system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perception.characterizer import train_characterizer
from repro.perception.network import build_mlp_perception_network, default_cut_layer
from repro.verification.output_range import linear_support
from repro.verification.sets import Box, BoxWithDiffs


@pytest.fixture(scope="module")
def api_system():
    """(model, images, cut, characterizer) over synthetic 6-d 'images'."""
    rng = np.random.default_rng(12345)
    model = build_mlp_perception_network(
        input_dim=6, hidden=(12,), feature_width=6, seed=4
    )
    images = rng.uniform(0, 1, size=(200, 6))
    cut = default_cut_layer(model)
    features = model.prefix_apply(images, cut)
    labels = (features[:, 0] > np.median(features[:, 0])).astype(float)
    characterizer, _ = train_characterizer(
        "high_f0", cut, features, labels, features, labels, epochs=100, seed=0
    )
    return model, images, cut, characterizer


@pytest.fixture(scope="module")
def open_data_set(api_system):
    """A box+diff set over the data's feature hull that the linear
    support leaves open.

    Its difference record is one data point's adjacent differences
    ±0.01, a thin tube through that point, so the hull vertex minimizing
    either ``±y0`` lies outside the set: the support bound is the hull's,
    with no witness, and queries between it and the set's range reach
    the LP and the solver.
    """
    model, images, cut, _ = api_system
    features = model.prefix_apply(images, cut)
    diffs = np.diff(features[0])
    tube = BoxWithDiffs(
        Box(features.min(axis=0), features.max(axis=0)), diffs - 0.01, diffs + 0.01
    )
    suffix = model.suffix_network(cut)
    for sign in (1.0, -1.0):
        _, vertex = linear_support(suffix, tube.box, sign * np.eye(2)[0])
        assert not tube.contains_point(vertex, tol=0.0)
    return tube
