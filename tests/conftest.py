"""Shared fixtures.

Expensive artifacts (rendered datasets, the trained end-to-end system)
are session-scoped; everything else is built per test from fixed seeds.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import ExperimentConfig, build_verified_system
from repro.nn import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.scenario.dataset import SceneConfig, generate_dataset
from repro.verification.solver import lp


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_mlp() -> Sequential:
    """4 -> 8 -> 8 -> 2 ReLU MLP (pure piecewise-linear)."""
    return Sequential(
        [Dense(8), ReLU(), Dense(8), ReLU(), Dense(2)],
        input_shape=(4,),
        seed=7,
    )


@pytest.fixture
def tiny_convnet() -> Sequential:
    """Small conv net over 1x12x12 images with a BN close-to-output stack."""
    return Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(10),
            BatchNorm(),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 12, 12),
        seed=11,
    )


@pytest.fixture(scope="session")
def small_dataset():
    """60 rendered scenes, shared across tests (read-only)."""
    return generate_dataset(60, SceneConfig(), seed=99)


@pytest.fixture(scope="session")
def verified_system():
    """A small but fully trained end-to-end system (read-only)."""
    config = ExperimentConfig(
        train_scenes=500,
        val_scenes=150,
        epochs=30,
        feature_width=12,
        characterizer_epochs=150,
        properties=("bends_right", "bends_left"),
        seed=0,
    )
    return build_verified_system(config)


@pytest.fixture(params=["binding", "linprog"])
def lp_backend(request, monkeypatch):
    """Run the test on each LP path: the HiGHS binding and the ``linprog`` fallback."""
    if request.param == "linprog":
        monkeypatch.setattr(lp, "HIGHS_BINDING", False)


@pytest.fixture
def fail_lps(monkeypatch):
    """``fail_lps(after=k)``: every LP solve after the first ``k`` stops unanswered.

    The stub answers like an LP that hit an iteration limit: neither a
    solution nor a proof of infeasibility.  Calling it again restarts
    the count.
    """
    real_solve = lp.LPSession.solve

    def install(after: int = 0) -> None:
        calls = itertools.count()

        def solve(self, *args, **kwargs):
            if next(calls) < after:
                return real_solve(self, *args, **kwargs)
            return lp.LPResult(lp.LPStatus.UNKNOWN)

        monkeypatch.setattr(lp.LPSession, "solve", solve)

    return install
