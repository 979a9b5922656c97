"""``build_verified_system`` trains; the engine is built on first read."""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.api import engine as engine_module
from repro.core import ExperimentConfig, build_verified_system


def _leaves(value):
    """The arrays and scalars of a (nested) dataclass, in field order."""
    if is_dataclass(value):
        for field in fields(value):
            yield from _leaves(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.fixture(scope="module")
def counted_build():
    """A tiny system built while counting ``VerificationEngine`` inits."""
    calls = []
    real_init = engine_module.VerificationEngine.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        real_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module.VerificationEngine, "__init__", counting_init)
        config = ExperimentConfig(
            train_scenes=30,
            val_scenes=20,
            epochs=1,
            characterizer_epochs=2,
            characterizer_scenes=30,
            set_margin=0.05,
            properties=("bends_right", "bends_left"),
        )
        system = build_verified_system(config)
        built_during_build = len(calls)
        engine = system.engine
    return system, engine, built_during_build, len(calls)


def test_no_engine_is_built_until_it_is_read(counted_build):
    _, _, during_build, after_read = counted_build
    assert during_build == 0
    assert after_read == 1


def test_the_engine_is_built_once(counted_build):
    system, engine, _, _ = counted_build
    assert system.engine is engine


def test_the_engine_matches_the_eager_construction(counted_build):
    system, engine, _, _ = counted_build
    config = system.config
    eager = engine_module.VerificationEngine(
        system.model, system.cut_layer, solver=config.solver
    )
    eager.add_feature_set_from_features(
        system.train_features,
        kind=config.set_kind,
        margin=config.set_margin,
        name="data",
    )
    for characterizer in system.characterizers.values():
        eager.attach_characterizer(characterizer)

    assert engine.cut_layer == eager.cut_layer == system.cut_layer
    assert engine.solver_name == eager.solver_name
    assert engine.feature_set_names() == eager.feature_set_names() == ["data"]
    lazy_set, eager_set = engine.feature_set("data"), eager.feature_set("data")
    assert type(lazy_set) is type(eager_set)
    lazy_leaves, eager_leaves = list(_leaves(lazy_set)), list(_leaves(eager_set))
    assert len(lazy_leaves) == len(eager_leaves) > 1
    for lazy_value, eager_value in zip(lazy_leaves, eager_leaves):
        assert np.array_equal(lazy_value, eager_value)
    assert list(engine.characterizers) == list(eager.characterizers)
    for name, characterizer in engine.characterizers.items():
        assert characterizer is system.characterizers[name]
