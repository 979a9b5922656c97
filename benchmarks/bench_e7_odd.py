"""E7 (footnote 1): verification from the raw input domain is hopeless.

"Starting verification using an input domain of [0,1]^d_l0 … the result
of formal verification always creates counter-examples … so distant from
what can be observed in practice."

Benchmarks whole-network interval propagation from the pixel box and
compares the resulting feature set S against the data-derived S~.
"""

import numpy as np
import pytest

from repro.core.verdict import Verdict
from repro.properties.library import steer_far_left
from repro.verification.abstraction.propagate import region_boxes
from repro.verification.sets import BoxBatch


def _unit_regions(system) -> BoxBatch:
    """The ``[0, 1]`` input domain as a batch of one region."""
    shape = system.model.input_shape
    return BoxBatch(np.zeros((1,) + shape), np.ones((1,) + shape))


@pytest.mark.benchmark(group="e7-odd")
def test_e7_static_propagation_cost(benchmark, system):
    """Interval propagation [0,1]^pixels -> cut layer, through the convs."""
    box = benchmark(
        lambda: region_boxes(
            system.model, _unit_regions(system), system.cut_layer
        ).box(0)
    )
    assert box.dim == system.model.feature_dim(system.cut_layer)


@pytest.mark.benchmark(group="e7-odd")
def test_e7_static_set_explodes(benchmark, system):
    """The static S is orders of magnitude wider than the data S~."""
    static = region_boxes(system.model, _unit_regions(system), system.cut_layer).box(0)
    data_lower, data_upper = system.engine.feature_set("data").bounds()

    def width_ratio():
        swidth = static.upper - static.lower
        dwidth = np.maximum(data_upper - data_lower, 1e-9)
        return float(np.median(swidth / dwidth))

    ratio = benchmark(width_ratio)
    assert ratio > 3.0


@pytest.mark.benchmark(group="e7-odd")
def test_e7_odd_violating_counterexample(benchmark, system, provable_threshold):
    """Under static S the same property flips to UNSAFE, and the witness
    is out-of-ODD (it violates the data envelope the monitor enforces)."""
    system.engine.add_static_feature_set(0.0, 1.0, name="static-e7")
    risk = steer_far_left(provable_threshold)

    verdict = benchmark(
        lambda: system.engine.verify(
            risk, property_name="bends_right", set_name="static-e7"
        )
    )
    assert verdict.verdict is Verdict.UNSAFE_IN_SET
    witness = verdict.counterexample.features
    data_set = system.engine.feature_set("data")
    assert not data_set.contains(witness[None], tol=1e-6)[0]
