"""E4 (§V claim 2): the unprovable property.

"it is still impossible to prove intriguing properties such as
'impossibility to suggest steering straight, when the road image is
bending to the right'."

Benchmarks the SAT (counterexample) search and witness decoding, plus
the input-space FGSM falsification the paper suggests for such cases.
"""

import numpy as np
import pytest

from repro.core.verdict import Verdict
from repro.properties.library import STEER_STRAIGHT
from repro.verification.counterexample import fgsm_falsify
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.solver import BranchAndBoundSolver


@pytest.mark.benchmark(group="e4-unprovable")
def test_e4_counterexample_search(benchmark, system):
    problem = encode_verification_problem(
        system.engine.suffix,
        system.engine.feature_set("data"),
        STEER_STRAIGHT,
        system.characterizers["bends_right"].as_piecewise_linear(),
    )
    result = benchmark(lambda: BranchAndBoundSolver().solve(problem.model))
    assert result.is_sat


@pytest.mark.benchmark(group="e4-unprovable")
def test_e4_verdict_with_witness_decode(benchmark, system):
    verdict = benchmark(
        lambda: system.engine.verify(STEER_STRAIGHT, property_name="bends_right")
    )
    assert verdict.verdict is Verdict.UNSAFE_IN_SET
    assert verdict.counterexample is not None


@pytest.mark.benchmark(group="e4-unprovable")
def test_e4_fgsm_falsification(benchmark, system):
    """Adversarial input-space search from bend-right seed images."""
    labels = system.val_data.property_labels("bends_right") > 0.5
    seeds = np.asarray(system.val_data.images)[labels][:10]

    result = benchmark(
        lambda: fgsm_falsify(
            system.model, STEER_STRAIGHT, seeds, epsilon=0.08, steps=15
        )
    )
    # FGSM may or may not land exactly in the band; the bench measures cost
    if result is not None:
        assert abs(result.output[0]) <= 0.3 + 1e-6
