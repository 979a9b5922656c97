"""Solver ablation: the three exact engines the paper names.

Section V: "exact verification methods such as ReLUplex [8], Planet [5]
or MILP-based approaches [3], [9]".  This bench runs the same E3 (UNSAT
proof) and E4 (SAT search) instances through

- our big-M branch-and-bound (MILP, refs [3]/[9] lineage),
- HiGHS branch-and-cut (production MILP),
- our Planet-style phase-splitting search (refs [5]/[8] lineage),

checking agreement and comparing cost profiles.  Backends are resolved
through the :func:`repro.verification.solver.make_solver` registry, the
same dispatch path the :mod:`repro.api` engine uses.
"""

import pytest

from repro.properties.library import STEER_STRAIGHT, steer_far_left
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.milp.relaxed import encode_relaxed_problem
from repro.verification.solver import make_solver


@pytest.fixture(scope="module")
def instances(system, provable_threshold):
    """(risk, expected_sat) pairs: E3's UNSAT proof and E4's SAT search."""
    characterizer = system.characterizers["bends_right"].as_piecewise_linear()
    feature_set = system.engine.feature_set("data")
    suffix = system.engine.suffix
    out = {}
    for name, risk, expect_sat in (
        ("e3-unsat", steer_far_left(provable_threshold), False),
        ("e4-sat", STEER_STRAIGHT, True),
    ):
        out[name] = (
            encode_verification_problem(suffix, feature_set, risk, characterizer),
            encode_relaxed_problem(suffix, feature_set, risk, characterizer),
            expect_sat,
        )
    return out


@pytest.mark.parametrize("instance", ["e3-unsat", "e4-sat"])
@pytest.mark.benchmark(group="solvers-bb")
def test_solver_branch_and_bound(benchmark, instances, instance):
    milp, _, expect_sat = instances[instance]
    result = benchmark(lambda: make_solver("branch-and-bound").solve(milp.model))
    assert result.is_sat == expect_sat


@pytest.mark.parametrize("instance", ["e3-unsat", "e4-sat"])
@pytest.mark.benchmark(group="solvers-highs")
def test_solver_highs(benchmark, instances, instance):
    milp, _, expect_sat = instances[instance]
    result = benchmark(lambda: make_solver("highs").solve(milp.model))
    assert result.is_sat == expect_sat


@pytest.mark.parametrize("instance", ["e3-unsat", "e4-sat"])
@pytest.mark.benchmark(group="solvers-phase-split")
def test_solver_phase_split(benchmark, instances, instance):
    _, relaxed, expect_sat = instances[instance]
    result = benchmark(lambda: make_solver("phase-split").solve(relaxed))
    assert result.is_sat == expect_sat
