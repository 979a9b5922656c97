"""Differential soundness of structural neuron merging (hypothesis).

On random affine/ReLU chains and random input boxes:

- the merged two-rail program is a pointwise sandwich: its lower-rail
  block never exceeds the original outputs and its upper-rail block
  never undercuts them, anywhere in the box;
- the merged output hull computed by *every* registered abstract
  domain contains the original program's sampled outputs (the merged
  program over-approximates, the domain over-approximates the merged
  program — containment must survive the composition);
- the interval hull of the merged program contains the interval hull
  of the original program;
- refinement on the *last* hidden layer monotonically tightens the
  merged interval hull (for interior layers max-aggregation is not
  monotone under splits — the coarse successor coefficient
  ``max_i c[i, G]`` is subadditive in ``G`` — so the guarantee, and
  this test, is scoped to splits whose successor is the unmerged
  output layer);
- a fully refined state compiles back to the *original program
  object*, and its content digest matches bit-exactly;
- the risk rewrite is an implication: an input whose original output
  triggers the risk also triggers the rewritten risk on the merged
  program;
- the merged attack's witness is no farther from the rewritten risk
  than the box centre it starts from;
- every merged program passes the IR validator (including the IR013
  merged-metadata contract).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.properties.risk import RiskCondition, output_geq
from repro.service.digest import program_digest
from repro.verification.abstraction import registered_domains
from repro.verification.abstraction.domain import get_domain
from repro.verification.abstraction.merge import (
    MergeState,
    classify_neurons,
    extract_chain,
    merged_attack,
    plan_refinement,
    refinement_candidates,
)
from repro.verification.ir import AffineOp, LoweredProgram, ReLUOp
from repro.verification.prescreen import output_enclosure
from repro.verification.sets import Box

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TOL = 1e-7


def _random_chain_program(
    seed: int, in_dim: int = 3, widths: tuple[int, ...] = (6, 5), out_dim: int = 2
) -> LoweredProgram:
    rng = np.random.default_rng(seed)
    dims = (in_dim, *widths, out_dim)
    ops: list = []
    for i in range(len(dims) - 1):
        weight = rng.normal(scale=0.8, size=(dims[i + 1], dims[i]))
        bias = rng.normal(scale=0.3, size=dims[i + 1])
        ops.append(AffineOp(weight, bias))
        if i < len(dims) - 2:
            ops.append(ReLUOp(dims[i + 1]))
    return LoweredProgram(ops, in_dim, source=f"test-chain-{seed}")


def _random_box(seed: int, in_dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed + 77)
    lower = rng.uniform(-1.0, 0.5, size=in_dim)
    upper = lower + rng.uniform(0.1, 1.5, size=in_dim)
    return lower, upper


def _samples(seed: int, lower: np.ndarray, upper: np.ndarray, n: int = 96) -> np.ndarray:
    rng = np.random.default_rng(seed + 991)
    points = rng.uniform(lower, upper, size=(n, lower.size))
    # corners stress the hull harder than interior points
    points[0] = lower
    points[1] = upper
    return points


def _rails(merged_out: np.ndarray, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a merged batch output into (upper rail, lower rail)."""
    return merged_out[:, :out_dim], merged_out[:, out_dim:]


def _merged_hull(state: MergeState, box: Box, domain: str) -> Box:
    """The original-output hull implied by a domain run on the merged net."""
    out_dim = extract_chain(state._source_program).out_dim
    enclosure = output_enclosure(state.program(), box, domain)
    hull = get_domain(domain).enclosure_box(enclosure)
    return Box(hull.lower[out_dim:], hull.upper[:out_dim])


class TestSandwich:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_rails_bracket_the_original_pointwise(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        points = _samples(seed, lower, upper)

        exact = program.apply(points)
        upper_rail, lower_rail = _rails(state.program().apply(points), exact.shape[1])
        assert np.all(lower_rail <= exact + _TOL)
        assert np.all(exact <= upper_rail + _TOL)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_sandwich_survives_partial_refinement(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        risk = RiskCondition("probe", (output_geq(2, 0, 0.0),))
        points = _samples(seed, lower, upper, n=48)
        exact = program.apply(points)

        for _ in range(4):
            if state.is_refined:
                break
            witness = merged_attack(state, risk, lower, upper)
            step = plan_refinement(state, witness)
            assert step is not None
            state = step.apply(state)
            upper_rail, lower_rail = _rails(
                state.program().apply(points), exact.shape[1]
            )
            assert np.all(lower_rail <= exact + _TOL)
            assert np.all(exact <= upper_rail + _TOL)


class TestHullContainment:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_every_domain_hull_contains_sampled_outputs(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        box = Box(lower, upper)
        exact = program.apply(_samples(seed, lower, upper))

        for domain in registered_domains():
            hull = _merged_hull(state, box, domain)
            assert np.all(exact >= hull.lower[None, :] - _TOL), domain
            assert np.all(exact <= hull.upper[None, :] + _TOL), domain

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_merged_interval_hull_contains_original_interval_hull(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        box = Box(lower, upper)

        original = get_domain("interval").enclosure_box(
            output_enclosure(program, box, "interval")
        )
        merged = _merged_hull(state, box, "interval")
        assert np.all(merged.lower <= original.lower + _TOL)
        assert np.all(merged.upper >= original.upper - _TOL)


class TestRefinement:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_last_layer_splits_tighten_monotonically(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        box = Box(lower, upper)
        last = len(state.partitions) - 1

        hull = _merged_hull(state, box, "interval")
        for _ in range(8):
            split = None
            for rail in ("inc", "dec"):
                for group in state.groups(last, rail):
                    if len(group) >= 2:
                        split = (rail, group)
                        break
                if split:
                    break
            if split is None:
                break
            rail, group = split
            state = state.split_group(
                last, rail, group, ((group[0],), tuple(group[1:]))
            )
            tighter = _merged_hull(state, box, "interval")
            assert np.all(tighter.lower >= hull.lower - _TOL)
            assert np.all(tighter.upper <= hull.upper + _TOL)
            hull = tighter

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_full_refinement_recovers_the_original_bit_exactly(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)

        while not state.is_refined:
            found = None
            for layer in range(len(state.partitions)):
                for rail in ("inc", "dec"):
                    for group in state.groups(layer, rail):
                        if len(group) >= 2:
                            found = (layer, rail, group)
                            break
                    if found:
                        break
                if found:
                    break
            assert found is not None
            layer, rail, group = found
            state = state.split_group(
                layer, rail, group, ((group[0],), tuple(group[1:]))
            )

        assert state.program() is program
        assert program_digest(state.program()) == program_digest(program)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_candidate_ordering_is_deterministic(self, seed):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        risk = RiskCondition("probe", (output_geq(2, 0, 0.0),))

        first = merged_attack(state, risk, lower, upper)
        second = merged_attack(state, risk, lower, upper)
        np.testing.assert_array_equal(first, second)

        once = refinement_candidates(state, first)
        twice = refinement_candidates(state, second)
        assert [c.layer for c in once] == [c.layer for c in twice]
        assert [c.group for c in once] == [c.group for c in twice]
        for candidate in once:
            assert candidate.group in state.groups(candidate.layer, candidate.rail)


class TestMergedAttack:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000), threshold=st.floats(-2.0, 10.0))
    def test_witness_margin_is_at_least_the_centres(self, seed, threshold):
        # the witness ascends the merged risk's margin from the box
        # centre, so it never ends up farther from the risk than it began
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        risk = RiskCondition("y0-high", (output_geq(2, 0, threshold),))
        merged_risk = state.merged_risk(risk)

        witness = merged_attack(state, risk, lower, upper)
        centre = 0.5 * (lower + upper)
        points = np.stack([witness, centre])
        margins = merged_risk.margin(state.program().apply(points))
        assert np.all(witness >= lower) and np.all(witness <= upper)
        assert margins[0] >= margins[1]


class TestRiskRewrite:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000), threshold=st.floats(-2.0, 2.0))
    def test_original_violation_implies_merged_violation(self, seed, threshold):
        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        risk = RiskCondition("y0-high", (output_geq(2, 0, threshold),))
        merged_risk = state.merged_risk(risk)

        points = _samples(seed, lower, upper)
        original_margin = risk.margin(program.apply(points))
        merged_margin = merged_risk.margin(state.program().apply(points))
        # the rewrite under-approximates each atom's left-hand side, so
        # per-point margins can only grow: risk-at-x carries over
        assert np.all(merged_margin >= original_margin - _TOL)

    def test_refined_state_returns_the_risk_unchanged(self):
        program = _random_chain_program(3)
        lower, upper = _random_box(3)
        state = MergeState.identity(program, lower, upper)
        risk = RiskCondition("y0-high", (output_geq(2, 0, 0.5),))
        assert state.merged_risk(risk) is risk


class TestValidator:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_every_merged_program_validates_clean(self, seed):
        from repro.analysis.ir_analysis import validate_program

        program = _random_chain_program(seed)
        lower, upper = _random_box(seed)
        state = MergeState.coarsest(program, lower, upper)
        validate_program(state.program())  # raises on any diagnostic

        chain = extract_chain(program)
        classes = classify_neurons(chain)
        assert len(classes) == chain.num_hidden
        groups_meta = state.program().merge_groups
        assert groups_meta, "merged program must carry IR013 metadata"
