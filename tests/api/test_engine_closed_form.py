"""Closed-form support: when the engine skips the MILP, and when not.

A query without a characterizer over a plain box, through a suffix that
is affine on it (stable relu-like neurons allowed), takes its exact
support value from the linear support; a query whose linear support
leaves it open keeps the MILP optimization.  Either way the verdicts
match an engine forced onto the solver path, and each support entry
carries its replayed counterexample, so a warm re-run decodes no
witness.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.api.engine as engine_module
from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.properties.library import steer_far_left
from repro.scenario.regions import scenario_region_grid
from repro.verification.counterexample import decode_witness
from repro.verification.sets import Box

THRESHOLDS = np.linspace(-3.0, 3.0, 9)


def _solver_only(engine: VerificationEngine) -> VerificationEngine:
    """``engine`` with the linear support switched off."""
    engine._linear_support = lambda *args: None
    return engine


def _sweep(engine, set_name="set", properties=(None,), thresholds=THRESHOLDS):
    campaign = Campaign("sweep").add_grid(
        risks=[steer_far_left(float(t)) for t in thresholds],
        properties=properties,
        sets=[set_name],
        domain=None,
    )
    report = engine.run(campaign)
    assert not report.errors, [r.error for r in report.errors]
    return report


def _answers(report):
    return [(r.verdict.verdict, r.decided_by) for r in report.results]


def _data_box(engine, images, kind="box", name="set"):
    engine.add_feature_set_from_data(images, kind=kind, name=name)


def _assert_replays(engine, report):
    """Every SAT counterexample lies in its set and replays to its output."""
    sat = [r for r in report.results if r.verdict.counterexample is not None]
    assert sat
    for result in sat:
        cex = result.verdict.counterexample
        feature_set = engine.feature_set(result.query.set_name)
        assert feature_set.contains_point(cex.features)
        replayed = engine.model.suffix_apply(cex.features[None, :], engine.cut_layer)
        np.testing.assert_allclose(replayed[0], cex.predicted_output, rtol=1e-12)
        assert cex.risk_occurs


class TestClosedFormTaken:
    def test_affine_suffix_on_box(self, api_system):
        model, images, cut, _ = api_system
        assert [type(op).__name__ for op in model.suffix_network(cut).ops] == [
            "AffineOp"
        ]
        engine = VerificationEngine(model, cut, solver="highs")
        _data_box(engine, images)
        report = _sweep(engine)
        assert "miss:encoding:milp" not in engine.cache_stats
        # a relu-free suffix computes no abstraction bounds either
        assert "miss:abstraction-bounds" not in engine.cache_stats
        assert engine.cache_stats["miss:support"] == 1
        assert {r.decided_by for r in report.results} == {"support-cache"}
        _assert_replays(engine, report)

        solver = _solver_only(VerificationEngine(model, cut, solver="highs"))
        _data_box(solver, images)
        reference = _sweep(solver)
        assert solver.cache_stats["miss:encoding:milp"] == 1
        assert _answers(report) == _answers(reference)
        closed = report.results[0].verdict.solve_result.stats["support"]
        milp = reference.results[0].verdict.solve_result.stats["support"]
        assert closed == pytest.approx(milp, rel=1e-7, abs=1e-7)

    def test_stable_relu_suffix_on_box(self, api_system):
        """A box small enough that every suffix neuron keeps its phase."""
        model, images, _, _ = api_system
        cut = 2  # suffix: Dense(6) -> ReLU -> Dense(2)
        engine = VerificationEngine(model, cut, solver="highs")
        point = model.prefix_apply(images[:1], cut)[0]
        engine.add_raw_set(Box(point - 1e-3, point + 1e-3), sound=True, name="set")
        bounds = engine._op_bounds("set", "suffix", engine.suffix, [])
        pre = bounds[1][0]
        assert np.all((pre.lower >= 0) | (pre.upper <= 0)), "pick a smaller box"
        output = model.suffix_apply(point[None, :], cut)[0]
        thresholds = output[0] + np.array([-0.1, -1e-4, 1e-4, 0.1])
        report = _sweep(engine, thresholds=thresholds)
        assert "miss:encoding:milp" not in engine.cache_stats
        _assert_replays(engine, report)

        solver = _solver_only(VerificationEngine(model, cut, solver="highs"))
        solver.add_raw_set(Box(point - 1e-3, point + 1e-3), sound=True, name="set")
        assert _answers(report) == _answers(_sweep(solver, thresholds=thresholds))


    def test_one_off_and_budgeted_queries_take_it_at_once(self, api_system):
        """Only the MILP optimization waits for a repeated direction."""
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        _data_box(engine, images)
        for limits in ({}, {"node_limit": 10}):
            query = VerificationQuery(
                risk=steer_far_left(0.0), set_name="set", domain=None, **limits
            )
            result = engine.run_query(query)
            assert result.decided_by == "support-cache"
        assert engine.cache_stats["miss:support"] == 1
        assert "miss:encoding:relaxed" not in engine.cache_stats


    def test_unknown_query_solver_is_still_an_error(self, api_system):
        """The closed form needs no backend, but a query naming an
        unknown one is rejected, not answered."""
        model, images, cut, _ = api_system
        engine = VerificationEngine(model, cut, solver="highs")
        _data_box(engine, images)
        campaign = Campaign("bad").add_grid(
            risks=[steer_far_left(0.0)], sets=["set"], domain=None,
            solver="no-such-solver",
        )
        (result,) = engine.run(campaign).results
        assert result.decided_by == "error"
        assert "unknown solver" in result.error


class TestSolverPathKept:
    """Each case still builds a MILP encoding and answers like the
    solver-only engine."""

    @staticmethod
    def _check(build, **sweep):
        engine = build()
        report = _sweep(engine, **sweep)
        assert engine.cache_stats.get("miss:encoding:milp", 0) >= 1
        reference = _sweep(_solver_only(build()), **sweep)
        assert _answers(report) == _answers(reference)
        return report

    def test_characterizer_conjunct(self, api_system):
        model, images, cut, characterizer = api_system

        def build():
            engine = VerificationEngine(model, cut, solver="highs")
            _data_box(engine, images)
            engine.attach_characterizer(characterizer)
            return engine

        report = self._check(build, properties=("high_f0",))
        assert "support-cache" in {r.decided_by for r in report.results}

    def test_box_with_diffs_set(self, api_system, open_data_set):
        model, images, cut, _ = api_system

        def build():
            engine = VerificationEngine(model, cut, solver="highs")
            engine.add_raw_set(open_data_set, sound=False, name="set")
            return engine

        self._check(build)

    def test_unstable_relu(self, api_system):
        model, images, _, _ = api_system

        def build():
            engine = VerificationEngine(model, 2, solver="highs")
            _data_box(engine, images)
            return engine

        engine = build()
        bounds = engine._op_bounds("set", "suffix", engine.suffix, [])
        pre = bounds[1][0]
        assert np.any((pre.lower < 0) & (pre.upper > 0))
        # a threshold inside the linear support's bracket on -y0: its
        # bound proves nothing and its replayed vertex is no witness
        query = SimpleNamespace(set_name="set", property_name=None)
        bracket = engine._linear_support(query, (-1.0, -0.0), [])
        assert not bracket.exact
        inside = -0.5 * (bracket.value + bracket.replayed)
        self._check(build, thresholds=np.append(THRESHOLDS, inside))

    def test_unsupported_op(self):
        model = Sequential(
            [
                Conv2D(2, 3, stride=2, padding=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(2),
            ],
            input_shape=(1, 8, 8),
            seed=3,
        )
        images = np.random.default_rng(0).uniform(0, 1, size=(20, 1, 8, 8))
        assert "MaxGroupOp" in {type(op).__name__ for op in model.suffix_network(2).ops}

        def build():
            engine = VerificationEngine(model, 2, solver="highs")
            _data_box(engine, images)
            return engine

        self._check(build, thresholds=np.linspace(-1.0, 1.0, 5))

    def test_replay_disagreement(self, api_system, monkeypatch):
        model, images, cut, _ = api_system
        real = engine_module.linear_support

        def off_by_one(*args):
            value, vertex = real(*args)
            return value + 1.0, vertex

        monkeypatch.setattr(engine_module, "linear_support", off_by_one)

        def build():
            engine = VerificationEngine(model, cut, solver="highs")
            _data_box(engine, images)
            return engine

        self._check(build)


def test_unbounded_box_has_no_closed_form(api_system):
    """An infinite bound makes the replay NaN or infinite: no value."""
    model, _, cut, _ = api_system
    engine = VerificationEngine(model, cut, solver="highs")
    dim = model.feature_dim(cut)
    upper = np.ones(dim)
    upper[0] = np.inf
    engine.add_raw_set(Box(np.zeros(dim), upper), sound=True, name="set")
    # pulls back to a negative weight on feature 0: the vertex takes inf
    direction = tuple(-engine.suffix.ops[0].weight[:, 0])
    query = SimpleNamespace(set_name="set", property_name=None)
    with np.errstate(invalid="ignore"):
        assert engine._linear_support(query, direction, []) is None


def test_scenario_grid_campaign_skips_the_milp():
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(12),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 32, 32),
        seed=13,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)), training=True
    )
    grid = scenario_region_grid(
        n_scenes=3, weather_levels=(0.0, 1.0), traffic_levels=(0, 1), seed=2
    )

    def run(engine):
        engine.add_region_sets(grid)
        enclosures = engine.output_enclosures(grid.names)
        hi = max(float(e.upper[0]) for e in enclosures)
        lo = min(float(e.lower[0]) for e in enclosures)
        risks = [
            steer_far_left(round(hi + 0.25, 3)),
            steer_far_left(round(0.5 * (lo + hi), 3)),
        ]
        campaign = Campaign.from_scenario_grid(grid, risks=risks, domain="interval")
        return engine.run(campaign)

    engine = VerificationEngine(model, 6, solver="highs")
    report = run(engine)
    assert "miss:encoding:milp" not in report.cache_stats
    assert "support-cache" in report.decided_by_counts()
    _assert_replays(engine, report)
    reference = run(_solver_only(VerificationEngine(model, 6, solver="highs")))
    assert reference.cache_stats["miss:encoding:milp"] >= 1
    assert _answers(report) == _answers(reference)


def test_warm_rerun_decodes_no_witness(api_system, open_data_set, monkeypatch):
    """The MILP path replays its witness once, when the entry is built."""
    model, images, cut, _ = api_system
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return decode_witness(*args, **kwargs)

    monkeypatch.setattr(engine_module, "decode_witness", counting)
    engine = VerificationEngine(model, cut, solver="highs")
    engine.add_raw_set(open_data_set, sound=False, name="set")
    cold = _sweep(engine)
    assert len(calls) == 1
    warm = _sweep(engine)
    assert len(calls) == 1  # the warm run decodes nothing
    assert _answers(warm) == _answers(cold)

    # each query's counterexample is what decoding its witness gives
    base = engine._base_encoding("set", None, "milp", [])
    for result in warm.results:
        cex = result.verdict.counterexample
        if cex is None:
            continue
        fresh = decode_witness(
            base, result.verdict.solve_result.witness, model, cut, result.query.risk
        )
        np.testing.assert_array_equal(cex.features, fresh.features)
        assert cex.risk_margin == fresh.risk_margin
