"""A batch answers exactly as its queries would one at a time, in order.

The support stage decides a whole batch at once, but an optimization by
one query replaces a support entry that later queries over the same
(set, characterizer, row direction) read, and a one-off query's first
sighting of a direction gates the next one's optimization.  These tests
pin that a batch gives every query the answer it gets as a batch of one
when a second engine runs the same queries one at a time, in order: the
verdict, the deciding stage, the ladder, the solver stats, the
counterexample and its exact risk margin, and the support cache's hit
and miss counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.engine as engine_mod
from repro.api import VerificationEngine, VerificationQuery
from repro.properties.library import steer_far_left, steer_far_right, steer_straight
from repro.properties.risk import LinearInequality, RiskCondition
from repro.verification.output_range import linear_support
from repro.verification.sets import Box

SETS = ("box-0", "box-1", "box-2", "box-3", "tube")


@pytest.fixture(scope="module")
def world(api_system, open_data_set):
    """Four small boxes around data points plus the open tube, and
    thresholds spread over the reachable waypoint range."""
    model, images, cut, characterizer = api_system
    features = model.prefix_apply(images[:4], cut)
    sets = [Box(f - 0.05, f + 0.05) for f in features] + [open_data_set]
    outputs = model.suffix_apply(model.prefix_apply(images, cut), cut)[:, 0]
    # the tube's hull reaches past the data, to its linear support
    # bounds; thresholds between the two are open brackets (a threshold
    # on a bound itself would rest on its last bit)
    suffix = model.suffix_network(cut)
    low = linear_support(suffix, open_data_set.box, np.eye(2)[0])[0]
    high = -linear_support(suffix, open_data_set.box, -np.eye(2)[0])[0]
    inner = (low + outputs.min()) / 2, (high + outputs.max()) / 2
    thresholds = np.quantile(outputs, [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    thresholds = [low - 1.0, inner[0], *thresholds.tolist(), inner[1], high + 1.0]
    bands = [0.05, 0.5, float(max(abs(low), abs(high))) + 1.0]
    return model, cut, characterizer, sets, thresholds, bands


def _engine(world) -> VerificationEngine:
    model, cut, characterizer, sets, _, _ = world
    engine = VerificationEngine(model, cut)
    engine.attach_characterizer(characterizer)
    for name, feature_set in zip(SETS, sets):
        engine.add_raw_set(feature_set, sound=True, name=name)
    return engine


@st.composite
def batches(draw, world):
    _, _, _, _, thresholds, bands = world
    risks = (
        [steer_far_left(t) for t in thresholds]
        + [steer_far_right(t) for t in thresholds]
        + [steer_straight(band) for band in bands]
        # a row whose product with an output rounds
        + [
            RiskCondition("mixed", (LinearInequality((0.6, -0.8), ">=", t),))
            for t in thresholds
        ]
    )
    query = st.builds(
        VerificationQuery,
        risk=st.sampled_from(risks),
        set_name=st.sampled_from(SETS),
        property_name=st.sampled_from((None, "high_f0")),
        domain=st.sampled_from((None, "interval")),
        node_limit=st.sampled_from((None, None, None, 2)),
    )
    queries = draw(st.lists(query, min_size=20, max_size=60))
    # consecutive batches, so later ones read entries the earlier built
    cuts = sorted(draw(st.lists(st.integers(0, len(queries)), max_size=2)))
    ends = [0, *cuts, len(queries)]
    return [queries[start:end] for start, end in zip(ends, ends[1:])]


def _answer(result) -> tuple:
    """Everything a query's answer says, less its timing and cache hits
    (a batch seeds the enclosures of all its sets at once)."""
    if not result.ok:
        return ("error", result.error)
    verdict = result.verdict
    counterexample = verdict.counterexample
    witness = None
    if counterexample is not None:
        witness = (
            tuple(np.asarray(counterexample.features).tolist()),
            tuple(np.asarray(counterexample.predicted_output).tolist()),
            counterexample.risk_margin,
            counterexample.characterizer_logit,
        )
    stats = verdict.solve_result.stats
    return (verdict.verdict, result.decided_by, result.ladder, stats, witness)


def _support_counts(engine) -> tuple:
    stats = engine.cache_stats
    return stats.get("hit:support", 0), stats.get("miss:support", 0)


class TestBatchEqualsOneAtATime:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_campaign(self, world, data):
        runs = data.draw(batches(world))
        batched, alone = _engine(world), _engine(world)
        together = [r for queries in runs for r in batched.run(queries).results]
        queries = [query for queries in runs for query in queries]
        one_by_one = [alone.run([query]).results[0] for query in queries]
        assert [_answer(r) for r in together] == [_answer(r) for r in one_by_one]
        assert _support_counts(batched) == _support_counts(alone)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_one_off_batch(self, world, data):
        """The stream's one-off mode, where a direction's first sighting
        gates its optimization."""
        runs = data.draw(batches(world))
        batched, alone = _engine(world), _engine(world)
        together = [r for queries in runs for r in batched._run_queries(queries)]
        queries = [query for queries in runs for query in queries]
        one_by_one = [alone.run_query_safe(query) for query in queries]
        assert [_answer(r) for r in together] == [_answer(r) for r in one_by_one]
        assert _support_counts(batched) == _support_counts(alone)


class TestErrorsStayLocal:
    def test_failing_support_errors_only_its_set(self, world, monkeypatch):
        """A linear support that raises for one set's hull sinks every
        query over that set and changes no other answer."""
        _, _, _, sets, thresholds, bands = world
        risks = [steer_far_left(t) for t in thresholds[::2]]
        risks.append(steer_straight(bands[1]))
        queries = [
            VerificationQuery(
                risk=risk, set_name=name, property_name=prop, domain=None
            )
            for risk in risks
            for name in SETS
            for prop in (None, "high_f0")
        ]
        expected = _engine(world).run(queries).results
        poisoned = sets[2]
        support = engine_mod.linear_support

        def failing_support(network, hull, direction, bounds=None):
            if hull is poisoned:
                raise RuntimeError("poisoned hull")
            return support(network, hull, direction, bounds)

        monkeypatch.setattr(engine_mod, "linear_support", failing_support)
        results = _engine(world).run(queries).results
        for query, result, clean in zip(queries, results, expected):
            if query.set_name == SETS[2]:
                assert not result.ok and "poisoned hull" in result.error
            else:
                assert _answer(result) == _answer(clean)

    def test_failing_one_query_batch_runs_its_step_once(self, world, monkeypatch):
        calls = []

        def failing_screen(enclosures, risk, rung):
            calls.append(rung)
            raise RuntimeError("screen failed")

        monkeypatch.setattr(engine_mod, "screen_enclosure", failing_screen)
        engine = _engine(world)
        query = VerificationQuery(risk=steer_far_left(0.0), set_name=SETS[0])
        result = engine.run_query_safe(query)
        assert "screen failed" in result.error
        assert calls == ["interval"]
        with pytest.raises(RuntimeError, match="screen failed"):
            engine.run_query(query)
        assert calls == ["interval", "interval"]
