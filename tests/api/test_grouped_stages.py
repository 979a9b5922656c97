"""Grouped stages: one screen per (rung, risk), errors kept per query."""

from __future__ import annotations

import numpy as np
import pytest

import repro.api.engine as engine_mod
from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.properties.library import steer_far_left
from repro.verification.abstraction.domain import precision_ladder
from repro.verification.sets import Box


@pytest.fixture(scope="module")
def boxes(api_system):
    """Six small boxes around data points' features, one per region."""
    model, images, cut, _ = api_system
    features = model.prefix_apply(images[:6], cut)
    return [Box(f - 0.05, f + 0.05) for f in features]


@pytest.fixture(scope="module")
def frontier(api_system, boxes):
    """Two thresholds ``t`` that every box's centre meets (``y0 >= t``),
    so no prescreen excludes ``steer_far_left(t)``."""
    model, _, cut, _ = api_system
    outputs = model.suffix_apply(np.stack([b.center() for b in boxes]), cut)[:, 0]
    low = float(outputs.min())
    return low - 1.0, low - 0.5


def _engine(api_system, boxes) -> VerificationEngine:
    model, _, cut, characterizer = api_system
    engine = VerificationEngine(model, cut, solver="highs")
    engine.attach_characterizer(characterizer)
    for i, box in enumerate(boxes):
        engine.add_raw_set(box, sound=True, name=f"region-{i}")
    return engine


def _summary(result) -> tuple:
    """What a query's answer says, less its cache hits (a batch seeds
    the enclosures of all its sets at once; a lone query misses)."""
    if not result.ok:
        return ("error", result.error)
    return (
        result.verdict.verdict,
        result.decided_by,
        result.ladder,
        result.verdict.solve_result.stats,
    )


def _alone(api_system, boxes, query):
    """``query`` as a campaign of one on a fresh engine."""
    return _engine(api_system, boxes).run([query]).results[0]


@pytest.fixture
def screen_calls(monkeypatch):
    """``(rung, number of enclosures)`` of every engine screen call."""
    calls = []
    screen = engine_mod.screen_enclosure

    def counting_screen(enclosures, risk, rung):
        calls.append((rung, len(enclosures)))
        return screen(enclosures, risk, rung)

    monkeypatch.setattr(engine_mod, "screen_enclosure", counting_screen)
    return calls


class TestOneScreenPerRungAndRisk:
    @pytest.mark.parametrize("domain", ["interval", "symbolic"])
    def test_campaign_screens_each_risk_once_per_rung(
        self, api_system, boxes, frontier, screen_calls, domain
    ):
        """N regions x 2 risks: 2 screen calls per rung, not 2N."""
        risks = [steer_far_left(t) for t in frontier]  # neither is excluded
        names = [f"region-{i}" for i in range(len(boxes))]
        campaign = Campaign("grid").add_grid(risks=risks, sets=names, domain=domain)
        report = _engine(api_system, boxes).run(campaign)
        assert not report.errors
        assert all(r.decided_by != "prescreen" for r in report.results)
        ladder = precision_ladder(domain)
        assert screen_calls == [(rung, len(boxes)) for rung in ladder for _ in risks]

    def test_grouped_verdicts_equal_one_query_at_a_time(
        self, api_system, boxes, frontier
    ):
        model, _, cut, _ = api_system
        outputs = model.suffix_apply(np.stack([b.center() for b in boxes]), cut)[:, 0]
        thresholds = (
            frontier[0], float(np.median(outputs)), float(outputs.max()) + 100.0
        )
        risks = [steer_far_left(t) for t in thresholds]
        names = [f"region-{i}" for i in range(len(boxes))]
        campaign = Campaign("grid").add_grid(
            risks=risks, sets=names, properties=(None, "high_f0")
        )
        grouped = _engine(api_system, boxes).run(campaign).results
        alone = [_alone(api_system, boxes, query) for query in campaign]
        assert [_summary(r) for r in grouped] == [_summary(r) for r in alone]
        assert {r.decided_by for r in grouped} >= {"prescreen", "support-cache"}


class TestErrorsStayWithTheirQuery:
    def test_missing_characterizer_errors_only_its_query(
        self, api_system, boxes, frontier
    ):
        risk = steer_far_left(frontier[0])
        queries = [
            VerificationQuery(risk=risk, set_name="region-0"),
            VerificationQuery(risk=risk, set_name="region-1", property_name="nope"),
            VerificationQuery(risk=risk, set_name="region-2"),
        ]
        results = _engine(api_system, boxes).run(queries).results
        assert [r.ok for r in results] == [True, False, True]
        assert "nope" in results[1].error
        for query, result in zip(queries[::2], results[::2]):
            assert _summary(result) == _summary(_alone(api_system, boxes, query))

    def test_failed_group_screen_reruns_item_by_item(
        self, api_system, boxes, frontier, monkeypatch
    ):
        """A screen that raises for one set's enclosure sinks only that
        set's query; the rest of its group is screened one by one."""
        risk = steer_far_left(frontier[1] + 1000.0)  # the prescreen decides
        engine = _engine(api_system, boxes)
        names = [f"region-{i}" for i in range(len(boxes))]
        poisoned = engine.output_enclosures(["region-3"])[0]
        screen = engine_mod.screen_enclosure

        def failing_screen(enclosures, risk, rung):
            if any(enclosure is poisoned for enclosure in enclosures):
                raise RuntimeError("poisoned enclosure")
            return screen(enclosures, risk, rung)

        monkeypatch.setattr(engine_mod, "screen_enclosure", failing_screen)
        queries = [VerificationQuery(risk=risk, set_name=name) for name in names]
        results = engine.run(queries).results
        assert [r.ok for r in results] == [name != "region-3" for name in names]
        assert "poisoned enclosure" in results[3].error
        assert all(r.decided_by == "prescreen" for r in results if r.ok)


class TestBatchOrder:
    def test_entry_replaced_earlier_in_the_batch_is_not_reused(
        self, api_system, boxes
    ):
        """A query after one whose optimization replaced their shared
        support entry is answered from the new entry, as one query at a
        time would be, not from the bracket cached before the batch."""
        model, _, cut, _ = api_system
        engine = _engine(api_system, boxes)
        centre = float(model.suffix_apply(boxes[0].center()[None, :], cut)[0, 0])

        def query(threshold):
            return VerificationQuery(
                risk=steer_far_left(threshold),
                set_name="region-0",
                property_name="high_f0",
                domain=None,
            )

        # the characterizer keeps the linear support an open bracket
        # with no replayed point: its bound decides only far thresholds
        first = engine.run([query(1e6)]).results[0]
        hull_max = -first.verdict.solve_result.stats["support"]
        assert centre < hull_max
        far, near = query(hull_max + 1.0), query(centre)
        bracket = engine.run([far]).results[0]
        assert bracket.decided_by == "support-cache"
        assert bracket.verdict.solve_result.stats["support"] == -hull_max

        # ``near`` is open in that bracket: the campaign optimizes it,
        # replacing the entry that ``far`` would otherwise read
        opened, closed = engine.run([near, far]).results
        assert opened.decided_by == "support-cache"
        optimum = opened.verdict.solve_result.stats["support"]
        assert optimum != -hull_max
        assert closed.decided_by == "support-cache"
        assert closed.verdict.solve_result.stats["support"] == optimum
