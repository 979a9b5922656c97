"""Campaign execution: parallel determinism, reports, per-query parity."""

import json
import os

import numpy as np
import pytest

from repro.api import Campaign, VerificationEngine, VerificationQuery
from repro.properties.library import steer_far_left


@pytest.fixture(scope="module")
def campaign_engine(api_system):
    model, images, cut, characterizer = api_system
    engine = VerificationEngine(model, cut, solver="highs")
    engine.add_feature_set_from_data(images)
    engine.attach_characterizer(characterizer)
    return engine


@pytest.fixture(scope="module")
def sweep(api_system):
    """A 24-query campaign over two characterizer settings × 12 thresholds."""
    model, images, _, _ = api_system
    outputs = model.forward(images)
    lo, hi = float(outputs[:, 0].min()) - 0.5, float(outputs[:, 0].max()) + 0.5
    risks = [steer_far_left(t) for t in np.linspace(lo, hi, 12)]
    return Campaign("sweep").add_grid(risks=risks, properties=(None, "high_f0"))


class TestCampaignRun:
    def test_sequential_report(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep)
        assert len(report) == 24
        assert report.executor == "sequential"
        assert not report.errors
        assert sum(report.verdict_counts().values()) == 24
        # every query after the first shares the cached artifacts
        assert report.cache_hit_counts().get("prescreen-enclosure", 0) >= 20

    def test_parallel_matches_sequential_and_legacy_verify(
        self, api_system, campaign_engine, sweep
    ):
        """Acceptance: 20+ queries, workers=4, verdicts identical to the
        one-off ``verify`` of each query on a fresh engine."""
        model, images, cut, characterizer = api_system
        parallel = campaign_engine.run(sweep, workers=4)
        assert len(parallel) == 24

        reference = []
        for query in sweep:
            fresh = VerificationEngine(model, cut, solver="highs")
            fresh.add_feature_set_from_data(images)
            fresh.attach_characterizer(characterizer)
            reference.append(
                fresh.verify(
                    query.risk,
                    property_name=query.property_name,
                    domain=query.domain,
                )
            )
        for result, expected in zip(parallel.results, reference):
            assert result.ok
            assert result.verdict.verdict is expected.verdict
            assert result.verdict.monitored == expected.monitored

    def test_parallel_is_deterministic(self, campaign_engine, sweep):
        first = campaign_engine.run(sweep, workers=2)
        second = campaign_engine.run(sweep, workers=4)
        sequential = campaign_engine.run(sweep, workers=1)
        for a, b, c in zip(first.results, second.results, sequential.results):
            assert a.verdict.verdict is b.verdict.verdict is c.verdict.verdict
            assert a.decided_by == b.decided_by == c.decided_by

    def test_single_query_accepted(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep[0])
        assert len(report) == 1
        assert report.results[0].ok

    def test_bad_query_becomes_error_result(self, campaign_engine, sweep):
        broken = Campaign("broken").add(
            sweep[0],
            VerificationQuery(risk=sweep[0].risk, set_name="missing-set"),
        )
        report = campaign_engine.run(broken)
        assert report.results[0].ok
        assert not report.results[1].ok
        assert "missing-set" in report.results[1].error
        assert report.verdict_counts().get("error") == 1

    def test_report_json_round_trip(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep)
        payload = json.loads(report.to_json())
        assert payload["campaign"] == "sweep"
        assert len(payload["results"]) == 24
        assert all("query" in entry for entry in payload["results"])
        assert payload["verdict_counts"] == report.verdict_counts()

    def test_summary_mentions_cache_and_executor(self, campaign_engine, sweep):
        report = campaign_engine.run(sweep)
        text = report.summary()
        assert "sweep" in text and "24 queries" in text

    def test_mixed_method_campaign(self, campaign_engine, sweep):
        mixed = (
            Campaign("mixed")
            .add(sweep[0])
            .add_ranges(output_indices=(0, 1), properties=("high_f0",))
        )
        report = campaign_engine.run(mixed)
        assert report.results[0].verdict is not None
        assert report.results[1].output_range is not None
        assert report.results[2].output_range.output_index == 1


class TestPoolStore:
    def test_pool_answers_are_stored_once(self, api_system, sweep, tmp_path):
        # forked workers inherit the engine, store included: only the
        # parent may write an answer back, once per decided query
        from repro.service.store import ResultStore

        model, images, cut, characterizer = api_system
        path = tmp_path / "store.jsonl"
        engine = VerificationEngine(
            model, cut, solver="highs", store=ResultStore(path)
        )
        engine.add_feature_set_from_data(images)
        engine.attach_characterizer(characterizer)
        report = engine.run(sweep, workers=2)
        assert report.executor == "process-pool[2]"
        decided = [r for r in report.results if r.ok]
        assert len(path.read_text().splitlines()) == len(decided) == 24


class TestPoolFallback:
    """Only a failure of the pool itself moves a campaign in-process."""

    @staticmethod
    def _in_workers(monkeypatch, stage) -> None:
        """Run ``stage`` in place of the solver stages in pool workers
        only (forked workers inherit the patch; the parent keeps the
        real stages)."""
        parent = os.getpid()
        solver_stages = VerificationEngine._solver_stages

        def patched(self):
            if os.getpid() == parent:
                return solver_stages(self)
            return (stage,)

        monkeypatch.setattr(VerificationEngine, "_solver_stages", patched)

    def test_query_error_propagates(self, campaign_engine, sweep, monkeypatch):
        def failing(batch, pending):
            raise ValueError("not a pool failure")

        self._in_workers(monkeypatch, failing)
        with pytest.raises(ValueError, match="not a pool failure"):
            campaign_engine.run(sweep, workers=2)

    def test_broken_pool_falls_back(self, campaign_engine, sweep, monkeypatch):
        def dying(batch, pending):
            os._exit(1)

        sequential = campaign_engine.run(sweep)
        self._in_workers(monkeypatch, dying)
        report = campaign_engine.run(sweep, workers=2)
        assert report.executor == "sequential (pool unavailable: BrokenProcessPool)"
        assert not report.errors
        assert [r.verdict.verdict for r in report.results] == [
            r.verdict.verdict for r in sequential.results
        ]

    def test_pool_start_failure_falls_back(
        self, campaign_engine, sweep, monkeypatch
    ):
        from repro.verification import pool as pool_module

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        report = campaign_engine.run(sweep, workers=2)
        assert report.executor == "sequential (pool unavailable: BrokenProcessPool)"
        assert not report.errors
