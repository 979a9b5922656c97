"""The persistent result store: map semantics, replay, invalidation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.campaign import QueryResult
from repro.api.query import VerificationQuery
from repro.core.verdict import Verdict, VerificationVerdict
from repro.properties.risk import RiskCondition, output_geq
from repro.service.store import STORE_VERSION, ResultStore, StoredResult, StoreKey
from repro.verification.counterexample import FeatureCounterexample
from repro.verification.solver.result import SolveResult, SolveStatus


def _key(model="m" * 8, query="q" * 8, method="exact") -> StoreKey:
    return StoreKey(model=model, query=query, domain="interval", method=method)


def _unsat_result() -> StoredResult:
    return StoredResult(
        verdict="safe",
        solver_status="unsat",
        decided_by="prescreen",
        monitored=False,
        feature_set_kind="static",
        elapsed=0.25,
        ladder=("prescreen",),
    )


def _sat_result() -> StoredResult:
    return StoredResult(
        verdict="unsafe-in-set",
        solver_status="sat",
        decided_by="solve",
        monitored=False,
        feature_set_kind="static",
        counterexample_features=(0.1, -0.7, 0.3),
        counterexample_output=(1.5, -0.2),
        risk_margin=0.5,
        characterizer_logit=None,
    )


def _risk() -> RiskCondition:
    return RiskCondition("r", (output_geq(2, 0, 0.0),))


class TestMapSemantics:
    def test_put_then_get(self):
        store = ResultStore()
        key = _key()
        store.put(key, _unsat_result())
        assert store.get(key) == _unsat_result()
        assert len(store) == 1 and key in store

    def test_miss_and_hit_are_counted(self):
        store = ResultStore()
        assert store.get(_key()) is None
        store.put(_key(), _unsat_result())
        store.get(_key())
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_last_writer_wins(self):
        store = ResultStore()
        store.put(_key(), _unsat_result())
        store.put(_key(), _sat_result())
        assert store.get(_key()) == _sat_result()
        assert len(store) == 1

    def test_results_for_model_and_digest_listing(self):
        store = ResultStore()
        store.put(_key(model="a" * 8), _unsat_result())
        store.put(_key(model="b" * 8, method="relaxed"), _sat_result())
        assert store.model_digests() == ["a" * 8, "b" * 8]
        rows = store.results_for_model("b" * 8)
        assert len(rows) == 1
        assert rows[0]["method"] == "relaxed"
        assert rows[0]["verdict"] == "unsafe-in-set"
        assert rows[0]["counterexample"]["features"] == [0.1, -0.7, 0.3]


class TestPersistence:
    def test_round_trips_through_the_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        first = ResultStore(path)
        first.put(_key(), _unsat_result())
        first.put(_key(method="cegar"), _sat_result())

        second = ResultStore(path)
        assert len(second) == 2
        assert second.get(_key(method="cegar")) == _sat_result()
        assert second.skipped_lines == 0

    def test_invalidation_tombstone_survives_restart(self, tmp_path):
        path = tmp_path / "results.jsonl"
        first = ResultStore(path)
        first.put(_key(model="a" * 8), _unsat_result())
        first.put(_key(model="b" * 8), _unsat_result())
        assert first.invalidate("a" * 8) == 1
        assert first.stats.invalidations == 1

        second = ResultStore(path)
        assert len(second) == 1
        assert second.get(_key(model="b" * 8)) is not None
        assert second.get(_key(model="a" * 8)) is None
        # the log stays append-only: the evicted line is still there
        kinds = [json.loads(l)["kind"] for l in path.read_text().splitlines()]
        assert kinds == ["result", "result", "invalidate"]

    def test_corrupt_and_unknown_version_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put(_key(), _unsat_result())
        with path.open("a") as handle:
            handle.write("{ not json\n")
            handle.write(json.dumps({"v": STORE_VERSION + 1, "kind": "result"}) + "\n")
            handle.write(json.dumps({"v": STORE_VERSION, "kind": "mystery"}) + "\n")
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 3

    def test_half_written_tail_does_not_sink_the_store(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.put(_key(), _unsat_result())
        # simulate a daemon killed mid-append
        with path.open("a") as handle:
            handle.write('{"v": 1, "kind": "res')
        reloaded = ResultStore(path)
        assert reloaded.get(_key()) == _unsat_result()
        assert reloaded.skipped_lines == 1


class TestFormatCompatibility:
    """Logs written before the ``precision`` knob was removed still replay.

    Those records name the arithmetic their verdict was computed in:
    ``"exact64"`` or the retired float32 backend's name, with identical
    verdicts by contract.  The lines below are byte-for-byte what that
    writer appended.
    """

    LINES = (
        '{"created": 1700000000.0, "domain": "interval", "kind": "result", '
        '"method": "exact", "model": "mmmmmmmm", "payload": {"decided_by": '
        '"prescreen", "elapsed": 0.25, "feature_set_kind": "static", '
        '"ladder": ["prescreen"], "monitored": false, "solver_status": '
        '"unsat", "verdict": "safe"}, "precision": "fast32", "query": '
        '"q1q1q1q1", "v": 1}',
        '{"created": 1700000001.0, "domain": "interval", "kind": "result", '
        '"method": "exact", "model": "mmmmmmmm", "payload": '
        '{"counterexample": {"characterizer_logit": null, "features": '
        '[0.1, -0.7, 0.3], "output": [1.5, -0.2], "risk_margin": 0.5}, '
        '"decided_by": "solve", "elapsed": 0.0, "feature_set_kind": '
        '"static", "ladder": [], "monitored": false, "solver_status": '
        '"sat", "verdict": "unsafe-in-set"}, "precision": "exact64", '
        '"query": "q2q2q2q2", "v": 1}',
    )

    def test_older_records_of_either_precision_replay_and_serve(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("\n".join(self.LINES) + "\n")
        store = ResultStore(path)
        assert store.skipped_lines == 0
        assert len(store) == 2
        model = "mmmmmmmm"
        assert store.get(_key(model=model, query="q1q1q1q1")) == _unsat_result()
        assert store.get(_key(model=model, query="q2q2q2q2")) == _sat_result()
        assert store.stats.hits == 2

    def test_fresh_put_writes_the_exact64_field(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("\n".join(self.LINES) + "\n")
        store = ResultStore(path)
        store.put(_key(query="q3q3q3q3"), _unsat_result())
        record = json.loads(path.read_text().splitlines()[-1])
        assert record["precision"] == "exact64"
        assert sorted(record) == [
            "created", "domain", "kind", "method", "model", "payload",
            "precision", "query", "v",
        ]
        assert len(ResultStore(path)) == 3


class TestStorability:
    def test_only_decided_verdicts_are_storable(self):
        query = VerificationQuery(risk=_risk())
        error_result = QueryResult(query=query, error="boom", decided_by="error")
        with pytest.raises(ValueError, match="decided"):
            StoredResult.from_query_result(error_result)

    def test_unknown_verdicts_are_never_stored(self):
        query = VerificationQuery(risk=_risk())
        unknown = QueryResult(
            query=query,
            verdict=VerificationVerdict(
                verdict=Verdict.UNKNOWN,
                property_name=None,
                risk=_risk(),
                feature_set_kind="static",
                monitored=False,
                solve_result=SolveResult(status=SolveStatus.UNKNOWN),
            ),
            decided_by="solve",
        )
        with pytest.raises(ValueError, match="UNKNOWN"):
            StoredResult.from_query_result(unknown)

    def test_restored_result_carries_store_provenance(self):
        query = VerificationQuery(risk=_risk())
        restored = _sat_result().to_query_result(query)
        assert restored.decided_by == "store"
        assert restored.ladder == ("result-store",)
        assert restored.verdict.verdict is Verdict.UNSAFE_IN_SET
        assert restored.verdict.solve_result.status is SolveStatus.SAT
        np.testing.assert_array_equal(
            restored.verdict.counterexample.features, [0.1, -0.7, 0.3]
        )
        assert restored.verdict.solve_result.stats["computed_by"] == "solve"


class TestInvalidationHook:
    def test_hook_captures_the_wiring_time_digest(self):
        store = ResultStore()
        store.put(_key(model="old" * 3), _unsat_result())
        hook = store.invalidation_hook("old" * 3)
        hook(object())  # the model argument is irrelevant to the store
        assert len(store) == 0

    def test_hook_is_idempotent(self):
        store = ResultStore()
        store.put(_key(model="old" * 3), _unsat_result())
        hook = store.invalidation_hook("old" * 3)
        hook(None)
        hook(None)
        assert store.stats.invalidations == 1
