"""Instance directories: index round trip, engine compilation, verdicts."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.verdict import Verdict
from repro.interchange import (
    BenchmarkInstance,
    combine_disjunct_verdicts,
    export_instance,
    instance_campaign,
    instance_engine,
    load_instances,
    write_index,
)
from repro.interchange.instances import answer_instance
from repro.interchange.vnnlib import VnnLibProperty
from repro.nn import Dense, ReLU, Sequential
from repro.properties.risk import RiskCondition, output_geq


@pytest.fixture
def tiny_model() -> Sequential:
    return Sequential(
        [Dense(6), ReLU(), Dense(2)], input_shape=(3,), seed=11
    )


@pytest.fixture
def instance_dir(tmp_path, tiny_model):
    instances = [
        export_instance(
            tmp_path,
            "reach",
            tiny_model,
            0.0,
            1.0,
            [RiskCondition("r", (output_geq(2, 0, -100.0),))],
            timeout=10.0,
            expected="sat",
            model_filename="net.onnx",
        ),
        export_instance(
            tmp_path,
            "unreach",
            tiny_model,
            0.0,
            1.0,
            [RiskCondition("r", (output_geq(2, 0, 1e6),))],
            timeout=10.0,
            expected="unsat",
            model_filename="net.onnx",
        ),
    ]
    write_index(tmp_path, instances)
    return tmp_path


class TestIndexRoundTrip:
    def test_load_matches_export(self, instance_dir):
        instances = load_instances(instance_dir)
        assert [i.name for i in instances] == ["reach", "unreach"]
        assert all(i.timeout == 10.0 for i in instances)
        assert [i.expected for i in instances] == ["sat", "unsat"]
        # the two instances share one model file
        assert len({i.model_path for i in instances}) == 1

    def test_loaded_instance_is_usable(self, instance_dir, tiny_model):
        instance = load_instances(instance_dir)[0]
        model = instance.load_model()
        prop = instance.load_property()
        x = np.random.default_rng(0).random((4, 3))
        assert np.array_equal(model(x), tiny_model(x))
        assert prop.in_dim == 3 and prop.out_dim == 2

    def test_missing_index_is_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="instances.csv"):
            load_instances(tmp_path)

    def test_missing_file_is_reported(self, instance_dir):
        (instance_dir / "reach.vnnlib").unlink()
        with pytest.raises(FileNotFoundError, match="reach.vnnlib"):
            load_instances(instance_dir)

    def test_shared_property_names_stay_unique(self, tmp_path, tiny_model):
        """VNN-COMP style: one .vnnlib reused against several models must
        not collapse into one instance name (that would corrupt the
        cross-track consistency check)."""
        risk = RiskCondition("r", (output_geq(2, 0, 1e6),))
        export_instance(
            tmp_path, "prop", tiny_model, 0.0, 1.0, [risk],
            model_filename="m1.onnx",
        )
        other = Sequential([Dense(4), ReLU(), Dense(2)], input_shape=(3,), seed=12)
        export_instance(
            tmp_path, "other", other, 0.0, 1.0, [risk], model_filename="m2.onnx"
        )
        index = tmp_path / "instances.csv"
        index.write_text(
            "m1.onnx,prop.vnnlib,10\n"
            "m2.onnx,prop.vnnlib,10\n"
            "m2.onnx,other.vnnlib,10\n"
        )
        names = [i.name for i in load_instances(tmp_path)]
        assert len(set(names)) == 3
        assert names == ["m1-prop", "m2-prop", "other"]

    def test_bad_expected_column_is_reported(self, instance_dir):
        index = instance_dir / "instances.csv"
        index.write_text(index.read_text().replace("sat", "maybe", 1))
        with pytest.raises(ValueError, match="maybe"):
            load_instances(instance_dir)


class TestEngineCompilation:
    def test_fully_pl_model_cuts_at_zero(self, tiny_model):
        prop = VnnLibProperty(
            np.zeros(3),
            np.ones(3),
            (RiskCondition("r", (output_geq(2, 0, 1e6),)),),
        )
        engine = instance_engine(tiny_model, prop)
        assert engine.cut_layer == 0
        report = engine.run(instance_campaign(prop))
        assert not report.errors
        # the input box is exact at cut 0, so the verdict is unconditional
        assert report.results[0].verdict.verdict.value == "safe"

    def test_dimension_mismatches_are_reported(self, tiny_model):
        bad_inputs = VnnLibProperty(
            np.zeros(5), np.ones(5), (RiskCondition("r", (output_geq(2, 0, 0),)),)
        )
        with pytest.raises(ValueError, match="input variables"):
            instance_engine(tiny_model, bad_inputs)
        bad_outputs = VnnLibProperty(
            np.zeros(3), np.ones(3), (RiskCondition("r", (output_geq(4, 0, 0),)),)
        )
        with pytest.raises(ValueError, match="output variables"):
            instance_engine(tiny_model, bad_outputs)

    def test_campaign_has_one_query_per_disjunct(self):
        prop = VnnLibProperty(
            np.zeros(2),
            np.ones(2),
            (
                RiskCondition("a", (output_geq(2, 0, 1.0),)),
                RiskCondition("b", (output_geq(2, 1, 1.0),)),
            ),
        )
        campaign = instance_campaign(prop, method="exact", domain="zonotope")
        assert len(campaign) == 2
        assert all(q.domain == "zonotope" for q in campaign)


class TestVerdictCombination:
    @pytest.mark.parametrize(
        "verdicts, expected",
        [
            (["unsat", "unsat"], "unsat"),
            (["unsat", "sat"], "sat"),
            (["unknown", "sat"], "sat"),
            (["unsat", "unknown"], "unknown"),
            ([], "unknown"),
        ],
    )
    def test_combine(self, verdicts, expected):
        assert combine_disjunct_verdicts(verdicts) == expected


def _result(status: str, decided_by: str = "solve", delay: float = 0.0):
    """A stand-in query result with one of the loop's verdict statuses."""
    time.sleep(delay)
    if status == "error":
        return SimpleNamespace(ok=False, error="solver crashed", decided_by=None)
    verdict = {"sat": Verdict.UNSAFE_IN_SET, "unsat": Verdict.SAFE}.get(
        status, Verdict.UNKNOWN
    )
    return SimpleNamespace(
        ok=True,
        error=None,
        decided_by=decided_by,
        verdict=SimpleNamespace(verdict=verdict),
    )


class TestAnswerInstance:
    """The one per-instance budget loop, driven by a scripted ``ask``."""

    @staticmethod
    def _scripted(*replies):
        asked: list[tuple[str, float | None]] = []

        def ask(disjunct, remaining):
            asked.append((disjunct, remaining))
            return replies[len(asked) - 1]()

        return ask, asked

    def test_sat_disjunct_stops_further_asks(self):
        ask, asked = self._scripted(
            lambda: _result("unsat", "prescreen"), lambda: _result("sat", "attack")
        )
        answer = answer_instance(ask, ["a", "b", "c"], 10.0)
        assert [d for d, _ in asked] == ["a", "b"]
        assert answer.status == "sat"
        assert answer.statuses == ["unsat", "sat"]
        assert answer.decided_by == ["attack", "prescreen"]
        assert answer.error is None and len(answer.results) == 2

    def test_all_unsat_is_unsat(self):
        ask, _ = self._scripted(lambda: _result("unsat"), lambda: _result("unsat"))
        assert answer_instance(ask, ["a", "b"], None).status == "unsat"

    def test_remaining_shrinks_and_is_none_without_budget(self):
        slow = lambda: _result("unsat", delay=0.01)  # noqa: E731
        ask, asked = self._scripted(slow, slow, slow)
        answer_instance(ask, ["a", "b", "c"], 10.0)
        remaining = [r for _, r in asked]
        assert all(r is not None and r <= 10.0 for r in remaining)
        assert remaining == sorted(remaining, reverse=True)
        assert remaining[-1] <= remaining[0] - 0.02
        ask, asked = self._scripted(slow, slow)
        answer_instance(ask, ["a", "b"], None)
        assert [r for _, r in asked] == [None, None]

    def test_late_answer_is_timeout_and_stops_the_loop(self):
        ask, asked = self._scripted(lambda: _result("unsat", delay=0.05))
        answer = answer_instance(ask, ["a", "b"], 0.01)
        assert answer.status == "timeout"
        assert len(asked) == 1
        # the late answer is still reported per disjunct
        assert answer.statuses == ["unsat"]
        assert answer.elapsed > 0.01

    def test_late_failed_query_is_error(self):
        ask, _ = self._scripted(lambda: _result("error", delay=0.05))
        answer = answer_instance(ask, ["a", "b"], 0.01)
        assert answer.status == "error"
        assert answer.error == "solver crashed"
        assert answer.statuses == []

    def test_cancel_between_disjuncts_stops_asking(self):
        cancel = threading.Event()

        def cancelled_after():
            cancel.set()
            return _result("unsat")

        ask, asked = self._scripted(cancelled_after, lambda: _result("unsat"))
        answer = answer_instance(ask, ["a", "b"], None, cancel)
        assert answer.status == "cancelled"
        assert [d for d, _ in asked] == ["a"]

    def test_cancel_outranks_error(self):
        cancel = threading.Event()

        def fail_cancelled():
            cancel.set()
            return _result("error")

        ask, _ = self._scripted(fail_cancelled)
        assert answer_instance(ask, ["a"], None, cancel).status == "cancelled"
