"""The competition runner end-to-end on a generated suite.

Covers the PR's acceptance bar: ≥ 2 tracks over the bundled instance
directory, PAR-2-scored Markdown + JSON reports, cross-track verdict
disagreement flagged as an error, and imported ONNX/VNN-LIB instances
verifying to the same verdict as their native in-repo constructions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import (
    CompetitionReport,
    Track,
    generate_smoke_suite,
    native_verdict,
    report_markdown,
    run_competition,
    run_instance,
    write_reports,
)
from repro.bench.scoring import InstanceOutcome, score_track, verdict_disagreements
from repro.bench.suites import e1_model, grid_model
from repro.interchange import load_instances
from repro.verification.ir import lowered_suffix

TRACKS = (
    Track(name="interval-bnb", domain="interval", method="exact", solver="branch-and-bound"),
    Track(name="zonotope-highs", domain="zonotope", method="exact", solver="highs"),
)


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("smoke-suite")
    generate_smoke_suite(directory)
    return directory


@pytest.fixture(scope="module")
def competition(suite_dir):
    instances = load_instances(suite_dir)
    return run_competition(
        instances, TRACKS, instance_dir=str(suite_dir), suite="smoke"
    )


class TestCompetitionRun:
    def test_matrix_is_complete(self, competition):
        assert len(competition.tracks) >= 2
        assert len(competition.instances) >= 5
        assert len(competition.outcomes) == len(competition.tracks) * len(
            competition.instances
        )

    def test_run_is_consistent_and_sound(self, competition):
        assert competition.ok
        assert competition.disagreements == []
        assert competition.unsound_answers == 0

    def test_complete_tracks_solve_everything(self, competition):
        for score in competition.scores:
            assert score.solved == score.n_instances
            assert score.score == score.n_instances
            assert score.par2 > 0.0

    def test_every_verdict_matches_ground_truth(self, competition):
        for outcome in competition.outcomes:
            assert outcome.expected in ("sat", "unsat")
            assert outcome.status == outcome.expected

    def test_suite_has_both_polarities(self, competition):
        statuses = {o.status for o in competition.outcomes}
        assert statuses == {"sat", "unsat"}


class TestImportedEqualsNative:
    def test_imported_instances_match_native_construction(self, suite_dir):
        """The acceptance criterion: import → verify == native verify."""
        for instance in load_instances(suite_dir):
            prop = instance.load_property()
            imported_verdict = native_verdict(
                instance.load_model(),
                prop.input_lower.reshape(instance.load_model().input_shape),
                prop.input_upper.reshape(instance.load_model().input_shape),
                prop.disjuncts,
            )
            assert imported_verdict == instance.expected, instance.name

    def test_imported_models_lower_identically_to_native(self, suite_dir):
        natives = {"e1.onnx": e1_model(0), "grid.onnx": grid_model(0)}
        seen = set()
        for instance in load_instances(suite_dir):
            if instance.model_path.name in seen:
                continue
            seen.add(instance.model_path.name)
            native = natives[instance.model_path.name]
            imported = instance.load_model()
            native_program = lowered_suffix(native, 0)
            imported_program = lowered_suffix(imported, 0)
            assert [type(op).__name__ for op in native_program.ops] == [
                type(op).__name__ for op in imported_program.ops
            ]
            for a, b in zip(native_program.ops, imported_program.ops):
                if hasattr(a, "weight"):
                    assert np.array_equal(a.weight, b.weight)
                    assert np.array_equal(a.bias, b.bias)
        assert seen == {"e1.onnx", "grid.onnx"}


class TestReports:
    def test_markdown_and_json_written(self, competition, tmp_path):
        md_path, json_path = write_reports(competition, tmp_path / "out")
        markdown = md_path.read_text()
        assert "PAR-2" in markdown
        assert "consistent" in markdown
        for track in TRACKS:
            assert track.name in markdown
        payload = json.loads(json_path.read_text())
        assert payload["ok"] is True
        assert {score["track"] for score in payload["scores"]} == {
            t.name for t in TRACKS
        }
        assert all("par2" in score for score in payload["scores"])
        assert len(payload["outcomes"]) == len(competition.outcomes)

    def test_disagreement_renders_as_error(self):
        outcomes = [
            InstanceOutcome("a", "x", "sat", 0.1, 10.0),
            InstanceOutcome("b", "x", "unsat", 0.1, 10.0),
        ]
        report = CompetitionReport(
            instance_dir="dir",
            suite=None,
            tracks=[Track(name="a"), Track(name="b", solver="highs")],
            instances=["x"],
            outcomes=outcomes,
            scores=[score_track("a", outcomes), score_track("b", outcomes)],
            disagreements=verdict_disagreements(outcomes),
            total_time=0.2,
        )
        assert not report.ok
        markdown = report_markdown(report)
        assert "INCONSISTENT" in markdown
        assert "Cross-track disagreements" in markdown
        assert report.to_dict()["consistent"] is False


class TestRunInstance:
    def test_timeout_override_reaches_the_outcome(self, suite_dir):
        instance = load_instances(suite_dir)[0]
        outcome = run_instance(TRACKS[0], instance, timeout=5.0)
        assert outcome.timeout == 5.0

    def test_broken_instance_becomes_error_outcome(self, suite_dir, tmp_path):
        import dataclasses

        instance = load_instances(suite_dir)[0]
        bad = dataclasses.replace(instance, model_path=tmp_path / "missing.onnx")
        outcome = run_instance(TRACKS[0], bad)
        assert outcome.status == "error"
        assert "missing.onnx" in outcome.detail or "No such file" in outcome.detail

    def test_exhausted_budget_is_timeout_not_solved(self, suite_dir):
        """An answer cannot be earned on a spent budget (CHC-COMP rule)."""
        instance = load_instances(suite_dir)[0]
        outcome = run_instance(TRACKS[0], instance, timeout=1e-9)
        assert outcome.status == "timeout"
        assert not outcome.solved
        assert outcome.par2 == 2e-9

    def test_broken_file_does_not_sink_the_competition(self, suite_dir, tmp_path):
        """One corrupt .onnx yields error outcomes; the rest still run."""
        import shutil

        broken_dir = tmp_path / "broken"
        shutil.copytree(suite_dir, broken_dir)
        (broken_dir / "grid.onnx").write_bytes(b"not a model at all")
        instances = load_instances(broken_dir)
        report = run_competition(instances, TRACKS, instance_dir=str(broken_dir))
        assert not report.ok
        statuses = {
            o.instance: o.status for o in report.outcomes if o.track == TRACKS[0].name
        }
        for name, status in statuses.items():
            if name.startswith("grid"):
                assert status == "error"
            else:
                assert status in ("sat", "unsat")


class TestParallelRun:
    """``run_competition(workers=2)``: the same matrix, in the same order."""

    @staticmethod
    def _cells(report):
        return [(o.track, o.instance, o.status) for o in report.outcomes]

    def test_outcomes_match_sequential_in_order(self, competition, suite_dir):
        parallel = run_competition(load_instances(suite_dir), TRACKS, workers=2)
        assert self._cells(parallel) == self._cells(competition)

    def test_pool_start_failure_falls_back(
        self, competition, suite_dir, monkeypatch
    ):
        from repro.verification import pool as pool_module

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        report = run_competition(load_instances(suite_dir), TRACKS, workers=2)
        assert self._cells(report) == self._cells(competition)

    def test_task_error_propagates(self, suite_dir, monkeypatch):
        # a cell's own exception is not a pool failure: it must surface,
        # not silently restart the matrix sequentially
        import os

        from repro.bench import runner as runner_module

        parent = os.getpid()
        run = runner_module.run_instance

        def fails_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("cell exploded")
            return run(*args, **kwargs)

        monkeypatch.setattr(runner_module, "run_instance", fails_in_workers)
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_competition(load_instances(suite_dir), TRACKS, workers=2)
