"""Solver registry: round-trips, metadata, and uniform dispatch."""

import pytest

from repro.verification.solver import (
    BranchAndBoundSolver,
    HighsSolver,
    PhaseSplitSolver,
    make_solver,
    register_solver,
    solver_names,
    solver_spec,
)


class TestRegistry:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("branch-and-bound", BranchAndBoundSolver),
            ("bb", BranchAndBoundSolver),
            ("highs", HighsSolver),
            ("phase-split", PhaseSplitSolver),
            ("planet", PhaseSplitSolver),
        ],
    )
    def test_round_trip(self, name, cls):
        assert isinstance(make_solver(name), cls)

    def test_canonical_names(self):
        assert solver_names() == ["branch-and-bound", "highs", "phase-split"]

    def test_encoding_metadata(self):
        assert solver_spec("bb").encoding == "milp"
        assert solver_spec("highs").encoding == "milp"
        assert solver_spec("phase-split").encoding == "relaxed"
        assert solver_spec("planet").name == "phase-split"
        assert not solver_spec("planet").supports_minimize

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("cplex")

    def test_options_forwarded(self):
        solver = make_solver("phase-split", node_limit=7)
        assert solver.node_limit == 7

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("highs", HighsSolver)

    def test_custom_backend_registration(self):
        spec = register_solver(
            "test-backend-echo",
            HighsSolver,
            encoding="milp",
            aliases=("test-backend-alias",),
        )
        try:
            assert isinstance(make_solver("test-backend-alias"), HighsSolver)
            assert solver_spec("test-backend-echo") is spec
        finally:
            # keep the global registry clean for other tests
            from repro.verification.solver import _REGISTRY

            for key in spec.all_names():
                _REGISTRY.pop(key, None)

    def test_overwrite_removes_displaced_aliases(self):
        from repro.verification.solver import _REGISTRY

        first = register_solver(
            "test-ow", HighsSolver, aliases=("test-ow-alias",)
        )
        try:
            replacement = register_solver(
                "test-ow", BranchAndBoundSolver, overwrite=True
            )
            assert isinstance(make_solver("test-ow"), BranchAndBoundSolver)
            # the displaced spec's alias must not keep serving the old backend
            with pytest.raises(ValueError, match="unknown solver"):
                make_solver("test-ow-alias")
        finally:
            for key in (*first.all_names(), "test-ow"):
                _REGISTRY.pop(key, None)

    def test_bad_encoding_rejected(self):
        with pytest.raises(ValueError, match="encoding"):
            register_solver("test-bad-encoding", HighsSolver, encoding="smt")


class TestDispatch:
    """All registered backends answer the same query identically."""

    @pytest.mark.parametrize("solver", ["branch-and-bound", "highs", "phase-split"])
    def test_verdict_through_every_backend(self, solver, api_system):
        import numpy as np

        from repro.api import VerificationEngine, VerificationQuery
        from repro.properties.risk import RiskCondition, output_geq

        model, images, cut, _ = api_system
        outputs = model.forward(images)
        risk = RiskCondition(
            "q", (output_geq(2, 0, float(np.quantile(outputs[:, 0], 0.9))),)
        )
        engine = VerificationEngine(model, cut, solver=solver)
        engine.add_feature_set_from_data(images)
        result = engine.run_query(
            VerificationQuery(risk=risk, domain=None)
        )
        # the 0.9-quantile threshold is reachable from the data set
        from repro.core.verdict import Verdict

        assert result.verdict.verdict is Verdict.UNSAFE_IN_SET
