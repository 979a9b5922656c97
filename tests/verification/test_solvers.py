"""Unit tests for branch-and-bound and HiGHS backends, plus cross-checks."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import Dense, ReLU, Sequential
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.assume_guarantee import box_from_data
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.milp.model import MILPArrays, MILPModel
from repro.verification.milp.relaxed import encode_relaxed_problem
from repro.verification.solver import (
    BranchAndBoundSolver,
    HighsSolver,
    PhaseSplitSolver,
    SolveStatus,
    make_solver,
)
from repro.verification.solver.lp import LPSession, LPStatus, solve_lp_relaxation
from repro.verification.solver.result import SolveResult


def knapsack_model():
    """max x0 + 2*x1 + 3*x2 s.t. x0 + x1 + x2 <= 2 (binary) => optimum 5."""
    model = MILPModel()
    items = [model.add_binary(f"item{i}") for i in range(3)]
    model.add_leq({i: 1.0 for i in items}, 2.0)
    model.set_objective({items[0]: -1.0, items[1]: -2.0, items[2]: -3.0})
    return model, items


def infeasible_model():
    model = MILPModel()
    x = model.add_continuous(0.0, 1.0)
    model.add_leq({x: 1.0}, -1.0)  # x <= -1 contradicts x >= 0
    return model


class TestBranchAndBound:
    def test_feasibility_simple(self):
        model = MILPModel()
        x = model.add_continuous(0.0, 5.0)
        d = model.add_binary()
        model.add_leq({x: 1.0, d: -5.0}, 0.0)
        result = BranchAndBoundSolver().solve(model)
        assert result.is_sat
        assert model.check_solution(result.witness)

    def test_infeasible(self):
        result = BranchAndBoundSolver().solve(infeasible_model())
        assert result.is_unsat

    def test_optimization_knapsack(self):
        model, items = knapsack_model()
        result = BranchAndBoundSolver().minimize(model)
        assert result.is_sat
        assert result.objective == pytest.approx(-5.0)
        assert result.stats["proved_optimal"]
        np.testing.assert_allclose(result.witness[[items[1], items[2]]], 1.0)

    def test_forced_binary_combination(self):
        """Feasibility requiring a specific binary assignment."""
        model = MILPModel()
        d0 = model.add_binary()
        d1 = model.add_binary()
        model.add_eq({d0: 1.0, d1: 1.0}, 1.0)  # exactly one
        model.add_leq({d0: -1.0}, -1.0)  # d0 >= 1
        result = BranchAndBoundSolver().solve(model)
        assert result.is_sat
        assert result.witness[d0] == pytest.approx(1.0)
        assert result.witness[d1] == pytest.approx(0.0)

    def test_node_limit_gives_unknown(self, lp_backend):
        rng = np.random.default_rng(0)
        model = Sequential(
            [Dense(14), ReLU(), Dense(14), ReLU(), Dense(2)], input_shape=(6,), seed=0
        )
        net = model.full_network()
        sbox = box_from_data(rng.normal(size=(50, 6)) * 3)
        risk = RiskCondition("hard", (output_geq(2, 0, 1e5),))
        problem = encode_verification_problem(net, sbox, risk)
        result = BranchAndBoundSolver(node_limit=2).solve(problem.model)
        assert result.status in (SolveStatus.UNKNOWN, SolveStatus.UNSAT)

    def test_limit_reports_anytime_open_node_stats(self):
        """A limit-hit UNKNOWN carries the open frontier and a sound bound."""
        # root LP is forcibly fractional (b0 + b1 == 1.5 over binaries is
        # integrally infeasible but LP-feasible), so node_limit=1 always
        # pops the root, branches, and then hits the limit with two
        # children open
        model = MILPModel()
        b0 = model.add_binary("b0")
        b1 = model.add_binary("b1")
        model.add_eq({b0: 1.0, b1: 1.0}, 1.5)
        result = BranchAndBoundSolver(node_limit=1).solve(model)
        assert result.status is SolveStatus.UNKNOWN
        assert result.stats["limit"] == "nodes"
        assert result.stats["open_nodes"] == 2
        assert "best_bound" in result.stats

    def test_truncated_minimize_bound_brackets_optimum(self, lp_backend):
        """best_bound <= true optimum when optimization hits its limit."""
        # min -(b0 + b1) s.t. b0 + b1 <= 1.5: the LP root is fractional
        # (0.75, 0.75, objective -1.5); DFS finds the integral incumbent
        # -1 after 4 nodes and node_limit=4 stops with the other branch
        # open, so the truncated solve is SAT but not proved optimal
        model = MILPModel()
        b0 = model.add_binary("b0")
        b1 = model.add_binary("b1")
        model.add_leq({b0: 1.0, b1: 1.0}, 1.5)
        model.set_objective({b0: -1.0, b1: -1.0})
        full = BranchAndBoundSolver().minimize(model)
        assert full.stats["proved_optimal"] and full.objective == pytest.approx(-1.0)
        truncated = BranchAndBoundSolver(node_limit=4).minimize(model)
        assert truncated.status is SolveStatus.SAT
        assert not truncated.stats["proved_optimal"]
        assert truncated.stats["open_nodes"] > 0
        # the reported bound soundly brackets the true optimum
        assert truncated.stats["best_bound"] <= full.objective + 1e-9

    def test_pure_lp_no_binaries(self):
        model = MILPModel()
        x = model.add_continuous(1.0, 2.0)
        model.set_objective({x: 1.0})
        result = BranchAndBoundSolver().minimize(model)
        assert result.is_sat and result.objective == pytest.approx(1.0)


class TestHighs:
    def test_feasibility_and_infeasibility(self):
        model = MILPModel()
        model.add_binary()
        assert HighsSolver().solve(model).is_sat
        assert HighsSolver().solve(infeasible_model()).is_unsat

    def test_optimization_knapsack(self):
        model, _ = knapsack_model()
        result = HighsSolver().minimize(model)
        assert result.objective == pytest.approx(-5.0)


class TestSolverFactory:
    def test_names(self):
        assert isinstance(make_solver("branch-and-bound"), BranchAndBoundSolver)
        assert isinstance(make_solver("bb"), BranchAndBoundSolver)
        assert isinstance(make_solver("highs"), HighsSolver)
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("cplex")

    def test_options_forwarded(self):
        solver = make_solver("bb", node_limit=5)
        assert solver.node_limit == 5


class TestSolveResultInvariants:
    def test_sat_requires_witness(self):
        with pytest.raises(ValueError, match="witness"):
            SolveResult(status=SolveStatus.SAT)

    def test_unsat_forbids_witness(self):
        with pytest.raises(ValueError, match="must not"):
            SolveResult(status=SolveStatus.UNSAT, witness=np.zeros(2))


class TestCrossValidation:
    """Our branch-and-bound must agree with HiGHS on random instances."""

    @given(st.integers(0, 100_000))
    @settings(
        max_examples=20,
        deadline=None,
        # lp_backend patches one module flag that holds for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_agree_on_random_verification_instances(self, lp_backend, seed):
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Dense(5), ReLU(), Dense(4), ReLU(), Dense(2)],
            input_shape=(3,),
            seed=seed % 41,
        )
        net = model.full_network()
        sbox = box_from_data(rng.normal(size=(30, 3)))
        outputs = net.apply(sbox.sample(rng, 200))
        # pick a threshold near the reachable frontier to get both outcomes
        threshold = float(np.quantile(outputs[:, 0], 0.98)) + rng.uniform(-0.2, 0.4)
        risk = RiskCondition("x", (output_geq(2, 0, threshold),))
        problem = encode_verification_problem(net, sbox, risk)
        ours = BranchAndBoundSolver().solve(problem.model)
        reference = HighsSolver().solve(problem.model)
        assert ours.status == reference.status

    @given(st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_agree_on_optimization(self, seed):
        rng = np.random.default_rng(seed)
        model = Sequential(
            [Dense(5), ReLU(), Dense(2)], input_shape=(3,), seed=seed % 37
        )
        net = model.full_network()
        sbox = box_from_data(rng.normal(size=(30, 3)))
        risk = RiskCondition("any", (output_geq(2, 0, -1e6),))
        problem = encode_verification_problem(net, sbox, risk)
        problem.model.set_objective({problem.output_vars[0]: -1.0})
        ours = BranchAndBoundSolver().minimize(problem.model)
        reference = HighsSolver().minimize(problem.model)
        assert ours.objective == pytest.approx(reference.objective, abs=1e-5)


def bounded_lp(rng) -> MILPArrays:
    """A small bounded LP with binaries, feasible at its root."""
    n = int(rng.integers(3, 9))
    binary = np.zeros(n, dtype=bool)
    binary[rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)] = True
    lower = np.where(binary, 0.0, rng.uniform(-3.0, 0.0, n))
    upper = np.where(binary, 1.0, rng.uniform(0.0, 3.0, n))
    x0 = rng.uniform(lower, upper)
    a_ub = rng.normal(size=(int(rng.integers(1, 7)), n))
    a_eq = rng.normal(size=(int(rng.integers(0, 2)), n))
    return MILPArrays(
        c=rng.normal(size=n),
        a_ub=a_ub,
        b_ub=a_ub @ x0 + rng.uniform(0.0, 1.0, a_ub.shape[0]),
        a_eq=a_eq,
        b_eq=a_eq @ x0,
        lower=lower,
        upper=upper,
        binary_mask=binary,
    )


class TestLPSession:
    @given(st.integers(0, 100_000))
    @settings(
        max_examples=40,
        deadline=None,
        # lp_backend patches one module flag that holds for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_hot_start_matches_cold_solves(self, lp_backend, seed):
        """A DFS of fixings, row toggles and backtracks on one session
        answers like cold solves over the enforced rows."""
        rng = np.random.default_rng(seed)
        arrays = bounded_lp(rng)
        binaries = np.nonzero(arrays.binary_mask)[0]
        n_ub = arrays.a_ub.shape[0]
        all_rows = np.ones(n_ub + arrays.a_eq.shape[0], dtype=bool)
        session = LPSession(arrays)
        path = [(arrays.lower, arrays.upper, None)]
        for _ in range(12):
            if len(path) > 1 and rng.random() < 0.35:
                path.pop()
            else:
                lower, upper = path[-1][0].copy(), path[-1][1].copy()
                j = rng.choice(binaries)
                lower[j] = upper[j] = float(rng.integers(2))
                rows = path[-1][2]
                if rng.random() < 0.6:
                    rows = (all_rows if rows is None else rows).copy()
                    rows[rng.integers(rows.size)] ^= True
                path.append((lower, upper, rows))
            lower, upper, rows = path[-1]
            hot = session.solve(lower, upper, rows=rows)
            cold = LPSession(arrays).solve(lower, upper, rows=rows)
            enforced = all_rows if rows is None else rows
            ub, eq = enforced[:n_ub], enforced[n_ub:]
            a_ub, b_ub = arrays.a_ub[ub], arrays.b_ub[ub]
            a_eq, b_eq = arrays.a_eq[eq], arrays.b_eq[eq]
            reference = scipy.optimize.linprog(
                arrays.c,
                A_ub=a_ub if a_ub.size else None,
                b_ub=b_ub if a_ub.size else None,
                A_eq=a_eq if a_eq.size else None,
                b_eq=b_eq if a_eq.size else None,
                bounds=np.column_stack([lower, upper]),
                method="highs",
            )
            assert reference.status in (0, 2)  # bounded: solved or infeasible
            assert hot.status is cold.status
            assert hot.feasible == (reference.status == 0)
            if not hot.feasible:
                continue
            for result in (hot, cold):
                assert result.objective == pytest.approx(reference.fun, rel=1e-7, abs=1e-9)
            x = hot.x
            assert np.all(x >= lower - 1e-7) and np.all(x <= upper + 1e-7)
            assert np.all(a_ub @ x <= b_ub + 1e-7)
            np.testing.assert_allclose(a_eq @ x, b_eq, atol=1e-7)

    def test_crossed_bounds_are_infeasible(self, lp_backend):
        arrays = bounded_lp(np.random.default_rng(0))
        lower = arrays.lower.copy()
        lower[0] = arrays.upper[0] + 1.0
        assert solve_lp_relaxation(arrays, lower).status is LPStatus.INFEASIBLE

    def test_unbounded_is_unknown(self, lp_backend):
        """Unbounded proves nothing about feasibility of the MILP."""
        arrays = bounded_lp(np.random.default_rng(1))
        upper = arrays.upper.copy()
        upper[~arrays.binary_mask] = np.inf
        c = np.where(arrays.binary_mask, 0.0, -1.0)
        free = MILPArrays(
            c=c,
            a_ub=np.zeros((0, c.size)),
            b_ub=np.zeros(0),
            a_eq=np.zeros((0, c.size)),
            b_eq=np.zeros(0),
            lower=arrays.lower,
            upper=upper,
            binary_mask=arrays.binary_mask,
        )
        assert solve_lp_relaxation(free).status is LPStatus.UNKNOWN

    def test_exhausted_time_limit_is_unknown(self, lp_backend):
        arrays = bounded_lp(np.random.default_rng(2))
        assert solve_lp_relaxation(arrays, time_limit=0.0).status is LPStatus.UNKNOWN
        assert solve_lp_relaxation(arrays).status is LPStatus.OPTIMAL


class TestOneSessionPerSearch:
    """Every node LP of one solver call runs on one hot-started session."""

    @pytest.fixture
    def sessions(self, monkeypatch):
        opened = []
        real_init = LPSession.__init__

        def init(self, arrays):
            opened.append(arrays)
            real_init(self, arrays)

        monkeypatch.setattr(LPSession, "__init__", init)
        return opened

    @pytest.fixture
    def instance(self):
        rng = np.random.default_rng(3)
        net = Sequential(
            [Dense(8), ReLU(), Dense(6), ReLU(), Dense(2)], input_shape=(4,), seed=3
        ).full_network()
        sbox = box_from_data(rng.normal(size=(40, 4)))
        outputs = net.apply(sbox.sample(rng, 300))
        risk = RiskCondition("t", (output_geq(2, 0, float(outputs[:, 0].max())),))
        return net, sbox, risk

    def test_branch_and_bound(self, sessions, instance):
        problem = encode_verification_problem(*instance)
        result = BranchAndBoundSolver().solve(problem.model)
        problem.model.set_objective({problem.output_vars[0]: -1.0})
        optimum = BranchAndBoundSolver().minimize(problem.model)
        assert result.nodes_explored > 1 and optimum.nodes_explored > 1
        assert len(sessions) == 2

    def test_phase_split(self, sessions, instance):
        result = PhaseSplitSolver().solve(encode_relaxed_problem(*instance))
        assert result.nodes_explored > 1
        assert len(sessions) == 1


class TestFailedLPIsNotInfeasible:
    """Only a proven-infeasible LP may prune a node or decide UNSAT."""

    def test_branch_and_bound_answers_unknown(self, fail_lps):
        fail_lps()
        result = BranchAndBoundSolver().solve(infeasible_model())
        assert result.status is SolveStatus.UNKNOWN
        assert result.stats["limit"] == "lp"
        assert result.stats["open_nodes"] == 1
        assert result.stats["best_bound"] == -np.inf

    def test_minimize_keeps_incumbent_with_sound_bound(self, fail_lps):
        """Failing at any node: UNKNOWN, or an unproved SAT bracketing the optimum."""
        model = MILPModel()
        b0, b1 = model.add_binary("b0"), model.add_binary("b1")
        model.add_leq({b0: 1.0, b1: 1.0}, 1.5)
        model.set_objective({b0: -1.0, b1: -1.0})
        full = BranchAndBoundSolver().minimize(model)
        outcomes = set()
        for good in range(full.nodes_explored):
            fail_lps(after=good)
            result = BranchAndBoundSolver().minimize(model)
            outcomes.add(result.status)
            assert result.status in (SolveStatus.UNKNOWN, SolveStatus.SAT)
            assert result.stats["limit"] == "lp"
            assert result.stats["best_bound"] <= full.objective + 1e-9
            if result.is_sat:
                assert not result.stats["proved_optimal"]
                assert result.objective >= full.objective - 1e-9
        assert outcomes == {SolveStatus.UNKNOWN, SolveStatus.SAT}

    def test_phase_split_answers_unknown(self, fail_lps):
        rng = np.random.default_rng(7)
        model = Sequential([Dense(5), ReLU(), Dense(2)], input_shape=(3,), seed=7)
        sbox = box_from_data(rng.normal(size=(30, 3)))
        risk = RiskCondition("never", (output_geq(2, 0, 1e6),))
        problem = encode_relaxed_problem(model.full_network(), sbox, risk)
        assert PhaseSplitSolver().solve(problem).is_unsat
        fail_lps()
        result = PhaseSplitSolver().solve(problem)
        assert result.status is SolveStatus.UNKNOWN
        assert result.stats["limit"] == "lp"
