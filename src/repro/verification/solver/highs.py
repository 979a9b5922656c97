"""HiGHS MILP backend via ``scipy.optimize.milp``.

Used both as a fast production solver and to cross-check the home-grown
branch-and-bound in tests (the two must agree on SAT/UNSAT).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.verification.milp.model import MILPModel
from repro.verification.solver.result import SolveResult, SolveStatus

#: scipy.optimize.milp status codes
_SUCCESS = 0
_ITER_OR_TIME = 1
_INFEASIBLE = 2
_UNBOUNDED = 3


@dataclass
class HighsSolver:
    """Feasibility / optimization through HiGHS branch-and-cut."""

    time_limit: float = 600.0

    def solve(self, model: MILPModel) -> SolveResult:
        return self._run(model, optimize=False)

    def minimize(self, model: MILPModel) -> SolveResult:
        return self._run(model, optimize=True)

    def _run(self, model: MILPModel, optimize: bool) -> SolveResult:
        from scipy.optimize import Bounds, LinearConstraint, milp

        start = time.perf_counter()
        arrays = model.to_arrays()
        constraints = []
        if arrays.a_ub.shape[0]:
            constraints.append(
                LinearConstraint(arrays.a_ub, -np.inf, arrays.b_ub)
            )
        if arrays.a_eq.shape[0]:
            constraints.append(
                LinearConstraint(arrays.a_eq, arrays.b_eq, arrays.b_eq)
            )
        result = milp(
            c=arrays.c,
            constraints=constraints,
            bounds=Bounds(arrays.lower, arrays.upper),
            integrality=arrays.binary_mask.astype(int),
            options={"time_limit": self.time_limit},
        )
        elapsed = time.perf_counter() - start
        nodes = int(getattr(result, "mip_node_count", 0) or 0)
        if result.status == _SUCCESS:
            return SolveResult(
                status=SolveStatus.SAT,
                witness=np.asarray(result.x),
                objective=float(result.fun),
                nodes_explored=nodes,
                solve_time=elapsed,
            )
        if result.status == _INFEASIBLE:
            return SolveResult(
                status=SolveStatus.UNSAT, nodes_explored=nodes, solve_time=elapsed
            )
        return SolveResult(
            status=SolveStatus.UNKNOWN,
            nodes_explored=nodes,
            solve_time=elapsed,
            stats={"highs_status": int(result.status), "message": str(result.message)},
        )
