"""Branch-and-bound MILP solver over LP relaxations.

Depth-first search on the binary variables: each node solves the LP
relaxation with the binaries fixed so far.  Infeasible relaxations prune;
integral relaxations are feasible MILP assignments; fractional ones
branch on the most fractional binary (the branch agreeing with the LP
value is explored first).

For feasibility problems (zero objective, the verification use case) the
first integral solution decides SAT.  For optimization the incumbent
bound additionally prunes relaxations that cannot improve it.

All node LPs of one search run on one :class:`~repro.verification.solver.lp.LPSession`,
so each node hot-starts from the previous node's basis.  Only a proven
infeasible relaxation prunes: a node LP that fails for any other reason
ends the search like a resource limit (``stats["limit"] == "lp"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.verification.milp.model import MILPModel
from repro.verification.solver.lp import LPSession
from repro.verification.solver.result import SolveResult, SolveStatus

_INT_TOL = 1e-6


@dataclass
class BranchAndBoundSolver:
    """DFS branch-and-bound with node and wall-clock limits."""

    node_limit: int = 200_000
    time_limit: float = 600.0

    def solve(self, model: MILPModel) -> SolveResult:
        """Feasibility: first integral LP solution wins."""
        return self._search(model, optimize=False)

    def minimize(self, model: MILPModel) -> SolveResult:
        """Optimization of ``model.objective`` (exhaustive with pruning)."""
        return self._search(model, optimize=True)

    # -- internals ------------------------------------------------------------

    def _search(self, model: MILPModel, optimize: bool) -> SolveResult:
        start = time.perf_counter()
        arrays = model.to_arrays()
        session = LPSession(arrays)
        binary_idx = np.nonzero(arrays.binary_mask)[0]

        incumbent_x: np.ndarray | None = None
        incumbent_obj = np.inf
        nodes = 0
        limit: str | None = None

        # stack of (lower, upper, parent LP objective) triples; the root's
        # parent bound is -inf.  Each open node's parent bound is a valid
        # lower bound on every MILP solution below it, so on a resource
        # limit the minimum over the stack is a sound global bound — the
        # anytime gap the CEGAR trace and range queries report.
        stack: list[tuple[np.ndarray, np.ndarray, float]] = [
            (arrays.lower.copy(), arrays.upper.copy(), -np.inf)
        ]

        while stack:
            remaining = self.time_limit - (time.perf_counter() - start)
            if nodes >= self.node_limit or remaining < 0:
                limit = "nodes" if nodes >= self.node_limit else "time"
                break
            lower, upper, parent_bound = stack.pop()
            nodes += 1
            relaxation = session.solve(lower, upper, time_limit=remaining)
            if relaxation.infeasible:
                continue
            if not relaxation.feasible:
                # the LP proved nothing: keep the node open for the bound
                stack.append((lower, upper, parent_bound))
                limit = "lp"
                break
            if optimize and relaxation.objective >= incumbent_obj - 1e-9:
                continue  # cannot improve the incumbent

            x = relaxation.x
            fractional = self._most_fractional(x, binary_idx)
            if fractional is None:
                # integral: a feasible MILP assignment
                x = self._round_binaries(x, binary_idx)
                if not optimize:
                    return SolveResult(
                        status=SolveStatus.SAT,
                        witness=x,
                        objective=relaxation.objective,
                        nodes_explored=nodes,
                        solve_time=time.perf_counter() - start,
                    )
                if relaxation.objective < incumbent_obj:
                    incumbent_obj = relaxation.objective
                    incumbent_x = x
                continue

            # branch: explore the side suggested by the LP value first
            j = fractional
            value = x[j]
            floor_lower, floor_upper = lower.copy(), upper.copy()
            floor_upper[j] = 0.0
            ceil_lower, ceil_upper = lower.copy(), upper.copy()
            ceil_lower[j] = 1.0
            parent_obj = float(relaxation.objective)
            if value >= 0.5:
                stack.append((floor_lower, floor_upper, parent_obj))
                stack.append((ceil_lower, ceil_upper, parent_obj))
            else:
                stack.append((ceil_lower, ceil_upper, parent_obj))
                stack.append((floor_lower, floor_upper, parent_obj))

        elapsed = time.perf_counter() - start
        best_bound = min((entry[2] for entry in stack), default=np.inf)
        if limit is not None and incumbent_x is None:
            return SolveResult(
                status=SolveStatus.UNKNOWN,
                nodes_explored=nodes,
                solve_time=elapsed,
                stats={
                    "limit": limit,
                    "open_nodes": len(stack),
                    "best_bound": best_bound,
                },
            )
        if optimize and incumbent_x is not None:
            stats: dict = {"proved_optimal": limit is None}
            if limit is not None:
                stats["limit"] = limit
                stats["open_nodes"] = len(stack)
                stats["best_bound"] = min(best_bound, incumbent_obj)
            return SolveResult(
                status=SolveStatus.SAT,
                witness=incumbent_x,
                objective=incumbent_obj,
                nodes_explored=nodes,
                solve_time=elapsed,
                stats=stats,
            )
        return SolveResult(
            status=SolveStatus.UNSAT, nodes_explored=nodes, solve_time=elapsed
        )

    @staticmethod
    def _most_fractional(x: np.ndarray, binary_idx: np.ndarray) -> int | None:
        if binary_idx.size == 0:
            return None
        values = x[binary_idx]
        distance = np.abs(values - np.round(values))
        worst = int(np.argmax(distance))
        if distance[worst] <= _INT_TOL:
            return None
        return int(binary_idx[worst])

    @staticmethod
    def _round_binaries(x: np.ndarray, binary_idx: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[binary_idx] = np.round(out[binary_idx])
        return out
