"""Planet/ReLUplex-style case-splitting search (DPLL over LP).

The paper's Section V: "it is feasible to use exact verification methods
such as ReLUplex [8], Planet [5] or MILP-based approaches" — this module
is the non-MILP lineage.  The search state is a partial assignment of
*phases* to the split points recorded by the relaxed encoding; each node
solves one LP:

- proven infeasible → prune (an LP that fails without a proof ends the
  search UNKNOWN, ``stats["limit"] == "lp"``);
- feasible and every split's exact semantics holds at the LP point →
  **SAT** with that point as witness (undecided splits are fine — the
  point already realizes them);
- otherwise branch on the most violated split, LP-suggested phase first.

Exhausting the tree proves **UNSAT**.  Sound and complete for the same
problems as the big-M encoding; tests cross-check all three engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.verification.milp.relaxed import PhaseOption, RelaxedProblem
from repro.verification.solver.lp import solve_lp_relaxation
from repro.verification.milp.model import MILPArrays
from repro.verification.solver.result import SolveResult, SolveStatus

_SEMANTICS_TOL = 1e-6


@dataclass
class PhaseSplitSolver:
    """DFS over ReLU/max phases with LP feasibility at every node."""

    node_limit: int = 100_000
    time_limit: float = 600.0

    def solve(self, problem: RelaxedProblem) -> SolveResult:
        start = time.perf_counter()
        base = problem.model.to_arrays()
        splits = problem.splits

        # stack entries: tuple of chosen (split_index, option_index)
        stack: list[tuple[tuple[int, int], ...]] = [()]
        nodes = 0
        limit: str | None = None

        while stack:
            remaining = self.time_limit - (time.perf_counter() - start)
            if nodes >= self.node_limit or remaining < 0:
                limit = "nodes" if nodes >= self.node_limit else "time"
                break
            assignment = stack.pop()
            nodes += 1
            arrays = self._arrays_for(base, splits, assignment)
            relaxation = solve_lp_relaxation(arrays, time_limit=remaining)
            if relaxation.infeasible:
                continue
            if not relaxation.feasible:
                limit = "lp"
                break
            x = relaxation.x

            decided = {index for index, _ in assignment}
            worst_index = None
            worst_violation = _SEMANTICS_TOL
            for index, split in enumerate(splits):
                if index in decided:
                    continue
                violation = split.violation(x)
                if violation > worst_violation:
                    worst_violation = violation
                    worst_index = index

            if worst_index is None:
                # LP point satisfies every neuron exactly: genuine witness
                return SolveResult(
                    status=SolveStatus.SAT,
                    witness=x,
                    objective=relaxation.objective,
                    nodes_explored=nodes,
                    solve_time=time.perf_counter() - start,
                    stats={"splits_decided": len(assignment)},
                )

            split = splits[worst_index]
            order = self._option_order(split, x)
            # DFS: push less-promising phases first so the best pops first
            for option_index in reversed(order):
                stack.append(assignment + ((worst_index, option_index),))

        elapsed = time.perf_counter() - start
        if limit is not None:
            return SolveResult(
                status=SolveStatus.UNKNOWN,
                nodes_explored=nodes,
                solve_time=elapsed,
                stats={"limit": limit},
            )
        return SolveResult(
            status=SolveStatus.UNSAT, nodes_explored=nodes, solve_time=elapsed
        )

    # -- node construction -------------------------------------------------

    @staticmethod
    def _arrays_for(
        base: MILPArrays,
        splits,
        assignment: tuple[tuple[int, int], ...],
    ) -> MILPArrays:
        """Base relaxation plus the rows/bounds of the chosen phases."""
        if not assignment:
            return base
        eq_rows: list[tuple[dict[int, float], float]] = []
        leq_rows: list[tuple[dict[int, float], float]] = []
        lower = base.lower.copy()
        upper = base.upper.copy()
        for split_index, option_index in assignment:
            option: PhaseOption = splits[split_index].options[option_index]
            eq_rows.extend(option.eq_rows)
            leq_rows.extend(option.leq_rows)
            for var, lo, hi in option.bounds:
                lower[var] = max(lower[var], lo)
                upper[var] = min(upper[var], hi)

        def dense(rows):
            a = np.zeros((len(rows), base.num_vars))
            b = np.zeros(len(rows))
            for i, (coeffs, rhs) in enumerate(rows):
                for j, c in coeffs.items():
                    a[i, j] += c
                b[i] = rhs
            return a, b

        a_eq_extra, b_eq_extra = dense(eq_rows)
        a_ub_extra, b_ub_extra = dense(leq_rows)
        return MILPArrays(
            c=base.c,
            a_ub=np.vstack([base.a_ub, a_ub_extra]) if len(leq_rows) else base.a_ub,
            b_ub=np.concatenate([base.b_ub, b_ub_extra]) if len(leq_rows) else base.b_ub,
            a_eq=np.vstack([base.a_eq, a_eq_extra]) if len(eq_rows) else base.a_eq,
            b_eq=np.concatenate([base.b_eq, b_eq_extra]) if len(eq_rows) else base.b_eq,
            lower=lower,
            upper=upper,
            binary_mask=base.binary_mask,
        )

    @staticmethod
    def _option_order(split, x: np.ndarray) -> list[int]:
        """Explore the phase the LP point already leans toward first."""
        if split.kind in ("relu", "leaky-relu"):
            pre = x[split.in_vars[0]]
            return [0, 1] if pre >= 0.0 else [1, 0]
        values = [x[var] for var in split.in_vars]
        return list(np.argsort(values)[::-1])
