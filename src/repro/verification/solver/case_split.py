"""Planet/ReLUplex-style case-splitting search (DPLL over LP).

The paper's Section V: "it is feasible to use exact verification methods
such as ReLUplex [8], Planet [5] or MILP-based approaches" — this module
is the non-MILP lineage.  The search state is a partial assignment of
*phases* to the split points recorded by the relaxed encoding.  It runs
on the node search branch-and-bound uses
(:func:`~repro.verification.solver.branch_bound.depth_first_search`):
one session holds the relaxation plus every phase option's rows, all
switched off at the root, and deciding a split switches on its chosen
option's rows and tightens that option's bounds.  At each node's LP point:

- every undecided split's exact semantics holds → **SAT** with that
  point as witness (undecided splits are fine — the point already
  realizes them);
- otherwise branch on the most violated split, LP-suggested phase first.

Exhausting the tree proves **UNSAT**.  Sound and complete for the same
problems as the big-M encoding; tests cross-check all three engines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.verification.milp.model import LinearConstraint, MILPArrays
from repro.verification.milp.relaxed import RelaxedProblem, SplitPoint
from repro.verification.solver.branch_bound import Branching, Node, depth_first_search
from repro.verification.solver.result import SolveResult

#: an LP point within this of every split's exact semantics is a witness
SEMANTICS_TOL = 1e-6


def most_violated(
    splits: list[SplitPoint], x: np.ndarray, decided: tuple[int, ...] = ()
) -> int | None:
    """The undecided split the LP point ``x`` violates most (``None``: none does)."""
    skip = set(decided)
    worst_index = None
    worst_violation = SEMANTICS_TOL
    for index, split in enumerate(splits):
        if index in skip:
            continue
        violation = split.violation(x)
        if violation > worst_violation:
            worst_violation = violation
            worst_index = index
    return worst_index


@dataclass
class PhaseSplitSolver:
    """DFS over ReLU/max phases with LP feasibility at every node."""

    node_limit: int = 100_000
    time_limit: float = 600.0

    def solve(self, problem: RelaxedProblem) -> SolveResult:
        splits = problem.splits
        arrays, owner = self._with_option_rows(problem)
        # option o of split s is numbered first[s] + o
        first = np.cumsum([0, *(len(split.options) for split in splits)])

        def branch(node: Node, x: np.ndarray) -> Branching:
            worst = most_violated(splits, x, node.decided)
            if worst is None:
                # LP point satisfies every neuron exactly: genuine witness
                return x, {"splits_decided": len(node.decided)}
            split = splits[worst]
            children = []
            # DFS: push less-promising phases first so the best pops first
            for option_index in reversed(self._option_order(split, x)):
                lower, upper = node.lower.copy(), node.upper.copy()
                for var, lo, hi in split.options[option_index].bounds:
                    lower[var] = max(lower[var], lo)
                    upper[var] = min(upper[var], hi)
                rows = node.rows | (owner == first[worst] + option_index)
                children.append(Node(lower, upper, rows, node.decided + (worst,)))
            return children

        return depth_first_search(
            arrays,
            branch,
            node_limit=self.node_limit,
            time_limit=self.time_limit,
            rows=owner < 0,
        )

    @staticmethod
    def _with_option_rows(problem: RelaxedProblem) -> tuple[MILPArrays, np.ndarray]:
        """The relaxation plus every phase option's rows, and each row's owner.

        ``owner[r]`` numbers the option that row ``r`` (in ``[a_ub; a_eq]``
        order) belongs to, split by split; it is -1 for the relaxation's
        own rows.
        """
        options = [option for split in problem.splits for option in split.options]
        leq = [(k, row) for k, option in enumerate(options) for row in option.leq_rows]
        eq = [(k, row) for k, option in enumerate(options) for row in option.eq_rows]
        model = problem.model
        arrays = replace(
            model,
            constraints=[
                *model.constraints,
                *(LinearConstraint(coeffs, "<=", rhs) for _, (coeffs, rhs) in leq),
                *(LinearConstraint(coeffs, "==", rhs) for _, (coeffs, rhs) in eq),
            ],
        ).to_arrays()
        n_ub = arrays.a_ub.shape[0]
        owner = np.full(n_ub + arrays.a_eq.shape[0], -1)
        owner[n_ub - len(leq) : n_ub] = [k for k, _ in leq]
        owner[owner.size - len(eq) :] = [k for k, _ in eq]
        return arrays, owner

    @staticmethod
    def _option_order(split, x: np.ndarray) -> list[int]:
        """Explore the phase the LP point already leans toward first."""
        if split.kind in ("relu", "leaky-relu"):
            pre = x[split.in_vars[0]]
            return [0, 1] if pre >= 0.0 else [1, 0]
        values = [x[var] for var in split.in_vars]
        return list(np.argsort(values)[::-1])
