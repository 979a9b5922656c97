"""The node search over LP relaxations, and branch-and-bound on it.

:func:`depth_first_search` is the one search loop of both complete
solvers.  Each node solves the LP relaxation under that node's column
bounds and enforced rows:

- proven infeasible → prune;
- any other LP failure ends the search like a resource limit
  (``stats["limit"] == "lp"``): only a proof of infeasibility prunes;
- otherwise the solver's branching step either accepts the LP point as
  a solution or returns the node's children.

For feasibility problems (zero objective, the verification use case) the
first accepted solution decides SAT.  For optimization the incumbent
bound additionally prunes relaxations that cannot improve it.  All node
LPs of one search run on one :class:`~repro.verification.solver.lp.LPSession`,
so each node hot-starts from the previous node's basis.

:class:`BranchAndBoundSolver` branches on the binaries of the big-M
encoding: integral relaxations are feasible MILP assignments; fractional
ones branch on the most fractional binary (the branch agreeing with the
LP value is explored first).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from repro.verification.milp.model import MILPArrays, MILPModel
from repro.verification.solver.lp import LPSession
from repro.verification.solver.result import SolveResult, SolveStatus

_INT_TOL = 1e-6


class Node(NamedTuple):
    """One search node: a branching step copies an array before changing it."""

    lower: np.ndarray
    upper: np.ndarray
    rows: np.ndarray | None = None  #: enforced-row mask (``None``: every row)
    decided: tuple[int, ...] = ()  #: the splits fixed on the way down


#: a branching step's answer: the children in push order (the last one
#: is explored first), or an accepted ``(witness, stats)`` solution
Branching = Union[list[Node], tuple[np.ndarray, dict]]


def depth_first_search(
    arrays: MILPArrays,
    branch: Callable[[Node, np.ndarray], Branching],
    *,
    node_limit: int,
    time_limit: float,
    optimize: bool = False,
    rows: np.ndarray | None = None,
) -> SolveResult:
    """Search from the root node (``arrays``' bounds, ``rows`` enforced)."""
    start = time.perf_counter()
    session = LPSession(arrays)
    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf
    nodes = 0
    limit: str | None = None
    stats: dict = {}

    # stack of (node, parent LP objective) pairs; the root's parent bound
    # is -inf.  Each open node's parent bound is a valid lower bound on
    # every solution below it, so on a resource limit the minimum over
    # the stack is a sound global bound — the anytime gap the CEGAR
    # trace and range queries report.
    root = Node(arrays.lower, arrays.upper, rows)
    stack: list[tuple[Node, float]] = [(root, -np.inf)]

    while stack:
        remaining = time_limit - (time.perf_counter() - start)
        if nodes >= node_limit or remaining < 0:
            limit = "nodes" if nodes >= node_limit else "time"
            break
        node, parent_bound = stack.pop()
        nodes += 1
        relaxation = session.solve(node.lower, node.upper, remaining, node.rows)
        if relaxation.infeasible:
            continue
        if not relaxation.feasible:
            # the LP proved nothing: keep the node open for the bound
            stack.append((node, parent_bound))
            limit = "lp"
            break
        if optimize and relaxation.objective >= incumbent_obj - 1e-9:
            continue  # cannot improve the incumbent
        step = branch(node, relaxation.x)
        if isinstance(step, list):
            stack.extend((child, relaxation.objective) for child in step)
            continue
        witness, found = step
        if relaxation.objective < incumbent_obj:
            incumbent_obj, incumbent_x = relaxation.objective, witness
        if not optimize:
            stats = found  # feasibility: the first solution decides SAT
            break

    if optimize and incumbent_x is not None:
        stats["proved_optimal"] = limit is None
    if limit is not None:
        best_bound = min((bound for _, bound in stack), default=np.inf)
        stats["limit"] = limit
        stats["open_nodes"] = len(stack)
        stats["best_bound"] = min(best_bound, incumbent_obj)
    if incumbent_x is not None:
        status = SolveStatus.SAT
    else:
        status = SolveStatus.UNSAT if limit is None else SolveStatus.UNKNOWN
    return SolveResult(
        status=status,
        witness=incumbent_x,
        objective=None if incumbent_x is None else incumbent_obj,
        nodes_explored=nodes,
        solve_time=time.perf_counter() - start,
        stats=stats,
    )


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
        arrays = model.to_arrays()
        binary_idx = np.nonzero(arrays.binary_mask)[0]

        def branch(node: Node, x: np.ndarray) -> Branching:
            values = x[binary_idx]
            distance = np.abs(values - np.round(values))
            if distance.max(initial=0.0) <= _INT_TOL:
                # integral: a feasible MILP assignment
                witness = x.copy()
                witness[binary_idx] = np.round(values)
                return witness, {}
            j = int(binary_idx[np.argmax(distance)])  # the most fractional
            floor = Node(node.lower, node.upper.copy())
            floor.upper[j] = 0.0
            ceil = Node(node.lower.copy(), node.upper)
            ceil.lower[j] = 1.0
            # explore the side suggested by the LP value first
            return [floor, ceil] if x[j] >= 0.5 else [ceil, floor]

        return depth_first_search(
            arrays,
            branch,
            node_limit=self.node_limit,
            time_limit=self.time_limit,
            optimize=optimize,
        )
