"""LP relaxation oracle: one hot-started HiGHS instance per search.

An :class:`LPSession` loads an LP's constraint rows into HiGHS once.
Each :meth:`LPSession.solve` then changes only the column bounds and
the rows it switches on or off, and re-runs, so dual simplex starts
from the previous solve's basis.  The node search both complete solvers
share opens one session per search and solves every node on it.
:func:`solve_lp_relaxation` is a one-shot session.

The fast path uses scipy's bundled HiGHS binding
(``scipy.optimize._highspy``), a private module.  When it cannot be
imported, every solve goes through ``scipy.optimize.linprog`` instead:
the same answers, ~10× slower on branch-and-bound.  ``HIGHS_BINDING``
says which path is active.

Every solve is three-way (:class:`LPStatus`).  Only a proven
infeasibility may prune a node or decide UNSAT; an LP that stops for
any other reason (time or iteration limit, numerical trouble, an
unbounded or undecided status) is ``UNKNOWN``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

from repro.verification.milp.model import MILPArrays

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover - a scipy release moved the module
    _highs = None

#: True when sessions run on the bundled HiGHS binding, False on the
#: ``linprog`` fallback
HIGHS_BINDING = _highs is not None


class LPStatus(enum.Enum):
    """How an LP solve ended."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"  #: proven: the only status that may prune
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LPResult:
    """Outcome of one LP relaxation solve."""

    status: LPStatus
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def feasible(self) -> bool:
        """Solved to optimality (``x`` and ``objective`` are set)."""
        return self.status is LPStatus.OPTIMAL

    @property
    def infeasible(self) -> bool:
        """Proven infeasible."""
        return self.status is LPStatus.INFEASIBLE


class LPSession:
    """One LP's rows, solved repeatedly under changing column bounds.

    A solve may also switch rows off: a row mask covers the rows in
    ``[a_ub; a_eq]`` order, and a row that is off has bounds
    (-inf, +inf).  Holds a native solver instance: create one per
    search and do not share it across threads or processes.
    """

    def __init__(self, arrays: MILPArrays) -> None:
        self.arrays = arrays
        n_ub = arrays.a_ub.shape[0]
        #: each row's ``(lhs, rhs)`` in ``lhs <= A x <= rhs`` while it is enforced
        self._row_bounds = np.array(
            [
                np.concatenate([np.full(n_ub, -np.inf), arrays.b_eq]),
                np.concatenate([arrays.b_ub, arrays.b_eq]),
            ]
        )
        self._all_rows = np.ones(self._row_bounds.shape[1], dtype=bool)
        self._enforced = self._all_rows  #: the rows the HiGHS instance enforces
        self._highs = _load_highs(arrays, *self._row_bounds) if HIGHS_BINDING else None
        self._columns = np.arange(arrays.num_vars, dtype=np.int32)

    def solve(
        self,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        time_limit: float | None = None,
        rows: np.ndarray | None = None,
    ) -> LPResult:
        """Minimize ``c . x`` with the variable bounds replaced by ``lower``/``upper``.

        ``time_limit`` (seconds) bounds this one solve; running out
        gives ``UNKNOWN``.  ``rows`` is the mask of enforced rows
        (``None`` enforces every row).
        """
        lo = self.arrays.lower if lower is None else lower
        hi = self.arrays.upper if upper is None else upper
        if np.any(lo > hi):
            return LPResult(LPStatus.INFEASIBLE)
        enforced = self._all_rows if rows is None else rows
        if self._highs is None:
            return _solve_linprog(self.arrays, lo, hi, time_limit, enforced)
        highs = self._highs
        if enforced is not self._enforced:
            for row in np.flatnonzero(enforced != self._enforced):
                on = enforced[row]
                lhs, rhs = self._row_bounds[:, row] if on else (-np.inf, np.inf)
                highs.changeRowBounds(int(row), lhs, rhs)
            self._enforced = enforced
        highs.changeColsBounds(
            lo.size,
            self._columns,
            np.ascontiguousarray(lo, dtype=float),
            np.ascontiguousarray(hi, dtype=float),
        )
        # HiGHS compares its limit with the run time summed over every
        # run of this instance
        budget = np.inf if time_limit is None else max(time_limit, 0.0)
        highs.setOptionValue("time_limit", highs.getRunTime() + budget)
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            return LPResult(
                LPStatus.OPTIMAL,
                x=np.asarray(highs.getSolution().col_value),
                objective=float(highs.getObjectiveValue()),
            )
        if status == _highs.HighsModelStatus.kInfeasible:
            return LPResult(LPStatus.INFEASIBLE)
        return LPResult(LPStatus.UNKNOWN)


def solve_lp_relaxation(
    arrays: MILPArrays,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    time_limit: float | None = None,
) -> LPResult:
    """Solve one LP relaxation (a one-shot :class:`LPSession`)."""
    return LPSession(arrays).solve(lower, upper, time_limit)


def _load_highs(arrays: MILPArrays, row_lower: np.ndarray, row_upper: np.ndarray):
    """A quiet HiGHS instance holding ``row_lower <= A x <= row_upper``."""
    n_rows = row_lower.size
    matrix = csc_matrix(np.vstack([arrays.a_ub, arrays.a_eq]))
    lp = _highs.HighsLp()
    lp.num_col_ = arrays.num_vars
    lp.num_row_ = n_rows
    lp.col_cost_ = np.asarray(arrays.c, dtype=float)
    lp.col_lower_ = np.asarray(arrays.lower, dtype=float)
    lp.col_upper_ = np.asarray(arrays.upper, dtype=float)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = arrays.num_vars
    lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(lp)
    return highs


def _solve_linprog(
    arrays: MILPArrays,
    lo: np.ndarray,
    hi: np.ndarray,
    time_limit: float | None,
    rows: np.ndarray,
) -> LPResult:
    """The fallback: one cold ``scipy.optimize.linprog`` call, enforced ``rows`` only."""
    from scipy.optimize import linprog

    ub, eq = rows[: arrays.a_ub.shape[0]], rows[arrays.a_ub.shape[0] :]
    result = linprog(
        c=arrays.c,
        A_ub=arrays.a_ub[ub] if ub.any() else None,
        b_ub=arrays.b_ub[ub] if ub.any() else None,
        A_eq=arrays.a_eq[eq] if eq.any() else None,
        b_eq=arrays.b_eq[eq] if eq.any() else None,
        bounds=np.column_stack([lo, hi]),
        method="highs",
        options={} if time_limit is None else {"time_limit": max(time_limit, 0.0)},
    )
    if result.status == 0:
        return LPResult(
            LPStatus.OPTIMAL, x=np.asarray(result.x), objective=float(result.fun)
        )
    # linprog status 2 is its "infeasible"; 1 (limits), 3 (unbounded)
    # and 4 (numerical, or HiGHS's "unbounded or infeasible") prove nothing
    return LPResult(LPStatus.INFEASIBLE if result.status == 2 else LPStatus.UNKNOWN)
