"""Solver backends behind a uniform registry.

- :mod:`repro.verification.solver.branch_bound` — our own
  branch-and-bound over LP relaxations, all node LPs of one search on
  one hot-started HiGHS instance;
- :mod:`repro.verification.solver.lp` — that LP oracle
  (:class:`~repro.verification.solver.lp.LPSession`); its answers are
  optimal, proven infeasible or unknown;
- :mod:`repro.verification.solver.highs` — direct hand-off to
  ``scipy.optimize.milp`` (HiGHS branch-and-cut), used to cross-check
  the home-grown solver in tests;
- :mod:`repro.verification.solver.case_split` — the Planet/ReLUplex
  lineage: DPLL(LP) case splitting over the *relaxed* (binary-free)
  encoding;
- :mod:`repro.verification.solver.result` — the shared
  SAT / UNSAT / UNKNOWN result type.

Every backend is registered with :func:`register_solver` under a
canonical name plus aliases, together with the **encoding** it consumes:

``"milp"``
    the exact big-M encoding
    (:func:`repro.verification.milp.encoder.encode_verification_problem`);
    the solver's ``solve``/``minimize`` take a
    :class:`~repro.verification.milp.model.MILPModel`.
``"relaxed"``
    the binary-free relaxation
    (:func:`repro.verification.milp.relaxed.encode_relaxed_problem`);
    ``solve`` takes a
    :class:`~repro.verification.milp.relaxed.RelaxedProblem`.

Callers (``repro.api.VerificationEngine``, the CEGAR loop) look up
:func:`solver_spec` to pick the right encoder instead of special-casing
solver names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.verification.solver.branch_bound import BranchAndBoundSolver
from repro.verification.solver.case_split import PhaseSplitSolver
from repro.verification.solver.highs import HighsSolver
from repro.verification.solver.result import SolveResult, SolveStatus

__all__ = [
    "BranchAndBoundSolver",
    "HighsSolver",
    "PhaseSplitSolver",
    "SolveResult",
    "SolveStatus",
    "SolverSpec",
    "make_solver",
    "register_solver",
    "solver_names",
    "solver_spec",
]

_ENCODINGS = ("milp", "relaxed")


@dataclass(frozen=True)
class SolverSpec:
    """Registry entry: how to build a backend and what it consumes."""

    name: str  #: canonical name
    factory: Callable[..., Any]
    encoding: str  #: "milp" (exact big-M) or "relaxed" (binary-free)
    aliases: tuple[str, ...] = ()
    supports_minimize: bool = True

    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)


_REGISTRY: dict[str, SolverSpec] = {}


def register_solver(
    name: str,
    factory: Callable[..., Any],
    *,
    encoding: str = "milp",
    aliases: tuple[str, ...] = (),
    supports_minimize: bool = True,
    overwrite: bool = False,
) -> SolverSpec:
    """Register a solver backend under ``name`` (plus ``aliases``).

    ``factory(**options)`` must return an object with
    ``solve(problem) -> SolveResult``; MILP-encoding backends that also
    optimize expose ``minimize``.  Re-registering a taken name raises
    unless ``overwrite=True`` (so typos do not shadow backends silently).
    """
    if encoding not in _ENCODINGS:
        raise ValueError(f"encoding must be one of {_ENCODINGS}, got {encoding!r}")
    spec = SolverSpec(
        name=name,
        factory=factory,
        encoding=encoding,
        aliases=tuple(aliases),
        supports_minimize=supports_minimize,
    )
    for key in spec.all_names():
        if key in _REGISTRY and not overwrite:
            raise ValueError(f"solver name {key!r} is already registered")
    # an overwrite replaces the *backend*: drop every name (including
    # aliases not re-claimed here) of each spec being displaced, so no
    # stale alias keeps dispatching to the old factory
    for key in spec.all_names():
        displaced = _REGISTRY.get(key)
        if displaced is not None:
            for alias in displaced.all_names():
                _REGISTRY.pop(alias, None)
    for key in spec.all_names():
        _REGISTRY[key] = spec
    return spec


def solver_spec(name: str) -> SolverSpec:
    """Look up a registered backend (canonical name or alias)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; known: {', '.join(solver_names())}"
        ) from None


def solver_names() -> list[str]:
    """Canonical names of all registered backends, sorted."""
    return sorted({spec.name for spec in _REGISTRY.values()})


def make_solver(name: str, **kwargs):
    """Instantiate a registered backend by name or alias."""
    return solver_spec(name).factory(**kwargs)


register_solver(
    "branch-and-bound", BranchAndBoundSolver, encoding="milp", aliases=("bb",)
)
register_solver("highs", HighsSolver, encoding="milp")
register_solver(
    "phase-split",
    PhaseSplitSolver,
    encoding="relaxed",
    aliases=("planet",),
    supports_minimize=False,
)
