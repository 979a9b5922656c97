"""Risk conditions ``psi``: conjunctions of linear inequalities on outputs.

Every inequality is normalized to the form ``coeffs . y <= rhs`` so the
MILP encoder can add it verbatim.  A :class:`RiskCondition` describes the
*undesired* output region: verification asks whether it is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

_OPS = ("<=", ">=")


@dataclass(frozen=True)
class LinearInequality:
    """``coeffs . y (<=|>=) rhs`` over the network output vector ``y``."""

    coeffs: tuple[float, ...]
    op: str
    rhs: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if not self.coeffs or not any(c != 0.0 for c in self.coeffs):
            raise ValueError("inequality needs at least one non-zero coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def normalized(self) -> tuple[np.ndarray, float]:
        """Return ``(a, b)`` such that the inequality is ``a . y <= b``."""
        a = np.asarray(self.coeffs, dtype=float)
        if self.op == "<=":
            return a, self.rhs
        return -a, -self.rhs

    def satisfied(self, y: np.ndarray, tol: float = 1e-9) -> np.ndarray | bool:
        """Evaluate on an output vector or a batch of them."""
        a, b = self.normalized()
        y = np.asarray(y, dtype=float)
        values = y @ a
        return values <= b + tol

    def margin(self, y: np.ndarray) -> np.ndarray | float:
        """``b - a . y``; non-negative iff satisfied."""
        a, b = self.normalized()
        return b - np.asarray(y, dtype=float) @ a

    def __str__(self) -> str:
        terms = " + ".join(
            f"{c:g}*y[{i}]" for i, c in enumerate(self.coeffs) if c != 0.0
        )
        return f"{terms} {self.op} {self.rhs:g}"


@dataclass(frozen=True)
class RiskCondition:
    """Conjunction of linear inequalities describing undesired outputs."""

    name: str
    inequalities: tuple[LinearInequality, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.inequalities:
            raise ValueError("a risk condition needs at least one inequality")
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        dims = {ineq.dim for ineq in self.inequalities}
        if len(dims) != 1:
            raise ValueError(f"inconsistent inequality dimensions: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.inequalities[0].dim

    def margins(self, y: np.ndarray) -> np.ndarray:
        """Per-inequality margins ``b - A y``, shape ``(..., len(inequalities))``."""
        a, b = self.as_matrix()
        return b - np.asarray(y, dtype=float) @ a.T

    def satisfied(self, y: np.ndarray, tol: float = 1e-9) -> np.ndarray | bool:
        """True where *all* inequalities hold (the risk occurs)."""
        return self.margin(y) >= -tol

    def margin(self, y: np.ndarray) -> np.ndarray | float:
        """Worst (most violated) inequality margin; >= 0 iff psi holds."""
        return self.margins(y).min(axis=-1)

    def as_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked normalized form ``A y <= b`` (one row per inequality).

        Built on the first call and kept on the instance (outside its
        fields, so equality, hashing and pickling ignore it); both
        arrays are read-only.
        """
        matrix = self.__dict__.get("_matrix")
        if matrix is None:
            rows = [ineq.normalized() for ineq in self.inequalities]
            a = np.stack([r[0] for r in rows])
            b = np.array([r[1] for r in rows])
            a.flags.writeable = b.flags.writeable = False
            matrix = (a, b)
            object.__setattr__(self, "_matrix", matrix)
        return matrix

    def __hash__(self) -> int:
        """The fields' hash, computed once per instance: batches group
        their queries by risk."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.inequalities, self.description))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_matrix", None)
        state.pop("_hash", None)  # string hashes differ between processes
        return state

    def __str__(self) -> str:
        body = " AND ".join(str(ineq) for ineq in self.inequalities)
        return f"{self.name}: {body}"


def output_leq(dim: int, index: int, threshold: float) -> LinearInequality:
    """Inequality ``y[index] <= threshold``."""
    coeffs = [0.0] * dim
    coeffs[index] = 1.0
    return LinearInequality(tuple(coeffs), "<=", threshold)


def output_geq(dim: int, index: int, threshold: float) -> LinearInequality:
    """Inequality ``y[index] >= threshold``."""
    coeffs = [0.0] * dim
    coeffs[index] = 1.0
    return LinearInequality(tuple(coeffs), ">=", threshold)


def output_in_band(
    dim: int, index: int, low: float, high: float
) -> Iterable[LinearInequality]:
    """Pair of inequalities ``low <= y[index] <= high``."""
    if low > high:
        raise ValueError(f"empty band: [{low}, {high}]")
    return (output_geq(dim, index, low), output_leq(dim, index, high))
