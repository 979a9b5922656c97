"""Verification verdicts."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.properties.risk import RiskCondition
    from repro.verification.counterexample import FeatureCounterexample
    from repro.verification.solver.result import SolveResult
    from repro.verification.statistical import ConfusionEstimate


class Verdict(enum.Enum):
    """Outcome of a safety verification query (Definition 1).

    ``SAFE``
        Proved over a *sound* over-approximation ``S`` (Lemma 2): holds
        for every input of the network, unconditionally.
    ``CONDITIONALLY_SAFE``
        Proved over the data-derived ``S~`` (Section II.B.b): holds as
        long as the runtime monitor confirms ``f^(l)(in) ∈ S~``.
    ``UNSAFE_IN_SET``
        The solver found a cut-layer vector inside the set that triggers
        the risk while the characterizer accepts — a feature-space
        counterexample candidate.
    ``UNKNOWN``
        Solver resource limits were hit.
    """

    SAFE = "safe"
    CONDITIONALLY_SAFE = "conditionally-safe"
    UNSAFE_IN_SET = "unsafe-in-set"
    UNKNOWN = "unknown"


@dataclass
class VerificationVerdict:
    """Verdict plus all evidence needed to audit it."""

    verdict: Verdict
    property_name: str | None
    risk: RiskCondition
    feature_set_kind: str
    monitored: bool  #: True when the proof requires the runtime monitor
    solve_result: SolveResult
    counterexample: FeatureCounterexample | None = None
    confusion: ConfusionEstimate | None = None

    @property
    def proved(self) -> bool:
        return self.verdict in (Verdict.SAFE, Verdict.CONDITIONALLY_SAFE)

    @property
    def statistical_guarantee(self) -> float | None:
        """Lower bound on the ``1 - gamma`` probability (Section III).

        Only meaningful for proved verdicts with an attached confusion
        estimate; ``None`` otherwise.
        """
        if not self.proved or self.confusion is None:
            return None
        return self.confusion.guarantee_lower

    def summary(self) -> str:
        phi = self.property_name or "(no input constraint)"
        lines = [
            f"phi={phi}  psi={self.risk.name}  set={self.feature_set_kind}",
            f"verdict: {self.verdict.value}"
            + (" [monitor required]" if self.monitored and self.proved else ""),
            f"solver: {self.solve_result.status.value} in "
            f"{self.solve_result.solve_time:.3f}s, "
            f"{self.solve_result.nodes_explored} nodes",
        ]
        if self.counterexample is not None:
            lines.append(
                f"counterexample output: {self.counterexample.predicted_output} "
                f"(risk margin {self.counterexample.risk_margin:+.4f})"
            )
        guarantee = self.statistical_guarantee
        if guarantee is not None:
            lines.append(f"statistical guarantee: >= {guarantee:.4f}")
        return "\n".join(lines)
