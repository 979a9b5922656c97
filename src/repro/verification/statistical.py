"""Statistical reasoning for imperfect characterizers (Section III).

Table I of the paper decomposes the input distribution by the
characterizer decision and the ground truth:

    ============================  ==============  ==============
                                   in ∈ In_phi     in ∉ In_phi
    ============================  ==============  ==============
    ``h(f^(l)(in)) = 1``            alpha           beta
    ``h(f^(l)(in)) = 0``            gamma           1-alpha-beta-gamma
    ============================  ==============  ==============

A proof over ``{n̂ : h(n̂) = 1}`` misses the ``gamma`` mass of inputs
that satisfy ``phi`` but are rejected by ``h``, so the safety claim only
holds with probability ``1 - gamma`` (provided the training data itself
is safe).  This module estimates the four cells from labelled held-out
data and attaches exact Clopper–Pearson confidence bounds to ``gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def clopper_pearson_upper(successes: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided upper confidence bound for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if successes == trials:
        return 1.0
    # the ``confidence`` quantile of Beta(k + 1, n - k), straight from the
    # inverse regularized incomplete beta function: the value
    # ``scipy.stats.beta.ppf`` returns, without importing scipy.stats
    from scipy.special import betaincinv

    return float(betaincinv(successes + 1, trials - successes, confidence))


def clopper_pearson_lower(successes: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided lower confidence bound for a binomial proportion."""
    if successes == 0:
        return 0.0
    return 1.0 - clopper_pearson_upper(trials - successes, trials, confidence)


@dataclass(frozen=True)
class ConfusionEstimate:
    """Empirical Table I cells plus the derived statistical guarantee."""

    alpha: float  #: P(h = 1, phi holds)
    beta: float  #: P(h = 1, phi does not hold)
    gamma: float  #: P(h = 0, phi holds) — the dangerous cell
    delta: float  #: P(h = 0, phi does not hold)
    n: int  #: sample count behind the estimate
    gamma_count: int  #: raw count behind gamma
    confidence: float  #: confidence level of the bounds

    def __post_init__(self) -> None:
        total = self.alpha + self.beta + self.gamma + self.delta
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"cells must sum to 1, got {total}")

    @property
    def guarantee(self) -> float:
        """Point estimate of the ``1 - gamma`` safety probability."""
        return 1.0 - self.gamma

    @property
    def gamma_upper(self) -> float:
        """Clopper–Pearson upper bound on ``gamma``."""
        return clopper_pearson_upper(self.gamma_count, self.n, self.confidence)

    @property
    def guarantee_lower(self) -> float:
        """Conservative lower bound on the ``1 - gamma`` guarantee."""
        return 1.0 - self.gamma_upper

    @property
    def characterizer_accuracy(self) -> float:
        """P(h agrees with phi) = alpha + delta."""
        return self.alpha + self.delta

    @property
    def recall(self) -> float:
        """P(h = 1 | phi holds); 1 - recall relates gamma to the phi rate."""
        denom = self.alpha + self.gamma
        return self.alpha / denom if denom > 0.0 else float("nan")

    def summary(self) -> str:
        return (
            f"alpha={self.alpha:.4f} beta={self.beta:.4f} "
            f"gamma={self.gamma:.4f} delta={self.delta:.4f} "
            f"(n={self.n}); guarantee 1-gamma={self.guarantee:.4f}, "
            f">= {self.guarantee_lower:.4f} at {self.confidence:.0%} confidence"
        )


def estimate_confusion(
    h_decisions: np.ndarray,
    phi_labels: np.ndarray,
    confidence: float = 0.95,
) -> ConfusionEstimate:
    """Estimate Table I from held-out decisions and oracle labels.

    ``h_decisions`` are the characterizer's 0/1 outputs on
    ``f^(l)(in)``; ``phi_labels`` the ground-truth ``in ∈ In_phi``.
    """
    h = np.asarray(h_decisions).astype(bool).ravel()
    phi = np.asarray(phi_labels).astype(bool).ravel()
    if h.shape != phi.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {phi.shape}")
    n = h.shape[0]
    if n == 0:
        raise ValueError("cannot estimate from zero samples")
    alpha_count = int(np.sum(h & phi))
    beta_count = int(np.sum(h & ~phi))
    gamma_count = int(np.sum(~h & phi))
    delta_count = n - alpha_count - beta_count - gamma_count
    return ConfusionEstimate(
        alpha=alpha_count / n,
        beta=beta_count / n,
        gamma=gamma_count / n,
        delta=delta_count / n,
        n=n,
        gamma_count=gamma_count,
        confidence=confidence,
    )


def residual_risk_bound(
    confusion: ConfusionEstimate, proof_holds: bool
) -> float:
    """Probability bound on unsafe behaviour per Section III.

    When the conditional proof succeeded, the only unsafe mass is the
    ``gamma`` cell (phi inputs the characterizer rejects), bounded by its
    Clopper–Pearson upper bound.  Without a proof no bound follows.
    """
    if not proof_holds:
        return 1.0
    return confusion.gamma_upper


@dataclass(frozen=True)
class GammaCellAudit:
    """Result of the footnote-4 side condition check.

    The ``1 - gamma`` guarantee requires "all data points used in
    training h are also safe": for every labelled sample with
    ``h(f^(l)(in)) = 0`` and ``c = 1`` (the gamma cell), the network
    output must *not* satisfy the risk condition.  A violating sample is
    a concrete unsafe behaviour the proof never covered.
    """

    total_gamma_samples: int
    unsafe_indices: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.unsafe_indices

    def summary(self) -> str:
        if self.holds:
            return (
                f"footnote-4 condition holds: all {self.total_gamma_samples} "
                f"gamma-cell samples are safe"
            )
        return (
            f"footnote-4 condition VIOLATED: {len(self.unsafe_indices)} of "
            f"{self.total_gamma_samples} gamma-cell samples satisfy the risk "
            f"condition (indices {list(self.unsafe_indices)[:10]}...)"
        )


def audit_gamma_cell(
    outputs: np.ndarray,
    h_decisions: np.ndarray,
    phi_labels: np.ndarray,
    risk,
) -> GammaCellAudit:
    """Check footnote 4: gamma-cell samples must not satisfy ``psi``.

    ``outputs`` are the network outputs ``f^(L)(in)`` for the labelled
    samples; ``risk`` is the verified
    :class:`~repro.properties.risk.RiskCondition`.
    """
    outputs = np.asarray(outputs, dtype=float)
    h = np.asarray(h_decisions).astype(bool).ravel()
    phi = np.asarray(phi_labels).astype(bool).ravel()
    if outputs.shape[0] != h.shape[0] or h.shape != phi.shape:
        raise ValueError(
            f"inconsistent lengths: outputs {outputs.shape[0]}, "
            f"h {h.shape[0]}, phi {phi.shape[0]}"
        )
    gamma_mask = ~h & phi
    gamma_indices = np.nonzero(gamma_mask)[0]
    if gamma_indices.size == 0:
        return GammaCellAudit(total_gamma_samples=0, unsafe_indices=())
    risky = np.asarray(risk.satisfied(outputs[gamma_indices]), dtype=bool)
    unsafe = tuple(int(i) for i in gamma_indices[risky])
    return GammaCellAudit(
        total_gamma_samples=int(gamma_indices.size), unsafe_indices=unsafe
    )
