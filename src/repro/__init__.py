"""repro — safety verification of direct perception neural networks.

A from-scratch reproduction of

    Cheng, Huang, Brunner, Hashemi:
    "Towards Safety Verification of Direct Perception Neural Networks",
    DATE 2020 (arXiv:1904.04706).

The package is organised as a stack:

``repro.nn``
    A numpy deep-learning framework (layers, training, serialization)
    standing in for TensorFlow.
``repro.scenario``
    A parametric synthetic road-scene generator standing in for the
    proprietary Audi A9 highway recordings.
``repro.perception``
    Direct-perception network builders and the learned *input property
    characterizer* of Section II.A of the paper.
``repro.properties``
    The specification DSL: input properties ``phi`` and linear risk
    conditions ``psi``.
``repro.verification``
    The paper's contribution: layer abstraction (Lemmas 1 and 2),
    assume-guarantee feature sets, a MILP encoding of the close-to-output
    sub-network, exact solvers, and the statistical guarantee of
    Section III.
``repro.monitor``
    The runtime monitor discharging the assume-guarantee assumption.
``repro.core``
    The end-to-end workflow of Figure 1.
``repro.api``
    The declarative query API: frozen verification queries, campaign
    grids, and the planning/caching engine with parallel execution.
"""

__version__ = "1.1.0"

__all__ = [
    "Campaign",
    "Verdict",
    "VerificationEngine",
    "VerificationQuery",
    "VerificationVerdict",
    "__version__",
]


def __getattr__(name: str):
    """Lazy top-level re-exports (avoids importing the full stack eagerly)."""
    if name in ("Verdict", "VerificationVerdict"):
        from repro.core import verdict

        return getattr(verdict, name)
    if name in ("Campaign", "VerificationEngine", "VerificationQuery"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
