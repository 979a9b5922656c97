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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.api.campaign import Campaign
    from repro.api.engine import VerificationEngine
    from repro.api.query import VerificationQuery
    from repro.core.verdict import Verdict, VerificationVerdict

__version__ = "1.1.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api.campaign": ("Campaign",),
        "repro.api.engine": ("VerificationEngine",),
        "repro.api.query": ("VerificationQuery",),
        "repro.core.verdict": ("Verdict", "VerificationVerdict"),
    },
)
__all__.append("__version__")
