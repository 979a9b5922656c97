"""End-to-end workflow (Figure 1 of the paper).

The workflow runs on :class:`repro.api.VerificationEngine`, which owns
cut-layer selection, characterizer attachment, feature-set construction
(data-derived ``S~`` or statically propagated ``S``), encoding caches,
solving and verdict interpretation.  :mod:`repro.core.pipeline` builds a
fully trained system from a config in one call and hands out its engine
as ``system.engine``; batch queries with :class:`repro.api.Campaign`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import ExperimentConfig
    from repro.core.pipeline import VerifiedSystem, build_verified_system
    from repro.core.verdict import Verdict, VerificationVerdict

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("ExperimentConfig",),
        "repro.core.pipeline": ("VerifiedSystem", "build_verified_system"),
        "repro.core.verdict": ("Verdict", "VerificationVerdict"),
    },
)
