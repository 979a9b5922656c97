"""The paper's verification stack.

- :mod:`repro.verification.sets` — feature-set abstractions ``S`` / ``S~``
  over the cut-layer neuron vector (box, box + adjacent differences,
  general polyhedron);
- :mod:`repro.verification.assume_guarantee` — building ``S~`` from the
  training data (Section II.B.b);
- :mod:`repro.verification.abstraction` — abstract interpretation
  (interval, zonotope, octagon-difference) for sound sets ``S``
  (Lemma 2) and for MILP big-M bounds;
- :mod:`repro.verification.milp` — the reduction of Definition 1 to
  mixed-integer linear programming (Section V);
- :mod:`repro.verification.solver` — an exact branch-and-bound solver
  over LP relaxations plus a HiGHS backend;
- :mod:`repro.verification.statistical` — the Table I / Section III
  ``1 - gamma`` statistical guarantee;
- :mod:`repro.verification.counterexample` — witness decoding and
  adversarial falsification.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.verification.assume_guarantee import (
        box_from_data,
        box_with_diffs_from_data,
        feature_set_from_data,
    )
    from repro.verification.cegar import (
        CegarConfig,
        CegarLoop,
        CegarResult,
        RefinementRound,
        RefinementTrace,
        refine_region,
    )
    from repro.verification.output_range import OutputRange, output_range
    from repro.verification.prescreen import PrescreenResult, prescreen
    from repro.verification.refinement import (
        RefinementResult,
        encode_chained_problem,
        verify_with_refinement,
    )
    from repro.verification.robustness import (
        RobustnessResult,
        maximal_robust_radius,
        verify_local_robustness,
    )
    from repro.verification.sets import Box, BoxWithDiffs, FeatureSet, Polyhedron
    from repro.verification.statistical import (
        ConfusionEstimate,
        GammaCellAudit,
        audit_gamma_cell,
        estimate_confusion,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.verification.assume_guarantee": (
            "box_from_data",
            "box_with_diffs_from_data",
            "feature_set_from_data",
        ),
        "repro.verification.cegar": (
            "CegarConfig",
            "CegarLoop",
            "CegarResult",
            "RefinementRound",
            "RefinementTrace",
            "refine_region",
        ),
        "repro.verification.output_range": ("OutputRange", "output_range"),
        "repro.verification.prescreen": ("PrescreenResult", "prescreen"),
        "repro.verification.refinement": (
            "RefinementResult",
            "encode_chained_problem",
            "verify_with_refinement",
        ),
        "repro.verification.robustness": (
            "RobustnessResult",
            "maximal_robust_radius",
            "verify_local_robustness",
        ),
        "repro.verification.sets": ("Box", "BoxWithDiffs", "FeatureSet", "Polyhedron"),
        "repro.verification.statistical": (
            "ConfusionEstimate",
            "GammaCellAudit",
            "audit_gamma_cell",
            "estimate_confusion",
        ),
    },
)
