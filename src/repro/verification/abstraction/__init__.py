"""Abstract interpretation over lowered network programs.

The paper cites abstract-interpretation verifiers (AI2 [6], symbolic
propagation [21]) as the way to obtain a sound over-approximation ``S``
of reachable cut-layer values (Lemma 2), and notes that box, octagon and
zonotope domains are the usual choices.  This subpackage implements all
of them as first-class engine backends behind one registry
(:mod:`repro.verification.abstraction.domain`):

- ``interval`` — box arithmetic over the primitive IR ops, also the
  source of MILP big-M bounds;
- ``octagon`` — box hulls plus adjacent-difference bounds
  (octagon-lite, the paper's Section V record);
- ``zonotope`` — affine forms with shared error symbols (the
  DeepZ-style transformer for ReLU);
- ``symbolic`` — linear input-relative bounds with a concrete interval
  sidecar (Neurify-style).

Every domain's only implementation surface is **batched** (scalar
analysis is a batch of one) and transformers live in a single registry
keyed by ``(op type, domain)``; propagation consumes cached
:class:`~repro.verification.ir.LoweredProgram` objects via
:func:`~repro.verification.abstraction.propagate.propagate_regions`.
"""

from repro.verification.abstraction.domain import (
    AbstractDomain,
    get_domain,
    precision_ladder,
    register_domain,
    register_transformer,
    registered_domains,
)
from repro.verification.abstraction.interval import (
    op_output_bounds,
    propagate_box,
)
from repro.verification.abstraction.octagon import (
    OctagonBatch,
    box_with_diffs_from_box,
    box_with_diffs_from_zonotope,
)
from repro.verification.abstraction.propagate import (
    IntervalBoundError,
    propagate_regions,
    region_boxes,
)
from repro.verification.abstraction.symbolic import (
    SymbolicBatch,
    SymbolicBounds,
    propagate_symbolic,
)
from repro.verification.abstraction.zonotope import (
    Zonotope,
    ZonotopeBatch,
    propagate_zonotope,
)

__all__ = [
    "AbstractDomain",
    "IntervalBoundError",
    "OctagonBatch",
    "SymbolicBatch",
    "SymbolicBounds",
    "Zonotope",
    "ZonotopeBatch",
    "box_with_diffs_from_box",
    "box_with_diffs_from_zonotope",
    "get_domain",
    "op_output_bounds",
    "precision_ladder",
    "propagate_box",
    "propagate_regions",
    "propagate_symbolic",
    "propagate_zonotope",
    "region_boxes",
    "register_domain",
    "register_transformer",
    "registered_domains",
]
