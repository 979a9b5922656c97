"""Fast incomplete pre-screening before the exact MILP solve.

Real verification stacks (the paper cites AI2 [6], symbolic propagation
[21]) run cheap sound bound propagation first and fall back to an exact
solver only when the bounds are inconclusive.  This module does the
same: propagate the feature set's hull through the suffix with any
registered abstract domain (``interval``, ``octagon``, ``zonotope``,
``symbolic`` — see :mod:`repro.verification.abstraction.domain`) and
check whether the risk condition is already *excluded* by the resulting
output enclosure.

- excluded  ⇒ UNSAT is certain (sound over-approximation) — skip MILP;
- otherwise ⇒ inconclusive; the exact solver must decide.

The characterizer conjunct is ignored here (dropping a constraint keeps
the over-approximation sound).

Both halves are batched.  :func:`output_enclosure_batch` propagates many
sets in one pass, and :func:`screen_enclosure` screens one risk against
a whole sequence of enclosures with one margin matrix, so the engine
makes one screen call per (ladder rung, risk), not one per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.graph import PiecewiseLinearNetwork
from repro.properties.risk import RiskCondition
from repro.verification.abstraction.domain import get_domain
from repro.verification.sets import BoxBatch, FeatureSet


@dataclass(frozen=True)
class PrescreenResult:
    """Outcome of the bound-propagation pre-screen."""

    excluded: bool  #: True: risk unreachable — property proved without MILP
    domain: str
    #: worst-case (largest) margin by which any risk inequality can still
    #: be satisfied under the output enclosure; <= 0 means excluded
    best_possible_margin: float


def output_enclosure(
    suffix: PiecewiseLinearNetwork,
    feature_set: FeatureSet,
    domain: str = "interval",
):
    """Risk-independent half of the pre-screen: the output enclosure.

    Propagates the feature set's interval hull through ``suffix`` with
    the chosen domain and returns that domain's per-region *enclosure
    value* (a :class:`~repro.verification.sets.Box` for ``interval`` /
    ``symbolic``, a zonotope for ``zonotope``, a box-with-diffs for
    ``octagon``).  The enclosure depends only on ``(feature_set,
    domain)``, so callers screening many risk conditions over one set
    (``repro.api.VerificationEngine``) compute it once and reuse it via
    :func:`screen_enclosure`.
    """
    return output_enclosure_batch(suffix, [feature_set], domain)[0]


def output_enclosure_batch(
    suffix: PiecewiseLinearNetwork,
    feature_sets: "Sequence[FeatureSet] | BoxBatch",
    domain: str = "interval",
) -> list:
    """Batched twin of :func:`output_enclosure` over many feature sets.

    Stacks the interval hulls of all sets into one
    :class:`~repro.verification.sets.BoxBatch` (or consumes a ready
    ``BoxBatch`` of hulls directly, skipping per-set materialization)
    and propagates them through ``suffix`` in a single vectorized pass
    of the domain's batched transformers, returning one enclosure value
    per set — each interchangeable with the scalar path's result in
    :func:`screen_enclosure`.
    """
    dom = get_domain(domain)
    if isinstance(feature_sets, BoxBatch):
        hulls = feature_sets.flat()
    elif not feature_sets:
        return []
    else:
        lowers, uppers = zip(*(fs.bounds() for fs in feature_sets))
        hulls = BoxBatch(np.stack(lowers), np.stack(uppers))
    element = dom.propagate(suffix, dom.lift(hulls))
    return dom.enclosures(element)


def screen_enclosure(
    enclosures: Sequence, risk: RiskCondition, domain: str
) -> list[PrescreenResult]:
    """Risk-dependent half: margin check against precomputed enclosures.

    One array computation for the whole sequence: the margin matrix
    ``b - min A·y`` over every enclosure
    (:meth:`~repro.verification.abstraction.domain.AbstractDomain.linear_lower_bounds`),
    one :class:`PrescreenResult` per enclosure.  A single enclosure is a
    batch of one.
    """
    a_matrix, b_vector = risk.as_matrix()
    margins = b_vector - get_domain(domain).linear_lower_bounds(enclosures, a_matrix)
    return [
        PrescreenResult(excluded=worst < 0.0, domain=domain, best_possible_margin=worst)
        for worst in margins.min(axis=1).tolist()
    ]


def prescreen(
    suffix: PiecewiseLinearNetwork,
    feature_set: FeatureSet,
    risk: RiskCondition,
    domain: str = "interval",
) -> PrescreenResult:
    """Try to refute reachability of ``risk`` by bound propagation.

    The risk is a conjunction ``A y <= b``; it is excluded if some row
    cannot be satisfied anywhere in the output enclosure, i.e. if
    ``min_{y in enclosure} a . y > b`` for some row — equivalently the
    row's best possible margin ``b - min a.y`` is negative.
    """
    if risk.dim != suffix.out_dim:
        raise ValueError(
            f"risk is over {risk.dim} outputs, network has {suffix.out_dim}"
        )
    enclosure = output_enclosure(suffix, feature_set, domain)
    return screen_enclosure([enclosure], risk, domain)[0]


def prescreen_batch(
    suffix: PiecewiseLinearNetwork,
    feature_sets: Sequence[FeatureSet],
    risk: RiskCondition,
    domain: str = "interval",
) -> list[PrescreenResult]:
    """Region-major prescreen: one risk over many feature sets.

    Semantically ``[prescreen(suffix, fs, risk, domain) for fs in
    feature_sets]`` but the enclosures are computed in one batched
    propagation pass (:func:`output_enclosure_batch`), so the cost is
    roughly that of a single scalar prescreen plus one margin matrix.
    """
    if risk.dim != suffix.out_dim:
        raise ValueError(
            f"risk is over {risk.dim} outputs, network has {suffix.out_dim}"
        )
    enclosures = output_enclosure_batch(suffix, feature_sets, domain)
    return screen_enclosure(enclosures, risk, domain)
