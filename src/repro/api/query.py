"""The declarative query layer.

One :class:`VerificationQuery` captures everything the paper's
Definition 1 workflow needs to answer one question — "check risk ``psi``
under scene property ``phi`` over feature set ``S~``" — plus *how* to
answer it (method, solver backend, budget).  Queries are frozen value
objects: the :class:`~repro.api.engine.VerificationEngine` plans and
caches around them, and campaigns serialize them for provenance.

Methods
-------

``exact``
    The full strategy ladder: sound bound-propagation pre-screen, then a
    relaxation-LP screen, then the complete solver, with an optional
    refinement fallback when the solver hits its limits.
``relaxed``
    Incomplete but cheap: pre-screen plus the relaxation LP only.  The
    LP refuting feasibility is a proof; an LP point that satisfies the
    exact neuron semantics is a genuine counterexample; anything else
    is ``UNKNOWN``.
``refine``
    The layer-wise incremental abstraction refinement loop
    (:func:`repro.verification.refinement.verify_with_refinement`).
``cegar``
    Counterexample-guided refinement of the feature set's *input
    region* (:class:`repro.verification.cegar.CegarLoop`): anytime,
    budgeted (``refine_budget``) and resumable — repeating the same
    query spends a fresh budget on the surviving frontier.  Needs a
    feature set with input-region provenance
    (:meth:`~repro.api.engine.VerificationEngine.add_region_sets` or
    :meth:`~repro.api.engine.VerificationEngine.add_static_feature_set`).
``robustness``
    The local-robustness baseline around a concrete feature vector
    (:func:`repro.verification.robustness.verify_local_robustness`).
``range``
    Exact output-range analysis of one output coordinate
    (:func:`repro.verification.output_range.output_range` semantics).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.properties.risk import RiskCondition


class Method(enum.Enum):
    """How a :class:`VerificationQuery` should be answered.

    Examples
    --------
    >>> Method("exact") is Method.EXACT
    True
    >>> sorted(m.value for m in Method)
    ['cegar', 'exact', 'range', 'refine', 'relaxed', 'robustness']
    """

    EXACT = "exact"
    RELAXED = "relaxed"
    REFINE = "refine"
    CEGAR = "cegar"
    ROBUSTNESS = "robustness"
    RANGE = "range"


#: methods that answer a Definition 1 reachability question on a risk
VERDICT_METHODS = (Method.EXACT, Method.RELAXED, Method.REFINE, Method.CEGAR)


@dataclass(frozen=True)
class VerificationQuery:
    """One declarative verification question.

    Parameters
    ----------
    risk : RiskCondition, optional
        The undesired output region ``psi`` (required for the verdict
        methods ``exact`` / ``relaxed`` / ``refine`` / ``cegar``).
    property_name : str, optional
        Selects the characterizer ``phi`` conjunct; ``None`` drops it.
    set_name : str, optional
        Names a feature set registered with the engine.
    method : Method or str, optional
        How to answer; see :class:`Method`.
    solver : str, optional
        Overrides the engine's default backend for this query.
    domain : str or None, optional
        Abstract domain of the query's bound-propagation work (any
        registered name: ``"interval"``, ``"octagon"``, ``"zonotope"``,
        ``"symbolic"``).  The engine screens through its precision
        ladder up to this domain and CEGAR prescreens frontiers with
        it.  ``None`` skips the prescreen entirely.
    time_limit, node_limit : float, int, optional
        Resource budgets for the complete backend.
    refine_budget : int, optional
        CEGAR subproblem budget for ``cegar`` queries and the engine's
        cegar fallback (``None`` uses the engine default).
    structural : bool, optional
        ``cegar`` only: enable the structural (neuron-merging)
        refinement axis — the loop starts from a merged suffix program
        and splits merged neuron groups when that shrinks the violating
        output bound more than splitting the region would
        (:mod:`repro.verification.abstraction.merge`).
    anchor, epsilon, delta : optional
        Robustness-only: an L∞ ball of radius ``epsilon`` at ``anchor``
        must keep outputs within ``delta``.
    output_index : int, optional
        Range-only: which output coordinate to bound.

    Examples
    --------
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> risk = RiskCondition("far-left", (output_geq(2, 0, 2.0),))
    >>> query = VerificationQuery(risk=risk, property_name="bends_right")
    >>> query.name
    'exact phi=bends_right psi=far-left set=data'
    >>> query.to_dict()["method"]
    'exact'
    >>> VerificationQuery(risk=risk, method="cegar", refine_budget=32).method
    <Method.CEGAR: 'cegar'>
    >>> VerificationQuery(risk=risk, method="cegar", structural=True).structural
    True
    """

    risk: RiskCondition | None = None
    property_name: str | None = None
    set_name: str = "data"
    method: Method = Method.EXACT
    solver: str | None = None
    #: abstract domain of prescreen/CEGAR work; None skips the prescreen
    domain: str | None = "interval"
    time_limit: float | None = None
    node_limit: int | None = None
    #: CEGAR subproblem budget for ``cegar`` queries and the engine's
    #: cegar fallback (``None`` uses the engine default)
    refine_budget: int | None = None
    #: cegar-only: enable the structural (neuron-merging) refinement axis
    structural: bool = False
    # robustness-only parameters
    anchor: tuple[float, ...] | None = None
    epsilon: float | None = None
    delta: float | None = None
    # range-only parameter
    output_index: int = 0
    label: str | None = None
    metadata: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if isinstance(self.method, str):
            object.__setattr__(self, "method", Method(self.method))
        if self.method in VERDICT_METHODS and self.risk is None:
            raise ValueError(f"{self.method.value} queries need a risk condition")
        if self.domain is not None:
            from repro.verification.abstraction import get_domain

            get_domain(self.domain)  # fail fast on unknown names
        if self.method is Method.ROBUSTNESS:
            if self.anchor is None or self.epsilon is None or self.delta is None:
                raise ValueError(
                    "robustness queries need anchor, epsilon and delta"
                )
            object.__setattr__(
                self, "anchor", tuple(float(v) for v in self.anchor)
            )
            if self.epsilon <= 0.0 or self.delta <= 0.0:
                raise ValueError(
                    f"epsilon and delta must be positive, got "
                    f"{self.epsilon}/{self.delta}"
                )
        if self.output_index < 0:
            raise ValueError(f"output_index must be >= 0, got {self.output_index}")
        if self.time_limit is not None and self.time_limit <= 0.0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError(f"node_limit must be positive, got {self.node_limit}")
        if self.refine_budget is not None and self.refine_budget <= 0:
            raise ValueError(
                f"refine_budget must be positive, got {self.refine_budget}"
            )
        if self.structural and self.method is not Method.CEGAR:
            raise ValueError(
                f"structural=True is a cegar-only option, got method "
                f"{self.method.value!r}"
            )

    @property
    def name(self) -> str:
        """Human-readable identifier for reports."""
        if self.label is not None:
            return self.label
        phi = self.property_name or "*"
        if self.method is Method.ROBUSTNESS:
            return f"robustness(eps={self.epsilon:g}, delta={self.delta:g})"
        if self.method is Method.RANGE:
            return f"range[{self.output_index}] phi={phi} set={self.set_name}"
        psi = self.risk.name if self.risk is not None else "*"
        return f"{self.method.value} phi={phi} psi={psi} set={self.set_name}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description (for campaign provenance)."""
        out: dict[str, Any] = {
            "method": self.method.value,
            "property": self.property_name,
            "set": self.set_name,
            "label": self.name,
        }
        if self.risk is not None:
            out["risk"] = self.risk.name
            # the name alone cannot distinguish threshold-sweep queries;
            # the description carries the concrete parameters
            out["risk_description"] = self.risk.description
        if self.solver is not None:
            out["solver"] = self.solver
        if self.method is Method.ROBUSTNESS:
            out["epsilon"] = self.epsilon
            out["delta"] = self.delta
        if self.method is Method.RANGE:
            out["output_index"] = self.output_index
        if self.refine_budget is not None:
            out["refine_budget"] = self.refine_budget
        if self.structural:
            out["structural"] = True
        if self.domain != "interval":
            # None (prescreen skipped) is provenance too: emit it as null
            out["domain"] = self.domain
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out
