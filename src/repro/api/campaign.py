"""Campaign construction and reporting.

A :class:`Campaign` is an ordered list of
:class:`~repro.api.query.VerificationQuery` objects with a builder API
that expands property × risk × feature-set grids — the "verify every
risk threshold for every scene property" workloads the benchmarks run.
:class:`CampaignReport` is what
:meth:`repro.api.engine.VerificationEngine.run` returns: per-query
results with timing and cache provenance, JSON-serializable for
dashboards and CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.core.verdict import VerificationVerdict
from repro.properties.risk import RiskCondition
from repro.api.query import Method, VerificationQuery
from repro.verification.cegar import CegarResult
from repro.verification.output_range import OutputRange
from repro.verification.refinement import RefinementResult
from repro.verification.robustness import RobustnessResult

if TYPE_CHECKING:
    from repro.scenario.regions import RegionGrid


@dataclass
class Campaign:
    """An ordered batch of verification queries.

    Build explicitly with :meth:`add`, or declaratively with
    :meth:`add_grid`, which expands the cartesian product of risks,
    properties and feature sets into one query each.

    Parameters
    ----------
    name : str, optional
        Report label.
    queries : list of VerificationQuery, optional
        Seed queries (usually grown via the builder methods).

    Examples
    --------
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> risks = [RiskCondition(f"t{t}", (output_geq(2, 0, t),)) for t in (1, 2)]
    >>> campaign = Campaign("sweep").add_grid(
    ...     risks=risks, properties=("bends_right", None))
    >>> len(campaign)
    4
    >>> campaign[0].property_name
    'bends_right'
    """

    name: str = "campaign"
    queries: list[VerificationQuery] = field(default_factory=list)

    def add(self, *queries: VerificationQuery) -> "Campaign":
        """Append explicit queries; returns ``self`` for chaining."""
        self.queries.extend(queries)
        return self

    @classmethod
    def from_scenario_grid(
        cls,
        grid: "RegionGrid",
        risks: Sequence[RiskCondition],
        properties: Sequence[str | None] = (None,),
        name: str = "scenario-grid",
        method: Method | str = Method.EXACT,
        solver: str | None = None,
        domain: str | None = "interval",
        time_limit: float | None = None,
        node_limit: int | None = None,
        refine_budget: int | None = None,
    ) -> "Campaign":
        """Region-major campaign over a scenario region grid.

        ``grid`` is a :class:`~repro.scenario.regions.RegionGrid`; its
        region names are used as feature-set names, so register the grid
        with :meth:`repro.api.VerificationEngine.add_region_sets` before
        running.  Expands ``regions × properties × risks`` with regions
        outermost (the order the engine's batched prescreen planner and
        the per-(set, characterizer) encoding caches like best) and
        stamps each query's ``metadata`` with the region's scenario
        provenance (perturbation axis values).
        """
        if not risks:
            raise ValueError("from_scenario_grid needs at least one risk condition")
        # an eager grid campaign implies O(grid) engine-side copies
        # (input boxes, feature sets, per-query results); reject sizes
        # that cannot fit before anything is allocated, pointing at the
        # constant-memory streaming path
        from repro.scenario.regions import ensure_regions_fit

        pixels = int(grid[0].lower.size) if len(grid) else 0
        ensure_regions_fit(
            len(grid), pixels, what=f"scenario-grid campaign {name!r}"
        )
        campaign = cls(name)
        for region in grid:
            for prop in properties:
                for risk in risks:
                    campaign.queries.append(
                        VerificationQuery(
                            risk=risk,
                            property_name=prop,
                            set_name=region.name,
                            method=method,
                            solver=solver,
                            domain=domain,
                            time_limit=time_limit,
                            node_limit=node_limit,
                            refine_budget=refine_budget,
                            metadata=region.metadata(),
                        )
                    )
        return campaign

    def add_grid(
        self,
        risks: Sequence[RiskCondition],
        properties: Sequence[str | None] = (None,),
        sets: Sequence[str] = ("data",),
        method: Method | str = Method.EXACT,
        solver: str | None = None,
        domain: str | None = "interval",
        time_limit: float | None = None,
        node_limit: int | None = None,
        refine_budget: int | None = None,
    ) -> "Campaign":
        """Expand ``risks × properties × sets`` into queries (in order)."""
        if not risks:
            raise ValueError("add_grid needs at least one risk condition")
        for set_name in sets:
            for prop in properties:
                for risk in risks:
                    self.queries.append(
                        VerificationQuery(
                            risk=risk,
                            property_name=prop,
                            set_name=set_name,
                            method=method,
                            solver=solver,
                            domain=domain,
                            time_limit=time_limit,
                            node_limit=node_limit,
                            refine_budget=refine_budget,
                        )
                    )
        return self

    def add_ranges(
        self,
        output_indices: Sequence[int],
        properties: Sequence[str | None] = (None,),
        sets: Sequence[str] = ("data",),
        solver: str | None = None,
    ) -> "Campaign":
        """Grid of output-range queries (the E3/E6 frontier tables)."""
        for set_name in sets:
            for prop in properties:
                for index in output_indices:
                    self.queries.append(
                        VerificationQuery(
                            method=Method.RANGE,
                            property_name=prop,
                            set_name=set_name,
                            output_index=index,
                            solver=solver,
                        )
                    )
        return self

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[VerificationQuery]:
        return iter(self.queries)

    def __getitem__(self, index: int) -> VerificationQuery:
        return self.queries[index]


@dataclass
class QueryResult:
    """Outcome of one query: payload + execution provenance.

    Exactly one of ``verdict`` / ``robustness`` / ``output_range`` is
    populated (by method), except on ``error``.  ``ladder`` lists the
    strategy steps actually executed and ``decided_by`` the step that
    concluded; ``cache_hits`` names the engine caches that served this
    query (empty on a cold cache).
    """

    query: VerificationQuery
    verdict: VerificationVerdict | None = None
    robustness: RobustnessResult | None = None
    output_range: OutputRange | None = None
    refinement: RefinementResult | None = None
    #: anytime CEGAR outcome (status, witness, RefinementTrace) for
    #: ``cegar`` queries and cegar-fallback results
    cegar: CegarResult | None = None
    elapsed: float = 0.0
    ladder: tuple[str, ...] = ()
    decided_by: str | None = None
    cache_hits: tuple[str, ...] = ()
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def proved(self) -> bool | None:
        """Shortcut to the verdict's proved flag (``None`` if no verdict)."""
        return self.verdict.proved if self.verdict is not None else None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "query": self.query.to_dict(),
            "elapsed": self.elapsed,
            "ladder": list(self.ladder),
            "decided_by": self.decided_by,
            "cache_hits": list(self.cache_hits),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.verdict is not None:
            out["verdict"] = self.verdict.verdict.value
            out["monitored"] = self.verdict.monitored
            out["solver_status"] = self.verdict.solve_result.status.value
            out["solve_time"] = self.verdict.solve_result.solve_time
            out["nodes"] = self.verdict.solve_result.nodes_explored
            if self.verdict.counterexample is not None:
                out["counterexample"] = {
                    "features": [
                        float(v) for v in self.verdict.counterexample.features
                    ],
                    "risk_margin": self.verdict.counterexample.risk_margin,
                }
        if self.robustness is not None:
            out["robust"] = self.robustness.robust
            out["worst_deviation"] = self.robustness.worst_deviation
        if self.output_range is not None:
            out["range"] = {
                "output_index": self.output_range.output_index,
                "lower": self.output_range.lower,
                "upper": self.output_range.upper,
                "exact": self.output_range.exact,
            }
        if self.refinement is not None:
            out["refinement"] = {
                "proved": self.refinement.proved,
                "final_cut_layers": list(self.refinement.final_cut_layers),
                "refinements_used": self.refinement.refinements_used,
            }
        if self.cegar is not None:
            out["cegar"] = {
                "status": self.cegar.status.value,
                "subproblems_processed": self.cegar.subproblems_processed,
                "queued": self.cegar.queued,
                "parked": self.cegar.parked,
                "trace": self.cegar.trace.to_dict(),
            }
        return out


@dataclass
class CampaignReport:
    """Everything :meth:`VerificationEngine.run` learned, auditable.

    Examples
    --------
    >>> from repro.api.query import VerificationQuery
    >>> from repro.properties.risk import RiskCondition, output_geq
    >>> query = VerificationQuery(
    ...     risk=RiskCondition("r", (output_geq(2, 0, 1.0),)))
    >>> report = CampaignReport(
    ...     campaign_name="demo",
    ...     results=[QueryResult(query=query, error="boom", decided_by="error")],
    ...     total_time=0.01, workers=1, executor="sequential")
    >>> report.verdict_counts()
    {'error': 1}
    >>> import json; "results" in json.loads(report.to_json())
    True
    """

    campaign_name: str
    results: list[QueryResult]
    total_time: float
    workers: int
    executor: str  #: "sequential", "process-pool[N]", or a fallback note
    cache_stats: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    @property
    def errors(self) -> list[QueryResult]:
        return [r for r in self.results if not r.ok]

    def verdicts(self) -> list[VerificationVerdict | None]:
        return [r.verdict for r in self.results]

    def verdict_counts(self) -> dict[str, int]:
        """Histogram of outcomes over all queries."""
        counts: dict[str, int] = {}
        for result in self.results:
            if not result.ok:
                key = "error"
            elif result.verdict is not None:
                key = result.verdict.verdict.value
            elif result.robustness is not None:
                key = "robust" if result.robustness.robust else "not-robust"
            elif result.output_range is not None:
                key = "range"
            else:
                key = "unknown"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def cache_hit_counts(self) -> dict[str, int]:
        """How often each engine cache served a query in this campaign."""
        counts: dict[str, int] = {}
        for result in self.results:
            for label in result.cache_hits:
                counts[label] = counts.get(label, 0) + 1
        return counts

    def decided_by_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            key = result.decided_by or "error"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"campaign {self.campaign_name!r}: {len(self.results)} queries in "
            f"{self.total_time:.3f}s ({self.executor})",
            f"  outcomes: {self.verdict_counts()}",
            f"  decided by: {self.decided_by_counts()}",
        ]
        hits = self.cache_hit_counts()
        if hits:
            lines.append(f"  cache hits: {hits}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.campaign_name,
            "total_time": self.total_time,
            "workers": self.workers,
            "executor": self.executor,
            "verdict_counts": self.verdict_counts(),
            "cache_hits": self.cache_hit_counts(),
            "cache_stats": self.cache_stats,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def as_queries(campaign: "Campaign | Iterable[VerificationQuery]") -> tuple[str, list[VerificationQuery]]:
    """Normalize a campaign or plain iterable into ``(name, queries)``.

    Examples
    --------
    >>> as_queries(Campaign("empty"))
    ('empty', [])
    >>> as_queries([])
    ('campaign', [])
    """
    if isinstance(campaign, Campaign):
        return campaign.name, list(campaign.queries)
    queries = list(campaign)
    return "campaign", queries
