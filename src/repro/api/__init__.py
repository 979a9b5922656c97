"""repro.api — the declarative query API and campaign engine.

The paper's workflow is one conceptual operation — *check risk ``psi``
under scene property ``phi`` over feature set ``S~``* — and this package
exposes it through exactly one path:

- :class:`~repro.api.query.VerificationQuery` — a frozen, serializable
  description of one question (property, risk, set, method, solver,
  budget);
- :class:`~repro.api.campaign.Campaign` — a builder that expands
  property × risk × set grids into query batches;
- :class:`~repro.api.engine.VerificationEngine` — plans a strategy
  ladder per query (prescreen → support-function cache → relaxed LP →
  complete solver → anytime CEGAR refinement of the set's input
  region), caches every risk-independent artifact (suffix lowering,
  abstraction bounds, output enclosures, MILP/relaxed encodings,
  support values, resumable refinement loops), and fans campaigns out
  over a process pool;
- :class:`~repro.api.campaign.CampaignReport` — per-query verdicts with
  timing and cache provenance, JSON-serializable.

Campaigns are planned **region-major**: the engine computes every output
enclosure a campaign needs in one batched abstraction pass before any
query runs, and :meth:`~repro.api.engine.VerificationEngine.add_region_sets`
registers whole scenario region grids
(:func:`repro.scenario.regions.scenario_region_grid`) through one
batched input-box propagation;
:meth:`~repro.api.campaign.Campaign.from_scenario_grid` builds the
matching query batch.

Quickstart::

    from repro.api import Campaign, VerificationEngine

    engine = VerificationEngine(model, cut_layer, solver="highs")
    engine.add_feature_set_from_data(train_images)
    engine.attach_characterizer(characterizer)

    campaign = Campaign("sweep").add_grid(
        risks=[steer_far_left(t) for t in thresholds],
        properties=("bends_right", None),
    )
    report = engine.run(campaign, workers=4)
    print(report.summary())

:func:`repro.core.pipeline.build_verified_system` hands out a trained
system's engine as ``system.engine``.
"""

from repro.api.campaign import Campaign, CampaignReport, QueryResult
from repro.api.engine import RegisteredFeatureSet, VerificationEngine
from repro.api.portfolio import DEFAULT_RACERS, Portfolio, RacerConfig, RacerStats
from repro.api.query import Method, VerificationQuery

__all__ = [
    "Campaign",
    "CampaignReport",
    "DEFAULT_RACERS",
    "Method",
    "Portfolio",
    "QueryResult",
    "RacerConfig",
    "RacerStats",
    "RegisteredFeatureSet",
    "VerificationEngine",
    "VerificationQuery",
]
