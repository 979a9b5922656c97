"""Query construction/validation and campaign grid expansion."""

import pytest

from repro.api import Campaign, Method, VerificationQuery
from repro.properties.library import STEER_STRAIGHT, steer_far_left


class TestVerificationQuery:
    def test_defaults(self):
        query = VerificationQuery(risk=STEER_STRAIGHT)
        assert query.method is Method.EXACT
        assert query.set_name == "data"
        assert query.solver is None
        assert query.domain == "interval"

    def test_method_coerced_from_string(self):
        query = VerificationQuery(risk=STEER_STRAIGHT, method="relaxed")
        assert query.method is Method.RELAXED

    def test_frozen(self):
        query = VerificationQuery(risk=STEER_STRAIGHT)
        with pytest.raises(AttributeError):
            query.set_name = "other"

    def test_verdict_methods_require_risk(self):
        for method in ("exact", "relaxed", "refine"):
            with pytest.raises(ValueError, match="need a risk"):
                VerificationQuery(method=method)

    def test_robustness_requires_ball(self):
        with pytest.raises(ValueError, match="anchor"):
            VerificationQuery(method="robustness", epsilon=0.1, delta=0.5)
        with pytest.raises(ValueError, match="positive"):
            VerificationQuery(
                method="robustness", anchor=(0.0, 0.0), epsilon=-1.0, delta=0.5
            )

    def test_range_needs_no_risk(self):
        query = VerificationQuery(method="range", output_index=1)
        assert query.risk is None
        assert query.output_index == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="time_limit"):
            VerificationQuery(risk=STEER_STRAIGHT, time_limit=0.0)
        with pytest.raises(ValueError, match="node_limit"):
            VerificationQuery(risk=STEER_STRAIGHT, node_limit=-5)

    def test_name_and_to_dict(self):
        query = VerificationQuery(
            risk=steer_far_left(2.0), property_name="bends_right", solver="highs"
        )
        assert "bends_right" in query.name
        payload = query.to_dict()
        assert payload["method"] == "exact"
        assert payload["solver"] == "highs"
        assert payload["property"] == "bends_right"
        assert "domain" not in payload  # the default stays implicit
        # skipping the prescreen is provenance: it must not read as default
        skip = VerificationQuery(
            risk=steer_far_left(2.0), property_name="bends_right",
            solver="highs", domain=None,
        ).to_dict()
        assert skip["domain"] is None
        assert skip != payload

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            VerificationQuery(risk=STEER_STRAIGHT, method="quantum")


class TestCampaign:
    def test_grid_expansion_order_and_count(self):
        risks = [steer_far_left(t) for t in (1.0, 2.0, 3.0)]
        campaign = Campaign("grid").add_grid(
            risks=risks, properties=("bends_right", None), sets=("data",)
        )
        assert len(campaign) == 6
        # risks vary fastest, then properties
        assert campaign[0].property_name == "bends_right"
        assert campaign[0].risk is risks[0]
        assert campaign[2].risk is risks[2]
        assert campaign[3].property_name is None

    def test_grid_requires_risks(self):
        with pytest.raises(ValueError, match="at least one risk"):
            Campaign().add_grid(risks=[])

    def test_add_and_chaining(self):
        campaign = (
            Campaign("mixed")
            .add(VerificationQuery(risk=STEER_STRAIGHT))
            .add_ranges(output_indices=(0, 1))
        )
        assert len(campaign) == 3
        assert campaign[1].method is Method.RANGE
        assert campaign[2].output_index == 1

    def test_queries_iterable(self):
        campaign = Campaign().add_grid(risks=[STEER_STRAIGHT])
        methods = [query.method for query in campaign]
        assert methods == [Method.EXACT]
