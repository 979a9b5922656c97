"""Streaming scenario campaigns: parity with the eager path, memory guard.

The streaming pipeline's whole contract is *observational equivalence*
to the eager grid at O(shard) memory:

- region parity: the sharded generator yields bitwise-identical regions
  in the eager grid's order, for any shard size (hypothesis);
- verdict + coverage parity: ``run_stream`` decides every query exactly
  as ``engine.run`` over the eager campaign does (hypothesis over shard
  sizes and thresholds);
- coverage-guided sampling visits distinct, in-range regions and
  reports coverage for exactly the sampled population;
- the cascade runs prescreen first: the attack only sees the boxes the
  prescreen left, and its witnesses' features, taken from the ascent's
  own forward pass, are ``f^(l)`` of the hit images and replay through
  the suffix to the predicted outputs;
- after its threshold pre-pass on an equal plan, a sweep decides from
  the kept shards without generating or propagating a region, with the
  answers a fresh engine gives, and leaves nothing on the engine;
- the memory guard rejects eager grids that cannot fit, pointing at
  the streaming path, while ``run_stream`` itself stays unguarded;
- a shard's own exception under ``workers > 1`` propagates once,
  without a sequential rerun and without leaking shared memory, while a
  dead worker costs only the shards not yet drained.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Campaign, VerificationEngine
from repro.api import engine as engine_mod
from repro.nn import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.properties.library import steer_far_left
from repro.properties.risk import RiskCondition, output_geq
from repro.scenario import regions as regions_mod
from repro.scenario import streaming as streaming_mod
from repro.scenario.regions import (
    RegionGrid,
    RegionMemoryError,
    ensure_regions_fit,
    scenario_region_grid,
)
from repro.scenario.streaming import (
    StreamPlan,
    run_stream,
    stream_enclosure_range,
    stream_scenario_regions,
)
from repro.verification.abstraction.domain import (
    get_domain,
    precision_ladder,
    registered_domains,
)
from repro.verification.abstraction.propagate import propagate_regions
from repro.verification.ir import lowered_full, lowered_split
from repro.verification.prescreen import output_enclosure_batch, screen_enclosure

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def model():
    model = Sequential(
        [Flatten(), Dense(8), ReLU(), Dense(2)],
        input_shape=(1, 32, 32),
        seed=7,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)),
        training=True,
    )
    return model


@pytest.fixture(scope="module")
def engine(model):
    return VerificationEngine(model, 3, solver="highs")


@pytest.fixture(scope="module")
def enclosure_range(engine):
    plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
    return stream_enclosure_range(engine, plan)


@pytest.fixture(scope="module")
def conv_engine():
    """A conv prefix, as the CLI's built system has: relational domains
    have no cheap (or no) image-space transformer for it."""
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(12),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 32, 32),
        seed=13,
    )
    model.forward(
        np.random.default_rng(0).uniform(0, 1, size=(4, 1, 32, 32)),
        training=True,
    )
    engine = VerificationEngine(model, 6, solver="highs")
    plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
    return engine, stream_enclosure_range(engine, plan)


@pytest.fixture(scope="module")
def batchnorm_after_cut_engine():
    """A conv prefix cut right before a BatchNorm with non-trivial
    statistics, which the whole-model lowering folds into the op before
    the cut."""
    model = Sequential(
        [
            Conv2D(4, 3, stride=2, padding=1),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(12),
            BatchNorm(),
            ReLU(),
            Dense(2),
        ],
        input_shape=(1, 32, 32),
        seed=13,
    )
    rng = np.random.default_rng(5)
    bn = model.layers[5]
    bn.running_mean[...] = rng.normal(size=12)
    bn.running_var[...] = rng.uniform(0.3, 3.0, size=12)
    bn.gamma.value[...] = rng.uniform(0.5, 2.0, size=12)
    bn.beta.value[...] = rng.normal(size=12)
    model.invalidate_lowering()
    # the whole-model lowering has no op boundary at the cut
    assert len(lowered_full(model).ops) == len(lowered_split(model, 5)[0].ops) - 1
    engine = VerificationEngine(model, 5, solver="highs")
    plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
    return engine, stream_enclosure_range(engine, plan)


class TestRegionParity:
    @_SETTINGS
    @given(
        seed=st.integers(0, 50),
        n_scenes=st.integers(1, 3),
        shard_size=st.integers(1, 16),
    )
    def test_streamed_regions_bitwise_equal_eager(
        self, seed, n_scenes, shard_size
    ):
        plan = StreamPlan(n_scenes=n_scenes, seed=seed, shard_size=shard_size)
        eager = scenario_region_grid(n_scenes=n_scenes, seed=seed)
        streamed = [r for grid in stream_scenario_regions(plan) for r in grid]
        assert len(streamed) == len(eager.regions) == plan.total_regions
        for a, b in zip(eager.regions, streamed):
            assert a.name == b.name
            assert np.array_equal(a.lower, b.lower)
            assert np.array_equal(a.upper, b.upper)
            assert a.axes == b.axes

    def test_jitter_axis_parity(self):
        plan = StreamPlan(
            n_scenes=2, jitter_levels=(0.0, 1.5), seed=5, shard_size=3
        )
        eager = scenario_region_grid(
            n_scenes=2, jitter_levels=(0.0, 1.5), seed=5
        )
        streamed = [r for grid in stream_scenario_regions(plan) for r in grid]
        for a, b in zip(eager.regions, streamed):
            assert a.name == b.name
            assert np.array_equal(a.lower, b.lower)
            assert np.array_equal(a.upper, b.upper)

    def test_limit_matches_truncated_grid(self):
        plan = StreamPlan(n_scenes=3, seed=1, shard_size=4, limit=7)
        eager = scenario_region_grid(n_scenes=3, seed=1).truncated(7)
        streamed = [r for grid in stream_scenario_regions(plan) for r in grid]
        assert [r.name for r in streamed] == [r.name for r in eager.regions]


class TestVerdictParity:
    @pytest.mark.parametrize(
        "domain", ["interval", "octagon", "zonotope", "symbolic"]
    )
    @_SETTINGS
    @given(
        shard_size=st.integers(1, 9),
        offset=st.floats(-0.5, 0.5, allow_nan=False),
    )
    def test_stream_matches_eager_campaign(
        self, conv_engine, domain, shard_size, offset
    ):
        """Same verdicts, same coverage, any shard size, threshold or
        domain: ``domain`` picks the prescreen ladder on both paths."""
        engine, (lo, hi) = conv_engine
        # thresholds spanning provable, frontier-ish, and falsifiable
        risks = [
            steer_far_left(round(hi + 0.25 + offset, 3)),
            steer_far_left(round(0.5 * (lo + hi) + offset, 3)),
        ]
        grid = scenario_region_grid(n_scenes=2, seed=3)
        names = engine.add_region_sets(grid)
        try:
            eager = engine.run(
                Campaign("eager").add_grid(
                    risks=risks, properties=(None,), sets=names, domain=domain
                )
            )
        finally:
            engine.remove_feature_sets(names)

        plan = StreamPlan(n_scenes=2, seed=3, shard_size=shard_size)
        streamed = run_stream(
            engine, plan, risks, domain=domain, collect_results=True
        )

        assert streamed.results is not None
        assert len(streamed.results) == len(eager.results)
        for a, b in zip(eager.results, streamed.results):
            assert a.query.set_name == b.query.set_name
            assert a.query.risk is b.query.risk
            assert a.verdict is not None and b.verdict is not None
            assert a.verdict.verdict == b.verdict.verdict, (
                f"{a.query.set_name}: eager {a.verdict.verdict} vs "
                f"streamed {b.verdict.verdict} (shard_size={shard_size}, "
                f"domain={domain})"
            )
        # coverage aggregates exactly the verdicts the eager run produced
        total = sum(
            count
            for levels in streamed.coverage["weather"].values()
            for count in levels.values()
        )
        assert total == len(eager.results)

    def test_wrong_risk_dimension_rejected_before_any_shard(
        self, engine, monkeypatch
    ):
        def no_shards(plan):
            raise AssertionError("a shard was generated")

        monkeypatch.setattr(streaming_mod, "stream_scenario_regions", no_shards)
        wide = RiskCondition("wide", (output_geq(3, 0, 1.0),))
        with pytest.raises(
            ValueError, match="risk condition is over 3 outputs, network has 2"
        ):
            run_stream(engine, StreamPlan(n_scenes=2, seed=3), [wide])

    def test_caller_sets_under_plan_names_rejected_before_any_shard(
        self, model, monkeypatch
    ):
        """A shard would replace, then unregister, the caller's set."""
        engine = VerificationEngine(model, 3, solver="highs")
        engine.add_region_sets(scenario_region_grid(n_scenes=1, seed=9))
        names = engine.feature_set_names()
        before = {name: engine.feature_set(name).bounds() for name in names}

        def no_shards(plan):
            raise AssertionError("a shard was generated")

        monkeypatch.setattr(streaming_mod, "stream_scenario_regions", no_shards)
        plan = StreamPlan(n_scenes=2, seed=3)
        with pytest.raises(ValueError, match="region-000.*region-003"):
            run_stream(engine, plan, [steer_far_left(0.0)])
        with pytest.raises(ValueError, match="region-000.*region-003"):
            stream_enclosure_range(engine, plan)
        assert engine.feature_set_names() == names
        for name, (lower, upper) in before.items():
            now_lower, now_upper = engine.feature_set(name).bounds()
            assert np.array_equal(now_lower, lower)
            assert np.array_equal(now_upper, upper)

    @pytest.mark.parametrize("domain", registered_domains())
    def test_enclosure_range_matches_eager_under_every_domain(self, model, domain):
        """Relational enclosures are read through their interval hull.

        Two shards against one eager batch: a batched product's last bit
        depends on the batch size, hence the relative tolerance.
        """
        engine = VerificationEngine(model, 3, solver="highs")
        plan = StreamPlan(n_scenes=1, seed=3, shard_size=3)
        streamed = stream_enclosure_range(engine, plan, domain=domain)
        names = engine.add_region_sets(
            scenario_region_grid(n_scenes=1, seed=3), domain=domain
        )
        boxes = [
            get_domain(domain).enclosure_box(enclosure)
            for enclosure in engine.output_enclosures(names, domain)
        ]
        eager = (
            min(float(box.lower[0]) for box in boxes),
            max(float(box.upper[0]) for box in boxes),
        )
        assert streamed == pytest.approx(eager, rel=1e-12)

    def test_sets_outside_the_plan_are_kept(self, model):
        engine = VerificationEngine(model, 3, solver="highs")
        grid = scenario_region_grid(n_scenes=2, seed=3)
        # region-004.. and two non-canonical spellings of region 0
        engine.add_region_sets(RegionGrid(grid.regions[4:], grid.config))
        for alias in ("region-0", "region-0000"):
            engine.add_raw_set(engine.feature_set("region-004"), True, alias)
        names = engine.feature_set_names()
        plan = StreamPlan(n_scenes=2, seed=3, limit=4)
        stream_enclosure_range(engine, plan)
        run_stream(engine, plan, [steer_far_left(0.0)], attack_steps=0,
                   solver_fallback=False)
        assert engine.feature_set_names() == names

    def test_report_shape(self, engine, enclosure_range):
        lo, hi = enclosure_range
        risks = [steer_far_left(round(hi + 0.25, 3))]
        plan = StreamPlan(n_scenes=2, seed=3, shard_size=3)
        report = run_stream(engine, plan, risks)
        assert report.total_regions == plan.total_regions
        assert report.total_queries == report.total_regions
        assert report.shards == 3  # 8 regions in shards of 3
        assert report.decided == report.total_queries
        assert set(report.coverage) == {"weather", "camera_jitter", "traffic"}
        payload = report.to_dict()
        assert payload["verdict_counts"] == report.verdict_counts
        # collect_results=False keeps the report O(1): campaign_report
        # (which needs every QueryResult) must refuse, not return empty
        with pytest.raises(ValueError):
            report.campaign_report("nope")


@pytest.fixture
def attack_calls(monkeypatch):
    """Record every ``pgd_hits_in_boxes`` call the stream makes."""
    calls = []
    attack = streaming_mod.pgd_hits_in_boxes

    def recorder(model, risk, lower, upper, **kwargs):
        hits = attack(model, risk, lower, upper, **kwargs)
        calls.append((np.array(lower), np.array(upper), hits))
        return hits

    monkeypatch.setattr(streaming_mod, "pgd_hits_in_boxes", recorder)
    return calls


class TestCascadeOrder:
    """Prescreen first: the attack only sees what the prescreen left."""

    def test_provable_risk_never_attacked(
        self, engine, enclosure_range, attack_calls
    ):
        lo, hi = enclosure_range
        plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
        report = run_stream(
            engine, plan, [steer_far_left(round(hi + 0.25, 3))],
            collect_results=True,
        )
        assert attack_calls == []
        assert report.results is not None
        assert {r.decided_by for r in report.results} == {"prescreen"}

    def test_attack_receives_prescreen_survivors(
        self, engine, enclosure_range, attack_calls
    ):
        lo, hi = enclosure_range
        risk = steer_far_left(round(0.5 * (lo + hi), 3))
        plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
        # the survivors, screened independently of the stream
        grid = scenario_region_grid(n_scenes=2, seed=3)
        boxes = grid.box_batch()
        element = propagate_regions(engine.model, boxes, engine.cut_layer)
        domain = get_domain("interval")
        enclosures = output_enclosure_batch(
            engine.suffix,
            [domain.feature_set(e) for e in domain.enclosures(element)],
            "interval",
        )
        left = [
            i for i, outcome in enumerate(screen_enclosure(enclosures, risk, "interval"))
            if not outcome.excluded
        ]
        assert 0 < len(left) < len(grid)  # the risk splits the shard

        report = run_stream(engine, plan, [risk], collect_results=True)
        assert len(attack_calls) == 1
        lower, upper, hits = attack_calls[0]
        assert np.array_equal(lower, boxes.lower[left])
        assert np.array_equal(upper, boxes.upper[left])
        assert report.results is not None
        by = [r.decided_by for r in report.results]
        assert [i for i, d in enumerate(by) if d != "prescreen"] == left
        assert by.count("attack") == len(hits) > 1

    def test_attack_witness_features_match_per_row_pass(
        self, engine, enclosure_range, attack_calls
    ):
        _check_attack_witnesses(engine, enclosure_range, attack_calls)

    @pytest.mark.parametrize("setup", ["conv", "batchnorm_after_cut"])
    def test_attack_witness_features_on_conv_prefixes(
        self, request, attack_calls, setup
    ):
        engine, enclosure_range = request.getfixturevalue(f"{setup}_engine")
        _check_attack_witnesses(engine, enclosure_range, attack_calls)


def _check_attack_witnesses(engine, enclosure_range, attack_calls):
    """Every attack SAT's features are ``f^(l)`` of its hit image and
    replay through the suffix to its predicted output."""
    lo, hi = enclosure_range
    model, cut = engine.model, engine.cut_layer
    plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
    report = run_stream(
        engine, plan, [steer_far_left(round(0.5 * (lo + hi), 3))],
        collect_results=True,
    )
    images = [cex.image for _, _, hits in attack_calls for _, cex in hits]
    assert report.results is not None
    witnesses = [
        r.verdict.counterexample
        for r in report.results
        if r.decided_by == "attack"
    ]
    assert len(witnesses) == len(images) > 1
    for image, witness in zip(images, witnesses):
        expected = model.prefix_apply(image[None, ...], cut)[0]
        np.testing.assert_allclose(witness.features, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            model.suffix_apply(witness.features[None], cut)[0],
            witness.predicted_output,
            rtol=0,
            atol=1e-9,
        )


class TestSingleRegistration:
    """A shard registers once; its survivors go on without a re-screen."""

    @pytest.mark.parametrize("domain", ["interval", "symbolic"])
    def test_survivors_reach_solver_without_repropagation(
        self, engine, enclosure_range, monkeypatch, domain
    ):
        lo, hi = enclosure_range
        # the fixture's pre-pass kept its shards for this plan; without
        # them the sweep propagates its one shard itself
        engine.clear_caches()
        propagations = []
        screens = []
        propagate = engine_mod.propagate_regions
        screen = engine_mod.screen_enclosure

        def counting_propagate(*args, **kwargs):
            propagations.append(args[1].n_regions)
            return propagate(*args, **kwargs)

        def counting_screen(enclosures, risk, rung):
            screens.extend(rung for _ in enclosures)
            return screen(enclosures, risk, rung)

        monkeypatch.setattr(engine_mod, "propagate_regions", counting_propagate)
        monkeypatch.setattr(streaming_mod, "propagate_regions", counting_propagate)
        monkeypatch.setattr(engine_mod, "screen_enclosure", counting_screen)
        plan = StreamPlan(n_scenes=2, seed=3, shard_size=8)
        report = run_stream(
            engine,
            plan,
            [steer_far_left(round(0.5 * (lo + hi), 3))],
            domain=domain,
            attack_steps=0,
            collect_results=True,
        )
        assert report.results is not None
        # one propagation of the one shard's regions, nothing more
        assert propagations == [plan.total_regions]
        survivors = [r for r in report.results if r.decided_by != "prescreen"]
        assert survivors and all(r.verdict is not None for r in survivors)
        # every query is screened once per rung it was pending at
        ladder = precision_ladder(domain)
        expected = sum(
            ladder.index(r.verdict.solve_result.stats["prescreen"]) + 1
            if r.decided_by == "prescreen"
            else len(ladder)
            for r in report.results
        )
        assert len(screens) == expected
        assert all(r.ladder.count("prescreen") == 1 for r in report.results)


@pytest.fixture
def generated(monkeypatch, tmp_path):
    """Count region generations and propagations, pool workers' too.

    Each call appends a line to a file, which forked workers inherit
    along with the patched module attributes.
    """
    log = tmp_path / "calls"
    log.touch()
    generate = streaming_mod.stream_scenario_regions
    propagate = engine_mod.propagate_regions

    def note(what):
        with open(log, "a") as out:
            out.write(what + "\n")

    def counting_generate(plan):
        note("generate")
        return generate(plan)

    def counting_propagate(*args, **kwargs):
        note("propagate")
        return propagate(*args, **kwargs)

    monkeypatch.setattr(streaming_mod, "stream_scenario_regions", counting_generate)
    monkeypatch.setattr(engine_mod, "propagate_regions", counting_propagate)

    def counts(reset=False):
        lines = log.read_text().split()
        if reset:
            log.write_text("")
        return {what: lines.count(what) for what in ("generate", "propagate")}

    return counts


def _answers(report):
    """Each query's verdict, decider and counterexample features."""
    assert report.results is not None
    answers = []
    for result in report.results:
        cex = result.verdict.counterexample
        answers.append(
            (
                result.query.set_name,
                result.verdict.verdict,
                result.decided_by,
                None if cex is None else tuple(cex.features.tolist()),
            )
        )
    return answers


class TestPrePassReuse:
    """``run_stream`` decides from the shards its threshold pre-pass kept."""

    PLAN = StreamPlan(n_scenes=2, seed=3, shard_size=3)  # shards of 3, 3, 2

    @pytest.fixture
    def setup(self, conv_engine):
        """A conv model, the CLI's two thresholds and a reference sweep."""
        model = conv_engine[0].model
        engine = VerificationEngine(model, 6, solver="highs")
        lo, hi = stream_enclosure_range(engine, self.PLAN)
        risks = [
            steer_far_left(round(hi + 0.25, 3)),
            steer_far_left(round(0.5 * (lo + hi), 3)),
        ]
        fresh = VerificationEngine(model, 6, solver="highs")
        reference = _answers(
            run_stream(fresh, self.PLAN, risks, collect_results=True)
        )
        return engine, risks, reference

    @pytest.mark.parametrize(
        "attack_steps, deciders",
        [(20, {"prescreen", "attack"}), (0, {"prescreen", "support-cache"})],
    )
    def test_equal_plan_generates_and_propagates_nothing(
        self, setup, generated, attack_steps, deciders
    ):
        engine, risks, reference = setup
        if attack_steps == 0:  # the frontier risk reaches the solver stages
            fresh = VerificationEngine(engine.model, 6, solver="highs")
            reference = _answers(
                run_stream(
                    fresh, self.PLAN, risks, attack_steps=0, collect_results=True
                )
            )
        generated(reset=True)
        report = run_stream(
            engine, self.PLAN, risks, attack_steps=attack_steps,
            collect_results=True,
        )
        assert generated() == {"generate": 0, "propagate": 0}
        assert _answers(report) == reference
        assert {decided_by for _, _, decided_by, _ in reference} == deciders

    @pytest.mark.parametrize("case", ["plan", "octagon", "over-cap"])
    def test_regenerates_without_reusable_shards(
        self, setup, generated, monkeypatch, case
    ):
        engine, risks, reference = setup
        plan = self.PLAN
        if case == "plan":
            plan = replace(plan, shard_size=4)
        elif case == "octagon":
            stream_enclosure_range(engine, plan, domain="octagon")
        else:
            monkeypatch.setattr(regions_mod, "_KEPT_SHARDS_BYTES", 1)
            stream_enclosure_range(engine, plan)
        generated(reset=True)
        report = run_stream(engine, plan, risks, collect_results=True)
        shards = -(-plan.total_regions // plan.shard_size)
        assert generated() == {"generate": 1, "propagate": shards}
        if case != "plan":  # other shard boundaries may move a last bit
            assert _answers(report) == reference

    def test_workers_propagate_the_kept_regions(self, setup, generated):
        engine, risks, reference = setup
        generated(reset=True)
        report = run_stream(
            engine, self.PLAN, risks, workers=2, collect_results=True
        )
        assert generated() == {"generate": 0, "propagate": 3}
        assert _answers(report) == reference

    def test_nothing_is_left_on_the_engine(self, setup):
        engine, risks, _ = setup
        names = engine.feature_set_names()
        stream_enclosure_range(engine, self.PLAN)
        assert engine.feature_set_names() == names
        assert engine._kept_shards is not None
        assert pickle.loads(pickle.dumps(engine))._kept_shards is None
        engine.clear_caches()
        assert engine._kept_shards is None
        for plan in (self.PLAN, replace(self.PLAN, shard_size=4)):
            stream_enclosure_range(engine, self.PLAN)
            run_stream(engine, plan, risks, attack_steps=0, solver_fallback=False)
            assert engine._kept_shards is None
            assert engine.feature_set_names() == names
        stream_enclosure_range(engine, self.PLAN)
        with pytest.raises(ValueError, match="at least one risk"):
            run_stream(engine, self.PLAN, [])
        assert engine._kept_shards is None


def _shm_segments() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.glob("psm_*")} if root.is_dir() else set()


class TestFaultContainment:
    def test_failing_shard_raises_once_and_releases_shm(
        self, engine, enclosure_range, monkeypatch
    ):
        lo, hi = enclosure_range
        parent = os.getpid()
        parent_calls = []
        decide = streaming_mod._decide_shard

        def failing_decide(engine, index, grid, risks, options):
            if os.getpid() == parent:
                parent_calls.append(index)
            if index == 1:
                raise ValueError("shard 1 is broken")
            return decide(engine, index, grid, risks, options)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(streaming_mod, "_decide_shard", failing_decide)
        before = _shm_segments()
        plan = StreamPlan(n_scenes=4, seed=3, shard_size=2)
        with pytest.raises(ValueError, match="shard 1 is broken"):
            run_stream(engine, plan, [steer_far_left(round(hi + 0.25, 3))],
                       workers=2)
        assert parent_calls == []  # no sequential rerun in the parent
        assert _shm_segments() - before == set()

    def test_dead_worker_keeps_drained_shards(
        self, engine, enclosure_range, monkeypatch
    ):
        lo, hi = enclosure_range
        parent = os.getpid()
        parent_calls = []
        decide = streaming_mod._decide_shard
        # at most workers + 2 = 4 shards are in flight, so shard 5 is
        # only submitted once shards 0 and 1 have drained
        dying = 5

        def dying_decide(engine, index, grid, risks, options):
            if os.getpid() != parent:
                if index == dying:
                    os._exit(1)  # the worker process dies mid-shard
            else:
                parent_calls.append(index)
            return decide(engine, index, grid, risks, options)

        risks = [steer_far_left(round(0.5 * (lo + hi), 3))]
        plan = StreamPlan(n_scenes=4, seed=3, shard_size=2)
        sequential = run_stream(engine, plan, risks)
        n_shards = sequential.shards
        # forked workers inherit the patched module attribute
        monkeypatch.setattr(streaming_mod, "_decide_shard", dying_decide)
        before = _shm_segments()
        report = run_stream(engine, plan, risks, workers=2)
        assert report.executor == "sequential (pool unavailable: BrokenProcessPool)"
        assert report.shards == n_shards
        assert report.verdict_counts == sequential.verdict_counts
        assert report.decided_by_counts == sequential.decided_by_counts
        # shards drain in order: the parent decided exactly the ones not
        # drained before the worker died, the dead worker's among them
        assert n_shards == 8
        first = parent_calls[0] if parent_calls else n_shards
        assert parent_calls == list(range(first, n_shards))
        assert 2 <= first <= dying
        assert _shm_segments() - before == set()


class TestCoverageSampling:
    @_SETTINGS
    @given(
        sample=st.integers(1, 20),
        sample_seed=st.integers(0, 100),
    )
    def test_sample_indices_distinct_sorted_in_range(self, sample, sample_seed):
        plan = StreamPlan(
            n_scenes=6, seed=0, sample=sample, sample_seed=sample_seed
        )
        indices = list(plan.indices())
        assert len(indices) == min(sample, plan.grid_size)
        assert len(set(indices)) == len(indices)
        assert indices == sorted(indices)
        assert all(0 <= i < plan.grid_size for i in indices)

    @_SETTINGS
    @given(
        limit=st.one_of(st.none(), st.integers(1, 24)),
        sample=st.one_of(st.none(), st.integers(1, 24)),
        sample_seed=st.integers(0, 100),
    )
    def test_yields_matches_indices(self, limit, sample, sample_seed):
        capped = 24 if limit is None else limit
        if sample is not None and sample > capped:
            sample = capped
        plan = StreamPlan(
            n_scenes=6, seed=0, limit=limit, sample=sample, sample_seed=sample_seed
        )
        indices = set(plan.indices())
        assert [k for k in range(-2, 30) if plan.yields(k)] == sorted(indices)

    def test_sampled_stream_covers_every_axis(self, engine, enclosure_range):
        lo, hi = enclosure_range
        risks = [steer_far_left(round(hi + 0.25, 3))]
        plan = StreamPlan(n_scenes=4, seed=3, shard_size=4, sample=9)
        report = run_stream(engine, plan, risks)
        assert report.total_regions == 9
        # the coprime-stride lattice spreads across every axis level
        for axis in ("weather", "traffic"):
            assert len(report.coverage[axis]) == 2, report.coverage[axis]

    def test_sampled_regions_are_a_subset_of_the_grid(self):
        plan = StreamPlan(n_scenes=3, seed=1, shard_size=4, sample=5)
        eager = {r.name: r for r in scenario_region_grid(n_scenes=3, seed=1)}
        for grid in stream_scenario_regions(plan):
            for region in grid:
                assert np.array_equal(region.lower, eager[region.name].lower)
                assert np.array_equal(region.upper, eager[region.name].upper)


class TestMemoryGuard:
    def test_ensure_regions_fit_rejects_oversize(self):
        with pytest.raises(RegionMemoryError) as err:
            ensure_regions_fit(10**6, 1024, available=2**30)
        message = str(err.value)
        assert "run_stream" in message
        assert "--stream" in message

    def test_ensure_regions_fit_accepts_small(self):
        ensure_regions_fit(100, 1024, available=2**30)

    def test_scenario_region_grid_guarded(self, monkeypatch):
        monkeypatch.setattr(
            regions_mod, "available_memory_bytes", lambda: 2**20
        )
        with pytest.raises(RegionMemoryError):
            scenario_region_grid(n_scenes=10_000)

    def test_from_scenario_grid_guarded(self):
        grid = scenario_region_grid(n_scenes=1)
        risks = [steer_far_left(1.0)]
        pixels = int(grid[0].lower.size)
        # the real builder call stays fine on a small grid
        Campaign.from_scenario_grid(grid, risks=risks)
        with pytest.raises(RegionMemoryError):
            ensure_regions_fit(
                10**9, pixels, available=2**30, what="scenario-grid campaign"
            )

    def test_cli_campaign_rejects_oversize_grid(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(
            regions_mod, "available_memory_bytes", lambda: 2**20
        )

        class _Args:
            out = "unused"
            solver = "highs"
            refine_budget = 0
            scenario_grid = 10_000
            stream = False
            sample = None
            portfolio = False
            seed = 0
            domain = "interval"
            workers = 1
            json = None

        def fake_load(path, **kwargs):
            model = Sequential(
                [Flatten(), Dense(4), ReLU(), Dense(2)],
                input_shape=(1, 32, 32),
                seed=0,
            )
            return VerificationEngine(model, 3, solver="highs"), {
                "properties": ()
            }

        monkeypatch.setattr(cli, "_load", fake_load)
        code = cli._campaign(_Args())
        assert code == 2
        out = capsys.readouterr().out
        assert "error:" in out
        assert "--stream" in out
