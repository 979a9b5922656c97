"""Unit tests for witness decoding, the ascent's witness features and
FGSM falsification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm, Conv2D, Dense, Flatten, ReLU, Sequential
from repro.properties.risk import RiskCondition, output_geq, output_leq
from repro.verification.assume_guarantee import box_from_data
from repro.verification.counterexample import (
    FeatureCounterexample,
    _ascend,
    decode_witness,
    fgsm_falsify,
    pgd_hits_in_boxes,
    pgd_in_boxes,
)
from repro.verification.ir import lowered_full, lowered_split
from repro.verification.milp.encoder import encode_verification_problem
from repro.verification.solver import BranchAndBoundSolver


@pytest.fixture
def sat_instance(rng):
    model = Sequential([Dense(6), ReLU(), Dense(2)], input_shape=(4,), seed=21)
    net = model.full_network()
    features = rng.normal(size=(60, 4))
    sbox = box_from_data(features)
    outputs = net.apply(features)
    risk = RiskCondition(
        "reach", (output_geq(2, 0, float(np.median(outputs[:, 0]))),)
    )
    problem = encode_verification_problem(net, sbox, risk)
    result = BranchAndBoundSolver().solve(problem.model)
    assert result.is_sat
    return model, problem, result, risk


class TestDecodeWitness:
    def test_replay_succeeds(self, sat_instance):
        model, problem, result, risk = sat_instance
        cx = decode_witness(problem, result.witness, model, 0, risk)
        assert isinstance(cx, FeatureCounterexample)
        assert cx.risk_occurs
        assert cx.risk_margin >= -1e-6
        np.testing.assert_allclose(
            model.suffix_apply(cx.features[None], 0)[0], cx.predicted_output
        )

    def test_corrupted_witness_detected(self, sat_instance):
        model, problem, result, risk = sat_instance
        bad = result.witness.copy()
        bad[problem.output_vars[0]] += 5.0
        with pytest.raises(ValueError, match="does not replay"):
            decode_witness(problem, bad, model, 0, risk)

    def test_characterizer_logit_decoded(self, rng):
        model = Sequential([Dense(4), ReLU(), Dense(2)], input_shape=(3,), seed=2)
        net = model.full_network()
        sbox = box_from_data(rng.normal(size=(40, 3)))
        char = Sequential([Dense(3), ReLU(), Dense(1)], input_shape=(3,), seed=3)
        risk = RiskCondition("any", (output_geq(2, 0, -1e6),))
        problem = encode_verification_problem(
            net, sbox, risk, char.full_network()
        )
        result = BranchAndBoundSolver().solve(problem.model)
        if result.is_sat:
            cx = decode_witness(problem, result.witness, model, 0, risk)
            assert cx.characterizer_logit is not None
            assert cx.characterizer_logit >= -1e-9
            # decoded logit equals the real characterizer evaluation
            real_logit = char.forward(cx.features[None])[0, 0]
            assert cx.characterizer_logit == pytest.approx(real_logit, abs=1e-5)


class TestFgsmFalsify:
    def _steerable_model(self):
        """Model whose output y0 is the mean pixel: easy to push around."""
        model = Sequential([Dense(2)], input_shape=(9,), seed=0)
        model.layers[0].weight.value[...] = np.concatenate(
            [np.full((9, 1), 1.0 / 9), np.zeros((9, 1))], axis=1
        )
        model.layers[0].bias.value[...] = 0.0
        return model

    def test_finds_reachable_risk(self):
        model = self._steerable_model()
        seed = np.full((1, 9), 0.5)
        risk = RiskCondition("bright", (output_geq(2, 0, 0.52),))
        cx = fgsm_falsify(model, risk, seed, epsilon=0.1, steps=10)
        assert cx is not None
        assert cx.risk_occurs
        # perturbation stayed in the epsilon ball and pixel range
        assert np.all(np.abs(cx.image - seed[0]) <= 0.1 + 1e-12)
        assert cx.image.min() >= 0.0 and cx.image.max() <= 1.0

    def test_returns_none_when_unreachable(self):
        model = self._steerable_model()
        seed = np.full((1, 9), 0.5)
        risk = RiskCondition("impossible", (output_geq(2, 0, 10.0),))
        assert fgsm_falsify(model, risk, seed, epsilon=0.05, steps=5) is None

    def test_single_seed_auto_batched(self):
        model = self._steerable_model()
        risk = RiskCondition("bright", (output_geq(2, 0, 0.51),))
        cx = fgsm_falsify(model, risk, np.full(9, 0.5), epsilon=0.1, steps=10)
        assert cx is not None

    @pytest.mark.parametrize(
        ("risk", "reaching_seed"),
        [
            (RiskCondition("bright", (output_geq(2, 0, 0.96),)), 1),
            (RiskCondition("dark", (output_leq(2, 0, 0.04),)), 0),
        ],
    )
    def test_edge_pixel_seeds_stay_in_the_clipped_ball(self, risk, reaching_seed):
        model = self._steerable_model()
        # pixels at 0 and 1 clip their balls to [0, eps] / [1 - eps, 1],
        # so the search starts off the seed, at the clipped box's centre
        seeds = np.stack([np.zeros(9), np.ones(9), np.r_[np.zeros(4), np.ones(5)]])
        cx = fgsm_falsify(model, risk, seeds, epsilon=0.1, steps=10)
        assert cx is not None and cx.risk_occurs
        assert cx.image.min() >= 0.0 and cx.image.max() <= 1.0
        assert np.all(np.abs(cx.image - seeds[reaching_seed]) <= 0.1 + 1e-12)
        replayed = model.forward(cx.image[None], training=False)
        np.testing.assert_allclose(replayed[0], cx.output)
        assert risk.margin(replayed)[0] >= 0.0

    def test_validation(self):
        model = self._steerable_model()
        risk = RiskCondition("any", (output_geq(2, 0, 0.0),))
        with pytest.raises(ValueError, match="positive"):
            fgsm_falsify(model, risk, np.zeros((1, 9)), epsilon=0.0)


class TestPgdInBoxes:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        steps=st.integers(0, 6),
        n_rows=st.integers(1, 2),
        quantile=st.floats(0.0, 1.0),
    )
    def test_first_hit_is_the_earliest_lowest_index_hit(
        self, seed, k, steps, n_rows, quantile
    ):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        model = Sequential(
            [Dense(int(rng.integers(3, 8))), ReLU(), Dense(2)],
            input_shape=(dim,),
            seed=seed,
        )
        lower = rng.uniform(-1.0, 1.0, (k, dim))
        upper = lower + rng.uniform(0.0, 1.0, (k, dim))
        centers = model.forward(0.5 * (lower + upper), training=False)
        # thresholds off the center outputs, so no margin sits at exactly 0
        risk = RiskCondition(
            "probe",
            tuple(
                output_geq(2, j, float(np.quantile(centers[:, j], quantile)) + 1e-3)
                for j in range(n_rows)
            ),
        )
        hits = pgd_hits_in_boxes(model, risk, lower, upper, steps=steps)
        first = pgd_in_boxes(model, risk, lower, upper, steps=steps)
        if not hits:
            assert first is None
            return
        index, cex = first
        assert (cex.iterations, index) == min((c.iterations, i) for i, c in hits)
        assert np.array_equal(cex.image, dict(hits)[index].image)
        assert np.all(cex.image >= lower[index]) and np.all(cex.image <= upper[index])
        replayed = model.forward(cex.image[None], training=False)
        assert risk.margin(replayed)[0] >= 0.0


def _two_pass_ascend(program, risk, lower, upper, *, steps, step_fraction):
    """The ascent as it was written with a separate margin pass: a
    forward pass for the margins, then a second one inside the VJP."""
    a_matrix, _ = risk.as_matrix()
    x = 0.5 * (lower + upper)
    width = upper - lower
    k = x.shape[0]
    hits = {}
    for it in range(steps + 1):
        outputs = program.apply(x.reshape(k, -1))
        margins = risk.margins(outputs)
        margin = margins.min(axis=1)
        for index in np.flatnonzero(margin >= 0.0).tolist():
            if index not in hits:
                hits[index] = (x[index].copy(), outputs[index].copy(), it)
        if it == steps or len(hits) == k:
            break
        _, grads = program.value_and_input_gradient(
            x.reshape(k, -1), -a_matrix[margins.argmin(axis=1)]
        )
        x = np.clip(
            x + step_fraction * width * np.sign(grads.reshape(x.shape)), lower, upper
        )
    return hits, x


class TestAscent:
    def test_one_forward_pass_per_iterate(self, monkeypatch, rng):
        from repro.perception.network import build_mlp_perception_network

        model = build_mlp_perception_network(
            input_dim=6, hidden=(12,), feature_width=6, seed=4
        )
        first = lowered_full(model).ops[0]
        calls = []
        apply = first.apply

        def counted(x):
            calls.append(len(x))
            return apply(x)

        monkeypatch.setattr(first, "apply", counted)
        unreachable = RiskCondition("never", (output_geq(2, 0, 1e9),))
        lower = rng.uniform(0.0, 0.5, (3, 6))
        upper = lower + 0.2
        assert pgd_hits_in_boxes(model, unreachable, lower, upper, steps=20) == []
        # 21 iterates, each one forward pass; the 20 gradients reuse them
        assert len(calls) == 21

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 5),
        steps=st.integers(0, 8),
        quantile=st.floats(0.0, 1.0),
    )
    def test_matches_the_two_pass_loop_bitwise(self, seed, k, steps, quantile):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        model = Sequential(
            [Dense(int(rng.integers(3, 8))), ReLU(), Dense(4), ReLU(), Dense(2)],
            input_shape=(dim,),
            seed=seed,
        )
        program = lowered_full(model)
        lower = rng.uniform(-1.0, 1.0, (k, dim))
        upper = lower + rng.uniform(0.0, 1.0, (k, dim))
        centers = model.forward(0.5 * (lower + upper), training=False)
        risk = RiskCondition(
            "probe",
            (
                output_geq(2, 0, float(np.quantile(centers[:, 0], quantile)) + 1e-3),
                output_leq(2, 1, float(np.quantile(centers[:, 1], 1.0 - quantile))),
            ),
        )
        hits, last = _ascend(
            program, risk, lower, upper, steps=steps, step_fraction=0.25
        )
        ref_hits, ref_last = _two_pass_ascend(
            program, risk, lower, upper, steps=steps, step_fraction=0.25
        )
        assert np.array_equal(last, ref_last)
        assert sorted(hits) == sorted(ref_hits)
        for index, (image, output, iterations) in ref_hits.items():
            assert np.array_equal(hits[index].image, image)
            assert np.array_equal(hits[index].output, output)
            assert hits[index].iterations == iterations


def _batchnorm_after_cut(kind, rng):
    """A model whose layer after the cut (``cut = 1``) is a BatchNorm
    with non-trivial statistics, so the whole-model lowering folds it
    into the op before the cut."""
    if kind == "dense":
        layers = [Dense(5), BatchNorm(), ReLU(), Dense(2)]
        input_shape = (4,)
    else:
        layers = [Conv2D(2, 3), BatchNorm(), ReLU(), Flatten(), Dense(2)]
        input_shape = (1, 5, 5)
    model = Sequential(layers, input_shape=input_shape, seed=7)
    bn = model.layers[1]
    width = bn.running_mean.shape
    bn.running_mean[...] = rng.normal(size=width)
    bn.running_var[...] = rng.uniform(0.3, 3.0, size=width)
    bn.gamma.value[...] = rng.uniform(0.5, 2.0, size=width)
    bn.beta.value[...] = rng.normal(size=width)
    model.invalidate_lowering()
    return model, 1


class TestWitnessFeatures:
    """With a cut, each hit carries the features its own forward pass
    computed; without one, the ascent is the one on ``lowered_full``."""

    @staticmethod
    def _always(model):
        return RiskCondition("reach", (output_geq(2, 0, -1e9),))

    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_batchnorm_after_the_cut(self, kind, rng):
        model, cut = _batchnorm_after_cut(kind, rng)
        program, index = lowered_split(model, cut)
        # the whole-model lowering folds across the cut, so its op
        # boundaries hold no value equal to the cut features
        assert len(lowered_full(model).ops) == len(program.ops) - 1
        k = 6
        lower = rng.uniform(0.0, 0.5, (k, *model.input_shape))
        upper = lower + 0.3
        hits = pgd_hits_in_boxes(
            model, self._always(model), lower, upper, steps=2, cut_layer=cut
        )
        assert [i for i, _ in hits] == list(range(k))
        for _, cex in hits:
            expected = model.prefix_apply(cex.image[None], cut)[0]
            np.testing.assert_allclose(cex.features, expected, rtol=0, atol=1e-12)
            replayed = model.suffix_apply(cex.features[None], cut)[0]
            np.testing.assert_allclose(replayed, cex.output, rtol=0, atol=1e-9)
            folded = lowered_full(model).activations(cex.image.reshape(1, -1))
            assert not np.allclose(folded[index][0], expected, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 5),
        steps=st.integers(0, 6),
        cut=st.integers(0, 5),
        quantile=st.floats(0.0, 1.0),
    )
    def test_features_replay_through_prefix_and_suffix(
        self, seed, k, steps, cut, quantile
    ):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        model = Sequential(
            [Dense(int(rng.integers(3, 8))), ReLU(), Dense(4), ReLU(), Dense(2)],
            input_shape=(dim,),
            seed=seed,
        )
        cut = min(cut, model.num_layers - 1)
        lower = rng.uniform(-1.0, 1.0, (k, dim))
        upper = lower + rng.uniform(0.0, 1.0, (k, dim))
        centers = model.forward(0.5 * (lower + upper), training=False)
        risk = RiskCondition(
            "probe",
            (output_geq(2, 0, float(np.quantile(centers[:, 0], quantile)) + 1e-3),),
        )
        plain = pgd_hits_in_boxes(model, risk, lower, upper, steps=steps)
        with_cut = pgd_hits_in_boxes(
            model, risk, lower, upper, steps=steps, cut_layer=cut
        )
        # nothing folds across this cut: the same program, the same hits
        assert [i for i, _ in with_cut] == [i for i, _ in plain]
        for (_, cex), (_, ref) in zip(with_cut, plain):
            assert ref.features is None
            assert np.array_equal(cex.image, ref.image)
            assert np.array_equal(cex.output, ref.output)
            assert (cex.iterations, cex.risk_margin) == (
                ref.iterations,
                ref.risk_margin,
            )
            expected = model.prefix_apply(cex.image[None], cut)[0]
            np.testing.assert_allclose(cex.features, expected, rtol=0, atol=1e-12)
            replayed = model.suffix_apply(cex.features[None], cut)[0]
            np.testing.assert_allclose(replayed, cex.output, rtol=0, atol=1e-9)

    def test_without_a_cut_hits_are_the_whole_model_ascent(self, rng):
        model, cut = _batchnorm_after_cut("dense", rng)
        lower = rng.uniform(0.0, 0.5, (5, 4))
        upper = lower + 0.4
        outputs = model.forward(0.5 * (lower + upper), training=False)
        risk = RiskCondition(
            "probe", (output_geq(2, 0, float(np.median(outputs[:, 0]))),)
        )
        hits = pgd_hits_in_boxes(model, risk, lower, upper, steps=6)
        ref_hits, _ = _two_pass_ascend(
            lowered_full(model), risk, lower, upper, steps=6, step_fraction=0.25
        )
        assert [i for i, _ in hits] == sorted(ref_hits)
        for index, cex in hits:
            image, output, iterations = ref_hits[index]
            assert cex.features is None
            assert np.array_equal(cex.image, image)
            assert cex.iterations == iterations
            assert cex.risk_margin == float(risk.margins(output[None]).min())
        first = pgd_in_boxes(model, risk, lower, upper, steps=6)
        assert first is not None and first[1].features is None
