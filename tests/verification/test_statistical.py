"""Unit and property tests for the Section III statistical layer."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verification.statistical import (
    ConfusionEstimate,
    clopper_pearson_lower,
    clopper_pearson_upper,
    estimate_confusion,
    residual_risk_bound,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


#: argv: src, then ``import`` or ``build OUT LP``; prints what it saw as JSON
_IMPORT_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def loaded(*names):
    return [name for name in names if name in sys.modules]

if sys.argv[2] == "import":
    import repro.cli, repro.interchange.instances, repro.scenario.streaming
    import repro.service.client, repro.service.httpd, repro.verification.cegar
    print(json.dumps(loaded("scipy.stats", "scipy.optimize", "scipy.sparse")))
    raise SystemExit
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    repro.cli.main(["build", "--out", sys.argv[3], "--scenes", "20",
                    "--epochs", "1", "--characterizer-epochs", "1",
                    "--characterizer-scenes", "20"])
seen = {"build": loaded("scipy.stats", "scipy.optimize", "scipy.sparse",
                        "repro.verification.cegar")}
import numpy as np
from repro.verification.milp.model import MILPArrays
from repro.verification.solver.lp import solve_lp_relaxation
arrays = MILPArrays(**{k: np.asarray(v) for k, v in json.loads(sys.argv[4]).items()})
result = solve_lp_relaxation(arrays)
seen["solve"] = loaded("scipy.optimize._highspy._core", "scipy.sparse")
seen["answer"] = [result.status.value, result.objective, result.x.tolist()]
print(json.dumps(seen))
"""


def _observe(*args: str):
    return json.loads(
        subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT, REPO_SRC, *args],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )


def test_scipy_stats_is_imported_lazily(tmp_path):
    """The CLI, streaming, daemon and CEGAR imports leave scipy.stats and
    the solver's scipy modules out; so does a whole ``repro build``,
    which also loads no CEGAR.  The first LP solve loads the HiGHS
    binding and answers as a process that loaded it at start."""
    from repro.verification.milp.model import MILPArrays
    from repro.verification.solver.lp import solve_lp_relaxation

    # min -x0 - 2 x1  s.t.  x0 + x1 <= 1.5,  x0 - x1 = 0.25,  0 <= x <= 1
    lp = {
        "c": [-1.0, -2.0],
        "a_ub": [[1.0, 1.0]],
        "b_ub": [1.5],
        "a_eq": [[1.0, -1.0]],
        "b_eq": [0.25],
        "lower": [0.0, 0.0],
        "upper": [1.0, 1.0],
        "binary_mask": [False, False],
    }
    assert _observe("import") == []
    seen = _observe("build", str(tmp_path / "system"), json.dumps(lp))
    assert seen["build"] == []
    assert (tmp_path / "system" / "meta.json").exists()
    assert seen["solve"] == ["scipy.optimize._highspy._core", "scipy.sparse"]
    here = solve_lp_relaxation(MILPArrays(**{k: np.asarray(v) for k, v in lp.items()}))
    assert seen["answer"] == [here.status.value, here.objective, here.x.tolist()]
    assert here.objective == pytest.approx(-2.125)


class TestClopperPearson:
    def test_zero_successes(self):
        upper = clopper_pearson_upper(0, 100, 0.95)
        assert 0.0 < upper < 0.05  # rule of three: ~3/n
        assert upper == pytest.approx(1 - 0.05 ** (1 / 100), rel=1e-6)

    def test_all_successes(self):
        assert clopper_pearson_upper(100, 100) == 1.0
        assert clopper_pearson_lower(0, 100) == 0.0

    def test_upper_above_point_estimate(self):
        assert clopper_pearson_upper(10, 100) > 0.1

    def test_monotone_in_confidence(self):
        assert clopper_pearson_upper(5, 50, 0.99) > clopper_pearson_upper(5, 50, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            clopper_pearson_upper(0, 0)
        with pytest.raises(ValueError, match="successes"):
            clopper_pearson_upper(5, 3)
        with pytest.raises(ValueError, match="confidence"):
            clopper_pearson_upper(1, 10, 1.5)

    def test_equals_the_beta_quantile_bitwise(self):
        """The inverse incomplete beta is ``scipy.stats.beta.ppf`` exactly."""
        from scipy import stats

        rng = np.random.default_rng(20)
        cases = [(0, 1), (0, 2), (1, 2)]
        for trials in (3, 10, 100, 1_000, 20_000):
            cases += [(0, trials), (trials - 1, trials), (trials // 2, trials)]
        trials = rng.integers(1, 5_000, size=200)
        cases += [(int(rng.integers(0, t)), int(t)) for t in trials]
        for successes, trials in cases:
            for confidence in (0.9, 0.95, 0.99):
                expected = stats.beta.ppf(confidence, successes + 1, trials - successes)
                assert clopper_pearson_upper(successes, trials, confidence) == float(
                    expected
                ), (successes, trials, confidence)

    @given(st.integers(1, 500), st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_bounds_bracket_estimate(self, trials, successes_raw):
        successes = min(successes_raw, trials)
        upper = clopper_pearson_upper(successes, trials)
        lower = clopper_pearson_lower(successes, trials)
        p_hat = successes / trials
        assert lower <= p_hat + 1e-12
        assert upper >= p_hat - 1e-12


class TestEstimateConfusion:
    def test_table_one_cells(self):
        h = np.array([1, 1, 0, 0, 1, 0])
        phi = np.array([1, 0, 1, 0, 1, 0])
        c = estimate_confusion(h, phi)
        assert c.alpha == pytest.approx(2 / 6)  # h=1, phi=1
        assert c.beta == pytest.approx(1 / 6)  # h=1, phi=0
        assert c.gamma == pytest.approx(1 / 6)  # h=0, phi=1
        assert c.delta == pytest.approx(2 / 6)  # h=0, phi=0

    def test_guarantee_is_one_minus_gamma(self):
        h = np.array([1, 0, 0])
        phi = np.array([1, 1, 0])
        c = estimate_confusion(h, phi)
        assert c.guarantee == pytest.approx(1.0 - 1 / 3)
        assert c.guarantee_lower <= c.guarantee

    def test_perfect_characterizer(self):
        phi = np.array([1, 0, 1, 0] * 25)
        c = estimate_confusion(phi, phi)
        assert c.gamma == 0.0
        assert c.characterizer_accuracy == 1.0
        assert c.recall == 1.0
        assert c.guarantee == 1.0
        assert c.guarantee_lower > 0.95  # CP bound with n=100, 0 misses

    def test_coin_flip_characterizer(self):
        rng = np.random.default_rng(0)
        phi = rng.random(10_000) > 0.5
        h = rng.random(10_000) > 0.5
        c = estimate_confusion(h, phi)
        assert abs(c.characterizer_accuracy - 0.5) < 0.03
        assert abs(c.gamma - 0.25) < 0.03

    def test_recall_nan_when_no_positives(self):
        c = estimate_confusion(np.zeros(10), np.zeros(10))
        assert np.isnan(c.recall)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            estimate_confusion(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="zero samples"):
            estimate_confusion(np.zeros(0), np.zeros(0))

    def test_summary_mentions_guarantee(self):
        c = estimate_confusion(np.array([1, 0]), np.array([1, 0]))
        assert "1-gamma" in c.summary()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cells_always_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        h = rng.random(n) > rng.random()
        phi = rng.random(n) > rng.random()
        c = estimate_confusion(h, phi)
        assert c.alpha + c.beta + c.gamma + c.delta == pytest.approx(1.0)


class TestConfusionValidation:
    def test_rejects_cells_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionEstimate(
                alpha=0.5, beta=0.5, gamma=0.5, delta=0.5,
                n=10, gamma_count=5, confidence=0.95,
            )


class TestResidualRiskBound:
    def test_no_proof_no_bound(self):
        c = estimate_confusion(np.array([1, 0]), np.array([1, 0]))
        assert residual_risk_bound(c, proof_holds=False) == 1.0

    def test_proof_bounds_by_gamma_upper(self):
        phi = np.array([1, 0] * 100)
        c = estimate_confusion(phi, phi)  # gamma = 0
        bound = residual_risk_bound(c, proof_holds=True)
        assert bound == c.gamma_upper
        assert bound < 0.05
