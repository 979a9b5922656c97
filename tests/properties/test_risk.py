"""Unit tests for the risk-condition DSL."""

import numpy as np
import pytest

from repro.properties.risk import (
    LinearInequality,
    RiskCondition,
    output_geq,
    output_in_band,
    output_leq,
)


class TestLinearInequality:
    def test_leq_satisfied(self):
        ineq = LinearInequality((1.0, 0.0), "<=", 2.0)
        assert ineq.satisfied(np.array([1.5, 99.0]))
        assert not ineq.satisfied(np.array([2.5, 0.0]))

    def test_geq_normalization(self):
        ineq = LinearInequality((1.0, 0.0), ">=", 2.0)
        a, b = ineq.normalized()
        np.testing.assert_array_equal(a, [-1.0, 0.0])
        assert b == -2.0
        assert ineq.satisfied(np.array([3.0, 0.0]))

    def test_batch_evaluation(self):
        ineq = LinearInequality((1.0,), "<=", 0.0)
        result = ineq.satisfied(np.array([[-1.0], [1.0]]))
        assert result.tolist() == [True, False]

    def test_margin_sign_convention(self):
        ineq = LinearInequality((1.0,), "<=", 5.0)
        assert ineq.margin(np.array([3.0])) == pytest.approx(2.0)
        assert ineq.margin(np.array([7.0])) == pytest.approx(-2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="op"):
            LinearInequality((1.0,), "<", 0.0)
        with pytest.raises(ValueError, match="non-zero"):
            LinearInequality((0.0, 0.0), "<=", 0.0)

    def test_str_rendering(self):
        text = str(LinearInequality((1.0, -2.0), ">=", 0.5))
        assert "y[0]" in text and ">=" in text


class TestRiskCondition:
    def test_conjunction_semantics(self):
        band = RiskCondition("band", tuple(output_in_band(2, 0, -1.0, 1.0)))
        y = np.array([[0.0, 9.0], [2.0, 0.0], [-2.0, 0.0]])
        assert band.satisfied(y).tolist() == [True, False, False]

    def test_margin_is_worst_inequality(self):
        band = RiskCondition("band", tuple(output_in_band(2, 0, -1.0, 1.0)))
        margins = band.margin(np.array([[0.5, 0.0]]))
        assert margins[0] == pytest.approx(0.5)  # distance to nearest edge

    def test_as_matrix_shape(self):
        band = RiskCondition("band", tuple(output_in_band(3, 1, 0.0, 2.0)))
        a, b = band.as_matrix()
        assert a.shape == (2, 3) and b.shape == (2,)
        # both rows must hold exactly for y[1] in [0, 2]
        y = np.array([1.0, 1.0, 1.0])
        assert np.all(a @ y <= b)

    def test_as_matrix_is_built_once_and_read_only(self):
        band = RiskCondition("band", tuple(output_in_band(3, 1, 0.0, 2.0)))
        a, b = band.as_matrix()
        again = band.as_matrix()
        assert again[0] is a and again[1] is b
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            b[0] = 1.0

    def test_matrix_cache_leaves_equality_hash_and_pickle_alone(self):
        import pickle

        band = RiskCondition("band", tuple(output_in_band(3, 1, 0.0, 2.0)))
        fresh = RiskCondition("band", tuple(output_in_band(3, 1, 0.0, 2.0)))
        before = pickle.dumps(band)
        band.as_matrix()
        assert band == fresh and hash(band) == hash(fresh)
        assert pickle.dumps(band) == before == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(band))
        assert restored == band
        np.testing.assert_array_equal(restored.as_matrix()[0], band.as_matrix()[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RiskCondition("empty", ())
        with pytest.raises(ValueError, match="dimensions"):
            RiskCondition(
                "mixed",
                (output_geq(2, 0, 0.0), output_geq(3, 0, 0.0)),
            )


class TestHelpers:
    def test_output_leq_geq(self):
        leq = output_leq(3, 2, 1.0)
        assert leq.coeffs == (0.0, 0.0, 1.0) and leq.op == "<="
        geq = output_geq(3, 0, -1.0)
        assert geq.op == ">="

    def test_band_rejects_empty(self):
        with pytest.raises(ValueError, match="empty band"):
            list(output_in_band(2, 0, 1.0, -1.0))
