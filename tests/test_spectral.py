import math

import numpy as np
import pytest
from scipy import integrate

from boundarynoise import (
    Coefficients,
    DiagonalModel,
    PreconditionError,
    SpectrumTail,
    TailRule,
    TruncationMismatchError,
    evaluate_semigroup,
    growth_bound,
)
from boundarynoise.spectral import exp_integral


def heat_model(n=64):
    return DiagonalModel.from_power(1.0, 2.0, n, include_zero_mode=True)


class TestSemigroup:
    def test_identity_at_zero(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        assert evaluate_semigroup(model, 0.0, np.array([2.0])) == pytest.approx([2.0])

    def test_scalar_closed_form(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        out = evaluate_semigroup(model, math.log(2.0), np.array([1.0]))
        assert out[0] == pytest.approx(0.5, rel=1e-14)

    def test_heat_mode_coefficient(self):
        model = heat_model()
        x = np.zeros(64)
        x[2] = 1.0
        out = evaluate_semigroup(model, 1.0, x)
        assert out[2] == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert np.all(out[np.arange(64) != 2] == 0.0)

    def test_semigroup_law(self):
        rng = np.random.default_rng(11)
        model = heat_model()
        x = rng.standard_normal(64)
        for t, s in [(0.3, 0.9), (0.0, 1.2), (2.0, 0.05)]:
            once = evaluate_semigroup(model, t + s, x)
            twice = evaluate_semigroup(model, t, evaluate_semigroup(model, s, x))
            assert np.allclose(once, twice, rtol=1e-12, atol=1e-300)

    def test_rejects_negative_time(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        with pytest.raises(PreconditionError):
            evaluate_semigroup(model, -0.1, np.array([1.0]))

    def test_rejects_mismatched_truncation(self):
        model = DiagonalModel.from_eigenvalues([-1.0, -2.0])
        with pytest.raises(TruncationMismatchError):
            evaluate_semigroup(model, 1.0, np.array([1.0]))


class TestGrowthBound:
    def test_heat_is_zero(self):
        assert growth_bound(heat_model()) == 0.0

    def test_explicit_list(self):
        assert growth_bound(DiagonalModel.from_eigenvalues([-1.0, -2.0])) == -1.0

    def test_scaled_power(self):
        model = DiagonalModel.from_power(2.0, 2.0, 5, include_zero_mode=True)
        assert growth_bound(model) == 0.0

    def test_tail_dominates_when_first_materialized_is_overridden(self):
        model = DiagonalModel(np.array([-50.0, -1.0, -4.0]), tail=SpectrumTail(1.0, 2.0, 3))
        # materialized: -50, -1, -4; tail starts at -9
        assert growth_bound(model) == -1.0


def test_laplace_transform_consistency():
    # quadrature of the semigroup coefficient matches the resolvent per mode
    model = DiagonalModel.from_eigenvalues([-1.0, -4.0, 0.0])
    for lam in (1.0, 2.5):
        for n, ev in enumerate(model.eigenvalues):
            horizon = 40.0 / (lam - ev)
            val, _ = integrate.quad(lambda t: math.exp(-lam * t) * math.exp(ev * t), 0.0, horizon)
            assert val == pytest.approx(1.0 / (lam - ev), rel=1e-8)


class TestConstruction:
    def test_power_expansion(self):
        model = DiagonalModel.from_power(1.0, 2.0, 4, include_zero_mode=True)
        assert model.eigenvalues == pytest.approx([0.0, -1.0, -4.0, -9.0])
        assert model.tail.next_index == 4

    def test_power_without_zero_mode(self):
        model = DiagonalModel.from_power(1.0, 2.0, 3, include_zero_mode=False)
        assert model.eigenvalues == pytest.approx([-1.0, -4.0, -9.0])
        assert model.tail.next_index == 4

    def test_rejects_empty_spectrum(self):
        with pytest.raises(PreconditionError):
            DiagonalModel.from_eigenvalues([])


class TestCoefficients:
    def test_weights_and_gram(self):
        c = Coefficients(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert c.weights == pytest.approx([5.0, 9.0])
        assert np.allclose(c.gram, [[5.0, 3.0], [3.0, 9.0]])

    def test_column_promotion(self):
        c = Coefficients(np.array([1.0, -2.0]))
        assert c.array.shape == (2, 1)

    def test_tail_rule_parsing(self):
        assert TailRule.parse("constant") == TailRule("constant")
        assert TailRule.parse("zero_tail") == TailRule("zero")
        assert TailRule.parse("ell2:0.25") == TailRule("ell2", 0.25)

    def test_tail_rule_rejects_garbage(self):
        with pytest.raises(PreconditionError):
            TailRule.parse("ell2:many")
        with pytest.raises(PreconditionError):
            TailRule.parse("geometric")
        with pytest.raises(PreconditionError):
            TailRule("ell2", None)

    def test_constant_tail_weight_defaults_to_last_row(self):
        c = Coefficients(np.array([[1.0], [2.0]]), tail=TailRule("constant"))
        assert c.tail_weight() == pytest.approx(4.0)
        c2 = Coefficients(np.array([[1.0], [2.0]]), tail=TailRule("constant", 0.7))
        assert c2.tail_weight() == pytest.approx(0.7)


def test_exp_integral_handles_zero_eigenvalue():
    out = exp_integral(np.array([0.0, -1.0]), 2.0)
    assert out == pytest.approx([2.0, (1 - math.exp(-4.0)) / 2.0])
