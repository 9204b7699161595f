import math

import numpy as np
import pytest
from scipy import integrate

from boundarynoise import (
    Coefficients,
    DiagonalModel,
    PreconditionError,
    SingularResolventError,
    TailRule,
    TruncationMismatchError,
    Verdict,
    build_heat_neumann,
    build_transport,
    constant_one_feedback,
    dirichlet_frequency_criterion,
    dirichlet_hs_norm_spectral,
    heat_dirichlet_closed_form,
    heat_dirichlet_hs_norm_quadrature,
)
from helpers import heat_field

SQ_PI = math.sqrt(math.pi)
SQ_2PI = math.sqrt(2.0 / math.pi)
HS_AT_ONE = (math.pi + math.sinh(2 * math.pi) / 2.0) / (2.0 * math.sinh(math.pi) ** 2)  # 0.513648...


class TestBuildHeat:
    def test_right_side_coefficients(self):
        heat = build_heat_neumann("right", 4)
        assert heat.control.array[:, 0] == pytest.approx(
            [1 / SQ_PI, -SQ_2PI, SQ_2PI, -SQ_2PI], rel=1e-12
        )

    def test_left_side_coefficients(self):
        heat = build_heat_neumann("left", 2)
        assert heat.control.array[:, 0] == pytest.approx([-1 / SQ_PI, -SQ_2PI], rel=1e-12)

    def test_eigenvalues(self):
        heat = build_heat_neumann("right", 4)
        assert heat.model.eigenvalues == pytest.approx([0.0, -1.0, -4.0, -9.0])

    def test_tail_weight_is_two_over_pi(self):
        for n in (1, 2, 8):
            heat = build_heat_neumann("right", n)
            assert heat.control.tail_weight() == pytest.approx(2.0 / math.pi)

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            build_heat_neumann("right", 0)
        with pytest.raises(PreconditionError):
            build_heat_neumann("top", 4)

    def test_constant_one_feedback(self):
        m = constant_one_feedback(5)
        assert m[0] == pytest.approx(SQ_PI)
        assert np.all(m[1:] == 0.0)
        # oracle: quadrature of the eigenfunctions against 1
        modes = np.eye(5)
        for n in range(5):
            val, _ = integrate.quad(lambda s, n=n: heat_field(modes[n], np.array([s]))[0], 0, math.pi)
            assert val == pytest.approx(m[n], abs=1e-10)

    def test_field_orthonormality(self):
        xi = np.linspace(0.0, math.pi, 20001)
        for n, m in [(0, 0), (1, 1), (0, 2), (1, 3)]:
            e_n = np.zeros(4)
            e_m = np.zeros(4)
            e_n[n] = 1.0
            e_m[m] = 1.0
            prod = heat_field(e_n, xi) * heat_field(e_m, xi)
            val = integrate.trapezoid(prod, xi)
            assert val == pytest.approx(1.0 if n == m else 0.0, abs=1e-6)


class TestHeatDirichletClosedForm:
    def test_wall_value(self):
        out = heat_dirichlet_closed_form(1.0, 0.0)
        assert out.real == pytest.approx(1.0 / math.sinh(math.pi), rel=1e-12)
        assert out.imag == pytest.approx(0.0, abs=1e-15)

    def test_noisy_end_value(self):
        out = heat_dirichlet_closed_form(1.0, math.pi)
        assert out.real == pytest.approx(1.0 / math.tanh(math.pi), rel=1e-12)

    def test_right_side_unit_flux(self):
        # phi'(pi) = 1 for the right problem: check by a small difference quotient
        lam = 2.0
        h = 1e-6
        d = (heat_dirichlet_closed_form(lam, math.pi) - heat_dirichlet_closed_form(lam, math.pi - h)) / h
        assert d.real == pytest.approx(1.0, rel=1e-4)

    def test_singular_at_spectrum(self):
        with pytest.raises(SingularResolventError):
            heat_dirichlet_closed_form(0.0, 1.0)
        with pytest.raises(SingularResolventError):
            heat_dirichlet_closed_form(-4.0, 1.0)

    def test_solves_the_boundary_value_problem(self):
        # oracle: finite differences on lam*phi = phi'' with phi'(0)=0, phi'(pi)=1
        lam = 1.7
        n = 4000
        xi = np.linspace(0.0, math.pi, n + 1)
        h = xi[1] - xi[0]
        main = np.full(n + 1, -2.0 / h**2 - lam)
        sub = np.full(n, 1.0 / h**2)
        mat = np.diag(main) + np.diag(sub, 1) + np.diag(sub, -1)
        rhs = np.zeros(n + 1)
        # second-order one-sided flux conditions
        mat[0, :3] = [-3.0 / (2 * h), 2.0 / h, -1.0 / (2 * h)]
        rhs[0] = 0.0
        mat[-1, -3:] = [1.0 / (2 * h), -2.0 / h, 3.0 / (2 * h)]
        rhs[-1] = 1.0
        sol = np.linalg.solve(mat, rhs)
        for k in (0, n // 3, n // 2, n):
            closed = heat_dirichlet_closed_form(lam, xi[k]).real
            assert closed == pytest.approx(sol[k], rel=5e-6, abs=5e-8)

    def test_left_side_mirror(self):
        lam = 2.3
        right = heat_dirichlet_closed_form(lam, 0.7, side="right")
        left = heat_dirichlet_closed_form(lam, math.pi - 0.7, side="left")
        assert left == pytest.approx(-right)

    def test_left_side_flux_sign(self):
        # phi'(0) = 1 for the left problem: check by a small difference quotient
        lam = 1.3
        h = 1e-6
        d = (heat_dirichlet_closed_form(lam, h, side="left")
             - heat_dirichlet_closed_form(lam, 0.0, side="left")) / h
        assert d.real == pytest.approx(1.0, rel=1e-4)

    def test_complex_argument_stable(self):
        out = heat_dirichlet_closed_form(3.0 + 40.0j, 2.0)
        assert np.isfinite(out.real) and np.isfinite(out.imag)

    def test_matches_naive_hyperbolic_form_at_moderate_argument(self):
        import cmath

        for lam in (0.7, 5.0 - 2.0j, -2.5 + 1.0j, 30.0):
            a = cmath.sqrt(complex(lam))
            for xi in (0.0, 1.1, math.pi):
                naive = cmath.cosh(a * xi) / (a * cmath.sinh(a * math.pi))
                stable = heat_dirichlet_closed_form(lam, xi)
                assert stable == pytest.approx(naive, rel=1e-12)

    def test_huge_argument_does_not_overflow(self):
        # naive cosh/sinh overflows near |sqrt(lam)| pi > 700; the exp form must not
        out = heat_dirichlet_closed_form(1e6, 3.0)
        assert np.isfinite(out.real) and np.isfinite(out.imag)
        assert abs(out) <= 1.0


class TestDirichletNorm:
    def test_heat_spectral_value(self):
        heat = build_heat_neumann("right", 64)
        val = dirichlet_hs_norm_spectral(heat.model, heat.control, 1.0)
        assert val == pytest.approx(HS_AT_ONE, rel=1e-8)

    def test_cross_oracle_on_grid(self):
        heat = build_heat_neumann("right", 64)
        rng = np.random.default_rng(12)
        res = rng.uniform(0.15, 30.0, size=10)
        ims = rng.uniform(-20.0, 20.0, size=10)
        for k in range(20):
            lam = complex(res[k % 10], 0.0 if k < 10 else ims[k % 10])
            spectral = dirichlet_hs_norm_spectral(heat.model, heat.control, lam)
            quad = heat_dirichlet_hs_norm_quadrature(lam)
            assert abs(spectral - quad) / quad <= 1e-6

    def test_single_mode(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        ctrl = Coefficients(np.array([[1.0]]))
        assert dirichlet_hs_norm_spectral(model, ctrl, 1.0) == pytest.approx(0.25)
        assert dirichlet_hs_norm_spectral(model, Coefficients(np.zeros((1, 1))), 1.0) == 0.0

    def test_underflowed_gap(self):
        # |1e-170 - (-4e-203)|^2 underflows to 0: the zero-weight mode adds 0, a weighted one is not certified
        model = DiagonalModel.from_eigenvalues([-4e-203, -1.0])
        zero_first = Coefficients(np.array([[0.0], [1.0]]))
        assert dirichlet_hs_norm_spectral(model, zero_first, 1e-170) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(PreconditionError, match="not finite"):
            dirichlet_hs_norm_spectral(model, Coefficients(np.ones((2, 1))), 1e-170)

    def test_singular_point_rejected(self):
        heat = build_heat_neumann("right", 8)
        with pytest.raises(SingularResolventError):
            dirichlet_hs_norm_spectral(heat.model, heat.control, -1.0)

    def test_ell2_tail_certifies(self):
        model = DiagonalModel.from_power(1.0, 2.0, 8, include_zero_mode=False)
        ctrl = Coefficients(np.ones((8, 1)), tail=TailRule("ell2", 0.25))
        val = dirichlet_hs_norm_spectral(model, ctrl, 1.0)
        assert val == pytest.approx(float(np.sum(1.0 / (1.0 + np.arange(1, 9) ** 2) ** 2)), rel=1e-14)

    def test_mode_count_mismatch(self):
        heat = build_heat_neumann("right", 8)
        with pytest.raises(TruncationMismatchError):
            dirichlet_hs_norm_spectral(heat.model, Coefficients(np.ones((7, 1))), 1.0)

    def test_resolvent_dirichlet_identity(self):
        # solution-map columns satisfy D(lam) - D(mu) = (mu - lam) R(lam, A) D(mu) spectrally
        heat = build_heat_neumann("right", 32)
        beta = heat.control.array[:, 0]
        lam_vals = heat.model.eigenvalues
        for lam, mu in [(1.0, 2.0), (0.5 + 1j, 3.0), (10.0, 0.3 - 2j)]:
            d_lam = beta / (lam - lam_vals)
            d_mu = beta / (mu - lam_vals)
            rhs = (mu - lam) * d_mu / (lam - lam_vals)
            assert np.allclose(d_lam - d_mu, rhs, rtol=1e-12, atol=1e-300)


class TestTransport:
    def test_build_validation(self):
        with pytest.raises(PreconditionError):
            build_transport(0.0, 1)
        with pytest.raises(PreconditionError):
            build_transport(1.0, 0)

    def test_unit_norm(self):
        tm = build_transport(1.0, 1)
        assert tm.dirichlet_hs_norm_sq(1.0) == pytest.approx((1 - math.exp(-2.0)) / 2.0)

    def test_imaginary_axis_limit(self):
        for d in (1, 3):
            tm = build_transport(0.7, d)
            assert tm.dirichlet_hs_norm_sq(0.0) == pytest.approx(d * 0.7)
            assert tm.dirichlet_hs_norm_sq(1e-9) == pytest.approx(d * 0.7, rel=1e-6)

    def test_norm_depends_only_on_real_part(self):
        tm = build_transport(1.0, 2)
        assert tm.dirichlet_hs_norm_sq(1.0 + 5.0j) == tm.dirichlet_hs_norm_sq(1.0)


class TestDirichletFrequencyCriterion:
    def test_transport_unit_channel(self):
        tm = build_transport(1.0, 1)
        out = dirichlet_frequency_criterion(tm, 1.0, 1.0, 10)
        assert out.verdict is Verdict.DIVERGED
        assert out.evidence == "terms constant in n"
        assert out.partial_value == pytest.approx(21 * (1 - math.exp(-2.0)) / 2.0)

    def test_transport_countable(self):
        tm = build_transport(2.0, "countable")
        out = dirichlet_frequency_criterion(tm, 0.5, 1.0, 4)
        assert out.verdict is Verdict.DIVERGED
        assert "single term infinite" in out.evidence
        assert math.isinf(out.partial_value)

    def test_transport_diverges_over_parameter_grid(self):
        for r in (0.25, 1.0, 3.0):
            for d in (1, 2, 5):
                for omega in (0.0, 0.5, 2.0):
                    out = dirichlet_frequency_criterion(build_transport(r, d), omega, 1.0, 5)
                    assert out.verdict is Verdict.DIVERGED
