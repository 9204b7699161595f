import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from boundarynoise import (
    Coefficients,
    DiagonalModel,
    PreconditionError,
    RankOnePerturbation,
    TailRule,
    TruncationMismatchError,
    Verdict,
    build_heat_neumann,
    constant_one_feedback,
    galerkin_perturbed_generator,
    gamma_time,
    perturbed_gamma_time,
    perturbed_orbit_defect,
    perturbed_semigroup_apply,
)
from boundarynoise.perturbation import _exp_weights, _expm
from helpers import taylor_expm


def two_mode():
    model = DiagonalModel.from_eigenvalues([-1.0, -2.0])
    pert = RankOnePerturbation(b=[1.0, 1.0], m=[0.3, 0.4])
    return model, pert


def heat_feedback(side, modes):
    """Heat with right-end control, fed back through the ``side`` control column and ``m = constant_one``.

    Left-side feedback makes the generator lower triangular with diagonal
    entries ``-(1/sqrt(pi)) sqrt(pi) = -0.9999999999999999`` and ``-1`` one ulp
    apart.  scipy's triangular squaring branch returns entry (1, 0) of
    ``expm(0.5 A)`` as 0 instead of -0.4289 on it.
    """
    heat = build_heat_neumann("right", modes)
    b = build_heat_neumann(side, modes).control.array[:, 0]
    return heat, RankOnePerturbation(b=b, m=constant_one_feedback(modes))


class TestGenerator:
    def test_scalar(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        pert = RankOnePerturbation(b=[1.0], m=[0.5])
        assert galerkin_perturbed_generator(model, pert) == pytest.approx(np.array([[-0.5]]))

    def test_two_mode_entries(self):
        model, pert = two_mode()
        gen = galerkin_perturbed_generator(model, pert)
        assert np.allclose(gen, [[-0.7, 0.4], [0.3, -1.6]])

    def test_heat_mean_feedback_hits_only_column_zero(self):
        heat = build_heat_neumann("right", 3)
        b = build_heat_neumann("left", 3).control.array[:, 0]
        pert = RankOnePerturbation(b=b, m=constant_one_feedback(3))
        gen = galerkin_perturbed_generator(heat.model, pert)
        off_diag = gen - np.diag(heat.model.eigenvalues)
        assert np.allclose(off_diag[:, 0], b * math.sqrt(math.pi))
        assert np.all(off_diag[:, 1:] == 0.0)
        # oracle for the functional coefficients: quadrature of each eigenfunction
        for n, expected in enumerate(constant_one_feedback(3)):
            coeff = [1 / math.sqrt(math.pi)] if n == 0 else None
            f = (lambda s: 1 / math.sqrt(math.pi)) if n == 0 else (
                lambda s, n=n: math.sqrt(2 / math.pi) * math.cos(n * s)
            )
            val, _ = integrate.quad(f, 0.0, math.pi)
            assert val == pytest.approx(expected, abs=1e-12)

    def test_zero_feedback_is_diagonal(self):
        model, _ = two_mode()
        pert = RankOnePerturbation(b=[1.0, 1.0], m=[0.0, 0.0])
        assert np.allclose(galerkin_perturbed_generator(model, pert), np.diag([-1.0, -2.0]))

    def test_truncation_out_of_range(self):
        model, pert = two_mode()
        with pytest.raises(PreconditionError):
            galerkin_perturbed_generator(model, pert, 3)


class TestPerturbedSemigroup:
    def test_scalar_closed_form(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        pert = RankOnePerturbation(b=[1.0], m=[0.5])
        out = perturbed_semigroup_apply(model, pert, 1.0, np.array([1.0]))
        assert out[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_zero_feedback_matches_semigroup(self):
        model, _ = two_mode()
        pert = RankOnePerturbation(b=[1.0, 1.0], m=[0.0, 0.0])
        x = np.array([0.4, -1.1])
        for t in (0.0, 0.3, 2.0):
            out = perturbed_semigroup_apply(model, pert, t, x)
            assert out == pytest.approx(np.exp(model.eigenvalues * t) * x, rel=1e-12)

    def test_matches_taylor_expm_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            model = DiagonalModel.from_eigenvalues(rng.uniform(-8.0, -0.2, size=n))
            pert = RankOnePerturbation(b=rng.standard_normal(n), m=rng.standard_normal(n) * 0.5)
            x = rng.standard_normal(n)
            t = rng.uniform(0.1, 1.5)
            ours = perturbed_semigroup_apply(model, pert, t, x)
            oracle = taylor_expm(galerkin_perturbed_generator(model, pert), t) @ x
            assert np.linalg.norm(ours - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1e-12)

    def test_left_feedback_matches_taylor_expm_oracle(self):
        heat, pert = heat_feedback("left", 64)
        x = np.random.default_rng(5).standard_normal(64)
        ours = perturbed_semigroup_apply(heat.model, pert, 0.5, x, method="galerkin")
        oracle = taylor_expm(galerkin_perturbed_generator(heat.model, pert), 0.5) @ x
        assert np.linalg.norm(ours - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_volterra_route_agrees(self):
        model, pert = two_mode()
        x = np.array([1.0, 0.0])
        for t in (0.1, 0.4, 0.7, 1.0):
            g = perturbed_semigroup_apply(model, pert, t, x)
            v = perturbed_semigroup_apply(model, pert, t, x, method="volterra")
            assert np.linalg.norm(g - v) <= 1e-3 * np.linalg.norm(g)

    def test_volterra_route_random_family(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            n = int(rng.integers(1, 9))
            model = DiagonalModel.from_eigenvalues(rng.uniform(-6.0, -0.3, size=n))
            pert = RankOnePerturbation(
                b=rng.standard_normal(n) * 0.8, m=rng.standard_normal(n) * 0.5
            )
            x = rng.standard_normal(n)
            t = rng.uniform(0.1, 1.0)
            g = perturbed_semigroup_apply(model, pert, t, x)
            v = perturbed_semigroup_apply(model, pert, t, x, method="volterra")
            assert np.linalg.norm(g - v) <= 1e-3 * max(np.linalg.norm(g), 1e-9)

    def test_volterra_rejects_empty_grid(self):
        model, pert = two_mode()
        with pytest.raises(PreconditionError):
            perturbed_semigroup_apply(model, pert, 1.0, np.array([1.0, 0.0]), method="volterra", grid_points=0)

    def test_volterra_rejects_coarse_grid(self):
        # lambda = 0, b = m = 1, one step: the implicit factor 1 - t/2 is 0 at t = 2 and -1 at t = 4
        model = DiagonalModel.from_eigenvalues([0.0])
        pert = RankOnePerturbation(b=[1.0], m=[1.0])
        for t in (2.0, 4.0):
            with pytest.raises(PreconditionError, match="grid_points=1"):
                perturbed_semigroup_apply(model, pert, t, np.array([1.0]), method="volterra", grid_points=1)

    def test_semigroup_law(self):
        model, pert = two_mode()
        x = np.array([0.7, -0.2])
        for t, s in [(0.2, 0.5), (1.0, 0.3)]:
            once = perturbed_semigroup_apply(model, pert, t + s, x)
            twice = perturbed_semigroup_apply(model, pert, t, perturbed_semigroup_apply(model, pert, s, x))
            assert np.linalg.norm(once - twice) <= 1e-10 * np.linalg.norm(once)

    def test_variation_of_constants_closes(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            model = DiagonalModel.from_eigenvalues(rng.uniform(-5.0, -0.5, size=n))
            pert = RankOnePerturbation(b=rng.standard_normal(n), m=rng.standard_normal(n) * 0.4)
            x = rng.standard_normal(n)
            assert perturbed_orbit_defect(model, pert, rng.uniform(0.2, 1.0), x) <= 1e-4

    @pytest.mark.parametrize("route", [
        lambda model, pert, x: perturbed_orbit_defect(model, pert, 0.5, x),
        lambda model, pert, x: perturbed_semigroup_apply(model, pert, 0.5, x),
        lambda model, pert, x: perturbed_semigroup_apply(model, pert, 0.5, x, method="volterra"),
    ], ids=["orbit_defect", "galerkin", "volterra"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_state_of_another_truncation_refused(self, route, length):
        model, pert = two_mode()
        with pytest.raises(TruncationMismatchError, match="does not match model truncation 2"):
            route(model, pert, np.ones(length))


class TestScaledExponential:
    @pytest.mark.parametrize("norm, m", [(0.0, 1), (0.5, 1), (1.0, 1), (4.0, 4), (4.000001, 8), (3000.0, 4096)])
    def test_least_power_of_two_step_count(self, norm, m):
        a = np.array([[-norm, 0.0], [0.0, 0.0]])
        step, got = _expm(a, 1.0)
        assert got == m
        assert step[0, 0] == pytest.approx(math.exp(-norm / m), rel=1e-14)

    def test_step_count_past_the_float_range(self):
        # ||a|| t = 1.5 * 2^1023 needs m = 2^1024, which no float holds: t / m must not divide by it
        step, m = _expm(np.array([[-1.5]]), 2.0**1023)
        assert m == 2**1024
        assert step[0, 0] == pytest.approx(math.exp(-0.75), rel=1e-14)

    @pytest.mark.parametrize("t", [0.5 / 2048, 0.5])
    def test_left_feedback_propagator_matches_taylor_expm(self, t):
        # t = 0.5 / 2048 is the step perturbed_orbit_defect propagates by at its default grid
        heat, pert = heat_feedback("left", 64)
        gen = galerkin_perturbed_generator(heat.model, pert)
        oracle = taylor_expm(gen, t)
        assert np.linalg.norm(np.linalg.matrix_power(*_expm(gen, t)) - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_scipy_sees_only_norm_at_most_one(self, monkeypatch):
        from scipy import linalg

        norms = []
        expm = linalg.expm

        def recording(a):
            norms.append(float(np.linalg.norm(a, 1)))
            return expm(a)

        monkeypatch.setattr(linalg, "expm", recording)
        heat, pert = heat_feedback("left", 64)
        perturbed_gamma_time(heat.model, pert, heat.control, 1.0)
        assert len(norms) == 3
        x = np.ones(64)
        perturbed_semigroup_apply(heat.model, pert, 0.5, x)
        perturbed_orbit_defect(heat.model, pert, 0.5, x)
        assert len(norms) == 5
        assert max(norms) <= 1.0


def mp_weights(z):
    """``(e^z, (phi1 - phi2)(z), phi2(z))`` in 60-digit arithmetic; the series where ``z`` is tiny."""
    with mpmath.workdps(60):
        z = mpmath.mpf(z)
        if abs(z) < mpmath.mpf("1e-6"):
            phi2 = sum(z**j / mpmath.factorial(j + 2) for j in range(6))
            phi12 = sum((j + 1) * z**j / mpmath.factorial(j + 2) for j in range(6))
        else:
            phi2 = (mpmath.expm1(z) - z) / z**2
            phi12 = mpmath.expm1(z) / z - phi2
        return [float(v) for v in (mpmath.exp(z), phi12, phi2)]


class TestExpWeights:
    @pytest.mark.parametrize("z", [0.0, 1e-12, -1e-12, np.nextafter(1.0, 0.0), 1.0, np.nextafter(-1.0, 0.0), -1.0,
                                   0.5, -0.5, 3.0, -3.0, -40.0])
    def test_against_mpmath(self, z):
        h = 0.25
        got = _exp_weights(np.array([z / h]), h)
        for value, want, scale in zip(got, mp_weights(z), (1.0, h, h)):
            assert float(value[0]) == pytest.approx(scale * want, rel=1e-14, abs=0.0)

    def test_linear_signal_integrates_exactly(self):
        # int_0^h e^{lam (h - s)} (g0 + (g1 - g0) s / h) ds by mpmath quadrature, at lam h from -40 to 2
        lam, h, g0, g1 = np.array([-160.0, -3.0, -1e-9, 0.0, 2.5, 8.0]), 0.25, 0.7, -1.3
        _, w0, w1 = _exp_weights(lam, h)
        for k, rate in enumerate(lam):
            with mpmath.workdps(30):
                ref = mpmath.quad(lambda s: mpmath.exp(rate * (h - s)) * (g0 + (g1 - g0) * s / h), [0.0, h])
            assert w0[k] * g0 + w1[k] * g1 == pytest.approx(float(ref), rel=1e-13)

    def test_extreme_rates_stay_finite(self):
        decay, w0, w1 = _exp_weights(np.array([-1e308, -5e-324, 5e-324]), 1.0)
        assert np.all(np.isfinite(w0)) and np.all(np.isfinite(w1))
        assert w1[0] == 1e-308 and decay[0] == 0.0
        assert w0[1] == w1[1] == 0.5


class TestVolterraRoute:
    """The exponential-integrator route against Galerkin on heat-64 with ``constant_one`` feedback."""

    T = 0.5

    @staticmethod
    def state():
        return np.random.default_rng(64).standard_normal(64) / (1.0 + np.arange(64)) ** 2

    def error(self, side, points):
        heat, pert = heat_feedback(side, 64)
        x = self.state()
        ref = perturbed_semigroup_apply(heat.model, pert, self.T, x)
        got = perturbed_semigroup_apply(heat.model, pert, self.T, x, method="volterra", grid_points=points)
        return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))

    def test_zero_kernel_returns_orbit(self):
        # m = 0: the kernel vanishes, g is the forcing, and the route is the unperturbed orbit
        heat = build_heat_neumann("right", 64)
        pert = RankOnePerturbation(b=heat.control.array[:, 0], m=np.zeros(64))
        x = self.state()
        got = perturbed_semigroup_apply(heat.model, pert, self.T, x, method="volterra")
        assert np.array_equal(got, np.exp(heat.model.eigenvalues * self.T) * x)

    def test_constant_kernel_exponential(self):
        # lambda = 0, b = m = 1: K = 1 and g = 1 + int_0^t g, so g(t) = y(t) = e^t
        model = DiagonalModel.from_eigenvalues([0.0])
        pert = RankOnePerturbation(b=[1.0], m=[1.0])
        got = perturbed_semigroup_apply(model, pert, 1.0, np.array([1.0]), method="volterra", grid_points=1000)
        assert abs(got[0] - math.e) <= 1e-6

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matches_galerkin_at_600_points(self, side):
        assert self.error(side, 600) <= 1e-6

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_second_order_in_the_step(self, side):
        errors = [self.error(side, points) for points in (150, 300, 600)]
        assert errors[1] <= errors[0] / 3.0
        assert errors[2] <= errors[1] / 3.0

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_orbit_defect_is_small(self, side):
        heat, pert = heat_feedback(side, 64)
        assert perturbed_orbit_defect(heat.model, pert, self.T, self.state()) <= 1e-7


class TestPerturbedGamma:
    def test_zero_feedback_reduces_to_gamma_time(self):
        two, _ = two_mode()
        heat = build_heat_neumann("right", 64)
        for model, ctrl in [(two, Coefficients(np.array([[1.0], [1.0]]))), (heat.model, heat.control)]:
            pert = RankOnePerturbation(b=np.ones(model.mode_count), m=np.zeros(model.mode_count))
            out = perturbed_gamma_time(model, pert, ctrl, 1.0)
            base = gamma_time(model, ctrl, 1.0)
            assert out.verdict is Verdict.CONVERGED
            # the ladder's top level is the materialized sum, without the certified mode tail
            assert out.value == pytest.approx(base.partial_value, rel=1e-12)

    def test_single_mode_closed_form(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        pert = RankOnePerturbation(b=[1.0], m=[0.5])
        ctrl = Coefficients(np.array([[1.0]]))
        out = perturbed_gamma_time(model, pert, ctrl, 1.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_heat_feedback_configuration_is_stable_in_truncation(self):
        heat = build_heat_neumann("right", 64)
        b_left = build_heat_neumann("left", 64).control.array[:, 0]
        pert = RankOnePerturbation(b=b_left, m=constant_one_feedback(64))
        out = perturbed_gamma_time(heat.model, pert, heat.control, 1.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.tail_bound <= 0.01 * out.value

    def test_right_feedback_matches_eig_quad_reference(self):
        # right-side feedback: diagonal 0.9999999999999999, -1, -4, ...; well separated, so eig is safe
        heat, pert = heat_feedback("right", 64)
        lam, vec = np.linalg.eig(galerkin_perturbed_generator(heat.model, pert))
        coef = np.linalg.solve(vec, heat.control.array[:, 0])
        ref, _ = integrate.quad(lambda t: float(np.linalg.norm(vec @ (np.exp(lam * t) * coef)) ** 2),
                                0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-13)
        out = perturbed_gamma_time(heat.model, pert, heat.control, 1.0)
        assert out.value == pytest.approx(ref, rel=1e-9)

    def test_left_feedback_matches_dyadic_quadrature_of_taylor_expm(self):
        # the generator's two leading diagonal entries are an ulp apart (a defective
        # pair for eig), so the reference integrates the Taylor exponential instead:
        # Gauss-Legendre on [2^-j-1, 2^-j], j < 50, resolves the boundary layer at 0;
        # [0, 2^-50] holds at most ||B||^2 2^-50
        heat, pert = heat_feedback("left", 32)
        gen = galerkin_perturbed_generator(heat.model, pert)
        cols = heat.control.array
        xs, ws = np.polynomial.legendre.leggauss(16)
        ref = 0.0
        for j in range(50):
            mid, half = 0.75 * 2.0**-j, 0.25 * 2.0**-j
            ref += half * sum(w * np.linalg.norm(taylor_expm(gen, mid + half * x) @ cols) ** 2
                              for x, w in zip(xs, ws))
        out = perturbed_gamma_time(heat.model, pert, heat.control, 1.0)
        assert out.value == pytest.approx(ref, rel=1e-9)

    def test_overflowing_norm_is_inconclusive_without_expm(self, monkeypatch):
        from scipy import linalg

        calls = []
        monkeypatch.setattr(linalg, "expm", lambda a: calls.append(a))
        heat, pert = heat_feedback("right", 16)
        out = perturbed_gamma_time(heat.model, pert, heat.control, 1e308)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert "norm times T=1e+308 overflows float64 at N=4" in out.evidence
        assert not calls

    @pytest.mark.parametrize("T", [1e3, 1e300])
    def test_overflowing_gramian_is_inconclusive(self, T):
        # right feedback lifts the zero eigenvalue to about 1, so e^{2T} overflows in the doublings
        heat, pert = heat_feedback("right", 16)
        out = perturbed_gamma_time(heat.model, pert, heat.control, T)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert out.evidence == f"the perturbed Gramian overflows float64 at N=4, T={T:g}"

    def test_requires_solvable_base_problem(self):
        model = DiagonalModel.from_power(1.0, 1.0, 4, include_zero_mode=False)
        ctrl = Coefficients(np.ones((4, 1)), tail=TailRule("constant", 1.0))
        pert = RankOnePerturbation(b=np.ones(4), m=np.full(4, 0.1))
        with pytest.raises(PreconditionError, match="unperturbed"):
            perturbed_gamma_time(model, pert, ctrl, 1.0)

    def test_randomized_admissible_perturbations_never_diverge(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            model = DiagonalModel.from_eigenvalues(rng.uniform(-30.0, -0.2, size=n))
            ctrl = Coefficients(np.sqrt(rng.uniform(0.0, 4.0, size=n))[:, None])
            pert = RankOnePerturbation(
                b=rng.standard_normal(n) * 0.6, m=rng.standard_normal(n) * 0.5
            )
            out = perturbed_gamma_time(model, pert, ctrl, rng.uniform(0.3, 1.5))
            assert out.verdict is not Verdict.DIVERGED
