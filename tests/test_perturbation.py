import math

import numpy as np
import pytest
from scipy import integrate

from boundarynoise import (
    Coefficients,
    DiagonalModel,
    PreconditionError,
    RankOnePerturbation,
    ResolutionError,
    TailRule,
    Verdict,
    VolterraProblem,
    build_heat_neumann,
    constant_one_feedback,
    galerkin_perturbed_generator,
    gamma_time,
    graded_mesh,
    perturbed_gamma_time,
    perturbed_orbit_defect,
    perturbed_semigroup_apply,
    volterra_resolve,
)
from boundarynoise.perturbation import _trapezoid
from helpers import taylor_expm


def two_mode():
    model = DiagonalModel.from_eigenvalues([-1.0, -2.0])
    pert = RankOnePerturbation(b=[1.0, 1.0], m=[0.3, 0.4])
    return model, pert


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

    def test_volterra_rejects_coarse_grid(self):
        model, pert = two_mode()
        with pytest.raises(ResolutionError):
            perturbed_semigroup_apply(
                model, pert, 1.0, np.array([1.0, 0.0]), method="volterra",
                grid_points=8, sigma=0.5,
            )

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
            assert perturbed_orbit_defect(model, pert, rng.uniform(0.2, 1.0), x, quad_points=801) <= 1e-4


class TestTrapezoid:
    @pytest.mark.parametrize("points", [5, 600, 2049])
    def test_bit_identical_to_scipy(self, points):
        rng = np.random.default_rng(points)
        x = np.cumsum(rng.uniform(1e-3, 1.0, points))
        y = rng.standard_normal((points, 64)) * np.exp(rng.uniform(-20.0, 20.0, (points, 1)))
        assert _trapezoid(y, x).tobytes() == integrate.trapezoid(y, x, axis=0).tobytes()


class TestVolterraSolver:
    def test_zero_kernel_returns_forcing(self):
        grid = graded_mesh(1.0, 64, 0.0)
        a = np.sin(grid)
        g = volterra_resolve(VolterraProblem(a, lambda t: np.zeros_like(t), 0.0, grid))
        assert g == pytest.approx(a)

    def test_constant_kernel_exponential(self):
        grid = graded_mesh(1.0, 1000, 0.0)
        g = volterra_resolve(
            VolterraProblem(lambda s: np.ones_like(s), lambda t: np.ones_like(t), 0.0, grid)
        )
        assert abs(g[-1] - math.e) <= 1e-4

    def test_abel_kernel_against_fine_grid(self):
        kernel = lambda t: t**-0.5
        coarse = graded_mesh(1.0, 800, 0.5)
        fine = graded_mesh(1.0, 3200, 0.5)
        g_c = volterra_resolve(VolterraProblem(lambda s: np.ones_like(s), kernel, 0.5, coarse))
        g_f = volterra_resolve(VolterraProblem(lambda s: np.ones_like(s), kernel, 0.5, fine))
        assert abs(g_c[-1] - g_f[-1]) / abs(g_f[-1]) <= 1e-3
        # classical resolvent: g(t) = e^{pi t} (1 + erf(sqrt(pi t)))
        from scipy.special import erf

        closed = math.exp(math.pi) * (1 + erf(math.sqrt(math.pi)))
        assert abs(g_f[-1] - closed) / closed <= 1e-3

    def test_refinement_gains_declared_order(self):
        kernel = lambda t: np.exp(-t)
        ref = volterra_resolve(
            VolterraProblem(lambda s: np.cos(s), kernel, 0.0, graded_mesh(1.0, 8192, 0.0))
        )[-1]
        errs = []
        for n in (128, 256):
            g = volterra_resolve(
                VolterraProblem(lambda s: np.cos(s), kernel, 0.0, graded_mesh(1.0, n, 0.0))
            )
            errs.append(abs(g[-1] - ref))
        # product trapezoid at sigma=0 is second order: halving h quarters the error
        assert errs[1] <= errs[0] / 3.0

    def test_rejects_singularity_at_least_one(self):
        grid = graded_mesh(1.0, 32, 0.0)
        with pytest.raises(PreconditionError):
            VolterraProblem(lambda s: np.ones_like(s), lambda t: t**-1.0, 1.0, grid)

    def test_rejects_bad_grids(self):
        with pytest.raises(PreconditionError):
            VolterraProblem(lambda s: s, lambda t: t, 0.0, np.array([0.5, 1.0]))
        with pytest.raises(PreconditionError):
            VolterraProblem(lambda s: s, lambda t: t, 0.0, np.array([0.0, 0.0, 1.0]))


class TestPerturbedGamma:
    def test_zero_feedback_reduces_to_gamma_time(self):
        model, _ = two_mode()
        pert = RankOnePerturbation(b=[1.0, 1.0], m=[0.0, 0.0])
        ctrl = Coefficients(np.array([[1.0], [1.0]]))
        out = perturbed_gamma_time(model, pert, ctrl, 1.0)
        base = gamma_time(model, ctrl, 1.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.value == pytest.approx(base.value, rel=1e-9)

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
        out = perturbed_gamma_time(heat.model, pert, heat.control, 1.0, levels=(16, 32, 64))
        assert out.verdict is Verdict.CONVERGED
        assert out.tail_bound <= 0.01 * out.value

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
