import math

import numpy as np
import pytest
from scipy import integrate

from boundarynoise import (
    Coefficients,
    DiagonalModel,
    PreconditionError,
    SeriesVerdict,
    SingularResolventError,
    TailRule,
    UnsupportedRepresentationError,
    Verdict,
    adjoint_duality_check,
    build_heat_neumann,
    build_transport,
    duality_residual,
    dyadic_diagnostic,
    frequency_series,
    gamma_infinite,
    gamma_time,
    parseval_identity_check,
    weiss_scan,
)
from helpers import brute_frequency_sum, piecewise_spectrum

HEAT_GAMMA_1 = 0.7988034073720152  # (1/pi) + (2/pi) sum_{n>=1} (1 - e^{-2n^2}) / (2n^2)


def single_mode(lam=-1.0, w=1.0):
    return DiagonalModel.from_eigenvalues([lam]), Coefficients(np.array([[math.sqrt(w)]]))


def finite_model(lams, ws):
    return (
        DiagonalModel.from_eigenvalues(lams),
        Coefficients(np.sqrt(np.asarray(ws, dtype=float))[:, None]),
    )


class TestGammaTime:
    def test_single_mode_closed_form(self):
        model, ctrl = single_mode()
        out = gamma_time(model, ctrl, 1.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.partial_value == pytest.approx(0.432332358, rel=1e-8)
        assert out.tail_bound == 0.0

    def test_heat_value_and_tail(self):
        heat = build_heat_neumann("right", 64)
        out = gamma_time(heat.model, heat.control, 1.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.value <= HEAT_GAMMA_1 <= out.upper
        assert out.relative_tail <= 1e-10

    def test_heat_partial_matches_time_quadrature(self):
        heat = build_heat_neumann("right", 64)
        out = gamma_time(heat.model, heat.control, 1.0)
        w = heat.control.weights
        lam = heat.model.eigenvalues
        oracle, _ = integrate.quad(
            lambda t: float(np.sum(w * np.exp(2.0 * lam * t))), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-12, limit=200,
        )
        assert out.partial_value == pytest.approx(oracle, rel=1e-10)

    def test_zero_coefficients(self):
        model = DiagonalModel.from_eigenvalues([-1.0, -4.0])
        ctrl = Coefficients(np.zeros((2, 1)))
        out = gamma_time(model, ctrl, 1.0)
        assert out.verdict is Verdict.CONVERGED and out.value == 0.0

    def test_rejects_nonpositive_horizon(self):
        model, ctrl = single_mode()
        with pytest.raises(PreconditionError):
            gamma_time(model, ctrl, 0.0)

    def test_missing_tail_rule_is_inconclusive(self):
        model = DiagonalModel.from_power(1.0, 2.0, 8)
        ctrl = Coefficients(np.ones((8, 1)))
        out = gamma_time(model, ctrl, 1.0)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert out.tail_bound is None

    def test_constant_weight_slow_spectrum_diverges(self):
        for p in (1.0, 0.5):
            model = DiagonalModel.from_power(1.0, p, 8, include_zero_mode=False)
            ctrl = Coefficients(np.ones((8, 1)), tail=TailRule("constant", 1.0))
            out = gamma_time(model, ctrl, 1.0)
            assert out.verdict is Verdict.DIVERGED
            assert "integral comparison" in out.evidence

    def test_ell2_tail_certifies(self):
        model = DiagonalModel.from_power(1.0, 2.0, 8)
        ctrl = Coefficients(np.ones((8, 1)), tail=TailRule("ell2", 0.25))
        out = gamma_time(model, ctrl, 2.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.tail_bound <= 2.0 * 0.25 + 1e-12

    def test_refuses_transport(self):
        transport = build_transport(1.0, 1)
        _, ctrl = single_mode()
        with pytest.raises(UnsupportedRepresentationError):
            gamma_time(transport, ctrl, 1.0)

    def test_monotone_in_horizon_and_weights(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            lam, w = piecewise_spectrum(rng)
            model, ctrl = finite_model(lam, w)
            t1, t2 = sorted(rng.uniform(0.1, 3.0, size=2))
            g1 = gamma_time(model, ctrl, t1).value
            g2 = gamma_time(model, ctrl, t2).value
            assert g2 >= g1 - 1e-14
            bumped = Coefficients(np.sqrt(w * rng.uniform(1.0, 2.0, size=w.size))[:, None])
            assert gamma_time(model, bumped, t1).value >= g1 - 1e-14

    def test_exponential_shift_matches_discounted_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lam, w = piecewise_spectrum(rng, max_modes=8)
            model, ctrl = finite_model(lam, w)
            omega = rng.uniform(-1.0, 1.0)
            shifted = gamma_time(DiagonalModel.from_eigenvalues(lam - omega), ctrl, 1.0).value
            oracle, _ = integrate.quad(
                lambda t: math.exp(-2 * omega * t) * float(np.sum(w * np.exp(2 * lam * t))),
                0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200,
            )
            assert shifted == pytest.approx(oracle, rel=1e-10)


class TestGammaInfinite:
    def test_single_mode(self):
        model, ctrl = single_mode()
        out = gamma_infinite(model, ctrl)
        assert out.verdict is Verdict.CONVERGED
        assert out.value == pytest.approx(0.5, rel=1e-12)

    def test_heat_without_zero_mode(self):
        model = DiagonalModel.from_power(1.0, 2.0, 64, include_zero_mode=False)
        ctrl = Coefficients(
            np.full((64, 1), math.sqrt(2.0 / math.pi)), tail=TailRule("constant", 2.0 / math.pi)
        )
        out = gamma_infinite(model, ctrl)
        assert out.verdict is Verdict.CONVERGED
        assert out.value <= math.pi / 6.0 <= out.upper
        assert out.relative_tail <= 1e-9

    def test_heat_with_zero_mode_rejected(self):
        heat = build_heat_neumann("right", 8)
        with pytest.raises(PreconditionError, match="stability"):
            gamma_infinite(heat.model, heat.control)

    def test_value_within_geometric_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            lam, w = piecewise_spectrum(rng)
            model, ctrl = finite_model(lam, w)
            out = gamma_infinite(model, ctrl)
            assert "geometric cross-bound" in out.evidence
            bound = float(out.evidence.split("geometric cross-bound", 1)[1].split("from")[0])
            assert out.value <= bound * (1 + 1e-9)


class TestFrequencySeries:
    def test_two_mode_encloses_line_sum_oracle(self):
        model, ctrl = finite_model([-1.0, -2.0], [1.0, 1.0])
        out = frequency_series(model, ctrl, 0.0, 1.0, 400)
        # independent oracle: per-mode line sums (T/(2a)) coth(aT/2)
        oracle = sum(0.5 / a / math.tanh(a / 2.0) for a in (1.0, 2.0))
        assert out.verdict is Verdict.CONVERGED
        assert out.value <= oracle <= out.upper

    def test_partial_matches_brute_force(self):
        model, ctrl = finite_model([-1.0, -2.0], [1.0, 1.0])
        out = frequency_series(model, ctrl, 0.5, 2.0, 100)
        brute = brute_frequency_sum([1.0, 1.0], [-1.0, -2.0], 0.5, 2.0, 100)
        assert out.partial_value == pytest.approx(brute, rel=1e-13)

    def test_zero_coefficients(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        out = frequency_series(model, Coefficients(np.zeros((1, 1))), 0.0, 1.0, 8)
        assert out.verdict is Verdict.CONVERGED and out.value == 0.0

    def test_rejects_omega_at_growth_bound(self):
        heat = build_heat_neumann("right", 8)
        with pytest.raises(PreconditionError):
            frequency_series(heat.model, heat.control, 0.0, 1.0, 8)

    def test_heat_converges(self):
        heat = build_heat_neumann("right", 64)
        out = frequency_series(heat.model, heat.control, 1.0, 1.0, 128)
        assert out.verdict is Verdict.CONVERGED

    def test_verdict_equivalence_on_random_finite_models(self):
        rng = np.random.default_rng(321)
        for _ in range(25):
            lam, w = piecewise_spectrum(rng)
            model, ctrl = finite_model(lam, w)
            omega = float(max(lam)) + rng.uniform(0.1, 2.0)
            t = rng.uniform(0.2, 3.0)
            a = gamma_time(model, ctrl, t).verdict
            b = frequency_series(model, ctrl, omega, t, 64).verdict
            assert a is Verdict.CONVERGED and b is Verdict.CONVERGED

    def test_verdict_equivalence_on_divergent_tails(self):
        model = DiagonalModel.from_power(1.0, 1.0, 8, include_zero_mode=False)
        ctrl = Coefficients(np.ones((8, 1)), tail=TailRule("constant", 1.0))
        assert gamma_time(model, ctrl, 1.0).verdict is Verdict.DIVERGED
        assert frequency_series(model, ctrl, 1.0, 1.0, 32).verdict is Verdict.DIVERGED


class TestParseval:
    def test_single_mode(self):
        model, ctrl = single_mode()
        lhs = (1 - math.exp(-2.0)) / 2.0
        assert parseval_identity_check(model, ctrl, 0.0, 1.0, 2000) <= 1e-6
        out = gamma_time(model, ctrl, 1.0)
        assert out.value == pytest.approx(lhs, rel=1e-12)

    def test_two_modes_long_horizon(self):
        model, ctrl = finite_model([-1.0, -2.0], [1.0, 1.0])
        assert parseval_identity_check(model, ctrl, 0.5, 2.0, 3000) <= 1e-6

    def test_zero_observation(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        assert parseval_identity_check(model, Coefficients(np.zeros((1, 1))), 0.0, 1.0) == 0.0

    def test_randomized_family(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            lam, w = piecewise_spectrum(rng, max_modes=8)
            model, obs = finite_model(lam, w)
            omega = float(max(lam)) + rng.uniform(0.1, 1.5)
            t = rng.uniform(0.3, 2.5)
            assert parseval_identity_check(model, obs, omega, t, 3000) <= 1e-6

    def test_rejects_omega_below_growth_bound(self):
        model, ctrl = single_mode()
        with pytest.raises(PreconditionError):
            parseval_identity_check(model, ctrl, -1.0, 1.0)

    def test_rejects_truncated_models(self):
        heat = build_heat_neumann("right", 8)
        with pytest.raises(PreconditionError, match="finite"):
            parseval_identity_check(heat.model, heat.control, 1.0, 1.0)


class TestWeissScan:
    def test_single_mode_grid_maximum(self):
        model, obs = single_mode()
        scan = weiss_scan(model, obs, 0.0, [0.25, 0.5, 1.0, 2.0, 4.0])
        assert scan.statistic == pytest.approx(0.5, rel=1e-12)
        assert scan.arg_max == 1.0
        dense = weiss_scan(model, obs, 0.0, np.linspace(0.01, 50.0, 20000))
        assert dense.statistic <= 0.5 * (1 + 1e-6)

    def test_zero_weights(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        scan = weiss_scan(model, Coefficients(np.zeros((1, 1))), 0.0, [1.0, 2.0])
        assert scan.statistic == 0.0

    def test_heat_scan_stable_under_refinement(self):
        heat = build_heat_neumann("right", 64)
        omega = 0.1
        coarse_grid = omega + np.logspace(-2, 2, 40)
        fine_grid = omega + np.logspace(-2, 2, 800)
        coarse = weiss_scan(heat.model, heat.control, omega, coarse_grid)
        fine = weiss_scan(heat.model, heat.control, omega, fine_grid)
        assert math.isfinite(fine.statistic)
        assert abs(fine.statistic - coarse.statistic) <= 0.01 * fine.statistic

    def test_bounded_by_infinite_horizon_value(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            lam, w = piecewise_spectrum(rng)
            model, obs = finite_model(lam, w)
            gamma_inf = gamma_infinite(model, obs).value
            grid = (0.01 + np.logspace(-2, 2, 60))[:, None] + 1j * np.array([0.0, -3.0, 3.0])[None, :]
            scan = weiss_scan(model, obs, 0.0, grid.ravel())
            assert scan.statistic <= math.sqrt(2.0 * gamma_inf) * (1 + 1e-6)

    def test_rejects_points_left_of_omega(self):
        model, obs = single_mode()
        with pytest.raises(PreconditionError):
            weiss_scan(model, obs, 1.0, [0.5, 2.0])


class TestDyadic:
    def test_symmetry_single_mode(self):
        # term(-n) = term(n) exactly when lambda = -1: substitute 2^{-n}
        for n in range(1, 12):
            plus = 2.0**n / (2.0**n + 1.0) ** 2
            minus = 2.0**-n / (2.0**-n + 1.0) ** 2
            assert plus == pytest.approx(minus, rel=1e-14)

    def test_partial_sum_and_tail(self):
        model, ctrl = single_mode()
        out = dyadic_diagnostic(model, ctrl, 10)
        assert out.verdict is Verdict.CONVERGED
        assert out.partial_value == pytest.approx(1.4407431867274039, rel=1e-12)
        assert out.tail_bound <= 2.0 * 2.0**-10 + 1e-15
        # the full dyadic sum for this model is 1/log(2)
        assert out.value <= 1.0 / math.log(2.0) <= out.upper

    def test_zero_weights(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        out = dyadic_diagnostic(model, Coefficients(np.zeros((1, 1))), 5)
        assert out.verdict is Verdict.CONVERGED and out.value == 0.0

    def test_singular_point_raises(self):
        model, ctrl = single_mode(lam=2.0)
        with pytest.raises(SingularResolventError):
            dyadic_diagnostic(model, ctrl, 4)

    def test_heat_zero_mode_witnesses_divergence(self):
        heat = build_heat_neumann("right", 16)
        out = dyadic_diagnostic(heat.model, heat.control, 8)
        assert out.verdict is Verdict.DIVERGED
        assert "zero eigenvalue" in out.evidence


class TestDuality:
    def test_constant_control_closed_form(self):
        model, ctrl = single_mode()
        u = np.ones((1250, 1))
        x = np.array([1.0])
        assert duality_residual(model, ctrl, 1.0, u, x, subdiv=8) <= 1e-8
        # both routes equal 1 - e^{-1}
        lam = -1.0
        lhs = (math.exp(lam * 0.0) - math.exp(lam * 1.0)) / -lam
        assert lhs == pytest.approx(0.6321205588285577)

    def test_zero_control(self):
        model, ctrl = single_mode()
        assert duality_residual(model, ctrl, 1.0, np.zeros((16, 1)), np.array([3.0])) == 0.0

    def test_randomized_trials(self):
        model, ctrl = finite_model([-1.0, -2.0], [1.0, 1.0])
        assert adjoint_duality_check(model, ctrl, 1.0, pieces=64, trials=100, seed=1) <= 1e-6

    def test_multichannel(self):
        rng = np.random.default_rng(3)
        model = DiagonalModel.from_eigenvalues([-0.5, -2.0, -7.0])
        ctrl = Coefficients(rng.standard_normal((3, 2)))
        assert adjoint_duality_check(model, ctrl, 0.8, pieces=48, trials=25, seed=2) <= 1e-6

    def test_rejects_empty_grid(self):
        model, ctrl = single_mode()
        with pytest.raises(PreconditionError):
            adjoint_duality_check(model, ctrl, 1.0, pieces=0)


class TestSeriesVerdictInvariants:
    def test_converged_requires_finite_tail(self):
        # the verdict is read off the bound: a finite one is Converged, and NaN or -inf is refused
        assert SeriesVerdict(1.0, 0.0, 0.5, "x").verdict is Verdict.CONVERGED
        with pytest.raises(PreconditionError):
            SeriesVerdict(1.0, 0.0, math.nan, "x")
        with pytest.raises(PreconditionError):
            SeriesVerdict(1.0, 0.0, -math.inf, "x")

    def test_diverged_requires_witness(self):
        assert SeriesVerdict(1.0, 0.0, math.inf, "x").verdict is Verdict.DIVERGED
        with pytest.raises(PreconditionError):
            SeriesVerdict(1.0, 0.0, math.inf, "")

    def test_inconclusive_has_unknown_tail(self):
        v = SeriesVerdict(1.0, 0.0, None, "x")
        assert v.verdict is Verdict.INCONCLUSIVE
        assert v.relative_tail == math.inf
