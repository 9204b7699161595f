import math
import tracemalloc

import numpy as np
import pytest

from boundarynoise import (
    Coefficients,
    DiagonalModel,
    ExistenceGateError,
    FactorizationError,
    PreconditionError,
    build_heat_neumann,
    build_transport,
    covariance_qt,
    dirichlet_frequency_criterion,
    ensemble_stats,
    factor_psd,
    gamma_time,
    require_existence,
    sample_exact,
    sample_grid,
)
from boundarynoise import simulate
from boundarynoise.simulate import _standard_normals, _stream_keys
from boundarynoise.spectral import exp_integral
from helpers import piecewise_spectrum


def two_mode():
    return (
        DiagonalModel.from_eigenvalues([-1.0, -2.0]),
        Coefficients(np.array([[1.0], [1.0]])),
    )


class TestCovariance:
    def test_two_mode_entries(self):
        model, ctrl = two_mode()
        q = covariance_qt(model, ctrl, 1.0)
        expected = np.array(
            [
                [(1 - math.exp(-2.0)) / 2.0, (1 - math.exp(-3.0)) / 3.0],
                [(1 - math.exp(-3.0)) / 3.0, (1 - math.exp(-4.0)) / 4.0],
            ]
        )
        assert np.allclose(q.matrix, expected, rtol=1e-6)
        assert np.allclose(q.matrix, [[0.432332, 0.316738], [0.316738, 0.245421]], atol=1e-6)

    def test_heat_zero_mode_limit(self):
        heat = build_heat_neumann("right", 4)
        for T in (0.5, 1.0, 3.0):
            q = covariance_qt(heat.model, heat.control, T)
            assert q.matrix[0, 0] == pytest.approx(T / math.pi, rel=1e-12)

    def test_zero_coefficients(self):
        model = DiagonalModel.from_eigenvalues([-1.0, -2.0])
        q = covariance_qt(model, Coefficients(np.zeros((2, 1))), 1.0)
        assert np.all(q.matrix == 0.0)

    def test_trace_matches_gamma(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam, w = piecewise_spectrum(rng)
            model = DiagonalModel.from_eigenvalues(lam)
            ctrl = Coefficients(np.sqrt(w)[:, None])
            T = rng.uniform(0.2, 3.0)
            q = covariance_qt(model, ctrl, T)
            g = gamma_time(model, ctrl, T)
            assert abs(q.trace - g.partial_value) <= 1e-12 * max(q.trace, 1e-300)
            assert q.trace_verdict.value == pytest.approx(g.value, rel=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            model = DiagonalModel.from_eigenvalues(rng.uniform(-20.0, -0.1, size=n))
            ctrl = Coefficients(rng.standard_normal((n, 2)))
            q = covariance_qt(model, ctrl, rng.uniform(0.2, 2.0))
            eigs = np.linalg.eigvalsh(q.matrix)
            assert eigs[0] >= -1e-10 * q.trace

    def test_trace_monotone_in_horizon(self):
        heat = build_heat_neumann("right", 16)
        traces = [covariance_qt(heat.model, heat.control, T).trace for T in (0.25, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(traces, traces[1:]))

    def test_rejects_bad_horizon(self):
        model, ctrl = two_mode()
        with pytest.raises(PreconditionError):
            covariance_qt(model, ctrl, 0.0)


def test_factor_psd_rejects_indefinite_matrix():
    with pytest.raises(FactorizationError) as err:
        factor_psd(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert "eigenvalue -1 below tolerance" in str(err.value)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_factor_psd_rejects_non_finite_matrix(bad):
    with pytest.raises(FactorizationError, match="not finite"):
        factor_psd(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_factor_psd_reproduces_matrix():
    model, ctrl = two_mode()
    q = covariance_qt(model, ctrl, 1.0).matrix
    root = factor_psd(q)
    assert np.allclose(root @ root.T, q, atol=1e-14)


class TestSampleExact:
    def test_seeded_reruns_identical(self):
        model, ctrl = two_mode()
        a = sample_exact(model, ctrl, 1.0, 64, seed=9)
        b = sample_exact(model, ctrl, 1.0, 64, seed=9)
        assert np.array_equal(a.values, b.values)
        c = sample_exact(model, ctrl, 1.0, 64, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_variance_within_gaussian_band(self):
        model = DiagonalModel.from_eigenvalues([-1.0])
        ctrl = Coefficients(np.array([[1.0]]))
        n = 100_000
        ens = sample_exact(model, ctrl, 1.0, n, seed=123)
        var = float(np.var(ens.values[:, 0, 0], ddof=1))
        target = (1 - math.exp(-2.0)) / 2.0
        assert abs(var - target) <= 3.0 * math.sqrt(2.0 / n) * target

    def test_sample_partitioning_does_not_change_streams(self):
        # drawing the same sample indices in any batching yields identical rows
        model, ctrl = two_mode()
        whole = sample_exact(model, ctrl, 1.0, 16, seed=5)
        tail_part = sample_exact(model, ctrl, 1.0, 8, seed=5)
        assert np.array_equal(whole.values[:8], tail_part.values)


class TestSampleGrid:
    def test_one_step_variance_is_exact_in_distribution(self):
        # the per-step scale reproduces the exact one-step variance
        lam = np.array([-1.0])
        dt = 1.0
        step_var = exp_integral(lam, dt)
        factor = np.sqrt(step_var / dt)
        assert factor[0] ** 2 * dt == pytest.approx((1 - math.exp(-2.0)) / 2.0, rel=1e-14)
        model = DiagonalModel.from_eigenvalues([-1.0])
        ctrl = Coefficients(np.array([[1.0]]))
        n = 60_000
        ens = sample_grid(model, ctrl, 1.0, 1.0, n, seed=77)
        var = float(np.var(ens.values[:, -1, 0], ddof=1))
        target = (1 - math.exp(-2.0)) / 2.0
        assert abs(var - target) <= 3.0 * math.sqrt(2.0 / n) * target

    def test_zero_noise_is_deterministic(self):
        model, _ = two_mode()
        ctrl = Coefficients(np.zeros((2, 1)))
        for seed in (3, 4):
            ens = sample_grid(model, ctrl, 1.0, 0.125, 4, seed=seed)
            assert ens.times == pytest.approx(np.arange(9) * 0.125)
            assert np.array_equal(ens.values, np.zeros((4, 9, 2)))

    def test_heat_trace_close_to_analytic(self):
        heat = build_heat_neumann("right", 64)
        ens = sample_grid(heat.model, heat.control, 1.0, 1e-3, 2000, seed=21)
        stats = ensemble_stats(ens)
        target = covariance_qt(heat.model, heat.control, 1.0).trace
        assert abs(np.trace(stats.covariance) - target) <= 0.05 * target

    def test_shared_increment_bias_halves_with_dt(self):
        # exact propagated covariance of the scheme vs the true Q_T, no sampling noise
        model, ctrl = two_mode()
        T = 1.0
        q_true = covariance_qt(model, ctrl, T).matrix
        lam = model.eigenvalues

        def scheme_cov(dt):
            steps = int(round(T / dt))
            e = np.exp(lam * dt)
            factor = np.sqrt(exp_integral(lam, dt) / dt)
            c_step = np.outer(factor, factor) * ctrl.gram * dt
            growth = np.outer(e, e)
            cov = np.zeros_like(c_step)
            for _ in range(steps):
                cov = growth * cov + c_step
            return cov

        err = [np.max(np.abs(scheme_cov(dt) - q_true)) for dt in (0.1, 0.05)]
        # documented bound is one order; the per-mode rescaling actually gains two
        assert err[0] / err[1] >= 1.8
        assert err[1] <= 1e-3

    def test_exact_joint_matches_covariance_at_coarse_step(self):
        model, ctrl = two_mode()
        ens = sample_grid(model, ctrl, 1.0, 0.25, 40_000, seed=31, scheme="exact_joint")
        stats = ensemble_stats(ens)
        q = covariance_qt(model, ctrl, 1.0).matrix
        assert np.all(np.abs(stats.covariance - q) <= 3.5 * stats.covariance_se)

    def test_validates_grid(self):
        model, ctrl = two_mode()
        with pytest.raises(PreconditionError):
            sample_grid(model, ctrl, 1.0, 0.0, 4, seed=0)
        with pytest.raises(PreconditionError):
            sample_grid(model, ctrl, 1.0, 2.0, 4, seed=0)
        with pytest.raises(PreconditionError):
            sample_grid(model, ctrl, 1.0, 0.3, 4, seed=0)
        with pytest.raises(PreconditionError):
            sample_grid(model, ctrl, 1.0, 0.5, 4, seed=0, scheme="euler")


class TestEnsembleStats:
    def test_constant_ensemble_has_zero_covariance(self):
        model, ctrl = two_mode()
        ens = sample_exact(model, ctrl, 1.0, 5, seed=0)
        frozen = ens.values.copy()
        frozen[:] = frozen[0]
        from boundarynoise.simulate import PathEnsemble

        const = PathEnsemble(times=ens.times, values=frozen, scheme="exact")
        stats = ensemble_stats(const)
        assert np.allclose(stats.covariance, 0.0)

    def test_two_sample_unbiased_convention(self):
        from boundarynoise.simulate import PathEnsemble

        x = np.array([0.3, -1.2])
        values = np.stack([x, -x])[:, None, :]
        ens = PathEnsemble(times=np.array([1.0]), values=values, scheme="exact")
        stats = ensemble_stats(ens)
        assert np.allclose(stats.covariance, 2.0 * np.outer(x, x))

    def test_rejects_single_sample(self):
        model, ctrl = two_mode()
        ens = sample_exact(model, ctrl, 1.0, 1, seed=0)
        with pytest.raises(PreconditionError):
            ensemble_stats(ens)

    def test_seeded_gaussian_within_three_se(self):
        model, ctrl = two_mode()
        q = covariance_qt(model, ctrl, 1.0).matrix
        ens = sample_exact(model, ctrl, 1.0, 10_000, seed=2024)
        stats = ensemble_stats(ens)
        assert np.all(np.abs(stats.covariance - q) <= 3.0 * stats.covariance_se)
        assert np.all(np.abs(stats.mean) <= 3.0 * stats.mean_se + 1e-12)


class TestExistenceGate:
    def test_transport_is_refused(self):
        verdict = dirichlet_frequency_criterion(build_transport(1.0, 1), 1.0, 1.0, 8)
        with pytest.raises(ExistenceGateError, match="existence gate"):
            require_existence(verdict)

    def test_override_lets_it_pass(self):
        verdict = dirichlet_frequency_criterion(build_transport(1.0, 1), 1.0, 1.0, 8)
        require_existence(verdict, override=True)

    def test_converged_passes(self):
        heat = build_heat_neumann("right", 8)
        require_existence(gamma_time(heat.model, heat.control, 1.0))


# Oracles: the per-sample SeedSequence loop and the formulas of the samplers
# before keys were derived in one pass and grid paths were stepped in blocks.

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3, 2**200 + 99]


def loop_normals(seed, samples, shape):
    out = np.empty((samples, *shape))
    for i in range(samples):
        stream = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        np.random.Generator(stream).standard_normal(out=out[i])
    return out


def loop_exp_integral(lam, T):
    out = np.full(lam.shape, float(T))
    nz = lam != 0.0
    out[nz] = np.expm1(2.0 * lam[nz] * T) / (2.0 * lam[nz])
    return out


def loop_covariance(model, ctrl, T):
    lam = model.eigenvalues
    pair = lam[:, None] + lam[None, :]
    factor = np.full(pair.shape, float(T))
    nz = pair != 0.0
    factor[nz] = np.expm1(pair[nz] * T) / pair[nz]
    return ctrl.gram * factor


def loop_exact(model, ctrl, T, samples, seed):
    return loop_normals(seed, samples, (model.mode_count,)) @ factor_psd(loop_covariance(model, ctrl, T)).T


def loop_grid_paths(model, ctrl, T, dt, samples, seed, scheme):
    """Every grid time, shape ``(samples, steps + 1, modes)``: all increments drawn up front."""
    steps, n, lam = int(round(T / dt)), model.mode_count, model.eigenvalues
    decay = np.exp(lam * dt)
    if scheme == "shared_increment":
        factor = np.sqrt(loop_exp_integral(lam, dt) / dt)
        draws = loop_normals(seed, samples, (steps, ctrl.channel_count))
        draws *= math.sqrt(dt)
    else:
        increments = loop_normals(seed, samples, (steps, n)) @ factor_psd(loop_covariance(model, ctrl, dt)).T
    x = np.zeros((samples, n))
    paths = [x]
    for j in range(steps):
        if scheme == "shared_increment":
            x = x * decay[None, :] + (draws[:, j, :] @ ctrl.array.T) * factor[None, :]
        else:
            x = x * decay[None, :] + increments[:, j, :]
        paths.append(x)
    return np.stack(paths, axis=1)


def three_channel():
    rng = np.random.default_rng(8)
    lam = -np.sort(rng.uniform(0.1, 30.0, 7))
    lam[2] = 0.0
    return DiagonalModel.from_eigenvalues(lam), Coefficients(rng.standard_normal((7, 3)))


def one_channel():
    """One channel, so the shared increment is an outer product; a zero eigenvalue and a zero beta row."""
    rng = np.random.default_rng(9)
    lam = -np.sort(rng.uniform(0.1, 30.0, 7))
    lam[4] = 0.0
    beta = rng.standard_normal((7, 1))
    beta[1] = 0.0
    return DiagonalModel.from_eigenvalues(lam), Coefficients(beta)


def opposite_pair():
    """400 modes with eigenvalues 2.5 at row 5 and -2.5 at row 350: the ``lambda_n + lambda_m = 0`` limit
    falls in the first and in the third of the covariance's row blocks."""
    rng = np.random.default_rng(10)
    lam = -rng.uniform(0.1, 30.0, 400)
    lam[5], lam[350] = 2.5, -2.5
    return DiagonalModel.from_eigenvalues(lam), Coefficients(rng.standard_normal((400, 2)))


def same_bytes(a, b):
    """Equal dtype, shape and bytes: unlike ``np.array_equal``, ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStreamKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_seed_sequence(self, seed):
        keys = _stream_keys(seed, 0, 3000)
        expected = [np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
                    for i in range(3000)]
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, expected)

    @pytest.mark.parametrize("seed", [5, 2**64 + 7])
    def test_offset_range(self, seed):
        start = 2**32 - 40
        expected = [np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
                    for i in range(start, 2**32)]
        assert np.array_equal(_stream_keys(seed, start, 2**32), expected)
        assert np.array_equal(_stream_keys(seed, 1000, 1300), _stream_keys(seed, 0, 1300)[1000:])

    def test_empty_range(self):
        assert _stream_keys(3, 7, 7).shape == (0, 2)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_refuses_negative_seed(self, seed):
        with pytest.raises(PreconditionError, match="non-negative"):
            _stream_keys(seed, 0, 4)

    def test_refuses_indices_past_one_word(self):
        with pytest.raises(PreconditionError, match="2\\^32"):
            _stream_keys(0, 0, 2**32 + 1)


class TestSameBitsAsPerSampleLoop:
    @pytest.mark.parametrize("seed", [0, 2**64 + 7])
    def test_standard_normals(self, seed):
        assert same_bytes(_standard_normals(seed, 0, 300, (5, 2)), loop_normals(seed, 300, (5, 2)))
        assert same_bytes(_standard_normals(seed, 100, 300, (5, 2)), loop_normals(seed, 300, (5, 2))[100:])

    def test_covariance_and_exp_integral(self):
        model, ctrl = three_channel()
        heat = build_heat_neumann("right", 256)
        heat_1024 = build_heat_neumann("right", 1024)  # 16 row blocks of 64 rows
        pair_model, pair_ctrl = opposite_pair()
        assert simulate._COVARIANCE_BLOCK // 400 < 350  # the pair's second limit is not in the first block
        for m, c, T in [(model, ctrl, 0.3), (heat.model, heat.control, 1.0),
                        (heat_1024.model, heat_1024.control, 1.0), (pair_model, pair_ctrl, 0.4)]:
            assert same_bytes(covariance_qt(m, c, T).matrix, loop_covariance(m, c, T))
        lam = np.concatenate([model.eigenvalues, [-1e-300, 1e-300, -700.0, 3.0, -0.0]])
        assert same_bytes(exp_integral(lam, 1.3), loop_exp_integral(lam, 1.3))

    def test_sample_exact(self):
        model, ctrl = three_channel()
        assert same_bytes(sample_exact(model, ctrl, 0.7, 501, 2**64 + 7).values[:, 0, :],
                          loop_exact(model, ctrl, 0.7, 501, 2**64 + 7))
        heat = build_heat_neumann("right", 64)
        assert same_bytes(sample_exact(heat.model, heat.control, 1.0, 2000, 12345).values[:, 0, :],
                          loop_exact(heat.model, heat.control, 1.0, 2000, 12345))

    @pytest.mark.parametrize("scheme", ["shared_increment", "exact_joint"])
    @pytest.mark.parametrize("block_draws", [simulate.BLOCK_DRAWS, 500])
    def test_sample_grid(self, monkeypatch, scheme, block_draws):
        # at 500 draws a block holds 8 or 25 (shared, 3 or 1 channels) or 3 (exact_joint) of the
        # 333 samples: 333 is no multiple
        monkeypatch.setattr(simulate, "BLOCK_DRAWS", block_draws)
        for model, ctrl in (three_channel(), one_channel()):
            ens = sample_grid(model, ctrl, 1.0, 0.05, 333, 5, scheme=scheme)
            assert same_bytes(ens.values, loop_grid_paths(model, ctrl, 1.0, 0.05, 333, 5, scheme))

    @pytest.mark.parametrize("scheme", ["shared_increment", "exact_joint"])
    def test_sample_grid_heat_blocks(self, monkeypatch, scheme):
        # 2^20 draws: heat-64 at dt=1e-2 puts 163 samples (exact_joint) or all 1000 (shared) in a block
        heat = build_heat_neumann("right", 64)
        ens = sample_grid(heat.model, heat.control, 1.0, 1e-2, 1000, 77, scheme=scheme)
        paths = loop_grid_paths(heat.model, heat.control, 1.0, 1e-2, 1000, 77, scheme)
        keep = np.round(ens.times / 1e-2).astype(int)
        assert same_bytes(ens.values, paths[:, keep, :])
        monkeypatch.setattr(simulate, "BLOCK_DRAWS", 1)  # one sample per block
        assert same_bytes(sample_grid(heat.model, heat.control, 1.0, 1e-2, 40, 77, scheme=scheme).values,
                          paths[:40, keep, :])


def test_covariance_holds_one_table():
    # the Gram table is scaled in place by row blocks; a whole-table scale factor would peak at about 3.25 tables
    heat = build_heat_neumann("right", 1024)
    tracemalloc.start()
    try:
        covariance_qt(heat.model, heat.control, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * 1024**2


def test_grid_sampler_holds_its_draws_once():
    # one block of 1000 samples x 1000 steps: each stream is scaled straight into the step-major block,
    # so the peak is the 16.1 MiB output, 7.6 MiB of draws and the (samples x modes) tables
    heat = build_heat_neumann("right", 64)
    tracemalloc.start()
    try:
        sample_grid(heat.model, heat.control, 1.0, 1e-3, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 27 * 2**20


def test_exact_joint_holds_its_draws_once():
    # 1000 samples in 7 blocks of at most 143: each sample's increments are written straight into one
    # reused step-major table, so the peak is the 16.1 MiB output, one block of draws and small tables
    heat = build_heat_neumann("right", 64)
    tracemalloc.start()
    try:
        ensemble = sample_grid(heat.model, heat.control, 1.0, 1e-2, 1000, 1, scheme="exact_joint")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ensemble.values.nbytes + 8 * simulate.BLOCK_DRAWS + 2**20


def bitwise_symmetric(matrix) -> bool:
    bits = matrix.view(np.int64)  # -0.0 and NaN payloads count
    return np.array_equal(bits, bits.T)


class TestCovarianceIsSymmetric:
    """``covariance_qt`` equals its transpose bit for bit, so a covariance table formats each pair once."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("modes", [1, 2, 63, 64, 255, 256, 1023, 1024])
    @pytest.mark.parametrize("T", [1.0, 1e308])
    def test_heat(self, side, modes, T):
        heat = build_heat_neumann(side, modes)
        assert bitwise_symmetric(covariance_qt(heat.model, heat.control, T).matrix)

    # at 1e308 a zero eigenvalue's factor is T, and Gram entries above 1.8 overflow to inf without a warning
    @pytest.mark.parametrize("make, T", [(three_channel, 0.3), (three_channel, 1e308), (opposite_pair, 0.4)])
    def test_zero_eigenvalue_and_zero_sum_limits(self, make, T):
        model, ctrl = make()
        assert bitwise_symmetric(covariance_qt(model, ctrl, T).matrix)

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    @pytest.mark.parametrize("T", [1.0, 1e308])
    def test_control_layouts(self, layout, T):
        # a strided Gram product goes through a general matrix product, whose two halves may round apart
        rng = np.random.default_rng(12)
        lam = -rng.uniform(0.1, 30.0, 300)
        beta = rng.standard_normal((600, 14))
        beta = np.asfortranarray(beta[:300, :7]) if layout == "fortran" else beta[::2, ::2]
        ctrl = Coefficients(beta)
        assert not ctrl.array.flags.c_contiguous
        assert bitwise_symmetric(covariance_qt(DiagonalModel.from_eigenvalues(lam), ctrl, T).matrix)
