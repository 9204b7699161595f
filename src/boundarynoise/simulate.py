"""Sampling of the stochastic convolution and its analytic covariance.

The convolution driven by the boundary operator is a centered Gaussian whose
mode covariance has closed-form entries; the samplers here draw from it
exactly (endpoint distribution) or propagate it on a time grid with two
labeled schemes.

Randomness contract: a master seed expands into one independent stream per
sample: a counter-based Philox generator keyed by
``SeedSequence(entropy=seed, spawn_key=(sample_index,))``.  Sample ``i``
consumes only stream ``i``, so its draws are the same under any partition of
samples across workers or into the grid sampler's blocks.  The keys of a whole
range of samples are derived in one vectorized pass (:func:`_stream_keys`)
that equals ``SeedSequence`` word for word.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .admissibility import SeriesVerdict, Verdict, gamma_time
from .errors import ExistenceGateError, FactorizationError, PreconditionError
from .modelspec import require_table_budget
from .spectral import Coefficients, DiagonalModel, _require_paired, exp_integral, expm1_over

#: Eigenvalues of a covariance are allowed below zero by at most this times the trace.
PSD_TOLERANCE = 1e-10
#: Most stored times of a grid ensemble, evenly spaced (0 and T included).
MAX_SAVED_TIMES = 33
#: Standard normals a grid ensemble draws at once (8 MiB); it steps its samples in blocks of this many draws.
BLOCK_DRAWS = 2**20
# entries of one row block of the covariance's scale factor (512 KiB)
_COVARIANCE_BLOCK = 2**16
_DRAW_BUDGET_REFUSAL = ("requested ensemble needs more than 2^28 standard normal increments; "
                        "reduce samples or coarsen dt")

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx); all arithmetic is mod 2^32
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Mode covariance of the stochastic convolution at a fixed horizon.

    ``trace_verdict`` certifies the trace including the non-materialized
    remainder; its value coincides with the time-domain criterion (the
    isometry between the convolution's second moment and the input map's
    squared Hilbert-Schmidt norm).
    """

    matrix: np.ndarray
    trace_verdict: SeriesVerdict

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def covariance_qt(model: DiagonalModel, ctrl: Coefficients, T: float) -> CovarianceMatrix:
    """Entries ``Q_nm = (sum_k beta_nk beta_mk) (exp((lambda_n + lambda_m) T) - 1) / (lambda_n + lambda_m)``.

    The ``lambda_n + lambda_m = 0`` entries take the analytic limit ``T``
    (no epsilon guard).  The matrix equals its transpose bit for bit: so
    does the Gram table, and the scale factor reads the commuting
    ``lambda_n + lambda_m``.
    """
    if T <= 0:
        raise PreconditionError("horizon must be positive")
    _require_paired(model, ctrl)
    lam = model.eigenvalues
    matrix = ctrl.gram  # a fresh array, scaled in place by row blocks: no second modes x modes table
    rows = max(1, _COVARIANCE_BLOCK // lam.size)
    # an infinite factor is the limit: it overflows a Gram entry to inf, and makes nan of a zero one
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, lam.size, rows):
            matrix[r0:r0 + rows] *= expm1_over(lam[r0:r0 + rows, None] + lam[None, :], T)
    return CovarianceMatrix(matrix=matrix, trace_verdict=gamma_time(model, ctrl, T))


def factor_psd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root by eigendecomposition; rejects matrices that are not finite or not PSD.

    Eigenvalues below ``-PSD_TOLERANCE * trace`` raise, naming the offender;
    anything between that and zero is clipped (round-off).
    """
    if not np.isfinite(matrix).all():
        raise FactorizationError("covariance factorization failed: the covariance is not finite in float64")
    eigvals, eigvecs = np.linalg.eigh(matrix)
    floor = -PSD_TOLERANCE * max(float(np.trace(matrix)), 0.0)
    if eigvals[0] < floor:
        raise FactorizationError(
            f"covariance factorization failed: eigenvalue {eigvals[0]:.6g} below tolerance {floor:.6g}"
        )
    clipped = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(clipped)[None, :]


def _stream_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of the streams of samples ``start .. stop - 1``, shape ``(stop - start, 2)`` uint64.

    Row ``i - start`` equals ``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)``.
    That sequence mixes the seed's 32-bit words (zero-padded to the pool size)
    and then ``i``, so only its last mixing round reads ``i``: the pool before
    it is ``SeedSequence(seed).pool``, and that round and ``generate_state`` run
    for all indices at once as ``uint64`` arithmetic masked to 32 bits.
    """
    seed = operator.index(seed)
    if seed < 0:  # SeedSequence would raise a bare ValueError
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= start <= stop <= 2**32:
        raise PreconditionError("sample indices must lie in [0, 2^32)")
    pool = np.random.SeedSequence(seed).pool
    # the mixing hash constant advances once per hashed word: 4 per seed word, at least 4 words
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(_POOL_SIZE, -(-seed.bit_length() // 32)), 2**32)
    hash_const &= _MASK32
    # numpy scalars throughout: a Python int next to a uint64 array casts differently across numpy versions
    mask, half = np.uint64(_MASK32), np.uint64(16)
    index = np.arange(start, stop, dtype=np.uint64)
    state = np.empty((stop - start, _POOL_SIZE), dtype=np.uint64)
    out_const = _INIT_B
    for dst in range(_POOL_SIZE):
        # the last mixing round: pool[dst] = mix(pool[dst], hashmix(i))
        word = index ^ np.uint64(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        word *= np.uint64(hash_const)
        word &= mask
        word ^= word >> half
        word = np.uint64(_MIX_MULT_L * int(pool[dst]) & _MASK32) - np.uint64(_MIX_MULT_R) * word
        word &= mask
        word ^= word >> half
        # generate_state: output word dst hashes pool word dst
        word ^= np.uint64(out_const)
        out_const = out_const * _MULT_B & _MASK32
        word *= np.uint64(out_const)
        word &= mask
        word ^= word >> half
        state[:, dst] = word
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _streams(seed: int, start: int, stop: int):
    """Yield the generator of each sample ``start .. stop - 1`` in turn, on that sample's Philox stream.

    One Philox/Generator pair is re-keyed per sample: a fresh stream's state
    with the key of :func:`_stream_keys`.  Every yield is the same object, so
    a sample's draws are taken before the next one is requested.
    """
    bit_generator = np.random.Philox(0)
    normals = np.random.Generator(bit_generator)
    fresh = bit_generator.state  # zero counter, empty buffer: only the key differs per stream
    for key in _stream_keys(seed, start, stop):
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        yield normals


def _standard_normals(seed: int, start: int, stop: int, shape: tuple) -> np.ndarray:
    """``(stop - start, *shape)`` standard normals; sample ``i`` reads only its own Philox stream."""
    out = np.empty((stop - start, *shape))
    for normals, row in zip(_streams(seed, start, stop), out):
        normals.standard_normal(out=row)
    return out


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Seeded Monte-Carlo samples of the mode coefficients at stored times.

    ``values`` has shape ``(samples, len(times), modes)``.  Regenerating with
    the same seed and sample count reproduces the array bit-for-bit.  Sample
    ``i`` draws only from stream ``i``, so the streams do not depend on how
    samples are partitioned across workers or blocks; the values do not depend
    on it only where the BLAS products keep their shape, since a product can
    round a row differently with the number of rows it holds.
    """

    times: np.ndarray
    values: np.ndarray
    scheme: str

    @property
    def sample_count(self) -> int:
        return int(self.values.shape[0])


def sample_exact(
    model: DiagonalModel,
    ctrl: Coefficients,
    T: float,
    samples: int,
    seed: int,
) -> PathEnsemble:
    """Draw the horizon-``T`` convolution exactly from its Gaussian law.

    Each sample is ``L z`` with ``L`` the symmetric PSD root of the covariance
    and ``z`` standard normal from that sample's stream.
    """
    if samples < 1:
        raise PreconditionError("need at least one sample")
    cov = covariance_qt(model, ctrl, T)
    root = factor_psd(cov.matrix)
    # z stays bound until the product: freed earlier, its pages are faulted in again on every call
    z = _standard_normals(seed, 0, samples, (model.mode_count,))
    values = z @ root.T
    return PathEnsemble(times=np.array([float(T)]), values=values[:, None, :], scheme="exact")


def sample_grid(
    model: DiagonalModel,
    ctrl: Coefficients,
    T: float,
    dt: float,
    samples: int,
    seed: int,
    scheme: str = "shared_increment",
) -> PathEnsemble:
    """Propagate trajectories of the convolution on a uniform grid of step ``dt``.

    Two labeled schemes:

    * ``"shared_increment"`` -- one Wiener increment per channel drives all
      modes, rescaled per mode so each diagonal variance is exact per step;
      cross-mode covariances carry a step-size bias that vanishes as
      ``dt -> 0`` (second order on the reference family).
    * ``"exact_joint"`` -- each step adds an increment drawn from the exact
      one-step covariance, so every stored time has the exact joint law at any
      step size.

    ``dt`` must divide ``T``.  At most ``MAX_SAVED_TIMES`` evenly spaced times
    (including 0 and T) are stored.  Samples are drawn and stepped in place in
    equal blocks of at most ``BLOCK_DRAWS`` standard normals (or one sample).
    """
    if dt <= 0:
        raise PreconditionError("dt must be positive")
    if dt > T:
        raise PreconditionError("dt must not exceed the horizon")
    steps_f = T / dt
    if math.isinf(steps_f):  # more steps than any float, let alone the draw budget
        raise PreconditionError(_DRAW_BUDGET_REFUSAL)
    steps = int(round(steps_f))
    if abs(steps - steps_f) > 1e-9 * max(steps_f, 1.0):
        raise PreconditionError(f"dt={dt} does not divide the horizon T={T}")
    if samples < 1:
        raise PreconditionError("need at least one sample")
    _require_paired(model, ctrl)
    if scheme not in ("shared_increment", "exact_joint"):
        raise PreconditionError(f"unknown scheme {scheme!r}")

    n = model.mode_count
    shared = scheme == "shared_increment"
    width = ctrl.channel_count if shared else n
    # refused before any array is sized by the step count
    if samples * steps * width > 2**28:
        raise PreconditionError(_DRAW_BUDGET_REFUSAL)
    lam = model.eigenvalues
    with np.errstate(over="ignore"):  # a lambda dt that overflows is -inf, whose exp is the limit 0
        decay = np.exp(lam * dt)
    keep = np.unique(np.round(np.linspace(0, steps, MAX_SAVED_TIMES)).astype(int))  # every step up to 32 steps
    keep_set = {int(k): j for j, k in enumerate(keep)}
    # refused before the output is allocated
    require_table_budget("samples", samples, keep.size * n, f"path table ({keep.size} stored times x {n} modes)")

    if shared:
        # one Wiener increment per channel, rescaled to the exact per-mode one-step variance
        factor = np.sqrt(exp_integral(lam, dt) / dt)
        beta_t = ctrl.array.T
    else:
        step_root_t = factor_psd(covariance_qt(model, ctrl, dt).matrix).T

    out = np.empty((samples, keep.size, n))
    # equal blocks, so none is a single sample unless the ensemble is
    blocks = -(-samples // max(1, BLOCK_DRAWS // (steps * width)))
    edges = [samples * b // blocks for b in range(blocks + 1)]
    # one step-major table of draws, reused by every block: each sample's stream is written straight
    # into it, so step j reads one contiguous (rows, width) slice and a block's draws are held once
    table = np.empty((steps, -(-samples // blocks), width))
    stream = np.empty((steps, width))  # one sample's draws, reused
    for s0, s1 in zip(edges, edges[1:]):
        rows = s1 - s0
        draws = table[:, :rows]
        for i, normals in enumerate(_streams(seed, s0, s1)):
            normals.standard_normal(out=stream)
            if shared:
                np.multiply(stream, math.sqrt(dt), out=draws[:, i])
            else:  # the sample's exact one-step increments
                np.matmul(stream, step_root_t, out=draws[:, i])
        # every step reads contiguous (rows, modes) tables, not broadcast rows
        decay_rows = np.tile(decay, (rows, 1))
        if shared:
            factor_rows = np.tile(factor, (rows, 1))
            increment = np.empty((rows, n))
        x = np.zeros((rows, n))
        out[s0:s1, 0, :] = x
        for j in range(steps):
            x *= decay_rows
            if shared:
                if width == 1:  # an outer product: one rounding per entry, the bits of matmul, less overhead
                    np.einsum("sc,cn->sn", draws[j], beta_t, out=increment)
                else:
                    np.matmul(draws[j], beta_t, out=increment)
                increment *= factor_rows
                x += increment
            else:
                x += draws[j]
            if (j + 1) in keep_set:
                out[s0:s1, keep_set[j + 1], :] = x
    return PathEnsemble(times=keep * dt, values=out, scheme=scheme)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Unbiased mean/covariance estimators with entrywise standard errors."""

    mean: np.ndarray
    mean_se: np.ndarray
    covariance: np.ndarray
    covariance_se: np.ndarray
    sample_count: int


def ensemble_stats(ensemble: PathEnsemble) -> EnsembleStats:
    """Estimate mean and covariance of the ensemble at its last stored time.

    Covariance uses the unbiased ``1/(n-1)`` normalization; its standard
    errors come from the Gaussian formula
    ``Var(C_nm) = (C_nn C_mm + C_nm^2) / (n - 1)``.  A product that overflows
    float64 takes its limit, ``inf``, without a warning.
    """
    n = ensemble.sample_count
    if n < 2:
        raise PreconditionError("need at least two samples for covariance estimates")
    x = ensemble.values[:, -1, :]
    mean = x.mean(axis=0)
    centered = x - mean[None, :]
    with np.errstate(over="ignore"):
        cov = centered.T @ centered / (n - 1)
        var = np.diag(cov)
        mean_se = np.sqrt(var / n)
        cov_se = np.sqrt((np.outer(var, var) + cov**2) / (n - 1))
    return EnsembleStats(mean=mean, mean_se=mean_se, covariance=cov, covariance_se=cov_se, sample_count=n)


def require_existence(verdict: SeriesVerdict, override: bool = False) -> None:
    """Gate simulation on a Converged existence verdict unless overridden."""
    if verdict.verdict is Verdict.CONVERGED or override:
        return
    raise ExistenceGateError(
        f"existence gate: verdict {verdict.verdict.value} ({verdict.evidence}); "
        "simulation refused without an explicit override"
    )
