"""Sampling of the stochastic convolution and its analytic covariance.

The convolution driven by the boundary operator is a centered Gaussian whose
mode covariance has closed-form entries; the samplers here draw from it
exactly (endpoint distribution) or propagate it on a time grid with two
labeled schemes.

Randomness contract: a master seed expands into one independent stream per
sample via ``SeedSequence(entropy=seed, spawn_key=(sample_index,))`` feeding a
counter-based Philox generator.  Sample ``i`` consumes only stream ``i``, so
any partition of samples across workers reproduces identical output
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissibility import SeriesVerdict, Verdict, gamma_time
from .errors import ExistenceGateError, FactorizationError, PreconditionError
from .spectral import Coefficients, DiagonalModel, _require_paired, evaluate_semigroup, exp_integral

#: Eigenvalues of a covariance are allowed below zero by at most this times the trace.
PSD_TOLERANCE = 1e-10
#: Stored times of a grid ensemble when the caller names none (0 and T included).
MAX_SAVED_TIMES = 33


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Mode covariance of the stochastic convolution at a fixed horizon.

    ``trace_verdict`` certifies the trace including the non-materialized
    remainder; its value coincides with the time-domain criterion (the
    isometry between the convolution's second moment and the input map's
    squared Hilbert-Schmidt norm).
    """

    matrix: np.ndarray
    horizon: float
    trace_verdict: SeriesVerdict

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def covariance_qt(model: DiagonalModel, ctrl: Coefficients, T: float) -> CovarianceMatrix:
    """Entries ``Q_nm = (sum_k beta_nk beta_mk) (exp((lambda_n + lambda_m) T) - 1) / (lambda_n + lambda_m)``.

    The ``lambda_n + lambda_m = 0`` entries take the analytic limit ``T``
    (no epsilon guard).
    """
    if T <= 0:
        raise PreconditionError("horizon must be positive")
    _require_paired(model, ctrl)
    lam = model.eigenvalues
    pair = lam[:, None] + lam[None, :]
    factor = np.full(pair.shape, float(T))
    nz = pair != 0.0
    factor[nz] = np.expm1(pair[nz] * T) / pair[nz]
    matrix = ctrl.gram * factor
    return CovarianceMatrix(matrix=matrix, horizon=float(T), trace_verdict=gamma_time(model, ctrl, T))


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
            f"covariance factorization failed: eigenvalue {eigvals[0]:.6g} below tolerance {floor:.6g}",
            float(eigvals[0]), -floor,
        )
    clipped = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(clipped)[None, :]


def _standard_normals(seed: int, samples: int, shape: tuple) -> np.ndarray:
    """``(samples, *shape)`` standard normals; sample ``i`` reads only its own Philox stream.

    The documented derivation: stream ``i`` is seeded by
    ``SeedSequence(entropy=seed, spawn_key=(i,))``.
    """
    out = np.empty((samples, *shape))
    for i in range(samples):
        stream = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        np.random.Generator(stream).standard_normal(out=out[i])
    return out


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Seeded Monte-Carlo samples of the mode coefficients at stored times.

    ``values`` has shape ``(samples, len(times), modes)``.  Regenerating with
    the same seed and sample count reproduces the array bit-for-bit regardless
    of how samples are partitioned across workers.
    """

    times: np.ndarray
    values: np.ndarray
    seed: int
    scheme: str

    @property
    def sample_count(self) -> int:
        return int(self.values.shape[0])

    @property
    def mode_count(self) -> int:
        return int(self.values.shape[2])


def sample_exact(
    model: DiagonalModel,
    ctrl: Coefficients,
    T: float,
    samples: int,
    seed: int,
    x0: np.ndarray | None = None,
) -> PathEnsemble:
    """Draw the horizon-``T`` convolution exactly from its Gaussian law.

    Each sample is ``L z`` with ``L`` the symmetric PSD root of the covariance
    and ``z`` standard normal from that sample's stream, plus the decayed
    initial state when one is supplied.
    """
    if samples < 1:
        raise PreconditionError("need at least one sample")
    cov = covariance_qt(model, ctrl, T)
    root = factor_psd(cov.matrix)
    n = model.mode_count
    drift = np.zeros(n) if x0 is None else evaluate_semigroup(model, T, np.asarray(x0, dtype=float))
    # z stays bound until the sum: freed earlier, its pages are faulted in again on every call
    z = _standard_normals(seed, samples, (n,))
    values = z @ root.T + drift[None, :]
    return PathEnsemble(
        times=np.array([float(T)]),
        values=values[:, None, :],
        seed=int(seed),
        scheme="exact",
    )


def _save_indices(steps: int) -> np.ndarray:
    if steps + 1 <= MAX_SAVED_TIMES:
        return np.arange(steps + 1)
    return np.unique(np.round(np.linspace(0, steps, MAX_SAVED_TIMES)).astype(int))


def sample_grid(
    model: DiagonalModel,
    ctrl: Coefficients,
    T: float,
    dt: float,
    samples: int,
    seed: int,
    scheme: str = "shared_increment",
    x0: np.ndarray | None = None,
    save_times: np.ndarray | None = None,
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

    ``dt`` must divide ``T``.  By default at most ``MAX_SAVED_TIMES`` evenly
    spaced times (including 0 and T) are stored; pass ``save_times``
    (multiples of ``dt``) to choose.
    """
    if dt <= 0:
        raise PreconditionError("dt must be positive")
    if dt > T:
        raise PreconditionError("dt must not exceed the horizon")
    steps_f = T / dt
    steps = int(round(steps_f))
    if abs(steps - steps_f) > 1e-9 * max(steps_f, 1.0):
        raise PreconditionError(f"dt={dt} does not divide the horizon T={T}")
    if samples < 1:
        raise PreconditionError("need at least one sample")
    _require_paired(model, ctrl)
    if scheme not in ("shared_increment", "exact_joint"):
        raise PreconditionError(f"unknown scheme {scheme!r}")

    n = model.mode_count
    lam = model.eigenvalues
    decay = np.exp(lam * dt)
    if save_times is None:
        keep = _save_indices(steps)
    else:
        req = np.asarray(save_times, dtype=float)
        keep = np.round(req / dt).astype(int)
        if np.any(np.abs(keep * dt - req) > 1e-9 * max(T, 1.0)) or np.any(keep < 0) or np.any(keep > steps):
            raise PreconditionError("save_times must be multiples of dt inside [0, T]")
        keep = np.unique(keep)
    keep_set = {int(k): j for j, k in enumerate(keep)}

    width = ctrl.channel_count if scheme == "shared_increment" else n
    if samples * steps * width > 2**28:
        raise PreconditionError(
            "requested ensemble needs more than 2^28 pre-drawn increments; "
            "reduce samples or coarsen dt"
        )
    if scheme == "shared_increment":
        step_var = exp_integral(lam, dt)  # exact per-mode one-step variance weight
        factor = np.sqrt(step_var / dt)
        draws = _standard_normals(seed, samples, (steps, width))
        draws *= math.sqrt(dt)
    else:
        step_root = factor_psd(covariance_qt(model, ctrl, dt).matrix)
        increments = _standard_normals(seed, samples, (steps, n)) @ step_root.T

    x = np.zeros((samples, n)) if x0 is None else np.tile(np.asarray(x0, dtype=float), (samples, 1))
    out = np.empty((samples, keep.size, n))
    if 0 in keep_set:
        out[:, keep_set[0], :] = x
    beta_t = ctrl.array.T
    for j in range(steps):
        if scheme == "shared_increment":
            x = x * decay[None, :] + (draws[:, j, :] @ beta_t) * factor[None, :]
        else:
            x = x * decay[None, :] + increments[:, j, :]
        if (j + 1) in keep_set:
            out[:, keep_set[j + 1], :] = x
    return PathEnsemble(times=keep * dt, values=out, seed=int(seed), scheme=scheme)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Unbiased mean/covariance estimators with entrywise standard errors."""

    mean: np.ndarray
    mean_se: np.ndarray
    covariance: np.ndarray
    covariance_se: np.ndarray
    sample_count: int


def ensemble_stats(ensemble: PathEnsemble, time_index: int = -1) -> EnsembleStats:
    """Estimate mean and covariance of the ensemble at one stored time.

    Covariance uses the unbiased ``1/(n-1)`` normalization; its standard
    errors come from the Gaussian formula
    ``Var(C_nm) = (C_nn C_mm + C_nm^2) / (n - 1)``.
    """
    n = ensemble.sample_count
    if n < 2:
        raise PreconditionError("need at least two samples for covariance estimates")
    x = ensemble.values[:, time_index, :]
    mean = x.mean(axis=0)
    centered = x - mean[None, :]
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
