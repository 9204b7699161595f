"""Rank-one generator perturbations and the numerical witnesses for them.

A perturbation couples the state back into the boundary through a control
column ``b`` and a bounded mode functional ``m``: the perturbed generator is
``diag(lambda) + b m^T`` on Galerkin truncations.  Two independent routes
evaluate the perturbed semigroup:

* Galerkin: the matrix exponential of the truncated generator;
* scalar reduction: the feedback signal ``g(t) = m . y(t)`` solves a linear
  integral equation of the second kind with memory kernel
  ``K(tau) = sum_k m_k b_k exp(lambda_k tau)``, after which each mode is a
  one-dimensional convolution.

The integral-equation solver uses product integration against a declared
endpoint singularity ``tau**(-sigma)`` and graded meshes near zero, so kernels
with a weakly singular envelope keep their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .admissibility import SeriesVerdict, Verdict, _converged, _inconclusive, gamma_time
from .errors import PreconditionError, ResolutionError, TruncationMismatchError
from .spectral import Coefficients, DiagonalModel, _require_paired, evaluate_semigroup

#: The ladder is Cauchy when its last two levels agree within this fraction.
LADDER_REL_TOL = 0.01


def _expm(a: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """``(expm(t a / m), m)`` for the least power of two ``m`` with ``||a||_1 t / m <= 1``.

    Callers square: at norm <= 1 scipy does not, so skips its triangular branch (wrong on ulp-close diagonals).
    """
    # imported on first use, off the CLI's import path; looked up on every call
    # so that a wrapper installed on scipy.linalg.expm (perfbench) sees each one
    from scipy import linalg

    mant, k = math.frexp(float(np.linalg.norm(a, 1)) * t)
    m = 2 ** max(0, k - (mant == 0.5))
    return linalg.expm((t / m) * a), m


def _trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid rule down the columns of ``y``; the arithmetic of ``scipy.integrate.trapezoid``."""
    return np.add.reduce(np.diff(x)[:, None] * (y[1:] + y[:-1]) / 2.0, axis=0)


@dataclass(frozen=True, eq=False)
class RankOnePerturbation:
    """Feedback ``b m^T``: control column ``b`` times mode functional ``m``.

    ``m`` must be square-summable; materialized arrays are, with the implicit
    zero tail.
    """

    b: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).ravel()
        m = np.asarray(self.m, dtype=float).ravel()
        if b.size != m.size or b.size == 0:
            raise PreconditionError("b and m must be nonempty arrays of equal length")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(m))):
            raise PreconditionError("perturbation coefficients must be finite")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    @property
    def mode_count(self) -> int:
        return int(self.b.size)


def galerkin_perturbed_generator(model: DiagonalModel, pert: RankOnePerturbation, n: int | None = None) -> np.ndarray:
    """The truncated perturbed generator ``diag(lambda)[:n] + outer(b, m)[:n, :n]``."""
    _require_paired(model, pert)
    total = model.mode_count
    if n is None:
        n = total
    if not 1 <= n <= total:
        raise PreconditionError(f"truncation level {n} out of range 1..{total}")
    return np.diag(model.eigenvalues[:n]) + np.outer(pert.b[:n], pert.m[:n])


def graded_mesh(T: float, intervals: int, sigma: float) -> np.ndarray:
    """Mesh on ``[0, T]`` graded toward 0 as ``(i/n)**q`` with ``q = 2/(1-sigma)``.

    Uniform when ``sigma == 0``; the grading restores second order for product
    integration against a ``tau**(-sigma)`` endpoint singularity.
    """
    if intervals < 1:
        raise PreconditionError("need at least one interval")
    if not 0.0 <= sigma < 1.0:
        raise PreconditionError("sigma must lie in [0, 1)")
    q = 1.0 if sigma == 0.0 else 2.0 / (1.0 - sigma)
    return T * (np.arange(intervals + 1) / intervals) ** q


@dataclass(frozen=True, eq=False)
class VolterraProblem:
    """Second-kind integral equation ``g(t) = a(t) + int_0^t K(t-s) g(s) ds``.

    ``kernel`` may blow up like ``c * tau**(-sigma)`` at zero; ``sigma`` must be
    declared (in ``[0, 1)``) so the solver can weight it exactly.  ``forcing``
    is a vectorized callable or samples on ``grid``.
    """

    forcing: Union[Callable[[np.ndarray], np.ndarray], np.ndarray]
    kernel: Callable[[np.ndarray], np.ndarray]
    sigma: float
    grid: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise PreconditionError(f"singularity exponent must lie in [0, 1), got {self.sigma}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise PreconditionError("grid needs at least two points")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise PreconditionError("grid must be strictly increasing and start at 0")
        object.__setattr__(self, "grid", grid)

    def forcing_values(self) -> np.ndarray:
        if callable(self.forcing):
            vals = np.asarray(self.forcing(self.grid), dtype=float)
        else:
            vals = np.asarray(self.forcing, dtype=float)
        if vals.shape != self.grid.shape:
            raise PreconditionError("forcing samples must match the grid")
        return vals


def volterra_resolve(problem: VolterraProblem) -> np.ndarray:
    """Product-integration solve of the second-kind equation on the grid.

    Writes ``K(tau) = tau**(-sigma) K_reg(tau)`` and integrates the weight
    exactly against the piecewise-linear interpolant of ``K_reg(t_i - s) g(s)``:
    on ``[t_j, t_{j+1}]`` the exact moments of ``tau**(-sigma)`` give the two
    node weights.  The implicit diagonal weight is solved for; a diagonal
    factor that eats more than 3/4 of the identity means the grid cannot
    resolve the declared singularity.
    """
    t = problem.grid
    sigma = problem.sigma
    a = problem.forcing_values()
    n = t.size
    one_m = 1.0 - sigma
    two_m = 2.0 - sigma

    def kreg(tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        return tau**sigma * np.asarray(problem.kernel(tau), dtype=float)

    # K_reg(0) by continuity; evaluated just off zero to dodge 0**0 and inf*0
    floor = t[1] * 1e-9
    kreg0 = float(kreg(np.array([floor]))[0])

    g = np.empty(n)
    g[0] = a[0]
    for i in range(1, n):
        A = t[i] - t[:i]
        B = t[i] - t[1 : i + 1]
        h = t[1 : i + 1] - t[:i]
        m0 = (A**one_m - B**one_m) / one_m
        m1 = (A**two_m - B**two_m) / two_m
        wl = (m1 - B * m0) / h
        wr = (A * m0 - m1) / h
        s = float(wl @ (kreg(A) * g[:i]))
        if i >= 2:
            s += float(wr[:-1] @ (kreg(B[:-1]) * g[1:i]))
        denom = 1.0 - wr[-1] * kreg0
        if denom <= 0.25:
            raise ResolutionError(
                f"grid too coarse for declared singularity sigma={sigma:g} "
                f"(implicit weight {wr[-1] * kreg0:.3g})"
            )
        g[i] = (a[i] + s) / denom
    return g


def declared_singularity(model: DiagonalModel) -> float:
    """Default kernel singularity exponent: smooth for finite models, 1/2 for power tails.

    Kernels assembled from heat-type spectra flatten like ``tau**(-1/2)`` as the
    truncation grows, so graded meshes are used even though any finite
    truncation is smooth.
    """
    return 0.0 if model.tail is None else 0.5


def perturbed_semigroup_apply(
    model: DiagonalModel,
    pert: RankOnePerturbation,
    t: float,
    x: np.ndarray,
    method: str = "galerkin",
    *,
    grid_points: int = 600,
    sigma: float | None = None,
) -> np.ndarray:
    """Apply the perturbed semigroup to a mode vector.

    ``method="galerkin"`` exponentiates the truncated generator.
    ``method="volterra"`` solves the scalar feedback equation
    ``g = m . orbit + K * g`` and reconstructs each mode by a convolution
    quadrature on the same grid; the two must agree within the documented
    tolerance (the test suite pins 1e-3 on the reference family).
    """
    if t < 0:
        raise PreconditionError("time must be nonnegative")
    x = np.asarray(x, dtype=float)
    if x.shape != (model.mode_count,):
        raise TruncationMismatchError("state vector does not match the model truncation")
    if method == "galerkin":
        return np.linalg.matrix_power(*_expm(galerkin_perturbed_generator(model, pert), t)) @ x
    if method != "volterra":
        raise PreconditionError(f"unknown method {method!r}")
    if t == 0.0:
        return x.copy()
    sig = declared_singularity(model) if sigma is None else float(sigma)
    min_points = math.ceil(16.0 / (1.0 - sig))
    if grid_points < min_points:
        raise ResolutionError(
            f"{grid_points} intervals cannot resolve sigma={sig:g}; need >= {min_points}"
        )
    lam = model.eigenvalues
    mb = pert.m * pert.b
    mx = pert.m * x
    grid = graded_mesh(t, grid_points, sig)
    forcing = lambda s: np.exp(np.multiply.outer(np.asarray(s, dtype=float), lam)) @ mx
    kernel = lambda tau: np.exp(np.multiply.outer(np.asarray(tau, dtype=float), lam)) @ mb
    g = volterra_resolve(VolterraProblem(forcing, kernel, sig, grid))
    decay = np.exp(np.multiply.outer(t - grid, lam))
    conv = _trapezoid(decay * g[:, None], grid)
    return np.exp(lam * t) * x + pert.b * conv


def perturbed_gamma_time(
    model: DiagonalModel,
    pert: RankOnePerturbation,
    ctrl: Coefficients,
    T: float,
    *,
    levels: Sequence[int] | None = None,
) -> SeriesVerdict:
    """Perturbed time-domain criterion on a ladder of Galerkin truncations.

    Computes ``int_0^T || expm(t A_n) B_n ||_F^2 dt`` exactly for truncation
    levels ``n`` and reports Converged only when the last two levels agree within
    ``LADDER_REL_TOL`` -- a numerical witness that solvability survives the
    perturbation.  The reported tail bound is the observed last increment,
    not an analytic certificate.

    Default levels: ``N/4, N/2, N`` when the model truncates an infinite
    family; a finite explicit model is already the whole operator, so it is
    evaluated at ``N`` alone (the ladder would just drop modes).

    Requires the unperturbed criterion to be Converged first.
    """
    base = gamma_time(model, ctrl, T)
    if base.verdict is not Verdict.CONVERGED:
        raise PreconditionError(
            "the perturbation result assumes a solvable unperturbed problem; "
            f"time-domain verdict was {base.verdict.value}"
        )
    total = model.mode_count
    if levels is None:
        if model.tail is None:
            levels = [total]
        else:
            levels = sorted({max(1, total // 4), max(1, total // 2), total})
    else:
        levels = sorted(set(int(n) for n in levels))
        if levels[0] < 1 or levels[-1] > total:
            raise PreconditionError("levels out of range")

    values = []
    for n in levels:
        # Van Loan: expm(h [[-A, BB^T], [0, A^T]]) = [[E^-1, E^-1 P(h)], [0, E^T]], E = expm(h A),
        # at h = T / m (E^-1 overflows at h = T); log2(m) doublings P(2h) = P(h) + E P(h) E^T reach T
        gen, b_cols = galerkin_perturbed_generator(model, pert, n), ctrl.array[:n]
        ex, m = _expm(np.block([[-gen, b_cols @ b_cols.T], [np.zeros((n, n)), gen.T]]), T)
        step = ex[n:, n:].T
        gram = step @ ex[:n, n:]
        for _ in range(m.bit_length() - 1):
            gram = gram + step @ gram @ step.T
            step = step @ step
        values.append(float(np.trace(gram)))

    ladder = ", ".join(f"N={n}: {v:.8g}" for n, v in zip(levels, values))
    if len(values) == 1:
        return _converged(values[0], 0.0, 0.0, f"exact on the full finite model ({ladder})")
    gap = abs(values[-1] - values[-2])
    if gap <= LADDER_REL_TOL * max(abs(values[-1]), 1e-300):
        return _converged(
            values[-1], 0.0, gap,
            f"Galerkin ladder Cauchy within {LADDER_REL_TOL:g} ({ladder}); bound is the observed increment",
        )
    return _inconclusive(values[-1], f"Galerkin ladder not Cauchy within {LADDER_REL_TOL:g} ({ladder})")


def perturbed_orbit_defect(
    model: DiagonalModel,
    pert: RankOnePerturbation,
    t: float,
    x: np.ndarray,
    quad_points: int = 2049,
) -> float:
    """Residual of the variation-of-constants identity at time ``t``.

    Compares ``y(t) - orbit(t)`` against the quadrature of
    ``exp(lambda (t-s)) b (m . y(s))`` with ``y`` the Galerkin evolution; the
    identity closing on itself validates both routes at once.
    """
    if t <= 0:
        raise PreconditionError("time must be positive")
    step = np.linalg.matrix_power(*_expm(galerkin_perturbed_generator(model, pert), t / (quad_points - 1)))
    ys = [x]
    for _ in range(quad_points - 1):
        ys.append(step @ ys[-1])
    ss = np.linspace(0.0, t, quad_points)
    feed = np.array(ys) @ pert.m
    decay = np.exp(np.multiply.outer(t - ss, model.eigenvalues))
    conv = _trapezoid(decay * feed[:, None], ss) * pert.b
    lhs = ys[-1] - evaluate_semigroup(model, t, x)
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(conv)), 1e-300)
    return float(np.linalg.norm(lhs - conv)) / scale
