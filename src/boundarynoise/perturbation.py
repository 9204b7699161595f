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

On a truncation the kernel is a finite sum of exponentials, so one
exponential-integrator recursion (:func:`_exp_weights`) solves the equation
and carries every convolution at once, with no singularity to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissibility import SeriesVerdict, Verdict, _converged, _inconclusive, gamma_time
from .errors import PreconditionError
from .spectral import Coefficients, DiagonalModel, _check_paired, _require_paired, evaluate_semigroup

#: The ladder is Cauchy when its last two levels agree within this fraction.
LADDER_REL_TOL = 0.01
#: Uniform time points on which :func:`perturbed_orbit_defect` evolves and integrates the orbit.
_ORBIT_POINTS = 2049


def _expm(a: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """``(expm(t a / m), m)`` for the least power of two ``m`` with ``||a||_1 t / m <= 1``.

    Callers square: at norm <= 1 scipy does not, so skips its triangular branch (wrong on ulp-close diagonals).
    """
    # imported on first use, off the CLI's import path; looked up on every call
    # so that a wrapper installed on scipy.linalg.expm (perfbench) sees each one
    from scipy import linalg

    mant, k = math.frexp(float(np.linalg.norm(a, 1)) * t)
    e = max(0, k - (mant == 0.5))
    return linalg.expm(math.ldexp(t, -e) * a), 2**e  # t / 2**e, but 2**1024 converts to no float


#: ``|lambda h|`` below which the weights come from their Taylor series (17 terms reach
#: 1/19! < 2**-53 there); either side stays within a few ulps of an mpmath reference.
_TAYLOR_BELOW = 1.0
# highest power first, for np.polyval: phi2(z) = sum z^j / (j+2)!, (phi1 - phi2)(z) = sum (j+1) z^j / (j+2)!
_PHI2_SERIES = np.array([1.0 / math.factorial(j + 2) for j in range(17)])[::-1]
_PHI12_SERIES = np.array([(j + 1) / math.factorial(j + 2) for j in range(17)])[::-1]


def _exp_weights(lam: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e^{lam h}, h (phi1 - phi2)(lam h), h phi2(lam h))`` elementwise.

    The weights are exact for ``int_0^h e^{lam (h - s)} g(s) ds`` with ``g``
    linear from ``g(0)`` (first weight) to ``g(h)`` (second); at ``lam = 0``
    both are ``h / 2``.  ``phi1(z) = (e^z - 1) / z``, ``phi2(z) = (e^z - 1 - z) / z^2``.
    """
    z = np.asarray(lam, dtype=float) * h
    small = np.abs(z) < _TAYLOR_BELOW
    zs, zc = np.where(small, z, 0.0), np.where(small, _TAYLOR_BELOW, z)  # each form sees only its own range
    # e^z (z - 1) + 1 and e^z - 1 - z cancel least written this way on |z| >= 1
    w0 = np.where(small, np.polyval(_PHI12_SERIES, zs), (np.exp(zc) * (zc - 1.0) + 1.0) / zc / zc)
    w1 = np.where(small, np.polyval(_PHI2_SERIES, zs), (np.expm1(zc) - zc) / zc / zc)
    return np.exp(z), h * w0, h * w1


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


def perturbed_semigroup_apply(
    model: DiagonalModel,
    pert: RankOnePerturbation,
    t: float,
    x: np.ndarray,
    method: str = "galerkin",
    *,
    grid_points: int = 600,
) -> np.ndarray:
    """Apply the perturbed semigroup to a mode vector.

    ``method="galerkin"`` exponentiates the truncated generator.
    ``method="volterra"`` solves the scalar feedback equation
    ``g = m . orbit + K * g`` on ``grid_points`` uniform steps, with ``g``
    linear on each step and ``z_k = int_0^t e^{lambda_k (t - s)} g(s) ds``
    carried by the exact weights of :func:`_exp_weights`, and returns
    ``orbit + b z``.  The route is second order in the step; a step so coarse
    that the implicit factor ``1 - (m b) . w1`` falls to 0.25 or below is refused.
    """
    if t < 0:
        raise PreconditionError("time must be nonnegative")
    x = _check_paired(model, np.asarray(x, dtype=float))
    if method == "galerkin":
        return np.linalg.matrix_power(*_expm(galerkin_perturbed_generator(model, pert), t)) @ x
    if method != "volterra":
        raise PreconditionError(f"unknown method {method!r}")
    if grid_points < 1:
        raise PreconditionError(f"need at least one grid step, got {grid_points}")
    _require_paired(model, pert)
    lam, mb = model.eigenvalues, pert.m * pert.b
    h = t / grid_points
    decay, w0, w1 = _exp_weights(lam, h)
    forcing = np.exp(np.multiply.outer(h * np.arange(grid_points + 1), lam)) @ (pert.m * x)
    # g_i = forcing_i + mb . z_i, and z_i is linear in g_i: solve for it
    implicit = 1.0 - float(mb @ w1)
    if not implicit > 0.25:
        raise PreconditionError(
            f"grid_points={grid_points} too coarse for the feedback (implicit factor {implicit:.3g}, need > 0.25)"
        )
    z, g = np.zeros_like(lam), forcing[0]
    for a in forcing[1:]:
        z = decay * z + w0 * g
        g = (a + float(mb @ z)) / implicit
        z += w1 * g
    return np.exp(lam * t) * x + pert.b * z


def perturbed_gamma_time(
    model: DiagonalModel,
    pert: RankOnePerturbation,
    ctrl: Coefficients,
    T: float,
) -> SeriesVerdict:
    """Perturbed time-domain criterion on a ladder of Galerkin truncations.

    Computes ``int_0^T || expm(t A_n) B_n ||_F^2 dt`` exactly for truncation
    levels ``n`` and reports Converged only when the last two levels agree within
    ``LADDER_REL_TOL`` -- a numerical witness that solvability survives the
    perturbation.  The reported tail bound is the observed last increment,
    not an analytic certificate.

    Levels: ``N/4, N/2, N`` when the model truncates an infinite family; a
    finite explicit model is already the whole operator, so it is evaluated at
    ``N`` alone (the ladder would just drop modes).

    Requires the unperturbed criterion to be Converged first.  A level whose
    Van Loan block norm times ``T``, or whose Gramian, overflows float64 ends
    the ladder Inconclusive, naming the overflow.
    """
    base = gamma_time(model, ctrl, T)
    if base.verdict is not Verdict.CONVERGED:
        raise PreconditionError(
            "the perturbation result assumes a solvable unperturbed problem; "
            f"time-domain verdict was {base.verdict.value}"
        )
    total = model.mode_count
    levels = [total] if model.tail is None else sorted({max(1, total // 4), max(1, total // 2), total})

    values = []
    for n in levels:
        # Van Loan: expm(h [[-A, BB^T], [0, A^T]]) = [[E^-1, E^-1 P(h)], [0, E^T]], E = expm(h A),
        # at h = T / m (E^-1 overflows at h = T); log2(m) doublings P(2h) = P(h) + E P(h) E^T reach T
        gen, b_cols = galerkin_perturbed_generator(model, pert, n), ctrl.array[:n]
        block = np.block([[-gen, b_cols @ b_cols.T], [np.zeros((n, n)), gen.T]])
        if not math.isfinite(float(np.linalg.norm(block, 1)) * T):
            return _inconclusive(math.nan, f"the Van Loan block's norm times T={T:g} overflows float64 at N={n}")
        ex, m = _expm(block, T)
        step = ex[n:, n:].T
        gram = step @ ex[:n, n:]
        with np.errstate(over="ignore", invalid="ignore"):  # a growing semigroup overflows: reported below
            for _ in range(m.bit_length() - 1):
                gram = gram + step @ gram @ step.T
                step = step @ step
        values.append(float(np.trace(gram)))
        if not math.isfinite(values[-1]):
            return _inconclusive(values[-1], f"the perturbed Gramian overflows float64 at N={n}, T={T:g}")

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
) -> float:
    """Residual of the variation-of-constants identity at time ``t``.

    Compares ``y(t) - orbit(t)`` against ``int_0^t exp(lambda (t-s)) b (m . y(s)) ds``
    with ``y`` the Galerkin evolution on ``_ORBIT_POINTS`` uniform points and the
    feed ``m . y`` linear between them (the weights of :func:`_exp_weights`);
    the identity closing on itself validates both routes at once.
    """
    if t <= 0:
        raise PreconditionError("time must be positive")
    x = _check_paired(model, x)
    h = t / (_ORBIT_POINTS - 1)
    step = np.linalg.matrix_power(*_expm(galerkin_perturbed_generator(model, pert), h))
    ys = [x]
    for _ in range(_ORBIT_POINTS - 1):
        ys.append(step @ ys[-1])
    feed = np.array(ys) @ pert.m
    _, w0, w1 = _exp_weights(model.eigenvalues, h)
    decay = np.exp(np.multiply.outer(t - np.linspace(0.0, t, _ORBIT_POINTS)[1:], model.eigenvalues))
    conv = (w0 * (feed[:-1] @ decay) + w1 * (feed[1:] @ decay)) * pert.b
    lhs = ys[-1] - evaluate_semigroup(model, t, x)
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(conv)), 1e-300)
    return float(np.linalg.norm(lhs - conv)) / scale
