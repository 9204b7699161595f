"""Reference values the benchmark computes itself, with no call into the package.

Workloads cache them with their provenance in a :class:`core.RefCache`; the
cost of a reference never counts toward a workload's set-up time.
"""

from __future__ import annotations

import math

import numpy as np


def heat_spectrum(modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``-n^2`` and right-endpoint trace coefficients of the cosine basis on (0, pi)."""
    n = np.arange(modes, dtype=float)
    beta = np.full(modes, math.sqrt(2.0 / math.pi))
    beta[0] = 1.0 / math.sqrt(math.pi)
    beta[1:] *= (-1.0) ** np.arange(1, modes)
    return -(n**2), beta


def exp_integral(lam: float, T: float) -> float:
    """``int_0^T exp(2 lam t) dt`` with the ``lam = 0`` limit."""
    return T if lam == 0.0 else math.expm1(2.0 * lam * T) / (2.0 * lam)


def finite_gamma(eigenvalues, weights, T: float) -> float:
    """``sum_n w_n int_0^T exp(2 lambda_n t) dt`` for a finite model, summed exactly rounded."""
    return math.fsum(float(w) * exp_integral(float(lam), T) for lam, w in zip(eigenvalues, weights))


def heat_gamma_total(T: float, head: int) -> float:
    """The full heat series ``gamma(T) = T/pi + (1/pi) sum_{n>=1} (1 - exp(-2 n^2 T)) / n^2``.

    The first ``head`` modes are summed term by term in closed form.  The
    remainder uses ``sum_{n>=head} 1/n^2 = pi^2/6 - sum_{n<head} 1/n^2`` and
    a brute-force sum of the exponentially small corrections.
    """
    w0, w = 1.0 / math.pi, 2.0 / math.pi
    head_sum = w0 * T + math.fsum(w * exp_integral(-float(n * n), T) for n in range(1, head))
    inv_sq = math.pi**2 / 6.0 - math.fsum(1.0 / (n * n) for n in range(1, head))
    corrections = []
    n = head
    while True:
        term = math.exp(-2.0 * n * n * T) / (n * n)
        corrections.append(term)
        if term < 1e-30:
            break
        n += 1
    return head_sum + (w / 2.0) * (inv_sq - math.fsum(corrections))


def heat_covariance(modes: int, T: float) -> np.ndarray:
    """Closed-form mode covariance ``beta_n beta_m (exp((l_n + l_m) T) - 1) / (l_n + l_m)``."""
    lam, beta = heat_spectrum(modes)
    pair = lam[:, None] + lam[None, :]
    factor = np.full(pair.shape, float(T))
    nz = pair != 0.0
    factor[nz] = np.expm1(pair[nz] * T) / pair[nz]
    return np.outer(beta, beta) * factor


def heat_trace_moments(modes: int, T: float) -> tuple[float, float]:
    """``tr C`` and ``tr C^2`` of the heat covariance; ``2 tr C^2 / (n - 1)`` is the
    variance of the sample-covariance trace of ``n`` Gaussian draws."""
    cov = heat_covariance(modes, T)
    return float(np.trace(cov)), float(np.sum(cov * cov))


def _feedback_propagator(modes: int):
    """Eigen-decomposition of ``diag(lambda) + b m^T`` for heat with ``m`` the mean functional."""
    lam, beta = heat_spectrum(modes)
    m = np.zeros(modes)
    m[0] = math.sqrt(math.pi)
    generator = np.diag(lam) + np.outer(beta, m)
    mu, vecs = np.linalg.eig(generator)
    return mu, vecs, beta


def feedback_apply(modes: int, t: float, x: np.ndarray) -> np.ndarray:
    """``exp(t A) x`` for the heat model with ``constant_one`` feedback through its own control."""
    mu, vecs, _ = _feedback_propagator(modes)
    return (vecs @ (np.exp(t * mu) * np.linalg.solve(vecs, x))).real


def feedback_gramian(modes: int, T: float, panels: int = 200, nodes: int = 16) -> float:
    """``int_0^T ||exp(t A) b||^2 dt`` for the heat model with ``constant_one`` feedback.

    Composite Gauss-Legendre quadrature, ``panels`` x ``nodes``, of the
    integrand evaluated through the eigen-decomposition of the generator.
    """
    mu, vecs, beta = _feedback_propagator(modes)
    coef = np.linalg.solve(vecs, beta)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, T, panels + 1)
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * xs
        states = (np.exp(np.outer(ts, mu)) * coef) @ vecs.T
        parts.append(half * float(ws @ np.sum(np.abs(states) ** 2, axis=1)))
    return math.fsum(parts)
