"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: the matrix exponential is
a plain scaled Taylor series (not scipy), series are brute-force partial sums,
and integrals go through scipy.integrate.quad only where the library uses
closed forms.
"""

import math

import numpy as np


def taylor_expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential by scaling and squaring a raw Taylor series."""
    m = np.asarray(a, dtype=float) * t
    norm = np.linalg.norm(m, ord=np.inf)
    k = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    ms = m / 2.0**k
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for j in range(1, 40):
        term = term @ ms / j
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < 1e-20:
            break
    for _ in range(k):
        out = out @ out
    return out


def brute_frequency_sum(weights, eigenvalues, omega, T, n_max):
    """Direct double sum of the frequency series over |n| <= n_max."""
    w = np.asarray(weights, dtype=float)
    a = omega - np.asarray(eigenvalues, dtype=float)
    total = float(np.sum(w / a**2))
    for n in range(1, n_max + 1):
        kappa = 2.0 * np.pi * n / T
        total += 2.0 * float(np.sum(w / (a**2 + kappa**2)))
    return total


def piecewise_spectrum(rng, max_modes=16, lo=-50.0, hi=-0.1, w_hi=4.0):
    """A random finite stable model for equivalence/property tests."""
    n = int(rng.integers(1, max_modes + 1))
    lam = rng.uniform(lo, hi, size=n)
    w = rng.uniform(0.0, w_hi, size=n)
    return lam, w


def heat_field(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_n x_n phi_n(xi)`` on a spatial grid for the heat cosine basis."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    out = np.full(xi.shape, x[0] / math.sqrt(math.pi))
    for n in range(1, x.size):
        out += x[n] * math.sqrt(2.0 / math.pi) * np.cos(n * xi)
    return out
