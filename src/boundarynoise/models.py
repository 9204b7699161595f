"""Concrete boundary-noise systems with closed-form cross-oracles.

Two systems are materialized:

* the 1-D heat equation on ``(0, pi)`` with zero-flux walls and white-noise
  flux injected at one endpoint -- diagonalized by the cosine basis, so every
  spectral routine applies and the stationary-problem solution gives an
  independent quadrature oracle;
* the left-shift (transport) system on ``[-r, 0]`` with noise entering at
  ``theta = 0`` -- not diagonalizable, carried entirely by closed forms.  Its
  frequency criterion has constant terms, which certifies divergence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from ._tails import over_squares, power_envelope_tail
from .admissibility import (
    DIVERGENCE_FLOOR,
    SeriesVerdict,
    Verdict,
    _converged,
    _diverged,
    certify_tail,
)
from .errors import PreconditionError, SingularResolventError
from .spectral import COUNTABLE, Coefficients, DiagonalModel, TailRule, _require_paired

Side = Literal["left", "right"]


@dataclass(frozen=True, eq=False)
class HeatNeumannModel:
    """Heat equation on ``(0, pi)`` with flux noise at one endpoint.

    Wraps the cosine-basis diagonal model (``lambda_n = -n^2``) together with
    the endpoint-trace control coefficients.
    """

    model: DiagonalModel
    control: Coefficients


def build_heat_neumann(side: Side, modes: int) -> HeatNeumannModel:
    """Materialize the heat model with ``modes`` cosine modes.

    Basis: ``phi_0 = 1/sqrt(pi)``, ``phi_n = sqrt(2/pi) cos(n x)`` for
    ``n >= 1`` (orthonormal, including the constant mode).  Right-side noise
    couples through ``phi_n(pi)``, left-side through ``-phi_n(0)``.  The tail
    weight is the constant ``2/pi`` regardless of truncation.
    """
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    if modes < 1:
        raise PreconditionError("need at least one mode")
    model = DiagonalModel.from_power(c=1.0, p=2.0, modes=modes, include_zero_mode=True)
    beta = np.empty(modes)
    beta[0] = 1.0 / math.sqrt(math.pi)
    if modes > 1:
        n = np.arange(1, modes)
        signs = (-1.0) ** n if side == "right" else np.ones(modes - 1)
        beta[1:] = math.sqrt(2.0 / math.pi) * signs
    if side == "left":
        beta = -beta
    control = Coefficients(beta[:, None], tail=TailRule("constant", 2.0 / math.pi))
    return HeatNeumannModel(model=model, control=control)


def constant_one_feedback(modes: int) -> np.ndarray:
    """Mode coefficients of the mean functional ``phi -> int_0^pi phi``.

    Only the constant mode is seen: ``<1, phi_0> = sqrt(pi)``, all higher
    cosine modes integrate to zero.
    """
    m = np.zeros(modes)
    m[0] = math.sqrt(math.pi)
    return m


def _heat_singular_mode(lam: complex) -> int | None:
    """Index ``k`` with ``lam == -k**2`` (the stationary problem's spectrum), else None."""
    if lam == 0:
        return 0
    if lam.imag == 0 and lam.real < 0:
        r = math.sqrt(-lam.real)
        k = round(r)
        if k >= 1 and r == float(k):
            return k
    return None


def heat_dirichlet_closed_form(lam: complex, xi: float, side: Side = "right") -> complex:
    """Solution of ``lam phi = phi''`` with unit flux at the noisy endpoint, at ``xi``.

    Right side: ``phi'(0) = 0``, ``phi'(pi) = 1`` gives
    ``phi(xi) = cosh(sqrt(lam) xi) / (sqrt(lam) sinh(sqrt(lam) pi))``;
    the left side is the mirror image ``xi -> pi - xi`` with opposite sign.
    Evaluated through decaying exponentials, so large ``|sqrt(lam)|`` is safe.
    """
    lam = complex(lam)
    if not 0.0 <= xi <= math.pi:
        raise PreconditionError("xi must lie in [0, pi]")
    k = _heat_singular_mode(lam)
    if k is not None:
        raise SingularResolventError(lam, k)
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    sign = 1.0
    if side == "left":
        xi = math.pi - xi
        sign = -1.0
    a = cmath.sqrt(lam)  # principal branch, Re a >= 0
    # cosh(a xi)/sinh(a pi) = (e^{a(xi-pi)} + e^{-a(xi+pi)}) / (1 - e^{-2 a pi})
    num = cmath.exp(a * (xi - math.pi)) + cmath.exp(-a * (xi + math.pi))
    den = 1.0 - cmath.exp(-2.0 * a * math.pi)
    return sign * num / (a * den)


def heat_dirichlet_hs_norm_quadrature(lam: complex, side: Side = "right") -> float:
    """Squared Hilbert-Schmidt norm of the stationary solution map, by quadrature.

    Integrates ``|phi(xi)|^2`` of :func:`heat_dirichlet_closed_form` over
    ``[0, pi]`` to relative tolerance 1e-10 -- an oracle independent of the
    spectral route.
    """
    from scipy import integrate  # imported here, off the CLI's import path

    f = lambda s: abs(heat_dirichlet_closed_form(lam, s, side)) ** 2
    value, _ = integrate.quad(f, 0.0, math.pi, epsabs=0.0, epsrel=1e-10, limit=200)
    return float(value)


def dirichlet_hs_norm_spectral(model: DiagonalModel, ctrl: Coefficients, lam: complex) -> float:
    """Squared Hilbert-Schmidt norm ``sum_n w_n / |lam - lambda_n|^2`` with certified tail.

    The stationary solution map factors through the resolvent, so its squared
    norm is the resolvent-weighted coefficient sum.  The remainder goes
    through the shared tail ladder (:func:`.certify_tail`); the returned
    value is the certified lower end, and any verdict other than Converged
    raises.
    """
    _require_paired(model, ctrl)
    lam = complex(lam)
    gaps = lam - model.eigenvalues
    hits = np.nonzero(gaps == 0)[0]
    if hits.size:
        raise SingularResolventError(lam, int(hits[0]))
    partial = float(np.sum(over_squares(ctrl.weights, np.abs(gaps))))

    def a_off(tail) -> float:
        # |lam - lambda_i| >= Re(lam) + c i**p, which must be positive on the tail
        if lam.real + tail.c * float(tail.next_index) ** tail.p <= 0:
            raise PreconditionError("lambda too far left to certify the remainder")
        return lam.real

    verdict = certify_tail(
        partial, model, ctrl,
        lambda tail: (a_off(tail) + tail.c * float(tail.next_index) ** tail.p) ** -2,
        lambda tail, w, target: power_envelope_tail(
            tail.c, tail.p, 2.0, a_off(tail), w, tail.next_index, abs_target=target, extra_sq=lam.imag**2),
        p_min=0.5,
    )
    if verdict.verdict is not Verdict.CONVERGED:
        raise PreconditionError(f"spectral norm remainder not certified: {verdict.evidence}")
    return verdict.value


@dataclass(frozen=True)
class TransportModel:
    """Left-shift system on ``[-r, 0]`` with noise entering at ``theta = 0``.

    The semigroup is nilpotent at time ``r``; the stationary solution map has
    the closed form ``(theta, v) -> exp(lam theta) v``, whose squared
    Hilbert-Schmidt norm is ``d (1 - exp(-2 Re(lam) r)) / (2 Re lam)``
    (limit ``d r`` on the imaginary axis) -- constant along every vertical
    line, which is what certifies divergence of the frequency criterion.
    """

    delay: float
    noise_dim: Union[int, str] = 1

    def __post_init__(self):
        if self.delay <= 0:
            raise PreconditionError("delay must be positive")
        if self.noise_dim != COUNTABLE and (not isinstance(self.noise_dim, int) or self.noise_dim < 1):
            raise PreconditionError("noise_dim must be a positive integer or 'countable'")

    def dirichlet_hs_norm_sq(self, lam: complex) -> float:
        """``d * int_{-r}^0 exp(2 Re(lam) theta) dtheta``; infinite for countable noise."""
        if self.noise_dim == COUNTABLE:
            return math.inf
        re = complex(lam).real
        if re == 0.0:
            return float(self.noise_dim) * self.delay
        return float(self.noise_dim) * (-math.expm1(-2.0 * re * self.delay)) / (2.0 * re)


def build_transport(r: float, d: Union[int, str] = 1) -> TransportModel:
    """Transport model with delay ``r > 0`` and ``d`` noise channels."""
    return TransportModel(delay=float(r), noise_dim=d)


def dirichlet_frequency_criterion(model: TransportModel, omega: float, T: float, n_max: int) -> SeriesVerdict:
    """Frequency criterion on the transport model's stationary solution map.

    The closed form is constant in ``n``: divergent for every ``d >= 1``, and
    already infinite per term for countable noise.  (On a diagonal model the
    solution map factors through the resolvent, so its series is
    :func:`.frequency_series` itself.)
    """
    if T <= 0:
        raise PreconditionError("horizon must be positive")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if model.noise_dim == COUNTABLE:
        return _diverged(math.inf, "single term infinite: countable noise channels")
    term = model.dirichlet_hs_norm_sq(omega)
    partial = (2 * n_max + 1) * term
    if term <= DIVERGENCE_FLOOR:
        return _converged(partial, 0.0, 0.0, "terms below divergence threshold")
    return _diverged(partial, "terms constant in n")
