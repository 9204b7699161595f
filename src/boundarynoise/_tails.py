"""Certified brackets for remainders of nonnegative, nonincreasing series.

Every mode remainder is a power family: terms ``f(a_i)``, ``a_i = offset + c i**p``
for ``i >= start``, under one envelope ``scale * a**-q``.  :func:`power_family_tail`
is the one bracket: it sums terms explicitly (vectorized, in blocks) until they
drop below the absolute target, then encloses the rest from the stopping index
``s`` by the integral comparison for a nonincreasing ``g >= 0``::

    int_{s}^{inf} g(x) dx  <=  sum_{i >= s} g(i)  <=  g(s) + int_{s}^{inf} g(x) dx

with the envelope integrated in closed form.  :func:`gamma_power_tail`,
:func:`frequency_mode_tail` and :func:`power_envelope_tail` are one call each;
the frequency line has closed forms (:func:`line_sum_exact`,
:func:`frequency_line_tail`).  Brackets are tested against brute-force sums and mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError

#: Budget of explicitly summed terms before the integral bracket takes over.
MAX_TERMS = 400_000
_BLOCK = 8192  # terms per vectorized block


@dataclass(frozen=True)
class TailBracket:
    """Certified enclosure: the true remainder lies in ``[lower, lower + width]``."""

    lower: float
    width: float
    terms_used: int

    @property
    def upper(self) -> float:
        return self.lower + self.width


def power_family_tail(f: Callable[[np.ndarray], np.ndarray], scale: float, q: float, c: float, p: float,
                      offset: float, start: int, abs_target: float,
                      lower_factor: Callable[[float], float] | None = None,
                      upper_divisor: Callable[[float], float] | None = None) -> TailBracket:
    """Enclose ``sum_{i >= start} f(a_i)`` with ``a_i = offset + c i**p``.

    ``f`` maps an array of ``a`` to the terms.  For ``a >= a_s``, ``s`` the
    stopping index, it must satisfy::

        scale a**-q * lower_factor(a_s)  <=  f(a)  <=  scale a**-q / upper_divisor(a_s)

    where a missing factor is 1.  Since ``|offset / (c t**p)|`` shrinks as
    ``t`` grows, ``c t**p * lo <= a(t) <= c t**p * hi`` on ``t >= s`` with
    ``lo, hi`` the ratio's bounds at ``t = s``.  So with
    ``IU = scale s**(1 - pq) / (c**q (pq - 1))`` the remainder from ``s`` lies
    in ``[IU lower_factor / hi**q, f(a_s) + IU / (lo**q upper_divisor)]``.
    Terms are summed until one falls to ``abs_target`` or ``MAX_TERMS`` run
    out.  Requires ``p q > 1`` and ``a(start) > 0``.  An overflow in ``a`` or
    inside ``f`` gives the term its limit without a warning.
    """
    if p * q <= 1 or offset + c * float(start) ** p <= 0:
        raise PreconditionError(
            f"power-family tail needs p*q > 1 and a(start) = offset + c*start**p > 0 "
            f"(p*q={p * q:g}, start={start}); materialize more modes"
        )
    acc, i, used = 0.0, int(start), 0
    with np.errstate(over="ignore"):
        while used < MAX_TERMS:
            vals = f(offset + c * np.arange(i, i + _BLOCK, dtype=float) ** p)
            below = np.nonzero(vals <= abs_target)[0]
            take = int(below[0]) if below.size else _BLOCK
            acc += float(np.sum(vals[:take]))
            used += take
            i += take
            if below.size:
                break
        x = float(i)
        stop_term = float(f(offset + c * np.array([x]) ** p)[0])
    a_s = offset + c * x**p
    r = offset / (c * x**p)
    lo, hi = min(1.0, 1.0 + r), max(1.0, 1.0 + r)
    iu = scale * x ** (1.0 - p * q) / (c**q * (p * q - 1.0))
    low = iu / hi**q * (lower_factor(a_s) if lower_factor else 1.0)
    high = iu / (lo**q * (upper_divisor(a_s) if upper_divisor else 1.0))
    return TailBracket(lower=acc + low, width=max(stop_term + (high - low), 0.0), terms_used=used)


def gamma_power_tail(c: float, p: float, offset: float, w: float, T: float | None, start: int,
                     abs_target: float) -> TailBracket:
    """Remainder of ``sum_i w * (1 - exp(-2 a_i T)) / (2 a_i)`` with ``a_i = offset + c i**p``.

    ``T=None`` means the infinite-horizon terms ``w / (2 a_i)``.  Terms are
    nonincreasing because ``(1 - exp(-2aT)) / (2a)`` decreases in ``a``.
    Envelope ``(w/2) a**-1``; on ``a >= a_s`` a finite horizon keeps at least
    the factor ``1 - exp(-2 a_s T)`` of it.  Requires ``p > 1`` and ``a(start) > 0``.
    """
    if T is None:
        return power_family_tail(lambda a: w / (2.0 * a), w / 2.0, 1.0, c, p, offset, start, abs_target)
    return power_family_tail(lambda a: w * (-np.expm1(-2.0 * a * T)) / (2.0 * a), w / 2.0, 1.0, c, p, offset,
                             start, abs_target, lower_factor=lambda a_s: -math.expm1(-2.0 * a_s * T))


def power_envelope_tail(c: float, p: float, q: float, offset: float, w: float, start: int, abs_target: float,
                        extra_sq: float = 0.0) -> TailBracket:
    """Remainder of ``sum_i w / ((offset + c i**p)**q + extra_sq)`` for ``p*q > 1``.

    ``extra_sq`` handles squared-distance terms ``|lam - lam_i|**2 = A_i**2 + y**2``
    (then ``q=2`` and ``extra_sq = y**2``).  Envelope ``w a**-q``; on
    ``a >= a_s`` the terms keep at least the factor ``1 / (1 + extra_sq / a_s**q)`` of it.
    """
    return power_family_tail(lambda a: w / (a**q + extra_sq), w, q, c, p, offset, start, abs_target,
                             lower_factor=lambda a_s: 1.0 / (1.0 + extra_sq / a_s**q))


def over_squares(w, a, b=None) -> np.ndarray:
    """``w / (a**2 + b**2)`` termwise (``w / a**2`` without ``b``), broadcast, ``w`` along the last axis.

    The one weighted-square kernel.  Every entry is the plain expression's, and
    its limits come without a warning: a square that overflows float64 (a
    magnitude above about 1.3e154) is ``inf`` and its quotient 0, a zero weight
    adds exactly 0, and a positive weight over a square that underflows to 0
    is ``inf`` (which no bracket certifies).
    """
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.asarray(w / (a**2 if b is None else a**2 + np.asarray(b, dtype=float) ** 2))
    terms[..., w == 0.0] = 0.0  # in place: no second table
    return terms


def line_sum_exact(a: np.ndarray, T: float) -> np.ndarray:
    """``sum_{n in Z} 1 / (a**2 + (2 pi n / T)**2) = (T / (2a)) * coth(a T / 2)``.

    Standard cotangent expansion, rescaled; unit-tested against brute force.
    Valid for ``a > 0``.  An ``a T`` that overflows saturates ``tanh`` at 1,
    its limit, without a warning.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        return T / (2.0 * a * np.tanh(a * T / 2.0))


def frequency_line_tail(a: np.ndarray, T: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided remainder ``sum_{|n| > n_max} 1 / (a**2 + (2 pi n / T)**2)`` per mode.

    With ``f(x) = 1/(a**2 + (2 pi x / T)**2)`` and
    ``I(x) = (T / (2 pi a)) (pi/2 - arctan(2 pi x / (T a)))``::

        2 I(n_max + 1) <= tail <= 2 (f(n_max + 1) + I(n_max + 1))

    Returns ``(lower, width)`` arrays matching ``a``.  Quotients that overflow
    or divide by an underflowed ``T a`` or square are ``inf`` and take their
    limits without a warning: the arctangent term reaches 0, and ``f`` is
    ``inf`` (no bracket is certified from it).
    """
    a = np.asarray(a, dtype=float)
    x = float(n_max + 1)
    with np.errstate(over="ignore", divide="ignore"):
        integral = (T / (2.0 * math.pi * a)) * (math.pi / 2.0 - np.arctan(2.0 * math.pi * x / (T * a)))
    return 2.0 * integral, 2.0 * over_squares(1.0, a, 2.0 * math.pi * x / T)


def frequency_mode_tail(c: float, p: float, a_offset: float, w: float, T: float, start: int,
                        abs_target: float) -> TailBracket:
    """Remainder of the doubly-indexed frequency sum over non-materialized modes.

    Each tail mode ``i`` contributes its full frequency line
    ``w * (T / (2 a_i)) coth(a_i T / 2)`` with ``a_i = a_offset + c i**p``
    (see :func:`line_sum_exact`).  These are nonincreasing in ``i``.  Envelope
    ``(w T / 2) a**-1``: ``coth >= 1`` gives the lower side, and ``coth`` at the
    stopping index caps it on the upper side.  Requires ``p > 1``.
    """
    return power_family_tail(lambda a: w * line_sum_exact(a, T), w * T / 2.0, 1.0, c, p, a_offset, start,
                             abs_target, upper_divisor=lambda a_s: math.tanh(a_s * T / 2.0))
