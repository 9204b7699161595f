"""Certified brackets for remainders of nonnegative, nonincreasing series.

Every bound here reduces to the integral comparison for a nonincreasing
``f >= 0``::

    int_{i}^{inf} f(x) dx  <=  sum_{n >= i} f(n)  <=  f(i) + int_{i}^{inf} f(x) dx

A remainder is summed explicitly (vectorized, in blocks) until its terms drop
below the requested absolute target, then the rest is enclosed by the integral
bracket.  Each helper documents the envelope it integrates; all of them are
unit-tested against long brute-force sums.
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


def bracket_decreasing_sum(
    term: Callable[[np.ndarray], np.ndarray],
    integral_low: Callable[[float], float],
    integral_high: Callable[[float], float],
    start: int,
    abs_target: float,
) -> TailBracket:
    """Enclose ``sum_{i >= start} term(i)`` for a nonincreasing, nonnegative ``term``.

    ``integral_low(i) <= int_i^inf term(x) dx <= integral_high(i)`` must hold for
    every ``i`` at which they are evaluated.  Terms are summed explicitly until
    they fall below ``abs_target`` (or ``MAX_TERMS`` run out); the remainder from
    the stopping index ``s`` is enclosed by ``[integral_low(s), term(s) + integral_high(s)]``.
    """
    acc = 0.0
    i = int(start)
    used = 0
    while used < MAX_TERMS:
        n = np.arange(i, i + _BLOCK, dtype=float)
        vals = term(n)
        below = np.nonzero(vals <= abs_target)[0]
        if below.size:
            stop = int(below[0])
            acc += float(np.sum(vals[:stop]))
            used += stop
            i += stop
            break
        acc += float(np.sum(vals))
        used += _BLOCK
        i += _BLOCK
    stop_term = float(term(np.array([float(i)]))[0])
    low = integral_low(float(i))
    high = integral_high(float(i))
    lower = acc + low
    width = stop_term + (high - low)
    return TailBracket(lower=lower, width=max(width, 0.0), terms_used=used)


def _envelope_ratio(offset: float, c: float, p: float, x: float) -> tuple[float, float]:
    """Factors with ``c t**p * lo <= offset + c t**p <= c t**p * hi`` for all ``t >= x``.

    ``offset / (c t**p)`` shrinks in magnitude as ``t`` grows, so evaluating the
    ratio at ``t = x`` bounds it on the whole ray.
    """
    r = offset / (c * x**p)
    return min(1.0, 1.0 + r), max(1.0, 1.0 + r)


def gamma_power_tail(
    c: float,
    p: float,
    offset: float,
    w: float,
    T: float | None,
    start: int,
    abs_target: float,
) -> TailBracket:
    """Remainder of ``sum_i w * (1 - exp(-2 a_i T)) / (2 a_i)`` with ``a_i = offset + c i**p``.

    ``T=None`` means the infinite-horizon terms ``w / (2 a_i)``.  Terms are
    nonincreasing because ``(1 - exp(-2aT)) / (2a)`` decreases in ``a``.
    Envelope: ``c x**p * lo <= a(x) <= c x**p * hi`` (see ``_envelope_ratio``)
    encloses ``int_x^inf w / (2 a(t)) dt`` between ``IU/hi`` and ``IU/lo`` where
    ``IU = w x**(1-p) / (2 c (p-1))``.  Requires ``p > 1`` and ``a(start) > 0``.
    """
    if p <= 1:
        raise PreconditionError("power tail converges only for p > 1")
    if offset + c * float(start) ** p <= 0:
        raise PreconditionError("tail eigenvalues must be negative; materialize more modes")
    if w == 0.0:
        return TailBracket(0.0, 0.0, 0)

    def term(idx: np.ndarray) -> np.ndarray:
        a = offset + c * idx**p
        if T is None:
            return w / (2.0 * a)
        return w * (-np.expm1(-2.0 * a * T)) / (2.0 * a)

    def _iu(x: float) -> float:
        return w * x ** (1.0 - p) / (2.0 * c * (p - 1.0))

    def integral_high(x: float) -> float:
        lo, _ = _envelope_ratio(offset, c, p, x)
        return _iu(x) / lo

    def integral_low(x: float) -> float:
        _, hi = _envelope_ratio(offset, c, p, x)
        base = _iu(x) / hi
        if T is None:
            return base
        return base * (-math.expm1(-2.0 * (offset + c * x**p) * T))

    return bracket_decreasing_sum(term, integral_low, integral_high, start, abs_target)


def power_envelope_tail(
    c: float,
    p: float,
    q: float,
    offset: float,
    w: float,
    start: int,
    abs_target: float,
    extra_sq: float = 0.0,
) -> TailBracket:
    """Remainder of ``sum_i w / ((offset + c i**p)**q + extra_sq)`` for ``p*q > 1``.

    ``extra_sq`` handles squared-distance terms ``|lam - lam_i|**2 = A_i**2 + y**2``
    (then ``q=2`` and ``extra_sq = y**2``).  Envelope: the ``_envelope_ratio``
    factors raised to ``q``; the lower bound additionally divides by
    ``1 + extra_sq / A(x)**q``, which dominates the dropped ``extra_sq``.
    """
    if p * q <= 1:
        raise PreconditionError("power envelope tail converges only for p*q > 1")
    if offset + c * float(start) ** p <= 0:
        raise PreconditionError("tail envelope needs offset + c*start**p > 0")
    if w == 0.0:
        return TailBracket(0.0, 0.0, 0)

    def term(idx: np.ndarray) -> np.ndarray:
        a = offset + c * idx**p
        return w / (a**q + extra_sq)

    def _iu(x: float) -> float:
        return w * c ** (-q) * x ** (1.0 - p * q) / (p * q - 1.0)

    def integral_high(x: float) -> float:
        lo, _ = _envelope_ratio(offset, c, p, x)
        return _iu(x) / lo**q

    def integral_low(x: float) -> float:
        _, hi = _envelope_ratio(offset, c, p, x)
        a_x = offset + c * x**p
        return _iu(x) / (hi**q * (1.0 + extra_sq / a_x**q))

    return bracket_decreasing_sum(term, integral_low, integral_high, start, abs_target)


def over_squares(w, a, b=None) -> np.ndarray:
    """``w / (a**2 + b**2)`` elementwise (``w / a**2`` without ``b``), broadcast.

    A square that overflows float64 (a magnitude above about 1.3e154) is
    ``inf``, and its quotient takes the limit 0 without a warning; every entry
    is the plain expression's.
    """
    with np.errstate(over="ignore"):
        return w / (a**2 if b is None else a**2 + b**2)


def line_sum_exact(a: np.ndarray, T: float) -> np.ndarray:
    """``sum_{n in Z} 1 / (a**2 + (2 pi n / T)**2) = (T / (2a)) * coth(a T / 2)``.

    Standard cotangent expansion, rescaled; unit-tested against brute force.
    Valid for ``a > 0``.
    """
    a = np.asarray(a, dtype=float)
    return T / (2.0 * a * np.tanh(a * T / 2.0))


def frequency_line_tail(a: np.ndarray, T: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided remainder ``sum_{|n| > n_max} 1 / (a**2 + (2 pi n / T)**2)`` per mode.

    With ``f(x) = 1/(a**2 + (2 pi x / T)**2)`` and
    ``I(x) = (T / (2 pi a)) (pi/2 - arctan(2 pi x / (T a)))``::

        2 I(n_max + 1) <= tail <= 2 (f(n_max + 1) + I(n_max + 1))

    Returns ``(lower, width)`` arrays matching ``a``.
    """
    a = np.asarray(a, dtype=float)
    x = float(n_max + 1)
    integral = (T / (2.0 * math.pi * a)) * (math.pi / 2.0 - np.arctan(2.0 * math.pi * x / (T * a)))
    first = over_squares(1.0, a, 2.0 * math.pi * x / T)
    lower = 2.0 * integral
    width = 2.0 * first
    return lower, width


def frequency_mode_tail(
    c: float,
    p: float,
    a_offset: float,
    w: float,
    T: float,
    start: int,
    abs_target: float,
) -> TailBracket:
    """Remainder of the doubly-indexed frequency sum over non-materialized modes.

    Each tail mode ``i`` contributes its full frequency line
    ``w * (T / (2 a_i)) coth(a_i T / 2)`` with ``a_i = a_offset + c i**p``
    (see :func:`line_sum_exact`).  These are nonincreasing in ``i``; the
    integral envelope caps ``coth`` at its value on the stopping index for the
    upper bound and uses ``coth >= 1`` for the lower one.  Requires ``p > 1``.
    """
    if p <= 1:
        raise PreconditionError("frequency mode tail converges only for p > 1")
    if a_offset + c * float(start) ** p <= 0:
        raise PreconditionError("frequency mode tail needs positive resolvent distance")
    if w == 0.0:
        return TailBracket(0.0, 0.0, 0)

    def term(idx: np.ndarray) -> np.ndarray:
        a = a_offset + c * idx**p
        return w * line_sum_exact(a, T)

    def _it(x: float) -> float:
        return w * T * x ** (1.0 - p) / (2.0 * c * (p - 1.0))

    def integral_high(x: float) -> float:
        lo, _ = _envelope_ratio(a_offset, c, p, x)
        a_x = a_offset + c * x**p
        return _it(x) / (lo * math.tanh(a_x * T / 2.0))

    def integral_low(x: float) -> float:
        _, hi = _envelope_ratio(a_offset, c, p, x)
        return _it(x) / hi

    return bracket_decreasing_sum(term, integral_low, integral_high, start, abs_target)
