"""The tail-bracket inequalities, checked against long brute-force sums."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from boundarynoise._tails import (
    frequency_line_tail,
    frequency_mode_tail,
    gamma_power_tail,
    line_sum_exact,
    over_squares,
    power_envelope_tail,
)
from boundarynoise.errors import PreconditionError


def test_gamma_power_tail_encloses_trigamma_truth():
    # for p=2, offset=0, T=None the remainder is (w/2) * psi'(start) exactly
    w = 2.0 / math.pi
    for start in (4, 16, 64):
        truth = 0.5 * w * float(polygamma(1, start))
        for target in (1e-3, 1e-6, 1e-9):
            bracket = gamma_power_tail(1.0, 2.0, 0.0, w, None, start, abs_target=target)
            assert bracket.lower <= truth <= bracket.upper
            assert bracket.width <= 10.0 * target + 1e-15


def test_gamma_power_tail_finite_horizon_against_brute_force():
    w, T, start = 0.8, 0.7, 5
    n = np.arange(start, 3_000_000, dtype=float)
    a = 0.3 + 1.5 * n**2
    brute = float(np.sum(w * -np.expm1(-2.0 * a * T) / (2.0 * a)))
    # remainder beyond the brute-force horizon is below w/(2*1.5*(3e6)) ~ 1e-7
    slack = w / (2.0 * 1.5 * 3e6)
    bracket = gamma_power_tail(1.5, 2.0, 0.3, w, T, start, abs_target=1e-4)
    assert bracket.lower <= brute + slack
    assert brute <= bracket.upper


def test_gamma_power_tail_negative_offset():
    # shifted family: offset < 0 flips which envelope side is the upper one
    w, start, offset = 1.0, 3, -2.0
    n = np.arange(start, 2_000_000, dtype=float)
    brute = float(np.sum(w / (2.0 * (offset + n**2))))
    slack = w / (2.0 * 2e6)
    bracket = gamma_power_tail(1.0, 2.0, offset, w, None, start, abs_target=1e-5)
    assert bracket.lower <= brute + slack
    assert brute <= bracket.upper


def test_gamma_power_tail_rejects_p_at_most_one():
    with pytest.raises(PreconditionError):
        gamma_power_tail(1.0, 1.0, 0.0, 1.0, 1.0, 4, abs_target=1e-6)


def test_gamma_power_tail_rejects_nonnegative_tail_eigenvalues():
    with pytest.raises(PreconditionError):
        gamma_power_tail(1.0, 2.0, -100.0, 1.0, 1.0, 4, abs_target=1e-6)


def test_power_envelope_tail_against_brute_force():
    w, start, y_sq = 0.6366, 8, 3.0
    n = np.arange(start, 2_000_000, dtype=float)
    brute = float(np.sum(w / ((1.2 + n**2) ** 2 + y_sq)))
    bracket = power_envelope_tail(1.0, 2.0, 2.0, 1.2, w, start, abs_target=1e-7, extra_sq=y_sq)
    assert bracket.lower <= brute <= bracket.upper
    assert bracket.width <= 1e-5


def test_line_sum_identity_against_brute_force():
    for a, T in [(1.0, 1.0), (0.3, 2.0), (5.0, 0.5)]:
        n = np.arange(1, 3_000_000, dtype=float)
        brute = 1.0 / a**2 + 2.0 * float(np.sum(1.0 / (a**2 + (2 * math.pi * n / T) ** 2)))
        exact = float(line_sum_exact(np.array([a]), T)[0])
        assert exact == pytest.approx(brute, rel=1e-5)
        assert exact >= brute  # brute force misses a positive remainder


def test_frequency_line_tail_encloses_brute_force():
    for a, T, n_max in [(1.0, 1.0, 10), (0.5, 3.0, 25), (4.0, 1.0, 7)]:
        n = np.arange(n_max + 1, 1_000_000, dtype=float)
        brute = 2.0 * float(np.sum(1.0 / (a**2 + (2 * math.pi * n / T) ** 2)))
        lower, width = frequency_line_tail(np.array([a]), T, n_max)
        assert lower[0] <= brute <= lower[0] + width[0]


def test_frequency_mode_tail_encloses_brute_force():
    w, T, start = 0.6366, 1.0, 6
    i = np.arange(start, 1_000_000, dtype=float)
    a = 0.5 + i**2
    brute = float(np.sum(w * line_sum_exact(a, T)))
    bracket = frequency_mode_tail(1.0, 2.0, 0.5, w, T, start, abs_target=1e-6)
    assert bracket.lower <= brute <= bracket.upper
    assert bracket.width <= 1e-4


def test_zero_weight_short_circuits():
    assert gamma_power_tail(1.0, 2.0, 0.0, 0.0, 1.0, 4, abs_target=1e-6).upper == 0.0
    assert frequency_mode_tail(1.0, 2.0, 1.0, 0.0, 1.0, 4, abs_target=1e-6).upper == 0.0


def test_over_squares_takes_its_limits_without_warnings():
    # pyproject turns RuntimeWarnings into errors, so each limit below is also warning-free
    assert over_squares([0.0, 1.0], [0.0, 1e-170]).tolist() == [0.0, math.inf]  # 0/0 is 0; 1e-340 underflows
    assert over_squares(1.0, 1e200) == 0.0  # the square overflows
    assert over_squares(1.0, 3.0, 4.0) == 1.0 / 25.0
    # a 1-D weight runs along the last axis of a 2-D table
    terms = over_squares(np.array([2.0, 0.0, 1.0]), np.array([[1.0, 0.0, 1e-170], [2.0, 1e200, 0.5]]))
    assert terms.tolist() == [[2.0, 0.0, math.inf], [0.5, 0.0, 4.0]]
    terms = over_squares(np.array([1.0, 0.0]), np.array([1.0, 1e-170]), np.array([[0.0], [1.0]]))
    assert terms.tolist() == [[1.0, 0.0], [0.5, 0.0]]


# --- mpmath oracle for the one power-family bracket ---------------------------------------------
#
# Beyond an index n0 where offset / (c i**p) and extra_sq / a_i**q are at most 1e-2, every
# envelope part sum_{i >= n0} a_i**-m is a binomial series in offset / (c i**p) of Hurwitz zeta
# values; the exponentially small parts are summed directly; terms below n0 are summed one by one.

_TINY = mpmath.mpf(10) ** -28


def _power_sum(c, p, off, m, n0):
    """``sum_{i >= n0} (off + c i**p)**-m`` with ``|off| <= 1e-2 c n0**p``."""
    total, coeff, k = mpmath.mpf(0), mpmath.mpf(1), 0
    while True:
        term = coeff * (off / c) ** k * mpmath.zeta(p * (m + k), n0)
        total += term
        if abs(term) <= _TINY * abs(total):
            return total / c**m
        k += 1
        coeff *= (-m - k + 1) / k


def _direct(term, start, stop=None):
    """``sum_{start <= i < stop} term(i)``; without ``stop``, until a term is negligible."""
    total, i = mpmath.mpf(0), start
    while i != stop:
        t = term(i)
        total += t
        i += 1
        if stop is None and t <= _TINY * total:
            return total
    return total


def _oracle(family, c, p, off, w, T, start, q=1.0, extra=0.0):
    mpmath.mp.dps = 30
    c, p, off, w, q, extra = (mpmath.mpf(v) for v in (c, p, off, w, q, extra))
    a = lambda i: off + c * mpmath.mpf(i) ** p
    n0 = max(start, math.ceil((100 * abs(float(off)) / float(c)) ** (1 / float(p))),
             math.ceil((2 * (100 * float(extra)) ** (1 / float(q)) / float(c)) ** (1 / float(p)))) + 1
    if family == "power":
        head = _direct(lambda i: w / (a(i) ** q + extra), start, n0)
        j, rest = 0, mpmath.mpf(0)
        while True:
            part = (-extra) ** j * _power_sum(c, p, off, q * (j + 1), n0)
            rest += part
            if abs(part) <= _TINY * abs(rest):
                return head + w * rest
            j += 1
    T = None if T is None else mpmath.mpf(T)
    if family == "gamma" and T is None:
        return _direct(lambda i: w / (2 * a(i)), start, n0) + w / 2 * _power_sum(c, p, off, 1, n0)
    if family == "gamma":
        head = _direct(lambda i: w * -mpmath.expm1(-2 * a(i) * T) / (2 * a(i)), start, n0)
        return head + w / 2 * _power_sum(c, p, off, 1, n0) - _direct(
            lambda i: w * mpmath.exp(-2 * a(i) * T) / (2 * a(i)), n0)
    head = _direct(lambda i: w * T / (2 * a(i)) * mpmath.coth(a(i) * T / 2), start, n0)
    return head + w * T / 2 * _power_sum(c, p, off, 1, n0) + _direct(
        lambda i: w * T / (a(i) * mpmath.expm1(a(i) * T)), n0)


@st.composite
def power_families(draw):
    c, p, start = draw(st.floats(0.2, 5.0)), draw(st.floats(1.1, 3.0)), draw(st.integers(1, 200))
    off = draw(st.floats(-0.5 * c * start**p, 2.0))
    return c, p, off, draw(st.floats(0.01, 5.0)), draw(st.floats(0.05, 5.0)), start, draw(st.floats(-10.0, -2.0))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(params=power_families(), q=st.floats(1.0, 2.5), extra=st.floats(0.0, 4.0))
@example(params=(1.0, 2.0, 0.1, 1.0, 1e-3, 1, -2.0), q=2.0, extra=0.0)  # stops where a T << 1: coth matters
@example(params=(1.0, 1.1, 0.0, 1.0, 1.0, 1, -6.0), q=1.0, extra=4.0)  # extra_sq matters at the stop
def test_every_bracket_encloses_the_mpmath_oracle(params, q, extra):
    c, p, off, w, T, start, log_rel = params
    cases = [
        ("gamma", gamma_power_tail, (c, p, off, w, T, start), {}),
        ("gamma", gamma_power_tail, (c, p, off, w, None, start), {}),
        ("frequency", frequency_mode_tail, (c, p, abs(off) + 0.1, w, T, start), {}),
        ("power", power_envelope_tail, (c, p, q, abs(off) + 0.1, w, start), {"extra_sq": extra}),
    ]
    for family, bracket_of, args, kw in cases:
        if family == "power":
            truth = _oracle(family, c, p, abs(off) + 0.1, w, None, start, q=q, extra=extra)
        else:
            truth = _oracle(family, *args[:3], w, args[4], start)
        bracket = bracket_of(*args, abs_target=10.0**log_rel * float(truth), **kw)
        # the width carries no rounding term yet: allow the float sum's few ulps
        slack = 64 * np.finfo(float).eps * float(truth)
        assert bracket.lower - slack <= truth <= bracket.upper + slack, (family, float(truth), bracket)
