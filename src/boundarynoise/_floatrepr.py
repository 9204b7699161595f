"""``float.__repr__`` of a float64 array, computed for the whole array at once.

Each float becomes one 24-byte cell whose non-NUL bytes are its ``repr``;
NULs may sit anywhere in a cell, so a renderer deletes them from its text.

The shortest decimal that reads back as the same float, and the closest to it
of those, comes from Schubfach (R. Giulietti, *The Schubfach way to render
doubles*, 2020) in ``uint64`` arithmetic: ``c 2^q`` is scaled by a 126-bit
power of ten ``g 2^-127`` and rounded to odd, once for the value and once for
each end of its rounding interval.  Two choices differ from the Java original:
the one-digit-shorter candidate is tried from ``s >= 10`` on (repr needs no
second digit), and subnormals are not scaled by ten.  The 17 digits become
ASCII in three little-endian words, and repr's layout is a fixed set of masks
and shifts read from tables per decimal point position.

Every constant is a ``np.uint64`` so that numpy 1.24's legacy promotion, which
turns ``uint64`` mixed with a Python or ``int64`` integer into float64, never
applies.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFF_FFFF)
_LOW63 = _U(2**63 - 1)
_ASCII_ZEROS = _U(0x3030_3030_3030_3030)
#: decimal exponents of the power-of-ten table; Schubfach's k stays within them for every float64
_K_MIN, _K_MAX = -324, 292
#: cell bytes: a sign, 17 digits with a point and up to three zeros before them, and ``e±XXX`` in bytes 19-23
WIDTH = 24


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """Per ``(biased exponent, narrow interval below a power of two)``: ``g1``, ``g0``, the shift ``h`` and ``k``.

    ``g = g1 2^63 + g0`` is ``floor(10^-k 2^-r) + 1`` with ``2^125 <= g < 2^126``,
    from Python ints.  Built on first use, not at import.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = (-k * 913_124_641_741 >> 38) - 125  # floor(log2(10^-k)) - 125
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)
        g.append((num >> r if r >= 0 else num << -r) // den + 1)
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & (2**63 - 1) for v in g], dtype=_U)
    bq = np.arange(2048, dtype=np.int64)
    q = np.where(bq > 0, bq - 1075, -1074)
    regular = q * 661_971_961_083 >> 41  # floor(log10(2^q))
    k = np.concatenate([regular, (q * 661_971_961_083 - 274_743_187_321) >> 41])  # then floor(log10(3/4 2^q))
    h = np.tile(q, 2) + (-k * 913_124_641_741 >> 38) + 2
    return g1[k - _K_MIN], g0[k - _K_MIN], h.astype(_U), k


def _high(a, b_lo, b_hi):
    """High 64 bits of the 128-bit products ``a b``, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _U(32)
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo) >> _U(32)
    mid += lh & _LOW32
    mid += hl & _LOW32
    mid >>= _U(32)
    mid += a_hi * b_hi
    mid += lh >> _U(32)
    mid += hl >> _U(32)
    return mid


def _round_odd(x1, y1, y0):
    """``g cp 2^-127`` rounded to odd.

    ``x1`` is the high word of ``g0 cp`` and ``(y1, y0)`` are the words of ``g1 cp``; like Schubfach, the low word
    of ``g0 cp`` is not read.
    """
    z = y0 >> _U(1)
    z += x1
    y1 = y1 + (z >> _U(63))
    z &= _LOW63
    z += _LOW63
    z >>= _U(63)
    z |= y1
    return z


def _nudged(words, a, shift, sign):
    """The 128-bit products ``(high, low)`` plus ``sign a 2^shift``, for ``a < 2^63`` and ``1 <= shift <= 63``."""
    high, low = words
    step = a << shift
    carry = a >> (_U(64) - shift)
    if sign > 0:
        out = low + step
        return high + carry + (out < low), out
    return high - carry - (low < step), low - step


def _shortest(bits):
    """Digits ``d`` and exponent ``k`` of the shortest closest decimal ``d 10^k`` of each positive finite float."""
    g1_of, g0_of, h_of, k_of = _powers()
    exponent = bits >> _U(52)
    fraction = bits & _U(2**52 - 1)
    c = np.where(exponent > _U(0), fraction | _U(2**52), fraction)
    # below a power of two the spacing halves, so the interval's lower end comes closer
    narrow = (fraction == _U(0)) & (exponent > _U(1))
    row = (exponent + narrow * _U(2048)).astype(np.intp)
    g1, g0, h = g1_of.take(row), g0_of.take(row), h_of.take(row)
    # v is cp g 2^-127 rounded to odd for cp = 4 c 2^h; the interval's ends add 2^(h+1) to cp and take
    # 2^(h+1), or 2^h below a power of two, from it, so their products follow from cp's
    cp = c << (h + _U(2))
    cp_lo, cp_hi = cp & _LOW32, cp >> _U(32)
    g0cp, g1cp = (_high(g0, cp_lo, cp_hi), g0 * cp), (_high(g1, cp_lo, cp_hi), g1 * cp)
    v = _round_odd(g0cp[0], *g1cp)
    odd = c & _U(1)
    up, down = h + _U(1), h + _U(1) - narrow
    upper = _round_odd(_nudged(g0cp, g0, up, 1)[0], *_nudged(g1cp, g1, up, 1)) - odd
    lower = _round_odd(_nudged(g0cp, g0, down, -1)[0], *_nudged(g1cp, g1, down, -1)) + odd
    s = v >> _U(2)
    # one digit shorter: at most one multiple of ten lies in the interval
    tens = s // _U(10) * _U(10)
    down_in = lower <= tens << _U(2)
    up_in = (tens + _U(10)) << _U(2) <= upper
    shorter = (s >= _U(10)) & (down_in != up_in)
    # else s or s + 1, whichever lies in the interval; if both, the closer, and the even one on a tie
    s_in = lower <= s << _U(2)
    t_in = (s + _U(1)) << _U(2) <= upper
    twice_mid = ((s << _U(1)) + _U(1)) << _U(1)
    closer_s = (v < twice_mid) | ((v == twice_mid) & ((s & _U(1)) == _U(0)))
    full = s + np.where(s_in != t_in, t_in, ~closer_s)
    return np.where(shorter, tens + up_in * _U(10), full), k_of.take(row)


_POW10 = np.array([10**i for i in range(18)], dtype=_U)
_DOTS = _U(0x2E2E_2E2E_2E2E_2E2E)
#: column ``p``: the first ``p`` bytes of a cell set, as its three little-endian words
_FIRST = np.array([[(1 << 8 * min(max(p - 8 * w, 0), 8)) - 1 for p in range(26)] for w in range(3)], dtype=_U)
#: cells of 0.0, -0.0, inf, -inf and nan, which have no shortest digits
_SPECIAL = np.frombuffer(b"".join(repr(v).encode().ljust(WIDTH, b"\0") for v in (0.0, -0.0, np.inf, -np.inf, np.nan)),
                         dtype="<u8").reshape(5, 3)
#: decimal point positions (the value is ``0.ddd 10^point``) from 5e-324 to 1.8e308
_POINT_MIN, _POINT_MAX = -324, 309


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _suffix(e: int) -> bytes:
    """``e±XX``, with a NUL for a third digit that ``abs(e) < 100`` lacks."""
    return b"e" + (b"-" if e < 0 else b"+") + (b"%d" % abs(e) if abs(e) >= 100 else b"\0%02d" % abs(e))


@functools.cache
def _layouts() -> tuple[np.ndarray, ...]:
    """repr's layout per decimal point position and count of significant digits, built on first use.

    For row ``point - _POINT_MIN``, column ``digits``: the digits before the
    point (24: no point) and the text bytes kept; per row, the bits that the
    sign and a small number's ``"0."`` and zeros take before the digits, those
    leading bytes, and the ``e±XX`` suffix in bytes 19-23.
    """
    point = np.arange(_POINT_MIN, _POINT_MAX + 1)
    exponential = (point < -3) | (point > 16)
    small = ~exponential & (point <= 0)
    p, kept = point[:, None], np.arange(18)
    dot = np.where(exponential[:, None], np.where(kept > 1, 1, 24), np.where(small[:, None], 24, p))
    keep = np.where(exponential[:, None], kept + (kept > 1),
                    np.where(small[:, None], kept, np.maximum(kept, p + 1) + 1))
    lead = np.where(small, 3 - point, 1)
    leading = np.array([_word(b"0." + b"0" * -q) << 8 if -3 <= q <= 0 else 0 for q in point.tolist()], dtype=_U)
    suffix = np.array([_word(_suffix(q - 1)) << 24 for q in point.tolist()], dtype=_U)
    return dot.astype(np.uint8), keep.astype(np.uint8), (8 * lead).astype(_U), leading * small, suffix * exponential


def _ascii8(x):
    """Eight ASCII digits of each ``x < 10^8`` in one word, the first digit in the lowest byte."""
    hi = x // _U(10_000)
    x = hi | ((x - hi * _U(10_000)) << _U(32))  # two four-digit lanes
    hi = ((x * _U(10_486)) >> _U(20)) & _U(0x7F_0000_007F)  # / 100 in each lane
    x = hi | ((x - hi * _U(100)) << _U(16))  # four two-digit lanes
    hi = ((x * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # / 10 in each lane
    return hi | ((x - hi * _U(10)) << _U(8)) | _ASCII_ZEROS


def cells(values: np.ndarray) -> np.ndarray:
    """A ``(len(values), WIDTH)`` uint8 matrix whose row ``i``, NULs deleted, is ``repr(float(values[i]))``."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = values.view(_U)
    digits, k = _shortest(bits & _LOW63)
    # a normal float has 16 or 17 digits, a subnormal one from 1 to 16
    length = np.where(digits < _POW10[16], 16, 17)
    tiny = np.flatnonzero(digits < _POW10[15])
    if tiny.size:
        length[tiny] = np.searchsorted(_POW10, digits[tiny], side="right")
    digits *= _POW10[17 - length]  # 17 digits, the first nonzero
    row = k + length - _POINT_MIN  # the value is 0.ddd 10^point

    # the 17 digits as ASCII in three words, the first digit in the lowest byte
    high = digits // _U(10**8)
    low = _ascii8(digits - high * _U(10**8))
    lead = high // _U(10**8)
    mid = _ascii8(high - lead * _U(10**8))
    text = np.stack([lead | _U(0x30) | (mid << _U(8)), (mid >> _U(56)) | (low << _U(8)), low >> _U(56)])
    # significant digits: up to the last byte that is not "0", found from the exponent of each word's
    # digit values as a float (a byte holds at most 9, so no rounding reaches the next byte)
    top = text ^ _ASCII_ZEROS
    top[2] &= _U(0xFF)  # the third word holds one digit
    top = top.astype(np.float64).view(np.int64) >> 52
    top -= 1023
    top >>= 3
    top += np.array([[1], [9], [17]])
    kept = top.max(axis=0)

    # the point after `dot` digits, then the first `keep` bytes, shifted past the sign and leading zeros
    dot_of, keep_of, shift_of, leading_of, suffix_of = _layouts()
    layout = row * 18 + kept
    dot = dot_of.take(layout, mode="clip")
    later = text << _U(8)
    later[1:] |= text[:-1] >> _U(56)
    before, through = np.take(_FIRST, dot, axis=1), np.take(_FIRST, dot + 1, axis=1)
    text &= before
    before ^= through
    before &= _DOTS
    text |= before
    np.invert(through, out=through)
    later &= through
    text |= later
    text &= np.take(_FIRST, keep_of.take(layout, mode="clip"), axis=1)
    shift = shift_of.take(row, mode="clip")
    cell = np.empty((len(values), 3), dtype=_U).T  # word by word here, cell by cell in the result
    np.left_shift(text, shift, out=cell)
    cell[1:] |= text[:-1] >> (_U(64) - shift)
    cell[0] |= leading_of.take(row, mode="clip")
    cell[0] |= (bits >> _U(63)) * _U(ord("-"))
    cell[2] |= suffix_of.take(row, mode="clip")

    cell = cell.T
    special = np.flatnonzero((values == 0.0) | ~np.isfinite(values))
    if special.size:
        v = values[special]
        cell[special] = _SPECIAL[np.where(np.isnan(v), 4, np.where(v == 0.0, 0, 2) + np.signbit(v))]
    return cell.astype("<u8", copy=False).view(np.uint8)
