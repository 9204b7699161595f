"""The vectorized shortest-repr kernel against ``float.__repr__``, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundarynoise import _floatrepr


def kernel_texts(values) -> list[str]:
    """The kernel's cells with their NULs deleted, one string per value."""
    values = np.asarray(values, dtype=np.float64)
    cells = _floatrepr.cells(values)
    assert cells.shape == (len(values), _floatrepr.WIDTH) and cells.dtype == np.uint8
    rows = np.concatenate([cells, np.full((len(values), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [repr(v) for v in values.tolist()]
    got = kernel_texts(values)
    if got != expected:
        bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        pytest.fail(f"{len(bad)} of {len(values)} cells differ from repr, e.g. (value, kernel, repr) {bad[:5]}")


def around(values) -> np.ndarray:
    """Each value and both its float neighbours."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_reprs(values[np.isfinite(values)])


def test_subnormals():
    # every significand below 10^5, both signs; a Java port scaling tiny significands misprints 5e-323 .. 1e-322
    tiny = np.arange(1, 10**5, dtype=np.uint64).view(np.float64)
    assert_reprs(np.concatenate([tiny, -tiny]))


def test_powers_of_two_and_neighbours():
    # below a power of two the spacing halves: the interval's lower end is closer than the upper
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = around(powers)
    assert_reprs(np.concatenate([values[np.isfinite(values)], -powers]))


def test_powers_of_ten_and_neighbours():
    assert_reprs(around([float(f"1e{k}") for k in range(-323, 309)]))


def test_integers_around_2_53():
    ints = np.arange(2**53 - 2**12, 2**53 + 2**12, dtype=np.int64).astype(np.float64)
    assert_reprs(np.concatenate([ints, -ints, np.arange(-(2**17), 2**17, dtype=np.float64)]))


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e15, 1e16, 1e-100, 1e-99, 1e99, 1e100, 1e308])
def test_layout_edges(edge):
    # repr writes d.ddde-05 below 1e-4, 0.000ddd from 1e-4 on, ddd.0 below 1e16 and d.ddde+16 from 1e16 on
    values = around(np.array([edge, 1.5 * edge, 0.999 * edge, 9.875 * edge]))
    values = np.concatenate([values, -values])
    assert_reprs(values[np.isfinite(values)])


def test_signed_zero_and_nonfinite():
    assert kernel_texts([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]) == [
        "0.0", "-0.0", "inf", "-inf", "nan", "nan"]


def test_empty_and_strided():
    assert _floatrepr.cells(np.array([])).shape == (0, _floatrepr.WIDTH)
    values = np.arange(12.0).reshape(3, 4)[:, ::2] / 7
    assert kernel_texts(values.ravel()) == [repr(v) for v in values.ravel().tolist()]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_hypothesis_floats(values):
    assert kernel_texts(values) == [repr(v) for v in values]
