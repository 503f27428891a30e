"""The block ``%.17g`` kernel against CPython's ``%``, text for text."""

from fractions import Fraction

import numpy as np
import pytest

from ergokit._g17 import BLOCK, g17_texts


def reference(values) -> list:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def texts(values) -> list:
    (out,) = g17_texts([np.asarray(values, dtype=float)])
    return out


def assert_matches(values):
    values = np.asarray(values, dtype=float)
    got, want = texts(values), reference(values)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert bad == []


def scaled(x: float) -> Fraction:
    """x * 10**(16 - E), E = floor(log10 x), exactly: D is its rounding."""
    E = len(str(int(x))) - 1
    return Fraction(x) * Fraction(10) ** (16 - E)


def test_random_bit_patterns_over_every_binade():
    # every biased exponent, both signs: zeros, subnormals, the fast range,
    # large values, inf and nan
    rng = np.random.default_rng(20)
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 40)
    mantissa = rng.integers(0, 2 ** 52, exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, exponent.size, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    assert_matches(bits.view(np.float64))


def test_random_values_in_the_fast_range():
    rng = np.random.default_rng(21)
    assert_matches(rng.uniform(1.0, 200.0, 50_000))
    assert_matches(np.exp(rng.uniform(0.0, np.log(2.0 ** 40), 50_000)))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([10.0 ** k for k in range(17)])
    below = np.nextafter(powers, 0.0)
    assert_matches(np.concatenate([powers, below, np.nextafter(below, 0.0),
                                   np.nextafter(powers, np.inf)]))


def test_no_value_rounds_up_to_ten_to_the_seventeen():
    # the closest candidates, the largest double below each power of ten
    # in the fast range, stay at least 11 below 10**17 once scaled, so D
    # keeps 17 digits and E never carries
    below = [np.nextafter(10.0 ** k, 0.0) for k in range(1, 13)]
    assert all(scaled(x) <= 10 ** 17 - 11 for x in below)
    assert texts(below) == reference(below)
    assert texts(below)[0] == "9.9999999999999982"


def test_exact_halfway_cases_round_half_to_even():
    # x * 10**(16 - E) = D + 1/2 exactly when x = r / 2**(17 - E) with r odd
    rng = np.random.default_rng(22)
    ties = []
    for E in range(13):
        lo = 10 ** E * 2 ** (17 - E) // 2
        odd = 2 * rng.integers(lo, 10 * lo, 40, dtype=np.int64) + 1
        ties += (odd / 2.0 ** (17 - E)).tolist()
    assert all(scaled(x).denominator == 2 for x in ties)
    # both directions occur: ties whose lower neighbour is even and odd
    assert {int(scaled(x)) % 2 for x in ties} == {0, 1}
    assert_matches(ties)


def test_dyadic_and_short_values_drop_their_trailing_zeros():
    rng = np.random.default_rng(23)
    k = rng.integers(1, 2 ** 40, 20_000)
    shift = rng.integers(0, 60, 20_000)
    assert_matches(k / 2.0 ** shift)
    assert texts([1.0, 2.5, 10.0, 100.0, 123.25, 2.0 ** 39]) == \
        ["1", "2.5", "10", "100", "123.25", "549755813888"]


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 0.5,
    np.nextafter(1.0, 0.0), -1.5, -1.2345678901234567e-308,
    2.0 ** 40, np.nextafter(2.0 ** 40, np.inf), 1e13, 1e16, 1e17, 1e22, 1e308,
    np.nan, np.inf, -np.inf,
])
def test_every_fallback_value(value):
    assert texts([1.5, value, 3.0]) == reference([1.5, value, 3.0])


def test_the_edges_of_the_fast_range():
    assert_matches([1.0, np.nextafter(1.0, np.inf), np.nextafter(2.0 ** 40, 0.0)])


def test_each_array_gets_its_own_list_across_blocks():
    rng = np.random.default_rng(24)
    sizes = [0, 1, BLOCK - 1, 1, BLOCK, 0, 3 * BLOCK + 5, 200, 200, 0]
    arrays = [rng.uniform(0.0, 300.0, n) for n in sizes]
    copies = [a.copy() for a in arrays]
    assert list(g17_texts(arrays)) == [reference(a) for a in arrays]
    assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))  # inputs untouched


def test_a_fallback_row_leaves_nothing_in_the_next_block():
    first = np.full(BLOCK, -1.2345678901234567e-308)  # the longest %.17g text
    second = np.full(BLOCK, 3.25)
    assert list(g17_texts([first, second])) == [reference(first), reference(second)]


def test_no_arrays_give_no_lists():
    assert list(g17_texts([])) == []
    assert list(g17_texts([np.empty(0)])) == [[]]
