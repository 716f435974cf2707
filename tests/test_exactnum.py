"""Tests for the exact number foundations."""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmtk import BinomialCache, Dyadic, binomial, decimal_string
from bmtk.exactnum import exact_str, parse_exact

nums = st.integers(min_value=-(10**12), max_value=10**12)
exps = st.integers(min_value=0, max_value=64)


def test_normalize_cancels_common_twos():
    d = Dyadic(12, 3)
    assert (d.num, d.exp) == (3, 1)
    assert str(d) == "3/2^1"


def test_normalize_zero():
    assert (Dyadic(0, 7).num, Dyadic(0, 7).exp) == (0, 0)


def test_normalize_keeps_canonical_input():
    d = Dyadic(6435, 7)
    assert (d.num, d.exp) == (6435, 7)


def test_negative_exponent_is_a_left_shift():
    assert Dyadic(3, -2) == Dyadic(12, 0) == 12


@given(nums, exps)
def test_normalize_idempotent(num, exp):
    d = Dyadic(num, exp)
    again = Dyadic(d.num, d.exp)
    assert (again.num, again.exp) == (d.num, d.exp)


def test_ordering_examples():
    assert Dyadic(3, 1) < Dyadic(21, 3)
    assert Dyadic(1, 0) == Dyadic(1, 0)
    # adjacent entries of the interleaved chain at m=8
    assert Dyadic(6435, 7) < Dyadic(4023459, 15)


@given(nums, exps, nums, exps)
def test_arithmetic_agrees_with_fraction_embedding(n1, e1, n2, e2):
    a, b = Dyadic(n1, e1), Dyadic(n2, e2)
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (a < b) == (fa < fb)
    assert (a == b) == (fa == fb)
    assert (a >= b) == (fa >= fb)


def test_int_interop():
    assert 3 * Dyadic(1, 1) == Dyadic(3, 1)
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - Dyadic(1, 1) == Dyadic(1, 1)


def test_fraction_conversions():
    assert Dyadic(21, 3).as_fraction() == Fraction(21, 8)
    assert Dyadic(21, 3) == Fraction(21, 8)


@given(nums, exps)
def test_parse_round_trip(num, exp):
    d = Dyadic(num, exp)
    assert Dyadic.parse(str(d)) == d


def test_parse_round_trip_past_the_digit_limit():
    # int() and str() of an int refuse more than 4,300 digits by default
    d = Dyadic(10**5000 + 1, 1)
    text = str(d)
    assert len(text) > 5000
    assert Dyadic.parse(text) == d
    assert Dyadic.parse("-" + text) == -d


@pytest.mark.parametrize(
    "text",
    ["3", "-3", "1/3", "+2/4", " 5 ", "1.5", "-.5", "5.", "1e3", "-1.5E-3", "1_000", "2_1/3"],
)
def test_parse_exact_agrees_with_fraction(text):
    # Fraction reads underscores from Python 3.11 on
    assert parse_exact(text) == Fraction(text.replace("_", ""))


@pytest.mark.parametrize(
    "bad", ["x", "", "inf", "nan", "1/0", "3/-4", "1 /2", "1.5/2", "3/4/5", "_1", "1__0", ".", "1e"]
)
def test_parse_exact_rejects_what_fraction_rejects(bad):
    with pytest.raises(ValueError):
        parse_exact(bad)


def test_parse_exact_and_exact_str_past_the_digit_limit():
    big = 10**5000 + 7
    assert parse_exact("21/2^3") == Fraction(21, 8)
    assert parse_exact(str(Dyadic(big, 3))) == Fraction(big, 8)
    assert parse_exact(exact_str(Fraction(big, 3))) == Fraction(big, 3)
    assert parse_exact(exact_str(-big)) == -big
    assert parse_exact(exact_str(big) + ".5") == Fraction(2 * big + 1, 2)
    assert exact_str(Fraction(big, 1)) == exact_str(big)
    assert exact_str(Fraction(-3, 4)) == "-3/4" and exact_str(7) == "7"
    assert exact_str(Dyadic(3, 1)) == "3/2^1"


@pytest.mark.parametrize("bad", ["3", "3/4", "3/2^", "1/2^-1", " 3/2^1", "3/2^1 ", "a/2^1"])
def test_parse_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        Dyadic.parse(bad)


def test_immutability():
    d = Dyadic(3, 1)
    with pytest.raises(AttributeError):
        d.num = 5


def test_binomial_known_values():
    assert binomial(16, 8) == 12870
    assert binomial(4, 2) == 6
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_binomial_negative_n_raises():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_math_comb():
    cache = BinomialCache()
    for n in range(121):
        for k in range(n + 1):
            assert cache.binomial(n, k) == math.comb(n, k)


def test_binomial_pascal_recurrence_spot():
    cache = BinomialCache(rows=40)
    for n in range(2, 40):
        for k in (1, n // 2, n - 1):
            assert cache.binomial(n, k) == cache.binomial(n - 1, k - 1) + cache.binomial(n - 1, k)


def test_cache_concurrent_growth():
    cache = BinomialCache()
    errors = []

    def work(n):
        try:
            for j in range(n, n + 50):
                assert cache.binomial(j, j // 2) == math.comb(j, j // 2)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(start,)) for start in (10, 120, 240, 360)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_decimal_string():
    assert decimal_string(Dyadic(6435, 7)) == "50.2734375"
    assert decimal_string(Fraction(1, 3)) == "0.33333333333333333333"
    assert decimal_string(7) == "7"
