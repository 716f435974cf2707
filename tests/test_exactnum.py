"""Tests for the exact number foundations."""

import math
import random
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bmtk import Dyadic, decimal_string, exactnum
from bmtk.exactnum import BinomialCache, as_fraction, exact_str, parse_exact

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


_ORDERS = (
    ("<", lambda a, b: a < b),
    ("<=", lambda a, b: a <= b),
    (">", lambda a, b: a > b),
    (">=", lambda a, b: a >= b),
    ("==", lambda a, b: a == b),
    ("!=", lambda a, b: a != b),
)


@given(nums, exps, nums, exps | st.none())
@example(3, 1, 6, 2)  # equal values
@example(-1, 0, -1, None)  # equal to an int
def test_all_six_comparisons_agree_with_fraction(n1, e1, n2, e2):
    # e2 None puts the int n2 on the right, and on the left reflected
    a = Dyadic(n1, e1)
    b = n2 if e2 is None else Dyadic(n2, e2)
    fa, fb = as_fraction(a), as_fraction(b)
    for name, compare in _ORDERS:
        assert compare(a, b) == compare(fa, fb), name
        assert compare(b, a) == compare(fb, fa), name


@pytest.mark.parametrize("other", [0.5, "1/2"])
def test_ordering_against_a_float_or_str_is_a_type_error(other):
    half = Dyadic(1, 1)
    for name, compare in _ORDERS[:4]:
        with pytest.raises(TypeError):
            compare(half, other)
        with pytest.raises(TypeError):
            compare(other, half)
    assert (half == "1/2") is False and (half != "1/2") is True


def test_as_fraction_of_each_exact_type():
    cases = [(Dyadic(21, 3), Fraction(21, 8)), (Fraction(-2, 6), Fraction(-1, 3)), (7, 7)]
    for value, expected in cases:
        assert type(as_fraction(value)) is Fraction and as_fraction(value) == expected


def test_int_interop():
    assert 3 * Dyadic(1, 1) == Dyadic(3, 1)
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - Dyadic(1, 1) == Dyadic(1, 1)


def test_fraction_conversions():
    assert Dyadic(21, 3).as_fraction() == Fraction(21, 8)
    assert Dyadic(21, 3) == Fraction(21, 8)


@given(st.integers(), st.integers(min_value=0, max_value=300))
@example(0, 0)
@example(0, 300)
@example(12, 3)
@example(-(3 << 300), 300)
@example(-1, 300)
def test_as_fraction_is_the_reduced_fraction(num, exp):
    d, expected = Dyadic(num, exp), Fraction(num, 1 << exp)
    got = d.as_fraction()
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert hash(d) == hash(expected)
    assert d == expected and expected == d


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


# digit runs with single underscores between them, leading zeros included
_DIGIT_RUNS = st.lists(st.text("0123456789", min_size=1, max_size=30), min_size=1, max_size=4)


@st.composite
def _decimal_tokens(draw):
    """A decimal literal: optional sign, whole and fraction digits (one may be
    absent), an optional exponent, and whitespace around it."""
    fives = st.builds(lambda k, c: str(5**k * c), st.integers(0, 90), st.integers(1, 99))
    runs = _DIGIT_RUNS.map("_".join) | fives  # fives: many factors of 5 to divide out
    whole = draw(st.none() | runs)
    frac = draw(st.none() | st.just("") | runs)  # "" is a bare point
    if whole is None and not frac:
        frac = draw(runs)
    power = st.lists(st.text("0123456789", min_size=1, max_size=2), min_size=1, max_size=2)
    sign = st.sampled_from(["", "+", "-"])
    exponent = st.tuples(st.sampled_from("eE"), sign, power.map("_".join))
    space = st.text(" \t\n", max_size=2)
    return "".join([
        draw(space),
        draw(sign),
        whole or "",
        "" if frac is None else "." + frac,
        "".join(draw(st.none() | exponent) or ()),
        draw(space),
    ])


@example("0.0625")  # 1/16: every factor of 5 taken
@example("-0.000_390_625")  # 5^8 / 10^9
@example("95367431640625e-30")  # 5^20 / 10^30
@example("1220703125e-5")  # 5^13 / 10^5: more fives than the scale
@example(" +007.50E+002\n")
@example("-0.0e-3")
@example("1.e3")
@example(".5")
# trailing zeros, cut off before conversion
@example("1200e-2")
@example("-10.0e1")
@example("0.000")
@example("1_000.000_0")
@example("5.")
@given(_decimal_tokens())
def test_parse_exact_decimals_match_the_decimal_reference(text):
    value, expected = parse_exact(text), Fraction(Decimal(text))
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


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


def test_int_str_is_the_decimal_digits_at_any_size():
    # str() where the interpreter allows it, the decimal module past its limit
    for n in (0, 7, -7, 10**4299, 10**4300 - 1, 10**4300, -(10**4300) - 3, 10**5000 + 7):
        assert exactnum._int_str(n) == str(Decimal(n))


# Ints of 4,298 to 4,302 digits (the interpreter's str/int limit is 4,300),
# powers of ten and of two near the halving points of the divide and conquer,
# and random ints up to 700,000 bits.
EDGE_INTS = [
    sign * (10**k + offset)
    for k in (4298, 4299, 4300, 4301, 12_000)
    for offset in (-1, 0, 7)
    for sign in (1, -1)
] + [0, 10**65_536 - 1, -(10**65_536), 2**12_000, 2**12_001 - 1, 2**65_536, 2**131_072 - 1]
_RNG = random.Random(26)
RANDOM_INTS = [_RNG.getrandbits(b) | 1 << b - 1 for b in (14_000, 14_400, 24_001, 100_000, 700_000)]


@pytest.mark.parametrize(
    "n", EDGE_INTS + RANDOM_INTS + [-RANDOM_INTS[3]], ids=lambda n: f"{'-' * (n < 0)}{n.bit_length()}bits"
)
def test_int_str_and_parse_int_match_the_decimal_reference(n):
    # the reference converts through Decimal alone, in time quadratic in the
    # digits, and exactly, so n is also int(Decimal(text))
    text = str(Decimal(n))
    assert exactnum._int_str(n) == text
    assert exactnum._parse_int(text) == n


@pytest.mark.parametrize(
    "text",
    [
        "0" * 9000,
        "-" + "0" * 9000,
        "0" * 5000 + "123",
        "-" + "0" * 4500 + "9" * 4500,
        "+" + "0" * 3999 + "5" * 4001,
        "1_" * 5000 + "1",
        "-" + "12_345" * 2000,
        "9" * 4000,
        "9" * 4001,
        "-" + "9" * 4000,
    ],
    ids=lambda text: f"{text[:6]}...({len(text)} chars)",
)
def test_parse_int_of_signs_leading_zeros_and_underscores(text):
    assert exactnum._parse_int(text) == int(Decimal(text))


@pytest.mark.parametrize(
    "token",
    ["1e30000000", "1/2^10000000", "-1e-1000000", "1e200000", "10e199999", "1/2^664385"]
    + [
        "1e1_000_000",
        pytest.param("1e" + "9" * 5000, id="1e9...9 (5000 nines)"),
        pytest.param("1" * 200_001, id="1...1 (200001 ones)"),
        pytest.param("1/" + "3" * 200_000, id="1/3...3 (200000 threes)"),
    ],
)
def test_parse_exact_refuses_a_token_past_200000_digits(token):
    # refused before conversion: 1e30000000 alone would take seconds to convert
    with pytest.raises(ValueError, match="spells more than 200000 decimal digits"):
        parse_exact(token)


def test_parse_exact_accepts_a_token_at_200000_digits():
    assert parse_exact("1e199999") == 10**199999
    assert parse_exact("-1e-199999") == Fraction(-1, 10**199999)
    assert parse_exact("1/2^664382") == Fraction(1, 1 << 664382)
    assert parse_exact("1e-0000000000000000000000001") == Fraction(1, 10)
    # Fraction(Decimal(text)) takes 1.5 s on each of these
    sevens = 7 * (10**199_999 - 1) // 9
    assert parse_exact("7" * 199_999) == sevens
    assert parse_exact("7" * 199_998 + ".5") == Fraction(2 * (sevens // 10) + 1, 2)


def test_parse_exact_cuts_trailing_zeros_before_conversion():
    # each took about 0.2 s while the zeros were converted and divided out
    assert parse_exact("0.1" + "0" * 199_997) == Fraction(1, 10)
    assert parse_exact(exact_str(5**140_000) + "." + "0" * 100_000) == 5**140_000


@pytest.mark.parametrize("bad", ["3", "3/4", "3/2^", "1/2^-1", " 3/2^1", "3/2^1 ", "a/2^1"])
def test_parse_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        Dyadic.parse(bad)


def test_immutability():
    d = Dyadic(3, 1)
    with pytest.raises(AttributeError):
        d.num = 5


def test_binomial_matches_math_comb():
    cache = BinomialCache()
    for n in range(121):
        for k in range(n + 1):
            assert cache.binomial(n, k) == math.comb(n, k)
    assert cache.binomial(5, 7) == cache.binomial(5, -1) == 0
    with pytest.raises(ValueError):
        cache.binomial(-1, 0)


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
