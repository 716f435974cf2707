"""Boros-Moll coefficient rows: four independent exact generators, three evaluators.

The degree-m Boros-Moll polynomial P_m(a) = sum_i d_i(m) a^i has strictly
positive coefficients with 4^m * d_i(m) an integer, so a row is the integer
vector e_i = 4^m * d_i(m): ``CoeffRow(m, scaled, method)``.  The canonical
dyadic rationals d_i(m) (``CoeffRow.coeffs``) are a view built from it on
first access, for printing and JSON.  The generation routes are

  closed form   4^m d_i(m) = sum_{k=i..m} w_k C(k, i),
                w_k = 2^k C(2m-2k, m-k) C(m+k, k)
  recu1         d_i(m+1) from d_{i-1}(m), d_i(m)
  recu2         d_i(m+1) from d_i(m), d_{i+1}(m)   (top entry from the
                boundary identity d_n(n) = 2^-n C(2n, n))
  recu3         d_i(m+2) from d_i(m+1), d_i(m)     (two-step; same boundary)

plus the four-term contiguous relation recu4, which must vanish identically
on every valid row and therefore doubles as a corruption detector.

The closed form's row, sum_i e_i x^i = sum_k w_k (x+1)^k, is built without
its weights: P_m is a Jacobi polynomial, and its differential equation read on
x^i gives each entry from the two above it, down from e_m = w_m.  No route
keeps a binomial table: the closed form and the top entries of recu2 and recu3
take one ``math.comb`` per row, and the double sum builds its binomials by term
ratios.  Every recurrence step works on the integer vectors directly and is one
exact integer division, which is asserted exact.  Out-of-range entries follow
the convention d_{-1}(m) = d_{m+1}(m) = 0.

P_m can also be evaluated exactly at any rational point by three routes that
must agree: the defining (j,k) double sum, the terminating 2F1-style series
(m+1 terms, built by incremental term ratios), and Horner evaluation of a
generated row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .exactnum import Dyadic, as_fraction, decimal_string

__all__ = [
    "Method",
    "CoeffRow",
    "closed_form_row",
    "recu1_row",
    "recu2_row",
    "recu3_row",
    "recu4_residual",
    "rows",
    "double_sum_eval",
    "hypergeometric_eval",
    "eval_poly",
    "row_to_json",
    "row_csv_lines",
]


class Method(str, Enum):
    """Provenance tag for a generated row: one member per generation route,
    each of which :func:`rows` runs."""

    CLOSED_FORM = "closed-form"
    RECU1 = "recu1"
    RECU2 = "recu2"
    RECU3 = "recu3"


@dataclass(frozen=True)
class CoeffRow:
    """The row {d_i(m)} for one m, as the integer vector 4^m * d_i(m).

    ``scaled`` holds the integers e_i = 4^m * d_i(m), the form every
    generator and check works on; the constructor takes that vector and
    checks its length and that every entry is positive.  ``coeffs`` is the
    same row as canonical dyadics, built on first access, for printing.
    """

    m: int
    scaled: tuple[int, ...]
    method: Method

    def __post_init__(self) -> None:
        m, scaled = self.m, tuple(self.scaled)
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        if len(scaled) != m + 1:
            raise ValueError(f"row for m={m} needs {m + 1} entries, got {len(scaled)}")
        for i, e in enumerate(scaled):
            if e <= 0:
                raise ValueError(f"d_{i}({m}) = {e}/4^{m} is not positive")
        object.__setattr__(self, "scaled", scaled)

    @cached_property
    def coeffs(self) -> tuple[Dyadic, ...]:
        return tuple(Dyadic(e, 2 * self.m) for e in self.scaled)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        # str(num) raises past 4,300 digits, so the message names only den
        raise ArithmeticError(f"inexact division by {den}")
    return q


def closed_form_row(m: int) -> CoeffRow:
    """Generate {d_i(m)} from the single-sum closed form, by the Jacobi equation.

    P_m is the Jacobi polynomial P_m^(a,b) with a = m + 1/2 and b = -a, so
    (1-x^2) P'' - (2m+1+2x) P' + m(m+1) P = 0.  In u = x + 1 that equation
    holds for sum_k w_k u^k if and only if
    (k+1)(2m-2k-1) w_{k+1} = (m-k)(m+k+1) w_k, the term ratio of the weights
    w_k = 2^k C(2m-2k, m-k) C(m+k, k), so the closed form solves it.  Read on
    x^i, the equation is
    (m-i)(m+i+1) e_i = (2m+1)(i+1) e_{i+1} - (i+1)(i+2) e_{i+2},
    whose solution of degree m is fixed by its top entry: each e_i is one
    exact division, down from e_m = w_m = 2^m C(2m, m) with e_{m+1} = 0.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    e = [0] * (m + 2)
    e[m] = math.comb(2 * m, m) << m
    for i in range(m - 1, -1, -1):
        e[i] = _exact_div(
            (2 * m + 1) * (i + 1) * e[i + 1] - (i + 1) * (i + 2) * e[i + 2],
            (m - i) * (m + i + 1),
        )
    return CoeffRow(m, e[: m + 1], Method.CLOSED_FORM)


def recu1_row(prev: CoeffRow) -> CoeffRow:
    """Row m+1 from row m via the two-term same-level recurrence."""
    m, e = prev.m, prev.scaled
    scaled = [
        _exact_div(
            4 * (m + i) * below + 2 * (4 * m + 2 * i + 3) * here,
            m + 1,
        )
        for i, (below, here) in enumerate(zip((0,) + e, e + (0,)))
    ]
    return CoeffRow(m + 1, scaled, Method.RECU1)


def recu2_row(prev: CoeffRow) -> CoeffRow:
    """Row m+1 from row m via the downward recurrence.

    This route only reaches 0 <= i <= m (its denominator vanishes at
    i = m+1); the top entry is filled from d_n(n) = 2^-n C(2n, n).
    """
    m, e = prev.m, prev.scaled
    scaled = [
        _exact_div(
            2 * (4 * m - 2 * i + 3) * (m + i + 1) * here - 4 * i * (i + 1) * above,
            (m + 1) * (m + 1 - i),
        )
        for i, (here, above) in enumerate(zip(e, e[1:] + (0,)))
    ]
    scaled.append(math.comb(2 * m + 2, m + 1) << (m + 1))
    return CoeffRow(m + 1, scaled, Method.RECU2)


def recu3_row(prev2: CoeffRow, prev1: CoeffRow) -> CoeffRow:
    """Row m+2 from rows m and m+1 via the two-step recurrence.

    Reaches 0 <= i <= m+1; the top entry is filled from the same boundary
    identity as recu2.
    """
    m = prev2.m
    if prev1.m != m + 1:
        raise ValueError(f"need consecutive rows, got m={m} and m={prev1.m}")
    scaled = [
        _exact_div(
            2 * (-4 * i * i + 8 * m * m + 24 * m + 19) * (m + 1) * e1
            - 4 * (m + i + 1) * (4 * m + 3) * (4 * m + 5) * e0,
            (m + 2 - i) * (m + 1) * (m + 2),
        )
        for i, (e1, e0) in enumerate(zip(prev1.scaled, prev2.scaled + (0,)))
    ]
    scaled.append(math.comb(2 * m + 4, m + 2) << (m + 2))
    return CoeffRow(m + 2, scaled, Method.RECU3)


def recu4_residual(row: CoeffRow, i: int) -> Dyadic:
    """Left side of the four-term contiguous relation at index i.

    Exactly zero on every valid row for 0 <= i <= m+1; a nonzero value
    pinpoints a corrupted entry.
    """
    m = row.m
    if not 0 <= i <= m + 1:
        raise ValueError(f"residual index {i} outside 0..{m + 1}")
    # d_{i-2}, d_{i-1}, d_i, with the zero entries outside 0..m
    two_below, below, here = ((0, 0) + row.scaled + (0,))[i : i + 3]
    scaled = (
        (m + 2 - i) * (m + i - 1) * two_below
        - (i - 1) * (2 * m + 1) * below
        + i * (i - 1) * here
    )
    return Dyadic(scaled, 2 * m)


def rows(method: Method | str, m_max: int) -> list[CoeffRow]:
    """All rows for 0 <= m <= m_max by one generation route.

    The recurrence routes are seeded from the closed form where the route
    itself cannot start (m=0, and additionally m=1 for the two-step route).
    The top entries of recu2 and recu3 take one ``math.comb`` per row.
    """
    method = Method(method)
    if method is Method.CLOSED_FORM:
        return [closed_form_row(m) for m in range(m_max + 1)]
    out = [closed_form_row(0)]
    if method is Method.RECU1:
        for _ in range(m_max):
            out.append(recu1_row(out[-1]))
    elif method is Method.RECU2:
        for _ in range(m_max):
            out.append(recu2_row(out[-1]))
    else:  # Method.RECU3
        if m_max >= 1:
            out.append(closed_form_row(1))
        while len(out) <= m_max:
            out.append(recu3_row(out[-2], out[-1]))
    return out[: m_max + 1]


# -- exact evaluation of P_m at rational points ------------------------------


def double_sum_eval(m: int, a: Fraction | Dyadic | int) -> Fraction:
    """P_m(a) by the defining double sum over (j, k), exactly.

    The binomials C(2m+1, 2j), C(m-j, k) and C(2s, s) come from exact term ratios.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    central = [1]  # C(2s, s) for 0 <= s <= m
    for s in range(m):
        central.append(central[s] * 2 * (2 * s + 1) // (s + 1))
    af = as_fraction(a)
    up, down = af + 1, af - 1
    total = Fraction(0)
    n = 2 * m + 1
    cj = 1  # C(2m+1, 2j)
    for j in range(m + 1):
        ck = 1  # C(m-j, k)
        for k in range(m - j + 1):
            w = cj * ck * central[k + j]
            total += w * up**j * down**k / Fraction(1 << (3 * (k + j)))
            ck = ck * (m - j - k) // (k + 1)
        cj = cj * (n - 2 * j) * (n - 2 * j - 1) // ((2 * j + 1) * (2 * j + 2))
    return total


def hypergeometric_eval(m: int, a: Fraction | Dyadic | int) -> Fraction:
    """P_m(a) as a terminating hypergeometric-style series, exactly.

    The m+1 terms are accumulated by incremental term ratios; the half-odd
    lower parameter makes every ratio denominator a nonzero odd integer, so
    the series is exact in rational arithmetic for every rational a.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    z = (as_fraction(a) + 1) / 2
    term = Fraction(1)
    total = Fraction(1)
    for k in range(m):
        term *= Fraction(2 * (k - m) * (m + 1 + k), (2 * k - 2 * m + 1) * (k + 1)) * z
        total += term
    return Fraction(math.comb(2 * m, m), 1 << (2 * m)) * total


def _horner(scaled: tuple[int, ...], p: int, q: int) -> int:
    """sum_i e_i p^i q^(m-i) for the row e_0..e_m, by Horner's rule on integers.

    This is q^m 4^m P_m(p/q) for the row of P_m; q > 0, and p/q need not be
    in lowest terms.
    """
    acc = 0
    q_pow = 1
    for e in reversed(scaled):
        acc = acc * p + e * q_pow
        q_pow *= q
    return acc


def eval_poly(row: CoeffRow, a: Fraction | Dyadic | int) -> Fraction:
    """P_m(a) by Horner evaluation of a generated row, exactly.

    With a = p/q the sum runs on integers, in :func:`_horner`:
    q^m 4^m P_m(a) = sum_i e_i p^i q^(m-i), and only its quotient by
    q^m 4^m is a Fraction.
    """
    af = as_fraction(a)
    p, q = af.numerator, af.denominator
    return Fraction(_horner(row.scaled, p, q), q**row.m << (2 * row.m))


# -- serialization ------------------------------------------------------------


def row_to_json(row: CoeffRow) -> dict:
    return {
        "m": row.m,
        "method": row.method.value,
        "coeffs": [str(c) for c in row.coeffs],
    }


def row_csv_lines(row: CoeffRow) -> Iterable[str]:
    yield "m,i,dyadic,decimal"
    for i, c in enumerate(row.coeffs):
        yield f"{row.m},{i},{c},{decimal_string(c)}"
