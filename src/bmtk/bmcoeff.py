"""Boros-Moll coefficient rows: four independent exact generators, three evaluators.

The degree-m Boros-Moll polynomial P_m(a) = sum_i d_i(m) a^i has strictly
positive coefficients with 4^m * d_i(m) an integer, so a row carries the
integer vector e_i = 4^m * d_i(m) (``CoeffRow.scaled``); the canonical dyadic
rationals d_i(m) (``CoeffRow.coeffs``) are a view built from it on first
access.  The generation routes are

  closed form   4^m d_i(m) = sum_{k=i..m} w_k C(k, i),
                w_k = 2^k C(2m-2k, m-k) C(m+k, k)
  recu1         d_i(m+1) from d_{i-1}(m), d_i(m)
  recu2         d_i(m+1) from d_i(m), d_{i+1}(m)   (top entry from the
                boundary identity d_n(n) = 2^-n C(2n, n))
  recu3         d_i(m+2) from d_i(m+1), d_i(m)     (two-step; same boundary)

plus the four-term contiguous relation recu4, which must vanish identically
on every valid row and therefore doubles as a corruption detector.

The closed form is a Taylor shift: sum_i e_i x^i = sum_k w_k (x+1)^k, which
Horner's rule in (x+1) evaluates with bigint additions only.  The weights come
from one central binomial by exact term ratios.  No route keeps a binomial
table: the top entries of recu2 and recu3 take one ``math.comb`` per row, and
the double sum builds its binomials by term ratios.  Every recurrence step works
on the integer vectors directly and is one exact integer division, which is
asserted exact.  Out-of-range entries follow the convention
d_{-1}(m) = d_{m+1}(m) = 0.

P_m can also be evaluated exactly at any rational point by three routes that
must agree: the defining (j,k) double sum, the terminating 2F1-style series
(m+1 terms, built by incremental term ratios), and Horner evaluation of a
generated row.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .exactnum import Dyadic, decimal_string

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
    "row_from_json",
    "row_csv_lines",
]


class Method(str, Enum):
    """Provenance tag for a generated row."""

    CLOSED_FORM = "closed-form"
    RECU1 = "recu1"
    RECU2 = "recu2"
    RECU3 = "recu3"
    DOUBLE_SUM = "double-sum"


class CoeffRow:
    """The sequence {d_i(m)} for one m, immutable after generation.

    ``scaled`` is the integer vector 4^m * d_i(m), the form every generator
    and hot path works on; ``coeffs`` holds the same entries as canonical
    dyadics, built on first access.  ``CoeffRow(m, coeffs, method)`` builds a
    row from dyadics; :meth:`from_scaled` builds one from the integer vector.
    """

    __slots__ = ("m", "scaled", "method", "_coeffs")

    m: int
    scaled: tuple[int, ...]
    method: Method

    def __init__(self, m: int, coeffs: Sequence[Dyadic], method: Method) -> None:
        coeffs = tuple(coeffs)
        _check_length(m, coeffs)
        for i, c in enumerate(coeffs):
            if c.num <= 0:
                raise ValueError(f"d_{i}({m}) = {c} is not positive")
            if c.exp > 2 * m:
                raise ValueError(f"d_{i}({m}) = {c} is not an integer over 4^m")
        scaled = tuple(c.num << (2 * m - c.exp) for c in coeffs)
        self._init(m, scaled, method, coeffs)

    @classmethod
    def from_scaled(cls, m: int, scaled: Sequence[int], method: Method) -> "CoeffRow":
        """The row whose entries are ``scaled[i] / 4^m``."""
        scaled = tuple(scaled)
        _check_length(m, scaled)
        for i, e in enumerate(scaled):
            if e <= 0:
                raise ValueError(f"d_{i}({m}) = {e}/4^{m} is not positive")
        row = cls.__new__(cls)
        row._init(m, scaled, method, None)
        return row

    def _init(self, m, scaled, method, coeffs) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CoeffRow is immutable")

    @property
    def coeffs(self) -> tuple[Dyadic, ...]:
        if self._coeffs is None:
            two_m = 2 * self.m
            object.__setattr__(self, "_coeffs", tuple(Dyadic(e, two_m) for e in self.scaled))
        return self._coeffs

    def d(self, i: int) -> Dyadic:
        """d_i(m), with zero outside 0 <= i <= m."""
        if 0 <= i <= self.m:
            return self.coeffs[i]
        return Dyadic(0)

    def __len__(self) -> int:
        return self.m + 1

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffRow):
            return NotImplemented
        return (self.m, self.method, self.scaled) == (other.m, other.method, other.scaled)

    def __hash__(self) -> int:
        return hash((self.m, self.method, self.scaled))

    def __repr__(self) -> str:
        return f"CoeffRow(m={self.m}, coeffs={self.coeffs!r}, method={self.method!r})"


def _check_length(m: int, entries: tuple) -> None:
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if len(entries) != m + 1:
        raise ValueError(f"row for m={m} needs {m + 1} entries, got {len(entries)}")


def _exact_div(num: int, den: int, context: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{context}: {num} not divisible by {den}")
    return q


def closed_form_row(m: int) -> CoeffRow:
    """Generate {d_i(m)} from the single-sum closed form, as a Taylor shift.

    The weights w_k = 2^k C(2m-2k, m-k) C(m+k, k) of C(k, i) follow from
    C(2m, m) by the term ratio (m-k)(m+k+1) / (2(2m-2k-1)(k+1)), with the 2^k
    applied separately; Horner's rule p <- p*(x+1) + w_k then yields
    sum_k w_k (x+1)^k, whose coefficients are the e_i = 4^m d_i(m).
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    v = math.comb(2 * m, m)  # C(2m-2k, m-k) C(m+k, k) at k = 0
    weights = [v]
    for k in range(m):
        v = _exact_div(
            v * (m - k) * (m + k + 1),
            2 * (2 * m - 2 * k - 1) * (k + 1),
            f"closed form m={m} k={k + 1}",
        )
        weights.append(v << (k + 1))
    p = [weights[m]]
    for w in reversed(weights[:m]):
        # p*(x+1) + w: entry i becomes p_i + p_{i-1}, with p_{-1} = w
        p = list(map(add, p + [0], [w] + p))
    return CoeffRow.from_scaled(m, p, Method.CLOSED_FORM)


def recu1_row(prev: CoeffRow) -> CoeffRow:
    """Row m+1 from row m via the two-term same-level recurrence."""
    m = prev.m
    e = prev.scaled

    def at(i: int) -> int:
        return e[i] if 0 <= i <= m else 0

    scaled = [
        _exact_div(
            4 * (m + i) * at(i - 1) + 2 * (4 * m + 2 * i + 3) * at(i),
            m + 1,
            f"recu1 m={m} i={i}",
        )
        for i in range(m + 2)
    ]
    return CoeffRow.from_scaled(m + 1, scaled, Method.RECU1)


def recu2_row(prev: CoeffRow) -> CoeffRow:
    """Row m+1 from row m via the downward recurrence.

    This route only reaches 0 <= i <= m (its denominator vanishes at
    i = m+1); the top entry is filled from d_n(n) = 2^-n C(2n, n).
    """
    m = prev.m
    e = prev.scaled

    def at(i: int) -> int:
        return e[i] if 0 <= i <= m else 0

    scaled = [
        _exact_div(
            2 * (4 * m - 2 * i + 3) * (m + i + 1) * at(i) - 4 * i * (i + 1) * at(i + 1),
            (m + 1) * (m + 1 - i),
            f"recu2 m={m} i={i}",
        )
        for i in range(m + 1)
    ]
    scaled.append(math.comb(2 * m + 2, m + 1) << (m + 1))
    return CoeffRow.from_scaled(m + 1, scaled, Method.RECU2)


def recu3_row(prev2: CoeffRow, prev1: CoeffRow) -> CoeffRow:
    """Row m+2 from rows m and m+1 via the two-step recurrence.

    Reaches 0 <= i <= m+1; the top entry is filled from the same boundary
    identity as recu2.
    """
    m = prev2.m
    if prev1.m != m + 1:
        raise ValueError(f"need consecutive rows, got m={m} and m={prev1.m}")
    e0, e1 = prev2.scaled, prev1.scaled

    def at(e: tuple[int, ...], top: int, i: int) -> int:
        return e[i] if 0 <= i <= top else 0

    scaled = [
        _exact_div(
            2 * (-4 * i * i + 8 * m * m + 24 * m + 19) * (m + 1) * at(e1, m + 1, i)
            - 4 * (m + i + 1) * (4 * m + 3) * (4 * m + 5) * at(e0, m, i),
            (m + 2 - i) * (m + 1) * (m + 2),
            f"recu3 m={m} i={i}",
        )
        for i in range(m + 2)
    ]
    scaled.append(math.comb(2 * m + 4, m + 2) << (m + 2))
    return CoeffRow.from_scaled(m + 2, scaled, Method.RECU3)


def recu4_residual(row: CoeffRow, i: int) -> Dyadic:
    """Left side of the four-term contiguous relation at index i.

    Exactly zero on every valid row for 0 <= i <= m+1; a nonzero value
    pinpoints a corrupted entry.
    """
    m = row.m
    if not 0 <= i <= m + 1:
        raise ValueError(f"residual index {i} outside 0..{m + 1}")
    e = row.scaled

    def at(j: int) -> int:
        return e[j] if 0 <= j <= m else 0

    scaled = (
        (m + 2 - i) * (m + i - 1) * at(i - 2)
        - (i - 1) * (2 * m + 1) * at(i - 1)
        + i * (i - 1) * at(i)
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
    elif method is Method.RECU3:
        if m_max >= 1:
            out.append(closed_form_row(1))
        while len(out) <= m_max:
            out.append(recu3_row(out[-2], out[-1]))
    else:
        raise ValueError(f"no row generator for method {method.value}")
    return out[: m_max + 1]


# -- exact evaluation of P_m at rational points ------------------------------


def _as_fraction(a: Fraction | Dyadic | int) -> Fraction:
    if isinstance(a, Dyadic):
        return a.as_fraction()
    return Fraction(a)


def double_sum_eval(m: int, a: Fraction | Dyadic | int) -> Fraction:
    """P_m(a) by the defining double sum over (j, k), exactly.

    The binomials C(2m+1, 2j), C(m-j, k) and C(2s, s) come from exact term ratios.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    central = [1]  # C(2s, s) for 0 <= s <= m
    for s in range(m):
        central.append(central[s] * 2 * (2 * s + 1) // (s + 1))
    af = _as_fraction(a)
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
    z = (_as_fraction(a) + 1) / 2
    term = Fraction(1)
    total = Fraction(1)
    for k in range(m):
        term *= Fraction(2 * (k - m) * (m + 1 + k), (2 * k - 2 * m + 1) * (k + 1)) * z
        total += term
    return Fraction(math.comb(2 * m, m), 1 << (2 * m)) * total


def eval_poly(row: CoeffRow, a: Fraction | Dyadic | int) -> Fraction:
    """P_m(a) by Horner evaluation of a generated row, exactly.

    With a = p/q the sum runs on integers: q^m 4^m P_m(a) = sum_i e_i p^i q^(m-i).
    """
    af = _as_fraction(a)
    p, q = af.numerator, af.denominator
    acc = 0
    q_pow = 1
    for e in reversed(row.scaled):
        acc = acc * p + e * q_pow
        q_pow *= q
    return Fraction(acc, q**row.m << (2 * row.m))


# -- serialization ------------------------------------------------------------


def row_to_json(row: CoeffRow) -> dict:
    return {
        "m": row.m,
        "method": row.method.value,
        "coeffs": [str(c) for c in row.coeffs],
    }


def row_from_json(obj: dict) -> CoeffRow:
    return CoeffRow(
        int(obj["m"]),
        tuple(Dyadic.parse(s) for s in obj["coeffs"]),
        Method(obj["method"]),
    )


def row_csv_lines(row: CoeffRow, digits: int = 20) -> Iterable[str]:
    yield "m,i,dyadic,decimal"
    for i, c in enumerate(row.coeffs):
        yield f"{row.m},{i},{c},{decimal_string(c, digits)}"
