"""Exact verification of the coefficient-row inequalities at concrete m.

Each check evaluates one family of inequalities (or boundary equalities) on
actual generated rows, exactly, and reports per-index records with exact
margins so tightness studies are reproducible.  Both sides of a comparison are
integer (numerator, denominator) pairs, and one integer difference
``diff = (lhs - rhs) * small * 2^shift`` decides it.  A comparison between row
entries (thm21, thm22 but for the central binomial, l32, l33's bound) forms
``diff`` straight from the rows' integer vectors 4^m d_i(m): both sides sit
over 4^m times a small cofactor, so ``small`` is that cofactor and ``shift``
is 2m or 2m+2.  Any other comparison puts both sides over the lcm of their
denominators and splits it into its odd part and its power of two.  The margin
is then written in lowest terms in two steps: shift out as many trailing zero
bits of ``diff`` as the denominator's power of two allows, then take one gcd
against ``small``; no gcd of two row-sized numbers is formed for an entry
comparison.  Records are slot objects that build the sides' Fractions only
when read, and the sides and thm21's minimum ratio are reduced as margins are:
the power of two is split out of the denominator, then one gcd against its odd
part.  The only decimal output is the informational minimum-ratio string;
decimals never feed a verdict.

l32, l33 and l34 evaluate polyident's builders one row at a time: B(m,i)'s
numerator and denominator and l33's numerator are built once as polynomials in
(m, i), and at each m collapsed to coefficients in i and evaluated at
0 <= i <= m by polyident's Horner rule.

Check ids (the CLI tokens):

  thm21  growth lower bound   d_i(m+1) >= (4m^2+7m+i+3)/(2(m+1-i)(m+1)) d_i(m),
         0 < i < m, with the minimum of the corresponding ratio reported
  thm22  strict version on 1 <= i <= m-1 plus the two boundary equalities
         (d_0 growth factor, top entry via the central binomial)
  l31    neighbor ratio bound (m-j)/(j+1) > d_{j+1}(m)/d_j(m), 1 <= j <= m-1
  l32    growth upper bound   d_i(m+1) <= B(m,i) d_i(m), 0 <= i <= m
  l33    predecessor bound    d_{j-1}(m) <= (2(m+1)B(m,j)-(4m+2j+3))/(2(m+j)) d_j(m),
         1 <= j <= m, with positivity of the bound's numerator
  l34    reflected ratio gap  2(2m-i)/(2(m+1)B(m,m-i)-(6m-2i+3))
                                > (2(m+1)B(m,i)-(4m+2i+3))/(2(m+i)), 0 <= i <= m/2
  sec4   endpoint ratios      d_1/d_0 < m < d_{m-1}/d_m, plus the closed form
         of the top ratio

Range endpoints are implemented exactly as stated (0 <= i <= m/2 means
i <= floor(m/2) for integer i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bmcoeff import CoeffRow, closed_form_row, recu1_row
from .exactnum import decimal_string, exact_str
from .polyident import MultiPoly, _horner, _y_coefficients, predecessor_ratio_numerator
from .polyident import ratio_bound_denominator, ratio_bound_numerator

__all__ = [
    "BoundRecord",
    "BoundReport",
    "BOUND_IDS",
    "growth_upper_bound",
    "check_growth_lower_bound",
    "check_strict_growth_bound",
    "check_successor_ratio_bound",
    "check_growth_upper_bound",
    "check_predecessor_bound",
    "check_reflected_ratio_gap",
    "check_endpoint_ratios",
    "run_checks",
]

BOUND_IDS = ("thm21", "thm22", "l31", "l32", "l33", "l34", "sec4")


Pair = tuple[int, int]  # (numerator, denominator), denominator > 0


def _coprime_fraction(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, built without a gcd.

    This is what 3.12's Fraction._from_coprime_ints does, on every version.
    Fraction(n, d, _normalize=False) (3.10 and 3.11 only) costs 1.4 us per
    call against 0.3 us here (CPython 3.11, Xeon VM).
    """
    obj = object.__new__(Fraction)
    obj._numerator, obj._denominator = n, d
    return obj


class BoundRecord:
    """One verified comparison: ``lhs relation rhs`` with its exact margin.

    Sides are integer pairs, reduced to Fractions on read; records compare
    and hash by value, and nothing mutates one.  The margin is oriented so
    that nonnegative (positive, for strict relations) means the comparison
    holds with that much room; equality records carry margin zero exactly
    when they hold.
    """

    __slots__ = ("i", "relation", "lhs_pair", "rhs_pair", "holds", "margin")

    def __init__(
        self, i: int, relation: str, lhs_pair: Pair, rhs_pair: Pair, holds: bool, margin: Fraction
    ) -> None:
        self.i = i
        self.relation = relation  # ">=", ">", "<=", "<", "=="
        self.lhs_pair = lhs_pair
        self.rhs_pair = rhs_pair
        self.holds = holds
        self.margin = margin

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"BoundRecord({fields})"

    @property
    def lhs(self) -> Fraction:
        return _reduced(*self.lhs_pair)

    @property
    def rhs(self) -> Fraction:
        return _reduced(*self.rhs_pair)

    def _key(self) -> tuple:
        return self.i, self.relation, self.holds, self.margin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundRecord):
            return NotImplemented
        (a, b), (c, d) = self.lhs_pair, other.lhs_pair
        (e, f), (g, h) = self.rhs_pair, other.rhs_pair
        return self._key() == other._key() and a * d == c * b and e * h == g * f

    def __hash__(self) -> int:
        # records equal by value have equal keys; no side needs reducing
        return hash(self._key())

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "relation": self.relation,
            "lhs": exact_str(self.lhs),
            "rhs": exact_str(self.rhs),
            "holds": self.holds,
            "margin": exact_str(self.margin),
        }


@dataclass
class BoundReport:
    bound_id: str
    m: int
    records: list[BoundRecord] = field(default_factory=list)
    min_ratio: Fraction | None = None

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)

    @property
    def min_ratio_decimal(self) -> str | None:
        if self.min_ratio is None:
            return None
        return decimal_string(self.min_ratio)

    def to_json(self) -> dict:
        return {
            "bound": self.bound_id,
            "m": self.m,
            "all_hold": self.all_hold,
            "min_ratio": None if self.min_ratio is None else exact_str(self.min_ratio),
            "min_ratio_decimal": self.min_ratio_decimal,
            "records": [r.to_json() for r in self.records],
        }


def _lowest_terms(n: int, small: int, shift: int) -> Fraction:
    """n / (small * 2^shift) in lowest terms, for small > 0 and shift >= 0.

    Once 2^min(trailing zeros of n, shift) is shifted out, either no power of
    two is left below or n is odd, so one gcd against small reduces the rest.
    """
    if not n:
        return _coprime_fraction(0, 1)
    t = min((n & -n).bit_length() - 1, shift)
    n >>= t
    g = math.gcd(n, small)
    if g > 1:
        n, small = n // g, small // g
    return _coprime_fraction(n, small << (shift - t))


def _reduced(n: int, d: int) -> Fraction:
    """n/d in lowest terms for d > 0, its denominator split into its odd part
    and power of two as a margin's is."""
    shift = (d & -d).bit_length() - 1
    return _lowest_terms(n, d >> shift, shift)


def _decide(
    i: int, relation: str, lhs: Pair, rhs: Pair, diff: int, small: int, shift: int
) -> BoundRecord:
    """Decide ``lhs relation rhs`` from diff = (lhs - rhs) * small * 2^shift."""
    if relation in (">=", ">"):
        margin = diff
    elif relation in ("<=", "<"):
        margin = -diff
    elif relation == "==":
        margin = -abs(diff)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    holds = margin > 0 if relation in (">", "<") else margin >= 0
    return BoundRecord(i, relation, lhs, rhs, holds, _lowest_terms(margin, small, shift))


def _record(i: int, relation: str, lhs: Pair, rhs: Pair) -> BoundRecord:
    """Decide ``lhs relation rhs`` for sides over any positive denominators."""
    (a, b), (c, d) = lhs, rhs
    # over the lcm b*d*g of the denominators, split into odd part and 2^shift
    g = math.gcd(b, d)
    b, d = b // g, d // g
    den = b * d * g
    shift = (den & -den).bit_length() - 1
    return _decide(i, relation, lhs, rhs, a * d - c * b, den >> shift, shift)


def _versus(
    i: int, relation: str, m: int, up: int, f: int, e: int, num: int, den: int
) -> BoundRecord:
    """Decide ``f/4^(m+up) relation (num/den) e/4^m`` for entries f and e."""
    shift = 2 * (m + up)
    rhs = num * e
    diff = f * den - (rhs << 2 * up)  # (lhs - rhs) * den * 4^(m+up)
    return _decide(i, relation, (f, 1 << shift), (rhs, den << 2 * m), diff, den, shift)


def _require_consecutive(row_m: CoeffRow, row_next: CoeffRow) -> None:
    if row_next.m != row_m.m + 1:
        raise ValueError(f"need rows m and m+1, got m={row_m.m} and m={row_next.m}")


def _new_report(bound_id: str, m: int, least: int) -> BoundReport:
    """An empty report for a check defined for m >= least."""
    if m < least:
        raise ValueError(f"requires m >= {least}, got m={m}")
    return BoundReport(bound_id, m)


def growth_upper_bound(m: int, i: int) -> Fraction:
    """The rational upper bound B(m,i) on d_i(m+1)/d_i(m)."""
    if not 0 <= i <= m:
        raise ValueError(f"bound defined for 0 <= i <= m, got i={i}, m={m}")
    return Fraction(ratio_bound_numerator(m, i), ratio_bound_denominator(m, i))


def _growth_lower_coefficient(m: int, i: int) -> Pair:
    """(4m^2+7m+i+3) / (2(m+1-i)(m+1)), the thm21 factor on d_i(m)."""
    return 4 * m * m + 7 * m + i + 3, 2 * (m + 1 - i) * (m + 1)


def check_growth_lower_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """thm21 on 0 < i < m; also reports the minimum of the tightness ratio."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    report = _new_report("thm21", m, 1)
    e, f = row_m.scaled, row_next.scaled
    low = None  # the least bound/d_i(m+1) so far, as a pair
    for i in range(1, m):
        num, den = _growth_lower_coefficient(m, i)
        record = _versus(i, ">=", m, 1, f[i], e[i], num, den)
        report.records.append(record)
        ratio = record.rhs_pair[0] << 2, den * f[i]  # 4^m cancels
        if low is None or ratio[0] * low[1] < low[0] * ratio[1]:
            low = ratio
    if low is not None:
        report.min_ratio = _reduced(*low)
    return report


def check_strict_growth_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """thm22: strict interior bound plus both boundary equalities."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    report = _new_report("thm22", m, 2)
    e, f = row_m.scaled, row_next.scaled
    for i in range(1, m):
        report.records.append(_versus(i, ">", m, 1, f[i], e[i], *_growth_lower_coefficient(m, i)))
    # boundary equalities
    top_step = (2 * m + 3) * (2 * m + 1), 2 * (m + 1)
    report.records += [
        _versus(0, "==", m, 1, f[0], e[0], 4 * m + 3, 2 * (m + 1)),
        _versus(m, "==", m, 1, f[m], e[m], *top_step),
        _record(m, "==", (e[m], 1 << 2 * m), (math.comb(2 * m, m), 1 << m)),
    ]
    return report


def check_successor_ratio_bound(row: CoeffRow) -> BoundReport:
    """l31: (m-j)/(j+1) > d_{j+1}(m)/d_j(m) for 1 <= j <= m-1."""
    m = row.m
    report = _new_report("l31", m, 2)
    for j in range(1, m):
        rhs = row.scaled[j + 1], row.scaled[j]
        report.records.append(_record(j, ">", (m - j, j + 1), rhs))
    return report


# B(m,i)'s numerator and denominator and l33's numerator 2(m+1)B_num - (4m+2i+3)B_den,
# which verify_predecessor_numerator proves is 2(m+1)P(m,i), as polynomials in (m, i)
_M, _I = MultiPoly.variables()
_BOUND_NUM, _BOUND_DEN = ratio_bound_numerator(_M, _I), ratio_bound_denominator(_M, _I)
_L33_NUM = 2 * (_M + 1) * predecessor_ratio_numerator(_M, _I)


def _table(poly: MultiPoly, m: int) -> list[int]:
    """poly(m, i) at 0 <= i <= m, by Horner's rule in i."""
    return _horner(_y_coefficients(poly, m), range(m + 1))


def check_growth_upper_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """l32: d_i(m+1) <= B(m,i) d_i(m) for all 0 <= i <= m."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    report = _new_report("l32", m, 2)
    e, f = row_m.scaled, row_next.scaled
    nums, dens = _table(_BOUND_NUM, m), _table(_BOUND_DEN, m)
    for i in range(m + 1):
        report.records.append(_versus(i, "<=", m, 1, f[i], e[i], nums[i], dens[i]))
    return report


def check_predecessor_bound(row: CoeffRow) -> BoundReport:
    """l33 for 1 <= j <= m, with positivity of the bound's numerator."""
    m = row.m
    report = _new_report("l33", m, 2)
    e = row.scaled
    preds, dens = _table(_L33_NUM, m), _table(_BOUND_DEN, m)
    for j in range(1, m + 1):
        num, den = preds[j], dens[j]
        report.records.append(_record(j, ">", (num, den), (0, 1)))
        report.records.append(_versus(j, "<=", m, 0, e[j - 1], e[j], num, 2 * (m + j) * den))
    return report


def check_reflected_ratio_gap(m: int) -> BoundReport:
    """l34 for 0 <= i <= floor(m/2); pure rational-function comparison."""
    report = _new_report("l34", m, 1)
    preds, dens = _table(_L33_NUM, m), _table(_BOUND_DEN, m)
    for i in range(m // 2 + 1):
        # 2(m+1)B(m,m-i) - (6m-2i+3) is l33's numerator at j = m-i >= 1; it
        # expands to 2j(m+1) times a polynomial with positive coefficients
        lhs = 2 * (2 * m - i) * dens[m - i], preds[m - i]
        report.records.append(_record(i, ">", lhs, (preds[i], 2 * (m + i) * dens[i])))
    return report


def check_endpoint_ratios(row: CoeffRow) -> BoundReport:
    """sec4: d_1/d_0 < m < d_{m-1}/d_m, and the top ratio's closed form."""
    m = row.m
    report = _new_report("sec4", m, 2)
    high = row.scaled[m - 1], row.scaled[m]
    report.records.append(_record(1, "<", (row.scaled[1], row.scaled[0]), (m, 1)))
    report.records.append(_record(m - 1, ">", high, (m, 1)))
    central = math.comb(2 * m, m)
    closed = math.comb(2 * m - 1, m) + m * central, central
    report.records.append(_record(m - 1, "==", high, closed))
    return report


_MAX_M = 2000


def run_checks(m: int, which: Sequence[str] = BOUND_IDS) -> list[BoundReport]:
    """Run the requested checks at one m, generating the rows once.

    Raises ValueError for an unknown bound id or an m above 2000.  Row
    generation and the records' sizes grow faster than m squared: ``bmtk
    bounds`` took 1.6 s at m=1000, 8.3 s at 2000 and 25 s at 3000 in json
    (CPython 3.11, one core of a 2-vCPU Xeon VM).
    """
    unknown = [w for w in which if w not in BOUND_IDS]
    if unknown:
        raise ValueError(f"unknown bound ids: {', '.join(unknown)}")
    if m > _MAX_M:
        raise ValueError(f"m must be at most {_MAX_M}, got {m}")
    wanted = set(which)
    row = closed_form_row(m) if wanted - {"l34"} else None
    row_next = recu1_row(row) if wanted & {"thm21", "thm22", "l32"} else None
    checks = {
        "thm21": lambda: check_growth_lower_bound(row, row_next),
        "thm22": lambda: check_strict_growth_bound(row, row_next),
        "l31": lambda: check_successor_ratio_bound(row),
        "l32": lambda: check_growth_upper_bound(row, row_next),
        "l33": lambda: check_predecessor_bound(row),
        "l34": lambda: check_reflected_ratio_gap(m),
        "sec4": lambda: check_endpoint_ratios(row),
    }
    return [checks[token]() for token in BOUND_IDS if token in which]
