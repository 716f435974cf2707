"""Exact verification of the coefficient-row inequalities at concrete m.

Each check evaluates one family of inequalities (or boundary equalities) on
actual generated rows, exactly, and reports per-index records with exact
margins so tightness studies are reproducible.  Both sides of a comparison are
integer (numerator, denominator) pairs read from the rows' integer vectors
4^m d_i(m), and one cross-multiplied integer difference decides it; the
record's Fraction values are built once, from the same integers.  The only
decimal output is the informational minimum-ratio string; decimals never feed
a verdict.

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
from .exactnum import decimal_string
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


@dataclass(frozen=True)
class BoundRecord:
    """One verified comparison: ``lhs relation rhs`` with its exact margin.

    The margin is oriented so that nonnegative (positive, for strict
    relations) means the comparison holds with that much room; equality
    records carry margin zero exactly when they hold.
    """

    i: int
    relation: str  # ">=", ">", "<=", "<", "=="
    lhs: Fraction
    rhs: Fraction
    holds: bool
    margin: Fraction

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "relation": self.relation,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "margin": str(self.margin),
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
        return decimal_string(self.min_ratio, 20)

    def to_json(self) -> dict:
        return {
            "bound": self.bound_id,
            "m": self.m,
            "all_hold": self.all_hold,
            "min_ratio": None if self.min_ratio is None else str(self.min_ratio),
            "min_ratio_decimal": self.min_ratio_decimal,
            "records": [r.to_json() for r in self.records],
        }


Pair = tuple[int, int]  # (numerator, denominator), denominator > 0


def _record(i: int, relation: str, lhs: Pair, rhs: Pair) -> BoundRecord:
    """Decide ``lhs relation rhs`` from the sign of one integer difference."""
    (a, b), (c, d) = lhs, rhs
    diff = a * d - c * b  # (lhs - rhs) * b * d
    if relation == ">=":
        holds, margin = diff >= 0, diff
    elif relation == ">":
        holds, margin = diff > 0, diff
    elif relation == "<=":
        holds, margin = diff <= 0, -diff
    elif relation == "<":
        holds, margin = diff < 0, -diff
    elif relation == "==":
        holds, margin = diff == 0, -abs(diff)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return BoundRecord(
        i, relation, Fraction(a, b), Fraction(c, d), holds, Fraction(margin, b * d)
    )


def _entry(row: CoeffRow, i: int, num: int = 1, den: int = 1) -> Pair:
    """(num/den) d_i(m) as a pair, read from the integer vector 4^m d_i(m)."""
    return num * row.scaled[i], den << (2 * row.m)


def _require_consecutive(row_m: CoeffRow, row_next: CoeffRow) -> None:
    if row_next.m != row_m.m + 1:
        raise ValueError(f"need rows m and m+1, got m={row_m.m} and m={row_next.m}")


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
    if m < 1:
        raise ValueError(f"requires m >= 1, got m={m}")
    report = BoundReport("thm21", m)
    low = None  # the least bound/d_i(m+1) so far, as a pair
    for i in range(1, m):
        lhs = _entry(row_next, i)
        bound = _entry(row_m, i, *_growth_lower_coefficient(m, i))
        report.records.append(_record(i, ">=", lhs, bound))
        ratio = bound[0] * lhs[1], bound[1] * lhs[0]
        if low is None or ratio[0] * low[1] < low[0] * ratio[1]:
            low = ratio
    if low is not None:
        report.min_ratio = Fraction(*low)
    return report


def check_strict_growth_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """thm22: strict interior bound plus both boundary equalities."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    if m < 2:
        raise ValueError(f"requires m >= 2, got m={m}")
    report = BoundReport("thm22", m)
    for i in range(1, m):
        bound = _entry(row_m, i, *_growth_lower_coefficient(m, i))
        report.records.append(_record(i, ">", _entry(row_next, i), bound))
    # boundary equalities
    top_step = (2 * m + 3) * (2 * m + 1), 2 * (m + 1)
    report.records += [
        _record(0, "==", _entry(row_next, 0), _entry(row_m, 0, 4 * m + 3, 2 * (m + 1))),
        _record(m, "==", _entry(row_next, m), _entry(row_m, m, *top_step)),
        _record(m, "==", _entry(row_m, m), (math.comb(2 * m, m), 1 << m)),
    ]
    return report


def check_successor_ratio_bound(row: CoeffRow) -> BoundReport:
    """l31: (m-j)/(j+1) > d_{j+1}(m)/d_j(m) for 1 <= j <= m-1."""
    m = row.m
    if m < 2:
        raise ValueError(f"requires m >= 2, got m={m}")
    report = BoundReport("l31", m)
    for j in range(1, m):
        rhs = row.scaled[j + 1], row.scaled[j]
        report.records.append(_record(j, ">", (m - j, j + 1), rhs))
    return report


def check_growth_upper_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """l32: d_i(m+1) <= B(m,i) d_i(m) for all 0 <= i <= m."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    if m < 2:
        raise ValueError(f"requires m >= 2, got m={m}")
    report = BoundReport("l32", m)
    for i in range(m + 1):
        bound = ratio_bound_numerator(m, i), ratio_bound_denominator(m, i)
        report.records.append(_record(i, "<=", _entry(row_next, i), _entry(row_m, i, *bound)))
    return report


def _predecessor_numerator(m: int, j: int) -> Pair:
    """2(m+1)B(m,j) - (4m+2j+3) as a pair over the denominator of B(m,j)."""
    den = ratio_bound_denominator(m, j)
    return 2 * (m + 1) * ratio_bound_numerator(m, j) - (4 * m + 2 * j + 3) * den, den


def check_predecessor_bound(row: CoeffRow) -> BoundReport:
    """l33 for 1 <= j <= m, with positivity of the bound's numerator."""
    m = row.m
    if m < 2:
        raise ValueError(f"requires m >= 2, got m={m}")
    report = BoundReport("l33", m)
    for j in range(1, m + 1):
        num, den = _predecessor_numerator(m, j)
        report.records.append(_record(j, ">", (num, den), (0, 1)))
        coeff = _entry(row, j, num, 2 * (m + j) * den)
        report.records.append(_record(j, "<=", _entry(row, j - 1), coeff))
    return report


def check_reflected_ratio_gap(m: int) -> BoundReport:
    """l34 for 0 <= i <= floor(m/2); pure rational-function comparison."""
    if m < 1:
        raise ValueError(f"requires m >= 1, got m={m}")
    report = BoundReport("l34", m)
    for i in range(m // 2 + 1):
        # 2(m+1)B(m,m-i) - (6m-2i+3) is l33's numerator at j = m-i >= 1; it
        # expands to 2j(m+1) times a polynomial with positive coefficients
        num, den = _predecessor_numerator(m, m - i)
        lhs = 2 * (2 * m - i) * den, num
        num, den = _predecessor_numerator(m, i)
        report.records.append(_record(i, ">", lhs, (num, 2 * (m + i) * den)))
    return report


def check_endpoint_ratios(row: CoeffRow) -> BoundReport:
    """sec4: d_1/d_0 < m < d_{m-1}/d_m, and the top ratio's closed form."""
    m = row.m
    if m < 2:
        raise ValueError(f"requires m >= 2, got m={m}")
    report = BoundReport("sec4", m)
    high = row.scaled[m - 1], row.scaled[m]
    report.records.append(_record(1, "<", (row.scaled[1], row.scaled[0]), (m, 1)))
    report.records.append(_record(m - 1, ">", high, (m, 1)))
    central = math.comb(2 * m, m)
    closed = math.comb(2 * m - 1, m) + m * central, central
    report.records.append(_record(m - 1, "==", high, closed))
    return report


def run_checks(m: int, which: Sequence[str] = BOUND_IDS) -> list[BoundReport]:
    """Run the requested checks at one m, generating the rows once."""
    unknown = [w for w in which if w not in BOUND_IDS]
    if unknown:
        raise ValueError(f"unknown bound ids: {', '.join(unknown)}")
    needs_rows = {"thm21", "thm22", "l31", "l32", "l33", "sec4"} & set(which)
    row = closed_form_row(m) if needs_rows else None
    row_next = (
        recu1_row(row) if row is not None and {"thm21", "thm22", "l32"} & set(which) else None
    )
    reports = []
    for token in BOUND_IDS:
        if token not in which:
            continue
        if token == "thm21":
            reports.append(check_growth_lower_bound(row, row_next))
        elif token == "thm22":
            reports.append(check_strict_growth_bound(row, row_next))
        elif token == "l31":
            reports.append(check_successor_ratio_bound(row))
        elif token == "l32":
            reports.append(check_growth_upper_bound(row, row_next))
        elif token == "l33":
            reports.append(check_predecessor_bound(row))
        elif token == "l34":
            reports.append(check_reflected_ratio_gap(m))
        elif token == "sec4":
            reports.append(check_endpoint_ratios(row))
    return reports
