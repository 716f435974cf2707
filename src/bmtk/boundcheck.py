"""Exact verification of the coefficient-row inequalities at concrete m.

Each check evaluates one family of inequalities (or boundary equalities) on
actual generated rows, exactly, and reports per-index records with exact
margins so tightness studies are reproducible.  Every exact quantity is a
side ``(n, small, shift)``, the value n / (small * 2^shift) with small > 0
and shift >= 0.  A check writes its sides straight from the rows' integer
vectors 4^m d_i(m): an entry of row m+1 is ``(f_i, 1, 2m+2)``, a factor
num/den times an entry of row m is ``(num * e_i, den, 2m)``, and a ratio of
two entries is ``(e_{j+1}, e_j, 0)``.

One function, :func:`_records`, decides every comparison, a batch at a time:
a check hands it one relation and the list of its ``(i, lhs, rhs)``.  The
relation is read once per batch.  For each pair, over the gcd-reduced smalls
and the larger shift, one integer difference gives the verdict and the
margin; no gcd or cross-multiply is formed when a small is 1.  Margins,
sides and thm21's minimum ratio are written in lowest terms the same way:
shift out as many trailing zero bits of n as the shift allows, then take one
gcd against small, so no gcd of two row-sized numbers is formed for a side
over a power of two.  Records are slotted dataclasses without value equality
that keep their sides in this form and build the sides' Fractions only when
read.  The only decimal output is the informational minimum-ratio string;
decimals never feed a verdict.

Two things are computed once and shared, each in a size-1 memo.  thm21's and
thm22's interior comparisons are the same sides with >= against >, so they
are decided once per row pair, keyed on the rows' values.  Each report
builds its own records from them; thm21 takes ``holds = margin >= 0`` and the
same margin Fractions.  B(m,i)'s numerator and denominator and l33's
numerator, which l32, l33 and l34 read, are built once as polynomials in
(m, i) and tabulated once per m by :func:`_table`: collapsed to coefficients
in i and evaluated by Horner's rule.  thm21's minimum ratio orders its
candidates n/d by the floor quotient of n·2^64 by d, and cross-multiplies two
candidates only when those quotients are equal.

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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .bmcoeff import CoeffRow, closed_form_row, recu1_row
from .exactnum import _coprime_fraction, decimal_string, exact_str
from .polyident import MultiPoly, predecessor_ratio_numerator
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


Side = tuple[int, int, int]  # (n, small, shift): n / (small * 2^shift)


@dataclass(slots=True, eq=False)
class BoundRecord:
    """One verified comparison: ``lhs relation rhs`` with its exact margin.

    Sides are kept as (n, small, shift), reduced to Fractions on read.  A
    record is plain data, without value equality.  The margin is oriented so that
    nonnegative (positive, for strict relations) means the comparison holds
    with that much room; equality records carry margin zero exactly when
    they hold.
    """

    i: int
    relation: str  # ">=", ">", "<=", "<", "=="
    lhs_side: Side
    rhs_side: Side
    holds: bool
    margin: Fraction

    @property
    def lhs(self) -> Fraction:
        return _lowest_terms(*self.lhs_side)

    @property
    def rhs(self) -> Fraction:
        return _lowest_terms(*self.rhs_side)

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


# relation -> (orientation, strict): the margin is orientation * (lhs - rhs),
# or -|lhs - rhs| for "==" (orientation 0)
_RELATIONS = {
    ">=": (1, False), ">": (1, True), "<=": (-1, False), "<": (-1, True), "==": (0, False)
}


def _records(relation: str, batch: Iterable[tuple[int, Side, Side]]) -> list[BoundRecord]:
    """Decide ``lhs relation rhs`` for each ``(i, lhs, rhs)`` of batch.

    Over the gcd-reduced smalls and the larger shift, one integer difference
    gives the verdict and the margin; the gcd and the cross-multiply are
    skipped when a small is 1.  The margin is then written in lowest terms as
    :func:`_lowest_terms` writes it.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    orientation, strict = _RELATIONS[relation]
    gcd, coprime = math.gcd, _coprime_fraction
    out = []
    for i, lhs, rhs in batch:
        (a, b, p), (c, d, q) = lhs, rhs
        if b == 1:
            a, small = a * d, d
        elif d == 1:
            c, small = c * b, b
        else:
            g = gcd(b, d)
            a, c, small = a * (d // g), c * (b // g), b // g * d
        if p < q:
            a, shift = a << q - p, q
        else:
            c, shift = c << p - q, p
        # (lhs - rhs) * small * 2^shift, oriented so that room is positive
        n = a - c if orientation > 0 else c - a if orientation else -abs(a - c)
        holds = n > 0 if strict else n >= 0
        if n:
            if shift and not n & 1:
                t = (n & -n).bit_length() - 1
                if t > shift:
                    t = shift
                n, shift = n >> t, shift - t
            if small > 1:
                g = gcd(n, small)
                if g > 1:
                    n, small = n // g, small // g
            margin = coprime(n, small << shift)
        else:
            margin = coprime(0, 1)
        out.append(BoundRecord(i, relation, lhs, rhs, holds, margin))
    return out


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


@functools.lru_cache(maxsize=1)
def _growth_interior(e: tuple[int, ...], f: tuple[int, ...]) -> tuple[BoundRecord, ...]:
    """thm22's interior records d_i(m+1) > (4m^2+7m+i+3)/(2(m+1-i)(m+1)) d_i(m)
    for 0 < i < m, on rows m and m+1 given by their integer vectors.

    thm21 makes the same comparisons with >=, so a size-1 memo keyed on the
    rows' values decides them once for the two checks.  These records stay
    private: each report builds its own from them, sharing only the immutable
    sides and margins.
    """
    m = len(e) - 1
    c, shift = 4 * m * m + 7 * m + 3, 2 * m
    batch = [
        (i, (f[i], 1, shift + 2), ((c + i) * e[i], 2 * (m + 1 - i) * (m + 1), shift))
        for i in range(1, m)
    ]
    return tuple(_records(">", batch))


def _least_ratio(pairs: Iterable[tuple[int, int]]) -> Fraction | None:
    """The least n/d over pairs of positive ints, in lowest terms.

    Each candidate is keyed by floor(n·2^64 / d), which never decreases as
    n/d grows: a smaller key proves a smaller ratio and a larger key a larger
    one.  A candidate is cross-multiplied against the least so far only when
    the two keys are equal.  No float is formed, since a ratio of perturbed
    rows can leave float range.
    """
    least, low = None, 0
    for n, d in pairs:
        key = (n << 64) // d
        if least is None or key < low or key == low and n * least[1] < least[0] * d:
            least, low = (n, d), key
    return None if least is None else _lowest_terms(*least, 0)


def check_growth_lower_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """thm21 on 0 < i < m; also reports the minimum of the tightness ratio."""
    _require_consecutive(row_m, row_next)
    report = _new_report("thm21", row_m.m, 1)
    interior = _growth_interior(row_m.scaled, row_next.scaled)
    # a strict record that fails holds with >= exactly when its margin is 0
    report.records = [
        BoundRecord(r.i, ">=", r.lhs_side, r.rhs_side, r.holds or not r.margin, r.margin)
        for r in interior
    ]
    # bound/d_i(m+1) at each i, as 4·bound over den·f_i since 4^m cancels
    report.min_ratio = _least_ratio(
        (r.rhs_side[0] << 2, r.rhs_side[1] * r.lhs_side[0]) for r in interior
    )
    return report


def check_strict_growth_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """thm22: strict interior bound plus both boundary equalities."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    report = _new_report("thm22", m, 2)
    e, f = row_m.scaled, row_next.scaled
    top_step = (2 * m + 3) * (2 * m + 1) * e[m], 2 * (m + 1), 2 * m
    boundary = [
        (0, (f[0], 1, 2 * m + 2), ((4 * m + 3) * e[0], 2 * (m + 1), 2 * m)),
        (m, (f[m], 1, 2 * m + 2), top_step),
        (m, (e[m], 1, 2 * m), (math.comb(2 * m, m), 1, m)),
    ]
    interior = [
        BoundRecord(r.i, ">", r.lhs_side, r.rhs_side, r.holds, r.margin)
        for r in _growth_interior(e, f)
    ]
    report.records = interior + _records("==", boundary)
    return report


def check_successor_ratio_bound(row: CoeffRow) -> BoundReport:
    """l31: (m-j)/(j+1) > d_{j+1}(m)/d_j(m) for 1 <= j <= m-1."""
    m = row.m
    report = _new_report("l31", m, 2)
    e = row.scaled
    batch = [(j, (m - j, j + 1, 0), (e[j + 1], e[j], 0)) for j in range(1, m)]
    report.records = _records(">", batch)
    return report


# B(m,i)'s numerator and denominator and l33's numerator 2(m+1)B_num - (4m+2i+3)B_den,
# which verify_predecessor_numerator proves is 2(m+1)P(m,i), as polynomials in (m, i)
_M, _I = MultiPoly.variables()
_BOUND_NUM, _BOUND_DEN = ratio_bound_numerator(_M, _I), ratio_bound_denominator(_M, _I)
_L33_NUM = 2 * (_M + 1) * predecessor_ratio_numerator(_M, _I)


def _table(poly: MultiPoly, m: int) -> list[int]:
    """poly(m, i) at 0 <= i <= m: poly collapsed to its coefficients in i at
    this m, constant first, then evaluated by Horner's rule in i."""
    coeffs = [0] * (max(e1 for _, e1 in poly.terms) + 1)
    for (e0, e1), c in poly.terms.items():
        coeffs[e1] += c * m**e0
    values = [coeffs[-1]] * (m + 1)
    for c in reversed(coeffs[:-1]):
        values = [v * i + c for i, v in enumerate(values)]
    return values


@functools.lru_cache(maxsize=1)
def _bound_tables(m: int) -> tuple[tuple[int, ...], ...]:
    """B(m,i)'s numerator and denominator and l33's numerator at 0 <= i <= m.

    l32, l33 and l34 all read them at the same m, so a size-1 memo keyed on m
    builds them once for the three checks."""
    return tuple(tuple(_table(poly, m)) for poly in (_BOUND_NUM, _BOUND_DEN, _L33_NUM))


def check_growth_upper_bound(row_m: CoeffRow, row_next: CoeffRow) -> BoundReport:
    """l32: d_i(m+1) <= B(m,i) d_i(m) for all 0 <= i <= m."""
    _require_consecutive(row_m, row_next)
    m = row_m.m
    report = _new_report("l32", m, 2)
    e, f = row_m.scaled, row_next.scaled
    nums, dens, _ = _bound_tables(m)
    batch = [(i, (f[i], 1, 2 * m + 2), (nums[i] * e[i], dens[i], 2 * m)) for i in range(m + 1)]
    report.records = _records("<=", batch)
    return report


def check_predecessor_bound(row: CoeffRow) -> BoundReport:
    """l33 for 1 <= j <= m, with positivity of the bound's numerator."""
    m = row.m
    report = _new_report("l33", m, 2)
    e = row.scaled
    _, dens, preds = _bound_tables(m)
    js = range(1, m + 1)
    positive = _records(">", [(j, (preds[j], dens[j], 0), (0, 1, 0)) for j in js])
    bounded = _records("<=", [
        (j, (e[j - 1], 1, 2 * m), (preds[j] * e[j], 2 * (m + j) * dens[j], 2 * m)) for j in js
    ])
    report.records = [r for pair in zip(positive, bounded) for r in pair]
    return report


def check_reflected_ratio_gap(m: int) -> BoundReport:
    """l34 for 0 <= i <= floor(m/2); pure rational-function comparison."""
    report = _new_report("l34", m, 1)
    _, dens, preds = _bound_tables(m)
    # 2(m+1)B(m,m-i) - (6m-2i+3) is l33's numerator at j = m-i >= 1; it
    # expands to 2j(m+1) times a polynomial with positive coefficients
    batch = [
        (i, (2 * (2 * m - i) * dens[m - i], preds[m - i], 0), (preds[i], 2 * (m + i) * dens[i], 0))
        for i in range(m // 2 + 1)
    ]
    report.records = _records(">", batch)
    return report


def check_endpoint_ratios(row: CoeffRow) -> BoundReport:
    """sec4: d_1/d_0 < m < d_{m-1}/d_m, and the top ratio's closed form."""
    m = row.m
    report = _new_report("sec4", m, 2)
    e = row.scaled
    high = e[m - 1], e[m], 0
    central = math.comb(2 * m, m)
    closed = math.comb(2 * m - 1, m) + m * central, central, 0
    report.records = [
        *_records("<", [(1, (e[1], e[0], 0), (m, 1, 0))]),
        *_records(">", [(m - 1, high, (m, 1, 0))]),
        *_records("==", [(m - 1, high, closed)]),
    ]
    return report


_MAX_M = 2000


def run_checks(m: int, which: Sequence[str] = BOUND_IDS) -> list[BoundReport]:
    """Run the requested checks at one m, generating the rows once.

    Raises ValueError for an unknown bound id or an m above 2000.  The
    records' sizes grow faster than m squared: ``bmtk bounds``, start-up
    included, took 0.33 s at m=1000 and 1.7 s at 2000 in json, and 0.084 s
    and 0.23 s in plain (CPython 3.11.7, one core of a 2-vCPU AMD EPYC VM).
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
