"""Sparse bivariate polynomial arithmetic and the proof-identity suite.

The inequality proofs for the coefficient rows hinge on a handful of exact
polynomial identities between named rational functions of two integer
parameters.  This module transcribes those polynomials once (as builder
functions over any commutative ring: plain ints, Fractions, or
:class:`MultiPoly`), expands both sides of each identity in exact sparse
polynomial arithmetic, and reports the difference polynomial, which must be
identically zero.

The long right-hand-side expansions are kept verbatim as data tables of
(coefficient, exponent, exponent) groups, one tuple per parenthesized group,
so a transcription slip and an algebra bug stay distinguishable.  The grouped
terms also feed a lattice nonnegativity check over the regions where the
proofs use them; the lattice evidence is supporting only, the identity is the
primary artifact.

Variables are fixed internally as (n, i); identities stated in other letters
are mapped by renaming at this table layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "MultiPoly",
    "IdentityResult",
    "GridReport",
    "ratio_bound_numerator",
    "ratio_bound_denominator",
    "growth_quotient_numerator",
    "growth_quotient_denominator",
    "reflected_ratio_numerator",
    "reflected_ratio_denominator",
    "predecessor_ratio_numerator",
    "predecessor_ratio_denominator",
    "UPPER_BOUND_EXPANSION_GROUPS",
    "REFLECTED_GAP_EXPANSION_GROUPS",
    "group_poly",
    "group_value",
    "verify_strict_growth_step",
    "verify_upper_bound_expansion",
    "verify_upper_bound_quotient",
    "verify_reflected_gap_expansion",
    "verify_predecessor_numerator",
    "verify_recurrence_interderivation",
    "grid_nonnegativity",
    "run_identity_suite",
]


class MultiPoly:
    """Sparse polynomial in two variables over exact integers.

    Terms map exponent pairs to nonzero coefficients; all arithmetic is
    exact and canonical (zero coefficients are never stored).  Instances are
    treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    clean[(int(expo[0]), int(expo[1]))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls({(0, 0): c})

    @classmethod
    def variables(cls) -> tuple["MultiPoly", "MultiPoly"]:
        return cls({(1, 0): 1}), cls({(0, 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, e0: int, e1: int) -> int:
        return self.terms.get((e0, e1), 0)

    @staticmethod
    def _coerce(value: "MultiPoly | int") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, int):
            return MultiPoly.constant(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in o.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a0, a1), ca in self.terms.items():
            for (b0, b1), cb in o.terms.items():
                key = (a0 + b0, a1 + b1)
                out[key] = out.get(key, 0) + ca * cb
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MultiPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers")
        result = MultiPoly.constant(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def evaluate(self, x, y):
        """Substitute values for the two variables (int, Fraction, ...)."""
        total = 0
        for (e0, e1), coeff in self.terms.items():
            total += coeff * x**e0 * y**e1
        return total

    def to_string(self) -> str:
        """The terms in descending exponent order, in the variables n and i."""
        if not self.terms:
            return "0"
        parts = []
        for (e0, e1), coeff in sorted(self.terms.items(), reverse=True):
            factors = [str(coeff)]
            if e0:
                factors.append("n" if e0 == 1 else f"n^{e0}")
            if e1:
                factors.append("i" if e1 == 1 else f"i^{e1}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_string()})"


# -- the named polynomial families --------------------------------------------
# Builders are generic: pass ints for numeric instances, Fractions for exact
# bound evaluation, or MultiPoly variables for symbolic work; boundcheck
# builds its bound polynomials here and evaluates them with _y_coefficients
# and _horner one m at a time.


def ratio_bound_numerator(m, i):
    """Numerator of the row-to-row growth upper bound."""
    return (
        30 + 96 * m**2 + 94 * m + 37 * i + 72 * m**2 * i + 8 * m**2 * i**2 - i**3
        + 99 * m * i + 5 * i**2 + 13 * m * i**2 + 16 * m**3 * i + 32 * m**3
    )


def ratio_bound_denominator(m, i):
    return 2 * (i + 2) * (4 * m + 2 * i + 5) * (m + 1) * (m - i + 1)


def growth_quotient_numerator(n, i):
    """Numerator of the induction-step quotient in the upper-bound proof."""
    return (4 * n + 2 * i + 9) * (i + 2) * (4 * n + 5) * (4 * n + 3) * (n + i + 1)


def growth_quotient_denominator(n, i):
    return -2 * (n + 1) * (
        -90 - 23 * i - 202 * n + 51 * i**3 + 60 * i**2 - 144 * n**2 - 32 * n**3
        - 80 * n**2 * i - 8 * n**2 * i**2 - 97 * n * i + 13 * n * i**2
        - 16 * n**3 * i + 16 * n * i**3 + 8 * i**4
    )


def reflected_ratio_numerator(m, i):
    """Numerator of the lower bound on the reflected neighbor ratio."""
    return 2 * (2 * m - i) * (m - i + 2) * (6 * m - 2 * i + 5) * (i + 1)


def reflected_ratio_denominator(m, i):
    return (
        4 * (3 * m - i) * (2 * m - i) * (m - i) ** 2
        + (80 * m**3 - 155 * m**2 * i)
        + (80 * m**2 - 108 * m * i)
        + (20 * m - 20 * i)
        + (94 * m * i**2 - 19 * i**3)
        + 28 * i**2
    )


def predecessor_ratio_numerator(m, i):
    """Numerator of the upper bound on d_{i-1}/d_i."""
    return i * (
        24 * m**2 + 52 * m + 8 * m**2 * i + 37 * m * i + 4 * i**3
        + 12 * m * i**2 + 20 + 19 * i**2 + 28 * i
    )


def predecessor_ratio_denominator(m, i):
    return 2 * (i + 2) * (4 * m + 2 * i + 5) * (m - i + 1) * (i + m)


Group = tuple[tuple[int, int, int], ...]  # (coefficient, exponent0, exponent1)

# Verbatim grouped right-hand side of the upper-bound induction expansion,
# one tuple per parenthesized group; every group is nonnegative on 0<=i<=n.
UPPER_BOUND_EXPANSION_GROUPS: tuple[Group, ...] = (
    ((128, 4, 4), (-32, 3, 5), (-80, 2, 6), (-16, 1, 7)),
    ((618, 3, 4), (-222, 1, 6), (-16, 0, 7), (-284, 2, 5)),
    ((844, 1, 3), (-170, 0, 4)),
    ((1502, 2, 3), (-338, 0, 5)),
    ((984, 2, 4), (-142, 0, 6)),
    ((844, 3, 3), (-590, 1, 5)),
    ((256, 5, 2),),
    ((720, 0, 1),),
    ((10, 0, 3),),
    ((788, 0, 2),),
    ((3984, 2, 1),),
    ((2656, 1, 1),),
    ((3568, 1, 2),),
    ((3136, 3, 1),),
    ((4600, 3, 2),),
    ((256, 5, 1),),
    ((1344, 4, 1),),
    ((324, 1, 4),),
    ((176, 4, 3),),
    ((5908, 2, 2),),
    ((1728, 4, 2),),
)

# Verbatim grouped expansion of (reflected numerator * predecessor
# denominator - predecessor numerator * reflected denominator); every group
# is nonnegative on 0 <= i <= m/2.
REFLECTED_GAP_EXPANSION_GROUPS: tuple[Group, ...] = (
    ((312, 5, 2), (36, 2, 5), (276, 3, 4), (-612, 4, 3), (-12, 1, 6)),
    ((2040, 4, 2), (-2533, 3, 3)),
    ((129, 1, 5), (-43, 0, 6)),
    ((384, 6, 0), (-752, 5, 1)),
    ((3568, 4, 0), (-3328, 3, 1)),
    ((1952, 5, 0), (-2792, 4, 1)),
    ((4280, 3, 2), (-2976, 2, 3)),
    ((2800, 3, 0), (-1240, 2, 1)),
    ((3868, 2, 2), (-1080, 1, 3)),
    ((1240, 1, 2),),
    ((1488, 1, 4),),
    ((540, 0, 4),),
    ((800, 2, 0),),
    ((1159, 2, 4),),
)


def group_poly(group: Group) -> MultiPoly:
    return MultiPoly({(e0, e1): c for c, e0, e1 in group})


def group_value(group: Group, x: int, y: int) -> int:
    """Evaluate a group directly in integer arithmetic (no MultiPoly)."""
    return sum(c * x**e0 * y**e1 for c, e0, e1 in group)


@dataclass
class IdentityResult:
    identity: str
    equal: bool
    difference: MultiPoly


def _result(identity: str, difference: MultiPoly) -> IdentityResult:
    return IdentityResult(identity, difference.is_zero, difference)


def verify_strict_growth_step() -> IdentityResult:
    """The factored comparison that powers the strict growth bound:

    2(n+i+1)(4n+3)(4n+5)(n+1-i)(n+1) - 2(4n^2+7n+i+3)(n+1)(n+1-i)(4n+4i+5)
        = -4i(1+2i)(n+1)(n+1-i)
    """
    n, i = MultiPoly.variables()
    lhs = 2 * (n + i + 1) * (4 * n + 3) * (4 * n + 5) * (n + 1 - i) * (n + 1) - 2 * (
        4 * n**2 + 7 * n + i + 3
    ) * (n + 1) * (n + 1 - i) * (4 * n + 4 * i + 5)
    rhs = -4 * i * (1 + 2 * i) * (n + 1) * (n + 1 - i)
    return _result("strict-growth-step", lhs - rhs)


def verify_upper_bound_expansion() -> IdentityResult:
    """The induction-step expansion behind the growth upper bound:
    denominator-cleared quotient-minus-bound equals the grouped sum."""
    n, i = MultiPoly.variables()
    lhs = ratio_bound_denominator(n, i) * growth_quotient_numerator(n, i) - (
        ratio_bound_numerator(n, i) * growth_quotient_denominator(n, i)
    )
    rhs = MultiPoly()
    for group in UPPER_BOUND_EXPANSION_GROUPS:
        rhs = rhs + group_poly(group)
    return _result("upper-bound-expansion", lhs - rhs)


def verify_upper_bound_quotient() -> IdentityResult:
    """The rewriting of the induction quotient through the shifted bound.

    With Q(n,i) = (-4i^2+8n^2+24n+19)/(2(n+2-i)(n+2)) - B(n+1,i) written over
    the common denominator 2(n+2-i)(n+2)(i+2)(4n+2i+9), the claim
        (n+1+i)(4n+3)(4n+5) / (4(n+1)(n+2)(n+2-i) Q) = F/G
    clears to the polynomial identity checked here.  The top-corner closed
    form of the shifted bound is folded in as a second zero difference.
    """
    n, i = MultiPoly.variables()
    q_num = (-4 * i**2 + 8 * n**2 + 24 * n + 19) * (i + 2) * (4 * n + 2 * i + 9) - (
        ratio_bound_numerator(n + 1, i)
    )
    lhs = (
        (n + 1 + i) * (4 * n + 3) * (4 * n + 5)
        * (i + 2) * (4 * n + 2 * i + 9)
        * growth_quotient_denominator(n, i)
    )
    rhs = 2 * (n + 1) * q_num * growth_quotient_numerator(n, i)
    diff = lhs - rhs
    if not diff.is_zero:
        return _result("upper-bound-quotient", diff)
    # top corner: the bound at (n+1, n+1) collapses to a quartic over a cubic
    corner = ratio_bound_numerator(n + 1, n + 1) - (
        24 * n**4 + 212 * n**3 + 692 * n**2 + 975 * n + 501
    )
    return _result("upper-bound-quotient", corner)


def verify_reflected_gap_expansion() -> IdentityResult:
    """Numerator of the reflected-vs-predecessor ratio gap equals the
    grouped sum."""
    m, i = MultiPoly.variables()
    lhs = reflected_ratio_numerator(m, i) * predecessor_ratio_denominator(m, i) - (
        predecessor_ratio_numerator(m, i) * reflected_ratio_denominator(m, i)
    )
    rhs = MultiPoly()
    for group in REFLECTED_GAP_EXPANSION_GROUPS:
        rhs = rhs + group_poly(group)
    return _result("reflected-gap-expansion", lhs - rhs)


def verify_predecessor_numerator() -> IdentityResult:
    """Positivity-carrying closed form of 2(m+1)B(m,j) - (4m+2j+3):
    cleared of the bound's denominator it equals the predecessor-ratio
    numerator times 2(m+1)."""
    m, j = MultiPoly.variables()
    lhs = 2 * (m + 1) * ratio_bound_numerator(m, j) - (
        (4 * m + 2 * j + 3) * ratio_bound_denominator(m, j)
    )
    rhs = predecessor_ratio_numerator(m, j) * 2 * (m + 1)
    return _result("predecessor-numerator", lhs - rhs)


# -- recurrence interderivation ------------------------------------------------

# Basis symbols for linear combinations of row entries with polynomial
# coefficients in (m, i).
D_IM2 = "d[i-2](m)"
D_IM1 = "d[i-1](m)"
D_I = "d[i](m)"
D_IP1 = "d[i+1](m)"
D_I_NEXT = "d[i](m+1)"
D_I_NEXT2 = "d[i](m+2)"

Combo = dict[str, MultiPoly]


def _proportional(x: Combo, y: Combo) -> MultiPoly:
    """Zero polynomial iff x and y are proportional as formal combinations.

    Checked by cross-multiplication against an anchor coefficient of y, so
    no polynomial division is needed; returns the first nonzero residual
    otherwise.
    """
    keys = sorted(set(x) | set(y))
    zero = MultiPoly()
    anchor = next((k for k in keys if not y.get(k, zero).is_zero), None)
    if anchor is None:
        return next((x[k] for k in keys if not x[k].is_zero), zero)
    xa, ya = x.get(anchor, zero), y[anchor]
    for k in keys:
        residual = x.get(k, zero) * ya - y.get(k, zero) * xa
        if not residual.is_zero:
            return residual
    return zero


def verify_recurrence_interderivation() -> IdentityResult:
    """Mechanical re-derivation of the dependent recurrences.

    (a) Equating the one-step and downward routes (index shifted down by
        one, cleared by 2(m+1)(m+2-i)) must give a scalar multiple of the
        four-term relation.
    (b) Chaining the one-step and downward routes across two levels and
        eliminating d_{i+1}(m) must reproduce the two-step route.
    """
    n, i = MultiPoly.variables()

    # (a) both routes express d_{i-1}(m+1); difference cleared by
    # 2(m+1)(m+2-i) is a combination over level-m entries.
    combo_a: Combo = {
        D_IM2: 2 * (n + i - 1) * (n + 2 - i),
        D_IM1: (4 * n + 2 * i + 1) * (n + 2 - i) - (4 * n - 2 * i + 5) * (n + i),
        D_I: 2 * i * (i - 1),
    }
    four_term: Combo = {
        D_IM2: (n + 2 - i) * (n + i - 1),
        D_IM1: -(i - 1) * (2 * n + 1),
        D_I: i * (i - 1),
    }
    residual_a = _proportional(combo_a, four_term)
    if not residual_a.is_zero:
        return _result("recurrence-interderivation", residual_a)

    # (b) substituted two-level chain, cleared by 2(m+2)(m+2-i)(m+1):
    #   chain = 0 with the d_{i+1}(m) column still present
    chain: Combo = {
        D_I_NEXT2: 2 * (n + 2) * (n + 2 - i) * (n + 1),
        D_I_NEXT: -(4 * n - 2 * i + 7) * (n + i + 2) * (n + 1),
        D_I: 2 * i * (i + 1) * (n + i + 1),
        D_IP1: i * (i + 1) * (4 * n + 2 * i + 5),
    }
    # eliminating d_{i+1}(m) uses the level-m downward route cleared by 2i(i+1)
    eliminator: Combo = {
        D_IP1: 2 * i * (i + 1),
        D_I_NEXT: 2 * (n + 1) * (n + 1 - i),
        D_I: -(n + i + 1) * (4 * n - 2 * i + 3),
    }
    zero = MultiPoly()
    keys = set(chain) | set(eliminator)
    # the d_{i+1}(m) column cancels by construction, so it is left out
    combined: Combo = {
        k: eliminator[D_IP1] * chain.get(k, zero) - chain[D_IP1] * eliminator.get(k, zero)
        for k in keys
        if k != D_IP1
    }

    target: Combo = {
        D_I_NEXT2: 4 * (n + 2 - i) * (n + 1) * (n + 2),
        D_I_NEXT: -2 * (-4 * i**2 + 8 * n**2 + 24 * n + 19) * (n + 1),
        D_I: (n + i + 1) * (4 * n + 3) * (4 * n + 5),
    }
    return _result("recurrence-interderivation", _proportional(combined, target))


# -- lattice nonnegativity ------------------------------------------------------


@dataclass
class GridReport:
    region: str
    bound: int
    points: int
    violations: list[tuple[int, int, int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _y_coefficients(poly: MultiPoly, x: int) -> list[int]:
    """The coefficients of poly(x, y) as a polynomial in y, constant first."""
    coeffs = [0] * (max((e1 for _, e1 in poly.terms), default=0) + 1)
    for (e0, e1), c in poly.terms.items():
        coeffs[e1] += c * x**e0
    return coeffs


def _horner(coeffs: list[int], ys: Sequence[int]) -> list[int]:
    """The polynomial with these coefficients at every y in ys."""
    values = [coeffs[-1]] * len(ys)
    for c in reversed(coeffs[:-1]):
        values = [v * y + c for v, y in zip(values, ys)]
    return values


def grid_nonnegativity(
    polys: Sequence[MultiPoly], region: str, bound: int, strict: bool = False
) -> GridReport:
    """Evaluate every polynomial at every lattice point of the region and
    report any negative (or, when strict, non-positive) value.

    The lattice is taken one row x at a time.  Each polynomial is collapsed
    to its coefficients in y at that x, and the whole row y = 0..Y is
    evaluated by Horner's rule over a list; a row is walked point by point,
    to collect its violations, only when some polynomial's minimum on it
    fails.  A polynomial whose coefficients in y are all nonnegative takes
    its minimum over y >= 0 at y = 0, so its row is evaluated only if that
    constant term fails.  Violations come out in lattice order, (x, y) and
    then the polynomial's index g, as (g, x, y, str(value)), with the exact
    values :meth:`MultiPoly.evaluate` gives.
    """
    if bound < 1:
        raise ValueError(f"grid bound must be >= 1, got {bound}")
    # triangle: 0 <= i <= n <= bound; half: 0 <= i <= m/2, m <= bound
    if region not in ("triangle", "half"):
        raise ValueError(f"unknown region {region!r}")

    def fails(value: int) -> bool:
        return value <= 0 if strict else value < 0

    report = GridReport(region=region, bound=bound, points=0)
    for x in range(bound + 1):
        ys = range(x + 1 if region == "triangle" else x // 2 + 1)
        report.points += len(ys)
        row_coeffs = [_y_coefficients(poly, x) for poly in polys]
        if not any(
            fails(coeffs[0] if min(coeffs) >= 0 else min(_horner(coeffs, ys)))
            for coeffs in row_coeffs
        ):
            continue
        rows = [_horner(coeffs, ys) for coeffs in row_coeffs]
        for y in ys:
            for g, row in enumerate(rows):
                if fails(row[y]):
                    report.violations.append((g, x, y, str(row[y])))
    return report


_MAX_GRID_BOUND = 2000


def run_identity_suite(grid_bound: int = 50) -> list[dict]:
    """All identity checks plus their supporting lattice evidence.

    Returns one record per identity: {"identity", "equal", "grid_ok"}
    (grid_ok is None where no lattice claim is attached).

    Raises ValueError for a grid_bound below 1 or above 2000.  The lattice
    work grows as grid_bound squared: the suite took 0.19 s at 200, 4.0 s at
    1000 and 15.2 s at 2000 (CPython 3.11, one core of a 2-vCPU Xeon VM).
    """
    if grid_bound > _MAX_GRID_BOUND:
        raise ValueError(f"grid bound must be at most {_MAX_GRID_BOUND}, got {grid_bound}")
    n, i = MultiPoly.variables()
    upper_groups = [group_poly(g) for g in UPPER_BOUND_EXPANSION_GROUPS]
    reflected_groups = [group_poly(g) for g in REFLECTED_GAP_EXPANSION_GROUPS]
    reflected_components = [
        reflected_ratio_numerator(n, i),
        reflected_ratio_denominator(n, i),
        predecessor_ratio_numerator(n, i),
        predecessor_ratio_denominator(n, i),
    ]
    checks = [
        (verify_strict_growth_step(), None),
        (
            verify_upper_bound_expansion(),
            grid_nonnegativity(upper_groups, "triangle", grid_bound).ok,
        ),
        (
            verify_upper_bound_quotient(),
            grid_nonnegativity(
                [growth_quotient_denominator(n, i)], "triangle", grid_bound, strict=True
            ).ok,
        ),
        (
            verify_reflected_gap_expansion(),
            grid_nonnegativity(reflected_groups, "half", grid_bound).ok
            and grid_nonnegativity(reflected_components, "half", grid_bound).ok,
        ),
        (verify_predecessor_numerator(), None),
        (verify_recurrence_interderivation(), None),
    ]
    return [
        {"identity": res.identity, "equal": res.equal, "grid_ok": grid_ok}
        for res, grid_ok in checks
    ]
