"""Order and log-behavior predicates on finite positive sequences.

For a sequence a_0..a_m of positive exact numbers:

  log-concave        a_i^2 >= a_{i-1} a_{i+1} for interior i
  spiral             a_m <= a_0 <= a_{m-1} <= a_1 <= ... <= a_{floor(m/2)}
  ratio monotone     both reflected-ratio chains hold, each ending at <= 1:
                       a_0/a_{m-1} <= a_1/a_{m-2} <= ... <= a_{floor(m/2)-1}/a_{m-floor(m/2)} <= 1
                       a_m/a_0 <= a_{m-1}/a_1 <= ... <= a_{m-floor((m-1)/2)}/a_{floor((m-1)/2)} <= 1
  unimodal mid-peak  strict rise to index floor(m/2), then strict fall

Ratio monotonicity implies both log-concavity and the spiral property.
Every comparison is a cross-multiplied product comparison, never a ratio:
each predicate lists its comparisons once, as index quads (a, b, c, d)
meaning a_a·a_b <= a_c·a_d (< when strict).  A one-entry side is padded with
index m + 1, the position of an exact 1 placed after a_0..a_m, so both the
enclosure phase and the exact phase below read one list of quads.  The chain
predicates hold vacuously on sequences of length <= 2.

The squared-difference operator L maps a_i to a_i^2 - a_{i-1} a_{i+1} (with
zero boundary terms); iterating it defines the depth-k variants checked by
:func:`k_property`.  Non-positive entries are never an exception: they yield
a distinct "positivity" verdict, because a conjecture scan must record them
as a falsification signal rather than crash.

Every sequence is decided on ints: it enters as c·v, with ints v and one
positive unit c, and every predicate is invariant under positive scaling and
L homogeneous of degree 2.  The input is in one of two number families:

  dyadic    a :class:`~bmtk.bmcoeff.CoeffRow` (v its integer vector
            4^m d_i(m), c = 4^-m) or Dyadic values alone (c = 2^-E, E the
            largest exponent); witnesses print as Dyadic values
  rational  ints and Fractions (c = 1/D, D the lcm of the denominators, an
            int's being 1); witnesses print through Fraction, so integral
            values print as ints

and any other mix, such as ints with Dyadic values, raises TypeError.  Dyadic
and Fraction values return only in witness strings.

An enclosure of an entry x at a precision of ``bits`` bits is a triple of
ints (lo, hi, k) with

    lo·2^k <= x < hi·2^k,   hi <= 2^bits:

at level 0, lo is x scaled to its top ``bits`` bits and hi = lo + 1.  Every
quad (a, b, c, d) is decided on enclosures as x_a·x_b < x_c·x_d; the
padding index reads the enclosure (1, 1, 0) of the exact number 1.  A quad
is certified when hi_a·hi_b is at most lo_c·lo_d (each scaled by its powers
of two); with every lo positive this proves lhs < rhs, strict or not.  The padding's hi = 1 is not above the 1 it
pads, but the other factor's bound stays strict (x_a < hi_a·2^k_a), so the
left product is still strictly below the bound.  Where every lo is positive,
so is every entry; squares and products are then monotone in the entries,
and L maps enclosures to enclosures:

    lo'_i = lo_i^2 - hi_{i-1} hi_{i+1},    hi'_i = hi_i^2 - lo_{i-1} lo_{i+1}

over the smaller of the two terms' exponents (only the term with the larger
one is shifted), after which lo' is rounded down and hi' up to ``bits``
bits, so each exact iterate lies inside the iterated enclosures.

The exponent gaps between the two sides of these formulas double at each
level, so shifting by them would cost time and memory exponential in the
depth.  None is needed past 2·bits: every hi is at most 2^bits and every lo
at least 1, so a product of one or two of them lies in [1, 2^(2·bits)].  A
comparison whose sides' exponents differ by more than 2·bits is decided by
that difference alone (the larger side is the larger product).  In L, when
2k_i exceeds k_{i-1} + k_{i+1} by more than 2·bits, the neighbour product
lies strictly between 0 and 2^(2k_i), one unit of the square, so the entry
is enclosed by (lo_i^2 - 1, hi_i^2, 2k_i); in the opposite case the square
lies strictly between 0 and one unit of the neighbour product, so the entry
is enclosed by (-hi_{i-1} hi_{i+1}, 1 - lo_{i-1} lo_{i+1}, k_{i-1} + k_{i+1}),
whose lo is negative.  So an enclosure level costs the same at any depth.

The enclosure phase climbs a ladder of precisions, 30 bits (one CPython
digit, so most products stay within two), then 64, then 128.  Each rung
builds its enclosures from level 0, steps L without certifying through the
levels a lower rung proved, and certifies from the first level none proved.
A level proved on a lower rung is proved, and a higher rung's enclosures of
a level lie inside the lower rung's (level 0 truncates each entry further
down, and L and the outward rounding keep that order), so their lo's are
positive too and L may step them.  An enclosure's relative width doubles at
each level, so a row misses at the first level past its rung's reach: at 30
bits level 12 or later up to m=128, then level 5 at m=163, 4 at m=400, 3 at
m=1000 and 2 at m=2000, 3000 and 4000, at 64 bits level 50 at m=100, 36 at
m=400 and 9 at m=2000, at 128 bits level 115 at m=100, 79 at m=2000 and 68
at m=4000 (the strict ratio comparisons).

:func:`k_property` runs in two phases.  On each rung the enclosure phase
goes on to the next level's enclosures while every lo is positive and every
comparison certified; if all k levels are certified, or level 0 is and the
sequence has no comparisons (length <= 2, where L only squares the entries),
the success verdict is proved.  Otherwise, from the first level j that no
rung certified, the exact phase divides v by its gcd (the scale-free
enclosures need none) and iterates L exactly from level 0, checking only
levels j and after, since those below are proved.  Exact levels form both
products of every comparison exactly, so every failing verdict and its
witness come from exact products.  The bits of an exact iterate double at
each level, so before each exact step the phase raises ValueError if the
entries to square hold more than 2^22 bits in total (the steps up to that
size take about a second); the error names the first level that neither
phase decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .bmcoeff import CoeffRow
from .exactnum import Dyadic, exact_str

__all__ = [
    "ExactValue",
    "ExactSequence",
    "Witness",
    "PropertyVerdict",
    "PROPERTIES",
    "is_log_concave",
    "is_spiral",
    "is_ratio_monotone",
    "is_unimodal_midpeak",
    "l_operator",
    "k_property",
]

ExactValue = Union[Dyadic, Fraction, int]
ExactSequence = Sequence[ExactValue]

LOG_CONCAVE = "log-concave"
SPIRAL = "spiral"
RATIO_MONOTONE = "ratio-monotone"
UNIMODAL_MIDPEAK = "unimodal-midpeak"


@dataclass(frozen=True)
class Witness:
    """Where a predicate first fails, re-checkable from the stored data.

    ``kind`` is "comparison" (the exact lhs/rhs of the violated comparison,
    with the sequence positions involved) or "positivity" (the first
    non-positive entry).
    """

    kind: str
    indices: tuple[int, ...]
    lhs: str = ""
    rhs: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "i": self.indices[0],
            "indices": list(self.indices),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class PropertyVerdict:
    property: str
    strict: bool
    holds: bool
    level: int = 0
    witness: Witness | None = None

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "strict": self.strict,
            "holds": self.holds,
            "level": self.level,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _integer_form(seq: CoeffRow | ExactSequence) -> tuple[Sequence[int], Callable[[int, int], str]]:
    """Ints v with seq_i = c·v_i for one unit c > 0, and the printer
    ``show(p, power)`` of p·c^power in the input's number family.

    The dyadic family is a CoeffRow (v its ``scaled`` vector, c = 4^-m) or
    Dyadic values only (c = 2^-E, E the largest exponent), printed as Dyadic.
    The rational family is ints and Fractions (c = 1/D, D the lcm of the
    denominators, an int's being 1), printed through Fraction, so integral
    values print as ints.  Any other mix raises TypeError.
    """
    if isinstance(seq, CoeffRow):
        values, e = seq.scaled, 2 * seq.m
    else:
        kinds = {type(x) for x in seq}
        if kinds <= {int, Fraction}:
            d = math.lcm(*(x.denominator for x in seq))
            return [x.numerator * (d // x.denominator) for x in seq], (
                lambda p, power: exact_str(Fraction(p, d**power))
            )
        if kinds != {Dyadic}:
            raise TypeError("entries must be Dyadic values only, or ints and Fractions")
        e = max(x.exp for x in seq)
        values = [x.num << e - x.exp for x in seq]
    return values, lambda p, power: str(Dyadic(p, e * power))


# The enclosure phase's precisions in bits, tried in this order: one CPython
# digit, then 64, then 128.
_RUNGS = (30, 64, 128)

# The most bits, summed over its entries, that an exact iterate may hold
# before L squares it.
_EXACT_BITS = 1 << 22

# (lo, hi, k): an entry x with lo·2^k <= x < hi·2^k
Enclosure = tuple[int, int, int]

# The enclosure of the exact number 1, which a comparison's padding index
# m + 1 reads.
_ONE: Enclosure = (1, 1, 0)


def _enclosures(values: Sequence[int], bits: int) -> list[Enclosure]:
    """Per int x, the enclosure ``(lo, lo + 1, k)`` with
    ``lo·2^k <= x < (lo + 1)·2^k``, where ``lo`` is the top ``bits`` bits of
    x, and x itself shifted up to ``bits`` bits (k < 0) when it is shorter."""
    bounds = []
    for x in values:
        k = x.bit_length() - bits
        lo = x >> k if k >= 0 else x << -k
        bounds.append((lo, lo + 1, k))
    return bounds


Quads = list[tuple[int, int, int, int]]


def _log_concave_quads(m: int) -> Quads:
    return [(i - 1, i + 1, i, i) for i in range(1, m)]


def _spiral_quads(m: int) -> Quads:
    # walk m, 0, m-1, 1, m-2, 2, ... down to floor(m/2)
    order = [t // 2 if t % 2 else m - t // 2 for t in range(m + 1)]
    return [(a, m + 1, c, m + 1) for a, c in zip(order, order[1:])]


def _ratio_quads(m: int) -> Quads:
    # front chain: a_{i-1}/a_{m-i} <= a_i/a_{m-1-i}, then last ratio <= 1
    half = m // 2
    quads = [(i - 1, m - 1 - i, i, m - i) for i in range(1, half)]
    quads.append((half - 1, m + 1, m - half, m + 1))
    # reflected chain: a_{m-i}/a_i <= a_{m-1-i}/a_{i+1}, then last ratio <= 1
    rhalf = (m - 1) // 2
    quads += [(m - i, i + 1, m - 1 - i, i) for i in range(rhalf)]
    quads.append((m - rhalf, m + 1, rhalf, m + 1))
    return quads


def _unimodal_quads(m: int) -> Quads:
    peak = m // 2
    return [(i, m + 1, i + 1, m + 1) for i in range(peak)] + [
        (i + 1, m + 1, i, m + 1) for i in range(peak, m)
    ]


# Per property: its comparisons on a_0..a_m with m >= 2 (there are none when
# m < 2), each an index quad (a, b, c, d) that must hold as
# a_a·a_b <= a_c·a_d (< when strict), a one-entry side padded with the index
# m + 1 of an exact 1; and the strictness it always uses (None: the caller's).
_COMPARISONS: dict[str, tuple[Callable[[int], Quads], bool | None]] = {
    LOG_CONCAVE: (_log_concave_quads, None),
    SPIRAL: (_spiral_quads, False),
    RATIO_MONOTONE: (_ratio_quads, None),
    UNIMODAL_MIDPEAK: (_unimodal_quads, True),
}


def is_log_concave(seq: ExactSequence, strict: bool = False) -> PropertyVerdict:
    """a_i^2 >= a_{i-1} a_{i+1} (strict: >) at every interior index."""
    return k_property(seq, 1, LOG_CONCAVE, strict)


def is_spiral(seq: ExactSequence) -> PropertyVerdict:
    """The interleaved end-to-middle chain, non-strict."""
    return k_property(seq, 1, SPIRAL)


def is_ratio_monotone(seq: ExactSequence, strict: bool = False) -> PropertyVerdict:
    """Both reflected-ratio chains, each ending at (strictly) below one.

    Adjacent ratio comparisons are checked in cross-multiplied form
    a_{i-1} a_{m-1-i} <= a_i a_{m-i} and a_{m-i} a_{i+1} <= a_{m-1-i} a_i.
    """
    return k_property(seq, 1, RATIO_MONOTONE, strict)


def is_unimodal_midpeak(seq: ExactSequence) -> PropertyVerdict:
    """Strictly increasing to index floor(m/2), strictly decreasing after."""
    return k_property(seq, 1, UNIMODAL_MIDPEAK)


def l_operator(seq: ExactSequence) -> tuple[ExactValue, ...]:
    """Map a_i to a_i^2 - a_{i-1} a_{i+1}, boundary neighbors taken as zero.

    Preserves length; both endpoints map to their squares.  Dyadic input
    stays dyadic (the type is closed under +, -, *).
    """
    n = len(seq) - 1
    out = []
    for i in range(n + 1):
        b = seq[i] * seq[i]
        if 0 < i < n:
            b = b - seq[i - 1] * seq[i + 1]
        out.append(b)
    return tuple(out)


PROPERTIES: dict[str, Callable[..., PropertyVerdict]] = {
    LOG_CONCAVE: is_log_concave,
    SPIRAL: is_spiral,
    RATIO_MONOTONE: is_ratio_monotone,
    UNIMODAL_MIDPEAK: is_unimodal_midpeak,
}


def _squared(bound: Enclosure, bits: int) -> Enclosure:
    """The enclosure of an end entry's image under L, its square, rounded to
    ``bits`` bits."""
    lo, hi, k = bound
    lo, hi, k = lo * lo, hi * hi, 2 * k
    s = hi.bit_length() - bits
    return (lo >> s, -(-hi >> s), k + s) if s > 0 else (lo, hi, k)


def _l_enclosure(bounds: list[Enclosure], bits: int) -> list[Enclosure]:
    """Enclosures of the image under L of every sequence inside ``bounds``.

    Needs every ``lo`` positive.  Interior entry i gets
    ``lo_i^2 - hi_{i-1} hi_{i+1}`` and ``hi_i^2 - lo_{i-1} lo_{i+1}`` over the
    smaller exponent of the two terms (the term with the larger one is
    shifted), then ``lo`` rounded down and ``hi`` up to ``bits`` bits.  Past a
    gap of ``2·bits`` between the two terms' exponents, the smaller term lies
    in (0, 1) units of the larger one's, and is taken as such.
    """
    if len(bounds) < 3:
        return [_squared(bound, bits) for bound in bounds]
    gap = 2 * bits
    out = [_squared(bounds[0], bits)]
    for (lo_l, hi_l, k_l), (lo, hi, k), (lo_r, hi_r, k_r) in zip(bounds, bounds[1:], bounds[2:]):
        k_side = k_l + k_r
        d = 2 * k - k_side
        if 0 <= d <= gap:
            lo, hi, k = (lo * lo << d) - hi_l * hi_r, (hi * hi << d) - lo_l * lo_r, k_side
        elif -gap <= d < 0:
            lo, hi, k = lo * lo - (hi_l * hi_r << -d), hi * hi - (lo_l * lo_r << -d), 2 * k
        elif d > 0:  # 0 < x_{i-1} x_{i+1} < 2^(2k)
            lo, hi, k = lo * lo - 1, hi * hi, 2 * k
        else:  # 0 < x_i^2 < 2^k_side
            lo, hi, k = -hi_l * hi_r, 1 - lo_l * lo_r, k_side
        s = hi.bit_length() - bits
        if s > 0:
            lo, hi, k = lo >> s, -(-hi >> s), k + s
        out.append((lo, hi, k))
    out.append(_squared(bounds[-1], bits))
    return out


def _certify(bounds: list[Enclosure], quads: Quads, bits: int) -> bool:
    """True when every ``lo`` is positive and ``bounds``, followed by the
    enclosure of 1, prove every comparison in ``quads``: then every sequence
    inside ``bounds`` passes them all.

    Quad (a, b, c, d) is proved when hi_a·hi_b is at most lo_c·lo_d, each
    scaled by its powers of two: the left product is strictly below the
    first, the right one at least the second, so lhs < rhs holds, strict or
    not.  Both products lie in [1, 2^(2·bits)], so a power-of-two gap wider
    than ``2·bits`` between the sides decides without a shift.
    """
    if any(lo <= 0 for lo, _, _ in bounds):
        return False
    bounds = [*bounds, _ONE]
    gap = 2 * bits
    for a, b, c, d in quads:
        _, hi_a, k_a = bounds[a]
        _, hi_b, k_b = bounds[b]
        lo_c, _, k_c = bounds[c]
        lo_d, _, k_d = bounds[d]
        shift = k_a + k_b - k_c - k_d
        if shift >= 0:
            if shift > gap or hi_a * hi_b << shift > lo_c * lo_d:
                return False
        elif shift >= -gap and hi_a * hi_b > lo_c * lo_d << -shift:
            return False
    return True


def _exact_witness(
    prop: str, current: Sequence[int], quads: Quads, strict: bool, show: Callable[[int, int], str]
) -> Witness | None:
    """The first non-positive entry of the exact iterate ``current``, else the
    first comparison it violates, both of its products formed exactly; else
    None.  ``show(p, t)`` prints the product p of t entries of the iterate.

    The quads read ``current`` followed by 1, as :func:`_certify` reads the
    enclosures followed by that of 1; a side is one entry when its second
    index is that of the 1, and the witness names only the entries.
    """
    for i, x in enumerate(current):
        if x <= 0:
            return Witness("positivity", (i,), lhs=show(x, 1), rhs="0")
    one = len(current)
    entries = [*current, 1]
    for a, b, c, d in quads:
        left, right = entries[a] * entries[b], entries[c] * entries[d]
        if left < right if strict else left <= right:
            continue
        if b == one:  # one entry a side
            return Witness("comparison", (a, c), lhs=show(left, 1), rhs=show(right, 1))
        if prop == LOG_CONCAVE:  # reported as a_i^2 >= a_{i-1} a_{i+1}
            return Witness("comparison", (c, a, b), lhs=show(right, 2), rhs=show(left, 2))
        return Witness("comparison", (a, b, c, d), lhs=show(left, 2), rhs=show(right, 2))
    return None


def k_property(
    seq: CoeffRow | ExactSequence, k: int, prop: str, strict: bool = False
) -> PropertyVerdict:
    """Check ``prop`` on the first k iterates (levels 0..k-1) of the
    squared-difference operator.

    Returns the first failing level's verdict (a "positivity" witness marks
    an iterate that stopped being positive), or a success verdict carrying
    the deepest level checked.  ``k=1`` is exactly the direct predicate.

    The input is a CoeffRow, Dyadic values alone, or ints and Fractions;
    any other mix raises TypeError.  Decided on ints in two phases (see the
    module docstring): enclosures, whose levels cost the same at any depth,
    then from their first miss the exact iterates, refused with ValueError
    once an iterate to square holds more than 2^22 bits.  Witness strings
    are exact values of the input's own iterates.
    """
    if k < 1:
        raise ValueError(f"depth must be >= 1, got {k}")
    if prop not in _COMPARISONS:
        raise ValueError(f"unknown property {prop!r}")
    comparisons, fixed = _COMPARISONS[prop]
    strict = strict if fixed is None else fixed
    values, show = _integer_form(seq)
    quads = comparisons(len(values) - 1) if len(values) > 2 else []
    missed = 0  # the first level that no rung proved
    for bits in _RUNGS:
        bounds = _enclosures(values, bits)
        for _ in range(missed):  # levels a lower rung proved
            bounds = _l_enclosure(bounds, bits)
        while _certify(bounds, quads, bits):
            missed += 1
            # with no comparison (length <= 2), L only squares the entries,
            # so once level 0 is positive every level holds
            if missed == k or not quads:
                return PropertyVerdict(prop, strict, True, k - 1)
            bounds = _l_enclosure(bounds, bits)
    g = math.gcd(*values) or 1
    current = [v // g for v in values]
    for level in range(k):
        if level:
            if sum(x.bit_length() for x in current) > _EXACT_BITS:
                raise ValueError(
                    f"level {max(level, missed)}: the exact iterate to square holds over "
                    f"{_EXACT_BITS} bits"
                )
            current = l_operator(current)
        if level >= missed:
            witness = _exact_witness(
                prop, current, quads, strict,
                lambda p, t: show(p * g ** (t << level), t << level),
            )
            if witness is not None:
                return PropertyVerdict(prop, strict, False, level, witness)
    return PropertyVerdict(prop, strict, True, k - 1)
