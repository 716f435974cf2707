"""Order and log-behavior predicates on finite positive sequences.

For a sequence a_0..a_m of positive exact numbers (ints, mixed with either
dyadic or general rationals):

  log-concave        a_i^2 >= a_{i-1} a_{i+1} for interior i
  spiral             a_m <= a_0 <= a_{m-1} <= a_1 <= ... <= a_{floor(m/2)}
  ratio monotone     both reflected-ratio chains hold, each ending at <= 1:
                       a_0/a_{m-1} <= a_1/a_{m-2} <= ... <= a_{floor(m/2)-1}/a_{m-floor(m/2)} <= 1
                       a_m/a_0 <= a_{m-1}/a_1 <= ... <= a_{m-floor((m-1)/2)}/a_{floor((m-1)/2)} <= 1
  unimodal mid-peak  strict rise to index floor(m/2), then strict fall

Ratio monotonicity implies both log-concavity and the spiral property.
Every comparison is a cross-multiplied product comparison, never a ratio:
each predicate lists its comparisons once, as pairs of index tuples whose
entry products must compare lhs <= rhs (lhs < rhs when strict).  The chain
predicates hold vacuously on sequences of length <= 2.

The squared-difference operator L maps a_i to a_i^2 - a_{i-1} a_{i+1} (with
zero boundary terms); iterating it defines the depth-k variants checked by
:func:`k_property`.  Non-positive entries are never an exception: they yield
a distinct "positivity" verdict, because a conjecture scan must record them
as a falsification signal rather than crash.

Every sequence is decided on ints: it enters as c·v, with ints v and one
positive unit c, and every predicate is invariant under positive scaling and
L homogeneous of degree 2.  A :class:`~bmtk.bmcoeff.CoeffRow` enters as its
integer vector 4^m d_i(m) over the unit 4^-m.  Dyadic and Fraction values
return only in witness strings.  Each level is first decided on enclosures.
An enclosure of an entry x is a triple of ints (lo, hi, k) with

    lo·2^k <= x < hi·2^k,

kept to 64 bits: at level 0, lo is x scaled to its top 64 bits and
hi = lo + 1.  A comparison is certified when the product of its left
entries' hi's is at most the product of its right entries' lo's (each
scaled by its powers of two); with every lo positive this proves lhs < rhs,
strict or not.  Where every lo is positive, so is every entry; squares and
products are then monotone in the entries, and L maps enclosures to
enclosures:

    lo'_i = lo_i^2 - hi_{i-1} hi_{i+1},    hi'_i = hi_i^2 - lo_{i-1} lo_{i+1}

over the smaller of the two terms' exponents, after which lo' is rounded
down and hi' up to 64 bits, so each exact iterate lies inside the iterated
enclosures.

:func:`k_property` walks the levels once.  While every lo is positive and
every comparison certified, it goes on to the next level's enclosures, and
if all are certified the success verdict is proved.  At the first miss, at
level j, v is divided by its gcd (the scale-free enclosures need none) and
L iterated exactly from level j on; levels below j are proved, not checked
again.  Exact levels try each comparison on the iterate's level-0 enclosures
first, so every failing verdict and its witness come from exact products.
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


def _integer_form(seq: CoeffRow | ExactSequence) -> tuple[Sequence[int], Callable[..., str]]:
    """Ints v with seq_i = c·v_i for one unit c > 0: 4^-m for a CoeffRow (v
    its ``scaled`` vector), 1 for ints, 2^-E for Dyadics and ints (E the
    largest exponent), 1/D for Fractions and ints (D the lcm of the
    denominators).  And the printer ``show(p, indices, level)`` of
    p·c^(t·2^level), the product of the t entries at ``indices`` of an iterate
    whose int form is p, as arithmetic in the input's types prints it (a
    CoeffRow's as Dyadics).
    """
    if isinstance(seq, CoeffRow):
        values, e, plain = seq.scaled, 2 * seq.m, [False] * len(seq.scaled)
    else:
        kinds = {type(x) for x in seq} - {int}
        if kinds == {Fraction}:
            d = math.lcm(*(x.denominator for x in seq))
            return [x.numerator * (d // x.denominator) for x in seq], (
                lambda p, indices, level: exact_str(Fraction(p, d ** (len(indices) << level)))
            )
        if kinds - {Dyadic}:
            raise TypeError("entries must be ints, mixed with Dyadic or with Fraction values")
        e = max((x.exp for x in seq if type(x) is Dyadic), default=0)
        plain = [type(x) is int for x in seq]
        values = [x << e if p else x.num << e - x.exp for x, p in zip(seq, plain)]
    n = len(values) - 1

    def show(p: int, indices: tuple[int, ...], level: int) -> str:
        value = Dyadic(p, e * len(indices) << level)
        # entry i of iterate k is made from entry i alone at an end and from
        # entries i-k..i+k inside; it is an int while all of those are
        spans = (plain[i : i + 1] if i in (0, n) else plain[max(0, i - level) : i + level + 1]
                 for i in indices)
        return exact_str(value.num) if all(map(all, spans)) else str(value)

    return values, show


# An enclosure keeps this many leading bits of an entry.
_FILTER_BITS = 64

# (lo, hi, k): an entry x with lo·2^k <= x < hi·2^k
Enclosure = tuple[int, int, int]


def _enclosures(values: Sequence[int]) -> list[Enclosure]:
    """Per int x, the enclosure ``(lo, lo + 1, k)`` with
    ``lo·2^k <= x < (lo + 1)·2^k``, where ``lo`` is the top 64 bits of x, and
    x itself shifted up to 64 bits (k < 0) when it is shorter."""
    bounds = []
    for x in values:
        k = x.bit_length() - _FILTER_BITS
        lo = x >> k if k >= 0 else x << -k
        bounds.append((lo, lo + 1, k))
    return bounds


def _certified(
    bounds: list[Enclosure], lhs: tuple[int, ...], rhs: tuple[int, ...]
) -> bool:
    """True when the enclosures prove that the product of the entries at
    ``lhs`` is below the product of those at ``rhs``.

    The left product is strictly below the product of the ``hi``s, the right
    one at least the product of the ``lo``s (all positive), so when the first
    bound is at most the second, lhs < rhs holds, strict or not.
    """
    upper, lower, shift = 1, 1, 0
    for j in lhs:
        _, hi, k = bounds[j]
        upper *= hi
        shift += k
    for j in rhs:
        lo, _, k = bounds[j]
        lower *= lo
        shift -= k
    return upper << shift <= lower if shift >= 0 else upper <= lower << -shift


Pairs = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _log_concave_pairs(m: int) -> Pairs:
    return [((i - 1, i + 1), (i, i)) for i in range(1, m)]


def _spiral_pairs(m: int) -> Pairs:
    # walk m, 0, m-1, 1, m-2, 2, ... down to floor(m/2)
    order: list[int] = []
    lo, hi = 0, m
    while lo <= hi:
        order.append(hi)
        if lo < hi:
            order.append(lo)
        hi -= 1
        lo += 1
    return [((order[t],), (order[t + 1],)) for t in range(len(order) - 1)]


def _ratio_pairs(m: int) -> Pairs:
    # front chain: a_{i-1}/a_{m-i} <= a_i/a_{m-1-i}, then last ratio <= 1
    half = m // 2
    pairs = [((i - 1, m - 1 - i), (i, m - i)) for i in range(1, half)]
    pairs.append(((half - 1,), (m - half,)))
    # reflected chain: a_{m-i}/a_i <= a_{m-1-i}/a_{i+1}, then last ratio <= 1
    rhalf = (m - 1) // 2
    pairs += [((m - i, i + 1), (m - 1 - i, i)) for i in range(rhalf)]
    pairs.append(((m - rhalf,), (rhalf,)))
    return pairs


def _unimodal_pairs(m: int) -> Pairs:
    peak = m // 2
    return [((i,), (i + 1,)) for i in range(peak)] + [
        ((i + 1,), (i,)) for i in range(peak, m)
    ]


# Per property: its comparisons on a_0..a_m, each a pair of index tuples whose
# entry products must compare lhs <= rhs (lhs < rhs when strict), and the
# strictness it always uses (None: the caller's).
_COMPARISONS: dict[str, tuple[Callable[[int], Pairs], bool | None]] = {
    LOG_CONCAVE: (_log_concave_pairs, None),
    SPIRAL: (_spiral_pairs, False),
    RATIO_MONOTONE: (_ratio_pairs, None),
    UNIMODAL_MIDPEAK: (_unimodal_pairs, True),
}


def _pairs(prop: str, m: int) -> Pairs:
    """The comparisons of ``prop`` on a_0..a_m; none when m < 2."""
    return _COMPARISONS[prop][0](m) if m >= 2 else []


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


def _l_enclosure(bounds: list[Enclosure]) -> list[Enclosure]:
    """Enclosures of the image under L of every sequence inside ``bounds``.

    Needs every ``lo`` positive.  Entry i gets ``lo_i^2 - hi_{i-1} hi_{i+1}``
    and ``hi_i^2 - lo_{i-1} lo_{i+1}`` over the smaller exponent of the two
    terms, then ``lo`` rounded down and ``hi`` up to 64 bits.
    """
    n = len(bounds) - 1
    out = []
    for i, (lo, hi, k) in enumerate(bounds):
        lo, hi, k = lo * lo, hi * hi, 2 * k
        if 0 < i < n:
            lo_left, hi_left, k_left = bounds[i - 1]
            lo_right, hi_right, k_right = bounds[i + 1]
            k_side = k_left + k_right
            e = min(k, k_side)
            lo = (lo << k - e) - (hi_left * hi_right << k_side - e)
            hi = (hi << k - e) - (lo_left * lo_right << k_side - e)
            k = e
        s = hi.bit_length() - _FILTER_BITS
        if s > 0:
            lo, hi, k = lo >> s, -(-hi >> s), k + s
        out.append((lo, hi, k))
    return out


def _certify(bounds: list[Enclosure], pairs: Pairs) -> bool:
    """True when every ``lo`` is positive and every comparison in ``pairs``
    is certified: then every sequence inside ``bounds`` passes them all."""
    if any(lo <= 0 for lo, _, _ in bounds):
        return False
    return all(_certified(bounds, lhs, rhs) for lhs, rhs in pairs)


def _exact_witness(
    prop: str, current: Sequence[int], pairs: Pairs, strict: bool, show: Callable[..., str]
) -> Witness | None:
    """The first non-positive entry of the exact iterate ``current``, else the
    first comparison it violates, each tried on its enclosures first; else
    None.  ``show(p, indices)`` prints the product p of the entries at indices.
    """
    for i, x in enumerate(current):
        if x <= 0:
            return Witness("positivity", (i,), lhs=show(x, (i,)), rhs="0")
    bounds = _enclosures(current)
    for lhs, rhs in pairs:
        if _certified(bounds, lhs, rhs):
            continue
        left, right = math.prod(current[j] for j in lhs), math.prod(current[j] for j in rhs)
        if left < right if strict else left <= right:
            continue
        if prop == LOG_CONCAVE:  # reported as a_i^2 >= a_{i-1} a_{i+1}
            return Witness("comparison", rhs[:1] + lhs, lhs=show(right, rhs), rhs=show(left, lhs))
        return Witness("comparison", lhs + rhs, lhs=show(left, lhs), rhs=show(right, rhs))
    return None


def k_property(
    seq: CoeffRow | ExactSequence, k: int, prop: str, strict: bool = False
) -> PropertyVerdict:
    """Check ``prop`` on the first k iterates (levels 0..k-1) of the
    squared-difference operator.

    Returns the first failing level's verdict (a "positivity" witness marks
    an iterate that stopped being positive), or a success verdict carrying
    the deepest level checked.  ``k=1`` is exactly the direct predicate.

    Decided on ints in one walk over the levels (see the module docstring);
    witness strings are exact values of the input's own iterates.
    """
    if k < 1:
        raise ValueError(f"depth must be >= 1, got {k}")
    if prop not in _COMPARISONS:
        raise ValueError(f"unknown property {prop!r}")
    fixed = _COMPARISONS[prop][1]
    if fixed is not None:
        strict = fixed
    values, show = _integer_form(seq)
    pairs = _pairs(prop, len(values) - 1)
    bounds = _enclosures(values)
    current = None  # the exact iterate, from the first level whose enclosures miss
    for level in range(k):
        if current is None:
            if _certify(bounds, pairs):
                if level + 1 < k:
                    bounds = _l_enclosure(bounds)
                continue
            g = math.gcd(*values) or 1
            current = tuple(v // g for v in values)
            for _ in range(level):
                current = l_operator(current)
        else:
            current = l_operator(current)
        witness = _exact_witness(
            prop, current, pairs, strict,
            lambda p, indices: show(p * g ** (len(indices) << level), indices, level),
        )
        if witness is not None:
            return PropertyVerdict(prop, strict, False, level, witness)
    return PropertyVerdict(prop, strict, True, k - 1)
