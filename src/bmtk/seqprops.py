"""Order and log-behavior predicates on finite positive sequences.

For a sequence a_0..a_m of positive exact numbers (dyadic or general
rationals; all entries of one sequence must share a type so products stay
exact and comparable):

  log-concave        a_i^2 >= a_{i-1} a_{i+1} for interior i
  spiral             a_m <= a_0 <= a_{m-1} <= a_1 <= ... <= a_{floor(m/2)}
  ratio monotone     both reflected-ratio chains hold, each ending at <= 1:
                       a_0/a_{m-1} <= a_1/a_{m-2} <= ... <= a_{floor(m/2)-1}/a_{m-floor(m/2)} <= 1
                       a_m/a_0 <= a_{m-1}/a_1 <= ... <= a_{m-floor((m-1)/2)}/a_{floor((m-1)/2)} <= 1
  unimodal mid-peak  strict rise to index floor(m/2), then strict fall

Ratio monotonicity implies both log-concavity and the spiral property.
Every comparison is a cross-multiplied product comparison, never a ratio.
On sequences of plain ints it is first decided by a certified filter on the
top 64 bits of each operand; only when the filter cannot decide are the
exact products formed, and any violation and its witness come from those
exact products.  Dyadic and rational entries always take the exact path.
The chain predicates hold vacuously on sequences of length <= 2.

The squared-difference operator maps a_i to a_i^2 - a_{i-1} a_{i+1} (with
zero boundary terms); iterating it defines the depth-k variants checked by
:func:`k_property`.  Non-positive entries are never an exception: they yield
a distinct "positivity" verdict, because a conjecture scan must record them
as a falsification signal rather than crash.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence, Union

from .exactnum import Dyadic, _int_str

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


def _exact_str(x: ExactValue) -> str:
    """``str(x)``, at any number of digits."""
    if isinstance(x, Fraction):
        num = _int_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"
    return _int_str(x) if isinstance(x, int) else str(x)


def _positivity_witness(seq: ExactSequence) -> Witness | None:
    for i, x in enumerate(seq):
        if not x > 0:
            return Witness("positivity", (i,), lhs=_exact_str(x), rhs="0")
    return None


def _verdict(prop: str, strict: bool, witness: Witness | None) -> PropertyVerdict:
    return PropertyVerdict(prop, strict, witness is None, witness=witness)


# The filter keeps this many leading bits of each operand.
_FILTER_BITS = 64


def _filter_bounds(seq: ExactSequence) -> list[tuple[int, int]] | None:
    """Per entry x, ``(lo, k)`` with ``lo·2^k <= x < (lo + 1)·2^k``,
    where ``lo`` is the top 64 bits of x (all of x when it is shorter).

    None unless every entry is a plain int: a Dyadic or Fraction witness
    needs the exact product, so those comparisons stay exact.
    """
    bounds = []
    for x in seq:
        if type(x) is not int:
            return None
        k = max(x.bit_length() - _FILTER_BITS, 0)
        bounds.append((x >> k, k))
    return bounds


def _product(seq: ExactSequence, indices: tuple[int, ...]) -> ExactValue:
    value = seq[indices[0]]
    for j in indices[1:]:
        value = value * seq[j]
    return value


def _violation(
    seq: ExactSequence,
    bounds: list[tuple[int, int]] | None,
    lhs: tuple[int, ...],
    rhs: tuple[int, ...],
    strict: bool,
) -> tuple[ExactValue, ExactValue] | None:
    """None when the product of the entries at ``lhs`` is below (strict) or
    at most the product of those at ``rhs``; otherwise both exact products.

    With ``bounds`` the comparison is first certified from the top bits: the
    left product is strictly below the product of the upper bounds, the right
    one at least the product of the lower bounds, so when the first bound is
    at most the second, lhs < rhs holds, strict or not.  Only a filter miss
    forms the exact products.
    """
    if bounds is not None:
        upper, lower, shift = 1, 1, 0
        for j in lhs:
            lo, k = bounds[j]
            upper *= lo + 1
            shift += k
        for j in rhs:
            lo, k = bounds[j]
            lower *= lo
            shift -= k
        if upper << shift <= lower if shift >= 0 else upper <= lower << -shift:
            return None
    left, right = _product(seq, lhs), _product(seq, rhs)
    if left < right if strict else left <= right:
        return None
    return left, right


def _chain_witness(
    seq: ExactSequence,
    pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    strict: bool,
) -> Witness | None:
    """First violated comparison lhs <= rhs (or < rhs when strict).

    Each pair holds the indices of the entries whose products form lhs and
    rhs; the witness lists the lhs indices, then the rhs indices.
    """
    bounds = _filter_bounds(seq)
    for lhs, rhs in pairs:
        bad = _violation(seq, bounds, lhs, rhs, strict)
        if bad is not None:
            left, right = map(_exact_str, bad)
            return Witness("comparison", lhs + rhs, lhs=left, rhs=right)
    return None


def is_log_concave(seq: ExactSequence, strict: bool = False) -> PropertyVerdict:
    """a_i^2 >= a_{i-1} a_{i+1} (strict: >) at every interior index."""
    pos = _positivity_witness(seq)
    if pos:
        return _verdict(LOG_CONCAVE, strict, pos)
    bounds = _filter_bounds(seq)
    for i in range(1, len(seq) - 1):
        bad = _violation(seq, bounds, (i - 1, i + 1), (i, i), strict)
        if bad is not None:
            product, square = map(_exact_str, bad)
            w = Witness("comparison", (i, i - 1, i + 1), lhs=square, rhs=product)
            return _verdict(LOG_CONCAVE, strict, w)
    return _verdict(LOG_CONCAVE, strict, None)


def is_spiral(seq: ExactSequence) -> PropertyVerdict:
    """The interleaved end-to-middle chain, non-strict."""
    pos = _positivity_witness(seq)
    if pos:
        return _verdict(SPIRAL, False, pos)
    m = len(seq) - 1
    if m < 2:
        return _verdict(SPIRAL, False, None)
    # walk m, 0, m-1, 1, m-2, 2, ... down to floor(m/2)
    order: list[int] = []
    lo, hi = 0, m
    while lo <= hi:
        order.append(hi)
        if lo < hi:
            order.append(lo)
        hi -= 1
        lo += 1
    pairs = [((order[t],), (order[t + 1],)) for t in range(len(order) - 1)]
    return _verdict(SPIRAL, False, _chain_witness(seq, pairs, strict=False))


def is_ratio_monotone(seq: ExactSequence, strict: bool = False) -> PropertyVerdict:
    """Both reflected-ratio chains, each ending at (strictly) below one.

    Adjacent ratio comparisons are checked in cross-multiplied form
    a_{i-1} a_{m-1-i} <= a_i a_{m-i} and a_{m-i} a_{i+1} <= a_{m-1-i} a_i.
    """
    pos = _positivity_witness(seq)
    if pos:
        return _verdict(RATIO_MONOTONE, strict, pos)
    m = len(seq) - 1
    if m < 2:
        return _verdict(RATIO_MONOTONE, strict, None)
    # front chain: a_{i-1}/a_{m-i} <= a_i/a_{m-1-i}, then last ratio <= 1
    half = m // 2
    pairs = [((i - 1, m - 1 - i), (i, m - i)) for i in range(1, half)]
    pairs.append(((half - 1,), (m - half,)))
    # reflected chain: a_{m-i}/a_i <= a_{m-1-i}/a_{i+1}, then last ratio <= 1
    rhalf = (m - 1) // 2
    pairs += [((m - i, i + 1), (m - 1 - i, i)) for i in range(rhalf)]
    pairs.append(((m - rhalf,), (rhalf,)))
    return _verdict(RATIO_MONOTONE, strict, _chain_witness(seq, pairs, strict))


def is_unimodal_midpeak(seq: ExactSequence) -> PropertyVerdict:
    """Strictly increasing to index floor(m/2), strictly decreasing after."""
    pos = _positivity_witness(seq)
    if pos:
        return _verdict(UNIMODAL_MIDPEAK, True, pos)
    m = len(seq) - 1
    if m < 2:
        return _verdict(UNIMODAL_MIDPEAK, True, None)
    peak = m // 2
    pairs = [((i,), (i + 1,)) for i in range(peak)]
    pairs += [((i + 1,), (i,)) for i in range(peak, m)]
    return _verdict(UNIMODAL_MIDPEAK, True, _chain_witness(seq, pairs, strict=True))


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

_STRICT_AWARE = {LOG_CONCAVE, RATIO_MONOTONE}


def k_property(
    seq: ExactSequence, k: int, prop: str, strict: bool = False
) -> PropertyVerdict:
    """Check ``prop`` on the first k iterates (levels 0..k-1) of the
    squared-difference operator.

    Returns the first failing level's verdict (a "positivity" witness marks
    an iterate that stopped being positive), or a success verdict carrying
    the deepest level checked.  ``k=1`` is exactly the direct predicate.
    """
    if k < 1:
        raise ValueError(f"depth must be >= 1, got {k}")
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    predicate = PROPERTIES[prop]
    current = tuple(seq)
    for level in range(k):
        if prop in _STRICT_AWARE:
            verdict = predicate(current, strict)
        else:
            verdict = predicate(current)
        if not verdict.holds:
            return replace(verdict, level=level)
        if level + 1 < k:
            current = l_operator(current)
    return replace(verdict, level=k - 1)
