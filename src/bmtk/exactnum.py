"""Exact number foundations: the boundary types and a reference binomial table.

Rows and checks compute on plain ints (the integer vector 4^m d_i(m)); the
types here are where exact values cross the edge of the toolkit.
:class:`Dyadic`, a canonical ``num / 2**exp`` pair, is the text form of a row
entry: it parses and prints ``<num>/2^<exp>``, converts to
:class:`fractions.Fraction`, and keeps the ring operations and the total
order.  The predicates decide on ints, so these operations serve
``seqprops.l_operator`` on Dyadic input and the tests' exact reference.
:func:`as_fraction` gives any exact value as a Fraction,
:func:`parse_exact` reads a rational token, :func:`exact_str` prints any
exact value, and :func:`decimal_string` gives an informational decimal; the
last three work past the interpreter's 4,300-digit limit on int/str conversion.
Past that limit, an int is printed and a digit string read by divide and
conquer: halves that ``str()`` and ``int()`` accept, joined by one exact
multiply-add each, in time subquadratic in the digits.

All values are immutable and safe to share between threads or processes.
:class:`BinomialCache` (with :func:`default_cache` and :func:`binomial`) is a
reference utility that no toolkit code path uses: an additive-recurrence
table, grown on demand under a lock, independent of ``math.comb``.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction

__all__ = [
    "Dyadic",
    "BinomialCache",
    "as_fraction",
    "binomial",
    "default_cache",
    "decimal_string",
    "exact_str",
    "parse_exact",
]


_DYADIC_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")


@functools.total_ordering
class Dyadic:
    """Canonical dyadic rational ``num / 2**exp``.

    Canonical form: ``exp == 0``, or ``num`` is odd; zero is ``0/2^0``.
    Addition, subtraction, multiplication and comparisons are exact at any
    magnitude; there is no division.  ``int`` operands are accepted
    everywhere and promoted.
    """

    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int = 0, exp: int = 0) -> None:
        if exp < 0:
            # num / 2**exp with exp < 0 is the integer num << -exp
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0:
            # strip shared factors of two
            twos = (num & -num).bit_length() - 1
            shift = twos if twos < exp else exp
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dyadic is immutable")

    # -- text and Fraction ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse the canonical text form ``<num>/2^<exp>`` (exactly)."""
        mo = _DYADIC_RE.match(text)
        if mo is None:
            raise ValueError(f"not a dyadic literal: {text!r}")
        return cls(_parse_int(mo.group(1)), int(mo.group(2)))

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        return f"{_int_str(self.num)}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value: "Dyadic | int") -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        e = self.exp if self.exp >= o.exp else o.exp
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: "Dyadic | int") -> "Dyadic":
        return (-self) + other

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    # -- comparisons (exact, by shifting to a common denominator) ------------
    # functools.total_ordering derives <=, > and >= from __lt__ and __eq__.

    def _cmp(self, o: "Dyadic") -> int:
        e = self.exp if self.exp >= o.exp else o.exp
        a = self.num << (e - self.exp)
        b = o.num << (e - o.exp)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        o = self._coerce(other)  # type: ignore[arg-type]
        if o is NotImplemented:
            return NotImplemented
        return self._cmp(o) == 0

    def __lt__(self, other: "Dyadic | int") -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._cmp(o) < 0

    def __hash__(self) -> int:
        return hash(self.as_fraction())


class BinomialCache:
    """Triangular table of exact binomial coefficients, grown on demand.

    Rows obey the additive recurrence ``C(n,k) = C(n-1,k-1) + C(n-1,k)`` with
    ``C(n,0) = C(n,n) = 1``; out-of-range ``k`` yields 0.  Growth is guarded
    by a lock so a single instance can serve concurrent readers; per-worker
    instances are equally fine (the table is pure data).
    """

    def __init__(self, rows: int = 0) -> None:
        self._rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()
        if rows > 0:
            self.ensure_rows(rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def ensure_rows(self, n: int) -> None:
        """Grow the table so that row ``n`` exists."""
        if n < len(self._rows):
            return
        with self._lock:
            while len(self._rows) <= n:
                prev = self._rows[-1]
                row = [1] * (len(prev) + 1)
                for k in range(1, len(prev)):
                    row[k] = prev[k - 1] + prev[k]
                self._rows.append(row)

    def binomial(self, n: int, k: int) -> int:
        if n < 0:
            raise ValueError(f"binomial requires n >= 0, got n={n}")
        if k < 0 or k > n:
            return 0
        self.ensure_rows(n)
        return self._rows[n][k]


_DEFAULT_CACHE = BinomialCache()


def default_cache() -> BinomialCache:
    """The process-wide shared binomial table."""
    return _DEFAULT_CACHE


def binomial(n: int, k: int) -> int:
    """Exact ``C(n, k)`` from the shared table (0 outside ``0 <= k <= n``)."""
    return _DEFAULT_CACHE.binomial(n, k)


def _int_str(n: int) -> str:
    """``str(n)``, also past the interpreter's limit on int-to-decimal digits.

    CPython refuses ``str()`` of an int with more than 4,300 digits by
    default, with ValueError; only then is the value converted in halves by
    :func:`_int_decimal`, in a ``decimal`` context at ``MAX_PREC``, whose
    integers print at any length.  ``Decimal(n)`` alone gives the same digits
    but takes time quadratic in them: 0.8 s at 200,000 digits, where the
    halves take 0.1 s (CPython 3.11, 2-vCPU Xeon).
    """
    try:
        return str(n)
    except ValueError:
        with localcontext() as ctx:
            ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
            return ("-" if n < 0 else "") + str(_int_decimal(abs(n), {}))


def _int_decimal(n: int, powers: dict[int, Decimal]) -> Decimal:
    """The exact Decimal of an int n >= 0, in the caller's exact context:
    ``Decimal(n)`` up to 12,000 bits, else hi·2^s + lo by one exact
    multiply-add, with s the largest power of two below n's bit length, hi
    and lo converted in turn, and 2^s kept in ``powers`` for the halves that
    split at it again."""
    if n.bit_length() <= 12_000:
        return Decimal(n)
    s = 1 << (n.bit_length() - 1).bit_length() - 1
    if s not in powers:
        powers[s] = Decimal(2) ** s
    return _int_decimal(n >> s, powers).fma(powers[s], _int_decimal(n & (1 << s) - 1, powers))


def _parse_int(digits: str) -> int:
    """``int(digits)`` for an optionally signed run of decimal digits, with
    single underscores between digits, as the callers' patterns admit; also
    past the 4,300-digit limit on str-to-int conversion: a run longer than
    4,000 characters loses its underscores and is split in two, head and
    tail converted in turn and joined as ``head·10^len(tail) + tail``."""
    if len(digits) <= 4_000:
        return int(digits)
    if digits[0] in "+-":
        n = _parse_int(digits[1:])
        return -n if digits[0] == "-" else n
    digits = digits.replace("_", "")
    cut = len(digits) // 2
    return _parse_int(digits[:cut]) * 10 ** (len(digits) - cut) + _parse_int(digits[cut:])


def _coprime_fraction(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, built without a gcd.

    This is what 3.12's Fraction._from_coprime_ints does, on every version.
    Fraction(n, d, _normalize=False) (3.10 and 3.11 only) costs 1.4 us per
    call against 0.3 us here (CPython 3.11, Xeon VM).
    """
    obj = object.__new__(Fraction)
    obj._numerator, obj._denominator = n, d
    return obj


def exact_str(value: Dyadic | Fraction | int) -> str:
    """``str(value)`` of an exact value, at any number of digits."""
    if isinstance(value, Fraction):
        num = _int_str(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_int_str(value.denominator)}"
    return _int_str(value) if isinstance(value, int) else str(value)


_DIGITS = r"\d+(?:_\d+)*"
_RATIO_RE = re.compile(rf"\s*([-+]?{_DIGITS})/({_DIGITS})\s*")
_DECIMAL_RE = re.compile(
    rf"\s*([-+]?)(?:({_DIGITS})(?:\.({_DIGITS})?)?|\.({_DIGITS}))(?:[eE]([-+]?{_DIGITS}))?\s*"
)


# A token may spell at most this many decimal digits, numerator and
# denominator together (2^e counts e*log10(2)).  Converting and printing the
# value is the cost: ``check --seq 1,<token>,1 --props ratio`` took 0.9 s on
# 1e-199999 and 1/2^664000, 46 s on 1e30000000 (CPython 3.11, 2-vCPU Xeon).
_MAX_TOKEN_DIGITS = 200_000

# A whole sequence of tokens may spell at most this many digits.  Bringing
# its entries over one denominator and printing its witnesses is the cost:
# with ``--props ratio``, ``1,1e-104999,1,1e-104999,1`` took 1.0 s, and ten
# tokens alternating 1e199999 and 1e-199999 took 13 s (same machine).
_MAX_SEQ_DIGITS = 210_000
_EXPONENT_RE = re.compile(r"(?:(/2\^)|[eE])[-+]?([\d_]*)\s*$|$")


def _spelled_digits(text: str) -> float:
    """About how many decimal digits the value of ``text`` takes, read off
    the token without converting it."""
    mo = _EXPONENT_RE.search(text)
    power = (mo.group(2) or "").replace("_", "").lstrip("0")
    if len(power) > 15:
        return math.inf
    scale = math.log10(2) if mo.group(1) else 1
    return sum(map(str.isdigit, text[: mo.start()])) + int(power or 0) * scale


def parse_exact(text: str) -> Fraction:
    """The exact value of ``text``: the dyadic form ``<num>/2^<exp>``, or a
    literal that ``Fraction(text)`` accepts (``p/q``, an integer, a decimal
    with an optional exponent), at up to 200,000 decimal digits.  A token
    that spells more is refused with ValueError before it is converted.

    A decimal token's digits, point and trailing zeros removed, are read by
    :func:`_parse_int` as n, the value n / 10^scale, and the factors of 2
    and 5 that n shares with 10^scale are divided out directly: the trailing
    zero bits, then 5, 5^2, 5^4, ... while each divides n, then the same
    powers from the largest down.  That takes time that grows with the
    factors taken, where ``Fraction(Decimal(text))`` is quadratic in the
    digits: 1.4 s on 199,999 sevens, against 0.08 s here (CPython 3.11,
    2-vCPU Xeon).
    """
    if _spelled_digits(text) > _MAX_TOKEN_DIGITS:
        raise ValueError(f"{text!r} spells more than {_MAX_TOKEN_DIGITS} decimal digits")
    if "/2^" in text:
        return Dyadic.parse(text).as_fraction()
    mo = _RATIO_RE.fullmatch(text)
    if mo is not None:
        den = _parse_int(mo.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(_parse_int(mo.group(1)), den)
    mo = _DECIMAL_RE.fullmatch(text)
    if mo is None:
        raise ValueError(f"not an exact number: {text!r}")
    sign, whole, frac, bare_frac, exponent = mo.groups("")
    frac = (frac + bare_frac).replace("_", "")  # one of the two is empty
    digits = whole.replace("_", "") + frac
    kept = digits.rstrip("0")
    n = _parse_int(sign + (kept or "0"))
    # the value is n / 10^scale; each trailing zero cut off lowers the scale
    scale = len(frac) - (len(digits) - len(kept)) - _parse_int(exponent or "0")
    if scale <= 0 or not n:
        return Fraction(n * 10 ** max(-scale, 0))
    twos = min((n & -n).bit_length() - 1, scale)
    n >>= twos
    fives, powers = 0, [5]  # powers[k] = 5^(2^k)
    while fives + (1 << len(powers) - 1) <= scale and not n % powers[-1]:
        n //= powers[-1]
        fives += 1 << len(powers) - 1
        powers.append(powers[-1] ** 2)
    for k in reversed(range(len(powers) - 1)):
        if fives + (1 << k) <= scale and not n % powers[k]:
            n //= powers[k]
            fives += 1 << k
    return _coprime_fraction(n, 5 ** (scale - fives) << scale - twos)


def as_fraction(value: Dyadic | Fraction | int) -> Fraction:
    """The exact value of a Dyadic, Fraction or int, as a Fraction."""
    return value.as_fraction() if isinstance(value, Dyadic) else Fraction(value)


def decimal_string(value: Dyadic | Fraction | int) -> str:
    """Render an exact value as a decimal string with 20 significant digits
    (informational only; correctly rounded, never used in verdicts)."""
    num, den = as_fraction(value).as_integer_ratio()
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(num) / Decimal(den))
