"""Exact number foundations: the boundary types and a reference binomial table.

Rows and checks compute on plain ints (the integer vector 4^m d_i(m)); the
types here are where exact values cross the edge of the toolkit.
:class:`Dyadic`, a canonical ``num / 2**exp`` pair, is the text form of a row
entry: it parses and prints ``<num>/2^<exp>``, converts to
:class:`fractions.Fraction`, and keeps the ring operations and the total order
that the squared-difference operator and the predicates need on dyadic
sequences.  :func:`parse_exact` reads a rational token, :func:`exact_str`
prints any exact value, and :func:`decimal_string` gives an informational
decimal; all three work past the interpreter's 4,300-digit limit on int/str
conversion.

All values are immutable and safe to share between threads or processes.
:class:`BinomialCache` (with :func:`default_cache` and :func:`binomial`) is a
reference utility that no toolkit code path uses: an additive-recurrence
table, grown on demand under a lock, independent of ``math.comb``.
"""

from __future__ import annotations

import re
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "Dyadic",
    "BinomialCache",
    "binomial",
    "default_cache",
    "decimal_string",
    "exact_str",
    "parse_exact",
]


_DYADIC_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")


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

    def __le__(self, other: "Dyadic | int") -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other: "Dyadic | int") -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other: "Dyadic | int") -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._cmp(o) >= 0

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
    default; the decimal module's conversion has no such cap and gives the
    same digits.
    """
    return str(Decimal(n))


def _parse_int(digits: str) -> int:
    """``int(digits)`` for an optionally signed run of decimal digits, also
    past the 4,300-digit limit, by the same route as :func:`_int_str`."""
    return int(Decimal(digits))


def exact_str(value: Dyadic | Fraction | int) -> str:
    """``str(value)`` of an exact value, at any number of digits."""
    if isinstance(value, Fraction):
        num = _int_str(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_int_str(value.denominator)}"
    return _int_str(value) if isinstance(value, int) else str(value)


_DIGITS = r"\d+(?:_\d+)*"
_RATIO_RE = re.compile(rf"\s*([-+]?{_DIGITS})/({_DIGITS})\s*")
_DECIMAL_RE = re.compile(
    rf"\s*[-+]?(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?\s*"
)


def parse_exact(text: str) -> Fraction:
    """The exact value of ``text``: the dyadic form ``<num>/2^<exp>``, or a
    literal that ``Fraction(text)`` accepts (``p/q``, an integer, a decimal
    with an optional exponent), at any number of digits."""
    if "/2^" in text:
        return Dyadic.parse(text).as_fraction()
    mo = _RATIO_RE.fullmatch(text)
    if mo is not None:
        den = _parse_int(mo.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(_parse_int(mo.group(1)), den)
    if _DECIMAL_RE.fullmatch(text) is None:
        raise ValueError(f"not an exact number: {text!r}")
    return Fraction(Decimal(text))


def decimal_string(value: Dyadic | Fraction | int) -> str:
    """Render an exact value as a decimal string with 20 significant digits
    (informational only; correctly rounded, never used in verdicts)."""
    if isinstance(value, Dyadic):
        num, den = value.num, 1 << value.exp
    elif isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
    else:
        num, den = int(value), 1
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(num) / Decimal(den))
