"""Floating-point cross-check of the quartic integral against exact values.

The identity under test equates

    integral_0^inf dx / (x^4 + 2 a x^2 + 1)^(m+1)

with  pi / (2^(m+3/2) (a+1)^(m+1/2)) * P_m(a)  for a > -1.

Folding the improper tail:  substituting x -> 1/x on [1, inf) gives
dx -> dx/x^2 and (x^4+2ax^2+1) -> (1+2ax^2+x^4)/x^4, so the tail equals
integral_0^1 x^(4m+2)/(x^4+2ax^2+1)^(m+1) dx.  The whole integral is
therefore a proper integral over [0, 1]:

    integral_0^1 (1 + x^(4m+2)) / (x^4 + 2 a x^2 + 1)^(m+1) dx

which is what the adaptive rule integrates; no truncation tuning is needed.
The denominator is evaluated as d^2 + 2(1+a) x^2 with d = (1-x)(1+x), equal
to x^4 + 2 a x^2 + 1 but free of its cancellation near x = 1 as a -> -1 (5-7%
relative error at x = 1-1e-8 for a = -0.9999999999999998).

The rule is adaptive Gauss-Kronrod 7-15, as in QUADPACK's QAG: each panel's
value is its 15-point Kronrod sum, and its error estimate is |K15 - G7|, the
gap to the embedded 7-point Gauss sum.  That estimate bounds the error of the
Gauss sum, so it overstates the error of the Kronrod value that is returned.
The integrand is evaluated once per panel, at its 15 nodes together, and
never at 0 or 1.  Of its terms only the numerator 1 + x^(4m+2) and the
power m+1 depend on m.  A panel's 15 nodes, and its 15 denominators
d^2 + 2(1+a) x^2 at each a, are computed on first use and memoized (LRU,
``_MEMO_SIZE`` entries each): every panel is a dyadic piece of [0, 1], so
the cells of a sweep meet the same few panels at every m and reuse them.
A memoized float is the one the same expression gives on the same operands,
so every cell keeps its bits.

The right-hand side is taken at the binary rational p/q that the float a
denotes.  Its rational factor P_m(a) / (2^m (a+1)^m) is computed on
integers, as sum_i e_i p^i q^(m-i) over (p+q)^m 2^(3m) with e_i = 4^m d_i(m),
and reaches binary64 by one int/int division, which is correctly rounded;
only the final factor pi / (2 sqrt(2 (a+1))) is formed in floating point.
Binary64 is ample for the comparison: the integrands are smooth, positive
and rapidly decaying, and the target is 1e-8 relative.
Where it is not, because the integrand or the exact right-hand side overflows,
underflows to zero or is not a number, :func:`quartic_integral` raises a
ValueError naming m and a.

The tolerance ``tol`` is relative throughout: the adaptive rule stops once
its summed error estimate is at most ``tol`` times the integral estimate,
and a cell is flagged when its deviation from the exact right-hand side
exceeds ``10*tol``, again relative.  An absolute target would sit below the
ulp of the large integrals near a -> -1 and would stop far too early on the
tiny ones at large a.  The rule splits at most ``MAX_SPLITS`` (4096) panels
per integral.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from operator import mul
from typing import Callable, Sequence

from .bmcoeff import CoeffRow, _horner, closed_form_row
from .bmcoeff import eval_poly  # noqa: F401  perfbench's tracer patches it here

__all__ = [
    "QuadResult",
    "SweepCell",
    "QuadratureConvergenceError",
    "quartic_integral",
    "sweep_cell",
    "identity_sweep",
]

MAX_SPLITS = 4096


@dataclass(frozen=True)
class QuadResult:
    m: int
    a: float
    integral_estimate: float
    rhs_value: float
    abs_error_estimate: float
    relative_deviation: float

    def to_json(self) -> dict:
        return asdict(self)


class QuadratureConvergenceError(RuntimeError):
    """Tolerance unreached within the subdivision budget; carries the best
    estimate produced so far."""

    def __init__(self, message: str, result: QuadResult) -> None:
        super().__init__(message)
        self.result = result


# The 7-point Gauss and 15-point Kronrod rules on [-1, 1]: the nonnegative
# Kronrod nodes, largest first; the Gauss nodes are the odd-indexed ones.
KRONROD_NODES = (
    0.991455371120812639206854697526,
    0.949107912342758524526189684048,
    0.864864423359769072789712788641,
    0.741531185599394439863864773281,
    0.586087235467691130294144838259,
    0.405845151377397166906606412077,
    0.207784955007898467600689403773,
    0.0,
)
KRONROD_WEIGHTS = (
    0.0229353220105292249637320080590,
    0.0630920926299785532907006631892,
    0.104790010322250183839876322542,
    0.140653259715525918745189590510,
    0.169004726639267902826583426599,
    0.190350578064785409913256402421,
    0.204432940075298892414161999235,
    0.209482141084727828012999174892,
)
GAUSS_WEIGHTS = (
    0.129484966168869693270611432679,
    0.279705391489276667901467771424,
    0.381830050505118944950369775489,
    0.417959183673469387755102040816,
)
# all 15 nodes from -1 to 1, so the Gauss nodes sit at the odd positions
_NODES = tuple(-x for x in KRONROD_NODES) + KRONROD_NODES[-2::-1]
_K15 = KRONROD_WEIGHTS + KRONROD_WEIGHTS[-2::-1]
_G7 = GAUSS_WEIGHTS + GAUSS_WEIGHTS[-2::-1]

# The most panels, and separately the most (2(1+a), panel) pairs, whose
# nodes and denominators are kept.  A sweep of m <= 40 over 8 values of a
# meets 37 panels in 118 pairs.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def _nodes(lo: float, hi: float) -> tuple[float, ...]:
    """The 15 nodes of the panel [lo, hi], in ``_NODES`` order."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    return tuple([c + h * x for x in _NODES])


@lru_cache(maxsize=_MEMO_SIZE)
def _quartic_terms(
    two_b: float, lo: float, hi: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The nodes of the panel [lo, hi] and the quartic's denominators
    d^2 + two_b x^2, d = (1-x)(1+x), at them; two_b is 2(1+a).

    Panel ends are nonnegative and two_b positive, so keys that compare
    equal have the same bits (no -0.0 meets a 0.0)."""
    xs = _nodes(lo, hi)
    return xs, tuple([(d := (1.0 - x) * (1.0 + x)) * d + two_b * (x * x) for x in xs])


# an integrand evaluated on a whole panel [lo, hi]: its values at the
# panel's 15 nodes, in ``_NODES`` order
Panel = Callable[[float, float], list[float]]


def _kronrod_gauss(f: Panel, a: float, b: float) -> tuple[float, float]:
    """The 15-point Kronrod and 7-point Gauss values of the integral on [a, b],
    from one call of f, which returns the integrand's values at the 15 nodes
    of [a, b]; both sums use them."""
    h = 0.5 * (b - a)
    fs = f(a, b)
    return h * sum(map(mul, _K15, fs)), h * sum(map(mul, _G7, fs[1::2]))


def _adaptive_gauss_kronrod(
    f: Panel, lo: float, hi: float, tol: float
) -> tuple[float, float, bool]:
    """Worst-panel-first adaptive Gauss-Kronrod 7-15 on [lo, hi] to relative
    ``tol``.

    Each panel keeps its Kronrod value K15 and the error estimate |K15 - G7|.
    That bounds the error of the Gauss value, so it overstates the error of
    the Kronrod value returned; QUADPACK's sharper scaling of it is a
    heuristic that can understate the error, and is not used.  The panel with
    the largest estimate is split until the summed estimate is at most
    ``tol`` times the summed value or ``MAX_SPLITS`` splits are spent.
    Returns (value, error_estimate, converged), where converged means
    error_estimate <= tol * |value| on the final, recomputed figures.
    """

    def panel(a: float, b: float) -> tuple[float, float, float, float]:
        kronrod, gauss = _kronrod_gauss(f, a, b)
        return -abs(kronrod - gauss), a, b, kronrod

    heap = [panel(lo, hi)]
    total_err = -heap[0][0]
    total_val = heap[0][3]
    for _ in range(MAX_SPLITS):
        if total_err <= tol * abs(total_val):
            break
        neg_err, a, b, value = heapq.heappop(heap)
        total_err += neg_err  # removes the parent's contribution
        total_val -= value
        c = 0.5 * (a + b)
        for child in (panel(a, c), panel(c, b)):
            heapq.heappush(heap, child)
            total_err -= child[0]
            total_val += child[3]
    # recompute the final figures without incremental float drift
    value = math.fsum(item[3] for item in heap)
    err = math.fsum(-item[0] for item in heap)
    return value, err, err <= tol * abs(value)


def _exact_rhs(row: CoeffRow, a: float) -> float:
    """pi / (2^(m+3/2) (a+1)^(m+1/2)) * P_m(a) for the row of P_m, at the
    binary rational that the float a denotes.

    With a = p/q, the rational factor P_m(a) / (2^m (a+1)^m) is the integer
    sum_i e_i p^i q^(m-i) over the integer (p+q)^m 2^(3m), rounded once by
    int/int true division, which is correctly rounded and raises
    OverflowError past the binary64 range.  The float sum 1.0 + a is a+1
    correctly rounded, too.
    """
    m = row.m
    p, q = a.as_integer_ratio()
    exact_part = _horner(row.scaled, p, q) / ((p + q) ** m << 3 * m)
    return math.pi * exact_part / (2.0 * math.sqrt(2.0 * (1.0 + a)))


def quartic_integral(
    m: int, a: float, tol: float = 1e-10, *, row: CoeffRow | None = None
) -> QuadResult:
    """Adaptive quadrature of the folded integrand, compared to the exact
    right-hand side.

    ``tol`` is a relative target: the quadrature stops once its error
    estimate is at most ``tol`` times its value.  ``row`` is the closed-form
    row of m when the caller already holds it; it is built otherwise.  Raises
    ValueError outside the domain (a <= -1, m < 0, tol not in (0, 0.1), which
    also refuses nan and inf), for a row of another m, or when the integral or
    the right-hand side is not a finite, nonzero binary64 number, and
    :class:`QuadratureConvergenceError` if ``MAX_SPLITS`` splits do not bring
    the error estimate down to ``tol`` times the value.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not (math.isfinite(a) and a > -1.0):
        raise ValueError(f"the identity requires finite a > -1, got a={a}")
    if not 0.0 < tol < 0.1:  # the 10*tol flag threshold stays below 1
        raise ValueError(f"tolerance must be in (0, 0.1), got {tol}")
    if row is not None and row.m != m:
        raise ValueError(f"need the row of m={m}, got m={row.m}")

    two_b = 2.0 * (1.0 + a)

    def integrand(lo: float, hi: float) -> list[float]:
        xs, dens = _quartic_terms(two_b, lo, hi)
        return [(1.0 + x**power) / den**m1 for x, den in zip(xs, dens)]

    try:
        # float ** int converts the int to a double before it calls pow, so
        # converting the exponents once gives the same bits, and raises the
        # same OverflowError for an m past the binary64 range
        power, m1 = float(4 * m + 2), float(m + 1)
        value, err, converged = _adaptive_gauss_kronrod(integrand, 0.0, 1.0, tol)
        rhs = _exact_rhs(closed_form_row(m) if row is None else row, a)
    except (OverflowError, ZeroDivisionError):
        value = rhs = math.nan
    if not (0.0 < value < math.inf and 0.0 < rhs < math.inf):
        raise ValueError(f"m={m}, a={a} leaves the binary64 range of the quadrature")
    result = QuadResult(
        m=m,
        a=a,
        integral_estimate=value,
        rhs_value=rhs,
        abs_error_estimate=err,
        relative_deviation=abs(value - rhs) / abs(rhs),
    )
    if not converged:
        raise QuadratureConvergenceError(
            f"tolerance {tol} not reached within {MAX_SPLITS} splits "
            f"(error estimate {err:.3e})",
            result,
        )
    return result


@dataclass(frozen=True)
class SweepCell:
    m: int
    a: float
    result: QuadResult | None
    error: str | None
    flagged: bool


def sweep_cell(m: int, a: float, tol: float, *, row: CoeffRow | None = None) -> SweepCell:
    """One cell of the identity check: :func:`quartic_integral` at (m, a),
    flagged when the quadrature did not converge (its best estimate is kept,
    with the error text) or its relative deviation exceeds 10*tol.  A
    ValueError from :func:`quartic_integral` is raised."""
    try:
        result = quartic_integral(m, a, tol, row=row)
    except QuadratureConvergenceError as exc:
        return SweepCell(m, a, exc.result, str(exc), True)
    return SweepCell(m, a, result, None, result.relative_deviation > 10.0 * tol)


def identity_sweep(
    m_max: int, a_values: Sequence[float], tol: float = 1e-10
) -> list[SweepCell]:
    """:func:`sweep_cell` over the (m, a) grid; a ValueError is recorded as
    a flagged cell without a result, not raised.  Each m's row is built
    once, for all its a.  The cells share the memoized nodes of each panel
    and, per a, its denominators (see the module docstring), computed on
    first use rather than once per m; each cell has the bits that a lone
    :func:`quartic_integral` call gives."""
    cells = []
    if not a_values:
        return cells
    for m in range(m_max + 1):
        row = closed_form_row(m)
        for a in a_values:
            try:
                cells.append(sweep_cell(m, a, tol, row=row))
            except ValueError as exc:
                cells.append(SweepCell(m, a, None, str(exc), True))
    return cells
