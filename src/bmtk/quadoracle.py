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
The rule never evaluates the integrand at 0 or 1.

The right-hand side is computed in exact rational arithmetic (the polynomial
value at the exact binary rational the float a denotes) and converted to
binary64 only for the final comparison.  Binary64 is ample: the integrands
are smooth, positive and rapidly decaying, and the target is 1e-8 relative.
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
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .bmcoeff import CoeffRow, closed_form_row, eval_poly

__all__ = [
    "QuadResult",
    "SweepCell",
    "QuadratureConvergenceError",
    "quartic_integral",
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


def _kronrod_gauss(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """The 15-point Kronrod and 7-point Gauss values of the integral of f on
    [a, b], from the same 15 evaluations."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fs = [f(c + h * x) for x in _NODES]
    return h * sum(map(mul, _K15, fs)), h * sum(map(mul, _G7, fs[1::2]))


def _adaptive_gauss_kronrod(
    f: Callable[[float], float], lo: float, hi: float, tol: float
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


def _exact_rhs(row: CoeffRow, a_exact: Fraction) -> float:
    """pi / (2^(m+3/2) (a+1)^(m+1/2)) * P_m(a) for the row of P_m, rounded
    only at the end."""
    m = row.m
    p_value = eval_poly(row, a_exact)
    base = a_exact + 1
    exact_part = p_value / ((1 << m) * base**m)
    return math.pi * float(exact_part) / (2.0 * math.sqrt(2.0 * float(base)))


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
    power = 4 * m + 2

    def integrand(x: float) -> float:
        d = (1.0 - x) * (1.0 + x)
        return (1.0 + x**power) / (d * d + two_b * (x * x)) ** (m + 1)

    try:
        value, err, converged = _adaptive_gauss_kronrod(integrand, 0.0, 1.0, tol)
        rhs = _exact_rhs(closed_form_row(m) if row is None else row, Fraction(a))
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


def identity_sweep(
    m_max: int, a_values: Sequence[float], tol: float = 1e-10
) -> list[SweepCell]:
    """Run the identity check over the (m, a) grid, flagging any cell whose
    relative deviation exceeds 10*tol; per-cell failures, a convergence
    failure or a ValueError from :func:`quartic_integral`, are recorded as
    flagged cells, not raised.  Each m's row is built once, for all its a."""
    cells = []
    if not a_values:
        return cells
    for m in range(m_max + 1):
        row = closed_form_row(m)
        for a in a_values:
            try:
                result = quartic_integral(m, a, tol, row=row)
            except QuadratureConvergenceError as exc:
                cells.append(SweepCell(m, a, exc.result, str(exc), True))
            except ValueError as exc:
                cells.append(SweepCell(m, a, None, str(exc), True))
            else:
                flagged = result.relative_deviation > 10.0 * tol
                cells.append(SweepCell(m, a, result, None, flagged))
    return cells
