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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .bmcoeff import closed_form_row, eval_poly

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
        return {
            "m": self.m,
            "a": self.a,
            "integral_estimate": self.integral_estimate,
            "rhs_value": self.rhs_value,
            "abs_error_estimate": self.abs_error_estimate,
            "relative_deviation": self.relative_deviation,
        }


class QuadratureConvergenceError(RuntimeError):
    """Tolerance unreached within the subdivision budget; carries the best
    estimate produced so far."""

    def __init__(self, message: str, result: QuadResult) -> None:
        super().__init__(message)
        self.result = result


def _adaptive_simpson(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, bool]:
    """Worst-panel-first adaptive Simpson on [lo, hi] to relative ``tol``.

    Each panel keeps its refined two-half Simpson value and the Richardson
    error estimate |S_halves - S_whole|/15; the panel with the largest
    estimate is split until the summed estimate is at most ``tol`` times the
    summed value or ``MAX_SPLITS`` splits are spent.  Returns
    (value, error_estimate, converged), where converged means
    error_estimate <= tol * |value| on the final, recomputed figures.
    """

    def make_panel(a: float, b: float, fa: float, fm: float, fb: float):
        h = b - a
        whole = h / 6.0 * (fa + 4.0 * fm + fb)
        lm = f(a + h / 4.0)
        rm = f(b - h / 4.0)
        left = h / 12.0 * (fa + 4.0 * lm + fm)
        right = h / 12.0 * (fm + 4.0 * rm + fb)
        err = abs(left + right - whole) / 15.0
        return err, (a, b, fa, fm, fb, lm, rm, left, right)

    mid = 0.5 * (lo + hi)
    counter = 0
    err0, data0 = make_panel(lo, hi, f(lo), f(mid), f(hi))
    heap = [(-err0, counter, data0)]
    total_err = err0
    total_val = data0[7] + data0[8]
    for _ in range(MAX_SPLITS):
        if total_err <= tol * abs(total_val):
            break
        neg_err, _, data = heapq.heappop(heap)
        a, b, fa, fm, fb, lm, rm, left, right = data
        total_err += neg_err  # removes the parent's contribution
        total_val -= left + right
        c = 0.5 * (a + b)
        for sub in ((a, c, fa, lm, fm), (c, b, fm, rm, fb)):
            err, child = make_panel(*sub)
            counter += 1
            heapq.heappush(heap, (-err, counter, child))
            total_err += err
            total_val += child[7] + child[8]
    # recompute the final figures without incremental float drift
    value = math.fsum(item[2][7] + item[2][8] for item in heap)
    err = math.fsum(-item[0] for item in heap)
    return value, err, err <= tol * abs(value)


def _exact_rhs(m: int, a_exact: Fraction) -> float:
    """pi / (2^(m+3/2) (a+1)^(m+1/2)) * P_m(a), rounded only at the end."""
    p_value = eval_poly(closed_form_row(m), a_exact)
    base = a_exact + 1
    exact_part = p_value / ((1 << m) * base**m)
    return math.pi * float(exact_part) / (2.0 * math.sqrt(2.0 * float(base)))


def quartic_integral(m: int, a: float, tol: float = 1e-10) -> QuadResult:
    """Adaptive quadrature of the folded integrand, compared to the exact
    right-hand side.

    ``tol`` is a relative target: the quadrature stops once its error
    estimate is at most ``tol`` times its value.  Raises ValueError outside
    the domain (a <= -1, m < 0, tol not in (0, 0.1), which also refuses nan
    and inf) or when the integral or the right-hand side is not a finite,
    nonzero binary64 number, and :class:`QuadratureConvergenceError` if
    ``MAX_SPLITS`` splits do not bring the error estimate down to ``tol``
    times the value.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not (math.isfinite(a) and a > -1.0):
        raise ValueError(f"the identity requires finite a > -1, got a={a}")
    if not 0.0 < tol < 0.1:  # the 10*tol flag threshold stays below 1
        raise ValueError(f"tolerance must be in (0, 0.1), got {tol}")

    two_a = 2.0 * a
    power = 4 * m + 2

    def integrand(x: float) -> float:
        xx = x * x
        return (1.0 + x**power) / (xx * xx + two_a * xx + 1.0) ** (m + 1)

    try:
        value, err, converged = _adaptive_simpson(integrand, 0.0, 1.0, tol)
        rhs = _exact_rhs(m, Fraction(a))
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
    flagged cells, not raised."""
    cells = []
    for m in range(m_max + 1):
        for a in a_values:
            try:
                result = quartic_integral(m, a, tol)
            except QuadratureConvergenceError as exc:
                cells.append(SweepCell(m, a, exc.result, str(exc), True))
            except ValueError as exc:
                cells.append(SweepCell(m, a, None, str(exc), True))
            else:
                flagged = result.relative_deviation > 10.0 * tol
                cells.append(SweepCell(m, a, result, None, flagged))
    return cells
