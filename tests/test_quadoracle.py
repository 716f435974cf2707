"""Tests for the floating-point quadrature cross-check."""

import dataclasses
import math
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bmtk import quadoracle
from bmtk.bmcoeff import closed_form_row, eval_poly
from bmtk.quadoracle import (
    QuadratureConvergenceError,
    identity_sweep,
    quartic_integral,
    sweep_cell,
)

A_GRID = (-0.5, 0.0, 0.5, 1.0, 2.0, 10.0)


def test_analytic_anchor_m0():
    result = quartic_integral(0, 1.0, tol=1e-10)
    assert abs(result.integral_estimate - math.pi / 4) < 1e-9
    assert abs(result.rhs_value - math.pi / 4) < 1e-12
    assert result.relative_deviation < 1e-8


def test_analytic_anchor_m1():
    result = quartic_integral(1, 1.0, tol=1e-10)
    assert abs(result.integral_estimate - 5 * math.pi / 32) < 1e-9
    assert abs(result.rhs_value - 5 * math.pi / 32) < 1e-12
    assert result.relative_deviation < 1e-8


def test_mid_range_instance():
    result = quartic_integral(8, 0.5, tol=1e-10)
    assert result.relative_deviation < 1e-8


def test_near_boundary_instance():
    result = quartic_integral(0, -0.9, tol=1e-10)
    expected = math.pi / (2.0 * math.sqrt(2.0 * 0.1))
    assert abs(result.rhs_value - expected) < 1e-10
    assert result.relative_deviation < 1e-8


def test_grid_agreement():
    for m in range(6):
        for a in A_GRID:
            result = quartic_integral(m, a, tol=1e-10)
            assert result.relative_deviation < 1e-8, (m, a)


def test_domain_errors():
    with pytest.raises(ValueError):
        quartic_integral(0, -1.0)
    with pytest.raises(ValueError):
        quartic_integral(0, -2.0)
    with pytest.raises(ValueError):
        quartic_integral(-1, 0.5)
    with pytest.raises(ValueError):
        quartic_integral(0, 0.5, tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 1e300, 0.1, -1e-10])
def test_tolerance_outside_open_interval_is_a_value_error(tol):
    # a huge tol would stop the quadrature at one panel and the
    # 10*tol flag threshold would then pass any deviation
    with pytest.raises(ValueError, match=re.escape(f"tolerance must be in (0, 0.1), got {tol}")):
        quartic_integral(8, 0.5, tol=tol)


@pytest.mark.parametrize(
    "m, a, deviation", [(0, -0.9999999999999998, 1e-11), (3, -0.99999999, 1e-12)]
)
def test_converges_next_to_a_equal_minus_1(m, a, deviation):
    # x^4 + 2ax^2 + 1, summed as written, loses most of its digits near x = 1
    # when a is near -1, and the rule cannot reach the tolerance on that noise
    assert quartic_integral(m, a).relative_deviation < deviation


def test_out_of_binary64_range_is_a_value_error():
    # the exact right side underflows to 0.0; the integrand overflows; the
    # integrand's denominator underflows to 0.0; its exponents pass binary64
    for m, a in ((3, 1e308), (3, 1e100), (40, -0.9999999999999998), (10**400, 0.5)):
        with pytest.raises(ValueError, match=re.escape(f"m={m}, a={a} leaves the binary64")):
            quartic_integral(m, a)


def test_convergence_error_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadoracle, "MAX_SPLITS", 8)
    with pytest.raises(QuadratureConvergenceError, match="within 8 splits") as excinfo:
        quartic_integral(3, 0.3, tol=1e-30)
    result = excinfo.value.result
    assert result.integral_estimate > 0
    assert result.abs_error_estimate > 1e-30
    # the partial answer is still in the right ballpark
    assert result.relative_deviation < 1e-3


def test_budget_message_names_4096_splits():
    with pytest.raises(QuadratureConvergenceError, match="within 4096 splits"):
        quartic_integral(3, 0.3, tol=1e-30)


def _error_with_budget(monkeypatch, splits):
    monkeypatch.setattr(quadoracle, "MAX_SPLITS", splits)
    try:
        return quartic_integral(3, 0.7, tol=1e-30).abs_error_estimate
    except QuadratureConvergenceError as exc:
        return exc.result.abs_error_estimate


def test_doubling_budget_never_increases_error_estimate(monkeypatch):
    errors = [_error_with_budget(monkeypatch, 2**k) for k in range(3, 9)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse


def test_deviation_definition():
    result = quartic_integral(2, 0.25, tol=1e-10)
    expected = abs(result.integral_estimate - result.rhs_value) / abs(result.rhs_value)
    assert result.relative_deviation == expected


@pytest.mark.parametrize("a", [-0.909, 181.1])
def test_tolerance_is_relative_far_from_a_equal_1(a):
    # near a = -1 the integral is too large for an absolute 1e-10 to be
    # reachable, and at large a too small for it to mean anything
    tol = 1e-10
    result = quartic_integral(40, a, tol=tol)
    assert result.relative_deviation <= 10 * tol
    assert result.abs_error_estimate <= tol * result.integral_estimate


def test_identity_sweep_flags_nothing_far_from_a_equal_1():
    cells = identity_sweep(40, [-0.909, 181.1])
    assert len(cells) == 82
    assert not any(cell.flagged for cell in cells)
    assert all(cell.error is None for cell in cells)


def test_identity_sweep_flags_a_corrupted_coefficient(monkeypatch):
    # one d_i(m) off by 4^-m makes the exact right side disagree with the
    # quadrature at that m, and only those cells may be flagged
    real_row = quadoracle.closed_form_row

    def corrupted(m):
        row = real_row(m)
        if m != 5:
            return row
        scaled = list(row.scaled)
        scaled[2] += 1
        return type(row)(m, scaled, row.method)

    monkeypatch.setattr(quadoracle, "closed_form_row", corrupted)
    cells = identity_sweep(6, [0.5, 2.0])
    assert [(c.m, c.a) for c in cells if c.flagged] == [(5, 0.5), (5, 2.0)]
    assert all(c.error is None for c in cells)


def _deviating(monkeypatch, deviation):
    """Make every result read ``deviation``; sweep_cell, like perfbench's
    tracer, reaches quartic_integral through the module."""
    real = quadoracle.quartic_integral

    def replaced(m, a, tol, *, row=None):
        return dataclasses.replace(real(m, a, tol, row=row), relative_deviation=deviation)

    monkeypatch.setattr(quadoracle, "quartic_integral", replaced)


@pytest.mark.parametrize("above", [False, True])
def test_sweep_cell_flags_a_deviation_above_10_tol(monkeypatch, above):
    deviation = 10 * 1e-10
    if above:
        deviation = math.nextafter(deviation, math.inf)
    _deviating(monkeypatch, deviation)
    cell = sweep_cell(8, 0.5, 1e-10)
    assert (cell.result.relative_deviation, cell.error, cell.flagged) == (deviation, None, above)
    assert [c.flagged for c in identity_sweep(1, [0.5], 1e-10)] == [above, above]


def test_identity_sweep_passes():
    cells = identity_sweep(3, [-0.9, 0.0, 0.5, 1.0, 2.0], tol=1e-10)
    assert len(cells) == 20
    assert all(cell.result is not None for cell in cells)
    assert not any(cell.flagged for cell in cells)


def test_identity_sweep_empty():
    assert identity_sweep(3, []) == []


def test_identity_sweep_records_cell_failures(monkeypatch):
    monkeypatch.setattr(quadoracle, "MAX_SPLITS", 2)
    cells = identity_sweep(2, [0.5], tol=1e-30)
    assert len(cells) == 3
    assert all(cell.error is not None and cell.flagged for cell in cells)
    assert all(cell.result is not None for cell in cells)  # best estimates kept


def test_identity_sweep_records_cells_outside_binary64():
    for m, a in ((3, 1e100), (3, 1e308), (40, -0.9999999999999998)):
        cell = identity_sweep(m, [a])[-1]
        assert (cell.m, cell.a, cell.result, cell.flagged) == (m, a, None, True)
        assert cell.error == f"m={m}, a={a} leaves the binary64 range of the quadrature"


def test_quad_result_json_shape():
    result = quartic_integral(1, 1.0, tol=1e-10)
    assert list(result.to_json()) == [
        "m",
        "a",
        "integral_estimate",
        "rhs_value",
        "abs_error_estimate",
        "relative_deviation",
    ]


@pytest.mark.parametrize("k", range(23))
def test_kronrod_rule_integrates_monomials_to_degree_22(k):
    kronrod, gauss = quadoracle._kronrod_gauss(
        lambda lo, hi: [x**k for x in quadoracle._nodes(lo, hi)], 0.0, 1.0
    )
    assert abs(kronrod * (k + 1) - 1.0) <= 1e-15
    if k <= 13:
        assert abs(gauss * (k + 1) - 1.0) <= 1e-15


def test_gauss_rule_misses_degree_14():
    # so |K15 - G7|, the error estimate, is not vacuous: the Gauss error on
    # x^14 over [0, 1] is about 5.7e-9
    kronrod, gauss = quadoracle._kronrod_gauss(
        lambda lo, hi: [x**14 for x in quadoracle._nodes(lo, hi)], 0.0, 1.0
    )
    assert abs(kronrod - gauss) > 1e-9


def test_identity_sweep_deviates_at_most_1e_12_on_the_benchmark_grid():
    cells = identity_sweep(40, A_GRID + (-0.909, 181.1))
    assert len(cells) == 41 * 8
    assert all(cell.error is None for cell in cells)
    assert max(cell.result.relative_deviation for cell in cells) <= 1e-12


def test_identity_sweep_builds_each_row_once(monkeypatch):
    built = []

    def counting(m):
        built.append(m)
        return closed_form_row(m)

    monkeypatch.setattr(quadoracle, "closed_form_row", counting)
    cells = identity_sweep(6, [0.5, 2.0, -0.9])
    assert built == list(range(7))
    assert not any(cell.flagged for cell in cells)


def test_given_row_matches_the_built_row():
    for m, a in ((0, 1.0), (8, 0.5), (40, -0.909)):
        assert quartic_integral(m, a, row=closed_form_row(m)) == quartic_integral(m, a)


def test_row_of_another_m_is_a_value_error():
    with pytest.raises(ValueError, match=re.escape("need the row of m=8, got m=7")):
        quartic_integral(8, 0.5, row=closed_form_row(7))


# -- the scalar, Fraction-based formulation as a reference -------------------
#
# quartic_integral evaluates its integrand once per panel, from nodes and
# denominators memoized across cells, and its right side on integers; this is
# the same quadrature with a scalar integrand called once per node, every node
# and denominator computed afresh, and the right side in Fraction arithmetic.
# Both must give the same bits, which no digest of the benchmark checks.


def _scalar_kronrod_gauss(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fs = [f(c + h * x) for x in quadoracle._NODES]
    return h * sum(map(mul, quadoracle._K15, fs)), h * sum(map(mul, quadoracle._G7, fs[1::2]))


def _fraction_rhs(row, a_exact):
    m = row.m
    p_value = eval_poly(row, a_exact)
    base = a_exact + 1
    exact_part = p_value / ((1 << m) * base**m)
    return math.pi * float(exact_part) / (2.0 * math.sqrt(2.0 * float(base)))


def _scalar_quartic_integral(m, a, tol, *, row=None):
    """quartic_integral with a scalar integrand and the Fraction right side;
    the caller routes _adaptive_gauss_kronrod to the scalar rule."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not (math.isfinite(a) and a > -1.0):
        raise ValueError(f"the identity requires finite a > -1, got a={a}")
    if not 0.0 < tol < 0.1:
        raise ValueError(f"tolerance must be in (0, 0.1), got {tol}")
    two_b = 2.0 * (1.0 + a)
    power = 4 * m + 2

    def integrand(x):
        d = (1.0 - x) * (1.0 + x)
        return (1.0 + x**power) / (d * d + two_b * (x * x)) ** (m + 1)

    try:
        value, err, converged = quadoracle._adaptive_gauss_kronrod(integrand, 0.0, 1.0, tol)
        rhs = _fraction_rhs(closed_form_row(m) if row is None else row, Fraction(a))
    except (OverflowError, ZeroDivisionError):
        value = rhs = math.nan
    if not (0.0 < value < math.inf and 0.0 < rhs < math.inf):
        raise ValueError(f"m={m}, a={a} leaves the binary64 range of the quadrature")
    result = quadoracle.QuadResult(m, a, value, rhs, err, abs(value - rhs) / abs(rhs))
    if not converged:
        raise QuadratureConvergenceError(
            f"tolerance {tol} not reached within {quadoracle.MAX_SPLITS} splits "
            f"(error estimate {err:.3e})",
            result,
        )
    return result


def _cells(cells):
    return [(c.m, c.a, c.result, c.error, c.flagged) for c in cells]


# The benchmark's a values, those whose cells leave the binary64 range or
# converge slowly next to a = -1, and one more.
EXTENDED_A = A_GRID + (-0.909, 181.1, 1e100, 1e308, 1e15, -0.9999999999999998, 0.3)


def _reference_cells(m_max, a_values):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadoracle, "quartic_integral", _scalar_quartic_integral)
        patch.setattr(quadoracle, "_kronrod_gauss", _scalar_kronrod_gauss)
        return _cells(identity_sweep(m_max, a_values))


@pytest.mark.parametrize("splits", [quadoracle.MAX_SPLITS, 8])
def test_identity_sweep_matches_the_scalar_fraction_formulation(monkeypatch, splits):
    # 8 splits leaves most cells unconverged, with their error texts; the sweep
    # runs from an empty memo, then a full one, since a cell's bits must not
    # depend on which cells filled it
    monkeypatch.setattr(quadoracle, "MAX_SPLITS", splits)
    quadoracle._nodes.cache_clear()
    quadoracle._quartic_terms.cache_clear()
    reference = _reference_cells(60, EXTENDED_A)
    cells = _cells(identity_sweep(60, EXTENDED_A))
    assert cells == reference
    assert _cells(identity_sweep(60, EXTENDED_A)) == reference
    assert any(error for *_, error, _ in cells)


def test_denominators_keyed_on_the_panel_alone_fail_the_reference(monkeypatch):
    # a memo that ignores a hands one a's denominators to the others
    terms = quadoracle._quartic_terms.__wrapped__
    by_panel = {}

    def keyed_on_the_panel(two_b, lo, hi):
        if (lo, hi) not in by_panel:
            by_panel[lo, hi] = terms(two_b, lo, hi)
        return by_panel[lo, hi]

    monkeypatch.setattr(quadoracle, "_quartic_terms", keyed_on_the_panel)
    assert _cells(identity_sweep(60, EXTENDED_A)) != _reference_cells(60, EXTENDED_A)


def test_memo_stays_within_its_bound_over_more_a_values_than_it_holds():
    size = quadoracle._MEMO_SIZE
    a_values = [k / size for k in range(size + 1)]  # each meets the panel [0, 1]
    assert not any(cell.flagged for cell in identity_sweep(0, a_values))
    info = quadoracle._quartic_terms.cache_info()
    assert (info.maxsize, info.currsize) == (size, size)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is what must match
        return type(exc)


@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=-1.0, exclude_min=True, allow_nan=False, allow_infinity=False),
)
@example(3, 1e308)
@example(60, 1e15)
@example(40, -0.9999999999999998)
@example(60, 5e-324)
@example(0, 1.7976931348623157e308)
def test_integer_rhs_matches_the_fraction_rhs(m, a):
    row = closed_form_row(m)
    assert _outcome(quadoracle._exact_rhs, row, a) == _outcome(_fraction_rhs, row, Fraction(a))

