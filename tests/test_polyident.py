"""Tests for sparse polynomial arithmetic and the identity suite."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmtk import closed_form_row, polyident
from bmtk.polyident import (
    REFLECTED_GAP_EXPANSION_GROUPS,
    UPPER_BOUND_EXPANSION_GROUPS,
    MultiPoly,
    grid_nonnegativity,
    group_poly,
    group_value,
    growth_quotient_denominator,
    growth_quotient_numerator,
    predecessor_ratio_denominator,
    predecessor_ratio_numerator,
    ratio_bound_denominator,
    ratio_bound_numerator,
    reflected_ratio_denominator,
    reflected_ratio_numerator,
    run_identity_suite,
    verify_predecessor_numerator,
    verify_recurrence_interderivation,
    verify_reflected_gap_expansion,
    verify_strict_growth_step,
    verify_upper_bound_expansion,
    verify_upper_bound_quotient,
)

N, I = MultiPoly.variables()

small_polys = st.builds(
    MultiPoly,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=5,
    ),
)
points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def test_product_of_conjugates():
    assert (N + I) * (N - I) == N**2 - I**2


def test_self_difference_is_zero():
    p = 3 * N**2 * I - 7 * I + 5
    assert (p - p).is_zero
    assert p - p == MultiPoly()


def test_hand_expanded_product():
    assert (4 * N + 3) * (4 * N + 5) == 16 * N**2 + 32 * N + 15


def test_pow_and_constants():
    assert (N + I) ** 3 == (N + I) * (N + I) * (N + I)
    assert (N + I) ** 0 == 1
    assert MultiPoly.constant(0).is_zero
    with pytest.raises(ValueError):
        N ** -1


def test_to_string():
    assert MultiPoly().to_string() == "0"
    assert (N**2 - I).to_string() == "1*n^2 - 1*i"


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys, small_polys, points)
def test_evaluation_is_a_homomorphism(p, q, point):
    x, y = point
    assert (p + q).evaluate(x, y) == p.evaluate(x, y) + q.evaluate(x, y)
    assert (p * q).evaluate(x, y) == p.evaluate(x, y) * q.evaluate(x, y)


def test_evaluate_accepts_fractions():
    p = 2 * N * I + 1
    assert p.evaluate(Fraction(1, 2), Fraction(1, 3)) == Fraction(4, 3)


def test_constructor_refuses_exponents_that_are_not_ints_at_least_zero():
    # a float exponent once became int(1.5) = 1, and a negative one made
    # evaluate return the float 0.5 at (2, 3)
    with pytest.raises(ValueError, match="exponents must be ints >= 0"):
        MultiPoly({(1.5, 0): 1})
    with pytest.raises(ValueError, match="exponents must be ints >= 0"):
        MultiPoly({(-1, 0): 1})
    with pytest.raises(ValueError, match="exponents must be ints >= 0"):
        MultiPoly({(0, -2): 0})
    with pytest.raises(ValueError, match="exponents must be ints >= 0"):
        grid_nonnegativity([MultiPoly({(-1, 0): -1})], "triangle", 3)


def test_constant_hashes_as_the_int_it_equals():
    for poly, value in ((MultiPoly.constant(3), 3), (MultiPoly(), 0), (N - N, 0),
                        (MultiPoly.constant(-1), -1), (3 * N**0, 3)):
        assert poly == value
        assert hash(poly) == hash(value)
    table = {3: "three", 0: "zero"}
    assert table[MultiPoly.constant(3)] == "three"
    assert table[I * 0] == "zero"
    assert {MultiPoly.constant(3): "three"}[3] == "three"
    assert hash(N + I) == hash(I + N)


def test_powers_take_one_product_per_bit_past_the_first(monkeypatch):
    products = []
    real = MultiPoly.__mul__

    def counting(p, q):
        products.append(q)
        return real(p, q)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    for power, count in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        products.clear()
        assert (N + I) ** power == functools.reduce(real, [N + I] * power, MultiPoly.constant(1))
        assert len(products) == count, power


# Reference arithmetic on plain dicts, with zeros left in: every result goes
# through the validating MultiPoly(dict), which drops them.


def _dict_sum(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return MultiPoly(out)


def _dict_product(p, q):
    out = {}
    for (a0, a1), ca in p.terms.items():
        for (b0, b1), cb in q.terms.items():
            out[a0 + b0, a1 + b1] = out.get((a0 + b0, a1 + b1), 0) + ca * cb
    return MultiPoly(out)


def _dict_scaled(p, k):
    return MultiPoly({e: k * c for e, c in p.terms.items()})


@settings(max_examples=300, deadline=None)
@given(small_polys, small_polys, st.integers(-4, 4), st.integers(0, 4))
# products and sums that cancel, and the zero scalar
@example(N + I, N - I, 0, 2)
@example(N * I - 1, N * I + 1, -1, 3)
@example(N, N, 0, 0)
def test_arithmetic_results_match_the_validating_constructor(p, q, k, power):
    kp = MultiPoly.constant(k)
    power_ref = functools.reduce(_dict_product, [p] * power, MultiPoly.constant(1))
    pairs = [
        (p + q, _dict_sum(p, q)),
        (p - q, _dict_sum(p, q, -1)),
        (p - p, MultiPoly()),
        (-p, _dict_scaled(p, -1)),
        (p * q, _dict_product(p, q)),
        (k * p, _dict_scaled(p, k)),
        (p * k, _dict_scaled(p, k)),
        (p + k, _dict_sum(p, kp)),
        (k + p, _dict_sum(p, kp)),
        (p - k, _dict_sum(p, kp, -1)),
        (k - p, _dict_sum(kp, p, -1)),
        (p**power, power_ref),
    ]
    for result, reference in pairs:
        # dict equality: a stored zero coefficient would make them differ
        assert result.terms == reference.terms
        assert 0 not in result.terms.values()
        assert all(type(e0) is int and type(e1) is int for e0, e1 in result.terms)


# -- the identity suite --------------------------------------------------------


def test_all_suite_identities_are_equal():
    for result in (
        verify_strict_growth_step(),
        verify_upper_bound_expansion(),
        verify_upper_bound_quotient(),
        verify_reflected_gap_expansion(),
        verify_predecessor_numerator(),
        verify_recurrence_interderivation(),
    ):
        assert result.equal, f"{result.identity}: difference {result.difference}"
        assert result.difference.is_zero


def test_strict_growth_step_spot_values():
    def lhs(n, i):
        return 2 * (n + i + 1) * (4 * n + 3) * (4 * n + 5) * (n + 1 - i) * (n + 1) - 2 * (
            4 * n**2 + 7 * n + i + 3
        ) * (n + 1) * (n + 1 - i) * (4 * n + 4 * i + 5)

    def rhs(n, i):
        return -4 * i * (1 + 2 * i) * (n + 1) * (n + 1 - i)

    assert lhs(3, 2) == rhs(3, 2) == -320
    assert lhs(5, 0) == rhs(5, 0) == 0


def test_upper_bound_expansion_substitution_oracle():
    # both sides evaluated in plain integer arithmetic, no MultiPoly involved
    rng = random.Random(7)
    for _ in range(25):
        n, i = rng.randint(0, 40), rng.randint(0, 40)
        lhs = ratio_bound_denominator(n, i) * growth_quotient_numerator(n, i) - (
            ratio_bound_numerator(n, i) * growth_quotient_denominator(n, i)
        )
        rhs = sum(group_value(g, n, i) for g in UPPER_BOUND_EXPANSION_GROUPS)
        assert lhs == rhs
    assert lhs != 0  # the expansion is not trivially zero


def test_upper_bound_expansion_worked_zero_case():
    # the first group collapses to zero on the diagonal
    assert group_value(UPPER_BOUND_EXPANSION_GROUPS[0], 3, 3) == 0


def test_upper_bound_quotient_substitution_oracle():
    rng = random.Random(11)
    spots = [(4, 1)] + [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(24)]
    for n, i in spots:
        q_num = (-4 * i**2 + 8 * n**2 + 24 * n + 19) * (i + 2) * (4 * n + 2 * i + 9) - (
            ratio_bound_numerator(n + 1, i)
        )
        lhs = (
            (n + 1 + i) * (4 * n + 3) * (4 * n + 5)
            * (i + 2) * (4 * n + 2 * i + 9)
            * growth_quotient_denominator(n, i)
        )
        rhs = 2 * (n + 1) * q_num * growth_quotient_numerator(n, i)
        assert lhs == rhs


def test_top_corner_closed_form_instances():
    for n in range(12):
        assert ratio_bound_numerator(n + 1, n + 1) == (
            24 * n**4 + 212 * n**3 + 692 * n**2 + 975 * n + 501
        )


def test_reflected_gap_substitution_oracle():
    rng = random.Random(13)
    spots = [(6, 3)] + [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(24)]
    for m, i in spots:
        lhs = reflected_ratio_numerator(m, i) * predecessor_ratio_denominator(m, i) - (
            predecessor_ratio_numerator(m, i) * reflected_ratio_denominator(m, i)
        )
        rhs = sum(group_value(g, m, i) for g in REFLECTED_GAP_EXPANSION_GROUPS)
        assert lhs == rhs


def test_reflected_gap_contains_pure_square_term():
    assert (800, 2, 0) in [t for g in REFLECTED_GAP_EXPANSION_GROUPS for t in g]
    total = MultiPoly()
    for g in REFLECTED_GAP_EXPANSION_GROUPS:
        total = total + group_poly(g)
    assert total.coefficient(2, 0) == 800


def test_predecessor_numerator_substitution_oracle():
    rng = random.Random(17)
    spots = [(5, 2), (3, 0)] + [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(23)]
    for m, j in spots:
        lhs = 2 * (m + 1) * ratio_bound_numerator(m, j) - (
            (4 * m + 2 * j + 3) * ratio_bound_denominator(m, j)
        )
        rhs = predecessor_ratio_numerator(m, j) * 2 * (m + 1)
        assert lhs == rhs
    assert predecessor_ratio_numerator(5, 0) == 0  # the j=0 factor


def test_interderivation_residuals_vanish_on_actual_rows():
    m, i = 5, 3
    d5 = [c.as_fraction() for c in closed_form_row(5).coeffs]
    d6 = [c.as_fraction() for c in closed_form_row(6).coeffs]
    d7 = [c.as_fraction() for c in closed_form_row(7).coeffs]
    # equated one-step/downward routes, index shifted down, cleared:
    residual_a = (
        2 * (m + i - 1) * (m + 2 - i) * d5[i - 2]
        + ((4 * m + 2 * i + 1) * (m + 2 - i) - (4 * m - 2 * i + 5) * (m + i)) * d5[i - 1]
        + 2 * i * (i - 1) * d5[i]
    )
    assert residual_a == 0
    # two-level chain with the d_{i+1} column still present:
    residual_b = (
        2 * (m + 2) * (m + 2 - i) * (m + 1) * d7[i]
        - (4 * m - 2 * i + 7) * (m + i + 2) * (m + 1) * d6[i]
        + 2 * i * (i + 1) * (m + i + 1) * d5[i]
        + i * (i + 1) * (4 * m + 2 * i + 5) * d5[i + 1]
    )
    assert residual_b == 0
    # eliminator relation for d_{i+1}:
    residual_c = (
        2 * i * (i + 1) * d5[i + 1]
        + 2 * (m + 1) * (m + 1 - i) * d6[i]
        - (m + i + 1) * (4 * m - 2 * i + 3) * d5[i]
    )
    assert residual_c == 0


# -- lattice evidence -----------------------------------------------------------


def test_grid_detects_adversarial_group():
    report = grid_nonnegativity([N - 2 * I], "triangle", 3)
    assert not report.ok
    assert (0, 1, 1, "-1") in report.violations


def test_grid_strict_mode():
    assert grid_nonnegativity([N + 1], "triangle", 3, strict=True).ok
    assert not grid_nonnegativity([N], "triangle", 3, strict=True).ok
    # nonnegative on the triangle, but zero on its diagonal or at y = 0
    for poly in (N - I, I * (N + 1 - I)):
        assert grid_nonnegativity([poly], "triangle", 3).ok
        report = grid_nonnegativity([poly], "triangle", 3, strict=True)
        assert report.violations == _grid_reference([poly], "triangle", 3, True)[1] != []


def test_grid_regions_and_validation():
    report = grid_nonnegativity([MultiPoly.constant(1)], "half", 4)
    assert report.points == sum(m // 2 + 1 for m in range(5))
    with pytest.raises(ValueError):
        grid_nonnegativity([N], "nowhere", 3)
    with pytest.raises(ValueError):
        grid_nonnegativity([N], "triangle", 0)


def _grid_reference(polys, region, bound, strict):
    """Per-point lattice walk on MultiPoly.evaluate: the reference for the
    row-wise evaluation in grid_nonnegativity."""
    points, violations = 0, []
    for x in range(bound + 1):
        for y in range(x + 1 if region == "triangle" else x // 2 + 1):
            points += 1
            for g, poly in enumerate(polys):
                value = poly.evaluate(x, y)
                if value <= 0 if strict else value < 0:
                    violations.append((g, x, y, str(value)))
    return points, violations


grid_polys = st.builds(
    MultiPoly,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-50, 50),
        max_size=6,
    ),
) | st.builds(MultiPoly.constant, st.integers(-3, 3))

# Squares and products of linear factors: many have coefficients of both
# signs yet are nonnegative on the lattice, some provably so by the
# substitution and some, with a root inside the region, only point by point.
linear_factors = st.builds(
    lambda a, b, c: a * N + b * I + c,
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-4, 4),
)
factored_polys = st.builds(lambda f: f * f, linear_factors) | st.builds(
    lambda fs: functools.reduce(operator.mul, fs),
    st.lists(linear_factors, min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(grid_polys | factored_polys, max_size=4),
    st.sampled_from(["triangle", "half"]),
    st.integers(1, 40),
    st.booleans(),
)
# the cases of the proof tests below: strict needs p(0, 0) > 0, N - 2I is
# proved on the half only, and I^2 - I is walked
@example([N + I], "triangle", 3, True)
@example([N - 2 * I], "half", 6, False)
@example([N - 2 * I], "triangle", 6, False)
@example([I**2 - I], "triangle", 4, False)
@example([I**2 - I], "triangle", 4, True)
def test_grid_matches_per_point_reference(polys, region, bound, strict):
    report = grid_nonnegativity(polys, region, bound, strict)
    assert (report.region, report.bound) == (region, bound)
    assert (report.points, report.violations) == _grid_reference(polys, region, bound, strict)


def test_grid_reports_violations_in_lattice_order():
    # a zero polynomial, a constant and a mixed-sign one, all failing
    polys = [MultiPoly(), MultiPoly.constant(-2), N * I - I**2 - 1]
    report = grid_nonnegativity(polys, "triangle", 2, strict=True)
    assert report.violations == _grid_reference(polys, "triangle", 2, True)[1]
    assert report.violations[:4] == [(0, 0, 0, "0"), (1, 0, 0, "-2"), (2, 0, 0, "-1"), (0, 1, 0, "0")]


def _shifted_reference(poly, region):
    """The region substitution by composition, as grid_nonnegativity built it
    before the binomial expansion: MultiPoly() + p.evaluate(shift, Y)."""
    T, Y = MultiPoly.variables()
    shift = Y + T if region == "triangle" else 2 * Y + T
    # evaluate returns the int 0 for the zero polynomial
    return MultiPoly() + poly.evaluate(shift, Y)


shift_polys = st.builds(
    MultiPoly,
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 3)),
        st.integers(-50, 50),
        max_size=6,
    ),
)


@settings(max_examples=300, deadline=None)
@given(shift_polys | grid_polys | factored_polys, st.sampled_from(["triangle", "half"]))
@example(MultiPoly(), "triangle")
@example(MultiPoly(), "half")
@example(MultiPoly.constant(-4), "half")
@example(MultiPoly.constant(7), "triangle")
@example(N - 2 * I, "half")
def test_shifted_terms_match_the_composed_substitution(poly, region):
    slope = 1 if region == "triangle" else 2
    shifted = polyident._shifted_terms(poly, slope)
    # dict equality, so no zero coefficient may be left in either
    assert shifted == _shifted_reference(poly, region).terms


def _walked(monkeypatch):
    """Record every point at which grid_nonnegativity evaluates a polynomial;
    its proof step reads the terms' coefficients and evaluates nothing."""
    points = []
    real = MultiPoly.evaluate

    def counting(poly, x, y):
        points.append((x, y))
        return real(poly, x, y)

    monkeypatch.setattr(MultiPoly, "evaluate", counting)
    return points


def _triangle(bound):
    return [(x, y) for x in range(bound + 1) for y in range(x + 1)]


def test_strict_proof_needs_a_positive_constant_term(monkeypatch):
    points = _walked(monkeypatch)
    # N - I + 1 is t + 1 on the triangle: positive, and proved so
    assert grid_nonnegativity([N - I + 1], "triangle", 3, strict=True).ok
    assert points == []
    # N + I is 2y + t, nonnegative, but 0 at the origin, so strict walks it
    assert grid_nonnegativity([N + I], "triangle", 3).ok
    assert points == []
    report = grid_nonnegativity([N + I], "triangle", 3, strict=True)
    assert report.violations == [(0, 0, 0, "0")]
    assert points == _triangle(3)


def test_proof_depends_on_the_region(monkeypatch):
    points = _walked(monkeypatch)
    # N - 2I is t at x = 2y + t on the half, but t - y at x = y + t on the triangle
    assert grid_nonnegativity([N - 2 * I], "half", 6).ok
    assert points == []
    report = grid_nonnegativity([N - 2 * I], "triangle", 6)
    assert (0, 1, 1, "-1") in report.violations
    assert report.violations == _grid_reference([N - 2 * I], "triangle", 6, False)[1]


def test_unproved_polynomial_is_walked_point_by_point(monkeypatch):
    points = _walked(monkeypatch)
    # y^2 - y is -1/4 at y = 1/2, so no substitution proves it, yet it is
    # 0 at y = 0 and 1 and positive at every other integer y
    assert grid_nonnegativity([I**2 - I], "triangle", 4).ok
    assert points == _triangle(4)
    report = grid_nonnegativity([I**2 - I], "triangle", 4, strict=True)
    assert report.violations == _grid_reference([I**2 - I], "triangle", 4, True)[1] != []


def test_suite_rows_are_proved_without_point_evaluation(monkeypatch):
    points = _walked(monkeypatch)
    assert all(record["grid_ok"] in (None, True) for record in run_identity_suite(200))
    assert points == []


def test_run_identity_suite_records_at_grid_200():
    assert run_identity_suite(200) == [
        {"identity": "strict-growth-step", "equal": True, "grid_ok": None},
        {"identity": "upper-bound-expansion", "equal": True, "grid_ok": True},
        {"identity": "upper-bound-quotient", "equal": True, "grid_ok": True},
        {"identity": "reflected-gap-expansion", "equal": True, "grid_ok": True},
        {"identity": "predecessor-numerator", "equal": True, "grid_ok": None},
        {"identity": "recurrence-interderivation", "equal": True, "grid_ok": None},
    ]


def test_suite_reports_identities_that_fail(monkeypatch):
    real = polyident.ratio_bound_numerator
    monkeypatch.setattr(polyident, "ratio_bound_numerator", lambda m, i: real(m, i) + 1)
    unequal = {"upper-bound-expansion", "upper-bound-quotient", "predecessor-numerator"}
    assert [(r["identity"], r["equal"]) for r in run_identity_suite(10)] == [
        (r["identity"], r["identity"] not in unequal) for r in run_identity_suite(1)
    ]
    # the quotient's own difference is caught before its top corner is checked
    assert not verify_upper_bound_quotient().equal
    # part (a) of the interderivation failing ends the check there
    residual = MultiPoly.constant(3)
    monkeypatch.setattr(polyident, "_proportional", lambda x, y: residual)
    result = verify_recurrence_interderivation()
    assert (result.equal, result.difference) == (False, residual)


def test_proportional_returns_a_residual_unless_proportional():
    proportional = polyident._proportional
    assert proportional({"x": N * (I + 1), "y": I * (I + 1)}, {"x": N, "y": I}).is_zero
    assert proportional({"x": N, "y": I}, {"x": N, "y": N}) == N * I - N**2
    # an all-zero y: x's first nonzero entry, in key order
    zero = MultiPoly()
    assert proportional({"x": zero, "y": I + 1}, {"x": zero, "y": zero}) == I + 1
    assert proportional({"y": N}, {"x": zero}) == N


def test_run_identity_suite_refuses_grid_above_cap():
    with pytest.raises(ValueError, match="grid bound must be at most 2000, got 2001"):
        run_identity_suite(2001)


def test_run_identity_suite():
    suite = run_identity_suite(grid_bound=20)
    assert len(suite) == 6
    assert all(item["equal"] for item in suite)
    assert all(item["grid_ok"] in (None, True) for item in suite)
    with_grid = [item for item in suite if item["grid_ok"] is not None]
    assert len(with_grid) == 3
