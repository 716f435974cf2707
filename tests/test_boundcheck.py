"""Tests for the exact inequality suite."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bmtk import CoeffRow, binomial, boundcheck, closed_form_row, recu1_row
from bmtk.boundcheck import (
    BOUND_IDS,
    BoundRecord,
    BoundReport,
    _least_ratio,
    _lowest_terms,
    _records,
    check_endpoint_ratios,
    check_growth_lower_bound,
    check_growth_upper_bound,
    check_predecessor_bound,
    check_reflected_ratio_gap,
    check_strict_growth_bound,
    check_successor_ratio_bound,
    growth_upper_bound,
    run_checks,
)
from bmtk.polyident import (
    MultiPoly,
    predecessor_ratio_denominator,
    predecessor_ratio_numerator,
    ratio_bound_denominator,
    ratio_bound_numerator,
    reflected_ratio_denominator,
    reflected_ratio_numerator,
)


def _rows(m):
    row = closed_form_row(m)
    return row, recu1_row(row)


def test_growth_lower_bound_small_instance():
    report = check_growth_lower_bound(*_rows(2))
    assert report.all_hold
    assert [r.i for r in report.records] == [1]
    rec = report.records[0]
    assert rec.lhs == Fraction(43, 4)  # d_1(3)
    assert rec.rhs == Fraction(85, 8)
    assert rec.margin == Fraction(1, 8)
    assert report.min_ratio == Fraction(85, 86)


def test_growth_lower_bound_vacuous_at_one():
    report = check_growth_lower_bound(*_rows(1))
    assert report.all_hold
    assert report.records == []
    assert report.min_ratio is None


def test_growth_lower_bound_tightness_increases():
    ratios = {}
    for m in (10, 50, 100):
        ratios[m] = check_growth_lower_bound(*_rows(m)).min_ratio
    assert 0 < ratios[10] < ratios[50] < ratios[100] < 1


def test_strict_growth_bound_small_instance():
    report = check_strict_growth_bound(*_rows(2))
    assert report.all_hold
    equalities = [r for r in report.records if r.relation == "=="]
    assert len(equalities) == 3
    # constant-term growth: d_0(3) = (11/6) * (21/8)
    assert equalities[0].lhs == Fraction(77, 16)
    assert equalities[0].rhs == Fraction(11, 6) * Fraction(21, 8)
    # top-entry step and central-binomial form
    assert equalities[1].lhs == Fraction(35, 4)
    assert equalities[2].rhs == Fraction(math.comb(4, 2), 4)


def test_strict_growth_bound_requires_m_at_least_two():
    with pytest.raises(ValueError):
        check_strict_growth_bound(*_rows(1))


def test_successor_ratio_bound_instances():
    report = check_successor_ratio_bound(closed_form_row(2))
    assert report.all_hold
    assert [r.i for r in report.records] == [1]
    assert report.records[0].lhs == Fraction(1, 2)
    assert report.records[0].rhs == Fraction(2, 5)
    row8 = closed_form_row(8)
    rec = check_successor_ratio_bound(row8).records[0]
    assert rec.lhs == Fraction(7, 2)
    assert rec.rhs == row8.coeffs[2].as_fraction() / row8.coeffs[1].as_fraction()


def test_growth_upper_bound_values():
    assert growth_upper_bound(2, 2) == Fraction(601, 102)
    assert growth_upper_bound(2, 0) == Fraction(858, 468) == Fraction(11, 6)
    with pytest.raises(ValueError):
        growth_upper_bound(2, 3)
    with pytest.raises(ValueError):
        growth_upper_bound(2, -1)


def test_growth_upper_bound_denominator_positive_in_range():
    from bmtk.polyident import ratio_bound_denominator

    for m in range(31):
        for i in range(m + 1):
            assert ratio_bound_denominator(m, i) > 0


def test_bound_tables_match_the_polynomials():
    # the per-m tables of l32, l33 and l34 against polyident's builders on ints
    for m in range(81):
        nums, dens, preds = (
            boundcheck._table(poly, m)
            for poly in (boundcheck._BOUND_NUM, boundcheck._BOUND_DEN, boundcheck._L33_NUM)
        )
        assert len(nums) == len(dens) == len(preds) == m + 1
        for i in range(m + 1):
            num, den = ratio_bound_numerator(m, i), ratio_bound_denominator(m, i)
            assert nums[i] == num, (m, i)
            assert dens[i] == den, (m, i)
            assert preds[i] == 2 * (m + 1) * predecessor_ratio_numerator(m, i), (m, i)
            # l33's numerator as the lemma states it
            assert preds[i] == 2 * (m + 1) * num - (4 * m + 2 * i + 3) * den, (m, i)


def test_growth_upper_bound_check():
    report = check_growth_upper_bound(*_rows(2))
    assert report.all_hold
    # at i=0 the bound is exactly the growth factor: zero margin
    assert report.records[0].margin == 0
    # topmost entry: 35/4 <= (601/102)*(3/2)
    top = report.records[2]
    assert top.lhs == Fraction(35, 4)
    assert top.rhs == Fraction(601, 102) * Fraction(3, 2)
    assert top.margin == Fraction(3, 34)
    assert check_growth_upper_bound(*_rows(8)).all_hold


def test_predecessor_bound_instances():
    assert check_predecessor_bound(closed_form_row(2)).all_hold
    report5 = check_predecessor_bound(closed_form_row(5))
    assert report5.all_hold
    positivity = [r for r in report5.records if r.relation == ">" and r.rhs == 0]
    assert {r.i for r in positivity} == set(range(1, 6))
    report8 = check_predecessor_bound(closed_form_row(8))
    assert report8.all_hold
    assert any(r.i == 4 for r in report8.records)


def test_reflected_ratio_gap_matches_named_quotients():
    for m in (4, 5, 9):
        report = check_reflected_ratio_gap(m)
        assert report.all_hold
        assert [r.i for r in report.records] == list(range(m // 2 + 1))
        for rec in report.records:
            i = rec.i
            assert rec.lhs == Fraction(
                reflected_ratio_numerator(m, i), reflected_ratio_denominator(m, i)
            )
            assert rec.rhs == Fraction(
                predecessor_ratio_numerator(m, i), predecessor_ratio_denominator(m, i)
            )


def test_reflected_ratio_gap_sides_are_the_proved_quotients_for_every_m():
    # l34's two sides as check_reflected_ratio_gap forms them from its tables,
    # against the quotients whose gap verify_reflected_gap_expansion proves
    m, i = MultiPoly.variables()
    lhs_num = 2 * (2 * m - i) * ratio_bound_denominator(m, m - i)
    lhs_den = 2 * (m + 1) * predecessor_ratio_numerator(m, m - i)
    assert lhs_num * reflected_ratio_denominator(m, i) == (
        reflected_ratio_numerator(m, i) * lhs_den
    )
    rhs_num = 2 * (m + 1) * predecessor_ratio_numerator(m, i)
    rhs_den = 2 * (m + i) * ratio_bound_denominator(m, i)
    assert rhs_num * predecessor_ratio_denominator(m, i) == (
        predecessor_ratio_numerator(m, i) * rhs_den
    )
    assert reflected_ratio_denominator(m, i) == predecessor_ratio_numerator(m, m - i)


def test_reflected_gap_positive_product_instance():
    m, i = 4, 1
    assert (
        reflected_ratio_numerator(m, i) * predecessor_ratio_denominator(m, i)
        - predecessor_ratio_numerator(m, i) * reflected_ratio_denominator(m, i)
        > 0
    )


def test_endpoint_ratios():
    report2 = check_endpoint_ratios(closed_form_row(2))
    assert report2.all_hold
    low, high, closed = report2.records
    assert low.lhs == Fraction(10, 7)
    assert high.lhs == Fraction(5, 2)
    assert closed.relation == "=="
    report8 = check_endpoint_ratios(closed_form_row(8))
    assert report8.records[1].lhs == Fraction(17, 2)
    assert report8.all_hold
    # closed form against an independent binomial source
    m = 8
    expected = Fraction(math.comb(15, 8) + 8 * math.comb(16, 8), math.comb(16, 8))
    assert report8.records[2].rhs == expected


def test_chain_step_consistency():
    # the predecessor bound at j and the reflected gap at i=m-j together
    # force the cross-product chain step, checked directly on the rows
    for m in range(2, 61):
        d = [c.as_fraction() for c in closed_form_row(m).coeffs]
        for i in range(1, m // 2 + 1):
            assert d[i - 1] * d[m - 1 - i] < d[i] * d[m - i]


def test_run_checks_full_suite_over_a_range():
    for m in range(2, 61):
        for report in run_checks(m):
            assert report.all_hold, f"{report.bound_id} fails at m={m}"


def test_run_checks_selection_and_validation():
    reports = run_checks(100, ["thm21"])
    assert [r.bound_id for r in reports] == ["thm21"]
    # the published tightness figure at m=100, to six decimal places
    assert abs(reports[0].min_ratio - Fraction(998348, 10**6)) < Fraction(5, 10**7)
    with pytest.raises(ValueError):
        run_checks(5, ["thm99"])
    with pytest.raises(ValueError):
        run_checks(1, ["thm22"])
    assert run_checks(1, ["thm21"])[0].all_hold  # vacuous


def test_margin_sign_consistency_and_json():
    for report in run_checks(7):
        obj = report.to_json()
        assert list(obj) == [
            "bound",
            "m",
            "all_hold",
            "min_ratio",
            "min_ratio_decimal",
            "records",
        ]
        for rec in report.records:
            if rec.holds:
                assert rec.margin >= 0
            else:  # pragma: no cover - suite holds everywhere
                assert rec.margin <= 0
    assert report.bound_id in BOUND_IDS


def test_record_sides_are_reduced_on_read():
    unreduced = BoundRecord(3, "<", (2, 4, 0), (6, 1, 3), True, Fraction(1, 4))
    assert unreduced.lhs == Fraction(1, 2) and unreduced.rhs == Fraction(3, 4)


def _clear_memos():
    boundcheck._growth_interior.cache_clear()
    boundcheck._bound_tables.cache_clear()


def test_checks_build_one_fraction_per_record(monkeypatch):
    built = []

    def counting(make):
        def build(*args):
            built.append(args)
            return make(*args)

        return build

    # margins come from the coprime constructor, every other value from Fraction
    monkeypatch.setattr(boundcheck, "Fraction", counting(Fraction))
    monkeypatch.setattr(boundcheck, "_coprime_fraction", counting(Fraction))
    _clear_memos()
    reports = run_checks(40)
    records = [r for rep in reports for r in rep.records]
    assert all(r.holds and r.margin >= 0 for r in records)
    with_ratio = [rep.min_ratio for rep in reports if rep.min_ratio is not None]
    assert len(with_ratio) == 1  # thm21's
    # thm21's 39 interior records share thm22's margins, so build none
    shared = reports[0].records
    assert len(shared) == 39
    assert [r.margin for r in shared] == [r.margin for r in reports[1].records[:39]]
    assert all(a.margin is b.margin for a, b in zip(shared, reports[1].records))
    assert len(built) == len(records) - len(shared) + len(with_ratio)
    assert records[0].lhs > 0  # a side is built when read, not before
    assert len(built) == len(records) - len(shared) + len(with_ratio) + 1


# -- the integer-pair checks against a Fraction-chain reference -------------------


def _reference_record(i, relation, lhs, rhs):
    diff = lhs - rhs
    holds, margin = {
        ">=": (diff >= 0, diff),
        ">": (diff > 0, diff),
        "<=": (diff <= 0, -diff),
        "<": (diff < 0, -diff),
        "==": (diff == 0, -abs(diff)),
    }[relation]
    sides = [(x.numerator, x.denominator, 0) for x in (lhs, rhs)]
    return BoundRecord(i, relation, *sides, holds, margin)


def _reference_reports(row, nxt):
    """All seven checks as chains of Fraction operations on d_i(m)."""
    m, rec = row.m, _reference_record
    d = [c.as_fraction() for c in row.coeffs]
    dn = [c.as_fraction() for c in nxt.coeffs]

    def lower(i):
        return Fraction(4 * m * m + 7 * m + i + 3, 2 * (m + 1 - i) * (m + 1))

    def predecessor(j):
        numerator = 2 * (m + 1) * growth_upper_bound(m, j) - (4 * m + 2 * j + 3)
        return numerator, numerator / (2 * (m + j))

    thm21 = BoundReport("thm21", m)
    for i in range(1, m):
        bound = lower(i) * d[i]
        thm21.records.append(rec(i, ">=", dn[i], bound))
        if thm21.min_ratio is None or bound / dn[i] < thm21.min_ratio:
            thm21.min_ratio = bound / dn[i]
    thm22 = BoundReport("thm22", m, [rec(i, ">", dn[i], lower(i) * d[i]) for i in range(1, m)])
    thm22.records += [
        rec(0, "==", dn[0], Fraction(4 * m + 3, 2 * (m + 1)) * d[0]),
        rec(m, "==", dn[m], Fraction((2 * m + 3) * (2 * m + 1), 2 * (m + 1)) * d[m]),
        rec(m, "==", d[m], Fraction(binomial(2 * m, m), 1 << m)),
    ]
    l31 = BoundReport(
        "l31", m, [rec(j, ">", Fraction(m - j, j + 1), d[j + 1] / d[j]) for j in range(1, m)]
    )
    l32 = BoundReport(
        "l32", m, [rec(i, "<=", dn[i], growth_upper_bound(m, i) * d[i]) for i in range(m + 1)]
    )
    l33 = BoundReport("l33", m)
    for j in range(1, m + 1):
        numerator, coeff = predecessor(j)
        l33.records += [rec(j, ">", numerator, Fraction(0)), rec(j, "<=", d[j - 1], coeff * d[j])]
    l34 = BoundReport("l34", m)
    for i in range(m // 2 + 1):
        denom = 2 * (m + 1) * growth_upper_bound(m, m - i) - (6 * m - 2 * i + 3)
        l34.records.append(rec(i, ">", Fraction(2 * (2 * m - i)) / denom, predecessor(i)[1]))
    central = binomial(2 * m, m)
    closed = Fraction(binomial(2 * m - 1, m) + m * central, central)
    sec4 = BoundReport("sec4", m, [
        rec(1, "<", d[1] / d[0], Fraction(m)),
        rec(m - 1, ">", d[m - 1] / d[m], Fraction(m)),
        rec(m - 1, "==", d[m - 1] / d[m], closed),
    ])
    return [thm21, thm22, l31, l32, l33, l34, sec4]


_CHECKS = dict(zip(BOUND_IDS, (
    check_growth_lower_bound,
    check_strict_growth_bound,
    check_successor_ratio_bound,
    check_growth_upper_bound,
    check_predecessor_bound,
    check_reflected_ratio_gap,
    check_endpoint_ratios,
)))


def _check(bound_id, row, nxt):
    """One check called alone on rows m and m+1."""
    args = {"l31": (row,), "l33": (row,), "l34": (row.m,), "sec4": (row,)}
    return _CHECKS[bound_id](*args.get(bound_id, (row, nxt)))


def _checks(row, nxt):
    return [_check(bound_id, row, nxt) for bound_id in BOUND_IDS]


def _assert_same(reports, reference):
    assert len(reports) == len(reference)
    for report, ref in zip(reports, reference):
        assert report.to_json() == ref.to_json()
        assert report.min_ratio == ref.min_ratio
        # every side, margin and minimum ratio is built in lowest terms
        values = [v for rec in report.records for v in (rec.lhs, rec.rhs, rec.margin)]
        if report.min_ratio is not None:
            values.append(report.min_ratio)
        for value in values:
            assert math.gcd(value.numerator, value.denominator) == 1


def test_integer_pair_checks_match_fraction_reference():
    for m in range(2, 61):
        row = closed_form_row(m)
        _assert_same(run_checks(m), _reference_reports(row, recu1_row(row)))


def _perturbed(row, i, change):
    scaled = list(row.scaled)
    scaled[i] = max(1, change(scaled[i]))
    return CoeffRow(row.m, scaled, row.method)


def _on_growth_bound(row, nxt, i):
    """nxt with d_i(m+1) equal to the thm21 bound, if that is an entry."""
    m = row.m
    num = 4 * (4 * m * m + 7 * m + i + 3) * row.scaled[i]
    den = 2 * (m + 1 - i) * (m + 1)
    return None if num % den else _perturbed(nxt, i, lambda e: num // den)


def _cancelling(row, i):
    """row with e_i set so that thm21's difference at i has more factors of 2
    than its denominator den * 4^(m+1), so the margin's denominator is odd."""
    m = row.m
    num, den = 4 * m * m + 7 * m + i + 3, 2 * (m + 1 - i) * (m + 1)
    # f*den - 4*num*e = 0 mod 2^(2m+2+v+1), v the factors of 2 in den
    bits = 2 * m + 1 + (den & -den).bit_length()
    f = recu1_row(row).scaled[i]
    e = f * den // 4 * pow(num, -1, 1 << bits) % (1 << bits)
    return _perturbed(row, i, lambda _: e)


def test_integer_pair_checks_match_fraction_reference_on_failing_rows():
    changes = (lambda e: e // 2, lambda e: 2 * e, lambda e: e + 1, lambda e: e - 1)
    failing, ties = set(), set()
    for m in (2, 3, 8, 25):
        row = closed_form_row(m)
        nxt = recu1_row(row)
        pairs = []
        for change in changes:
            pairs += [(_perturbed(row, i, change), nxt) for i in range(m + 1)]
            pairs += [(row, _perturbed(nxt, i, change)) for i in range(m + 2)]
        tied = (_on_growth_bound(row, nxt, i) for i in range(1, m))
        pairs += [(row, t) for t in tied if t is not None]
        pairs.append((_perturbed(row, 1, lambda e: m * row.scaled[0]), nxt))  # d_1/d_0 = m
        if m == 3:
            cancelling = _cancelling(row, 1)
            margin = check_growth_lower_bound(cancelling, nxt).records[0].margin
            assert margin != 0 and margin.denominator % 2 == 1  # its power of two cancels
            pairs.append((cancelling, nxt))
        for pair in pairs:
            reports = _checks(*pair)
            _assert_same(reports, _reference_reports(*pair))
            records = [r for rep in reports for r in rep.records]
            failing |= {r.relation for r in records if r.margin < 0}
            ties |= {(r.relation, r.holds) for r in records if r.margin == 0}
    assert failing == {">=", ">", "<=", "<", "=="}
    # on a tie the non-strict relation holds and the strict one fails
    assert {(">=", True), (">", False), ("<=", True), ("<", False)} <= ties


# -- the memos: thm21 and thm22 share one row pair's interior, l32, l33 and l34 one m's tables


def _one(bound_id, row, nxt):
    """One check alone on rows m and m+1, and its Fraction-chain reference."""
    reference = _reference_reports(row, nxt)[BOUND_IDS.index(bound_id)]
    return _check(bound_id, row, nxt), reference


def test_memoized_checks_alone_match_the_reference():
    for m in (2, 3, 17):
        row, nxt = _rows(m)
        for bound_id in ("thm22", "thm21", "l32", "l33", "l34"):
            _clear_memos()
            report, reference = _one(bound_id, row, nxt)
            _assert_same([report], [reference])


def test_memos_alternating_between_two_row_pairs():
    first, second = _rows(9), _rows(12)
    # the same m with other values: d_3(10) changed, so thm21/thm22 must not reuse
    changed = first[0], _perturbed(first[1], 3, lambda e: e + 1)
    _clear_memos()
    for bound_id in ("thm21", "thm22", "thm22", "thm21", "l32", "l34", "l33", "l32"):
        for pair in (first, second, changed, first):
            report, reference = _one(bound_id, *pair)
            _assert_same([report], [reference])


def test_interior_memo_is_keyed_on_the_rows_values():
    row, nxt = _rows(14)
    # value-equal rows that are distinct objects, with another method
    twin, twin_next = (CoeffRow(r.m, list(r.scaled), "recu2") for r in (row, nxt))
    assert twin is not row and twin.scaled is not row.scaled and twin != row
    _clear_memos()
    reference = _reference_reports(row, nxt)
    _assert_same([check_growth_lower_bound(row, nxt)], reference[:1])
    _assert_same([check_strict_growth_bound(twin, twin_next)], reference[1:2])
    assert boundcheck._growth_interior.cache_info().hits == 1
    _assert_same([check_growth_lower_bound(twin, twin_next)], reference[:1])
    assert boundcheck._growth_interior.cache_info().hits == 2


def test_interior_memo_on_tied_rows():
    # d_i(m+1) on thm21's bound: thm21 holds with margin 0 and thm22 fails
    seen = 0
    for m in (3, 8, 25):
        row, nxt = _rows(m)
        for i in range(1, m):
            tied = _on_growth_bound(row, nxt, i)
            if tied is None:
                continue
            seen += 1
            for order in (("thm21", "thm22"), ("thm22", "thm21")):
                _clear_memos()
                for bound_id in order:
                    report, reference = _one(bound_id, row, tied)
                    _assert_same([report], [reference])
                    rec = report.records[i - 1]
                    assert rec.margin == 0 and rec.holds == (bound_id == "thm21")
    assert seen


_POSITIVE = st.integers(1, 2**2000) | st.integers(1, 2**70) | st.integers(1, 100)


@st.composite
def _ratio_lists(draw):
    """Positive pairs, with pairs near a drawn one: its ratio times a/b, with
    a and b at most 4, in longer ints that differ from it only past their top
    64 bits (exact ties when a = b and the change is 0)."""
    pairs = draw(st.lists(st.tuples(_POSITIVE, _POSITIVE), max_size=6))
    if pairs:
        for n, d in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            s, change = draw(st.integers(64, 400)), draw(st.integers(-3, 3))
            pairs.append((max(1, (a * n << s) + change), b * d << s))
    return draw(st.permutations(pairs))


# u/v then 3u/3v moved by a unit past the top 64 bits: the floor keys are
# equal, so only the exact cross-multiply orders the two
_U, _V = 0x79EEFAA4C5CE786BA33, 0x8141552B16169EEAB4B  # candidate below the least
_X, _Y = 0x15220D672B15AD9A9D, 0x1B489C80C4DE9367ED9  # candidate above the least


@example([(_U, _V), ((3 * _U << 64) - 2, 3 * _V << 64)])
@example([(_X, _Y), ((3 * _X << 64) + 1, 3 * _Y << 64)])
# equal floor keys, the smaller ratio first and last, then every key 0
@example([(5, 7), ((5 << 70) + 1, 7 << 70)])
@example([((5 << 70) + 1, 7 << 70), (5, 7)])
@example([(5, 7), ((5 << 70) - 1, 7 << 70)])
@example([((5 << 70) - 1, 7 << 70), (5, 7)])
@example([(3, 1 << 70), (1, 1 << 65), (2, 1 << 66), (1, 3 << 64)])
@example([(3 << 200, 1), (1 << 201, 1), (5 << 261, 2 << 60)])  # ratios above 2^200
# ratios far outside float range, equal values in other forms, one pair, none
@example([(1 << 3000, 1), (1, 1 << 3000), (3 << 1100, 1 << 1100)])
@example([(5, 7), (10, 14), (15 << 200, 21 << 200), ((5 << 200) - 1, 7 << 200)])
@example([(2**64 - 1, 2**64), (2**64, 2**64 + 1)])
@example([(7, 3)])
@example([])
@given(_ratio_lists())
def test_least_ratio_matches_the_fraction_minimum(pairs):
    least = _least_ratio(pairs)
    if not pairs:
        assert least is None
        return
    expected = min(Fraction(n, d) for n, d in pairs)
    assert type(least) is Fraction
    assert (least.numerator, least.denominator) == (expected.numerator, expected.denominator)


class _CountingInt(int):
    """An int that counts the products it is the left operand of."""

    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return int(self) * int(other)


def test_least_ratio_cross_multiplies_only_on_equal_keys():
    # thm21's candidates at m=100, then ratios far from them
    row, row_next = _rows(100)
    pairs = [
        (r.rhs_side[0] << 2, r.rhs_side[1] * r.lhs_side[0])
        for r in boundcheck._growth_interior(row.scaled, row_next.scaled)
    ]
    pairs += [(1 << 3000, 1), (1, 1 << 3000), (5, 7)]
    keys = [(n << 64) // d for n, d in pairs]
    assert len(set(keys)) == len(keys)
    counted = [(_CountingInt(n), _CountingInt(d)) for n, d in pairs]
    _CountingInt.products = 0
    assert _least_ratio(counted) == min(Fraction(n, d) for n, d in pairs)
    assert _CountingInt.products == 0
    tied = counted + [(_CountingInt(3), _CountingInt(1 << 3001))]  # key 0, as 1/2^3000's
    assert _least_ratio(tied) == Fraction(1, 1 << 3000)
    assert _CountingInt.products == 2


# the trailing zeros of n against shift, even and odd small, zero and signs
@example(0, 0, 1, 0)
@example(0, 0, 12, 40)
@example(-5, 9, 3, 4)  # more trailing zeros than shift
@example(7, 700, 6, 300)
@example(-(3**400), 0, 1, 0)
@example(3**300, 5, 3**150 * 5, 0)  # large odd small, as on l31 rows
@given(
    st.integers(-(2**1200), 2**1200),
    st.integers(0, 1200),
    st.integers(1, 2**600) | st.integers(1, 100),
    st.integers(0, 800),
)
def test_lowest_terms_matches_fraction(n, zeros, small, shift):
    reduced = _lowest_terms(n << zeros, small, shift)
    expected = Fraction(n << zeros, small << shift)
    assert type(reduced) is Fraction
    assert (reduced.numerator, reduced.denominator) == (expected.numerator, expected.denominator)


_SIDES = st.tuples(
    st.integers(-(2**400), 2**400) | st.integers(-40, 40),
    st.integers(1, 2**200) | st.integers(1, 64),
    st.integers(0, 300),
)


# equal values written in different forms, zero sides, even and odd smalls
@example([((2, 1, 1), (1, 1, 0))], False, 1, 0)
@example([((3, 6, 0), (1, 1, 1))], False, 1, 0)
@example([((-4, 12, 2), (-1, 3, 2))], False, 1, 0)
@example([((0, 5, 7), (0, 1, 0))], False, 1, 0)
@example([((1, 3, 0), (1, 1, 0)), ((5, 7, 3), (5, 7, 1))], False, 1, 0)
@example([((7, 1, 4), (3, 9, 2)), ((6, 4, 0), (1, 1, 0))], True, 3, 2)
@example([((5, 6, 3), (7, 6, 1)), ((-9, 4, 0), (-9, 4, 2))], False, 1, 0)  # equal smalls
@given(
    st.lists(st.tuples(_SIDES, _SIDES), max_size=4),
    st.booleans(),
    st.integers(1, 2**40) | st.integers(1, 12),
    st.integers(0, 40),
)
def test_record_matches_fraction_arithmetic(pairs, tie, factor, bits):
    batch = []
    for i, (lhs, rhs) in enumerate(pairs):
        if tie and i % 2:  # rhs is lhs's value, written with its small and shift scaled up
            n, small, shift = lhs
            rhs = n * factor << bits, small * factor, shift + bits
        batch.append((i, lhs, rhs))
    for relation in (">=", ">", "<=", "<", "=="):
        records = _records(relation, batch)
        assert len(records) == len(batch)
        for record, (i, lhs, rhs) in zip(records, batch):
            values = [Fraction(n, small << shift) for n, small, shift in (lhs, rhs)]
            expected = _reference_record(i, relation, *values)
            assert (record.i, record.relation) == (i, relation)
            assert (record.holds, record.margin) == (expected.holds, expected.margin)
            margin = record.margin
            assert type(margin) is Fraction and margin.denominator > 0
            assert math.gcd(margin.numerator, margin.denominator) == 1
            assert (record.lhs_side, record.rhs_side) == (lhs, rhs)
            assert [record.lhs, record.rhs] == values


def test_record_refuses_an_unknown_relation():
    for batch in ([], [(1, (1, 1, 0), (2, 1, 0))]):
        with pytest.raises(ValueError, match="unknown relation"):
            _records("!=", batch)


def test_record_and_report_json_past_the_digit_limit():
    # str() of an int or Fraction with more than 4,300 digits raises by default
    big, digits = 10**5000, "1" + "0" * 5000
    [record] = _records("<", [(2, (big, 7, 0), (big + 1, 7, 0))])
    assert record.to_json() == {
        "i": 2,
        "relation": "<",
        "lhs": f"{digits}/7",
        "rhs": f"{digits[:-1]}1/7",
        "holds": True,
        "margin": "1/7",
    }
    report = BoundReport("thm21", 2, [record], Fraction(big + 1, big))
    obj = report.to_json()
    assert obj["min_ratio"] == f"{digits[:-1]}1/{digits}"
    assert obj["min_ratio_decimal"] == "1.0000000000000000000"
