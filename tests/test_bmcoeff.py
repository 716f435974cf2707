"""Tests for row generation and exact polynomial evaluation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bmtk
from bmtk import (
    CoeffRow,
    Dyadic,
    Method,
    closed_form_row,
    double_sum_eval,
    eval_poly,
    hypergeometric_eval,
    recu1_row,
    recu2_row,
    recu3_row,
    recu4_residual,
    rows,
)
from bmtk.bmcoeff import row_csv_lines, row_to_json

from known_values import LEVEL1_8, ROW_1, ROW_2, ROW_3, ROW_8, dyadics

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=16
)


def test_closed_form_smallest_rows():
    assert closed_form_row(0).coeffs == (Dyadic(1, 0),)
    assert closed_form_row(1).coeffs == dyadics(ROW_1)
    assert closed_form_row(2).coeffs == dyadics(ROW_2)
    assert closed_form_row(3).coeffs == dyadics(ROW_3)


def test_closed_form_reference_row():
    assert closed_form_row(8).coeffs == dyadics(ROW_8)


def test_recu1_step_matches_closed_form():
    assert recu1_row(closed_form_row(1)).coeffs == dyadics(ROW_2)
    assert recu1_row(closed_form_row(7)).coeffs == dyadics(ROW_8)


def test_recu2_step_matches_closed_form():
    assert recu2_row(closed_form_row(0)).coeffs == dyadics(ROW_1)
    assert recu2_row(closed_form_row(1)).coeffs == dyadics(ROW_2)


def test_recu3_step_matches_closed_form():
    assert recu3_row(closed_form_row(0), closed_form_row(1)).coeffs == dyadics(ROW_2)
    assert recu3_row(closed_form_row(6), closed_form_row(7)).coeffs == dyadics(ROW_8)


def test_recu3_requires_consecutive_rows():
    with pytest.raises(ValueError):
        recu3_row(closed_form_row(0), closed_form_row(2))


def test_cross_method_equality_small():
    reference = rows(Method.CLOSED_FORM, 25)
    for method in (Method.RECU1, Method.RECU2, Method.RECU3):
        generated = rows(method, 25)
        for ref, got in zip(reference, generated):
            assert got.coeffs == ref.coeffs, f"{method} differs at m={ref.m}"


def test_inexact_division_past_the_int_to_str_limit():
    # str() of an int with more than 4,300 digits raises by default; the
    # error must still be the ArithmeticError of the inexact step
    corrupt = CoeffRow(2, (10**5000 + 1, 1, 1), Method.RECU1)
    with pytest.raises(ArithmeticError, match="inexact division by 3"):
        recu1_row(corrupt)


def test_top_entry_is_scaled_central_binomial():
    for m in range(61):
        top = closed_form_row(m).coeffs[m]
        assert top.as_fraction() == Fraction(math.comb(2 * m, m), 2**m)


def test_constant_term_growth_factor():
    prev = closed_form_row(0)
    for m in range(40):
        nxt = recu1_row(prev)
        assert nxt.coeffs[0].as_fraction() == (
            Fraction(4 * m + 3, 2 * (m + 1)) * prev.coeffs[0].as_fraction()
        )
        prev = nxt


def test_constant_term_double_step_ratio():
    # chaining the growth factor twice gives the two-step constant-term ratio
    for m in (0, 1, 2, 5, 9):
        r0 = closed_form_row(m).coeffs[0].as_fraction()
        r2 = closed_form_row(m + 2).coeffs[0].as_fraction()
        assert r2 == Fraction((4 * m + 7) * (4 * m + 3), 4 * (m + 2) * (m + 1)) * r0


def test_recu4_residual_vanishes_on_valid_rows():
    for m in range(21):
        row = closed_form_row(m)
        for i in range(m + 2):
            assert recu4_residual(row, i) == 0


def test_recu4_residual_weights_vanish_at_one():
    # at i=1 every weight multiplies either a zero entry or carries factor i-1
    row = closed_form_row(2)
    assert recu4_residual(row, 1) == 0


def test_recu4_residual_detects_corruption():
    row = closed_form_row(2)
    e0, e1, e2 = row.scaled
    tampered = CoeffRow(2, (e0, e1 + 4**2, e2), Method.CLOSED_FORM)  # d_1 + 1
    assert recu4_residual(tampered, 2) == Dyadic(-5, 0)


def test_recu4_residual_range():
    with pytest.raises(ValueError):
        recu4_residual(closed_form_row(2), 4)


def test_row_from_scaled_matches_row_from_dyadics():
    row = closed_form_row(8)
    rebuilt = CoeffRow(8, [num << (16 - exp) for num, exp in ROW_8], Method.CLOSED_FORM)
    assert rebuilt.scaled == row.scaled
    assert rebuilt == row
    assert CoeffRow(8, row.scaled, Method.RECU1).coeffs == dyadics(ROW_8)
    assert row.coeffs is row.coeffs  # built once
    with pytest.raises(AttributeError):
        row.m = 9


def test_row_from_scaled_validation():
    with pytest.raises(ValueError, match="needs 3 entries"):
        CoeffRow(2, (4, 4), Method.CLOSED_FORM)  # wrong length
    with pytest.raises(ValueError, match="is not positive"):
        CoeffRow(1, (4, 0), Method.CLOSED_FORM)  # not positive
    with pytest.raises(ValueError, match="is not positive"):
        CoeffRow(1, (4, -4), Method.CLOSED_FORM)
    with pytest.raises(ValueError, match="nonnegative"):
        CoeffRow(-1, (), Method.CLOSED_FORM)


def test_row_is_a_frozen_record_of_its_integer_vector():
    fields = [f.name for f in dataclasses.fields(CoeffRow)]
    assert fields == ["m", "scaled", "method"]
    row = CoeffRow(1, [1, 6], Method.RECU1)
    assert row.scaled == (1, 6)  # stored as a tuple, so the row hashes
    assert row == CoeffRow(1, (1, 6), Method.RECU1)
    assert hash(row) == hash(CoeffRow(1, (1, 6), Method.RECU1))
    assert row != CoeffRow(1, (1, 6), Method.RECU2)
    assert row.coeffs == (Dyadic(1, 2), Dyadic(3, 1))  # 1/4, 6/4
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.scaled = (4, 4)


@pytest.mark.parametrize("method", ["closed-form", "recu1", "recu2", "recu3"])
def test_json_round_trip_every_route(method):
    for row in rows(method, 60):
        obj = json.loads(json.dumps(row_to_json(row)))
        assert (obj["m"], obj["method"]) == (row.m, row.method.value)
        assert tuple(map(Dyadic.parse, obj["coeffs"])) == row.coeffs


def _binomial_sum_row(m):
    """4^m d_i(m) by the defining sum over k, evaluated term by term with
    math.comb: the O(m^2) reference for the closed form."""
    weights = [
        (1 << k) * math.comb(2 * m - 2 * k, m - k) * math.comb(m + k, k)
        for k in range(m + 1)
    ]
    return tuple(
        sum(weights[k] * math.comb(k, i) for k in range(i, m + 1))
        for i in range(m + 1)
    )


def test_closed_form_matches_binomial_sum():
    for m in [*range(201), 400]:
        assert closed_form_row(m).scaled == _binomial_sum_row(m), f"m={m}"


@pytest.mark.parametrize("m", (1000, 2000, 4000))
def test_one_step_routes_match_closed_form_at_far_m(m):
    seed = closed_form_row(m - 1)
    expected = closed_form_row(m).scaled
    assert recu1_row(seed).scaled == expected
    assert recu2_row(seed).scaled == expected


NO_TABLE_RUNS = (
    "from bmtk import closed_form_row\n"
    "closed_form_row(300)\n",
    # every other route to a binomial: the recurrences' top entries, the
    # bound checks, both evaluators and the bounds command
    "from bmtk import double_sum_eval, hypergeometric_eval, rows\n"
    "from bmtk.boundcheck import run_checks\n"
    "from bmtk.cli import main\n"
    "for method in ('closed-form', 'recu1', 'recu2', 'recu3'):\n"
    "    rows(method, 60)\n"
    "run_checks(60)\n"
    "double_sum_eval(30, 3)\n"
    "hypergeometric_eval(30, 3)\n"
    "main(['bounds', '--m', '60'])\n",
)


def test_closed_form_builds_no_binomial_table():
    src = str(Path(bmtk.__file__).resolve().parent.parent)
    probe = "print(bmtk.exactnum.default_cache().row_count)"
    for code in NO_TABLE_RUNS:
        out = subprocess.run(
            [sys.executable, "-c", f"import bmtk\n{code}{probe}"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.splitlines()[-1] == "1", code


def test_double_sum_examples():
    for a in (0, 1, -3, Fraction(7, 2)):
        assert double_sum_eval(0, a) == 1
    assert double_sum_eval(2, 1) == Fraction(63, 8)
    assert double_sum_eval(8, 0) == Dyadic(*ROW_8[0]).as_fraction()


def test_hypergeometric_examples():
    for a in (0, 1, Fraction(-5, 3)):
        assert hypergeometric_eval(0, a) == 1
    assert hypergeometric_eval(1, 1) == Fraction(5, 2)
    total = sum(Dyadic(*p).as_fraction() for p in ROW_8)
    assert hypergeometric_eval(8, 1) == total


def test_eval_poly_examples():
    row2 = closed_form_row(2)
    assert eval_poly(row2, 0) == Fraction(21, 8)
    assert eval_poly(row2, 1) == Fraction(63, 8)
    assert eval_poly(closed_form_row(0), 5) == 1


@given(st.integers(min_value=0, max_value=10), rationals)
def test_three_evaluators_agree(m, a):
    row_value = eval_poly(closed_form_row(m), a)
    assert double_sum_eval(m, a) == row_value
    assert hypergeometric_eval(m, a) == row_value


def test_negative_m_rejected():
    for fn in (closed_form_row, lambda m: double_sum_eval(m, 1), lambda m: hypergeometric_eval(m, 1)):
        with pytest.raises(ValueError):
            fn(-1)


def test_json_round_trip():
    obj = json.loads(json.dumps(row_to_json(closed_form_row(8))))
    assert obj == {
        "m": 8,
        "method": "closed-form",
        "coeffs": [f"{num}/2^{exp}" for num, exp in ROW_8],
    }
    assert obj["coeffs"][0] == "4023459/2^15"


def test_csv_lines():
    lines = list(row_csv_lines(closed_form_row(2)))
    assert lines[0] == "m,i,dyadic,decimal"
    assert lines[1] == "2,0,21/2^3,2.625"
    assert len(lines) == 4


def test_level_one_iterate_reference():
    from bmtk import l_operator

    assert l_operator(closed_form_row(8).coeffs) == dyadics(LEVEL1_8)
