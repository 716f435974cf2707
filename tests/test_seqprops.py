"""Tests for the sequence property predicates and the iterated operator."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmtk import (
    Dyadic,
    closed_form_row,
    is_log_concave,
    is_ratio_monotone,
    is_spiral,
    is_unimodal_midpeak,
    k_property,
    l_operator,
)
from bmtk.seqprops import LOG_CONCAVE, RATIO_MONOTONE, UNIMODAL_MIDPEAK

from known_values import LEVEL1_8, ROW_8, dyadics

SPIRAL_NOT_LC = (2, 10, 3, 1)
LC_NOT_SPIRAL = (3, 5, 4, 2, 1)

positive_seqs = st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=7)


def test_log_concave_examples():
    assert is_log_concave(LC_NOT_SPIRAL).holds
    assert is_log_concave((1, 1)).holds
    verdict = is_log_concave(SPIRAL_NOT_LC)
    assert not verdict.holds
    assert verdict.witness.kind == "comparison"
    assert verdict.witness.indices[0] == 2
    assert (verdict.witness.lhs, verdict.witness.rhs) == ("9", "10")


def test_log_concave_strict_plateau():
    geometric = (1, 2, 4)  # equality case
    assert is_log_concave(geometric).holds
    assert not is_log_concave(geometric, strict=True).holds


def test_spiral_examples():
    assert is_spiral(SPIRAL_NOT_LC).holds
    assert not is_spiral(LC_NOT_SPIRAL).holds
    assert is_spiral(dyadics(ROW_8)).holds


def test_ratio_monotone_examples():
    assert is_ratio_monotone(dyadics(ROW_8), strict=True).holds
    assert not is_ratio_monotone(SPIRAL_NOT_LC).holds
    assert is_ratio_monotone((1, 1, 1)).holds
    assert not is_ratio_monotone((1, 1, 1), strict=True).holds


def test_unimodal_midpeak_examples():
    assert is_unimodal_midpeak(dyadics(ROW_8)).holds
    assert not is_unimodal_midpeak((1, 2, 2, 1)).holds  # plateau
    assert not is_unimodal_midpeak(LC_NOT_SPIRAL).holds  # peak off middle


def test_positivity_is_a_verdict_not_an_exception():
    for predicate in (is_log_concave, is_spiral, is_ratio_monotone, is_unimodal_midpeak):
        verdict = predicate((1, -1, 2))
        assert not verdict.holds
        assert verdict.witness.kind == "positivity"
        assert verdict.witness.indices == (1,)


def test_chain_predicates_vacuous_on_short_sequences():
    # length <= 2: no chain comparisons are considered to exist
    for seq in ((5,), (5, 1), (1, 5)):
        assert is_ratio_monotone(seq, strict=True).holds
        assert is_spiral(seq).holds
        assert is_unimodal_midpeak(seq).holds
        assert is_log_concave(seq, strict=True).holds


def test_l_operator_examples():
    assert l_operator((1, 1)) == (1, 1)
    assert l_operator((1, 2, 1)) == (1, 3, 1)
    assert l_operator(dyadics(ROW_8)) == dyadics(LEVEL1_8)


@given(st.lists(st.fractions(max_denominator=8), min_size=1, max_size=8))
def test_l_operator_length_and_endpoints(seq):
    out = l_operator(seq)
    assert len(out) == len(seq)
    assert out[0] == seq[0] * seq[0]
    assert out[-1] == seq[-1] * seq[-1]


def test_k_property_examples():
    assert k_property(dyadics(ROW_8), 2, RATIO_MONOTONE, strict=True).holds
    direct = is_log_concave(SPIRAL_NOT_LC)
    depth1 = k_property(SPIRAL_NOT_LC, 1, LOG_CONCAVE)
    assert (depth1.holds, depth1.witness) == (direct.holds, direct.witness)
    failing = k_property(SPIRAL_NOT_LC, 2, LOG_CONCAVE)
    assert not failing.holds
    assert failing.level == 0


def test_k_property_success_reports_deepest_level():
    verdict = k_property(dyadics(ROW_8), 2, RATIO_MONOTONE, strict=True)
    assert verdict.holds
    assert verdict.level == 1


def test_k_property_positivity_failure_at_deeper_level():
    # the iterate of a geometric sequence has an interior zero
    verdict = k_property((1, 2, 4), 2, LOG_CONCAVE)
    assert not verdict.holds
    assert verdict.level == 1
    assert verdict.witness.kind == "positivity"


def test_k_property_argument_validation():
    with pytest.raises(ValueError):
        k_property((1, 2), 0, LOG_CONCAVE)
    with pytest.raises(ValueError):
        k_property((1, 2), 1, "no-such-property")


def test_verdict_json_shape():
    verdict = is_log_concave(SPIRAL_NOT_LC)
    obj = verdict.to_json()
    assert list(obj) == ["property", "strict", "holds", "level", "witness"]
    assert obj["witness"]["i"] == 2
    assert is_log_concave((1, 2)).to_json()["witness"] is None


@given(positive_seqs)
def test_ratio_monotone_implies_log_concave_and_spiral(seq):
    if is_ratio_monotone(seq).holds:
        assert is_log_concave(seq).holds
        assert is_spiral(seq).holds


def test_generated_rows_are_strictly_ratio_monotone():
    # strict ratio monotonicity is proven for every m >= 2; these rows are
    # regression oracles for it, the implication chain, and the mid-peak shape
    for m in range(2, 31):
        row = closed_form_row(m).coeffs
        assert is_ratio_monotone(row, strict=True).holds
        assert is_log_concave(row, strict=True).holds
        assert is_spiral(row).holds
        assert is_unimodal_midpeak(row).holds


def test_mixed_fraction_sequences_work():
    seq = tuple(Fraction(x, 7) for x in SPIRAL_NOT_LC)
    assert is_spiral(seq).holds
    assert not is_log_concave(seq).holds


def _expand_roots(roots):
    """Coefficients of prod (x + r): a real-rooted positive sequence, so its
    L-iterates stay positive and the deeper levels get exercised."""
    coeffs = [1]
    for r in roots:
        coeffs = [a * r + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


int_seqs = st.one_of(
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=9),
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=8).map(_expand_roots),
)


def _outcome(verdict):
    w = verdict.witness
    return verdict.holds, verdict.level, w and w.kind, w and w.indices


@given(
    int_seqs,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.sampled_from((RATIO_MONOTONE, LOG_CONCAVE, UNIMODAL_MIDPEAK)),
    st.booleans(),
)
def test_k_property_on_ints_matches_dyadics(seq, shift, depth, prop, strict):
    on_ints = k_property(seq, depth, prop, strict)
    on_dyadics = k_property([Dyadic(x, shift) for x in seq], depth, prop, strict)
    assert _outcome(on_ints) == _outcome(on_dyadics)
