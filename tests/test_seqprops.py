"""Tests for the sequence property predicates and the iterated operator."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from bmtk.seqprops import (
    LOG_CONCAVE,
    RATIO_MONOTONE,
    UNIMODAL_MIDPEAK,
    PropertyVerdict,
    Witness,
)

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


# -- the top-bits filter against an exact reference ------------------------------


def _digits(n):
    """Decimal digits of an int in 1000-digit chunks, each one short enough
    for ``str()`` under the interpreter's default int-to-str limit."""
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(str(low).zfill(1000))
    return str(n) + "".join(reversed(chunks))


def _exact_comparisons(strict, comparisons):
    """Reference chain: every product formed exactly, first violation wins."""
    for indices, lhs, rhs in comparisons:
        if not (lhs < rhs if strict else lhs <= rhs):
            return Witness("comparison", indices, lhs=_digits(lhs), rhs=_digits(rhs))
    return None


def _exact_ratio_monotone(seq, strict):
    if any(x <= 0 for x in seq):
        return is_ratio_monotone(seq, strict)  # positivity needs no product
    m = len(seq) - 1
    if m < 2:
        return PropertyVerdict(RATIO_MONOTONE, strict, True)
    half, rhalf = m // 2, (m - 1) // 2
    comparisons = [
        ((i - 1, m - 1 - i, i, m - i), seq[i - 1] * seq[m - 1 - i], seq[i] * seq[m - i])
        for i in range(1, half)
    ]
    comparisons.append(((half - 1, m - half), seq[half - 1], seq[m - half]))
    comparisons += [
        ((m - i, i + 1, m - 1 - i, i), seq[m - i] * seq[i + 1], seq[m - 1 - i] * seq[i])
        for i in range(rhalf)
    ]
    comparisons.append(((m - rhalf, rhalf), seq[m - rhalf], seq[rhalf]))
    w = _exact_comparisons(strict, comparisons)
    return PropertyVerdict(RATIO_MONOTONE, strict, w is None, witness=w)


def _exact_log_concave(seq, strict):
    if any(x <= 0 for x in seq):
        return is_log_concave(seq, strict)
    for i in range(1, len(seq) - 1):
        square, product = seq[i] * seq[i], seq[i - 1] * seq[i + 1]
        if not (square > product if strict else square >= product):
            w = Witness("comparison", (i, i - 1, i + 1), lhs=_digits(square), rhs=_digits(product))
            return PropertyVerdict(LOG_CONCAVE, strict, False, witness=w)
    return PropertyVerdict(LOG_CONCAVE, strict, True)


EXACT_REFERENCE = {
    RATIO_MONOTONE: (is_ratio_monotone, _exact_ratio_monotone),
    LOG_CONCAVE: (is_log_concave, _exact_log_concave),
}

# Entries B + o with |o| <= 2 make products (B+a)(B+b) and (B+c)(B+d) tie or
# differ by 1 whenever a+b = c+d; with B of 32 to 10,000 bits the products
# have 64 to 20,000.
near_ties = st.builds(
    lambda base, offsets: [base + o for o in offsets],
    st.integers(min_value=32, max_value=10_000).map(lambda bits: 1 << bits),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=9),
)
below_filter = st.lists(st.integers(min_value=1, max_value=(1 << 63) - 1), min_size=3, max_size=9)
tiny_and_huge = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=64, max_value=10_000).flatmap(
            lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
        ),
    ),
    min_size=3,
    max_size=9,
)
factor = st.integers(min_value=1, max_value=5000).flatmap(
    lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
)
offsets = st.lists(st.integers(min_value=-1, max_value=1), min_size=5, max_size=5)


def _offset(values, deltas):
    return [max(1, x + d) for x, d in zip(values, deltas)]


# Before the offsets, a_0 a_2 == a_1 a_3 (the first ratio comparison at m=4)
# and a_0 a_2 == a_1^2 (log-concavity at i=1), with the operands' sizes, and
# so the filter's shifts, unequal on the two sides.
factored_ties = st.one_of(
    st.builds(
        lambda p, q, r, s, tail, d: _offset((p * q, p * r, r * s, q * s, tail), d),
        factor, factor, factor, factor, factor, offsets,
    ),
    st.builds(
        lambda p, q, tail, d: _offset((p * p, p * q, q * q, tail), d),
        factor, factor, factor, offsets,
    ),
)
# Scaled rows pass long runs of comparisons; a small perturbation can put a
# late one near a tie.
perturbed_rows = st.builds(
    lambda m, shift, i, delta: [
        (x << shift) + (delta if j == i % (m + 1) else 0)
        for j, x in enumerate(closed_form_row(m).scaled)
    ],
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-2, max_value=2),
)


@settings(deadline=None)
@given(
    st.one_of(near_ties, factored_ties, below_filter, tiny_and_huge, perturbed_rows),
    st.sampled_from(sorted(EXACT_REFERENCE)),
    st.booleans(),
)
@example([1 << 64] * 5, RATIO_MONOTONE, True)
@example([1 << 64] * 5, RATIO_MONOTONE, False)
def test_filtered_predicates_match_exact_reference(seq, prop, strict):
    predicate, reference = EXACT_REFERENCE[prop]
    assert predicate(seq, strict) == reference(seq, strict)


def _exact_k_property(seq, k, prop, strict):
    reference = EXACT_REFERENCE[prop][1]
    for level in range(k):
        verdict = reference(seq, strict)
        if not verdict.holds or level == k - 1:
            return PropertyVerdict(verdict.property, strict, verdict.holds, level, verdict.witness)
        seq = l_operator(seq)


@settings(deadline=None)
@given(
    st.one_of(near_ties, factored_ties, tiny_and_huge, perturbed_rows),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(sorted(EXACT_REFERENCE)),
    st.booleans(),
)
def test_filtered_k_property_matches_exact_reference(seq, depth, prop, strict):
    assert k_property(seq, depth, prop, strict) == _exact_k_property(seq, depth, prop, strict)


# Operand bits: products of 4 to 20,000 bits, operands on both sides of 64.
SIZES = (2, 31, 32, 33, 63, 64, 65, 128, 2000, 10_000)


@pytest.mark.parametrize("bits", SIZES)
def test_filter_exact_ties(bits):
    p, q = (1 << bits) + 1, (1 << bits) + 3
    geometric = (p * p, p * q, q * q)  # a_1^2 == a_0 a_2
    constant = (p,) * 6  # every ratio comparison is a tie
    for seq, prop in ((geometric, LOG_CONCAVE), (constant, RATIO_MONOTONE), (constant, LOG_CONCAVE)):
        predicate, reference = EXACT_REFERENCE[prop]
        assert predicate(seq, False).holds
        strict = predicate(seq, True)
        assert not strict.holds
        assert strict == reference(seq, True)
        assert strict.witness.lhs == strict.witness.rhs


@pytest.mark.parametrize("bits", SIZES)
def test_filter_products_one_apart(bits):
    a = 1 << bits
    # a^2 against (a-1)(a+1) = a^2 - 1: holds strictly
    assert is_log_concave((a - 1, a, a + 1), strict=True).holds
    # a^2 against (a^2 + 1)·1: fails even non-strictly, by one
    for strict in (True, False):
        verdict = is_log_concave((a * a + 1, a, 1), strict)
        assert verdict == _exact_log_concave((a * a + 1, a, 1), strict)
        assert (verdict.witness.lhs, verdict.witness.rhs) == (_digits(a * a), _digits(a * a + 1))
    # ratio chain of m=4, first comparison a_0 a_2 against a_1 a_3 = a^2
    below = (a - 1, a, a + 1, a, 1)  # a^2 - 1 passes; the last ratio a_3/a_1 ties
    above = (1, a, a * a + 1, a, 1)  # a^2 + 1 fails
    for seq in (below, above):
        for strict in (True, False):
            assert is_ratio_monotone(seq, strict) == _exact_ratio_monotone(seq, strict)
    assert is_ratio_monotone(below).holds
    assert is_ratio_monotone(below, strict=True).witness.indices == (3, 1)
    assert is_ratio_monotone(above).witness.indices == (0, 2, 1, 3)


def test_witness_digits_past_the_int_to_str_limit():
    a = 1 << 15000
    square, product = a * a, a * a + 1  # 9,031 digits each
    if hasattr(sys, "get_int_max_str_digits"):
        assert 0 < sys.get_int_max_str_digits() < 9031  # the default limit is on
        with pytest.raises(ValueError):
            str(product)
    verdict = is_log_concave((product, a, 1))
    assert (verdict.witness.lhs, verdict.witness.rhs) == (_digits(square), _digits(product))
    # the same digits from Fraction and Dyadic entries, formats unchanged
    thirds = is_log_concave(tuple(Fraction(x, 3) for x in (product, a, 1))).witness
    assert (thirds.lhs, thirds.rhs) == (_digits(square) + "/9", _digits(product) + "/9")
    halves = is_log_concave(tuple(Dyadic(x, 1) for x in (product, a, 1))).witness
    # a/2 = 2^14999 is canonically an integer, so the square is one too
    assert (halves.lhs, halves.rhs) == (_digits(square >> 2) + "/2^0", _digits(product) + "/2^2")
