"""Tests for the sequence property predicates and the iterated operator."""

import functools
import math
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmtk import (
    CoeffRow,
    Dyadic,
    Method,
    closed_form_row,
    is_log_concave,
    is_ratio_monotone,
    is_spiral,
    is_unimodal_midpeak,
    k_property,
    l_operator,
    recu1_row,
)
from bmtk import seqprops
from bmtk.exactnum import exact_str
from bmtk.scanner import verify_cell
from bmtk.seqprops import (
    LOG_CONCAVE,
    RATIO_MONOTONE,
    SPIRAL,
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


def _show(x):
    """An exact value as the reference prints it: ints by ``_digits``, Dyadic
    and Fraction values by ``exact_str``."""
    return _digits(x) if type(x) is int else exact_str(x)


def _exact_comparisons(strict, comparisons):
    """Reference chain: every product formed exactly, first violation wins."""
    for indices, lhs, rhs in comparisons:
        if not (lhs < rhs if strict else lhs <= rhs):
            return Witness("comparison", indices, lhs=_show(lhs), rhs=_show(rhs))
    return None


def _positivity(seq, prop, strict):
    """The verdict on the first non-positive entry, or None."""
    for i, x in enumerate(seq):
        if not x > 0:
            w = Witness("positivity", (i,), lhs=_show(x), rhs="0")
            return PropertyVerdict(prop, strict, False, witness=w)
    return None


def _exact_ratio_monotone(seq, strict):
    failure = _positivity(seq, RATIO_MONOTONE, strict)
    if failure:
        return failure
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
    failure = _positivity(seq, LOG_CONCAVE, strict)
    if failure:
        return failure
    for i in range(1, len(seq) - 1):
        square, product = seq[i] * seq[i], seq[i - 1] * seq[i + 1]
        if not (square > product if strict else square >= product):
            w = Witness("comparison", (i, i - 1, i + 1), lhs=_show(square), rhs=_show(product))
            return PropertyVerdict(LOG_CONCAVE, strict, False, witness=w)
    return PropertyVerdict(LOG_CONCAVE, strict, True)


def _exact_spiral(seq, strict):
    failure = _positivity(seq, SPIRAL, False)
    if failure:
        return failure
    m = len(seq) - 1
    if m < 2:
        return PropertyVerdict(SPIRAL, False, True)
    order = [m - t // 2 if t % 2 == 0 else t // 2 for t in range(m + 1)]  # m, 0, m-1, 1, ...
    comparisons = [
        ((order[t], order[t + 1]), seq[order[t]], seq[order[t + 1]]) for t in range(m)
    ]
    w = _exact_comparisons(False, comparisons)
    return PropertyVerdict(SPIRAL, False, w is None, witness=w)


def _exact_unimodal_midpeak(seq, strict):
    failure = _positivity(seq, UNIMODAL_MIDPEAK, True)
    if failure:
        return failure
    m = len(seq) - 1
    if m < 2:
        return PropertyVerdict(UNIMODAL_MIDPEAK, True, True)
    peak = m // 2
    comparisons = [((i, i + 1), seq[i], seq[i + 1]) for i in range(peak)]
    comparisons += [((i + 1, i), seq[i + 1], seq[i]) for i in range(peak, m)]
    w = _exact_comparisons(True, comparisons)
    return PropertyVerdict(UNIMODAL_MIDPEAK, True, w is None, witness=w)


# property -> (the library predicate, its exact reference), both taking (seq, strict)
EXACT_REFERENCE = {
    RATIO_MONOTONE: (is_ratio_monotone, _exact_ratio_monotone),
    LOG_CONCAVE: (is_log_concave, _exact_log_concave),
    SPIRAL: (lambda seq, strict: is_spiral(seq), _exact_spiral),
    UNIMODAL_MIDPEAK: (lambda seq, strict: is_unimodal_midpeak(seq), _exact_unimodal_midpeak),
}

# Entries B + o with |o| <= 2 make products (B+a)(B+b) and (B+c)(B+d) tie or
# differ by 1 whenever a+b = c+d; with B of 32 to 10,000 bits (near_ties) the
# products have 64 to 20,000.
def _near_ties(max_bits):
    return st.builds(
        lambda base, offsets: [base + o for o in offsets],
        st.integers(min_value=32, max_value=max_bits).map(lambda bits: 1 << bits),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=9),
    )


near_ties = _near_ties(10_000)
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
def _perturbed_rows(max_m, max_shift):
    return st.builds(
        lambda m, shift, i, delta: [
            (x << shift) + (delta if j == i % (m + 1) else 0)
            for j, x in enumerate(closed_form_row(m).scaled)
        ],
        st.integers(min_value=2, max_value=max_m),
        st.integers(min_value=0, max_value=max_shift),
        st.integers(min_value=0, max_value=max_m),
        st.integers(min_value=-2, max_value=2),
    )


perturbed_rows = _perturbed_rows(40, 2000)


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
            return replace(verdict, level=level)
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


# Sequences whose iterates tie or vanish below level 0, so that the iterated
# enclosures miss at a deeper level and the exact path decides.
def _level_one_tie(s, u, v):
    """(s u^2, s u v, s (v^2 - u^2)) with u < v < u·sqrt(2): a_2 < a_0 < a_1,
    and L maps a_0 and a_1 to the same value s^2 u^4."""
    return [s * u * u, s * u * v, s * (v * v - u * u)]


def _level_two_zero(s, x, y):
    """(s x^2, 2 s x y, 2 s y^2): strictly log-concave, L of it is geometric
    (a log-concavity tie at level 1), and L twice has a zero interior."""
    return [s * x * x, 2 * s * x * y, 2 * s * y * y]


# Found by search: certified at levels 0 and 1, with an exact zero or tie of
# the named property's comparisons at level 2.
LEVEL_TWO_TIES = (
    [12, 19, 16, 8],  # unimodal-midpeak: L twice has a zero at index 2
    [13, 66, 59, 30],  # unimodal-midpeak
    [3, 13, 53, 40, 14],  # unimodal-midpeak
    [30, 55, 66, 51, 24],  # spiral
    [16, 33, 26, 12],  # spiral
)

small = st.integers(min_value=1, max_value=1000)
deep_ties = st.one_of(
    st.builds(
        lambda s, uv: _level_one_tie(s, *uv),
        small,
        st.integers(min_value=3, max_value=10**4).flatmap(
            lambda u: st.tuples(st.just(u), st.integers(u + 1, math.isqrt(2 * u * u - 1)))
        ),
    ),
    st.builds(_level_two_zero, small, small, small),
    st.sampled_from(LEVEL_TWO_TIES),
    # constant runs: a_i^2 = a_{i-1} a_{i+1} inside the run, so L zeroes it
    st.builds(
        lambda head, c, n, tail: head + [c] * n + tail,
        st.lists(small, max_size=3),
        small,
        st.integers(min_value=3, max_value=5),
        st.lists(small, max_size=3),
    ),
)


def _scaled(seq, shift, nudges):
    """seq times 2^shift, entry j moved by nudges[j] (0 past its end), kept positive."""
    return [
        max(1, (x << shift) + (nudges[j] if j < len(nudges) else 0)) for j, x in enumerate(seq)
    ]


# A nudge of ±1 on entries scaled by 2^shift turns an exact tie at a deeper
# level into a relative difference near 2^-shift, of either sign.
nudged_ties = st.builds(
    _scaled,
    deep_ties,
    st.integers(min_value=0, max_value=300),
    st.lists(st.integers(min_value=-1, max_value=1), max_size=9),
)
# The earlier generators at sizes whose depth-6 iterates stay near 10,000 bits.
moderate_rows = _perturbed_rows(30, 200)
moderate_near_ties = _near_ties(300)


@settings(deadline=None)
@given(
    st.one_of(deep_ties, nudged_ties, moderate_rows, moderate_near_ties, below_filter),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(sorted(EXACT_REFERENCE)),
    st.booleans(),
)
@example([12, 19, 16, 8], 4, UNIMODAL_MIDPEAK, True)
@example(_level_two_zero(1, 1, 1), 3, LOG_CONCAVE, False)
@example(_level_one_tie(1, 3, 4), 3, RATIO_MONOTONE, False)
@example([5, 7, 7, 7, 3], 2, LOG_CONCAVE, False)
def test_enclosed_k_property_matches_exact_reference_to_depth_6(seq, depth, prop, strict):
    assert k_property(seq, depth, prop, strict) == _exact_k_property(seq, depth, prop, strict)


def _encloses(bound, x):
    lo, hi, k = bound
    return (lo << k) <= x < (hi << k) if k >= 0 else lo <= (x << -k) < hi


moderate_ints = st.lists(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
    ),
    min_size=1,
    max_size=9,
)


RUNGS = seqprops._RUNGS


def _contained_gaps(seq, levels, bits):
    """Assert that the iterated ``bits``-bit enclosures of ``seq`` contain its
    exact iterates at levels 0..levels-1, or until some lo is not positive,
    with every hi rounded to ``bits`` bits, and return the exponent gaps
    2k_i - k_{i-1} - k_{i+1} that L's rule met."""
    bounds = seqprops._enclosures(seq, bits)
    gaps = []
    for level in range(levels):
        assert all(map(_encloses, bounds, seq)), level
        assert all(hi <= 1 << bits for _, hi, _ in bounds)  # rounded to bits
        if any(lo <= 0 for lo, _, _ in bounds):
            break  # L's rule needs positive entries
        gaps += [
            2 * bounds[i][2] - bounds[i - 1][2] - bounds[i + 1][2] for i in range(1, len(seq) - 1)
        ]
        seq, bounds = l_operator(seq), seqprops._l_enclosure(bounds, bits)
    return gaps


@settings(deadline=None)
@given(
    st.one_of(moderate_ints, below_filter, deep_ties, nudged_ties, moderate_rows),
    st.sampled_from(RUNGS),
)
# Rounding lo up breaks the invariant on [16, 20, 9] at level 5 and on the
# second example at level 2; subtracting lo_{i-1} lo_{i+1} from lo_i^2 in
# place of hi_{i-1} hi_{i+1} breaks it on the second at level 3 (64 bits).
@example([16, 20, 9], 64)
@example([154587, 217239, 150696], 64)
@example([16, 20, 9], 30)
@example([154587, 217239, 150696], 30)
def test_iterated_enclosures_contain_the_exact_iterates(seq, bits):
    _contained_gaps(seq, 6, bits)


# An entry's square and its neighbours' product more than 128 bits apart (so
# past 2·bits at every rung), in both directions: the square wins on rows past
# level 8 and on real-rooted sequences, the neighbours win at level 0 on
# sequences with a deep dip.
@pytest.mark.parametrize("m", (3, 8, 12))
def test_row_enclosures_contain_the_iterates_past_a_128_bit_gap(m):
    for bits in RUNGS:
        gaps = _contained_gaps(closed_form_row(m).scaled, 13, bits)
        assert len(gaps) == 13 * (m - 1)  # every lo stayed positive
        assert max(gaps) > 128


@settings(deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=5).map(
            _expand_roots
        ),
        st.lists(
            st.integers(min_value=1, max_value=400).map(lambda bits: (1 << bits) - 1),
            min_size=3,
            max_size=5,
        ),
    ),
    st.sampled_from(RUNGS),
)
@example([1 << 200, 1, 1 << 200, 3, 5], 64)
@example([1, 4, 6, 4, 1], 64)
@example([1 << 200, 1, 1 << 200, 3, 5], 30)
@example([1, 4, 6, 4, 1], 30)
def test_short_sequence_enclosures_contain_the_iterates_to_level_12(seq, bits):
    _contained_gaps(seq, 13, bits)


def _within(inner, outer):
    """True when the interval of enclosure ``inner`` lies inside ``outer``'s."""
    (lo, hi, k), (lo_out, hi_out, k_out) = inner, outer
    e = min(k, k_out)
    return lo_out << k_out - e <= lo << k - e and hi << k - e <= hi_out << k_out - e


@settings(deadline=None)
@given(st.one_of(moderate_ints, below_filter, deep_ties, nudged_ties, moderate_rows))
@example(closed_form_row(400).scaled)
@example([1, 1, 1 << 300])
def test_64_bit_enclosures_lie_inside_the_30_bit_ones(seq):
    # so the 64-bit rung may step L through every level the 30-bit rung proved
    _assert_nested(seq, 64, 30)


@settings(deadline=None)
@given(st.one_of(moderate_ints, below_filter, deep_ties, nudged_ties, moderate_rows))
@example(closed_form_row(400).scaled)
@example([1, 1, 1 << 300])
def test_128_bit_enclosures_lie_inside_the_64_bit_ones(seq):
    # so the 128-bit rung may step L through every level the 64-bit rung proved
    _assert_nested(seq, 128, 64)


def _assert_nested(seq, inner_bits, outer_bits):
    """Assert that the ``inner_bits`` enclosures of levels 0..7 of ``seq`` lie
    inside its ``outer_bits`` ones, up to the first level whose outer lo's are
    not all positive."""
    inner, outer = seqprops._enclosures(seq, inner_bits), seqprops._enclosures(seq, outer_bits)
    for level in range(8):
        assert all(map(_within, inner, outer)), level
        if any(lo <= 0 for lo, _, _ in outer):
            break
        inner = seqprops._l_enclosure(inner, inner_bits)
        outer = seqprops._l_enclosure(outer, outer_bits)


def test_dip_enclosures_contain_the_iterate_past_a_128_bit_gap():
    for bits in RUNGS:
        assert min(_contained_gaps([1, 1, 1 << 300], 13, bits)) < -128


def _l_enclosure_shifted(bounds, bits):
    """L on ``bits``-bit enclosures with every gap shifted out in full: the
    rule before gaps past 2·bits were decided without a shift."""
    n = len(bounds) - 1
    out = []
    for i, (lo, hi, k) in enumerate(bounds):
        lo, hi, k = lo * lo, hi * hi, 2 * k
        if 0 < i < n:
            lo_left, hi_left, k_left = bounds[i - 1]
            lo_right, hi_right, k_right = bounds[i + 1]
            k_side = k_left + k_right
            e = min(k, k_side)
            lo = (lo << k - e) - (hi_left * hi_right << k_side - e)
            hi = (hi << k - e) - (lo_left * lo_right << k_side - e)
            k = e
        s = hi.bit_length() - bits
        if s > 0:
            lo, hi, k = lo >> s, -(-hi >> s), k + s
        out.append((lo, hi, k))
    return out


def _l_enclosure_64(bounds):
    """L on 64-bit enclosures as it stood with one fixed precision: both
    terms shifted to the smaller exponent, one shift always by 0, and gaps
    past 128 bits decided without a shift."""
    n = len(bounds) - 1
    out = []
    for i, (lo, hi, k) in enumerate(bounds):
        lo, hi, k = lo * lo, hi * hi, 2 * k
        if 0 < i < n:
            lo_left, hi_left, k_left = bounds[i - 1]
            lo_right, hi_right, k_right = bounds[i + 1]
            k_side = k_left + k_right
            if -128 <= k - k_side <= 128:
                e = min(k, k_side)
                lo = (lo << k - e) - (hi_left * hi_right << k_side - e)
                hi = (hi << k - e) - (lo_left * lo_right << k_side - e)
                k = e
            elif k > k_side:
                lo -= 1
            else:
                lo, hi, k = -hi_left * hi_right, 1 - lo_left * lo_right, k_side
        s = hi.bit_length() - 64
        if s > 0:
            lo, hi, k = lo >> s, -(-hi >> s), k + s
        out.append((lo, hi, k))
    return out


def _enclosure(k, bits=64):
    """An enclosure (lo, hi, k) with 0 < lo < hi <= 2^bits."""
    return st.integers(min_value=1, max_value=(1 << bits) - 1).flatmap(
        lambda lo: st.tuples(
            st.just(lo), st.integers(min_value=lo + 1, max_value=1 << bits), st.just(k)
        )
    )


def _narrow_gap_bounds(bits):
    """Enclosures whose exponents lie within ``bits`` of a common base: every
    gap 2k_i - k_{i-1} - k_{i+1} lies in -2·bits..2·bits."""
    return st.integers(min_value=-(10**6), max_value=10**6).flatmap(
        lambda base: st.lists(
            st.integers(min_value=0, max_value=bits).flatmap(
                lambda d: _enclosure(base + d, bits)
            ),
            min_size=1,
            max_size=8,
        )
    )


@given(
    st.sampled_from(RUNGS).flatmap(lambda bits: st.tuples(_narrow_gap_bounds(bits), st.just(bits)))
)
@example(([(1, 2, 0), (1, 2, 64), (1, 2, 0)], 64))  # gap 128
@example(([(1, 2, 64), (1, 2, 0), (1, 2, 64)], 64))  # gap -128
@example(([((1 << 64) - 1, 1 << 64, -5), (1, 1 << 64, 59), ((1 << 64) - 1, 1 << 64, -5)], 64))
@example(([(1, 2, 0), (1, 2, 30), (1, 2, 0)], 30))  # gap 60
@example(([(1, 2, 30), (1, 2, 0), (1, 2, 30)], 30))  # gap -60
@example(([((1 << 30) - 1, 1 << 30, -5), (1, 1 << 30, 25), ((1 << 30) - 1, 1 << 30, -5)], 30))
def test_l_enclosure_within_128_bit_gaps_is_the_shifted_rule(case):
    # within 2·bits (128 at 64 bits, 60 at 30), the one-shift step is the
    # rule that shifts both terms to the smaller exponent
    bounds, bits = case
    assert seqprops._l_enclosure(bounds, bits) == _l_enclosure_shifted(bounds, bits)


@settings(deadline=None)
@given(
    st.lists(
        st.integers(min_value=-300, max_value=300).flatmap(_enclosure), min_size=1, max_size=8
    )
)
@example([(1, 2, 0), (1, 2, 65), (1, 2, 0)])  # gap 130
@example([(1, 2, 65), (1, 2, 0), (1, 2, 65)])  # gap -130
@example([((1 << 64) - 1, 1 << 64, 100), (1, 2, -300), ((1 << 64) - 1, 1 << 64, 100)])
def test_l_enclosure_at_64_bits_is_the_fixed_precision_rule(bounds):
    # any gap, either side of 128: the 64-bit rung's L step is bit for bit
    # the one the enclosure phase used before it had rungs
    assert seqprops._l_enclosure(bounds, 64) == _l_enclosure_64(bounds)


@st.composite
def certify_cases(draw):
    """Four ``bits``-bit enclosures, the two index pairs of one quad (a
    one-entry side padded with index 4), and the power-of-two shift between
    its sides, drawn near ±2·bits."""
    bits = draw(st.sampled_from(RUNGS))
    bounds = draw(st.lists(_enclosure(0, bits), min_size=4, max_size=4))
    ks = draw(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=4, max_size=4))
    lhs = draw(st.sampled_from(((0, 4), (0, 1))))
    rhs = draw(st.sampled_from(((2, 4), (2, 3), (2, 2))))
    shift = draw(
        st.one_of(
            st.builds(
                lambda sign, near: sign * (2 * bits + near),
                st.sampled_from((-1, 1)),
                st.integers(min_value=-3, max_value=3),
            ),
            st.integers(min_value=-200, max_value=200),
            st.integers(min_value=-(10**6), max_value=10**6),
        )
    )
    return bits, bounds, ks, lhs, rhs, shift


@settings(deadline=None)
@given(certify_cases())
@example((64, [(1, 2, 0)] * 4, [0] * 4, (0, 4), (2, 4), 128))
@example((64, [((1 << 64) - 1, 1 << 64, 0)] * 4, [0] * 4, (0, 1), (2, 3), -128))
# shifts of 2·bits - 2 that do not decide alone
@example((64, [(1, 2, 0)] * 2 + [((1 << 64) - 1, 1 << 64, 0)] * 2, [0] * 4, (0, 4), (2, 3), 126))
@example((64, [((1 << 64) - 1, 1 << 64, 0)] * 2 + [(1, 2, 0)] * 2, [0] * 4, (0, 1), (2, 4), -126))
@example((30, [(1, 2, 0)] * 4, [0] * 4, (0, 4), (2, 4), 60))
@example((30, [((1 << 30) - 1, 1 << 30, 0)] * 4, [0] * 4, (0, 1), (2, 3), -60))
@example((30, [(1, 2, 0)] * 2 + [((1 << 30) - 1, 1 << 30, 0)] * 2, [0] * 4, (0, 4), (2, 3), 58))
@example((30, [((1 << 30) - 1, 1 << 30, 0)] * 2 + [(1, 2, 0)] * 2, [0] * 4, (0, 1), (2, 4), -58))
def test_certified_is_exact_at_any_shift(case):
    # _certify on one quad, a one-entry side padded with the exact 1 at index 4
    bits, bounds, ks, lhs, rhs, shift = case
    # entry 0 is on the left only: its exponent sets the shift between the sides
    ks = [*ks, 0]  # the padding's exponent
    ks[0] += shift - sum(ks[j] for j in lhs) + sum(ks[j] for j in rhs)
    bounds = [(lo, hi, k) for (lo, hi, _), k in zip(bounds, ks)]
    padded = [*bounds, (1, 1, 0)]
    upper = math.prod(Fraction(padded[j][1]) * Fraction(2) ** padded[j][2] for j in lhs)
    lower = math.prod(Fraction(padded[j][0]) * Fraction(2) ** padded[j][2] for j in rhs)
    assert seqprops._certify(bounds, [lhs + rhs], bits) == (upper <= lower)


def _refuse(*args):
    raise AssertionError("formed an exact iterate")


def test_certified_row_builds_no_exact_iterate(monkeypatch):
    monkeypatch.setattr(seqprops, "l_operator", _refuse)
    assert k_property(closed_form_row(400), 8, RATIO_MONOTONE, True).holds


def test_deep_certified_row_builds_no_exact_iterate(monkeypatch):
    # the exponent gaps pass 128 bits from about level 8 and double at each
    # level after; each level is decided without shifting by them
    monkeypatch.setattr(seqprops, "l_operator", _refuse)
    assert k_property(closed_form_row(8), 60, RATIO_MONOTONE, True).holds


def _pair_lists(m):
    """Each property's comparisons on a_0..a_m, in the order they are
    checked, as pairs of index tuples (the entries of the lhs and rhs
    products), written apart from the library's quad builders."""
    order, lo, hi = [], 0, m
    while lo <= hi:
        order.append(hi)
        if lo < hi:
            order.append(lo)
        hi, lo = hi - 1, lo + 1
    half, rhalf, peak = m // 2, (m - 1) // 2, m // 2
    ratio = [((i - 1, m - 1 - i), (i, m - i)) for i in range(1, half)]
    ratio.append(((half - 1,), (m - half,)))
    ratio += [((m - i, i + 1), (m - 1 - i, i)) for i in range(rhalf)]
    ratio.append(((m - rhalf,), (rhalf,)))
    return {
        LOG_CONCAVE: [((i - 1, i + 1), (i, i)) for i in range(1, m)],
        SPIRAL: [((order[t],), (order[t + 1],)) for t in range(len(order) - 1)],
        RATIO_MONOTONE: ratio,
        UNIMODAL_MIDPEAK: [((i,), (i + 1,)) for i in range(peak)]
        + [((i + 1,), (i,)) for i in range(peak, m)],
    }


def test_comparison_quads_are_the_padded_pair_lists():
    for m in range(2, 41):
        one = (m + 1,)
        for prop, pairs in _pair_lists(m).items():
            padded = [(lhs + one)[:2] + (rhs + one)[:2] for lhs, rhs in pairs]
            assert seqprops._COMPARISONS[prop][0](m) == padded, (prop, m)


def _first_miss(values, bits, cap):
    """The first level (at most ``cap``) whose ``bits``-bit enclosures miss
    the strict ratio comparisons of ``values``, built from level 0."""
    quads = seqprops._ratio_quads(len(values) - 1)
    bounds = seqprops._enclosures(values, bits)
    for level in range(cap):
        if not seqprops._certify(bounds, quads, bits):
            return level
        bounds = seqprops._l_enclosure(bounds, bits)
    return cap


# The first level whose enclosures miss the strict ratio comparisons of row m,
# as runs (first m, last m, level) at 30 bits over every m in 2..400, and per
# m at 64 bits.  The relative width of an enclosure doubles at each level, so
# the levels fall as m grows; rows past m=128 miss at 30 bits by level 8.
FIRST_MISS_30 = (
    (2, 2, 33), (3, 3, 32), (4, 6, 31), (7, 8, 30), (9, 11, 29), (12, 14, 28),
    (15, 17, 27), (18, 22, 26), (23, 25, 25), (26, 29, 24), (30, 34, 23),
    (35, 42, 22), (43, 48, 21), (49, 54, 20), (55, 61, 19), (62, 69, 18),
    (70, 81, 17), (82, 91, 16), (92, 101, 15), (102, 113, 14), (114, 124, 13),
    (125, 128, 12), (129, 131, 7), (132, 132, 8), (133, 134, 6), (135, 135, 7),
    (136, 150, 6), (151, 151, 5), (152, 153, 6), (154, 154, 5), (155, 157, 6),
    (158, 158, 5), (159, 160, 6), (161, 161, 5), (162, 162, 6), (163, 220, 5),
    (221, 223, 4), (224, 224, 5), (225, 400, 4),
)
FIRST_MISS_64 = {
    2: 68, 3: 67, 4: 66, 8: 65, 12: 63, 50: 55, 100: 50, 150: 46, 200: 43, 300: 39,
    400: 36, 1000: 24, 2000: 9,
}
# At 128 bits, per m: row m=4000 is the largest that the CLI builds.
FIRST_MISS_128 = {2: 133, 100: 115, 400: 101, 2000: 79, 4000: 68}


def test_first_missed_level_of_each_rung_is_pinned():
    row = closed_form_row(1)
    misses = {}
    for m in range(2, 401):
        row = recu1_row(row)
        misses[m] = _first_miss(row.scaled, 30, 40)
    pinned = {m: level for first, last, level in FIRST_MISS_30 for m in range(first, last + 1)}
    assert misses == pinned
    misses = {m: _first_miss(closed_form_row(m).scaled, 64, 80) for m in FIRST_MISS_64}
    assert misses == FIRST_MISS_64
    misses = {m: _first_miss(closed_form_row(m).scaled, 128, 140) for m in FIRST_MISS_128}
    assert misses == FIRST_MISS_128


def test_least_log_concavity_ratio_of_a_row_is_about_1_plus_4_over_m():
    # r_0(m), the least a_i^2/(a_{i-1} a_{i+1}) over row m, has m·(r_0 - 1)
    # within [4.005, 4.021] for m in 100..400: a measured law, not a theorem,
    # that predicts how far the enclosures of a row can be iterated
    row = closed_form_row(99)
    for m in range(100, 401):
        row = recu1_row(row)
        e = row.scaled
        num, den = e[1] * e[1], e[0] * e[2]  # the least ratio, kept unreduced
        for i in range(2, m):
            n, d = e[i] * e[i], e[i - 1] * e[i + 1]
            if n * den < num * d:
                num, den = n, d
        assert 4 <= m * (Fraction(num, den) - 1) <= Fraction(405, 100), m


def test_scan_deep_rows_build_no_64_bit_enclosure(monkeypatch):
    # rows 62..120 are certified to depth 6 on the 30-bit rung alone
    rungs = []
    enclosures = seqprops._enclosures

    def counted(values, bits):
        rungs.append(bits)
        return enclosures(values, bits)

    monkeypatch.setattr(seqprops, "_enclosures", counted)
    monkeypatch.setattr(seqprops, "l_operator", _refuse)
    for m in range(62, 121):
        assert verify_cell(closed_form_row(m), 6, True).verdict == "verified"
    assert rungs == [30] * 59


def test_row_missed_at_30_bits_is_decided_on_the_64_bit_rung(monkeypatch):
    # row 400 misses at level 4 on 30 bits; the 64-bit rung replays L through
    # levels 0..3 and certifies levels 4..7, none below
    row, miss = closed_form_row(400), FIRST_MISS_30[-1][2]
    level = seqprops._enclosures(row.scaled, 64)
    for _ in range(miss):
        level = seqprops._l_enclosure(level, 64)
    calls = []
    certify = seqprops._certify

    def counted(bounds, quads, bits):
        calls.append((bits, certify(bounds, quads, bits)))
        if len(calls) == miss + 2:
            assert bounds == level  # the 64-bit enclosures of level 4
        return calls[-1][1]

    monkeypatch.setattr(seqprops, "_certify", counted)
    monkeypatch.setattr(seqprops, "l_operator", _refuse)
    verdict = k_property(row, 8, RATIO_MONOTONE, True)
    assert (verdict.holds, verdict.level) == (True, 7)
    assert calls == [(30, True)] * miss + [(30, False)] + [(64, True)] * (8 - miss)


def test_row_missed_at_64_bits_is_certified_on_the_128_bit_rung(monkeypatch):
    # row 2000 misses at level 2 on 30 bits and at level 9 on 64; the 128-bit
    # rung certifies levels 9 and after, with no exact iterate
    rungs = []
    enclosures = seqprops._enclosures

    def counted(values, bits):
        rungs.append(bits)
        return enclosures(values, bits)

    monkeypatch.setattr(seqprops, "_enclosures", counted)
    monkeypatch.setattr(seqprops, "l_operator", _refuse)
    verdict = k_property(closed_form_row(2000), 10, RATIO_MONOTONE, True)
    assert (verdict.holds, verdict.level, verdict.witness) == (True, 9, None)
    assert rungs == [30, 64, 128]


# Every property with the strictness it reads: spiral and mid-peak
# unimodality fix their own.
PROPERTY_STRICTNESS = (
    (RATIO_MONOTONE, False),
    (RATIO_MONOTONE, True),
    (LOG_CONCAVE, False),
    (LOG_CONCAVE, True),
    (SPIRAL, False),
    (UNIMODAL_MIDPEAK, True),
)


@functools.cache
def _references_to_depth_6():
    """Per sequence and (property, strictness), the exact reference's verdicts
    at depths 1..6: for rows m <= 100, and for the same rows with d_{m//3}
    raised by 3%, most of which fail, at levels 0 to 4."""
    cases = []
    for m in range(2, 101):
        for seq in (closed_form_row(m).scaled, _tampered(m, m // 3, 3).scaled):
            iterates = [seq]
            for _ in range(5):
                iterates.append(l_operator(iterates[-1]))
            for prop, strict in PROPERTY_STRICTNESS:
                reference = EXACT_REFERENCE[prop][1]
                levels = [replace(reference(x, strict), level=j) for j, x in enumerate(iterates)]
                expected = [
                    next((v for v in levels[:depth] if not v.holds), levels[depth - 1])
                    for depth in range(1, 7)
                ]
                cases.append((seq, prop, strict, expected))
    return cases


@pytest.mark.parametrize("bits", RUNGS)
def test_each_rung_alone_matches_the_exact_reference_to_depth_6(monkeypatch, bits):
    # the rung certifies the rows; the raised rows reach the exact path from
    # its first miss
    monkeypatch.setattr(seqprops, "_RUNGS", (bits,))
    for seq, prop, strict, expected in _references_to_depth_6():
        for depth in range(1, 7):
            assert k_property(seq, depth, prop, strict) == expected[depth - 1], (seq, prop, depth)


@pytest.mark.parametrize("seq", ([], [5], [5, 1]))
def test_short_sequences_hold_at_any_depth_from_level_0(monkeypatch, seq):
    # no comparisons, and L only squares the entries: no level past 0 is walked
    def refuse(*args):
        raise AssertionError("walked a level past 0")

    monkeypatch.setattr(seqprops, "_l_enclosure", refuse)
    monkeypatch.setattr(seqprops, "l_operator", refuse)
    for prop in EXACT_REFERENCE:
        for strict in (False, True):
            verdict = k_property(seq, 10**9, prop, strict)
            assert (verdict.holds, verdict.level, verdict.witness) == (True, 10**9 - 1, None)


@pytest.mark.parametrize(
    "seq, witness",
    (
        ([0, 1], Witness("positivity", (0,), lhs="0", rhs="0")),
        ([1, -1], Witness("positivity", (1,), lhs="-1", rhs="0")),
    ),
)
def test_short_non_positive_sequences_fail_at_level_0(seq, witness):
    for prop in EXACT_REFERENCE:
        verdict = k_property(seq, 10**9, prop)
        assert (verdict.holds, verdict.level, verdict.witness) == (False, 0, witness)


def test_exact_levels_build_no_enclosures(monkeypatch):
    # level 0's enclosures are built once per rung, in rung order, by the
    # enclosure phase; the exact phase forms every product exactly
    calls = []
    enclosures = seqprops._enclosures

    def counted(values, bits):
        calls.append(bits)
        return enclosures(values, bits)

    monkeypatch.setattr(seqprops, "_enclosures", counted)
    # a tie at every level, so every level is exact
    assert k_property([1, 2, 1], 5, RATIO_MONOTONE).holds
    assert calls == list(RUNGS)
    verdict = k_property(_tampered(8, 4, 3), 4, RATIO_MONOTONE, True)
    assert (verdict.holds, verdict.level) == (False, 2)
    assert calls == list(RUNGS) * 2


def test_level_two_miss_reaches_the_exact_path(monkeypatch):
    seq = LEVEL_TWO_TIES[0]
    iterates = []
    exact = seqprops.l_operator

    def counted(current):
        iterates.append(current)
        return exact(current)

    monkeypatch.setattr(seqprops, "l_operator", counted)
    # levels 0 and 1 are certified on their own, with no exact iterate
    assert k_property(seq, 2, UNIMODAL_MIDPEAK).holds
    assert iterates == []
    verdict = k_property(seq, 4, UNIMODAL_MIDPEAK)
    assert len(iterates) == 2  # level 2 missed: L formed exactly from level 0
    assert verdict == _exact_k_property(seq, 4, UNIMODAL_MIDPEAK, True)
    assert (verdict.level, verdict.witness.kind, verdict.witness.indices) == (2, "positivity", (2,))


def _integral_as_int(value):
    """A Dyadic or Fraction with an integral value as that int, else itself."""
    if isinstance(value, Dyadic):
        return value.num if value.exp == 0 else value
    return value.numerator if value.denominator == 1 else value


@st.composite
def typed_ties(draw):
    """deep_ties and nudged_ties times g over 2^shift, shift 0..40 (Dyadic), or
    over d in 1..50 (Fraction, some integral entries as plain ints).  Entries
    reduce to unequal exponents or denominators; g is odd and prime to d, so
    the int form's gcd is at least g."""
    seq = draw(st.one_of(deep_ties, nudged_ties))
    g = draw(st.sampled_from((53, 97, 101 * 103, 65537)))
    if draw(st.booleans()):
        shift = draw(st.integers(min_value=0, max_value=40))
        return [Dyadic(x * g, shift) for x in seq]
    d = draw(st.integers(min_value=1, max_value=50))
    typed = [Fraction(x * g, d) for x in seq]
    as_int = draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
    return [_integral_as_int(v) if flag else v for v, flag in zip(typed, as_int)]


@settings(deadline=None)
@given(
    typed_ties(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(sorted(EXACT_REFERENCE)),
    st.booleans(),
)
@example([Fraction(x * 53, 12) for x in (9, 12, 7)], 4, RATIO_MONOTONE, True)
@example([Fraction(x * 97, 10) for x in (12, 19, 16, 8)], 4, UNIMODAL_MIDPEAK, True)
@example([Dyadic(x * 97, 5) for x in (30, 55, 66, 51, 24)], 4, LOG_CONCAVE, False)
def test_typed_k_property_matches_typed_reference(seq, depth, prop, strict):
    # the reference iterates L on the Dyadic or Fraction values themselves
    assert k_property(seq, depth, prop, strict) == _exact_k_property(seq, depth, prop, strict)


@pytest.mark.parametrize(
    "seq",
    (
        [9 * 53, 12 * 53, Dyadic(7 * 53, 0)],  # ints mixed with Dyadic values
        [Dyadic(3, 1), Fraction(1, 3), 1],
        [1, True, 2],
    ),
)
def test_mixed_number_families_are_refused(seq):
    with pytest.raises(TypeError):
        k_property(seq, 4, UNIMODAL_MIDPEAK)


def _tampered(m, i, percent):
    """The closed-form row m with d_i(m) changed by ``percent`` %."""
    scaled = list(closed_form_row(m).scaled)
    scaled[i] += scaled[i] * percent // 100
    return CoeffRow(m, tuple(scaled), Method.CLOSED_FORM)


@pytest.mark.parametrize("strict", (False, True))
def test_coeff_row_matches_its_dyadic_coefficients(strict):
    # a CoeffRow is decided as its ints over 4^-m, with witnesses printed as
    # the Dyadic row's; tampered rows fail at levels 0 to 2
    failing = set()
    for m in range(31):
        rows = [closed_form_row(m)]
        if m >= 2:
            rows += [_tampered(m, 1, 3), _tampered(m, m // 2, 3), _tampered(m, m // 2, -30)]
        for row in rows:
            for prop in EXACT_REFERENCE:
                for depth in (1, 2, 3):
                    verdict = k_property(row, depth, prop, strict)
                    assert verdict == k_property(row.coeffs, depth, prop, strict), (m, prop)
                    if not verdict.holds:
                        failing.add((prop, verdict.level, verdict.witness.kind))
    assert {prop for prop, _, _ in failing} == set(EXACT_REFERENCE)
    assert {level for _, level, _ in failing} == {0, 1, 2}
    assert {kind for _, _, kind in failing} == {"comparison", "positivity"}


@pytest.mark.parametrize("strict", (True, False))
def test_tampered_row_witness_matches_the_typed_reference(monkeypatch, strict):
    # d_1(12) raised by 3%: the row first fails at level 3, where the int
    # path goes exact, and verify_cell prints the witness as the dyadic row's
    row = _tampered(12, 1, 3)
    expected = _exact_k_property(row.coeffs, 5, RATIO_MONOTONE, strict)
    assert (expected.holds, expected.level, expected.witness.kind) == (False, 3, "comparison")
    iterates = []
    exact = seqprops.l_operator

    def counted(current):
        iterates.append(current)
        return exact(current)

    monkeypatch.setattr(seqprops, "l_operator", counted)
    record = verify_cell(row, 5, strict)
    assert (record.level, record.witness) == (3, expected.witness.to_json())
    assert len(iterates) == 3  # levels 1 to 3 formed exactly, once each


def test_exact_iterates_stop_at_the_size_limit():
    # the tie a_2 = a_0 sends level 0 exact, and the middle entry's bits
    # double at each level
    assert k_property([1, 2, 1], 20, RATIO_MONOTONE).holds
    with pytest.raises(ValueError, match=rf"level 24: .* {seqprops._EXACT_BITS} bits"):
        k_property([1, 2, 1], 40, RATIO_MONOTONE)


def test_catch_up_to_a_deep_miss_stops_at_the_size_limit(monkeypatch):
    # d_1(12) raised by 3% misses at level 3; level 1's exact iterate is
    # formed, level 2's would pass the limit
    row = _tampered(12, 1, 3)
    g = math.gcd(*row.scaled)
    level_one = l_operator([v // g for v in row.scaled])
    monkeypatch.setattr(seqprops, "_EXACT_BITS", sum(x.bit_length() for x in level_one) - 1)
    with pytest.raises(ValueError, match=r"^level 2: "):
        k_property(row, 5, RATIO_MONOTONE)


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
