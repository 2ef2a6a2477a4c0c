"""Derivatives at vertices: closed forms, scans, decay, edge structure."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasketenergy import derivatives as dv
from gasketenergy.cli import main
from gasketenergy.core import WORD_MAX_LEN, VertexAddress
from gasketenergy.derivatives import (
    DecayClass,
    axis_gap,
    basis_ratio,
    decay_sequence,
    edge_margin,
    edge_margin_closed_form,
    edge_profile,
    monotone_left_right,
    operator_norm_scan,
    q_factor,
    q_word,
    rank1_deviation,
    rn_derivative,
    rn_derivative_via_mass,
    rn_derivative_via_refine,
    scan_extrema,
    skew_energy_gap,
    _derivative_raw,
)
from gasketenergy.harmonic import Harmonic
from gasketenergy.measures import BASIS_COEFFS, KUSUOKA, children_triple, measure_of_cell

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)
triples = st.tuples(rationals, rationals, rationals)
words = st.text(alphabet="012", max_size=5)
letters = st.integers(min_value=0, max_value=2)

ONE = Fraction(1)
ZERO = Fraction(0)
E = [
    (ONE, ZERO, ZERO),
    (ZERO, ONE, ZERO),
    (ZERO, ZERO, ONE),
]


def test_boundary_corner_values_frozen():
    """Each corner measure weights its own corner 2/3 and the others 1/6."""
    for i in range(3):
        for j in range(3):
            got = rn_derivative(E[i], VertexAddress("", j))
            assert got == (Fraction(2, 3) if i == j else Fraction(1, 6))


def test_opposite_midpoint_vanishes():
    assert rn_derivative(E[0], VertexAddress("1", 2)) == 0
    assert rn_derivative(E[0], VertexAddress("2", 1)) == 0


def test_adjacent_midpoint_is_half_from_both_sides():
    assert _derivative_raw(E[0], "0", 1) == Fraction(1, 2)
    assert _derivative_raw(E[0], "1", 0) == Fraction(1, 2)


@given(triples, words, letters)
@settings(max_examples=60)
def test_two_closed_forms_agree_everywhere(c, word, corner):
    """The integer walk and the refine route share no arithmetic."""
    v = VertexAddress(word, corner)
    assert rn_derivative(c, v) == rn_derivative_via_mass(c, v) == rn_derivative_via_refine(c, v)


@given(words, letters)
def test_basis_ratios_partition_unity(word, corner):
    v = VertexAddress(word, corner)
    vals = [basis_ratio(i, v) for i in range(3)]
    assert sum(vals) == 1
    assert all(0 <= x <= 1 for x in vals)


@pytest.mark.parametrize("i", [-1, 3])
def test_basis_ratio_rejects_a_corner_outside_0_to_2(i):
    with pytest.raises(ValueError, match="corner must be 0, 1 or 2"):
        basis_ratio(i, VertexAddress("01", 2))


@given(triples, triples, words, letters)
@settings(max_examples=40)
def test_derivative_is_linear_in_the_measure(c, d, word, corner):
    v = VertexAddress(word, corner)
    mixed = tuple(a + b for a, b in zip(c, d))
    # the deriving measure is fixed, so numerators add over a shared denominator
    left = rn_derivative(mixed, v)
    assert left == rn_derivative(c, v) + rn_derivative(d, v)


def test_scan_depth_one_frozen():
    s = scan_extrema(E[0], "", 1)
    assert s.minimum == 0 and s.argmin == VertexAddress("1", 2)
    assert s.maximum == Fraction(1, 2) and s.argmax == VertexAddress("0", 1)


def test_scan_excludes_the_cell_corners():
    """Inside F_0 the corner value 2/3 is a boundary value, not a scan hit."""
    s = scan_extrema(E[0], "0", 2)
    assert s.maximum < Fraction(2, 3)
    assert s.argmax.canonical() != VertexAddress("", 0)


def test_scan_extrema_widen_with_depth():
    prev = None
    for depth in range(1, 7):
        s = scan_extrema(E[0], "", depth)
        if prev is not None:
            assert s.minimum <= prev.minimum
            assert s.maximum >= prev.maximum
        prev = s
    assert prev.maximum < Fraction(2, 3)


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan_extrema(E[0], "", 0)
    with pytest.raises(ValueError):
        scan_extrema((ONE, ONE, -ONE), "", 2)


def test_scan_witnesses_are_exact():
    c = (Fraction(4, 3), Fraction(8), Fraction(1))
    s = scan_extrema(c, "21", 3)
    assert rn_derivative(c, s.argmax) == s.maximum
    assert rn_derivative(c, s.argmin) == s.minimum
    assert s.maximum < Fraction(2, 3) * sum(c)


@given(st.builds(Harmonic, rationals, rationals, rationals), words)
@settings(max_examples=60)
def test_skew_energy_gap_is_nonnegative(h, word):
    assert skew_energy_gap(h, word) >= 0


@given(rationals, rationals)
def test_skew_energy_gap_vanishes_on_skew_triples(c, a):
    assert skew_energy_gap(Harmonic(c, c + a, c - a), "") == 0


def ref_axis_gap(c, word, axis):
    """The ``Fraction`` children-triple form the integer gap replaced."""
    x = children_triple(c, word)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    return 14 * x[axis] - x[j] - x[k]


def test_integer_axis_gap_equals_the_children_triple_form():
    rng = random.Random(20240817)
    signed = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3))
              for _ in range(8)]
    for c in signed + list(BASIS_COEFFS) + [KUSUOKA, (3, -1, 2)]:
        for n in range(WORD_MAX_LEN + 1):
            word = "".join(rng.choice("012") for _ in range(n))
            for axis in range(3):
                got = axis_gap(c, word, axis)
                assert got == ref_axis_gap(c, word, axis) and type(got) is Fraction, (c, word, axis)


def test_a_wrong_gap_coefficient_fails_verify(capsys, monkeypatch):
    """The gap shares its integer corner weights with ``rn_derivative``, so a
    wrong weight fails the skew check along with the route checks."""
    monkeypatch.setattr(dv, "_CORNER_WEIGHTS_INT", ((5, 1, 1), (1, 5, 1), (1, 1, 5)))
    assert main(["verify", "--suite", "derivatives", "--max-depth", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert ("FAIL  derivatives.skew-gap-nonnegative: counterexample "
            "(Harmonic(v0=Fraction(-5, 4), v1=Fraction(3, 2), v2=Fraction(-5, 2)), '')") in out


def test_decay_generic_along_repeated_zero():
    r = decay_sequence(KUSUOKA, "", 0, 12)
    assert r.values[0] == 6 and r.values[1] == 2 and r.values[2] == Fraction(82, 75)
    assert r.classification is DecayClass.GENERIC
    assert abs(r.values[12] / r.values[11] - Fraction(3, 5)) < Fraction(1, 10**6)


def test_decay_degenerate_is_exact_one_fifteenth():
    r = decay_sequence(E[0], "1", 2, 10)
    assert r.classification is DecayClass.DEGENERATE
    assert r.values[0] == Fraction(2, 5)
    for a, b in zip(r.values, r.values[1:]):
        assert b == a / 15


@pytest.mark.parametrize("depth", [0, 5])
def test_decay_class_is_exact_at_every_depth(depth):
    """The class comes from the 3/5 coefficient, not from a fitted ratio, so
    short sequences are classified too."""
    assert decay_sequence(KUSUOKA, "", 0, depth).classification is DecayClass.GENERIC
    assert decay_sequence(E[0], "1", 2, depth).classification is DecayClass.DEGENERATE
    zero = (ZERO, ZERO, ZERO)
    assert decay_sequence(zero, "", 0, depth).classification is DecayClass.UNCLASSIFIED


def test_decay_rejects_negative_depth():
    """Every measure is refused alike, before any work."""
    for c in ((ZERO, ZERO, ZERO), KUSUOKA, E[0]):
        with pytest.raises(ValueError, match="depth"):
            decay_sequence(c, "", 1, -1)


def decay_two_term(c, word, letter, m):
    """Closed-form oracle for the decay values: A/15^m + B(3/5)^m.

    The coefficients come from the children triple of the cell; the third
    eigenrate (1/5) never contributes to mass sums.
    """
    x = children_triple(c, word)
    i = letter
    j, k = (i + 1) % 3, (i + 2) % 3
    a = -Fraction(3, 4) * x[i] + Fraction(9, 8) * (x[j] + x[k])
    b = Fraction(1, 8) * (14 * x[i] - x[j] - x[k])
    return a * Fraction(1, 15) ** m + b * Fraction(3, 5) ** m


@given(triples, words, letters, st.integers(min_value=0, max_value=8))
@settings(max_examples=40)
def test_two_term_oracle_matches_sequence(c, word, letter, m):
    r = decay_sequence(c, word, letter, m)
    assert decay_two_term(c, word, letter, m) == r.values[m]


def test_edge_profile_frozen_symmetric():
    prof = edge_profile(E[0], "", (1, 2), 2)
    assert prof == [
        (Fraction(0), Fraction(1, 6)),
        (Fraction(1, 4), Fraction(1, 14)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(3, 4), Fraction(1, 14)),
        (Fraction(1), Fraction(1, 6)),
    ]


def test_edge_profile_rejects_negative_depth():
    """Depth 0 gives the two endpoints (see ``tests/test_kernel.py``); a
    negative depth is refused rather than read as 0."""
    for depth in (-1, -5):
        with pytest.raises(ValueError, match="depth"):
            edge_profile(E[0], "1", (0, 2), depth)


def test_edge_profile_positions_are_dyadic_and_sorted():
    prof = edge_profile(KUSUOKA, "1", (0, 2), 4)
    positions = [p for p, _ in prof]
    assert positions == sorted(positions)
    assert len(positions) == len(set(positions)) == 2 ** 4 + 1
    for p in positions:
        assert p.denominator & (p.denominator - 1) == 0  # a power of two


def test_edge_margin_matches_closed_form():
    for m in range(11):
        assert edge_margin("1" * m) == edge_margin_closed_form(m)
    assert edge_margin_closed_form(0) == 40
    assert edge_margin_closed_form(1) == 6
    assert edge_margin_closed_form(2) == Fraction(8, 5)


def test_edge_margin_rejects_words_touching_the_base_edge():
    with pytest.raises(ValueError):
        edge_margin("102")


def test_left_right_monotonicity_holds_only_at_shallow_depth():
    """The left-to-right value ordering survives two subdivisions and then
    genuinely breaks: the third-level corner cell outweighs its neighbour."""
    assert monotone_left_right(1)
    assert monotone_left_right(2)
    assert not monotone_left_right(3)
    assert not monotone_left_right(4)


def test_margin_floor_fails_from_depth_four():
    """The all-1s word has the smallest bottom-edge margin only through depth
    3; from depth 4 on two or more words over {1,2} lie below it."""
    assert edge_margin("1111") == Fraction(392, 1125)
    assert edge_margin("1121") == edge_margin("1211") == Fraction(242, 1125)
    below = []
    for m in range(7):
        floor = edge_margin("1" * m)
        below.append([w for w in map("".join, itertools.product("12", repeat=m))
                      if edge_margin(w) < floor])
    assert [len(ws) for ws in below] == [0, 0, 0, 0, 2, 10, 32]
    assert below[4] == ["1121", "1211"]


def test_left_right_values_at_depth_three_frozen():
    e2 = E[2]
    seq = [measure_of_cell(e2, "".join(w)) for w in
           ("111", "112", "121", "122", "211", "212", "221", "222")]
    assert seq == [Fraction(n, 1125) for n in (122, 62, 62, 122, 126, 126, 162, 486)]
    assert seq[0] > seq[1]  # the descent that breaks the ordering


def test_operator_norm_scan_frozen_and_bounded():
    values = [operator_norm_scan(m) for m in range(7)]
    assert values[:4] == [1, Fraction(5, 3), Fraction(47, 27), Fraction(425, 243)]
    for a, b in zip(values, values[1:]):
        assert a < b
    for v in values:
        assert v < Fraction(7, 4)


def test_rank1_powers_converge():
    rows, cols = ((14, -1, -1), (-1, 14, -1), (-1, -1, 14)), ((3, 1, 1), (1, 3, 1), (1, 1, 3))
    assert dv.LIMIT_ROWS == rows
    assert dv.RANK1_LIMITS == tuple(
        tuple(tuple(Fraction(col * row, 40) for row in rows[j]) for col in cols[j]) for j in range(3))
    for j in range(3):
        deviations = [rank1_deviation(j, n) for n in range(1, 13)]
        assert all(type(d) is Fraction for d in deviations)
        assert all(b <= a for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] < Fraction(1, 1000)


def test_q_factor_frozen():
    assert q_factor(0, VertexAddress("", 0)) == Fraction(9, 25)
    assert q_factor(0, VertexAddress("", 1)) == Fraction(3, 25)
    assert q_factor(0, VertexAddress("1", 2)) == Fraction(1, 25)
    assert q_factor(0, VertexAddress("", 0), printed_variant=True) == Fraction(29, 75)
    assert q_factor(0, VertexAddress("1", 2), printed_variant=True) == Fraction(1, 15)
    assert q_word("01", VertexAddress("", 0)) == Fraction(21, 625)
