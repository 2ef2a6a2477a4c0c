"""Cell masses, cross-route subdivision, the positivity cone."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasketenergy import measures
from gasketenergy.core import REFINE_GENERATORS, mat_vec
from gasketenergy.harmonic import BASIS, Harmonic, cell_energy, measure_coeffs
from gasketenergy.measures import (
    KUSUOKA,
    basis_masses,
    children_triple,
    children_triple_via_refine,
    cone_value,
    decompose_positive,
    find_negative_cell,
    format_coeffs,
    is_positive,
    level1_from_coeffs,
    measure_of_cell,
    parse_coeffs,
    selfsim_identity_gap,
    subtree_coeffs,
    total_mass,
)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)
triples = st.tuples(rationals, rationals, rationals)
words = st.text(alphabet="012", max_size=5)
letters = st.integers(min_value=0, max_value=2)

E0 = (Fraction(1), Fraction(0), Fraction(0))


def test_whole_set_masses_frozen():
    assert measure_of_cell(KUSUOKA, "") == 6
    for i in range(3):
        e = tuple(Fraction(1 if k == i else 0) for k in range(3))
        assert measure_of_cell(e, "") == 2


def test_level_one_masses_frozen():
    """A corner measure weights its own cell 6/5 and the other two 2/5."""
    for i in range(3):
        e = tuple(Fraction(1 if k == i else 0) for k in range(3))
        for j in range(3):
            expect = Fraction(6, 5) if i == j else Fraction(2, 5)
            assert measure_of_cell(e, str(j)) == expect
    assert measure_of_cell(KUSUOKA, "0") == 2
    assert measure_of_cell(KUSUOKA, "00") == Fraction(82, 75)


def test_basis_masses_start_uniform():
    assert basis_masses("") == (2, 2, 2)
    assert basis_masses("0") == (Fraction(6, 5), Fraction(2, 5), Fraction(2, 5))


@given(triples, words)
@settings(max_examples=60)
def test_children_sum_to_parent(c, word):
    assert sum(children_triple(c, word)) == measure_of_cell(c, word)


@given(triples, words)
@settings(max_examples=60)
def test_two_subdivision_routes_agree(c, word):
    assert children_triple(c, word) == children_triple_via_refine(c, word)


@given(triples, st.text(alphabet="012", max_size=12))
@settings(max_examples=60)
def test_refine_route_equals_the_fraction_fold(c, word):
    """The integer refine walk against the ``Fraction`` fold it replaced."""
    x = level1_from_coeffs(c)
    for ch in word:
        x = mat_vec(REFINE_GENERATORS[int(ch)], x)
    assert children_triple_via_refine(c, word) == x


def test_level1_helper_matches_children_of_root():
    c = (Fraction(3), Fraction(-1, 2), Fraction(2))
    assert level1_from_coeffs(c) == children_triple(c, "")


@given(triples, words)
@settings(max_examples=60)
def test_subtree_coeffs_carry_the_cell_mass(c, word):
    assert 2 * sum(subtree_coeffs(c, word)) == measure_of_cell(c, word)


def test_masses_match_restricted_energies():
    for i, h in enumerate(BASIS):
        e = tuple(Fraction(1 if k == i else 0) for k in range(3))
        for word in ("", "0", "12", "201"):
            assert measure_of_cell(e, word) == cell_energy(h, word)


@given(words, letters)
def test_selfsim_identity_gap_vanishes(word, letter):
    assert selfsim_identity_gap(word, letter) == 0


@given(st.builds(Harmonic, rationals, rationals, rationals))
def test_single_harmonic_coefficients_sit_on_cone_boundary(h):
    c = measure_coeffs(h, h)
    assert cone_value(c) == 0
    assert is_positive(c)


def test_cone_value_frozen():
    assert cone_value(KUSUOKA) == 3
    assert cone_value((Fraction(1), Fraction(1), Fraction(-1))) == -1


def test_positive_triples_have_no_negative_cell():
    for c in (KUSUOKA, (Fraction(2), Fraction(1), Fraction(1)), E0):
        assert is_positive(c)
        assert find_negative_cell(c, max_depth=7) is None


def test_exterior_triple_yields_negative_witness():
    c = (Fraction(1), Fraction(1), Fraction(-1))
    assert not is_positive(c)
    w = find_negative_cell(c, max_depth=10)
    assert w is not None
    assert measure_of_cell(c, w) < 0


def test_find_negative_cell_rejects_a_negative_depth():
    c = (Fraction(3), Fraction(-1), Fraction(0))
    assert find_negative_cell(c, max_depth=5) == "11"
    for depth in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            find_negative_cell(c, max_depth=depth)


def first_negative_cell(c, max_depth):
    """Brute force: every word by length, then lexicographically, by ``measure_of_cell``."""
    for depth in range(max_depth + 1):
        for w in map("".join, itertools.product("012", repeat=depth)):
            if measure_of_cell(c, w) < 0:
                return w
    return None


def seeded_exterior(n):
    rng = random.Random(2_718)
    found = []
    while len(found) < n:
        c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if cone_value(c) < 0 and sum(c) > 0:  # a negative sum is answered at the root
            found.append(c)
    return found


def nudged_skew_boundary():
    """Energy measures of harmonics skew about a corner, moved sum/10^6 outside
    the cone: their first negative cell is that corner's depth-7 cell."""
    for scale in (Fraction(1), Fraction(8, 3), Fraction(1, 25)):
        for corner in range(3):
            c0 = tuple(scale * (-1 if k == corner else 2) for k in range(3))
            yield corner, tuple(x - sum(c0) / 10**6 for x in c0)


def test_find_negative_cell_is_the_first_negative_word_by_length():
    depths = [0, 1, 2, 3, 4, 5] * 34
    for c, depth in zip(seeded_exterior(204), depths):
        assert find_negative_cell(c, max_depth=depth) == first_negative_cell(c, depth), (c, depth)


def test_find_negative_cell_reaches_the_skew_boundary_corner_cells():
    for corner, c in nudged_skew_boundary():
        w = find_negative_cell(c, max_depth=10)
        assert w == str(corner) * 7 == first_negative_cell(c, 7), (c, w)
        assert find_negative_cell(c, max_depth=6) is None
        assert first_negative_cell(c, 6) is None


def test_find_negative_cell_steps_each_child_once_up_to_the_hit(monkeypatch):
    calls, step = [], measures.row_step

    def counted(row, g):
        calls.append(g)
        return step(row, g)

    monkeypatch.setattr(measures, "row_step", counted)
    skew = [c for _, c in nudged_skew_boundary()]
    for c in seeded_exterior(24) + skew[:6] + [tuple(-x for x in KUSUOKA)]:
        calls.clear()
        w = find_negative_cell(c, max_depth=10)
        d, i = len(w), int(w or "0", 3)
        assert len(calls) == (3 ** d - 3) // 2 + i + 1, (c, w)
    calls.clear()
    assert find_negative_cell(skew[0], max_depth=6) is None
    assert len(calls) == (3 ** 7 - 3) // 2
    for c in (KUSUOKA, E0, (Fraction(2), Fraction(1), Fraction(1))):
        calls.clear()
        assert find_negative_cell(c, max_depth=10) is None
        assert calls == []


def test_decompose_uniform_measure_exactly():
    t, p, q = decompose_positive(KUSUOKA)
    assert t == Fraction(1, 2)
    assert p == (3, 0, 0) and q == (-1, 2, 2)
    assert cone_value(p) == 0 and cone_value(q) == 0


def test_decompose_rational_discriminant_exactly():
    c = (Fraction(2), Fraction(1), Fraction(1))
    t, p, q = decompose_positive(c)
    assert cone_value(p) == 0 and cone_value(q) == 0
    mixed = tuple(t * a + (1 - t) * b for a, b in zip(p, q))
    assert mixed == c


def test_decompose_irrational_case_is_numerically_tight():
    c = (Fraction(3), Fraction(1), Fraction(1, 2))
    t, p, q = decompose_positive(c)
    for a, b, target in zip(p, q, c):
        assert math.isclose(t * a + (1 - t) * b, float(target), abs_tol=1e-12)
    assert abs(float(cone_value(tuple(Fraction(x).limit_denominator(10**12) for x in p)))) < 1e-9


def test_decompose_irrational_floats_frozen():
    """Bit-for-bit float entries of one irrational split."""
    assert repr(decompose_positive((Fraction(1), Fraction(2), Fraction(3)))) == (
        "(0.3556624327025936, (5.464101615137755, 2.0, -1.4641016151377548), "
        "(-1.4641016151377555, 1.9999999999999993, 5.464101615137754))"
    )


def test_decompose_rejects_non_positive_input():
    with pytest.raises(ValueError):
        decompose_positive((Fraction(1), Fraction(1), Fraction(-1)))


@given(triples)
def test_coeff_text_round_trip(c):
    assert parse_coeffs(format_coeffs(c)) == c


def test_total_mass_is_twice_coefficient_sum():
    assert total_mass(KUSUOKA) == 6
    assert total_mass(E0) == 2
