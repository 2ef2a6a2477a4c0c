"""Cell-averaging weight triples and their three computation routes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasketenergy import WORD_MAX_LEN
from gasketenergy.bvectors import (
    _from_child_masses,
    _from_column_sums,
    b_from_kusuoka,
    b_from_mass,
    b_from_word,
    b_step,
    closed_form_b,
    disk_radius_sq,
    enumerate_bvectors,
    level_routes,
    rows_agree,
    scan_bounds,
    unit_triple,
    weighted_average_gap,
)

words = st.text(alphabet="012", max_size=6)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)

THIRD = Fraction(1, 3)


def test_frozen_weight_triples():
    assert b_from_mass("") == (THIRD, THIRD, THIRD)
    assert b_from_mass("0") == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    assert b_from_mass("00") == (Fraction(27, 41), Fraction(7, 41), Fraction(7, 41))
    assert b_from_mass("01") == (Fraction(7, 17), Fraction(9, 17), Fraction(1, 17))


@given(words)
def test_three_routes_agree(word):
    b = b_from_mass(word)
    assert b == b_from_word(word)
    assert b == b_from_kusuoka(word)


@given(words)
def test_weights_sum_to_one_inside_strict_bounds(word):
    b = b_from_mass(word)
    assert sum(b) == 1
    for x in b:
        assert 0 < x < Fraction(2, 3)
    assert disk_radius_sq(b) < Fraction(1, 6)


def test_step_has_corner_fixed_point():
    fp = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
    assert b_step(fp, 0) == fp
    assert b_step(fp, 1) != fp


def test_step_rejects_non_unit_sums():
    with pytest.raises(ValueError):
        b_step((THIRD, THIRD, THIRD + 1), 0)


def test_step_rejects_a_vanishing_denominator():
    with pytest.raises(ValueError, match="degenerate"):
        b_step((Fraction(-1, 12), Fraction(1, 2), Fraction(7, 12)), 0)  # 12 b_0 + 1 == 0


def rational_step(b, j):
    """The weight step in rationals, as ``b_step`` states it."""
    k, l = (j + 1) % 3, (j + 2) % 3
    den = 12 * b[j] + 1
    out = [None] * 3
    out[j] = 9 * b[j] / den
    out[k] = (2 * b[j] + 2 * b[k] - b[l]) / den
    out[l] = (2 * b[j] - b[k] + 2 * b[l]) / den
    return tuple(out)


@given(rationals, rationals, st.integers(min_value=0, max_value=2))
def test_step_equals_the_rational_formula(x, y, j):
    b = (x, y, 1 - x - y)
    if 12 * b[j] + 1 != 0:
        assert b_step(b, j) == rational_step(b, j)


def test_integer_walks_equal_the_rational_step_walk():
    """``enumerate_bvectors`` and ``b_from_word`` against the ``Fraction``
    walk they replaced."""
    level = [("", (THIRD, THIRD, THIRD))]
    for m in range(1, 6):
        level = [(w + str(j), rational_step(b, j)) for w, b in level for j in range(3)]
        assert list(enumerate_bvectors(m)) == level
    for w, b in level:
        assert b_from_word(w) == b


@given(st.integers(min_value=0, max_value=2))
def test_step_from_center_frozen(j):
    out = b_step((THIRD, THIRD, THIRD), j)
    assert out[j] == Fraction(3, 5)
    assert sum(out) == 1


def test_closed_form_along_repeated_zero():
    assert closed_form_b(0) == (THIRD, THIRD, THIRD)
    assert closed_form_b(1) == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    assert closed_form_b(2) == (Fraction(27, 41), Fraction(7, 41), Fraction(7, 41))
    for m in range(7):
        assert closed_form_b(m) == b_from_mass("0" * m)


def test_closed_form_refuses_a_length_outside_the_word_cap():
    assert closed_form_b(WORD_MAX_LEN)[0] < Fraction(2, 3)
    for m in (-1, WORD_MAX_LEN + 1):
        with pytest.raises(ValueError, match=f"m must be between 0 and {WORD_MAX_LEN}, got {m}"):
            closed_form_b(m)


def test_sharpness_radius_increases_toward_the_disk_rim():
    prev = None
    for m in range(9):
        r = disk_radius_sq(closed_form_b(m))
        assert r < Fraction(1, 6)
        if prev is not None:
            assert r > prev
        prev = r


@given(
    st.tuples(rationals, rationals, rationals),
    st.text(alphabet="012", max_size=3),
)
@settings(max_examples=60)
def test_weighted_average_identity(c, word):
    assert weighted_average_gap(c, word) == 0


def test_bound_scan_finds_no_counterexample():
    assert scan_bounds(6) is None


def test_enumeration_is_lexicographic_and_complete():
    pairs = list(enumerate_bvectors(2))
    assert len(pairs) == 9
    assert [w for w, _ in pairs] == sorted(w for w, _ in pairs)
    for w, b in pairs:
        assert b == b_from_word(w)


def test_level_walk_equals_the_per_word_routes():
    """``level_routes`` shares each route's step across prefixes; the
    per-word functions fold it along one word from the root, and their leaf
    formulas read the tree's rows."""
    for m in range(7):
        words = [w for w, _ in enumerate_bvectors(m)]
        assert [w for w, _ in level_routes(m)] == words
        for w, (p, c, x) in level_routes(m):
            triples = (unit_triple(p), _from_column_sums(c), _from_child_masses(x))
            assert triples == (b_from_word(w), b_from_mass(w), b_from_kusuoka(w)), w
            assert rows_agree(p, c, x), w


def test_rows_agree_is_the_triple_comparison():
    """The integer cross-multiplication says what comparing the three
    triples says, on the rows of level 3 and on each one-entry change of
    one row; a row summing to zero never agrees."""
    for w, rows in level_routes(3):
        for r in range(3):
            for j in range(3):
                for d in (-1, 1):
                    bent = [list(row) for row in rows]
                    bent[r][j] += d
                    p, c, x = map(tuple, bent)
                    same = sum(p) and sum(c) and sum(x) and (
                        unit_triple(p) == _from_column_sums(c) == _from_child_masses(x))
                    assert rows_agree(p, c, x) == bool(same), (w, r, j, d)
    assert not rows_agree((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert not rows_agree((1, 1, 1), (0, 0, 0), (0, 0, 0))


def test_enumeration_rejects_negative_depth():
    with pytest.raises(ValueError):
        list(enumerate_bvectors(-1))


def test_three_routes_agree_on_a_64_letter_word():
    """The Kusuoka route reads the child masses of the cell itself, so a
    word at the length cap needs no 65-letter child word."""
    word = ("0121102201" * 7)[:64]
    b = b_from_mass(word)
    assert b == b_from_word(word) == b_from_kusuoka(word)
    assert sum(b) == 1
