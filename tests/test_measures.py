"""Cell masses, cross-route subdivision, the positivity cone."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasketenergy import measures
from gasketenergy.core import MASS_SCALED, REFINE_GENERATORS, int_row, lex_word, row_step, row_walk
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
        x = tuple(sum(g * v for g, v in zip(row, x)) for row in REFINE_GENERATORS[int(ch)])
    assert children_triple_via_refine(c, word) == x


def test_level1_helper_matches_children_of_root():
    c = (Fraction(3), Fraction(-1, 2), Fraction(2))
    assert level1_from_coeffs(c) == children_triple(c, "")


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
        with pytest.raises(ValueError, match=f"between 0 and {measures.NEGATIVE_DEPTH_MAX}, got {depth}"):
            find_negative_cell(c, max_depth=depth)


def test_find_negative_cell_bounds_its_depth_before_any_step(monkeypatch):
    """Past ``NEGATIVE_DEPTH_MAX`` the search raises before it steps a row; at
    the cap it runs."""
    c = (Fraction(3), Fraction(-1), Fraction(0))
    assert find_negative_cell(c, max_depth=measures.NEGATIVE_DEPTH_MAX) == "11"

    def no_step(row, g):
        raise AssertionError("a row was stepped before the depth was checked")

    monkeypatch.setattr(measures, "row_step", no_step)
    for depth in (measures.NEGATIVE_DEPTH_MAX + 1, 10**9):
        with pytest.raises(ValueError, match=f"between 0 and {measures.NEGATIVE_DEPTH_MAX}, got {depth}"):
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


def near_boundary(rng, n):
    """Energy measures of random harmonics, on the cone boundary, nudged outside it
    by sum/10^k for k = 2..8: their first negative cells lie at many depths."""
    out = []
    for _ in range(n):
        h = Harmonic(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)))
        c0 = measure_coeffs(h, h)
        if sum(c0):
            out.append(tuple(x - sum(c0) / 10 ** rng.randint(2, 8) for x in c0))
    return out


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


def unpruned_negative_cell(c, max_depth):
    """The search as it was before its prune: every cell of every level
    stepped as a bare integer row, the first negative one spelled by its index."""
    level = [row := int_row(c)[0]]
    if sum(row) < 0:
        return ""
    if cone_value(row) >= 0:
        return None
    for depth in range(1, max_depth + 1):
        below = []
        for row in level:
            for g in MASS_SCALED:
                r = row_step(row, g)
                if sum(r) < 0:
                    return lex_word(len(below), depth)
                below.append(r)
        level = below
    return None


def pruned_walk(c, max_depth):
    """The prune written out on words: ``(witness, steps)``, the search's
    answer and the number of rows it steps up to the hit, a child w being
    expanded iff 3 sum r_i^2 - s^2 < -6 e2 9^``max_depth`` for its row r."""
    root = int_row(c)[0]
    if sum(root) < 0 or cone_value(root) >= 0:
        return ("" if sum(root) < 0 else None), 0
    level, steps, floor = [""], 0, -6 * cone_value(root) * 9**max_depth
    for depth in range(1, max_depth + 1):
        below = []
        for word in level:
            for child in (word + ch for ch in "012"):
                steps += 1
                r = row_walk(root, child)
                s = sum(r)
                if s < 0:
                    return child, steps
                if 3 * sum(x * x for x in r) - s * s < floor:
                    below.append(child)
        level = below
    return None, steps


def spy_steps(monkeypatch):
    """Record every ``(row, generator)`` the search steps, in order."""
    calls, step = [], measures.row_step

    def counted(row, g):
        calls.append((row, g))
        return step(row, g)

    monkeypatch.setattr(measures, "row_step", counted)
    return calls


def test_find_negative_cell_steps_each_child_once_up_to_the_hit(monkeypatch):
    """The search steps no row twice, and as many rows as the word-by-word
    prune: every expanded child's children, up to the hit."""
    calls = spy_steps(monkeypatch)
    skew = [c for _, c in nudged_skew_boundary()]
    cases = [(c, 10) for c in seeded_exterior(24) + skew[:6] + [tuple(-x for x in KUSUOKA)]] + [(skew[0], 6)]
    for c, depth in cases:
        calls.clear()
        w, steps = pruned_walk(c, depth)
        assert find_negative_cell(c, max_depth=depth) == w
        assert len(calls) == len(set(calls)) == steps, (c, depth)
    assert w is None and steps < (3 ** 7 - 3) // 2  # the unpruned walk makes all 1,092 cells of levels 1-6
    for c in (KUSUOKA, E0, (Fraction(2), Fraction(1), Fraction(1))):
        calls.clear()
        assert find_negative_cell(c, max_depth=10) is None
        assert calls == []


def pruned_cells(monkeypatch, c, max_depth):
    """``(witness, pruned)``: ``find_negative_cell``'s answer and the cells it
    made but did not expand, read from the rows it stepped.  A cell made at the
    hit's depth, or one level up after the hit's parent, was left by the early
    exit, not the prune, so it is not counted."""
    calls = spy_steps(monkeypatch)
    hit = find_negative_cell(c, max_depth=max_depth)
    stepped, root = set(calls), int_row(c)[0]
    cut = (len(hit) - 1, hit[:-1]) if hit is not None else (max_depth, "")
    pruned, level = [], [""]
    while level:
        made = [w + ch for w in level for ch, g in zip("012", MASS_SCALED) if (row_walk(root, w), g) in stepped]
        level = [w for w in made if (row_walk(root, w), MASS_SCALED[0]) in stepped]
        pruned += [w for w in made if w not in level and (len(w), w) < cut]
    return hit, pruned


def test_pruned_cells_have_no_negative_descendant(monkeypatch):
    """Brute force below every cell the search stops expanding: no descendant
    down to ``max_depth`` is negative.  Some witnesses lie at ``max_depth``
    itself, where a prune proved only 9^(``max_depth`` - 1) deep would stop
    above them."""
    cases = [(c, 3 + i % 4) for i, c in enumerate(seeded_exterior(40))]
    cases += [(c, 6) for c in near_boundary(random.Random(6_021), 30)]
    checked, at_floor = 0, 0
    for c, depth in cases:
        with monkeypatch.context() as patch:
            hit, pruned = pruned_cells(patch, c, depth)
        at_floor += hit is not None and len(hit) == depth
        for w in pruned:
            below = (w + "".join(u) for n in range(1, depth - len(w) + 1) for u in itertools.product("012", repeat=n))
            assert all(measure_of_cell(c, u) >= 0 for u in below), (c, depth, w)
        checked += len(pruned)
    assert checked > 100 and at_floor > 5, (checked, at_floor)


def test_find_negative_cell_equals_the_unpruned_walk():
    """The prune changes no answer: seeded exterior triples and nudged boundary
    triples, at depths 0 to 10, against the walk without it."""
    cases = seeded_exterior(420) + near_boundary(random.Random(1_729), 300)
    depths = [0, 3, 6, 8, 10]
    assert len(cases) >= 700
    for i, c in enumerate(cases):
        depth = depths[i % 5]
        assert find_negative_cell(c, max_depth=depth) == unpruned_negative_cell(c, depth), (c, depth)


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
