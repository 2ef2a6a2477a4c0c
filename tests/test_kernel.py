"""The integer row kernel: its exact identities, the block walk
``core.subtree_levels``, and the scans built on it checked against the
depth-first walks they replaced.

The reference walks below are the previous implementations, kept here
verbatim in substance: every vertex evaluated from its own root-to-leaf
rows (``scan_extrema``), one root-to-leaf derivative per edge vertex
(``edge_profile``), a preorder recursion (``scan_bounds``), a depth-first
stack of matrix products (``operator_norm_scan``) and one root-to-leaf mass
and margin per bottom-edge cell (``monotone_left_right``).
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from gasketenergy import bvectors as bv
from gasketenergy import core
from gasketenergy import derivatives as dv
from gasketenergy.core import (
    MASS_SCALED,
    REFINE_DEN,
    REFINE_SCALED,
    VertexAddress,
    lex_word,
    mat_mul,
    row_children,
    row_step,
    row_walk,
    subtree_levels,
    word_matrix,
)
from gasketenergy.measures import KUSUOKA, is_positive, measure_of_cell, subtree_coeffs

ONE, ZERO = Fraction(1), Fraction(0)
E = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
W = dv._CORNER_WEIGHTS_INT


def words_of(n):
    return ["".join(t) for t in itertools.product("012", repeat=n)]


def transpose(m):
    return tuple(zip(*m))


def e2(row):
    c0, c1, c2 = row
    return c0 * c1 + c1 * c2 + c0 * c2


# ---------------------------------------------------------------------------
# the kernel itself
# ---------------------------------------------------------------------------

def test_row_walk_is_the_scaled_word_product():
    for word in ["", "0", "21", "1020", "2220111"]:
        for family, gens, den in (("mass", MASS_SCALED, 15), ("refine", REFINE_SCALED, 75)):
            mat = word_matrix(family, word)
            for i in range(3):
                unit = tuple(int(i == k) for k in range(3))
                row = row_walk(unit, word, gens)
                assert tuple(Fraction(x, den ** len(word)) for x in row) == mat[i]


def test_row_children_come_in_word_order():
    rows = [(3, -1, 2)]
    for n in range(1, 5):
        rows = row_children(rows)
        assert rows == [row_walk((3, -1, 2), w) for w in words_of(n)]
        assert [lex_word(i, n) for i in range(3 ** n)] == words_of(n)


def test_row_children_of_a_subfamily_follow_its_order():
    pair = (MASS_SCALED[2], MASS_SCALED[0])
    rows = row_children(row_children([(1, 2, 3)], pair), pair)
    assert rows == [row_walk((1, 2, 3), w) for w in ("22", "20", "02", "00")]


def test_row_step_matches_one_letter_walk():
    for j in range(3):
        assert row_step((5, -7, 11), MASS_SCALED[j]) == row_walk((5, -7, 11), str(j))


# ---------------------------------------------------------------------------
# the block walk every exact scan shares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [1, 2, 3, 4])
@pytest.mark.parametrize("word", ["", "12"])
def test_subtree_levels_visits_every_cell_once(monkeypatch, block, word):
    monkeypatch.setattr(core, "BLOCK_LEVELS", block)
    tops = ((3, -1, 2), (1, 1, 1))
    for levels in range(1, 8):
        seen = []
        for root, t, level in subtree_levels(word, tops, levels):
            assert [len(fam) for fam in level] == [3**t, 3**t]
            for i in range(3**t):
                cell = root + lex_word(i, t)
                assert [fam[i] for fam in level] == [row_walk(r, cell[len(word):]) for r in tops]
                seen.append(cell)
        assert sorted(seen) == sorted(word + u for n in range(levels) for u in words_of(n))
        assert len(seen) == len(set(seen)), (block, levels)


def test_subtree_levels_visits_block_roots_in_word_order(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_LEVELS", 2)
    roots = [root for root, t, _ in subtree_levels("", ((1, 1, 1),), 5) if t == 0]
    # the first block takes the remainder; roots come depth-first, in word order
    assert roots == sorted([""] + words_of(1) + words_of(3))


@pytest.mark.parametrize("levels", [0, -1])
def test_subtree_levels_of_no_levels_is_empty(levels):
    assert list(subtree_levels("0", ((1, 1, 1),), levels)) == []


# ---------------------------------------------------------------------------
# identities behind the scans
# ---------------------------------------------------------------------------

def test_edge_vector_identity():
    """M_j w_k == M_k w_j == 9 (e_j + e_k): junction continuity in integers.

    It is why the derivative at the midpoint of edge {j, k} of a cell is
    (r_j + r_k) / (q_j + q_k) from the cell's own rows.
    """
    for j, k in itertools.combinations(range(3), 2):
        edge = tuple(9 * (int(i == j) + int(i == k)) for i in range(3))
        for a, b in ((j, k), (k, j)):
            m = MASS_SCALED[a]
            assert tuple(sum(m[r][t] * W[b][t] for t in range(3)) for r in range(3)) == edge


def test_midpoint_value_is_read_from_the_parent_rows():
    c = (Fraction(5, 2), Fraction(-1, 3), Fraction(2))
    for word in ["", "1", "02", "2101"]:
        r, q = subtree_coeffs(c, word), subtree_coeffs(KUSUOKA, word)
        for j, k in itertools.combinations(range(3), 2):
            v = VertexAddress(word + str(j), k)
            assert dv.rn_derivative(c, v) == (r[j] + r[k]) / (q[j] + q[k])


def test_cone_form_is_invariant_up_to_nine():
    """M_j A M_j^T == 9 A for the matrix A of e2 = c0c1 + c1c2 + c0c2."""
    a = ((0, 1, 1), (1, 0, 1), (1, 1, 0))  # twice the form's matrix
    for m in MASS_SCALED:
        assert mat_mul(mat_mul(m, a), transpose(m)) == tuple(
            tuple(9 * x for x in row) for row in a
        )


def test_column_sum_rows_have_e2_three_times_nine_to_the_level():
    rows = [(1, 1, 1)]
    for m in range(9):
        assert all(e2(row) == 3 * 9**m for row in rows), m
        rows = row_children(rows)


@given(st.tuples(*[st.integers(min_value=-10**6, max_value=10**6)] * 3))
def test_disk_sum_from_e2(row):
    """sum (3c_j - T)^2 == 6 T^2 - 18 e2."""
    total = sum(row)
    assert sum((3 * c - total) ** 2 for c in row) == 6 * total * total - 18 * e2(row)


# ---------------------------------------------------------------------------
# scan_extrema against the depth-first walk
# ---------------------------------------------------------------------------

def canonical_key(word, corner):
    v = VertexAddress(word, corner).canonical()
    return (v.word, v.corner)


def reference_scan_extrema(c, word, depth):
    """Every spelling (w, corner) of every vertex, each from its own rows."""
    den = math.lcm(*(x.denominator for x in c))
    r0 = row_walk(tuple(int(x * den) for x in c), word)
    k0 = row_walk((den, den, den), word)
    best_min = best_max = None  # (numerator, positive denominator, canonical key)
    base = len(word)
    stack = [(word, r0, k0, depth)]
    while stack:
        w, r, k, budget = stack.pop()
        u = w[base:]
        for corner in (0, 1, 2):
            if not u or u == str(corner) * len(u):
                continue  # this spelling names a corner of the scanned cell
            wt = W[corner]
            num = wt[0] * r[0] + wt[1] * r[1] + wt[2] * r[2]
            dnm = wt[0] * k[0] + wt[1] * k[1] + wt[2] * k[2]
            if best_min is None or num * best_min[1] <= best_min[0] * dnm:
                key = canonical_key(w, corner)
                if best_min is None or num * best_min[1] < best_min[0] * dnm or key < best_min[2]:
                    best_min = (num, dnm, key)
            if best_max is None or num * best_max[1] >= best_max[0] * dnm:
                key = canonical_key(w, corner)
                if best_max is None or num * best_max[1] > best_max[0] * dnm or key < best_max[2]:
                    best_max = (num, dnm, key)
        if budget > 0:
            for j in (2, 1, 0):
                g = MASS_SCALED[j]
                stack.append((w + str(j), row_step(r, g), row_step(k, g), budget - 1))
    return dv.ScanResult(
        Fraction(best_min[0], best_min[1]),
        Fraction(best_max[0], best_max[1]),
        VertexAddress(*best_min[2]),
        VertexAddress(*best_max[2]),
    )


def seeded_positive(rng, n):
    out = []
    while len(out) < n:
        c = tuple(Fraction(rng.randint(-4, 9), rng.randint(1, 5)) for _ in range(3))
        if is_positive(c) and sum(c) > 0:
            out.append(c)
    return out


SCAN_MEASURES = E + [KUSUOKA] + seeded_positive(random.Random(4_141), 3)
SCAN_WORDS = ["", "2", "01", "120"]


@pytest.mark.parametrize("c", SCAN_MEASURES, ids=str)
def test_scan_extrema_equals_reference(c):
    for word in SCAN_WORDS:
        for depth in range(1, 9):
            assert dv.scan_extrema(c, word, depth) == reference_scan_extrema(c, word, depth), (word, depth)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_scan_extrema_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK_LEVELS", block)
    for c in (E[0], SCAN_MEASURES[-1]):
        for depth in (1, 4, 7):
            assert dv.scan_extrema(c, "1", depth) == reference_scan_extrema(c, "1", depth)


# ---------------------------------------------------------------------------
# edge_profile against one root-to-leaf derivative per vertex
# ---------------------------------------------------------------------------

def reference_edge_profile(c, word, edge, depth):
    j, k = edge
    out = [
        (Fraction(0), dv.rn_derivative(c, VertexAddress(word, j))),
        (Fraction(1), dv.rn_derivative(c, VertexAddress(word, k))),
    ]
    for n in range(1, depth + 1):
        for bits in range(1 << (n - 1)):
            u = "".join(str(k) if (bits >> (n - 2 - t)) & 1 else str(j) for t in range(n - 1))
            pos = Fraction(2 * bits + 1, 1 << n)
            out.append((pos, dv.rn_derivative(c, VertexAddress(word + u + str(j), k))))
    out.sort(key=lambda item: item[0])
    return out


@pytest.mark.parametrize("edge", list(itertools.permutations(range(3), 2)))
def test_edge_profile_equals_reference_in_both_orientations(edge):
    c = (Fraction(3), Fraction(1, 2), Fraction(-1))
    for word in ("", "02", "1211"):
        for depth in (0, 1, 2, 5, 7):
            assert dv.edge_profile(c, word, edge, depth) == reference_edge_profile(c, word, edge, depth)


# ---------------------------------------------------------------------------
# scan_bounds against the preorder recursion, with offenders planted
# ---------------------------------------------------------------------------

def reference_scan_bounds(gens, max_level) -> Optional[str]:
    def walk(row, budget):
        c0, c1, c2 = row
        total = c0 + c1 + c2
        for cj in row:
            if total + 3 * cj <= 0 or cj >= total:
                return ""
        if sum((3 * cj - total) ** 2 for cj in row) >= 6 * total * total:
            return ""
        if c0 * c1 + c1 * c2 + c0 * c2 <= 0:
            return ""
        if budget == 0:
            return None
        for j in (0, 1, 2):
            hit = walk(row_step(row, gens[j]), budget - 1)
            if hit is not None:
                return str(j) + hit
        return None

    return walk((1, 1, 1), max_level)


def perturbed(entries):
    """The mass family with ``(letter, row, col, delta)`` changes."""
    gens = [list(map(list, g)) for g in MASS_SCALED]
    for letter, r, c, delta in entries:
        gens[letter][r][c] += delta
    return tuple(tuple(map(tuple, g)) for g in gens)


# (family, its lexicographically first offender, a shallower offender that
# sorts after it): the first offender lies past one block of levels
PLANTED = [
    (perturbed([(1, 0, 1, 1), (2, 1, 0, -1)]), "000000012", "12"),
    (perturbed([(0, 1, 1, 1), (0, 2, 0, 1)]), "000000020", "200"),
    (perturbed([(1, 0, 0, -1), (2, 2, 0, 1)]), "000000001", "01"),
]
PLANTED_FAMILIES = [gens for gens, _, _ in PLANTED]


def seeded_perturbations(n):
    rng = random.Random(97)
    return [
        perturbed([(rng.randrange(3), rng.randrange(3), rng.randrange(3), rng.choice((-1, 1)))
                   for _ in range(2)])
        for _ in range(n)
    ]


def test_planted_families_have_deep_first_offenders():
    for gens, first, shallow in PLANTED:
        assert reference_scan_bounds(gens, len(first)) == first
        assert len(shallow) < len(first) and shallow > first
        row = row_walk((1, 1, 1), shallow, gens)  # the shallow word offends too
        assert e2(row) <= 0 or any(sum(row) + 3 * x <= 0 or x >= sum(row) for x in row)


@pytest.mark.parametrize("gens", PLANTED_FAMILIES + seeded_perturbations(12))
def test_scan_bounds_returns_the_lexicographically_first_offender(monkeypatch, gens):
    monkeypatch.setattr(bv, "MASS_SCALED", gens)
    for level in range(11):
        assert bv.scan_bounds(level) == reference_scan_bounds(gens, level), level


@pytest.mark.parametrize("block", [1, 2, 4])
def test_scan_bounds_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK_LEVELS", block)
    monkeypatch.setattr(bv, "MASS_SCALED", PLANTED_FAMILIES[0])
    for level in (0, 3, 9):
        assert bv.scan_bounds(level) == reference_scan_bounds(PLANTED_FAMILIES[0], level)


def test_bound_tests_are_strict_on_the_disk_rim():
    """(5, 20, -4) has e2 == 0 (weights (2/7, 9/14, 1/14), on the rim) and
    passes the coordinate tests, so only the disk and cone tests reject it."""
    assert e2((5, 20, -4)) == 0
    assert bv._first_offender([(1, 1, 1), (41, 7, 7)]) is None
    assert bv._first_offender([(1, 1, 1), (5, 20, -4), (1, 0, 0)]) == 1
    assert bv._first_offender([(1, 0, 0)]) == 0  # c_0 == T: weight 2/3


def test_scan_bounds_true_family_matches_reference():
    for level in range(8):
        assert bv.scan_bounds(level) is None
        assert reference_scan_bounds(MASS_SCALED, level) is None


# ---------------------------------------------------------------------------
# operator_norm_scan and monotone_left_right against the walks they replaced
# ---------------------------------------------------------------------------

def reference_operator_norm_scan(m):
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    best = 0
    stack = [(ident, m)]
    while stack:
        mat, budget = stack.pop()
        if budget == 0:
            norm = max(abs(mat[0][c]) + abs(mat[1][c]) + abs(mat[2][c]) for c in range(3))
            best = max(best, norm)
            continue
        for g in REFINE_SCALED:
            stack.append((mat_mul(mat, g), budget - 1))
    return Fraction(best) * Fraction(5, 3) ** m / REFINE_DEN**m


def reference_monotone_left_right(m):
    floor_margin = dv.edge_margin("1" * m)
    prev = None
    for bits in range(1 << m):
        w = "".join("2" if (bits >> (m - 1 - t)) & 1 else "1" for t in range(m))
        value = measure_of_cell(E[2], w)
        if prev is not None and value < prev:
            return False
        prev = value
        if dv.edge_margin(w) < floor_margin:
            return False
    return True


def test_operator_norm_scan_equals_reference():
    for m in range(10):
        assert dv.operator_norm_scan(m) == reference_operator_norm_scan(m), m


@pytest.mark.parametrize("block", [1, 2, 3])
def test_operator_norm_scan_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK_LEVELS", block)
    for m in (0, 1, 4, 7):
        assert dv.operator_norm_scan(m) == reference_operator_norm_scan(m), m


def test_operator_norm_scan_memory_is_bounded_by_one_block():
    """The walk holds one block, not a whole level (about 39 MB at m = 10)."""
    tracemalloc.start()
    try:
        dv.operator_norm_scan(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_monotone_left_right_equals_reference():
    for m in range(13):
        assert dv.monotone_left_right(m) == reference_monotone_left_right(m), m
