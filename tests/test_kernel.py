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
    LETTERS,
    MASS_SCALED,
    REFINE_DEN,
    REFINE_SCALED,
    VertexAddress,
    lex_word,
    mat_mul,
    row_step,
    row_walk,
    subtree_levels,
    walk_level,
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


def children(rows, gens=MASS_SCALED):
    """Every row stepped by every generator, row-major: the one-level list
    step that ``edge_profile`` and ``monotone_left_right`` take."""
    return [row_step(r, g) for r in rows for g in gens]


def mass_step(row, j):
    return row_step(row, MASS_SCALED[j])


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


def test_row_step_levels_come_in_word_order():
    rows = [(3, -1, 2)]
    for n in range(1, 5):
        rows = children(rows)
        assert rows == [row_walk((3, -1, 2), w) for w in words_of(n)]
        assert [lex_word(i, n) for i in range(3 ** n)] == words_of(n)


def test_row_step_levels_of_a_subfamily_follow_its_order():
    pair = (MASS_SCALED[2], MASS_SCALED[0])
    rows = children(children([(1, 2, 3)], pair), pair)
    assert rows == [row_walk((1, 2, 3), w) for w in ("22", "20", "02", "00")]


def test_walk_level_yields_every_word_in_lexicographic_order():
    for m in range(6):
        pairs = list(walk_level(m, (3, -1, 2), mass_step))
        assert [w for w, _ in pairs] == words_of(m)
        assert [r for _, r in pairs] == [row_walk((3, -1, 2), w) for w in words_of(m)]


def test_walk_level_steps_each_prefix_once():
    """(3^(m+1) - 3) / 2 steps for level m: one per nonempty word of length <= m."""
    for m in range(7):
        seen = []

        def step(word, j):
            seen.append(word + LETTERS[j])
            return word + LETTERS[j]

        assert [w for w, _ in walk_level(m, "", step)] == words_of(m)
        assert len(seen) == (3 ** (m + 1) - 3) // 2
        assert sorted(seen) == sorted(u for n in range(1, m + 1) for u in words_of(n))


def test_walk_level_rejects_a_negative_level_when_called():
    with pytest.raises(ValueError, match="nonnegative"):
        walk_level(-1, (1, 1, 1), mass_step)  # no next() needed


def test_row_step_matches_one_letter_walk():
    for j in range(3):
        assert row_step((5, -7, 11), MASS_SCALED[j]) == row_walk((5, -7, 11), str(j))


def letter_by_letter(row, word, gens):
    for ch in word:
        row = row_step(row, gens[int(ch)])
    return row


@pytest.mark.parametrize("gens", [MASS_SCALED, REFINE_SCALED], ids=["mass", "refine"])
def test_strided_walk_equals_the_letter_loop(gens):
    """Every word through two strides and a letter, so each remainder
    length follows zero, one and two full products, then 50 seeded long
    words."""
    for n in range(2 * core.STRIDE + 2):
        for word in words_of(n):
            assert row_walk((3, -1, 2), word, gens) == letter_by_letter((3, -1, 2), word, gens), word
    rng = random.Random(20)
    for _ in range(50):
        word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(33, 64)))
        row = tuple(rng.randint(-99, 99) for _ in range(3))
        assert row_walk(row, word, gens) == letter_by_letter(row, word, gens), word


def test_stride_table_is_built_once_per_generator_tuple(monkeypatch):
    """A spy on ``row_step`` counts the table build, three rows stepped for
    each word of 1 to STRIDE letters, once per process and once more for a
    family equal in value to none before it; a walk then takes one step per
    STRIDE letters and one for the rest."""
    steps = []
    step = core.row_step
    monkeypatch.setattr(core, "row_step", lambda row, g: steps.append(g) or step(row, g))
    core.stride_table.cache_clear()
    k = core.STRIDE
    word = "0121" * k + "2"  # k table products and one for the last letter
    build = 3 * (3 ** (k + 1) - 3) // 2
    first = row_walk((1, 2, 3), word)
    assert len(steps) == build + k + 1
    assert row_walk((1, 2, 3), word) == first and len(steps) == build + 2 * (k + 1)
    patched = tuple(tuple(tuple(x + (i == j == 0) for j, x in enumerate(r)) for i, r in enumerate(g))
                    for g in MASS_SCALED)  # entry (0, 0) of each letter raised by one
    steps.clear()
    assert row_walk((1, 2, 3), word, patched) == letter_by_letter((1, 2, 3), word, patched) != first
    assert len(steps) == build + k + 1  # its own table
    assert core.stride_table(MASS_SCALED, k) is not core.stride_table(patched, k)
    assert core.stride_table(tuple(MASS_SCALED), k) is core.stride_table(MASS_SCALED, k)


def test_stride_table_keys_are_the_words():
    """A chunk is looked up as itself: ``int(chunk, 3)`` would read "0_12",
    " 012" or a full-width digit as a letter word."""
    table = core.stride_table(MASS_SCALED, 4)
    assert sorted(table) == sorted(w for n in range(5) for w in words_of(n))
    for chunk in ("0_12", " 012", "01\uff12", "0123", "3"):
        assert chunk not in table


# ---------------------------------------------------------------------------
# the block walk every exact scan shares
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [1, 2, 3, 4])
@pytest.mark.parametrize("word", ["", "12"])
def test_subtree_levels_visits_every_cell_once(monkeypatch, block, word):
    """Walked from the rows of cell ``word``, the walk visits its subcells."""
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    tops = ((3, -1, 2), (1, 1, 1))
    roots = [row_walk(r, word) for r in tops]
    for levels in range(1, 8):
        seen = []
        for depth, start, level in subtree_levels(roots, levels):
            n = len(level[0])
            assert [len(fam) for fam in level] == [n, n] and 0 < n <= 3 * block
            for i in range(n):
                cell = word + lex_word(start + i, depth)
                assert [tuple(int(x) for x in fam[i]) for fam in level] == [row_walk(r, cell) for r in tops]
                seen.append(cell)
        assert sorted(seen) == sorted(word + u for n in range(levels) for u in words_of(n))
        assert len(seen) == len(set(seen)), (block, levels)


def test_subtree_levels_visits_block_roots_in_word_order(monkeypatch):
    """Blocks come depth-first in word order: their first cells ascend."""
    monkeypatch.setattr(core, "BLOCK_ROWS", 2)
    firsts = [lex_word(start, depth) for depth, start, _ in subtree_levels(((1, 1, 1),), 5)]
    assert firsts[:4] == ["", "0", "00", "000"]
    assert firsts == sorted(set(firsts)) and len(firsts) > 5  # more blocks than levels


@pytest.mark.parametrize("dtype", ["int64", "object"])
def test_array_children_equal_the_row_step_level(dtype):
    rows = [(3, -1, 2), (0, 7, -5), (1, 1, 1)]
    for gens in (MASS_SCALED, REFINE_SCALED, (MASS_SCALED[2], MASS_SCALED[0])):
        out = core.array_children(rows, gens, dtype)
        assert out.dtype == dtype
        assert [tuple(int(x) for x in row) for row in out] == children(rows, gens)
        assert [tuple(int(x) for x in row) for row in core.array_children(out, gens, dtype)] \
            == children(children(rows, gens), gens)


@pytest.mark.parametrize("levels", [0, -1])
def test_subtree_levels_of_no_levels_is_empty(levels):
    assert list(subtree_levels(((1, 1, 1),), levels)) == []


@pytest.mark.parametrize("bound, dtype", [(2**59, "int64"), (13**3, "object")])
def test_subtree_levels_yields_arrays_of_one_dtype(monkeypatch, bound, dtype):
    """Every block, the root block included, is an ``(n, 3)`` array of the
    dtype the walk proved for its deepest level."""
    import numpy as np

    monkeypatch.setattr(core, "INT64_ROW_BOUND", bound)
    monkeypatch.setattr(core, "BLOCK_ROWS", 4)
    blocks = list(subtree_levels(((3, -1, 2), (1, 1, 1)), 6))
    assert blocks[0][0] == 0 and len(blocks) > 6
    for _, _, level in blocks:
        for fam in level:
            assert isinstance(fam, np.ndarray) and fam.dtype == dtype and fam.shape[1:] == (3,)


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
        rows = children(rows)


def test_column_sum_totals_stay_below_three_times_nine_to_the_level():
    """The bound the int64 scans rest on: every row total T_w of the
    column-sum walk from (1, 1, 1) lies below 3 * 9^n, and the level
    maximum, exactly 3 (9^n + 1) / 2, is reached only at the three constant
    words."""
    rows = [(1, 1, 1)]
    for n in range(1, 9):
        rows = children(rows)
        totals = [sum(row) for row in rows]
        top = max(totals)
        assert top == 3 * (9**n + 1) // 2 and top < 3 * 9**n, n
        assert [lex_word(i, n) for i, t in enumerate(totals) if t == top] == [ch * n for ch in LETTERS], n


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
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    for c in (E[0], SCAN_MEASURES[-1], KUSUOKA):
        for depth in (1, 4, 7):
            assert dv.scan_extrema(c, "1", depth) == reference_scan_extrema(c, "1", depth)


def recorded_dtypes(monkeypatch):
    """Patch ``core.array_children`` to record the dtype of every step."""
    seen = set()
    real = core.array_children

    def spy(rows, gens, dtype):
        seen.add(dtype)
        return real(rows, gens, dtype)

    monkeypatch.setattr(core, "array_children", spy)
    return seen


def test_scan_extrema_object_path_matches_reference(monkeypatch):
    """Over the budget (patched down to 13**3) the same scan runs on Python ints."""
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 13**3)
    dtypes = recorded_dtypes(monkeypatch)
    for c in SCAN_MEASURES:
        for word in SCAN_WORDS:
            for depth in range(1, 9):
                assert dv.scan_extrema(c, word, depth) == reference_scan_extrema(c, word, depth), (c, word, depth)
    assert dtypes == {"int64", "object"}


def test_scan_extrema_budget_covers_both_families(monkeypatch):
    """(1/7, 0, 0) has rows (1, 0, 0) and Kusuoka rows (7, 7, 7): one level
    of growth 13 keeps the first under 50 but not the second."""
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 50)
    dtypes = recorded_dtypes(monkeypatch)
    c = (Fraction(1, 7), ZERO, ZERO)
    assert dv.scan_extrema(c, "", 2) == reference_scan_extrema(c, "", 2)
    assert dtypes == {"object"}


#: ``scan_extrema`` results captured from the list-walk implementation that
#: the array scan replaced: (min, max, argmin, argmax) per (c, word, depth).
DEEP_SCANS = {
    (("7/3", "4/3", "2"), "", 9): ("17005/10662", "222403/101886", "1201120:2", "02020120:2"),
    (("7/3", "4/3", "2"), "21", 10): ("497035/311637", "5036555/2307318", "211000022011:2", "212011201000:2"),
    (("-1/2", "8/5", "8"), "", 9): ("687459/1440980", "195971/35060", "011000210:1", "202110001:2"),
    (("-1/2", "8/5", "8"), "21", 10): ("20944211/43901060", "1965835379/351695855",
                                      "210001200021:2", "212022122110:1"),
    (("2", "-4/3", "4"), "", 9): ("0", "3150625/1012701", "10:1", "021222000:1"),
    (("2", "-4/3", "4"), "21", 10): ("1/19339203", "23493409/7551453", "210010111201:2", "212000101221:2"),
}


@pytest.mark.parametrize("case", sorted(DEEP_SCANS), ids=str)
def test_deep_scan_extrema_equal_the_captured_results(monkeypatch, case):
    c, word, depth = case
    dtypes = recorded_dtypes(monkeypatch)
    lo, hi, argmin, argmax = DEEP_SCANS[case]
    got = dv.scan_extrema(tuple(map(Fraction, c)), word, depth)
    assert got == (Fraction(lo), Fraction(hi), VertexAddress.parse(argmin), VertexAddress.parse(argmax))
    assert dtypes == {"int64"}


def test_kusuoka_scan_ties_everywhere():
    """Every vertex has derivative 1, so the least key, the midpoint 0:1 of
    the first edge, witnesses both extrema."""
    first = VertexAddress("0", 1)
    assert dv.scan_extrema(KUSUOKA, "", 10) == (ONE, ONE, first, first)
    assert dv.scan_extrema(KUSUOKA, "21", 6) == (ONE, ONE, VertexAddress("210", 1), VertexAddress("210", 1))


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


@pytest.mark.parametrize("block", [1, 2, 3, 4])
def test_scan_bounds_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    monkeypatch.setattr(bv, "MASS_SCALED", PLANTED_FAMILIES[0])
    for level in (0, 3, 9):
        assert bv.scan_bounds(level) == reference_scan_bounds(PLANTED_FAMILIES[0], level)


def test_scan_bounds_runs_int64_under_the_budget(monkeypatch):
    dtypes = recorded_dtypes(monkeypatch)
    assert bv.scan_bounds(12) is None  # 13**12 < 2**59
    assert dtypes == {"int64"}


@pytest.mark.parametrize("gens", PLANTED_FAMILIES)
def test_scan_bounds_object_path_matches_reference(monkeypatch, gens):
    """Over the budget (patched down to 13**2) the same scan runs on Python ints."""
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 13**2)
    monkeypatch.setattr(bv, "MASS_SCALED", gens)
    dtypes = recorded_dtypes(monkeypatch)
    for level in range(11):
        assert bv.scan_bounds(level) == reference_scan_bounds(gens, level), level
    assert dtypes == {"int64", "object"}


def limb_rows(rng):
    """Rows at the edge of the int64 budget, on the rim, off the cone, and zero."""
    top = 2**45 - 1
    rows = [(0, 0, 0), (top, top, top), (-top, -top, -top), (top, -top, top), (top, top, -top)]
    rows += [(5 << k, 20 << k, -4 << k) for k in range(39)]  # e2 == 0
    rows += [(-4 << k, 5 << k, 20 << k) for k in range(39)]
    rows += [(-(5 << k), -(20 << k), 4 << k) for k in range(39)]
    for _ in range(4000):
        bits = rng.choice((4, 23, 24, 44, 45))
        row = tuple(rng.randrange(-(2**bits) + 1, 2**bits) for _ in range(3))
        rows += [row, (row[0], row[1], -row[0] * row[1] // (row[0] + row[1] or 1))]
    for _ in range(2000):  # e2 within a few units of zero
        a, b = rng.randrange(1, 2**22), rng.randrange(1, 2**22)
        c = -(a * b) // (a + b)
        rows += [(a, b, c + d) for d in (-1, 0, 1)]
    return [r for r in rows if max(map(abs, r)) < 2**45]


@pytest.mark.parametrize("dtype", ["int64", "object"])
def test_limb_sign_test_matches_python_ints(dtype):
    import numpy as np

    rows = limb_rows(random.Random(2_345))
    c = np.array(rows, dtype=dtype)
    got = bv._e2_positive(c[:, 0], c[:, 1], c[:, 2], np.empty((9, len(c)), dtype))
    want = [e2(row) > 0 for row in rows]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want) and any(e2(row) == 0 for row in rows)


def limb_quads(rng):
    """Factor quadruples (a, b, c, d) with every |x| < ``core.LIMB_BOUND``:
    the extremes, mixed signs, cancelling products, zero and rim rows."""
    top = core.LIMB_BOUND - 1
    quads = [(0, 0, 0, 0), (top, top, -top, top), (top, top, top, top), (-top, top, -top, top),
             (top, -top, 0, 5), (top, top - 1, -(top - 1), top), (top, 1 << 30, -(1 << 30), top)]
    limit = core.INT64_ROW_BOUND
    for k in range(60):  # rim rows (5, 20, -4) * 2**k have e2 == 0: a = c0, b = c1, c = c2, d = c0 + c1
        for row in ((5 << k, 20 << k, -4 << k), (-(5 << k), -(20 << k), 4 << k)):
            if max(map(abs, row)) < limit:
                for delta in (-1, 0, 1):
                    quads.append((row[0], row[1], row[2] + delta, row[0] + row[1]))
    for _ in range(6000):
        bits = [rng.choice((1, 29, 30, 31, 45, 59, 60)) for _ in range(2)]
        a, b = (rng.randrange(-(2**n) + 1, 2**n) for n in bits)
        quads += [(a, b, -b, a), (a, b, -b, a + rng.choice((-1, 1))), (a, b, -a, b), (a, 0, 0, b)]
        c, d = (rng.randrange(-top, top + 1) for _ in range(2))
        quads.append((a, b, c, d))
    return [q for q in quads if max(map(abs, q)) <= top]


@pytest.mark.parametrize("dtype", ["int64", "object"])
def test_limb_sign_matches_python_ints_at_its_bound(dtype):
    import numpy as np

    quads = limb_quads(random.Random(6_061))
    a, b, c, d = (np.array(col, dtype=dtype) for col in zip(*quads))
    buf = np.empty((8, len(quads)), dtype)
    got = core.limb_sign(a, b, c, d, buf)
    want = [(x > 0) - (x < 0) for x in (p * q + r * t for p, q, r, t in quads)]
    assert got.dtype == np.int8 and got.tolist() == want
    assert {-1, 0, 1} <= set(want) and max(abs(x) for q in quads for x in q) == core.LIMB_BOUND - 1
    # one scalar pair, as the scans pass the running extremum
    assert core.limb_sign(a, 3, -5, d, buf).tolist() == [(x > 0) - (x < 0) for x in (p * 3 - 5 * t for p, _, _, t in quads)]


SENTINEL = -(2**62) + 12_345


def test_limb_sign_reuses_one_scratch_across_lengths():
    """One scratch, sentinel-filled before each call, through calls that
    shrink and then grow: each answer is the Python-int sign, and nothing
    past the call's length is written."""
    import numpy as np

    quads = limb_quads(random.Random(6_061))
    buf = np.empty((8, len(quads)), dtype="int64")
    for m in (len(quads), 5_000, 300, 7, 1, 40, 2_000, len(quads) - 1):
        part = quads[m // 3:m // 3 + m] if m < len(quads) else quads
        a, b, c, d = (np.array(col, dtype="int64") for col in zip(*part))
        for args, products in (((a, b, c, d), (p * q + r * t for p, q, r, t in part)),
                               ((a, 3, -5, d), (p * 3 - 5 * t for p, _, _, t in part))):
            buf.fill(SENTINEL)
            got = core.limb_sign(*args, buf)
            assert got.dtype == np.int8 and got.tolist() == [(x > 0) - (x < 0) for x in products], m
            assert (buf[:, len(part):] == SENTINEL).all(), m


def test_array_dtype_proves_the_budget_before_any_work(monkeypatch):
    one = ((1, 1, 1),)
    assert core.array_dtype(one, MASS_SCALED, 15) == "int64"  # 13**15 < 2**59
    assert core.array_dtype(one, MASS_SCALED, 16) == "object"
    assert core.array_dtype(one, MASS_SCALED, 13) == "int64"  # scan_bounds(13)
    assert core.array_dtype(((1, 0, 0),), core.REFINE_SCALED, 10) == "object"  # 75**10 > 2**59
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 7)
    assert core.array_dtype(((2, -7, 1),), MASS_SCALED, 0) == "object"
    assert core.array_dtype(((2, -6, 1),), MASS_SCALED, 0) == "int64"


def test_bound_tests_are_strict_on_the_disk_rim():
    """(5, 20, -4) has e2 == 0 (weights (2/7, 9/14, 1/14), on the rim) and
    passes the coordinate tests, so only the disk and cone tests reject it."""
    import numpy as np

    def first_offender(*r):
        return bv._first_offender(np.array(r, dtype=object), np.empty((10, len(r)), dtype=object))

    assert e2((5, 20, -4)) == 0
    assert first_offender((1, 1, 1), (41, 7, 7)) is None
    assert first_offender((1, 1, 1), (5, 20, -4), (1, 0, 0)) == 1
    assert first_offender((1, 0, 0)) == 0  # c_0 == T: weight 2/3


def test_scan_bounds_true_family_matches_reference():
    for level in range(8):
        assert bv.scan_bounds(level) is None
        assert reference_scan_bounds(MASS_SCALED, level) is None


# ---------------------------------------------------------------------------
# the scans' own scratch
# ---------------------------------------------------------------------------

def snapshot_blocks(monkeypatch, module):
    """Patch ``module.subtree_levels`` to copy every block before it is
    yielded; returns the growing list of (block, copy) pairs."""
    seen = []

    def walk(*args):
        for depth, start, level in subtree_levels(*args):
            seen.extend((fam, fam.copy()) for fam in level)
            yield depth, start, level

    monkeypatch.setattr(module, "subtree_levels", walk)
    return seen


def read_only_limb_sign(monkeypatch, module):
    """Patch ``module.limb_sign`` to assert that each call leaves its four
    factors as it found them; returns the list of call lengths."""
    calls = []

    def spy(*args):
        before = [x.tolist() if hasattr(x, "tolist") else x for x in args[:4]]
        out = core.limb_sign(*args)
        assert [x.tolist() if hasattr(x, "tolist") else x for x in args[:4]] == before
        calls.append(len(args[0]))
        return out

    monkeypatch.setattr(module, "limb_sign", spy)
    return calls


@pytest.mark.parametrize("bound, dtype", [(2**59, "int64"), (13**3, "object")])
def test_block_scans_leave_their_inputs_unchanged(monkeypatch, bound, dtype):
    """``subtree_levels`` steps every yielded block again to make its
    children, so a scan that wrote into a block through an ``out=`` view
    would corrupt the walk without an error: every block and every
    ``limb_sign`` factor must read after the scan as it did before."""
    import numpy as np

    monkeypatch.setattr(core, "INT64_ROW_BOUND", bound)
    monkeypatch.setattr(core, "BLOCK_ROWS", 3**4)
    blocks = [snapshot_blocks(monkeypatch, dv), snapshot_blocks(monkeypatch, bv)]
    calls = [read_only_limb_sign(monkeypatch, dv), read_only_limb_sign(monkeypatch, bv)]
    for c in (SCAN_MEASURES[-1], KUSUOKA):
        assert dv.scan_extrema(c, "2", 7) == reference_scan_extrema(c, "2", 7)
    assert bv.scan_bounds(7) is None
    rows = np.array(limb_rows(random.Random(7))[:500] + [(5, 20, -4)], dtype=dtype)
    before = rows.copy()
    assert bv._first_offender(rows, np.empty((10, len(rows)), dtype)) is not None
    assert rows.tolist() == before.tolist()
    assert all(calls) and all(len(seen) > 6 for seen in blocks)
    for fam, copy in blocks[0] + blocks[1]:
        assert fam.dtype == dtype and fam.tolist() == copy.tolist()


def poison_fresh_scratch(monkeypatch):
    """Fill every scratch array ``core.scratch`` makes with a sentinel, so a
    scan that reads scratch before writing it shows; returns the growing
    list of the arrays made."""
    real, made = core.scratch, []

    def scratch(rows, levels, per_row, dtype):
        out = real(rows, levels, per_row, dtype)
        out.fill(SENTINEL)
        made.append(out)
        return out

    for module in (core, dv, bv):
        monkeypatch.setattr(module, "scratch", scratch)
    return made


@pytest.mark.parametrize("block", [3**2, 3**4, 3**7])
def test_block_scans_reuse_their_scratch_at_every_block_size(monkeypatch, block):
    """The scans' scratch, sentinel-filled when made, is reused across their
    blocks: the Kusuoka measure's all-tie blocks, the captured deep extrema
    and the planted deep offenders come out the same at every block size."""
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    poison_fresh_scratch(monkeypatch)
    first = VertexAddress("0", 1)
    assert dv.scan_extrema(KUSUOKA, "", 10) == (ONE, ONE, first, first)
    for (c, word, depth), (lo, hi, argmin, argmax) in DEEP_SCANS.items():
        got = dv.scan_extrema(tuple(map(Fraction, c)), word, depth)
        assert got == (Fraction(lo), Fraction(hi), VertexAddress.parse(argmin), VertexAddress.parse(argmax))
    assert bv.scan_bounds(11) is None
    for gens, first_offender, _ in PLANTED:
        monkeypatch.setattr(bv, "MASS_SCALED", gens)
        assert bv.scan_bounds(len(first_offender)) == first_offender
        assert bv.scan_bounds(10) == reference_scan_bounds(gens, 10)


@pytest.mark.parametrize("block", [3**2, 3**4, 3**7])
def test_block_scans_make_one_scratch_as_wide_as_their_widest_block(monkeypatch, block):
    """Each scan call makes exactly one ``core.scratch`` array, and its width
    is the widest block the call's walk yields, times the three edge
    midpoints of a row for ``scan_extrema``."""
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    made = poison_fresh_scratch(monkeypatch)
    blocks = {dv.scan_extrema: snapshot_blocks(monkeypatch, dv), bv.scan_bounds: snapshot_blocks(monkeypatch, bv)}
    cases = [(dv.scan_extrema, (SCAN_MEASURES[-1], "2", depth), 3) for depth in (1, 2, 3, 5, 6, 9, 10)]
    cases += [(bv.scan_bounds, (level,), 1) for level in (0, 1, 2, 4, 5, 8, 11)]
    for scan, args, per_row in cases:
        made.clear()
        blocks[scan].clear()
        scan(*args)
        widest = max(len(fam) for fam, _ in blocks[scan])
        assert [buf.shape[1] for buf in made] == [per_row * widest], (scan.__name__, args)


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


def test_operator_norm_scan_equals_reference(monkeypatch):
    """Up to the cap m = 10 the walk over the transposes (column sums up to
    53, 53**10 < 2**59) steps in int64; the untransposed family
    (75**10 > 2**59) would need Python ints at m = 10."""
    dtypes = recorded_dtypes(monkeypatch)
    for m in range(11):
        assert dv.operator_norm_scan(m) == reference_operator_norm_scan(m), m
    assert dtypes == {"int64"}


@pytest.mark.parametrize("block", [1, 2, 3])
def test_operator_norm_scan_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    for m in (0, 1, 4, 7):
        assert dv.operator_norm_scan(m) == reference_operator_norm_scan(m), m


def test_operator_norm_scan_memory_is_bounded_by_one_block():
    """The walk holds one block, not a whole level (about 39 MB at m = 10).

    numpy is imported first: its one-time module load (about 6 MB traced)
    is not the walk's memory, and would count only when this test runs
    before any other that loads numpy."""
    import numpy  # noqa: F401

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
