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
from gasketenergy import BOUNDS_LEVEL_MAX, EXTREMA_DEPTH_MAX, derivatives as dv
from gasketenergy.core import (
    LETTERS,
    MASS_SCALED,
    REFINE_DEN,
    REFINE_SCALED,
    WORD_MAX_LEN,
    VertexAddress,
    lex_word,
    mat_mul,
    row_step,
    row_walk,
    subtree_levels,
    walk_level,
    word_matrix,
)
from gasketenergy.measures import KUSUOKA, is_positive, measure_of_cell, subtree_row

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
                row = row_walk(unit, word, core.stride_table(gens))
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
    with pytest.raises(ValueError, match=f"level must be between 0 and {WORD_MAX_LEN}, got -1"):
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
    table = core.stride_table(gens)
    for n in range(2 * core.STRIDE + 2):
        for word in words_of(n):
            assert row_walk((3, -1, 2), word, table) == letter_by_letter((3, -1, 2), word, gens), word
    rng = random.Random(20)
    for _ in range(50):
        word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(33, 64)))
        row = tuple(rng.randint(-99, 99) for _ in range(3))
        assert row_walk(row, word, table) == letter_by_letter(row, word, gens), word


def test_row_walk_takes_one_step_per_stride_and_builds_nothing(monkeypatch):
    """A spy on ``row_step`` counts the steps of a walk of k * STRIDE + 1
    letters: one per table product, k + 1 in all, and none for a table
    build, since ``MASS_STRIDE`` was built at import."""
    steps = []
    step = core.row_step
    monkeypatch.setattr(core, "row_step", lambda row, g: steps.append(g) or step(row, g))
    k = core.STRIDE
    word = "0121" * k + "2"  # k table products and one for the last letter
    assert row_walk((1, 2, 3), word) == letter_by_letter((1, 2, 3), word, MASS_SCALED)
    assert steps == [core.MASS_STRIDE["0121"]] * k + [core.MASS_STRIDE["2"]]


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
        (r, s), (q, t) = subtree_row(c, word), subtree_row(KUSUOKA, word)
        for j, k in itertools.combinations(range(3), 2):
            v = VertexAddress(word + str(j), k)
            assert dv.rn_derivative(c, v) == Fraction((r[j] + r[k]) * t, (q[j] + q[k]) * s)


def test_cone_form_is_invariant_up_to_nine():
    """M_j A M_j^T == 9 A for the matrix A of e2 = c0c1 + c1c2 + c0c2."""
    a = ((0, 1, 1), (1, 0, 1), (1, 1, 0))  # twice the form's matrix
    for m in MASS_SCALED:
        assert mat_mul(mat_mul(m, a), transpose(m)) == tuple(
            tuple(9 * x for x in row) for row in a
        )


def test_mass_generators_sum_the_plus_form_to_ninety_nine():
    """sum_j M_j (J + I) M_j^T == 99 (J + I), J the all-ones matrix."""
    plus = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    images = [mat_mul(mat_mul(m, plus), transpose(m)) for m in MASS_SCALED]
    assert tuple(tuple(sum(g[i][j] for g in images) for j in range(3)) for i in range(3)) == tuple(
        tuple(99 * x for x in row) for row in plus
    )


def b_step_walks(n):
    """Every word of at most ``n`` letters, with its ``_b_step_int`` row from (1, 1, 1)."""
    walks, level = {}, {"": (1, 1, 1)}
    for _ in range(n + 1):
        walks.update(level)
        level = {w + ch: bv._b_step_int(p, j) for w, p in level.items() for j, ch in enumerate(LETTERS)}
    return walks


def test_b_step_walks_keep_their_form_at_three_times_nine_to_the_length():
    """Q(p) = 2 e2(p) - sum p_i^2 == 3 * 9^|w| on every ``_b_step_int`` walk
    from (1, 1, 1) through length 6."""
    walks = b_step_walks(6)
    assert len(walks) == (3**7 - 1) // 2
    for w, p in walks.items():
        assert 2 * e2(p) - sum(x * x for x in p) == 3 * 9 ** len(w), w


def test_b_step_totals_are_reversal_invariant_column_sum_totals():
    """T_w = sum p_w of the ``_b_step_int`` walk equals T of the reversed word
    and the total of ``row_walk((1, 1, 1), w)``, through length 6: C(w) ==
    C(reversed w), though the rows themselves differ."""
    walks = b_step_walks(6)
    for w, p in walks.items():
        assert sum(p) == sum(walks[w[::-1]]) == sum(row_walk((1, 1, 1), w)), w
    assert walks["01"] != walks["10"] and walks["01"] != row_walk((1, 1, 1), "01")


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
#: On the cone's boundary, with minimum 0 (``DEEP_SCANS``).
BOUNDARY = (Fraction(2), Fraction(-4, 3), Fraction(4))
#: Symmetric under swapping corners 1 and 2: two mirror vertices share the
#: first one's largest value and the second one's least.
MIRRORED = [(Fraction(3), ONE, ONE), (ONE, Fraction(3), Fraction(3))]


@pytest.fixture
def fresh_circles():
    """Clear ``scan_extrema``'s cached circle orders before and after a test that
    patches the kernel, so its tables are built under the patch and no later
    test reads them."""
    dv._circle.cache_clear()
    yield
    dv._circle.cache_clear()


@pytest.mark.parametrize("c", SCAN_MEASURES + [BOUNDARY] + MIRRORED, ids=str)
def test_scan_extrema_equals_reference(c):
    for word in SCAN_WORDS:
        for depth in range(1, 9):
            assert dv.scan_extrema(c, word, depth) == reference_scan_extrema(c, word, depth), (word, depth)


def test_scan_extrema_equals_reference_on_long_words():
    """Seeded positive cells, the cone boundary (minimum 0), the Kusuoka
    measure and the mirrored measures on words of up to 40 letters, whose
    values pass ``int64``."""
    rng = random.Random(3_838)
    cells = [(c, "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 40))))
             for c in seeded_positive(rng, 12) + [BOUNDARY, KUSUOKA] + MIRRORED]
    assert max(len(word) for _, word in cells) > 30
    for c, word in cells:
        for depth in (1, 2, 5, 6):
            assert dv.scan_extrema(c, word, depth) == reference_scan_extrema(c, word, depth), (c, word, depth)
    assert dv.scan_extrema(BOUNDARY, "", 5).minimum == 0


def test_mirrored_extremes_are_shared_by_two_points():
    """Each ``MIRRORED`` extreme is taken at two distinct circle points,
    neighbours in the order, and the lesser key witnesses it, in the cell
    ``00``, which the mirror maps to itself."""
    for depth in (1, 2, 4, 6):
        cols, keys = dv._circle(depth)
        for c, shared in zip(MIRRORED, ("maximum", "minimum")):
            r, q = dv._cell_rows(c, "00")
            values = [Fraction(*dv._evaluate(cols, i, r, q)) for i in range(len(keys))]
            got = dv.scan_extrema(c, "00", depth)
            at = [i for i, x in enumerate(values) if x == getattr(got, shared)]
            assert len(at) == 2 and (at[1] - at[0]) % len(keys) in (1, len(keys) - 1), (c, depth)
            witness = got.argmax if shared == "maximum" else got.argmin
            assert witness == dv._witness("00", min(int(keys[i]) for i in at), depth)
            assert got == reference_scan_extrema(c, "00", depth)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_scan_extrema_does_not_depend_on_the_block_size(monkeypatch, fresh_circles, block):
    """The circle orders, built on the block walk, come out the same at every block size."""
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


def test_scan_extrema_object_path_matches_reference(monkeypatch, fresh_circles):
    """Over the budget (patched down to 13**3) the circle orders' walk runs on
    Python ints from depth 5 on (9**4 > 13**3), and the scans come out the same."""
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 13**3)
    dtypes = recorded_dtypes(monkeypatch)
    for c in SCAN_MEASURES:
        for word in SCAN_WORDS:
            for depth in range(1, 9):
                assert dv.scan_extrema(c, word, depth) == reference_scan_extrema(c, word, depth), (c, word, depth)
    assert dtypes == {"int64", "object"}


def test_scan_extrema_budget_covers_only_the_edge_columns(monkeypatch, fresh_circles):
    """(1/7, 0, 0) has rows (1, 0, 0) and Kusuoka rows (7, 7, 7), past a
    budget of 50 after one letter, but the scan walks only the edge columns,
    whose one level (growth 9) stays under it: the rows never reach an array."""
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 50)
    dtypes = recorded_dtypes(monkeypatch)
    c = (Fraction(1, 7), ZERO, ZERO)
    assert dv.scan_extrema(c, "", 2) == reference_scan_extrema(c, "", 2)
    assert dtypes == {"int64"}


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
def test_deep_scan_extrema_equal_the_captured_results(monkeypatch, fresh_circles, case):
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
# scan_extrema's circle orders
# ---------------------------------------------------------------------------

def circle_xy(v):
    """The column's direction in the plane across (1, 1, 1): (2 v0 - v1 - v2, v1 - v2)."""
    return 2 * v[0] - v[1] - v[2], v[1] - v[2]


@pytest.mark.parametrize("depth", range(1, 9))
def test_circle_orders_are_exact(depth):
    """Each cached order holds 3**depth points on the conic 2 sum (3v_i - S)**2
    = 3 S**2, with nonnegative entries, and goes once around it: every step to
    the next point (the last to the first too) turns strictly counterclockwise
    by an exact Python-int orientation test, and exactly one step crosses from
    below the axis Y = 0 to above it."""
    cols, keys = dv._circle(depth)
    points = [tuple(v) for v in cols.tolist()]
    assert len(points) == len(keys) == 3**depth
    for v in points:
        total = sum(v)
        assert min(v) >= 0 and 2 * sum((3 * x - total) ** 2 for x in v) == 3 * total * total, v
    xy = [circle_xy(v) for v in points]
    steps = list(zip(xy, xy[1:] + xy[:1]))
    assert all(x1 * y2 - x2 * y1 > 0 for (x1, y1), (x2, y2) in steps)
    assert sum(y1 < 0 <= y2 for (_, y1), (_, y2) in steps) == 1


def spellings(depth):
    """``(point, key)`` for every midpoint w j : k with |w| < ``depth``: the
    point is the column M_w (e_j + e_k) divided by the gcd of its entries."""
    out = []
    for n in range(depth):
        for w in words_of(n):
            rows = [row_walk(unit, w) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            for j, k in dv._EDGES:
                v = tuple(row[j] + row[k] for row in rows)  # row i of M_w times e_j + e_k
                g = math.gcd(*v)
                out.append((tuple(x // g for x in v), (w + LETTERS[j], k)))
    return out


@pytest.mark.parametrize("depth", range(1, 7))
def test_circle_groups_keep_their_least_key(depth):
    """Merging the (3**(depth + 1) - 3) / 2 midpoints by their point leaves
    the table's 3**depth points, and each keeps the least (word, corner) key
    of its spellings, as the witness decodes it."""
    least = {}
    for point, key in spellings(depth):
        least[point] = min(least.get(point, key), key)
    cols, keys = dv._circle(depth)
    table = {}
    for v, key in zip(cols.tolist(), keys.tolist()):
        g = math.gcd(*v)
        witness = dv._witness("", key, depth)
        table[tuple(x // g for x in v)] = (witness.word, witness.corner)
    assert table == least and len(table) == 3**depth


def test_circle_search_makes_logarithmically_many_evaluations(monkeypatch):
    """Over 50 seeded cells at depths 8-10 each scan evaluates at most
    8 ceil(log2 G) circle points, G = 3**depth, and returns the parent scan's
    witnesses' values (each witness evaluated here by ``rn_derivative``)."""
    calls = []
    real = dv._evaluate

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(dv, "_evaluate", spy)
    rng = random.Random(5_050)
    cells = [(c, "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 12)))) for c in seeded_positive(rng, 50)]
    for i, (c, word) in enumerate(cells):
        depth = 8 + i % 3
        calls.clear()
        got = dv.scan_extrema(c, word, depth)
        assert 0 < len(calls) <= 8 * math.ceil(math.log2(3**depth)), (c, word, depth, len(calls))
        assert (dv.rn_derivative(c, got.argmin), dv.rn_derivative(c, got.argmax)) == (got.minimum, got.maximum)


def test_circle_tables_are_read_only_and_small():
    """The cached tables of depths 1-10 cannot be written and hold at most
    4 MB together."""
    tables = [dv._circle(depth) for depth in range(1, 11)]
    assert not any(a.flags.writeable for table in tables for a in table)
    assert sum(a.nbytes for table in tables for a in table) <= 4 * 2**20


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
        row = row_walk((1, 1, 1), shallow, core.stride_table(gens))  # the shallow word offends too
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
    assert bv.scan_bounds(12) is None  # 13 * 9841**2 * 1093 < 2**41
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
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    got = core.limb_sign(c0, c1, c2, c0 + c1, np.empty((9, len(c)), dtype), core.LIMB_BOUND - 1) > 0
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
    got = core.limb_sign(a, b, c, d, buf, core.LIMB_BOUND - 1)
    want = [(x > 0) - (x < 0) for x in (p * q + r * t for p, q, r, t in quads)]
    assert got.dtype == np.int8 and got.tolist() == want
    assert {-1, 0, 1} <= set(want) and max(abs(x) for q in quads for x in q) == core.LIMB_BOUND - 1


SENTINEL = -(2**62) + 12_345


def test_limb_sign_reuses_one_scratch_across_lengths():
    """One scratch, sentinel-filled before each call, through calls that
    shrink and then grow: each answer is the Python-int sign, nothing past
    the call's length is written, and in a scratch laid out as
    ``core.scratch`` lays it out, two caller rows ahead of the last eight,
    the caller's rows keep the sentinel."""
    import numpy as np

    quads = limb_quads(random.Random(6_061))
    for caller_rows in (0, 2):
        buf = np.empty((caller_rows + 8, len(quads)), dtype="int64")
        for m in (len(quads), 5_000, 300, 7, 1, 40, 2_000, len(quads) - 1):
            part = quads[m // 3:m // 3 + m] if m < len(quads) else quads
            a, b, c, d = (np.array(col, dtype="int64") for col in zip(*part))
            buf.fill(SENTINEL)
            got = core.limb_sign(a, b, c, d, buf, core.LIMB_BOUND - 1)
            products = (p * q + r * t for p, q, r, t in part)
            assert got.dtype == np.int8 and got.tolist() == [(x > 0) - (x < 0) for x in products], m
            assert (buf[:, len(part):] == SENTINEL).all(), m
            assert (buf[:caller_rows] == SENTINEL).all(), m


#: Factor bounds on both sides of the certified tier's limit: no shift (k = 0), the first
#: shifts, one where bits(bound) - 31 would leave -(bound) shifted to -2**31 (so k = 2),
#: a mid-range shift, the limit itself (k = 14) and the first bound past it.
TIER_BOUNDS = [9, 2**31 - 1, 2**31, 2**32 - 1, 2**40 + 5, core.SHIFT_BOUND, core.SHIFT_BOUND + 1]


def wrap_quads(rng, top):
    """Factor quadruples (a, b, c, d) with every |x| <= ``top``: the extremes, exact
    zeros, pairs that cancel to within a unit (a*b close to -c*d), pairs (a, b, a, s - b)
    whose value a*s crosses the certified tier's cut as s grows, and free pairs, whose
    products leave ``int64`` once ``top`` is past 2**31.5."""
    quads = [(0, 0, 0, 0), (top, top, -top, top), (top, top, top, top), (-top, -top, -top, -top),
             (-top, top, top, top), (top, -top, 0, 5 % top), (-top, -top, top, top)]
    for _ in range(1_500):
        a, b, c = (rng.randint(-top, top) for _ in range(3))
        quads += [(a, b, -b, a), (a, b, -a, b), (a, 0, 0, b), (a, b, c, rng.randint(-top, top))]
        if c:
            d = -(a * b) // c
            quads += [(a, b, c, d + delta) for delta in (-1, 0, 1) if abs(d + delta) <= top]
        s = rng.choice((-1, 1)) * (rng.getrandbits(rng.randrange(top.bit_length())) + 1)
        if abs(s - b) <= top:
            quads.append((a, b, a, s - b))
    return quads


def tier_spy(monkeypatch):
    """Count the calls of each ``limb_sign`` tier, by the name of its kernel."""
    calls = {"_wrap_sign": 0, "_limb_sign": 0}
    for name in calls:
        def spy(*args, real=getattr(core, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(core, name, spy)
    return calls


@pytest.mark.parametrize("bound", TIER_BOUNDS)
@pytest.mark.parametrize("limit", ["default", "zero"])
def test_limb_sign_tiers_match_python_ints(monkeypatch, bound, limit):
    """With every |factor| <= ``bound`` the sign is the Python-int sign on either
    tier: the certified tier up to ``SHIFT_BOUND``, the limbs past it and with the
    limit patched to 0.  In a sentinel-filled scratch with two caller rows ahead of
    the last eight and a margin, only the last eight rows up to the call's length
    change."""
    import numpy as np

    if limit == "zero":
        monkeypatch.setattr(core, "SHIFT_BOUND", 0)
    calls = tier_spy(monkeypatch)
    quads = wrap_quads(random.Random(bound % 1_000_003), bound)
    n = len(quads)
    a, b, c, d = (np.array(col, dtype="int64") for col in zip(*quads))
    buf = np.full((10, n + 5), SENTINEL)
    got = core.limb_sign(a, b, c, d, buf, bound)
    assert got.dtype == np.int8
    assert got.tolist() == [(v > 0) - (v < 0) for v in (x * y + z * t for x, y, z, t in quads)]
    assert (buf[:2] == SENTINEL).all() and (buf[:, n:] == SENTINEL).all()
    assert {0} < {(v > 0) - (v < 0) for v in (x * y + z * t for x, y, z, t in quads)} == {-1, 0, 1}
    certified = limit == "default" and bound <= core.SHIFT_BOUND
    assert calls == {"_wrap_sign": 1 if certified else 0, "_limb_sign": 0 if certified else 1}


def test_shift_bits_is_the_least_shift_under_the_limit():
    """k keeps every shifted factor within 2**31 - 1 and is the least that does,
    up to 14 at ``SHIFT_BOUND``; past it there is no shift."""
    for bound in (1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1, 2**40 + 5, core.SHIFT_BOUND):
        k = core._shift_bits(bound)
        assert -(-bound >> k) <= 2**31 - 1 and (k == 0 or -(-bound >> (k - 1)) > 2**31 - 1), bound
    assert core._shift_bits(core.SHIFT_BOUND) == 14 and core._shift_bits(core.SHIFT_BOUND + 1) is None


def tier_scans(rng):
    """``scan_bounds`` at levels 1-11 on the true family and to its first offender on
    each planted family, and ``scan_extrema`` at depths 3-10 on seeded cells (its
    circle search calls no ``limb_sign``, so its results come along unchanged)."""
    out = [bv.scan_bounds(level) for level in range(1, 12)]
    for gens, first, _ in PLANTED:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bv, "MASS_SCALED", gens)
            out.append(bv.scan_bounds(len(first)))
    cells = seeded_positive(rng, 4) + [(Fraction(7, 3), Fraction(4, 3), Fraction(2)), KUSUOKA]
    for depth in range(3, 11):
        out += [dv.scan_extrema(c, word, depth) for c in cells for word in ("", "21")]
    return out


def test_scans_agree_on_both_limb_sign_tiers(monkeypatch):
    """The scans return the same results with ``SHIFT_BOUND`` patched to 0, where
    every ``int64`` call runs on limbs, as on the certified tier, which the
    unpatched run takes for most calls."""
    calls = tier_spy(monkeypatch)
    certified = tier_scans(random.Random(8_128))
    assert calls["_wrap_sign"] > 10 * calls["_limb_sign"]
    monkeypatch.setattr(core, "SHIFT_BOUND", 0)
    calls.update(_wrap_sign=0, _limb_sign=0)
    assert tier_scans(random.Random(8_128)) == certified
    assert calls["_wrap_sign"] == 0 and calls["_limb_sign"] > 0
    assert certified[:11] == [None] * 11 and certified[11:14] == [first for _, first, _ in PLANTED]


def test_scan_bounds_takes_the_certified_tier_through_level_13(monkeypatch):
    """Twice ``row_bound`` at level 13, 2 * 9841**3 * 13 < 2**45, is under ``SHIFT_BOUND``;
    at level 14, 2 * 9841**3 * 121 > 2**47 is past it, so every block runs on limbs."""
    assert 2 * 9841**3 * 13 <= core.SHIFT_BOUND < 2 * 9841**3 * 121
    calls = tier_spy(monkeypatch)
    assert bv.scan_bounds(13) is None
    assert calls["_wrap_sign"] > 0 and calls["_limb_sign"] == 0
    calls.update(_wrap_sign=0)
    assert bv.scan_bounds(14) is None
    assert calls["_wrap_sign"] == 0 and calls["_limb_sign"] > 0


#: The mass family's stride growth: the largest absolute column sum of a k-letter product, k = 0..4.
STRIDE_GROWTH = (1, 13, 121, 1093, 9841)


def test_row_bound_covers_every_product_through_8_letters():
    """``row_bound`` is at least every entry of every product of up to 8
    letters, times max|row|, and every row walked that far; through 4 letters
    it is the closed form (3 * 9**k - 1) / 2 times max|row|."""
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    products = [rows]
    for n in range(1, 9):
        products = [tuple(row_step(r, g) for r in m) for m in products for g in MASS_SCALED]
        assert max(abs(x) for m in products for r in m for x in r) <= core.row_bound(rows, MASS_SCALED, n), n
        column = max(sum(abs(r[j]) for r in m) for m in products for j in range(3))
        assert column <= core.row_bound(((1, 1, 1),), MASS_SCALED, n), n
        for row in ((3, -7, 2), (5, 5, -1)):
            walked = [row_walk(row, w) for w in words_of(n)]
            assert max(abs(x) for r in walked for x in r) <= core.row_bound((row,), MASS_SCALED, n), (row, n)
    for k, g in enumerate(STRIDE_GROWTH):
        assert g == (3 * 9**k - 1) // 2
        for row in ((1, 1, 1), (3, -7, 2), (-4, 0, 1)):
            assert core.row_bound((row,), MASS_SCALED, k) == g * max(map(abs, row))
    assert core.row_bound(((2, -7, 1),), MASS_SCALED, 11) == 7 * 9841**2 * 1093


def test_array_dtype_proves_the_budget_before_any_work(monkeypatch):
    one = ((1, 1, 1),)
    # 9841**4 * 13 < 2**57 (and 13 * row_bound at 16 is the same): 17 letters are int64;
    # 9841**4 * 121 > 2**59 at 18.  scan_bounds' level cap, 15, sits below the last int64 level.
    assert [core.array_dtype(one, MASS_SCALED, n) for n in (BOUNDS_LEVEL_MAX, 16, 17, 18)] == ["int64"] * 3 + ["object"]
    assert core.array_dtype(one, MASS_SCALED, 13) == "int64"  # scan_bounds(13)
    # the refine family's stride growth is 1, 75, 3525, 159375, 7175625
    assert core.array_dtype(((1, 0, 0),), core.REFINE_SCALED, 10) == "int64"  # 75 * 7175625**2 * 75 < 2**59
    assert core.array_dtype(((1, 0, 0),), core.REFINE_SCALED, 11) == "object"  # 7175625**2 * 159375 > 2**62
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 7)
    assert core.array_dtype(((2, -7, 1),), MASS_SCALED, 0) == "object"
    assert core.array_dtype(((2, -6, 1),), MASS_SCALED, 0) == "int64"


def test_bound_tests_are_strict_on_the_disk_rim():
    """(5, 20, -4) has e2 == 0 (weights (2/7, 9/14, 1/14), on the rim) and
    passes the coordinate tests, so only the disk and cone tests reject it.
    (-1, -1, -1) has e2 == 3 > 0 and T + 3c_j == -6, so of the three tests
    only the coordinate bounds reject it; the scan rejects it by its total
    test, T == -3 <= 0."""
    import numpy as np

    def first_offender(*r, dtype=object):
        return bv._first_offender(np.array(r, dtype=dtype), np.empty((12, len(r)), dtype=dtype), core.LIMB_BOUND - 1)

    assert e2((5, 20, -4)) == 0
    assert first_offender((1, 1, 1), (41, 7, 7)) is None
    assert first_offender((1, 1, 1), (5, 20, -4), (1, 0, 0)) == 1
    assert first_offender((1, 0, 0)) == 0  # c_0 == T: weight 2/3
    assert e2((-1, -1, -1)) == 3
    for dtype in ("int64", object):
        assert first_offender((1, 1, 1), (-1, -1, -1), dtype=dtype) == 1


def three_tests_fail(row):
    """Whether ``row`` fails one of ``reference_scan_bounds``' three tests, in Python ints."""
    total = sum(row)
    return (any(total + 3 * cj <= 0 or cj >= total for cj in row)
            or sum((3 * cj - total) ** 2 for cj in row) >= 6 * total * total
            or e2(row) <= 0)


def bound_rows(top):
    """Integer rows with every |c_j| <= ``top``: free rows, multiples of the
    negative-total row (-1, -1, -1), of the rim rows like (5, 20, -4)
    (e2 == 0) and of the barycenter and a corner, and rows within one unit
    of the rim."""
    coord = st.integers(-top, top)
    shapes = [(-1, -1, -1), (5, 20, -4), (20, -4, 5), (-4, 5, 20), (1, 1, 1), (1, 0, 0), (0, 0, 0)]
    multiples = st.builds(lambda r, k, s: tuple(s * (x << k) for x in r),
                          st.sampled_from(shapes), st.integers(0, top.bit_length() - 6), st.sampled_from((-1, 1)))
    near_rim = st.builds(lambda a, b, d: (a, b, d - a * b // (a + b)),
                         st.integers(1, top), st.integers(1, top), st.integers(-1, 1))
    return st.one_of(st.tuples(coord, coord, coord), multiples, near_rim)


@pytest.mark.parametrize("dtype, top", [("int64", 2**58), ("object", 2**80)], ids=["int64", "object"])
@given(data=st.data())
def test_first_offender_decides_the_three_tests_by_the_disk_and_the_total(dtype, top, data):
    """``_first_offender`` tests only e2 > 0 and T > 0, yet on every row its
    verdict is that of the three inequalities, each row alone and a block's
    first offender; ``int64`` rows stay below 2**59, object rows go past it."""
    import numpy as np

    rows = data.draw(st.lists(bound_rows(top), min_size=1, max_size=30))
    want = [three_tests_fail(row) for row in rows]
    block = np.array(rows, dtype=dtype)
    buf = np.empty((12, len(rows)), dtype)
    bound = core.LIMB_BOUND - 1
    assert [bv._first_offender(block[i:i + 1], buf, bound) is not None for i in range(len(rows))] == want
    assert bv._first_offender(block, buf, bound) == (want.index(True) if any(want) else None)


@given(bound_rows(2**80))
def test_positive_disk_and_total_bound_every_coordinate(row):
    """The lemma behind ``scan_bounds``: T > 0 and e2 > 0 give
    |3c_j - T| < 2T, that is T + 3c_j > 0 and c_j < T; and the three
    tests pass exactly when T > 0 and e2 > 0."""
    total = sum(row)
    if total > 0 and e2(row) > 0:
        assert all(abs(3 * cj - total) < 2 * total for cj in row)
    assert (not three_tests_fail(row)) == (total > 0 and e2(row) > 0)


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
def test_block_scans_leave_their_inputs_unchanged(monkeypatch, fresh_circles, bound, dtype):
    """``subtree_levels`` steps every yielded block again to make its
    children, so a scan or a circle build that wrote into a block through an
    ``out=`` view would corrupt the walk without an error: every block and
    every ``limb_sign`` factor must read after the scan as it did before."""
    import numpy as np

    monkeypatch.setattr(core, "INT64_ROW_BOUND", bound)
    monkeypatch.setattr(core, "BLOCK_ROWS", 3**4)
    blocks = [snapshot_blocks(monkeypatch, dv), snapshot_blocks(monkeypatch, bv)]
    calls = [read_only_limb_sign(monkeypatch, bv)]
    for c in (SCAN_MEASURES[-1], KUSUOKA):
        assert dv.scan_extrema(c, "2", 7) == reference_scan_extrema(c, "2", 7)
    assert bv.scan_bounds(7) is None
    rows = np.array(limb_rows(random.Random(7))[:500] + [(5, 20, -4)], dtype=dtype)
    before = rows.copy()
    assert bv._first_offender(rows, np.empty((12, len(rows)), dtype), core.LIMB_BOUND - 1) is not None
    assert rows.tolist() == before.tolist()
    assert all(calls) and all(len(seen) > 6 for seen in blocks)
    for fam, copy in blocks[0] + blocks[1]:
        assert fam.dtype == dtype and fam.tolist() == copy.tolist()


def poison_fresh_scratch(monkeypatch):
    """Fill every scratch array ``core.scratch`` makes with a sentinel, so a
    scan that reads scratch before writing it shows; returns the growing
    list of the arrays made."""
    real, made = core.scratch, []

    def scratch(rows, gens, levels, own):
        buf, bound = real(rows, gens, levels, own)
        buf.fill(SENTINEL)
        made.append(buf)
        return buf, bound

    for module in (core, bv):
        monkeypatch.setattr(module, "scratch", scratch)
    return made


@pytest.mark.parametrize("block", [3**2, 3**4, 3**7])
def test_block_scans_reuse_their_scratch_at_every_block_size(monkeypatch, fresh_circles, block):
    """The scans' scratch, sentinel-filled when made, is reused across their
    blocks: the planted deep offenders come out the same at every block size,
    and so do the Kusuoka measure's all-tie scan and the captured deep extrema
    on circle orders built at that block size."""
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
def test_block_scans_make_one_scratch_as_wide_as_their_widest_block(monkeypatch, fresh_circles, block):
    """Each ``scan_bounds`` call makes exactly one ``core.scratch`` array: its
    four own rows (coordinates and total) plus the eight of ``core.limb_sign``,
    as wide as the widest block the call's walk yields.  ``scan_extrema``
    makes none, its circle build included."""
    monkeypatch.setattr(core, "BLOCK_ROWS", block)
    made = poison_fresh_scratch(monkeypatch)
    blocks = snapshot_blocks(monkeypatch, bv)
    for depth in (1, 2, 3, 5, 6, 9, 10):
        dv.scan_extrema(SCAN_MEASURES[-1], "2", depth)
    assert made == []
    for level in (0, 1, 2, 4, 5, 8, 11):
        made.clear()
        blocks.clear()
        bv.scan_bounds(level)
        widest = max(len(fam) for fam, _ in blocks)
        assert [buf.shape for buf in made] == [(4 + 8, widest)], level


def test_scratch_takes_the_walks_dtype_and_twice_its_row_bound(monkeypatch):
    """``core.scratch`` gives a scan the dtype its walk yields and its one
    ``limb_sign`` bound, twice ``row_bound`` at the walk's deepest level."""
    monkeypatch.setattr(core, "INT64_ROW_BOUND", 13**3)
    rows, seen = ((2, -7, 1), (3, 3, 3)), set()
    for levels in range(1, 6):
        buf, bound = core.scratch(rows, MASS_SCALED, levels, 2)
        walked = {str(fam.dtype) for _, _, level in subtree_levels(rows, levels) for fam in level}
        assert walked == {str(buf.dtype)} and bound == 2 * 7 * STRIDE_GROWTH[levels - 1], levels
        seen |= walked
    assert seen == {"int64", "object"}


# ---------------------------------------------------------------------------
# size caps: a refused scan never reaches the walk
# ---------------------------------------------------------------------------

class WalkEntered(Exception):
    pass


def spy_walk(monkeypatch, module):
    """Replace ``module``'s ``subtree_levels`` by a spy that records its call
    and raises ``WalkEntered``, so no scan gets past the start of its walk."""
    calls = []

    def spy(*args):
        calls.append(args)
        raise WalkEntered

    monkeypatch.setattr(module, "subtree_levels", spy)
    return calls


def test_scan_extrema_refuses_an_oversized_scan_before_its_walk(monkeypatch, fresh_circles):
    calls = spy_walk(monkeypatch, dv)
    c = (Fraction(3), ONE, Fraction(2))
    refused = [("", EXTREMA_DEPTH_MAX + 1, f"between 1 and {EXTREMA_DEPTH_MAX}, got {EXTREMA_DEPTH_MAX + 1}"),
               ("", 10**9, "between 1 and"),
               ("2" * 56, 10, f"word length 56 plus depth 10 exceeds the cap {WORD_MAX_LEN}"),
               ("2" * WORD_MAX_LEN, 1, "exceeds the cap")]
    for word, depth, message in refused:
        with pytest.raises(ValueError, match=message):
            dv.scan_extrema(c, word, depth)
    assert calls == []
    for word in ("", "2" * (WORD_MAX_LEN - EXTREMA_DEPTH_MAX)):  # the largest admitted sizes
        with pytest.raises(WalkEntered):
            dv.scan_extrema(c, word, EXTREMA_DEPTH_MAX)
    assert len(calls) == 2


def test_scan_bounds_refuses_an_oversized_level_before_its_walk(monkeypatch):
    calls = spy_walk(monkeypatch, bv)
    for level in (BOUNDS_LEVEL_MAX + 1, 10**9, -1):
        with pytest.raises(ValueError, match=f"between 0 and {BOUNDS_LEVEL_MAX}, got {level}"):
            bv.scan_bounds(level)
    assert calls == []
    with pytest.raises(WalkEntered):
        bv.scan_bounds(BOUNDS_LEVEL_MAX)
    assert len(calls) == 1


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
    """Up to the cap m = 10 the walk over the transposes (stride growth 1, 53,
    2425, 109325, 4920625; 53 * 4920625**2 * 53 < 2**56) steps in int64."""
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
