"""Derivatives of energy measures against the Kusuoka measure, at vertices.

The derivative of a coefficient-triple measure at an addressed vertex has two
exact routes that share no arithmetic:

* ``rn_derivative`` walks integer subtree rows of the measure and of the
  Kusuoka measure down the cell word with the scaled mass generators and
  pairs them with the vertex corner's weights (2/3 at the corner, 1/6 at
  the other two), and
* ``rn_derivative_via_refine`` pairs the corner's *limit row* (the row of
  the rank-1 limit of the scaled refine powers) with the two children
  triples from the refine recursion on integer numerators.

The ``derivative`` command and ``verify`` compare the two.  Also here: the
vertex scan over a cell's interior (a binary search of one cached circle
order per depth), the decay of cell masses toward a vertex (with its
two-rate classification), the edge restriction profile and the
left-to-right edge monotonicity check.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import (EDGE_DEPTH_MAX, EXTREMA_DEPTH_MAX, MONOTONE_LEVEL_MAX, NORM_LEVEL_MAX, WORD_MAX_LEN, check_letter,
               check_range)
from .core import (
    LETTERS,
    MASS_DEN,
    MASS_SCALED,
    REFINE_COLS,
    REFINE_DEN,
    REFINE_ROWS,
    REFINE_SCALED,
    IntRow,
    Vec3,
    Mat3,
    VertexAddress,
    check_word,
    int_row,
    mat_scale,
    row_step,
    row_walk,
    subtree_levels,
    vec_dot,
    word_matrix,
)
from .measures import (
    BASIS_COEFFS,
    KUSUOKA,
    MeasureCoeffs,
    children_triple_via_refine,
    is_positive,
    subtree_row,
)

if TYPE_CHECKING:
    from .harmonic import Harmonic

#: Limit rows: row j is 40 times row 1 of ``core.REFINE_ROWS[j]``, the left
#: 3/5-eigenvector of refine generator j.  It annihilates exactly the
#: measures whose derivative vanishes at corner j; pairing with a children
#: triple gives the numerator of the derivative at that corner.
LIMIT_ROWS: tuple[Vec3, Vec3, Vec3] = tuple(
    tuple(40 * x for x in q[1]) for q in REFINE_ROWS)  # type: ignore[assignment]

#: Rank-1 limits of the scaled refine powers: (5/3 * refine_j)^n -> column 1
#: of ``core.REFINE_COLS[j]`` outer row 1 of ``core.REFINE_ROWS[j]``.
RANK1_LIMITS: tuple[Mat3, Mat3, Mat3] = tuple(
    tuple(tuple(row[1] * x for x in q[1]) for row in p)
    for p, q in zip(REFINE_COLS, REFINE_ROWS))  # type: ignore[assignment]

# Pairing the limit row with a children triple equals (up to the factor 4
# that cancels in the quotient) pairing the *subtree coefficients* with these
# integer corner weights w_k; they are 6x the (2/3, 1/6, 1/6) weight vector.
# (The children triple of subtree row r is s + 2 r_j up to one factor, with
# s = sum r, and 14(s + 2r_c) - (s + 2r_j) - (s + 2r_k) == 10 (w_c . r).)
# Each scaled mass generator maps them to the same edge vector,
# MASS_SCALED[j] . w_k == MASS_SCALED[k] . w_j == 9 (e_j + e_k) for j != k,
# which is junction continuity in integers: the derivative at the midpoint
# of edge {j, k} of a cell with subtree row r and Kusuoka row q is
# (r_j + r_k) / (q_j + q_k), whichever child it is read from.
_CORNER_WEIGHTS_INT = ((4, 1, 1), (1, 4, 1), (1, 1, 4))


def _cell_rows(c: MeasureCoeffs, word: str) -> tuple[IntRow, IntRow]:
    """Integer subtree rows of ``c`` and of the Kusuoka measure on one common
    scale, so a ratio of two of their pairings is a derivative value."""
    check_word(word)
    start, den = int_row(c)
    return row_walk(start, word), row_walk((den, den, den), word)


def _corner_value(r: IntRow, q: IntRow, corner: int) -> Fraction:
    """Derivative at one corner of a cell, from the cell's two rows."""
    weights = _CORNER_WEIGHTS_INT[corner]
    return Fraction(vec_dot(r, weights), vec_dot(q, weights))


def rn_derivative(c: MeasureCoeffs, vertex: VertexAddress) -> Fraction:
    """Exact derivative of the measure ``c`` against Kusuoka at a vertex.

    Computed from the corner-weight closed form on the vertex's canonical
    cell; the denominator is strictly positive for every cell.
    """
    v = vertex.canonical()
    return _derivative_raw(c, v.word, v.corner)


def _derivative_raw(c: MeasureCoeffs, word: str, corner: int) -> Fraction:
    """Corner-weight form evaluated on one particular spelling of a vertex.

    Junction vertices have two spellings; this does not canonicalize, so
    tests can confirm the two sides agree.
    """
    return _corner_value(*_cell_rows(c, word), corner)


#: An alias of ``rn_derivative``, kept because the benchmark's point queries
#: call this name.
rn_derivative_via_mass = rn_derivative


def rn_derivative_via_refine(c: MeasureCoeffs, vertex: VertexAddress) -> Fraction:
    """Independent route: the corner's limit row paired with the children
    triples of ``c`` and of the Kusuoka measure.

    The triples come from ``children_triple_via_refine``, the refine
    recursion on integer numerators, which shares no arithmetic with the
    integer mass walk behind ``rn_derivative``; agreement checks that walk.
    """
    v = vertex.canonical()
    lim = LIMIT_ROWS[v.corner]
    num = vec_dot(lim, children_triple_via_refine(c, v.word))
    return num / vec_dot(lim, children_triple_via_refine(KUSUOKA, v.word))


def basis_ratio(i: int, vertex: VertexAddress) -> Fraction:
    """Derivative of the i-th corner measure against Kusuoka (in [0, 1])."""
    return rn_derivative(BASIS_COEFFS[check_letter("corner", i)], vertex)


# ---------------------------------------------------------------------------
# nonnegative pairing and its zero set
# ---------------------------------------------------------------------------

def axis_gap(c: MeasureCoeffs, word: str, axis: int) -> Fraction:
    """14 x_axis minus the other two children masses x of the addressed cell.

    With subtree row r over ``scale`` that is 4 (4 r_axis + r_j + r_k) / scale
    (see ``_CORNER_WEIGHTS_INT``): one ``Fraction`` from integer numerators.
    """
    weights = _CORNER_WEIGHTS_INT[check_letter("axis", axis)]
    row, scale = subtree_row(c, word)
    return Fraction(4 * vec_dot(row, weights), scale)


def skew_energy_gap(h: Harmonic, word: str = "") -> Fraction:
    """Nonnegative pairing for a single harmonic's measure at a cell.

    Zero exactly when the restriction of ``h`` to the cell satisfies the
    skew condition about corner 0 (constants included).
    """
    from .harmonic import measure_coeffs  # only here, so ``derivative`` never loads harmonic
    return axis_gap(measure_coeffs(h, h), word, 0)


# ---------------------------------------------------------------------------
# decay of cell masses into a corner
# ---------------------------------------------------------------------------

class DecayClass(Enum):
    GENERIC = "generic"        # consecutive mass ratio tends to 3/5
    DEGENERATE = "degenerate"  # ratio is exactly 1/15 (skew cells)
    UNCLASSIFIED = "unclassified"  # every mass is zero


class DecayReport(NamedTuple):
    values: tuple[Fraction, ...]
    classification: DecayClass


def decay_sequence(c: MeasureCoeffs, word: str, letter: int, depth: int) -> DecayReport:
    """Masses of the nested cells obtained by repeating ``letter`` inside
    the addressed cell, for 0..depth repeats, with their decay class.

    The masses follow a two-rate law A / 15^m + B (3/5)^m whose 3/5
    coefficient B is ``axis_gap / 8``: the tail decays at 3/5 unless the
    measure's skew pairing at ``letter`` vanishes on the cell, and then at
    exactly 1/15; the class does not depend on ``depth``.
    """
    check_letter("letter", letter)
    check_word(word + str(letter) * check_range("depth", depth, 0, WORD_MAX_LEN))
    row, scale = subtree_row(c, word)
    g = MASS_SCALED[letter]
    values = []
    for _ in range(depth + 1):
        values.append(Fraction(2 * sum(row), scale))
        row, scale = row_step(row, g), scale * MASS_DEN
    if axis_gap(c, word, letter) != 0:
        cls = DecayClass.GENERIC
    elif values[0] != 0:  # values[m] == values[0] / 15**m
        cls = DecayClass.DEGENERATE
    else:
        cls = DecayClass.UNCLASSIFIED
    return DecayReport(tuple(values), cls)


# ---------------------------------------------------------------------------
# vertex scans
# ---------------------------------------------------------------------------

class ScanResult(NamedTuple):
    minimum: Fraction
    maximum: Fraction
    argmin: VertexAddress
    argmax: VertexAddress


#: Edges {j, k} of a cell, j < k; the midpoint of edge {j, k} of cell ``w``
#: has the canonical address ``w + j : k``.
_EDGES = ((0, 1), (0, 2), (1, 2))
#: The root's midpoint columns e_j + e_k, and the mass generators transposed.
_EDGE_COLUMNS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
_MASS_TRANSPOSED = tuple(tuple(zip(*g)) for g in MASS_SCALED)


def scan_extrema(c: MeasureCoeffs, word: str = "", depth: int = 8) -> ScanResult:
    """Extrema of the derivative over the vertices strictly inside the
    addressed cell, down to ``depth`` levels of subdivision, with witnesses.

    The cell's own three corners are its boundary and are not scanned (the
    corner-0 derivative of the corner-0 measure, for instance, attains 2/3
    only at that excluded corner; over interior vertices the bound is strict).
    Requires a positive measure, 1 <= ``depth`` <= ``EXTREMA_DEPTH_MAX`` and
    ``len(word) + depth`` <= ``WORD_MAX_LEN``, checked before any work.
    Values are compared by cross-multiplying Python ints, so the scan is
    exact.  Witnesses are canonical addresses, ties broken lexicographically.

    Every interior vertex down to ``depth`` is the midpoint of edge {j, k} of
    one subcell ``word`` + u, |u| < ``depth``, with value (r0 . v) / (q0 . v):
    (r0, q0) = ``_cell_rows(c, word)`` and v = M_u (e_j + e_k), M_u the scaled
    mass product along u (see ``_CORNER_WEIGHTS_INT``).  The columns v depend
    on neither ``c`` nor ``word``, so ``_circle`` orders them once per depth,
    3**depth distinct points around one circle, and ``_peak`` binary-searches
    that order.  It is exact because

    * every column lies on the conic 2 sum (3 v_i - S)**2 = 3 S**2, S = sum v,
      the rim of the weight disk: the root's midpoints do, and each M_j maps
      the conic onto itself, with det 27 > 0, so keeps its cyclic order;
    * q0 . v > 0, and the ratio's level sets are lines, which meet the conic
      at most twice.  So unless r0 and q0 are proportional (a constant ratio,
      where the least key wins), the ratio rises strictly along one arc and
      falls strictly along the other: in circle order the values rise once
      and fall once, and two points share an extreme only as neighbours.
    """
    if not is_positive(c):
        raise ValueError("scan_extrema needs a positive measure")
    check_range("depth", depth, 1, EXTREMA_DEPTH_MAX)  # a cell has no interior vertices at depth 0
    if len(check_word(word)) + depth > WORD_MAX_LEN:  # the deepest vertex has len(word) + depth letters
        raise ValueError(f"word length {len(word)} plus depth {depth} exceeds the cap {WORD_MAX_LEN}")
    r0, q0 = _cell_rows(c, word)
    cols, keys = _circle(depth)
    ratio = functools.cache(lambda i: _evaluate(cols, i, r0, q0))
    if any(r0[j] * q0[k] != r0[k] * q0[j] for j, k in _EDGES):
        lo, hi = _peak(ratio, keys, -1), _peak(ratio, keys, 1)
    else:  # a constant ratio: the least key witnesses both extremes, with one word object
        lo = hi = int(keys.argmin())
    low = _witness(word, int(keys[lo]), depth)
    high = _witness(word, int(keys[hi]), depth) if hi != lo else VertexAddress(*low)
    return ScanResult(Fraction(*ratio(lo)), Fraction(*ratio(hi)), low, high)


def _evaluate(cols, i: int, r: IntRow, q: IntRow) -> tuple[int, int]:
    """Numerator and positive denominator of the derivative at circle point ``i``."""
    v = cols[i].tolist()
    return vec_dot(r, v), vec_dot(q, v)


def _peak(ratio, keys, side: int) -> int:
    """The circle point with the largest ``ratio`` for ``side`` 1 (the least
    for -1), of two equal ones the lesser key, where the values rise once and
    fall once around the circle.  A binary search from a point p where they
    step strictly (p = 1 if points 0 and 1 tie, a top or a bottom pair):
    rising at p, they climb to the top, fall, and end below p's value; falling
    at p, they drop below it, climb to the top and fall back to it.  So for
    t = p + 1 .. p + n - 1 the test below is false before the top and true
    from its first point on; t = p + n stands for p.
    """
    n = len(keys)

    def step(i: int, j: int) -> int:  # the sign of side * (ratio(i) - ratio(j)), indices mod n
        (a, b), (c, d) = ratio(i % n), ratio(j % n)
        x = side * (a * d - c * b)
        return (x > 0) - (x < 0)

    p = int(step(1, 0) == 0)
    rising = step(p + 1, p) > 0
    lo, hi = (p + 1, p + n) if rising or not p else (n, n)  # a pair at 0, 1 then a fall is the top
    while lo < hi:
        t, above = (lo + hi) // 2, step((lo + hi) // 2, p)
        if rising and above < 0 or (rising or above >= 0) and step(t + 1, t) <= 0:
            hi = t
        else:
            lo = t + 1
    t = lo % n
    return (t + 1) % n if step(t + 1, t) == 0 and keys[(t + 1) % n] < keys[t] else t


def _witness(word: str, key: int, depth: int) -> VertexAddress:
    """The vertex ``word`` + s : k of a ``_circle`` key, the digits of s from 4**depth down, then k."""
    digits = (key >> 2 * (depth - p) & 3 for p in range(depth))
    return VertexAddress(word + "".join(LETTERS[x - 1] for x in digits if x), key & 3)


@functools.lru_cache(maxsize=None)
def _circle(depth: int):
    """``(cols, keys)`` for ``scan_extrema``: the 3**``depth`` distinct points
    among the columns M_u (e_j + e_k), |u| < ``depth``, in circle order, with
    the least key of each, as read-only arrays built on first use.  Each
    depth's table stays resident for the process (15 MB at depth 12, 5 MB at
    11, under 1 MB below), the price of building it once for every scan.

    The key of the midpoint u j : k is the string u j in base-4 digits
    (letter + 1) from 4**depth down, then k: keys order as addresses do.
    M_x fixes e_j + e_k for the letter x off the edge, so that midpoint of a
    cell ux is its parent's; the rest, the root's three and the two edges
    through x of each cell ux, are 3**depth points (the build checks that no
    two coincide).  Of a point's spellings u x**m j : k the least is the
    shallowest, but for the edge {1, 2} (x = 0) the deepest.  The columns are
    transposes of one ``subtree_levels`` walk of ``_EDGE_COLUMNS`` by
    ``_MASS_TRANSPOSED``, whose words are the u reversed, so x comes first.

    The order is that of t = (v1 - v2) / v0, with (0, 1, 1), the one point
    where v0 = 0, last: each line through it meets the conic once more, so t
    is one-to-one and monotone along the rest.  Every entry is in [0, 2**b),
    b the bit length of 9**(depth - 1), as the corner measures' derivatives
    are in [0, 1] and each M_j's largest absolute row sum is 9.  So the
    chunks floor(t * 2**(s*i)) come by exact ``int64`` long division, s =
    62 - b bits a chunk; two distinct t differ by at least 1 / (v0 v0') >
    2**(-2b), so chunks of 2b fractional bits decide the order.  ``int32``
    holds the columns while 9**(depth - 1) < 2**31.
    """
    import numpy as np

    n, b = 3**depth, (9 ** (depth - 1)).bit_length()
    cols, keys = np.empty((n, 3), "int32" if b < 32 else "int64"), np.empty(n, "int32")
    chunks, at = np.empty((-(-2 * b // (62 - b)), n), "int64"), 0
    for level, start, fams in subtree_levels(_EDGE_COLUMNS, depth, _MASS_TRANSPOSED):
        index = np.arange(start, start + len(fams[0]))
        x, stem = index // 3 ** (level - 1) if level else index - 1, 0 * index  # the root's x is -1
        for p in range(level):  # letter p of u is digit p of the index from the right
            index, digit = np.divmod(index, 3)
            stem = stem + ((digit + 1) << 2 * (depth - p))
        for (j, k), fam in zip(_EDGES, fams):
            keep = (x == j) | (x == k) | (x < 0)
            tail = "0" * (depth - 1 - level) + "1" if j else "0"
            v = fam[keep]
            at, m, rest, den = at + len(v), slice(at, at + len(v)), v[:, 1] - v[:, 2], np.maximum(v[:, 0], 1)
            cols[m], keys[m] = v, stem[keep] + k + sum((int(ch) + 1) << 2 * (depth - level - i)
                                                      for i, ch in enumerate(tail))
            for i in range(len(chunks)):
                chunks[i, m], rest = np.divmod(rest << (62 - b), den)
    chunks[0, cols[:, 0] == 0] = np.iinfo("int64").max
    order = np.argsort(chunks[0])  # the first chunk decides all but a few ties (8 at depth 12)
    tied = np.diff(chunks[0, order]) == 0
    tied = np.append(tied, False) | np.insert(tied, 0, False)
    order[tied] = sub = order[tied][np.lexsort(chunks[::-1, order[tied]])]
    if (chunks[:, sub[1:]] == chunks[:, sub[:-1]]).all(axis=0).any():
        raise RuntimeError(f"two midpoint columns of depth {depth} coincide")
    del chunks
    table = cols[order], keys[order]
    table[0].flags.writeable = table[1].flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# edge restriction
# ---------------------------------------------------------------------------

def edge_profile(
    c: MeasureCoeffs,
    word: str,
    edge: tuple[int, int],
    depth: int,
) -> list[tuple[Fraction, Fraction]]:
    """Derivative values along one edge of a cell, ordered by position.

    Returns (position, value) pairs at the two endpoints and at every dyadic
    edge vertex p/2^n with n <= depth.  Position runs from 0 at the first
    edge corner to 1 at the second.

    The subcells along the edge (words over the two edge letters) are walked
    one level at a time by ``row_step``, sharing every prefix; the vertex at
    (2i+1)/2^n is the midpoint of the edge of the i-th subcell on level n-1.
    """
    j, k = edge
    if check_letter("corner", j) == check_letter("corner", k):
        raise ValueError(f"edge must name two distinct corners, got {edge!r}")
    check_word(word)
    check_range("depth", depth, 0, EDGE_DEPTH_MAX)
    if len(word) + depth > WORD_MAX_LEN:  # the deepest vertex has len(word) + depth letters
        raise ValueError(f"word length {len(word)} plus depth {depth} exceeds the cap {WORD_MAX_LEN}")
    grid = 1 << depth
    out: list = [None] * (grid + 1)
    r, q = _cell_rows(c, word)
    out[0] = (Fraction(0), _corner_value(r, q, j))
    out[grid] = (Fraction(1), _corner_value(r, q, k))
    rs, qs = [r], [q]
    gens = (MASS_SCALED[j], MASS_SCALED[k])
    for n in range(1, depth + 1):
        stride = grid >> n
        for i, (r, q) in enumerate(zip(rs, qs)):
            pos = (2 * i + 1) * stride
            out[pos] = (Fraction(pos, grid), Fraction(r[j] + r[k], q[j] + q[k]))
        if n < depth:
            rs, qs = ([row_step(row, g) for row in rows for g in gens] for rows in (rs, qs))
    return out


def monotone_left_right(m: int) -> bool:
    """Check the left-to-right growth of the corner-2 mass along the bottom.

    Walks the 2^m bottom-edge cells (words over letters {1,2}) level by level
    in their geometric order and confirms the corner-2 masses never decrease.
    Rows on one level share one scale, so integer numerators are compared.

    The claim also floors every edge margin at the all-1s word's; the floor
    holds through m = 3 and fails from m = 4 on (``edge_margin("1121")`` =
    242/1125 < ``edge_margin("1111")`` = 392/1125), while the masses descend
    from m = 3 on, so on the whole domain m = 0..12 the floor never decides
    the result, True exactly for m <= 2, and it is not walked.
    """
    check_range("m", m, 0, MONOTONE_LEVEL_MAX)
    masses = [(0, 0, 1)]
    for _ in range(m):
        masses = [row_step(r, g) for r in masses for g in MASS_SCALED[1:]]
    sums = [sum(r) for r in masses]
    return all(a <= b for a, b in zip(sums, sums[1:]))


# ---------------------------------------------------------------------------
# margin quantity along the bottom edge
# ---------------------------------------------------------------------------

_MARGIN_ROW: IntRow = tuple(int(x) for x in LIMIT_ROWS[2])  # type: ignore[assignment]
_MARGIN_COL: IntRow = tuple(int(row[1]) for row in REFINE_COLS[2])  # type: ignore[assignment]


def edge_margin(word: str) -> Fraction:
    """Pairing of the corner-2 limit row with the refine word product applied
    to the corner-2 child triple; strictly positive for words over {1,2}.
    """
    check_word(word)
    if "0" in word:
        raise ValueError("edge_margin is defined for words over letters {1,2} only")
    row = _MARGIN_ROW
    for ch in word:
        row = row_step(row, REFINE_SCALED[int(ch)])
    return Fraction(vec_dot(row, _MARGIN_COL), REFINE_DEN ** len(word))


def edge_margin_closed_form(m: int) -> Fraction:
    """Eigen-decomposed value of the all-1s margin: three explicit rates."""
    check_range("m", m, 0, WORD_MAX_LEN)
    return (
        Fraction(45, 2) * Fraction(1, 15) ** m
        + Fraction(5, 2) * Fraction(3, 5) ** m
        + 15 * Fraction(1, 5) ** m
    )


# ---------------------------------------------------------------------------
# scaled operator norms
# ---------------------------------------------------------------------------

_REFINE_TRANSPOSED = tuple(tuple(zip(*g)) for g in REFINE_SCALED)


def operator_norm_scan(m: int) -> Fraction:
    """Max over all level-m refine word products of the scaled column norm.

    The scale (5/3 per level) compensates the dominant eigenrate, so the
    sequence stays bounded; the scan reports the exact per-level max.
    Column c of a level-m product is unit row c walked by the transposed
    generators along the reversed word, and every word is walked, so one
    block walk of ``core.subtree_levels`` over the transposes, with the three
    unit rows as its families, gives the max from its leaf level.  The
    transposes' products of up to four letters have largest absolute column
    sums 53, 2425, 109325 and 4920625, so the walk proves ``int64`` through
    m = ``NORM_LEVEL_MAX`` = 10 (its partial sums stay within
    53 * 4920625**2 * 53 < 2**56) and not at 11 (4920625**2 * 109325 > 2**61).
    """
    check_range("m", m, 0, NORM_LEVEL_MAX)
    best = 0
    for depth, _, level in subtree_levels(((1, 0, 0), (0, 1, 0), (0, 0, 1)), m + 1, _REFINE_TRANSPOSED):
        if depth == m:
            best = max(best, *(int(abs(rows).sum(axis=1).max()) for rows in level))
    return Fraction(best) * Fraction(5, 3) ** m / REFINE_DEN**m


def rank1_deviation(j: int, n: int) -> Fraction:
    """Exact column-norm distance between the scaled n-th refine power and
    its rank-1 limit."""
    power = word_matrix("refine", str(check_letter("letter", j)) * check_range("n", n, 0, WORD_MAX_LEN))
    scaled = mat_scale(Fraction(5, 3) ** n, power)
    return max(
        sum(abs(scaled[r][c] - RANK1_LIMITS[j][r][c]) for r in range(3))
        for c in range(3)
    )
