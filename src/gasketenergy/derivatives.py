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
vertex scan over a cell's interior (on the block walk of
``core.subtree_levels``), the decay of cell masses toward a vertex (with its
two-rate classification), the edge restriction profile, the left-to-right
edge monotonicity check, and the Laplacian rescaling factors.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    LETTERS,
    MASS_DEN,
    MASS_SCALED,
    REFINE_COLS,
    REFINE_DEN,
    REFINE_ROWS,
    REFINE_SCALED,
    WORD_MAX_LEN,
    IntRow,
    Vec3,
    Mat3,
    VertexAddress,
    check_word,
    int_row,
    lex_word,
    limb_sign,
    mat_scale,
    row_step,
    row_walk,
    scratch,
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
    if i not in (0, 1, 2):
        raise ValueError(f"corner must be 0, 1 or 2, got {i!r}")
    return rn_derivative(BASIS_COEFFS[i], vertex)


# ---------------------------------------------------------------------------
# nonnegative pairing and its zero set
# ---------------------------------------------------------------------------

def axis_gap(c: MeasureCoeffs, word: str, axis: int) -> Fraction:
    """14 x_axis minus the other two children masses x of the addressed cell.

    With subtree row r over ``scale`` that is 4 (4 r_axis + r_j + r_k) / scale
    (see ``_CORNER_WEIGHTS_INT``): one ``Fraction`` from integer numerators.
    """
    row, scale = subtree_row(c, word)
    return Fraction(4 * vec_dot(row, _CORNER_WEIGHTS_INT[axis]), scale)


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
    if letter not in (0, 1, 2):
        raise ValueError(f"letter must be 0, 1 or 2, got {letter!r}")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    check_word(word + str(letter) * depth)
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


def scan_extrema(c: MeasureCoeffs, word: str = "", depth: int = 8) -> ScanResult:
    """Extrema of the derivative over the vertices strictly inside the
    addressed cell, down to ``depth`` levels of subdivision, with witnesses.

    The cell's own three corners are its boundary and are not scanned (the
    corner-0 derivative of the corner-0 measure, for instance, attains 2/3
    only at that excluded corner; over interior vertices the bound is strict).
    Requires a positive measure and ``depth >= 1``.  Carried as scaled
    integer rows; values are compared by cross-multiplication, so the whole
    scan is exact.  Witnesses are canonical addresses, ties broken
    lexicographically.

    Every interior vertex down to ``depth`` is the midpoint of exactly one
    edge of exactly one subcell less than ``depth`` levels down, so each is
    evaluated once, as (r_j + r_k) / (q_j + q_k) from that subcell's rows
    (see ``_CORNER_WEIGHTS_INT``); rows are never stepped to the leaf level.

    Subcells come from the block walk ``core.subtree_levels`` in the dtype it
    proves (``int64`` below 2**59, Python ints otherwise).  Each block's
    midpoint ratios go into the one ``core.scratch`` array the call makes at
    the root block and meet the running extremum in one ``core.limb_sign``
    pass; see ``_least``.
    """
    if not is_positive(c):
        raise ValueError("scan_extrema needs a positive measure")
    if depth < 1:
        raise ValueError("scan_extrema needs depth >= 1; the cell has no interior vertices at depth 0")
    import numpy as np

    r0, q0 = _cell_rows(c, word)
    # running extrema as (numerator, positive denominator, canonical key),
    # seeded with the midpoint of the cell's edge {0, 1}; the maximum is
    # kept as the least of the negated values
    lo = (r0[0] + r0[1], q0[0] + q0[1], (word + "0", 1))
    hi = (-lo[0], lo[1], lo[2])
    for d, start, (rs, qs) in subtree_levels((r0, q0), depth):
        if not d:  # the root block: the call's one scratch, as wide as the widest block
            buf = scratch(11, depth, 3, rs.dtype)
        # entry 3 i + e is the midpoint of edge e of the block's cell i, so
        # entries rise in key order
        num, dnm, neg = buf[:3, :3 * len(rs)]
        for e, (j, k) in enumerate(_EDGES):
            np.add(rs[:, j], rs[:, k], out=num.reshape(-1, 3)[:, e])
            np.add(qs[:, j], qs[:, k], out=dnm.reshape(-1, 3)[:, e])

        def key(i: int) -> tuple[str, int]:
            j, k = _EDGES[i % 3]
            return word + lex_word(start + i // 3, d) + LETTERS[j], k

        lo = _least(lo, num, dnm, key, buf[3:])
        hi = _least(hi, np.negative(num, out=neg), dnm, key, buf[3:])
    return ScanResult(
        Fraction(lo[0], lo[1]),
        Fraction(-hi[0], hi[1]),
        VertexAddress(*lo[2]),
        VertexAddress(*hi[2]),
    )


def _least(best, num, dnm, key, buf):
    """``best`` = (n, d, key) updated by one block of ratios ``num / dnm``
    (every ``dnm > 0``): the least ratio, and among equal ratios the least
    key, where ``key(i)`` is the key of entry ``i`` and rises with ``i``.

    One ``limb_sign`` pass compares the block with n / d.  If some entries
    lie below it, the first least of those wins outright; otherwise the
    first entry equal to it, if any, offers its key.  So few entries lie
    below (at most 12 a block, about 2 on average) that a plain ``min`` over
    their exact ratios ranks them, keeping the first of equals.  An
    all-equal block (the Kusuoka measure) costs the one pass.
    """
    n, d, k = best
    s = limb_sign(num, d, -n, dnm, buf)  # sign of num / dnm - n / d
    below = (s < 0).nonzero()[0]
    if below.size:
        i = min(below.tolist(), key=lambda i: Fraction(int(num[i]), int(dnm[i])))
        return int(num[i]), int(dnm[i]), key(i)
    ties = s == 0
    if ties.any():
        tie = key(int(ties.argmax()))
        if tie < k:
            return n, d, tie
    return best


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
    if j == k or j not in (0, 1, 2) or k not in (0, 1, 2):
        raise ValueError(f"edge must name two distinct corners, got {edge!r}")
    check_word(word)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
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
    in their geometric order and confirms the corner-2 masses never decrease,
    and that every edge margin is at least the margin of the all-1s word.
    Rows on one level share one scale, so integer numerators are compared.

    Neither claim survives deep subdivision: the masses first descend at
    m = 3, and the margin floor fails from m = 4 on (``edge_margin("1121")``
    = 242/1125 < ``edge_margin("1111")`` = 392/1125), so the result is True
    exactly for m <= 2 and the floor never decides it.
    """
    if m < 0 or m > 12:
        raise ValueError("monotone_left_right supports 0 <= m <= 12")
    masses, margins = [(0, 0, 1)], [_MARGIN_ROW]
    for _ in range(m):
        masses = [row_step(r, g) for r in masses for g in MASS_SCALED[1:]]
        margins = [row_step(r, g) for r in margins for g in REFINE_SCALED[1:]]
    sums = [sum(r) for r in masses]
    floor = vec_dot(margins[0], _MARGIN_COL)  # the all-1s word comes first
    return (all(a <= b for a, b in zip(sums, sums[1:]))
            and all(vec_dot(r, _MARGIN_COL) >= floor for r in margins))


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
    row = row_walk(_MARGIN_ROW, word, REFINE_SCALED)
    return Fraction(vec_dot(row, _MARGIN_COL), REFINE_DEN ** len(word))


def edge_margin_closed_form(m: int) -> Fraction:
    """Eigen-decomposed value of the all-1s margin: three explicit rates."""
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
    transposes' largest absolute column sum is 53, so the walk proves
    ``int64`` through m = 10 (53**10 < 2**59).
    """
    if m < 0 or m > 10:
        raise ValueError("operator_norm_scan supports 0 <= m <= 10")
    best = 0
    for depth, _, level in subtree_levels(((1, 0, 0), (0, 1, 0), (0, 0, 1)), m + 1, _REFINE_TRANSPOSED):
        if depth == m:
            best = max(best, *(int(abs(rows).sum(axis=1).max()) for rows in level))
    return Fraction(best) * Fraction(5, 3) ** m / REFINE_DEN**m


def rank1_deviation(j: int, n: int) -> Fraction:
    """Exact column-norm distance between the scaled n-th refine power and
    its rank-1 limit."""
    power = word_matrix("refine", str(j) * n)
    scaled = mat_scale(Fraction(5, 3) ** n, power)
    return max(
        sum(abs(scaled[r][c] - RANK1_LIMITS[j][r][c]) for r in range(3))
        for c in range(3)
    )


# ---------------------------------------------------------------------------
# Laplacian rescaling factors
# ---------------------------------------------------------------------------

def q_factor(i: int, vertex: VertexAddress, printed_variant: bool = False) -> Fraction:
    """One-letter rescaling factor of the measure Laplacian at a vertex.

    The derivation-consistent constant term is 1/25; ``printed_variant``
    switches to the 1/15 variant that circulates in statements of the result
    (the two differ by exactly 2/75).
    """
    if i not in (0, 1, 2):
        raise ValueError(f"letter must be 0, 1 or 2, got {i!r}")
    const = Fraction(1, 15) if printed_variant else Fraction(1, 25)
    return const + Fraction(12, 25) * basis_ratio(i, vertex)


def q_word(word: str, vertex: VertexAddress, printed_variant: bool = False) -> Fraction:
    """Word rescaling factor: product of one-letter factors, each evaluated
    at the vertex pushed forward by the remaining suffix."""
    check_word(word)
    out = Fraction(1)
    for t, ch in enumerate(word):
        suffix = word[t + 1:]
        moved = VertexAddress(suffix + vertex.word, vertex.corner)
        out *= q_factor(int(ch), moved, printed_variant)
    return out
