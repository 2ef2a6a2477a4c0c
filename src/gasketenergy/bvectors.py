"""Unit-sum weight triples that average derivatives over a cell.

For every cell, the cell average of the derivative of a measure against the
Kusuoka measure equals a weighted average of the derivative's values at the
cell's three corners.  The weight triple depends only on the cell word and
is computable by three independent exact routes, each an integer root
row, one-letter step and leaf formula:

* column sums of the mass word product (``b_from_mass``),
* a one-letter recursion on the triple itself (``b_from_word``),
* Kusuoka mass ratios of the three child cells (``b_from_kusuoka``).

``level_routes`` walks all three down the level tree at once, on the
shared tree walk ``core.walk_level`` with each route's own step.  Route
agreement is one of this package's strongest end-to-end checks.  The
triples live in a disk of squared radius 1/6 around the barycenter; the
bounds are strict at every finite word and sharp only in the limit, which
``scan_bounds`` verifies wholesale with integer arithmetic on the column-sum
rows of every word, walked by the shared block walk ``core.subtree_levels``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from .core import (
    MASS_SCALED,
    IntRow,
    Vec3,
    VertexAddress,
    check_word,
    int_row,
    lex_word,
    limb_sign,
    row_step,
    row_walk,
    scratch,
    subtree_levels,
    walk_level,
)
from .measures import KUSUOKA, MeasureCoeffs, level1_from_coeffs, measure_of_cell, refine_step

#: A weight triple: three rationals summing to one.
BVector = Vec3

_THIRD = Fraction(1, 3)

#: The Kusuoka route's root row, the whole gasket's child masses (their scale cancels).
_KUSUOKA_ROOT: IntRow = int_row(level1_from_coeffs(KUSUOKA))[0]


def b_from_mass(word: str) -> BVector:
    """Weight triple of a cell from the column sums of its mass product.

    Weight j is 1/6 plus half the j-th column's share of the total entry
    sum.  The empty word gives the barycenter (1/3, 1/3, 1/3).  The column
    sums are the row (1, 1, 1) walked along the word by the integer kernel;
    the share is scale-free, so the scale is never formed.
    """
    check_word(word)
    return _from_column_sums(row_walk((1, 1, 1), word))


def _from_column_sums(c: IntRow) -> BVector:
    """(T + 3c_j) / 6T, that is 1/6 + c_j / 2T, for column sums c of total T."""
    total = c[0] + c[1] + c[2]
    return tuple(Fraction(total + 3 * x, 6 * total) for x in c)  # type: ignore[return-value]


def _b_step_int(p: IntRow, j: int) -> IntRow:
    """One letter of the weight recursion on projective integer numerators:
    with b = p / sum(p), the child triple is the returned row over its sum."""
    k, l = (j + 1) % 3, (j + 2) % 3
    out = [0, 0, 0]
    out[j] = 9 * p[j]
    out[k] = 2 * p[j] + 2 * p[k] - p[l]
    out[l] = 2 * p[j] - p[k] + 2 * p[l]
    return tuple(out)  # type: ignore[return-value]


def unit_triple(p: IntRow) -> BVector:
    total = p[0] + p[1] + p[2]
    return tuple(Fraction(x, total) for x in p)  # type: ignore[return-value]


def b_step(b: BVector, j: int) -> BVector:
    """Weight triple of the j-th child cell from the parent's triple.

    Accepts any exact unit-sum triple.  In rationals the step is
    b_j -> 9 b_j / (12 b_j + 1), b_k -> (2 b_j + 2 b_k - b_l) / (12 b_j + 1)
    and b_l -> (2 b_j - b_k + 2 b_l) / (12 b_j + 1); it runs as
    ``_b_step_int`` on the triple's integer numerators, whose new sum is the
    denominator 12 b_j + 1 times the old one.  That denominator never
    vanishes on the closed disk of valid triples; a triple far enough
    outside it raises.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"letter must be 0, 1 or 2, got {j!r}")
    if b[0] + b[1] + b[2] != 1:
        raise ValueError("b_step needs a unit-sum triple")
    p = _b_step_int(int_row(b)[0], j)
    if p[0] + p[1] + p[2] == 0:
        raise ValueError("degenerate denominator: triple lies outside the weight disk")
    return unit_triple(p)


def b_from_word(word: str) -> BVector:
    """Iterate ``b_step`` along the word from the barycenter (second route):
    ``_b_step_int`` from (1, 1, 1), with one ``Fraction`` per weight at the
    end."""
    check_word(word)
    p = (1, 1, 1)
    for ch in word:
        p = _b_step_int(p, int(ch))
    return unit_triple(p)


def b_from_kusuoka(word: str) -> BVector:
    """Weight triple from Kusuoka mass ratios of the three child cells.

    Weight j measures how much of the cell's Kusuoka mass the j-th child
    holds, recentered and scaled so a uniform split gives the barycenter:
    b_j = 1/3 + (5/4)(ratio_j - 1/3), that is (15 x_j - P) / (12 P) for
    child masses x and their sum P.

    The child masses come from the refine recursion on integer numerators
    (``refine_step`` from ``_KUSUOKA_ROOT``) and the cell's own mass is their
    sum, so no longer word is formed and the common scale cancels.  This
    route shares no arithmetic with the other two.
    """
    x = _KUSUOKA_ROOT
    for ch in check_word(word):
        x = refine_step(x, int(ch))
    return _from_child_masses(x)


def _from_child_masses(x: IntRow) -> BVector:
    parent = x[0] + x[1] + x[2]
    return tuple(Fraction(15 * v - parent, 12 * parent) for v in x)  # type: ignore[return-value]


def weighted_average_gap(c: MeasureCoeffs, word: str) -> Fraction:
    """Cell average of the derivative minus its corner weighted average.

    Identically zero: the weight triple is exactly the averaging kernel for
    derivatives of any (signed) measure in the coefficient space.
    """
    from .derivatives import rn_derivative  # only here, so ``bvector`` never loads derivatives
    check_word(word)
    b = b_from_mass(word)
    average = measure_of_cell(c, word) / measure_of_cell(KUSUOKA, word)
    corners = sum(
        b[j] * rn_derivative(c, VertexAddress(word, j)) for j in range(3)
    )
    return average - corners


def a_values(b: BVector) -> Vec3:
    """Affine re-coordinates a_j = 2(b_j - 1/6); unit sum, squared sum < 1."""
    return tuple(2 * (x - Fraction(1, 6)) for x in b)  # type: ignore[return-value]


def kusuoka_ratio(a_j: Fraction) -> Fraction:
    """Child-to-parent Kusuoka mass ratio from one re-coordinate: (2/5)(a_j + 1/2)."""
    return Fraction(2, 5) * (a_j + Fraction(1, 2))


def closed_form_b(m: int) -> BVector:
    """Weight triple of the all-0s word of length m, in closed form.

    The leading weight is 2/3 - 2/(3(3^(2m)+1)); the other two split the
    remainder equally.  Approaches the disk boundary as m grows.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative")
    b0 = Fraction(2, 3) - Fraction(2, 3 * (3 ** (2 * m) + 1))
    rest = (1 - b0) / 2
    return (b0, rest, rest)


def disk_radius_sq(b: BVector) -> Fraction:
    """Squared distance of a weight triple from the barycenter, coordinate-wise.

    Strictly below 1/6 for every cell's triple; tends to 1/6 along 0^m.
    """
    return sum((x - _THIRD) ** 2 for x in b)  # type: ignore[return-value]


def enumerate_bvectors(m: int) -> Iterator[tuple[str, BVector]]:
    """All level-m (word, weight triple) pairs in lexicographic word order:
    the recursion route alone on the ``level_routes`` tree walk."""
    return ((w, unit_triple(p)) for w, p in walk_level(m, (1, 1, 1), _b_step_int))


def level_routes(m: int) -> Iterator[tuple[str, tuple[IntRow, IntRow, IntRow]]]:
    """Every level-m word in lexicographic order with each route's integer row
    ``(p, c, x)``, the input of ``unit_triple``, ``_from_column_sums`` and
    ``_from_child_masses``, stepped once per node of one ``walk_level``."""
    return walk_level(
        m, ((1, 1, 1), (1, 1, 1), _KUSUOKA_ROOT),
        lambda r, j: (_b_step_int(r[0], j), row_step(r[1], MASS_SCALED[j]), refine_step(r[2], j)))


def rows_agree(p: IntRow, c: IntRow, x: IntRow) -> bool:
    """Whether ``level_routes``' rows give one triple b = p / S, by integer
    cross-multiplication with the row sums S, T and Q, none of them zero:
    6T p_j == S (T + 3c_j) and 12Q p_j == S (15x_j - Q)."""
    s, t, q = sum(p), sum(c), sum(x)
    return bool(s and t and q) and all(
        6 * t * pj == s * (t + 3 * cj) and 12 * q * pj == s * (15 * xj - q) for pj, cj, xj in zip(p, c, x))


def _e2_positive(c0, c1, c2, buf):
    """Elementwise ``c0*c1 + c2*(c0 + c1) > 0`` (that is, ``e2 > 0``) by ``core.limb_sign``, with
    c0 + c1 and the limbs in nine rows of the caller's scratch ``buf``: exact on ``object`` arrays
    and on ``int64`` arrays with every |c_j| < 2**59, so that |c0 + c1| < 2**60."""
    import numpy as np

    return limb_sign(c0, c1, c2, np.add(c0, c1, out=buf[0, :len(c0)]), buf[1:]) > 0


def _first_offender(rows, buf) -> Optional[int]:
    """Index of the first row of block ``rows`` (``core.subtree_levels``) failing a ``scan_bounds``
    test, or None; the totals, the e2 test and the six coordinate tests share ten rows of ``buf``."""
    import numpy as np

    (total, t), (c0, c1, c2) = buf[:2, :len(rows)], rows.T
    bad = ~_e2_positive(c0, c1, c2, buf[1:])
    np.add(np.add(c0, c1, out=total), c2, out=total)
    for cj in (c0, c1, c2):
        bad |= (np.add(total, np.multiply(cj, 3, out=t), out=t) <= 0) | (cj >= total)
    return int(bad.argmax()) if bad.any() else None


def scan_bounds(max_level: int) -> Optional[str]:
    """Exhaustively verify the strict weight bounds up to a level.

    For every word of length <= max_level checks, in exact integer
    arithmetic on the scaled column sums (c_0, c_1, c_2) with total T:

    * 0 < b_j < 2/3          (as 0 < T + 3c_j and c_j < T),
    * sum (b_j - 1/3)^2 < 1/6  (as sum (3c_j - T)^2 < 6 T^2).

    In column-sum form the disk test and the column-sum cone test (the one
    that feeds the induction behind the bounds) coincide: sum (3c_j - T)^2
    == 6 T^2 - 18 e2 with e2 = c_0c_1 + c_1c_2 + c_0c_2, so both read
    e2 > 0, and it is evaluated once.  Each mass generator scales e2 by
    exactly 9 (M_j A M_j^T == 9 A for its matrix A), so every level-m row
    has e2 == 3 * 9^m; the tests are still evaluated on every word, which is
    what makes the scan a check.

    ``core.subtree_levels`` walks the rows as numpy level arrays of the dtype
    it proves before any work (``int64`` through max_level 15, as 13^15 <
    2**59, ``object`` beyond), so every answer is exact and no level is
    refused.  The call makes one ``core.scratch`` array at the root block,
    as wide as the widest block, and every block reuses it.

    Returns the lexicographically first offending word, or None when every
    word passes: the least of each block's first offender, which is the
    lexicographically first offender because a prefix sorts before its
    extensions.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    hits = []
    for depth, start, (rows,) in subtree_levels(((1, 1, 1),), max_level + 1, MASS_SCALED):
        if not depth:  # the root block: the call's one scratch
            buf = scratch(10, max_level + 1, 1, rows.dtype)
        i = _first_offender(rows, buf)
        if i is not None:
            hits.append(lex_word(start + i, depth))
    return min(hits, default=None)
