"""Unit-sum weight triples that average derivatives over a cell.

For every cell, the cell average of the derivative of a measure against the
Kusuoka measure equals a weighted average of the derivative's values at the
cell's three corners.  The weight triple depends only on the cell word and
is computable by three independent exact routes:

* column sums of the mass word product (``b_from_mass``),
* a one-letter rational recursion on the triple itself (``b_step``),
* Kusuoka mass ratios of the three child cells (``b_from_kusuoka``).

Route agreement is one of this package's strongest end-to-end checks.  The
triples live in a disk of squared radius 1/6 around the barycenter; the
bounds are strict at every finite word and sharp only in the limit, which
``scan_bounds`` verifies wholesale with integer arithmetic.
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
    lex_word,
    row_children,
    row_walk,
)
from .measures import KUSUOKA, MeasureCoeffs, children_triple_via_refine, measure_of_cell
from .derivatives import rn_derivative

#: A weight triple: three rationals summing to one.
BVector = Vec3

_THIRD = Fraction(1, 3)
_CENTER: BVector = (_THIRD, _THIRD, _THIRD)


def b_from_mass(word: str) -> BVector:
    """Weight triple of a cell from the column sums of its mass product.

    Weight j is 1/6 plus half the j-th column's share of the total entry
    sum.  The empty word gives the barycenter (1/3, 1/3, 1/3).  The column
    sums are the row (1, 1, 1) walked along the word by the integer kernel;
    the share is scale-free, so the scale is never formed.
    """
    check_word(word)
    cols = row_walk((1, 1, 1), word)
    total = cols[0] + cols[1] + cols[2]
    return tuple(Fraction(1, 6) + Fraction(col, 2 * total) for col in cols)  # type: ignore[return-value]


def b_step(b: BVector, j: int) -> BVector:
    """Weight triple of the j-th child cell from the parent's triple.

    Accepts any exact unit-sum triple.  The denominator is 12*b_j + 1, which
    never vanishes on the closed disk of valid triples; a triple far enough
    outside it raises.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"letter must be 0, 1 or 2, got {j!r}")
    if b[0] + b[1] + b[2] != 1:
        raise ValueError("b_step needs a unit-sum triple")
    k, l = (j + 1) % 3, (j + 2) % 3
    den = 12 * b[j] + 1
    if den == 0:
        raise ValueError("degenerate denominator: triple lies outside the weight disk")
    out = [Fraction(0)] * 3
    out[j] = 9 * b[j] / den
    out[k] = (2 * b[j] + 2 * b[k] - b[l]) / den
    out[l] = (2 * b[j] - b[k] + 2 * b[l]) / den
    return tuple(out)  # type: ignore[return-value]


def b_from_word(word: str) -> BVector:
    """Iterate ``b_step`` along the word from the barycenter (second route)."""
    check_word(word)
    b = _CENTER
    for ch in word:
        b = b_step(b, int(ch))
    return b


def b_from_kusuoka(word: str) -> BVector:
    """Weight triple from Kusuoka mass ratios of the three child cells.

    Weight j measures how much of the cell's Kusuoka mass the j-th child
    holds, recentered and scaled so a uniform split gives the barycenter:
    b_j = 1/3 + (5/4)(ratio_j - 1/3).

    The child masses come from ``children_triple_via_refine``, the
    ``Fraction`` refine recursion, and the cell's own mass is their sum, so
    no word longer than ``word`` is formed.  This route shares no arithmetic
    with ``b_from_mass`` (the integer mass-generator kernel) nor with
    ``b_from_word`` (the one-letter recursion on the triple).
    """
    children = children_triple_via_refine(KUSUOKA, word)
    parent = children[0] + children[1] + children[2]
    return tuple(  # type: ignore[return-value]
        _THIRD + Fraction(5, 4) * (x / parent - _THIRD) for x in children
    )


def weighted_average_gap(c: MeasureCoeffs, word: str) -> Fraction:
    """Cell average of the derivative minus its corner weighted average.

    Identically zero: the weight triple is exactly the averaging kernel for
    derivatives of any (signed) measure in the coefficient space.
    """
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
    """All level-m (word, weight triple) pairs in lexicographic word order.

    Exact; computed by recursion along the enumeration tree, so each step is
    a handful of small-denominator operations.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative")

    def walk(word: str, b: BVector) -> Iterator[tuple[str, BVector]]:
        if len(word) == m:
            yield word, b
            return
        for j in (0, 1, 2):
            yield from walk(word + str(j), b_step(b, j))

    yield from walk("", _CENTER)


#: Levels ``scan_bounds`` expands breadth-first, one ``row_children`` call
#: per level, before it moves depth-first to the next block root; memory
#: stays bounded by one block of at most 3**BOUNDS_BLOCK_LEVELS rows a level.
BOUNDS_BLOCK_LEVELS = 5


def _first_offender(rows: list[IntRow]) -> Optional[int]:
    """Index of the first column-sum row failing a ``scan_bounds`` test."""
    for i, (c0, c1, c2) in enumerate(rows):
        total = c0 + c1 + c2
        if (total + 3 * c0 <= 0 or c0 >= total
                or total + 3 * c1 <= 0 or c1 >= total
                or total + 3 * c2 <= 0 or c2 >= total):
            return i
        e2 = c0 * c1 + c1 * c2 + c0 * c2
        # the disk test from e2: sum (3c_j - T)^2 == 6 T^2 - 18 e2
        if 6 * total * total - 18 * e2 >= 6 * total * total or e2 <= 0:
            return i
    return None


def scan_bounds(max_level: int) -> Optional[str]:
    """Exhaustively verify the strict weight bounds up to a level.

    For every word of length <= max_level checks, in pure integer
    arithmetic on the scaled column sums (c_0, c_1, c_2) with total T:

    * 0 < b_j < 2/3          (as 0 < T + 3c_j and c_j < T),
    * sum (b_j - 1/3)^2 < 1/6  (as sum (3c_j - T)^2 < 6 T^2, evaluated as
      6 T^2 - 18 e2 with e2 = c_0c_1 + c_1c_2 + c_0c_2),
    * e2 > 0  (the column-sum cone that feeds the induction behind the
      first two).

    Each mass generator scales the form e2 by exactly 9 (M_j A M_j^T == 9 A
    for its matrix A), so every level-m row has e2 == 3 * 9^m; the tests
    are still evaluated on every word, which is what makes the scan a check.

    Returns the lexicographically first offending word (a prefix sorts
    before its extensions; nothing below an offender is visited), or None
    when every word passes.  Levels are expanded in blocks of
    ``BOUNDS_BLOCK_LEVELS``; inside a block an offender cuts off every row
    after it, so deeper blocks are entered only under smaller words, and a
    deeper offender replaces a shallower one only because it sorts first.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")

    def block(root: str, row: IntRow, levels: int) -> Optional[str]:
        # the first block takes the remainder, so every deeper one is full
        span = (levels - 1) % BOUNDS_BLOCK_LEVELS + 1
        first: Optional[str] = None
        rows = [row]
        for t in range(span):
            i = _first_offender(rows)
            if i is not None:
                # later rows on this level, and everything below the
                # offender, sort after it
                first, rows = root + lex_word(i, t), rows[:i]
            if t + 1 < levels:
                rows = row_children(rows, MASS_SCALED)
        if levels > span:
            for i, r in enumerate(rows):
                hit = block(root + lex_word(i, span), r, levels - span)
                if hit is not None:
                    return hit
        return first

    return block("", (1, 1, 1), max_level + 1)
