"""Signed measures spanned by the three corner energy measures.

A measure is a coefficient triple ``(a0, a1, a2)`` against the corner basis;
the uniform triple ``(1, 1, 1)`` is the Kusuoka measure.  Exact cell masses
come from two independent recursions:

* the *mass route*: the word product of the mass generators applied to the
  level-1 mass triple ``(2, 2, 2)``;
* the *refine route*: starting from the level-1 child triple, each appended
  letter left-multiplies by the corresponding refine generator (the newest
  letter acts first on cells, so the transport matrix of a whole word is the
  product taken over the word reversed).

Both are exposed; tests and the verify suite insist they agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import NEGATIVE_DEPTH_MAX, check_letter, check_range
from .core import (
    MASS_DEN,
    MASS_SCALED,
    REFINE_DEN,
    REFINE_SCALED,
    IntRow,
    Vec3,
    check_word,
    format_rational,
    int_row,
    lex_word,
    parse_rational,
    row_step,
    row_walk,
    vec_sum,
)

MeasureCoeffs = Vec3
CellTriple = Vec3

#: Coefficients of the Kusuoka measure (total mass 6).
KUSUOKA: MeasureCoeffs = (Fraction(1), Fraction(1), Fraction(1))

#: The corner measures themselves: BASIS_COEFFS[i] is 1 at i and 0 elsewhere.
BASIS_COEFFS: tuple[MeasureCoeffs, ...] = tuple(
    tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3)  # type: ignore[misc]
)


def parse_coeffs(text: str) -> MeasureCoeffs:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"coefficient text form needs three comma-separated values, got {text!r}")
    return tuple(parse_rational(p) for p in parts)  # type: ignore[return-value]


def format_coeffs(c: MeasureCoeffs) -> str:
    return ",".join(format_rational(x) for x in c)


def total_mass(c: MeasureCoeffs) -> Fraction:
    """Whole-gasket mass: each basis measure has total mass 2."""
    return 2 * vec_sum(c)


# ---------------------------------------------------------------------------
# cell evaluation
# ---------------------------------------------------------------------------

def subtree_row(c: MeasureCoeffs, word: str) -> tuple[IntRow, int]:
    """Coefficients describing the measure inside the addressed cell, as an
    integer row and its scale: the triple ``r = row / scale`` with
    ``r . basis_masses(u) = measure_of_cell(c, word + u)`` for every suffix
    ``u`` -- i.e. the transpose word product applied to ``c``."""
    check_word(word)
    row, den = int_row(c)
    return row_walk(row, word), den * MASS_DEN ** len(word)


def basis_masses(word: str) -> Vec3:
    """Masses the three corner measures give to the addressed cell."""
    return tuple(measure_of_cell(e, word) for e in BASIS_COEFFS)  # type: ignore[return-value]


def measure_of_cell(c: MeasureCoeffs, word: str) -> Fraction:
    """Mass of the addressed cell: twice the sum of its subtree coefficients
    (every basis measure gives the whole gasket mass 2)."""
    row, scale = subtree_row(c, word)
    return Fraction(2 * sum(row), scale)


def children_triple(c: MeasureCoeffs, word: str) -> CellTriple:
    """Masses of the three children of the addressed cell (mass route)."""
    row, scale = subtree_row(c, word)
    s = sum(row)
    return tuple(Fraction(2 * (s + 2 * x), 5 * scale) for x in row)  # type: ignore[return-value]


def children_triple_via_refine(c: MeasureCoeffs, word: str) -> CellTriple:
    """Same triple by the refine recursion -- the cross-check route."""
    x, scale = children_row_via_refine(c, word)
    return tuple(Fraction(v, scale) for v in x)  # type: ignore[return-value]


def children_row_via_refine(c: MeasureCoeffs, word: str) -> tuple[IntRow, int]:
    """The refine recursion on integer numerators: ``(row, scale)`` with
    ``children_triple_via_refine(c, word) == row / scale``.

    Appending a letter to the cell word left-multiplies the triple by that
    letter's refine generator, so letters are folded in reading order with
    the scaled generator acting on the left (a column step, unlike the row
    steps of the mass walk) and the scale picks up ``REFINE_DEN`` per letter.
    """
    check_word(word)
    x, scale = int_row(level1_from_coeffs(c))
    for ch in word:
        x = _refine_step(x, int(ch))
    return x, scale * REFINE_DEN ** len(word)


def _refine_step(x: IntRow, j: int) -> IntRow:
    """One letter of the refine recursion: letter j's scaled refine generator
    times the column ``x``, unchecked, for loops whose letters come from checked words."""
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = REFINE_SCALED[j]
    x0, x1, x2 = x
    return (
        g00 * x0 + g01 * x1 + g02 * x2,
        g10 * x0 + g11 * x1 + g12 * x2,
        g20 * x0 + g21 * x1 + g22 * x2,
    )


def level1_from_coeffs(c: MeasureCoeffs) -> CellTriple:
    """Child masses of the whole gasket for coefficient triple ``c``."""
    s = vec_sum(c)
    return (
        Fraction(2, 5) * (s + 2 * c[0]),
        Fraction(2, 5) * (s + 2 * c[1]),
        Fraction(2, 5) * (s + 2 * c[2]),
    )


def selfsim_identity_gap(word: str, letter: int) -> Fraction:
    """Defect of the variable-weight self-similar identity; always 0.

    Compares the Kusuoka mass of the cell reached by applying map ``letter``
    *outside* the addressed cell against the weighted combination of the
    Kusuoka and corner masses of the cell itself.
    """
    check_letter("letter", letter)
    check_word(word)
    lhs = measure_of_cell(KUSUOKA, str(letter) + word)
    masses = basis_masses(word)
    rhs = Fraction(1, 15) * vec_sum(masses) + Fraction(12, 15) * masses[letter]
    return lhs - rhs


# ---------------------------------------------------------------------------
# positivity cone
# ---------------------------------------------------------------------------

def cone_value(c: MeasureCoeffs) -> Fraction:
    """The quadratic ``a0*a1 + a1*a2 + a0*a2`` whose sign decides positivity."""
    return c[0] * c[1] + c[1] * c[2] + c[0] * c[2]


def is_positive(c: MeasureCoeffs) -> bool:
    """Exact membership in the positive-measure cone.

    The quadratic ``cone_value >= 0`` carves out a double cone; the positive
    measures form the nappe with nonnegative coefficient sum (the other nappe
    is its negation).
    """
    return cone_value(c) >= 0 and vec_sum(c) >= 0


def find_negative_cell(c: MeasureCoeffs, max_depth: int = 10) -> Optional[str]:
    """Shortest (then lexicographically first) cell word with negative mass.

    Returns ``None`` when every cell down to ``max_depth`` has nonnegative mass
    and raises ``ValueError`` for ``max_depth`` outside 0..``NEGATIVE_DEPTH_MAX``.
    The cone is tested once, at the root: each scaled mass generator multiplies
    ``cone_value`` by 9 (M_j A M_j^T == 9 A), so every cell shares its sign and
    a positive measure has no negative cell.  Else each level is walked as bare
    ``subtree_row`` rows with their word indices, and ``lex_word`` spells only
    the first negative one.

    The walk prunes: a child with row r, s = sum r_i (>= 0, or the walk would
    have returned) and 3 sum r_i^2 - s^2 >= -6 e2 9^``max_depth``, e2 the root
    row's ``cone_value``, is not expanded, as no cell below it down to
    ``max_depth`` is negative.  The proof: the mass of cell ``wu`` has the sign
    of r_w . b, with b = p / T, p = P_u 1 the ``bvectors._b_step_int`` walk of
    u reversed from (1, 1, 1) (each step is p -> M_j p) and T = sum p.  As
    M_j^T (J - 2I) M_j = 9 (J - 2I), J the all-ones matrix, 1 - 6 rho^2 =
    9^(|u| + 1) / T^2 with rho = |b - (1/3, 1/3, 1/3)|, and T' = T + 12 p_j < 9T
    (as b_j < 2/3) gives T <= 3 9^|u|, so every weight at most k levels down
    has rho^2 <= (1 - 9^-k) / 6.  Over that disk the least r . b is
    s/3 - sqrt(Q (1 - 9^-k) / 6), Q = sum (r_i - s/3)^2.  As s^2/9 - Q/6 =
    e2(r)/3 and e2(r_w) = 9^|w| e2, it is >= 0 iff 3Q = 3 sum r_i^2 - s^2 >=
    -6 e2 9^(|w| + k), and k = ``max_depth`` - |w| reaches ``max_depth``.
    """
    check_range("max_depth", max_depth, 0, NEGATIVE_DEPTH_MAX)
    level = [(0, row := int_row(c)[0])]
    if sum(row) < 0:
        return ""
    if (e2 := cone_value(row)) >= 0:
        return None
    floor = -6 * e2 * 9**max_depth
    for depth in range(1, max_depth + 1):
        below = []
        for i, row in level:
            for j, g in enumerate(MASS_SCALED, 3 * i):
                r = row_step(row, g)
                s = r[0] + r[1] + r[2]
                if s < 0:
                    return lex_word(j, depth)
                if 3 * (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]) - s * s < floor:
                    below.append((j, r))
        level = below
    return None


# ---------------------------------------------------------------------------
# constructive decomposition into an orthogonal positive pair
# ---------------------------------------------------------------------------

def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def decompose_positive(c: MeasureCoeffs):
    """Write a positive measure as a convex combination of two boundary ones.

    Returns ``(t, p, q)`` with ``p`` and ``q`` exactly on the cone boundary,
    ``p + q`` a nonnegative multiple of the uniform triple (an orthogonal
    pair), and ``c = t*p + (1-t)*q``.  The construction intersects the line
    ``c + s*(1,1,1)`` with the cone boundary by solving
    ``3s^2 + 2(sum)s + (pair sum) = 0``; when the discriminant is a rational
    square everything stays exact, otherwise entries are floats accurate to
    well below 1e-12.
    """
    if not is_positive(c):
        raise ValueError(f"decompose_positive needs a positive measure, got {format_coeffs(c)}")
    sigma1 = vec_sum(c)
    sigma2 = cone_value(c)

    if sigma2 == 0:
        # already a single-harmonic (boundary) measure: keep it whole and
        # pair it with its orthogonal partner, which contributes nothing.
        scale = 2 * sigma1 / 3
        q = (scale - c[0], scale - c[1], scale - c[2])
        return Fraction(1), c, q

    if c[0] == c[1] == c[2]:
        kappa = c[0]
        p = (3 * kappa, Fraction(0), Fraction(0))
        q = (-kappa, 2 * kappa, 2 * kappa)
        return Fraction(1, 2), p, q

    disc = sigma1 * sigma1 - 3 * sigma2  # > 0 here (equality iff uniform)
    root = _rational_sqrt(disc)
    if root is None:
        # then each step below is the float operation on the rounded operands
        root = math.sqrt(disc)
    s_minus = (-sigma1 - root) / 3
    s_plus = (-sigma1 + root) / 3
    scale = sigma1 / root
    p = tuple(scale * (-(ci + s_minus)) for ci in c)
    q = tuple(scale * (ci + s_plus) for ci in c)
    t = (sigma1 - root) / (2 * sigma1)
    return t, p, q
