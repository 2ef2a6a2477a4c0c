"""Harmonic functions on the gasket, represented by their boundary triple.

A harmonic function is determined by its values at the three outer corners;
its value at every other junction vertex follows from the one-level averaging
rule (each edge midpoint takes 2/5 of either endpoint value plus 1/5 of the
opposite corner value).  That makes the representation exact.  Extension
steps integer numerators over one common scale by its own one-letter step
(a level on ``core.walk_level``), shared with no other route, and builds one
``Fraction`` per output entry at the end.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import VERTEX_LEVEL_MAX, check_letter, check_range
from .core import IntRow, Vec3, VertexAddress, check_word, int_row, lex_word, vec_sum, walk_level


class Harmonic(NamedTuple):
    """Boundary values ``(h(q_0), h(q_1), h(q_2))``."""

    v0: Fraction
    v1: Fraction
    v2: Fraction

    @classmethod
    def of(cls, a, b, c) -> "Harmonic":
        return cls(Fraction(a), Fraction(b), Fraction(c))

    def is_constant(self) -> bool:
        return self.v0 == self.v1 == self.v2


#: The corner basis: BASIS[i] is 1 at corner i and 0 at the other two.
BASIS: tuple[Harmonic, Harmonic, Harmonic] = (
    Harmonic.of(1, 0, 0),
    Harmonic.of(0, 1, 0),
    Harmonic.of(0, 0, 1),
)


def _one_level_int(x: IntRow, letter: int) -> IntRow:
    """One letter of the extension on integer numerators: with boundary
    values x / s, the child's are the returned row over 5 s."""
    x0, x1, x2 = x
    m01, m02, m12 = 2 * (x0 + x1) + x2, 2 * (x0 + x2) + x1, 2 * (x1 + x2) + x0
    if letter == 0:
        return (5 * x0, m01, m02)
    if letter == 1:
        return (m01, 5 * x1, m12)
    return (m02, m12, 5 * x2)


def _cell_row(h: Harmonic, word: str) -> tuple[IntRow, int]:
    """``(x, s)`` with ``extend_to_cell(h, word) == x / s``."""
    check_word(word)
    x, den = int_row(h)
    for ch in word:
        x = _one_level_int(x, int(ch))
    return x, den * 5 ** len(word)


def extend_to_cell(h: Harmonic, word: str) -> Harmonic:
    """Boundary values of ``h`` composed with the maps named by ``word``.

    Letters apply left to right: the first letter picks the child of the
    whole gasket, each later letter descends one more level.
    """
    x, s = _cell_row(h, word)
    return Harmonic(Fraction(x[0], s), Fraction(x[1], s), Fraction(x[2], s))


def level0_energy(h: Harmonic) -> Fraction:
    return energy_inner(h, h)


def energy_inner(u: Harmonic, v: Harmonic) -> Fraction:
    """Bilinear energy pairing: sum over corner pairs of difference products.

    For harmonic inputs the level-m graph sums are all equal to this level-0
    value, so no refinement is needed.
    """
    return (
        (u[0] - u[1]) * (v[0] - v[1])
        + (u[1] - u[2]) * (v[1] - v[2])
        + (u[0] - u[2]) * (v[0] - v[2])
    )


def graph_energy(values: Mapping[VertexAddress, Fraction], m: int) -> Fraction:
    """Level-``m`` graph energy of an arbitrary vertex assignment.

    ``values`` must cover every vertex of the level-m graph (keys may use any
    address representation; they are canonicalized).  Raises ``ValueError``
    when an assignment is missing.  The sum runs on integer numerators over
    the least common denominator of the values.
    """
    check_range("level", m, 0, VERTEX_LEVEL_MAX)
    nums, den = int_row([Fraction(v) for v in values.values()])
    table = dict(zip((k.canonical() for k in values), nums))

    def lookup(word: str, corner: int) -> int:
        key = VertexAddress(word, corner).canonical()
        try:
            return table[key]
        except KeyError:
            raise ValueError(f"incomplete vertex assignment: missing value at {key}") from None

    total = 0
    for w in (lex_word(i, m) for i in range(3 ** m)):
        a, b, c = lookup(w, 0), lookup(w, 1), lookup(w, 2)
        total += (a - b) ** 2 + (b - c) ** 2 + (a - c) ** 2
    return Fraction(5 ** m * total, 3 ** m * den * den)


def harmonic_vertex_values(h: Harmonic, m: int) -> dict[VertexAddress, Fraction]:
    """The level-``m`` vertex assignment induced by a harmonic function."""
    check_range("level", m, 0, VERTEX_LEVEL_MAX)
    row, den = int_row(h)
    scale = den * 5 ** m
    return {VertexAddress(word, corner).canonical(): Fraction(x[corner], scale)
            for word, x in walk_level(m, row, _one_level_int) for corner in (0, 1, 2)}


def cell_energy(h: Harmonic, word: str) -> Fraction:
    """Energy of ``h`` localized to the addressed cell.

    Equals the mass that the energy measure of ``h`` assigns to the cell:
    the level-0 energy of the restricted boundary triple, scaled up by the
    conductance factor (5/3) per level.
    """
    (x0, x1, x2), s = _cell_row(h, word)
    energy = (x0 - x1) ** 2 + (x1 - x2) ** 2 + (x0 - x2) ** 2
    return Fraction(energy * 5 ** len(word), s * s * 3 ** len(word))


# ---------------------------------------------------------------------------
# energy-measure coefficients
# ---------------------------------------------------------------------------

def measure_coeffs(u: Harmonic, v: Harmonic) -> Vec3:
    """Coefficients of the (possibly signed) energy measure of ``u`` and ``v``
    in the basis of the three corner measures.

    Expands bilinearly; the cross term of two distinct corner functions is
    half of (third corner measure minus the two own measures).  With
    u = p / D_u and v = q / D_v, entry i is the integer form
    2 p_i q_i - p_i (q_j + q_k) - q_i (p_j + p_k) + p_j q_k + p_k q_j
    over 2 D_u D_v.
    """
    (p, du), (q, dv) = int_row(u), int_row(v)
    return tuple(Fraction(2 * p[i] * q[i] - p[i] * (q[j] + q[k]) - q[i] * (p[j] + p[k])
                          + p[j] * q[k] + p[k] * q[j], 2 * du * dv)
                 for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# symmetry classification
# ---------------------------------------------------------------------------

class SymmetryKind(Enum):
    CONSTANT = "constant"
    SYMMETRIC = "symmetric-about"
    SKEW = "skew-symmetric-about"
    NONE = "none"


class SymmetryClass(NamedTuple):
    kind: SymmetryKind
    axis: int | None = None

    def __str__(self) -> str:
        if self.axis is None:
            return self.kind.value
        return f"{self.kind.value}({self.axis})"


def satisfies_skew_condition(b: Harmonic, axis: int) -> bool:
    """True when the value at ``axis`` is the average of the other two.

    Constants satisfy this for every axis (they also satisfy the mirror
    condition, which is why they get their own classification).
    """
    check_letter("axis", axis)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    return 2 * b[axis] == b[j] + b[k]


def classify_symmetry(h: Harmonic, word: str = "") -> SymmetryClass:
    """Classify the boundary triple of ``h`` restricted to a cell.

    A nonconstant triple fits at most one of the mirror / skew conditions
    (any two of them force all three values equal), so the answer is a single
    tag.
    """
    b = extend_to_cell(h, word)
    if b.is_constant():
        return SymmetryClass(SymmetryKind.CONSTANT)
    for axis in range(3):
        j, k = (axis + 1) % 3, (axis + 2) % 3
        if b[j] == b[k]:
            return SymmetryClass(SymmetryKind.SYMMETRIC, axis)
    for axis in range(3):
        if satisfies_skew_condition(b, axis):
            return SymmetryClass(SymmetryKind.SKEW, axis)
    return SymmetryClass(SymmetryKind.NONE)


def total_energy_identity(u: Harmonic, v: Harmonic) -> bool:
    """Whole-gasket mass of the pair measure matches the energy pairing."""
    return 2 * vec_sum(measure_coeffs(u, v)) == energy_inner(u, v)
