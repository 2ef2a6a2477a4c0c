"""Exact scalars, 3-vectors, 3x3 matrices, and cell/vertex addressing.

Everything downstream (harmonic extension, measures, derivatives, b-vectors)
is built from two families of 3x3 rational matrices indexed by the letters
{0,1,2}:

* the *mass* family, which pushes the triple of basis-measure masses of a
  cell down to a subcell (``measure of subcell = row of product applied to
  level-1 masses``), and
* the *refine* family, which maps the triple of child-cell masses of a cell
  to the child-cell masses one level deeper inside it.

The refine generators are never typed in from a hand-multiplied table: they
are assembled at import time as the exact product ``P_i . D . Q_i`` of their
diagonalizing factors (eigenvalues 1/15, 3/5, 1/5) and then frozen.

All values are immutable (tuples of ``fractions.Fraction``), so they are safe
to share across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]
Mat3 = tuple[Vec3, Vec3, Vec3]

LETTERS = "012"
#: Hard cap on address-word length; exact numerators grow linearly in digits
#: with the word length, and 64 letters exceeds any realistic request.
WORD_MAX_LEN = 64


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or ``"p"``) into an exact rational.

    Raises ``ValueError`` on anything the exact-number grammar does not
    cover.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Render as ``p/q`` reduced, or plain ``p`` when the denominator is 1."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# vectors and matrices (plain tuples; row-major)
# ---------------------------------------------------------------------------

def mat3(rows: Iterable[Iterable]) -> Mat3:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != 3 or any(len(row) != 3 for row in out):
        raise ValueError("a 3x3 matrix needs exactly nine entries")
    return out  # type: ignore[return-value]


MAT_IDENTITY: Mat3 = mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def vec_dot(u: Vec3, v: Vec3) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def vec_sum(u: Vec3) -> Fraction:
    return u[0] + u[1] + u[2]


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    return (vec_dot(m[0], v), vec_dot(m[1], v), vec_dot(m[2], v))


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    """Matrix product; exact on ``Fraction`` and on plain ``int`` entries."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def mat_scale(s, m: Mat3) -> Mat3:
    s = Fraction(s)
    return tuple(tuple(s * x for x in row) for row in m)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------

def _over(den: int, rows) -> Mat3:
    return mat3(tuple(tuple(Fraction(x, den) for x in row) for row in rows))


#: Mass generators: row j of the word product, applied to the level-1 mass
#: triple, gives the mass of child j of the addressed cell.
MASS_GENERATORS: tuple[Mat3, Mat3, Mat3] = (
    _over(15, ((9, 0, 0), (2, 2, -1), (2, -1, 2))),
    _over(15, ((2, 2, -1), (0, 9, 0), (-1, 2, 2))),
    _over(15, ((2, -1, 2), (-1, 2, 2), (0, 0, 9))),
)

_REFINE_DIAG: Mat3 = mat3(
    ((Fraction(1, 15), 0, 0), (0, Fraction(3, 5), 0), (0, 0, Fraction(1, 5)))
)

_REFINE_COLS: tuple[Mat3, ...] = (
    mat3(((Fraction(1, 7), 3, 0), (1, 1, -1), (1, 1, 1))),
    mat3(((1, 1, -1), (Fraction(1, 7), 3, 0), (1, 1, 1))),
    mat3(((1, 1, -1), (1, 1, 1), (Fraction(1, 7), 3, 0))),
)

_REFINE_ROWS: tuple[Mat3, ...] = (
    mat3((
        (Fraction(-7, 20), Fraction(21, 40), Fraction(21, 40)),
        (Fraction(7, 20), Fraction(-1, 40), Fraction(-1, 40)),
        (0, Fraction(-1, 2), Fraction(1, 2)),
    )),
    mat3((
        (Fraction(21, 40), Fraction(-7, 20), Fraction(21, 40)),
        (Fraction(-1, 40), Fraction(7, 20), Fraction(-1, 40)),
        (Fraction(-1, 2), 0, Fraction(1, 2)),
    )),
    mat3((
        (Fraction(21, 40), Fraction(21, 40), Fraction(-7, 20)),
        (Fraction(-1, 40), Fraction(-1, 40), Fraction(7, 20)),
        (Fraction(-1, 2), Fraction(1, 2), 0),
    )),
)

#: Refine generators, assembled exactly from their diagonalizing factors.
#: Generator i maps the child-mass triple of a cell C to the child-mass
#: triple of the sub-cell obtained by applying map i *inside* C; composing a
#: word therefore multiplies generators in application order (last letter of
#: the address acts first -- see measures.children_triple_via_refine).
REFINE_GENERATORS: tuple[Mat3, Mat3, Mat3] = tuple(
    mat_mul(mat_mul(_REFINE_COLS[i], _REFINE_DIAG), _REFINE_ROWS[i])
    for i in range(3)
)  # type: ignore[assignment]


def _int_scaled(m: Mat3, den: int) -> tuple[tuple[int, int, int], ...]:
    rows = []
    for row in m:
        irow = []
        for x in row:
            scaled = x * den
            if scaled.denominator != 1:
                raise RuntimeError(f"entry {x} is not a multiple of 1/{den}")
            irow.append(int(scaled))
        rows.append(tuple(irow))
    return tuple(rows)


#: Integer renormalizations used by hot enumeration loops: the true matrix is
#: the integer matrix divided by the family denominator, once per letter.
MASS_DEN = 15
REFINE_DEN = 75
MASS_SCALED = tuple(_int_scaled(m, MASS_DEN) for m in MASS_GENERATORS)
REFINE_SCALED = tuple(_int_scaled(m, REFINE_DEN) for m in REFINE_GENERATORS)


# ---------------------------------------------------------------------------
# integer row kernel
# ---------------------------------------------------------------------------
#
# Every exact hot path carries an integer row ``r`` and a known scale ``s``
# (the true row is ``r / s``) and steps it by one scaled generator per
# letter; the scale picks up the family denominator once per letter.  A
# single ``Fraction`` is built from the final row, so no gcd is taken along
# the way.

IntRow = tuple[int, int, int]
IntMat = tuple[IntRow, IntRow, IntRow]


def int_row(v: Vec3) -> tuple[IntRow, int]:
    """Integer numerators of a rational triple over their least common
    denominator: ``(row, den)`` with ``v == row / den``."""
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den  # type: ignore[return-value]


def row_step(row: IntRow, g: IntMat) -> IntRow:
    """One letter: the row vector times a scaled generator, ``row . g``."""
    r0, r1, r2 = row
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g
    return (
        r0 * g00 + r1 * g10 + r2 * g20,
        r0 * g01 + r1 * g11 + r2 * g21,
        r0 * g02 + r1 * g12 + r2 * g22,
    )


def row_walk(row: IntRow, word: str, gens: Iterable[IntMat] = MASS_SCALED) -> IntRow:
    """``row_step`` along every letter of ``word``, first letter first."""
    gens = tuple(gens)
    for ch in word:
        row = row_step(row, gens[int(ch)])
    return row


def lex_word(index: int, length: int) -> str:
    """The word at ``index`` among all ``length``-letter words in
    lexicographic order: the base-3 digits of ``index``."""
    letters = []
    for _ in range(length):
        index, d = divmod(index, 3)
        letters.append(LETTERS[d])
    return "".join(reversed(letters))


def row_children(rows: Iterable[IntRow], gens: Iterable[IntMat] = MASS_SCALED) -> list[IntRow]:
    """Every row stepped by every generator, row-major: child ``3*i + j`` of
    a full family is row ``i`` stepped by letter ``j``.

    For rows listed in lexicographic word order the children come out in
    lexicographic word order too, so a whole tree level is one call.
    ``gens`` may be any subfamily (the two letters of an edge, say); the
    children then follow the order of ``gens``.
    """
    cols = [tuple(g[i][j] for j in range(3) for i in range(3)) for g in gens]
    return [
        (r0 * a + r1 * b + r2 * c, r0 * d + r1 * e + r2 * f, r0 * g + r1 * h + r2 * i)
        for r0, r1, r2 in rows
        for a, b, c, d, e, f, g, h, i in cols
    ]


#: Levels per block of ``subtree_levels``; memory stays bounded by one block,
#: at most 3**BLOCK_LEVELS rows per level and family, whatever the depth.
BLOCK_LEVELS = 5


def subtree_levels(word: str, rows: Sequence[IntRow], levels: int,
                   gens: Sequence[IntMat] = MASS_SCALED) -> Iterator[tuple[str, int, list]]:
    """Block walk over the cells ``word + u`` with ``len(u) < levels``.

    Yields ``(root, t, level)`` where ``level[f][i]`` is ``rows[f]`` walked
    to the cell ``root + lex_word(i, t)``; each cell appears exactly once.
    Blocks of ``BLOCK_LEVELS`` levels are expanded breadth-first, one
    ``row_children`` call per level and family, and visited depth-first in
    lexicographic order of their roots; the first block takes the remainder,
    so every deeper block is full.  ``levels < 1`` yields nothing.
    """
    stack = [(word, tuple(rows), levels)] if levels >= 1 else []
    while stack:
        root, tops, left = stack.pop()
        span = (left - 1) % BLOCK_LEVELS + 1
        level = [[r] for r in tops]
        for t in range(span):
            yield root, t, level
            if t + 1 < left:
                level = [row_children(fam, gens) for fam in level]
        if left > span:
            for i in reversed(range(len(level[0]))):
                stack.append((root + lex_word(i, span), tuple(fam[i] for fam in level), left - span))


_FAMILIES: Mapping[str, tuple[Mat3, Mat3, Mat3]] = {
    "mass": MASS_GENERATORS,
    "refine": REFINE_GENERATORS,
}


def check_word(word: str) -> str:
    """Validate an address word: characters in '012', length at most 64."""
    if not isinstance(word, str):
        raise ValueError(f"word must be a string, got {type(word).__name__}")
    if len(word) > WORD_MAX_LEN:
        raise ValueError(f"word length {len(word)} exceeds the cap {WORD_MAX_LEN}")
    for ch in word:
        if ch not in LETTERS:
            raise ValueError(f"invalid letter {ch!r} in word {word!r}")
    return word


def word_matrix(family: str, word: str) -> Mat3:
    """Left-to-right product of the family's generators along ``word``.

    The empty word gives the identity.  The product convention is purely
    algebraic (``word_matrix(f, u + v) == word_matrix(f, u) @ word_matrix(f, v)``);
    which end of the word acts first on cells is a question for the callers
    that attach geometric meaning to each family.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown matrix family {family!r} (use 'mass' or 'refine')")
    check_word(word)
    gens = _FAMILIES[family]
    out = MAT_IDENTITY
    for ch in word:
        out = mat_mul(out, gens[int(ch)])
    return out


# ---------------------------------------------------------------------------
# vertex addressing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class VertexAddress:
    """The point reached by applying ``word`` and then taking corner ``corner``.

    A junction point has two raw spellings (last letter and corner swapped);
    ``canonical()`` picks the spelling whose final letter is the smaller of
    the two, and collapses the degenerate corner-fixed-point spellings of the
    three outer vertices to the empty word.
    """

    word: str
    corner: int

    def __post_init__(self) -> None:
        check_word(self.word)
        if self.corner not in (0, 1, 2):
            raise ValueError(f"corner must be 0, 1 or 2, got {self.corner!r}")

    @property
    def level(self) -> int:
        return len(self.word)

    def canonical(self) -> "VertexAddress":
        word, corner = self.word, self.corner
        tail = str(corner)
        while word.endswith(tail):
            word = word[:-1]
        if word and int(word[-1]) > corner:
            word, corner = word[:-1] + tail, int(word[-1])
        if word == self.word and corner == self.corner:
            return self
        return VertexAddress(word, corner)

    def __str__(self) -> str:
        return f"{self.word}:{self.corner}"

    @classmethod
    def parse(cls, text: str) -> "VertexAddress":
        word, sep, corner = text.partition(":")
        if not sep or not corner.isdigit():
            raise ValueError(f"vertex address must look like '<word>:<corner>', got {text!r}")
        return cls(word, int(corner))


def all_vertices(level: int) -> set[VertexAddress]:
    """All distinct vertices of the level-``level`` graph, canonical forms."""
    out: set[VertexAddress] = set()
    words = [""]
    for _ in range(level):
        words = [w + ch for w in words for ch in LETTERS]
    for w in words:
        for c in (0, 1, 2):
            out.add(VertexAddress(w, c).canonical())
    return out
