"""Exact scalars and matrices, the integer row kernel, the tree and block
walks and cell/vertex addressing.

Everything downstream (harmonic extension, measures, derivatives, b-vectors)
is built from two families of 3x3 rational matrices indexed by the letters
{0,1,2}: the *mass* family pushes the triple of basis-measure masses of a
cell down to a subcell, and the *refine* family maps the child-cell masses
of a cell to the child-cell masses one level deeper inside it.  The refine
generators are assembled at import time as the exact product ``P_i . D . Q_i``
of their diagonalizing factors (eigenvalues 1/15, 3/5, 1/5), never typed in
from a hand-multiplied table.

* Scalars, 3-vectors and 3x3 matrices are tuples of ``Fraction``s;
  ``word_matrix`` multiplies a family's generators along a word.
* The integer row kernel (``int_row``, ``row_step``, ``row_walk``) carries
  tuples of ints over a known scale, stepped by the families scaled to
  integers (``MASS_SCALED``, ``REFINE_SCALED``), so a hot path builds one
  ``Fraction`` at its end.  ``row_walk`` steps ``STRIDE`` letters at a time
  by a ``stride_table`` product; the tree walk ``walk_level`` runs any step.
* The block walk ``subtree_levels`` steps runs of subcells as numpy arrays
  of the dtype ``array_dtype`` proves, and ``limb_sign`` compares values on
  them exactly; numpy is imported only when these run.
* Addressing: ``check_word``, ``lex_word``, ``VertexAddress``.

Tuples are immutable, so they are safe to share across threads and processes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    """Parse ``"p/q"`` or ``"p"`` (an optional sign, decimal digits), the
    forms ``format_rational`` prints.  Unlike ``Fraction`` it takes no
    decimal, underscore or exponent (``1e200000000`` asks for unbounded
    work); a zero denominator or more digits than ``int`` reads is refused.
    """
    s = text.strip()
    if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational literal p/q or p: {text!r}")


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

#: Factors ``P_i = REFINE_COLS[i]``, ``D`` and ``Q_i = REFINE_ROWS[i] = P_i^-1`` of refine generator
#: i: column 1 of ``P_i`` and row 1 of ``Q_i`` are its right and left 3/5-eigenvectors.
REFINE_DIAG: Mat3 = mat3(
    ((Fraction(1, 15), 0, 0), (0, Fraction(3, 5), 0), (0, 0, Fraction(1, 5)))
)

REFINE_COLS: tuple[Mat3, ...] = (
    mat3(((Fraction(1, 7), 3, 0), (1, 1, -1), (1, 1, 1))),
    mat3(((1, 1, -1), (Fraction(1, 7), 3, 0), (1, 1, 1))),
    mat3(((1, 1, -1), (1, 1, 1), (Fraction(1, 7), 3, 0))),
)

REFINE_ROWS: tuple[Mat3, ...] = (
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
    mat_mul(mat_mul(REFINE_COLS[i], REFINE_DIAG), REFINE_ROWS[i])
    for i in range(3)
)  # type: ignore[assignment]


def _int_scaled(m: Mat3, den: int) -> tuple[tuple[int, int, int], ...]:
    bad = [x for row in m for x in row if (x * den).denominator != 1]
    if bad:
        raise RuntimeError(f"entry {bad[0]} is not a multiple of 1/{den}")
    return tuple(tuple(int(x * den) for x in row) for row in m)  # type: ignore[return-value]


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


#: Letters per ``stride_table`` product in ``row_walk``, read when it runs (README times k = 2..6).
STRIDE = 4


#: ``(gens, k, table)`` per table built, matched so that no lookup hashes a family's 27 entries.
_STRIDE_TABLES: list[tuple[tuple[IntMat, ...], int, dict[str, IntMat]]] = []


def stride_table(gens: tuple[IntMat, ...], k: int) -> dict[str, IntMat]:
    """The product of ``gens`` along each word of at most ``k`` letters, keyed by the word."""
    for g, n, table in _STRIDE_TABLES:
        if n == k and g == gens:  # by identity, else by value: equal families share one table
            return table
    table = level = {"": ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    for _ in range(k):
        level = {w + ch: tuple(row_step(r, g) for r in m)  # type: ignore[misc]
                 for w, m in level.items() for ch, g in zip(LETTERS, gens)}
        table = {**table, **level}
    _STRIDE_TABLES.append((gens, k, table))
    return table


stride_table.cache_clear = _STRIDE_TABLES.clear  # type: ignore[attr-defined]


def row_walk(row: IntRow, word: str, gens: Iterable[IntMat] = MASS_SCALED) -> IntRow:
    """``row_step`` along every letter of ``word``, first letter first, as one
    ``stride_table`` product per ``STRIDE`` letters (and one for the rest)."""
    table = stride_table(tuple(gens), STRIDE)
    for i in range(0, len(word), STRIDE):
        row = row_step(row, table[word[i:i + STRIDE]])
    return row


def lex_word(index: int, length: int) -> str:
    """The word at ``index`` among all ``length``-letter words in
    lexicographic order: the base-3 digits of ``index``."""
    letters = []
    for _ in range(length):
        index, d = divmod(index, 3)
        letters.append(LETTERS[d])
    return "".join(reversed(letters))


def walk_level(m: int, root, step) -> Iterator[tuple[str, Any]]:
    """``(word, row)`` for every level-``m`` word in lexicographic order,
    ``row`` the ``root`` stepped along the word by ``step(row, letter)``.
    Depth first, it holds at most 2m + 1 rows, steps each prefix once and
    does no arithmetic; raises ``ValueError`` for ``m < 0`` when called.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative")
    return _walk(m, [("", root)], step)


def _walk(m: int, stack: list, step) -> Iterator[tuple[str, Any]]:
    while stack:
        word, row = stack.pop()
        if len(word) == m:
            yield word, row
        else:  # the last letter goes on first, so "0" comes off first
            stack += [(word + ch, step(row, j)) for j, ch in ((2, "2"), (1, "1"), (0, "0"))]


def array_children(rows, gens: Sequence[IntMat], dtype: str):
    """Every row stepped by every generator: an ``(n, 3)`` array (or a list
    of rows) in, the ``(len(gens) * n, 3)`` array of children out, row
    ``i`` stepped by ``gens[j]`` at ``len(gens) * i + j``, by one product.

    ``dtype="int64"`` is exact only while no entry or partial sum leaves the
    ``int64`` range, which ``subtree_levels`` proves by ``array_dtype``
    before its walk; ``dtype="object"`` holds Python ints and is always
    exact.  numpy is imported here, so importing this module does not load it.
    """
    import numpy as np

    cols = np.array([[g[i][j] for g in gens for j in range(3)] for i in range(3)], dtype=dtype)
    return (np.asarray(rows, dtype=dtype) @ cols).reshape(-1, 3)


#: ``limb_sign`` is exact on ``int64`` arrays whose factors all lie strictly
#: between ``-LIMB_BOUND`` and ``LIMB_BOUND``.
LIMB_BOUND = 2**60
#: Level arrays run as ``int64`` when every row entry stays below this bound
#: in absolute value: a sum of two entries is then a valid ``limb_sign``
#: factor, and the scans form no sum above six entries (< 2**63).  Larger
#: rows run on ``dtype=object`` arrays of Python ints.
INT64_ROW_BOUND = LIMB_BOUND // 2

_LIMB = 30
_LIMB_MASK = (1 << _LIMB) - 1


def scratch(rows: int, levels: int, per_row: int, dtype):
    """A new ``(rows, n)`` array of ``dtype`` for one scan of ``subtree_levels(..., levels)``:
    ``n`` is ``per_row`` entries for each row of the widest block that walk yields,
    min(3**(levels - 1), 3 * ``BLOCK_ROWS``), with ``BLOCK_ROWS`` read when called."""
    import numpy as np

    return np.empty((rows, per_row * min(3 ** (levels - 1), 3 * BLOCK_ROWS)), dtype)


def limb_sign(a, b, c, d, buf):
    """Elementwise sign of ``a*b + c*d`` as an ``int8`` array of -1, 0, 1.

    ``a`` is a numpy array; ``b``, ``c`` and ``d`` are arrays of its length
    or ints.  ``object`` arrays hold Python ints, which take the products
    directly.  ``int64`` products need not fit, so each factor splits into
    limbs ``x = h * 2**30 + l`` with ``0 <= l < 2**30``.  With every
    |factor| < ``LIMB_BOUND`` = 2**60, |h| <= 2**30 and the limb sums are

    * ``lo = l_a l_b + l_c l_d``, below 2**61,
    * ``mid = h_a l_b + l_a h_b + h_c l_d + l_c h_d``, below 2**62,
    * ``hi = h_a h_b + h_c h_d``, at most 2**61,

    and the carries of ``lo`` into ``mid`` and of ``mid`` into ``hi`` add
    less than 2**33, so no sum leaves ``int64``.  After them the low 30 bits
    of ``mid`` and ``lo`` are all that is left below ``hi * 2**60``, so the
    sign is ``hi``'s unless ``hi == 0``, and then it is 1 iff either is
    nonzero.  Limbs and sums go into eight rows of the caller's scratch ``buf``
    (``core.scratch``), at least ``len(a)`` wide; ``object`` arrays ignore it.
    """
    if a.dtype == object:
        v = a * b + c * d
        return (v > 0).astype("int8") - (v < 0)
    import numpy as np

    ha, la, hb, lb, lo, mid, hi, t = buf[:8, :len(a)]
    lo[:] = mid[:] = hi[:] = 0
    for x, y in ((a, b), (c, d)):  # an int factor splits into two ints
        (hx, lx), (hy, ly) = ((v >> _LIMB, v & _LIMB_MASK) if isinstance(v, int) else
                              (np.right_shift(v, _LIMB, out=h), np.bitwise_and(v, _LIMB_MASK, out=l))
                              for v, h, l in ((x, ha, la), (y, hb, lb)))
        lo += np.multiply(lx, ly, out=t)
        mid += np.multiply(hx, ly, out=t)
        mid += np.multiply(lx, hy, out=t)
        hi += np.multiply(hx, hy, out=t)
    mid += np.right_shift(lo, _LIMB, out=t)
    hi += np.right_shift(mid, _LIMB, out=t)
    rest = np.bitwise_and(np.bitwise_or(mid, lo, out=t), _LIMB_MASK, out=t) != 0
    return ((hi == 0) & rest) | np.sign(hi, out=hi).astype("int8")


def array_dtype(rows: Iterable[IntRow], gens: Sequence[IntMat], levels: int) -> str:
    """``"int64"`` when ``rows`` walked ``levels >= 0`` letters by ``gens``
    provably keep every entry and partial sum below ``INT64_ROW_BOUND``
    (read when called), ``"object"`` otherwise.

    The proof is max|row| * g**levels < INT64_ROW_BOUND, with g the largest
    absolute column sum of the generators: one step grows no entry or
    partial sum by more than a factor g.
    """
    growth = max(sum(abs(g[i][j]) for i in range(3)) for g in gens for j in range(3))
    top = max(abs(x) for row in rows for x in row)
    return "int64" if top * max(growth, 1) ** levels < INT64_ROW_BOUND else "object"


#: Rows stepped per ``array_children`` call of ``subtree_levels``: a yielded
#: block holds at most ``3 * BLOCK_ROWS`` rows per family, whatever the depth.
BLOCK_ROWS = 3**7


def subtree_levels(rows: Sequence[IntRow], levels: int,
                   gens: Sequence[IntMat] = MASS_SCALED) -> Iterator[tuple[int, int, list]]:
    """Block walk over the words ``u`` with ``len(u) < levels``.

    Yields ``(depth, start, level)`` where ``level[f][i]`` is ``rows[f]``
    walked along ``lex_word(start + i, depth)``: a block is a run of words
    consecutive in word order on one level, and each word lies in exactly
    one block.  Each ``level[f]``, the root block's too, is an ``(n, 3)``
    numpy array of the one dtype ``array_dtype`` proves for the deepest
    level before any work.  Blocks are stepped by ``array_children``, at
    most ``BLOCK_ROWS`` (read when the walk runs) rows at a time.

    A level near the root that fits in one call is expanded whole; below
    that the walk goes depth-first, block by block in word order, and holds
    at most one block per level.  ``levels < 1`` yields nothing.
    """
    if levels < 1:
        return
    import numpy as np

    dtype, per = array_dtype(rows, gens, levels - 1), BLOCK_ROWS
    level = [np.array([r], dtype=dtype) for r in rows]
    yield 0, 0, level
    stack = [(0, 0, level)] if levels > 1 else []  # yielded blocks with children still to walk
    while stack:
        depth, start, level = stack.pop()
        if len(level[0]) > per:
            stack.append((depth, start + per, [fam[per:] for fam in level]))
            level = [fam[:per] for fam in level]
        kids = [array_children(fam, gens, dtype) for fam in level]
        yield depth + 1, 3 * start, kids
        if depth + 2 < levels:
            stack.append((depth + 1, 3 * start, kids))


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
    if word.strip(LETTERS):  # in C; the first bad letter is sought only to name it
        bad = next(ch for ch in word if ch not in LETTERS)
        raise ValueError(f"invalid letter {bad!r} in word {word!r}")
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

class VertexAddress(NamedTuple("VertexAddress", [("word", str), ("corner", int)])):
    """The point reached by applying ``word`` and then taking corner ``corner``.

    A junction point has two raw spellings (last letter and corner swapped);
    ``canonical()`` picks the spelling whose final letter is the smaller of
    the two, and collapses the degenerate corner-fixed-point spellings of the
    three outer vertices to the empty word.  It hashes, orders and pickles as
    the tuple ``(word, corner)``; ``_make`` and ``_replace`` check as the
    constructor does."""

    __slots__ = ()

    def __new__(cls, word: str, corner: int) -> "VertexAddress":
        check_word(word)
        if corner not in (0, 1, 2):
            raise ValueError(f"corner must be 0, 1 or 2, got {corner!r}")
        return tuple.__new__(cls, (word, corner))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "VertexAddress":
        return cls(*iterable)  # checked, unlike NamedTuple's own

    def _replace(self, **changes: Any) -> "VertexAddress":
        return VertexAddress(**{**self._asdict(), **changes})

    @property
    def level(self) -> int:
        return len(self.word)

    def canonical(self) -> "VertexAddress":
        corner, tail = self.corner, str(self.corner)
        word = self.word.rstrip(tail)
        if word and int(word[-1]) > corner:
            word, corner = word[:-1] + tail, int(word[-1])
        if (word, corner) == self:
            return self
        return tuple.__new__(VertexAddress, (word, corner))  # a checked word respelled: no second check

    def __str__(self) -> str:
        return f"{self.word}:{self.corner}"

    @classmethod
    def parse(cls, text: str) -> "VertexAddress":
        word, sep, corner = text.partition(":")
        if not sep or corner not in ("0", "1", "2"):
            raise ValueError(f"vertex address must look like '<word>:<corner 0, 1 or 2>', got {text!r}")
        return cls(word, int(corner))


def all_vertices(level: int) -> set[VertexAddress]:
    """All distinct vertices of the level-``level`` graph, canonical forms."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return {VertexAddress(lex_word(i, level), c).canonical()
            for i in range(3 ** level) for c in (0, 1, 2)}
