"""Exact scalars and matrices, the integer row kernel, the tree and block
walks and cell/vertex addressing.

Everything downstream (harmonic extension, measures, derivatives, b-vectors)
is built from two families of 3x3 rational matrices indexed by the letters
{0,1,2}: the *mass* family pushes the triple of basis-measure masses of a
cell down to a subcell, and the *refine* family maps the child-cell masses
of a cell to the child-cell masses one level deeper inside it.  The refine
generators are assembled at import time as the exact product ``P_i . D . Q_i``
of their diagonalizing factors (eigenvalues 1/15, 3/5, 1/5), with ``Q_i``
computed as the inverse of ``P_i``, never typed in from a hand-made table.

* Scalars, 3-vectors and 3x3 matrices are tuples of ``Fraction``s;
  ``word_matrix`` multiplies a family's generators along a word.
* The integer row kernel (``int_row``, ``row_step``, ``row_walk``) carries
  tuples of ints over a known scale, stepped by the families scaled to
  integers (``MASS_SCALED``, ``REFINE_SCALED``), so a hot path builds one
  ``Fraction`` at its end.  ``row_walk`` steps ``STRIDE`` letters at a time
  by one product of ``MASS_STRIDE``, the mass family's ``stride_table``
  built once at import; the tree walk ``walk_level`` runs any step.
* The block walk ``subtree_levels`` steps runs of subcells as arrays of one
  dtype, ``int64``, once ``int64_walk`` has proved from ``row_bound`` that
  no entry leaves it (a walk past the proof is refused before any work).
  ``first_outside_cone``, the weight-disk scan on it, owns its one scratch
  array, its one factor bound B and its exact sign test, whose integer
  tier B picks: up to ``SHIFT_BOUND`` (about 2**45) a certified
  shift-and-wrap test (factors shifted to 31 bits decide every sign they
  can prove, and below that cut the value fits ``int64``, so its products
  taken mod 2**64 are exact), above it 30-bit limbs.  numpy is imported
  only when these run.
* Addressing: ``check_word``, ``lex_word``, ``VertexAddress``.

Tuples are immutable, so they are safe to share across threads and processes.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import VERTEX_LEVEL_MAX, WORD_MAX_LEN, check_letter, check_range

Vec3 = tuple[Fraction, Fraction, Fraction]
Mat3 = tuple[Vec3, Vec3, Vec3]

LETTERS = "012"


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


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    """Matrix product; exact on ``Fraction`` and on plain ``int`` entries."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def mat_scale(s, m: Mat3) -> Mat3:
    s = Fraction(s)
    return tuple(tuple(s * x for x in row) for row in m)  # type: ignore[return-value]


def _inverse(m: Mat3) -> Mat3:
    """The exact inverse of ``m``, its adjugate (transposed cofactors) over its determinant."""
    adj = [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3] for j in range(3)] for i in range(3)]
    return mat_scale(1 / vec_dot(m[0], [row[0] for row in adj]), adj)


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

#: Factors ``P_i = REFINE_COLS[i]``, ``D`` and ``Q_i = REFINE_ROWS[i]``, P_i's exact inverse, of refine
#: generator i: column 1 of ``P_i`` and row 1 of ``Q_i`` are its right and left 3/5-eigenvectors.
REFINE_DIAG: Mat3 = mat3(
    ((Fraction(1, 15), 0, 0), (0, Fraction(3, 5), 0), (0, 0, Fraction(1, 5)))
)

REFINE_COLS: tuple[Mat3, ...] = (
    mat3(((Fraction(1, 7), 3, 0), (1, 1, -1), (1, 1, 1))),
    mat3(((1, 1, -1), (Fraction(1, 7), 3, 0), (1, 1, 1))),
    mat3(((1, 1, -1), (1, 1, 1), (Fraction(1, 7), 3, 0))),
)

REFINE_ROWS: tuple[Mat3, ...] = tuple(_inverse(p) for p in REFINE_COLS)

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
    denominator: ``(row, den)`` with ``v == row / den``.  Each entry must be
    an ``int`` (not a ``bool``) or a ``Fraction``; anything else, a float or a
    fixed-width numpy integer, raises ``ValueError`` naming it."""
    for x in v:
        if type(x) is not int and not isinstance(x, Fraction):
            raise ValueError(f"coefficient {x!r} is not an int or a Fraction")
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


#: Letters per ``stride_table`` product in ``row_walk``; fixed at import, where ``MASS_STRIDE`` is built.
STRIDE = 4


def stride_table(gens: Sequence[IntMat]) -> dict[str, IntMat]:
    """The product of ``gens`` along each word of at most ``STRIDE`` letters, keyed by the word."""
    table = level = {"": ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    for _ in range(STRIDE):
        level = {w + ch: tuple(row_step(r, g) for r in m)  # type: ignore[misc]
                 for w, m in level.items() for ch, g in zip(LETTERS, gens)}
        table = {**table, **level}
    return table


#: The mass family's ``stride_table``, the one ``row_walk`` steps by unless given another.
MASS_STRIDE = stride_table(MASS_SCALED)


def row_walk(row: IntRow, word: str, table: Mapping[str, IntMat] = MASS_STRIDE) -> IntRow:
    """``row_step`` along every letter of ``word``, first letter first, as one
    ``table`` product per ``STRIDE`` letters (and one for the rest)."""
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
    does no arithmetic; raises ``ValueError`` for ``m`` outside 0..``WORD_MAX_LEN`` when called.
    """
    return _walk(check_range("level", m, 0, WORD_MAX_LEN), [("", root)], step)


def _walk(m: int, stack: list, step) -> Iterator[tuple[str, Any]]:
    while stack:
        word, row = stack.pop()
        if len(word) == m:
            yield word, row
        else:  # the last letter goes on first, so "0" comes off first
            stack += [(word + ch, step(row, j)) for j, ch in ((2, "2"), (1, "1"), (0, "0"))]


def array_children(rows, gens: Sequence[IntMat]):
    """Every row stepped by every generator: an ``(n, 3)`` array (or a list
    of rows) in, the ``(len(gens) * n, 3)`` ``int64`` array of children out,
    row ``i`` stepped by ``gens[j]`` at ``len(gens) * i + j``, by one product.

    Exact only while no entry or partial sum leaves the ``int64`` range,
    which ``subtree_levels`` proves by ``int64_walk`` before its walk.
    numpy is imported here, so importing this module does not load it.
    """
    import numpy as np

    return (np.asarray(rows, dtype="int64") @ _columns(tuple(gens))).reshape(-1, 3)


@functools.lru_cache(maxsize=None)
def _columns(gens: tuple):
    """``array_children``'s read-only ``(3, 3 * len(gens))`` generator columns, built once per family."""
    import numpy as np

    cols = np.array([[g[i][j] for g in gens for j in range(3)] for i in range(3)], dtype="int64")
    cols.flags.writeable = False
    return cols


#: ``_pair_sign``'s limb tier is exact on ``int64`` arrays whose factors all
#: lie strictly between ``-LIMB_BOUND`` and ``LIMB_BOUND``.
LIMB_BOUND = 2**60
#: ``int64_walk`` admits a walk when every row entry stays below this bound
#: (read when called) in absolute value: a sum of two entries is then a valid
#: ``_pair_sign`` factor, and the scans form no sum above six entries (< 2**63).
INT64_ROW_BOUND = LIMB_BOUND // 2
#: ``_pair_sign`` runs its certified shift-and-wrap tier when the caller's
#: factor bound is at most this (read when called), and its 30-bit limbs
#: above it: (2**31 - 1) * 2**14, about 2**45, the largest bound whose shift
#: is at most 14 bits, which keeps the values the tier wraps below 2**62.
SHIFT_BOUND = (2**31 - 1) << 14

_SHIFT_TOP = 2**31 - 1
_LIMB = 30
_LIMB_MASK = (1 << _LIMB) - 1


def _shift_bits(bound: int) -> Optional[int]:
    """The certified tier's shift for factors of absolute value at most ``bound``: the least
    k >= 0 with ``bound`` <= (2**31 - 1) * 2**k, so k <= 14; None above ``SHIFT_BOUND``."""
    if bound > SHIFT_BOUND:
        return None
    k = max(0, bound.bit_length() - 31)
    return k + (bound > _SHIFT_TOP << k)


def _pair_sign(a, b, c, d, rows, bound: int):
    """Elementwise sign of ``a*b + c*d`` as an ``int8`` array of -1, 0, 1.

    The four factors are ``int64`` arrays of one length.  The caller proves
    |x| <= ``bound`` < ``LIMB_BOUND`` = 2**60 for every factor x, and the
    products may not fit.  Up to ``SHIFT_BOUND`` (read when called) the
    certified tier decides the sign:

    * each factor is shifted, x' = x >> k with the least k that gives
      |x'| <= 2**31 - 1 (k <= 14), so A' = a'b' + c'd' fits in ``int64``;
    * writing x = 2**k x' + r with 0 <= r < 2**k, the rest
      ``a*b + c*d - 2**(2k) A'`` is below 2**(2k) (sum|x'| + 2) <= 2**(2k) C
      in absolute value, C = 4 ceil(``bound`` / 2**k) + 2, so where
      |A'| >= C the sign is A''s;
    * elsewhere |a*b + c*d| < 2**(2k + 1) C < 2**(2k + 34) <= 2**62, so the
      products and their sum taken mod 2**64 (on ``uint64`` views) are the
      exact value once read back as ``int64``.

    Above ``SHIFT_BOUND`` each factor splits into limbs ``x = h * 2**30 + l``
    with ``0 <= l < 2**30`` instead; see ``_limb_sign``.  Either tier works
    in the eight ``int64`` rows ``rows``, at least ``len(a)`` wide: it writes
    none of their entries past ``len(a)`` and reads none it did not write.
    """
    k = _shift_bits(bound)
    rows = rows[:, :len(a)]
    if k is None:
        return _limb_sign(a, b, c, d, rows)
    return _wrap_sign((a, b, c, d), rows, k, 4 * -(-bound >> k) + 2)


def _wrap_sign(factors, rows, k: int, cut: int):
    """``_pair_sign``'s certified tier: sign(A') where |A'| >= ``cut``, else the sign of the wrapped sum."""
    import numpy as np

    a, b, c, d = (np.right_shift(x, k, out=row) for x, row in zip(factors, rows))
    approx, t, exact, u = rows[4:]
    np.multiply(a, b, out=approx)
    approx += np.multiply(c, d, out=t)
    a, b, c, d = (x.view(np.uint64) for x in factors)
    wrapped = np.multiply(a, b, out=exact.view(np.uint64))
    wrapped += np.multiply(c, d, out=u.view(np.uint64))
    np.copyto(exact, approx, where=np.abs(approx, out=t) >= cut)
    return np.sign(exact, out=exact).astype("int8")


def _limb_sign(a, b, c, d, rows):
    """``_pair_sign``'s limb tier, exact with every |factor| < ``LIMB_BOUND`` = 2**60.

    With x = h * 2**30 + l, |h| <= 2**30 and the limb sums are

    * ``lo = l_a l_b + l_c l_d``, below 2**61,
    * ``mid = h_a l_b + l_a h_b + h_c l_d + l_c h_d``, below 2**62,
    * ``hi = h_a h_b + h_c h_d``, at most 2**61,

    and the carries of ``lo`` into ``mid`` and of ``mid`` into ``hi`` add
    less than 2**33, so no sum leaves ``int64``.  After them the low 30 bits
    of ``mid`` and ``lo`` are all that is left below ``hi * 2**60``, so the
    sign is ``hi``'s unless ``hi == 0``, and then it is 1 iff either is
    nonzero.  The sums start from the pair ``(a, b)``'s products.
    """
    import numpy as np

    ha, la, hb, lb, lo, mid, hi, t = rows
    for x, y, first in ((a, b, True), (c, d, False)):
        hx, lx = np.right_shift(x, _LIMB, out=ha), np.bitwise_and(x, _LIMB_MASK, out=la)
        hy, ly = np.right_shift(y, _LIMB, out=hb), np.bitwise_and(y, _LIMB_MASK, out=lb)
        for s, p, q in ((lo, lx, ly), (hi, hx, hy), (mid, hx, ly)):
            if first:
                np.multiply(p, q, out=s)
            else:
                s += np.multiply(p, q, out=t)
        mid += np.multiply(lx, hy, out=t)
    mid += np.right_shift(lo, _LIMB, out=t)
    hi += np.right_shift(mid, _LIMB, out=t)
    rest = np.bitwise_and(np.bitwise_or(mid, lo, out=t), _LIMB_MASK, out=t) != 0
    return ((hi == 0) & rest) | np.sign(hi, out=hi).astype("int8")


@functools.lru_cache(maxsize=None)
def _growth(gens: tuple) -> tuple[int, ...]:
    """``(g_0, ..., g_STRIDE)``: g_k is the largest absolute column sum of any product of at most k
    of ``gens``, from their ``stride_table`` (1, 13, 121, 1093, 9841 for ``MASS_SCALED``)."""
    table = stride_table(gens)
    return tuple(max(sum(abs(m[i][j]) for i in range(3)) for w, m in table.items() if len(w) <= k for j in range(3))
                 for k in range(STRIDE + 1))


def row_bound(rows: Iterable[IntRow], gens: Sequence[IntMat], levels: int) -> int:
    """A bound on the absolute value of every entry of ``rows`` walked up to
    ``levels >= 0`` letters by ``gens``: max|row| * g_4**(levels // 4) * g_(levels % 4),
    with g_k from ``_growth``.  A row times a product P has entries at most max|row|
    times P's largest absolute column sum, an induced norm, so submultiplicative;
    an n-letter product is ``n // 4`` products of four letters and one of the rest,
    and the g_k never fall, so the bound at ``levels`` covers every shorter walk."""
    g = _growth(tuple(gens))
    return max(abs(x) for row in rows for x in row) * g[STRIDE] ** (levels // STRIDE) * g[levels % STRIDE]


def int64_walk(rows: Sequence[IntRow], gens: Sequence[IntMat], levels: int) -> None:
    """Prove that ``rows`` walked ``levels >= 0`` letters by ``gens`` keep
    every entry and partial sum below ``INT64_ROW_BOUND`` (read when called),
    or raise ``ValueError`` naming the bound.  The entries are proved by
    ``row_bound(rows, gens, levels)``.  A partial sum of the step into level
    n takes some of a row's three products with one generator column, so it
    is at most g_1 = ``_growth(gens)[1]`` times ``row_bound`` at n - 1 <= ``levels - 1``.
    """
    bound = row_bound(rows, gens, levels)
    if levels:
        bound = max(bound, _growth(tuple(gens))[1] * row_bound(rows, gens, levels - 1))
    if bound >= INT64_ROW_BOUND:
        raise ValueError(f"rows walked {levels} letters may reach {bound}, past INT64_ROW_BOUND = {INT64_ROW_BOUND}")


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
    ``int64`` array.  Before any work ``int64_walk`` proves that ``int64``
    holds through the deepest level, or the walk raises its ``ValueError``.
    Blocks are stepped by ``array_children``, at most ``BLOCK_ROWS`` (read
    when the walk runs) rows at a time.

    A level near the root that fits in one call is expanded whole; below
    that the walk goes depth-first, block by block in word order, and holds
    at most one block per level.  ``levels < 1`` yields nothing.
    """
    if levels < 1:
        return
    import numpy as np

    int64_walk(rows, gens, levels - 1)
    per, level = BLOCK_ROWS, [np.array([r], dtype="int64") for r in rows]
    yield 0, 0, level
    stack = [(0, 0, level)] if levels > 1 else []  # yielded blocks with children still to walk
    while stack:
        depth, start, level = stack.pop()
        if len(level[0]) > per:
            stack.append((depth, start + per, [fam[per:] for fam in level]))
            level = [fam[:per] for fam in level]
        kids = [array_children(fam, gens) for fam in level]
        yield depth + 1, 3 * start, kids
        if depth + 2 < levels:
            stack.append((depth + 1, 3 * start, kids))


def first_outside_cone(rows: Sequence[IntRow], levels: int, gens: Sequence[IntMat]) -> Optional[str]:
    """The lexicographically first word u, ``len(u) < levels``, whose row (``rows``' one root
    row walked along u by ``gens``) has e2 = c0*c1 + c1*c2 + c0*c2 <= 0 or total T <= 0, or
    None when every row lies strictly inside that cone; ``levels >= 1``.

    Before its walk, ``subtree_levels(rows, levels, gens)``, the call makes its one ``(12, n)``
    ``int64`` scratch, which every block reuses, n = min(3**(levels - 1), 3 * ``BLOCK_ROWS``)
    the widest block's rows, and takes B = 2 * ``row_bound(rows, gens, levels - 1)``, which
    bounds every entry walked and every sum of two, and so picks ``_pair_sign``'s tier.  The least
    of the blocks' first offenders is the first overall: a prefix sorts before its extensions.
    """
    import numpy as np

    buf = np.empty((12, min(3 ** (levels - 1), 3 * BLOCK_ROWS)), "int64")
    bound, hits = 2 * row_bound(rows, gens, levels - 1), []
    for depth, start, (block,) in subtree_levels(rows, levels, gens):
        i = _first_offender(block, buf, bound)
        if i is not None:
            hits.append(lex_word(start + i, depth))
    return min(hits, default=None)


def _first_offender(block, buf, bound: int) -> Optional[int]:
    """Index of the first row of ``block`` with e2 <= 0 or T <= 0, or None.  The coordinates go
    once into rows 0-2 of ``first_outside_cone``'s scratch ``buf`` and c0 + c1, then T, into
    row 3; rows 4-11 take one ``_pair_sign`` pass on e2 = c0*c1 + c2*(c0 + c1), exact with every
    |c_j| and |c0 + c1| at most ``bound``."""
    import numpy as np

    cols, total = buf[:3, :len(block)], buf[3, :len(block)]
    np.copyto(cols, block.T)
    bad = _pair_sign(*cols, np.add(cols[0], cols[1], out=total), buf[4:], bound) <= 0
    bad |= np.add(total, cols[2], out=total) <= 0
    return int(bad.argmax()) if bad.any() else None


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
        return tuple.__new__(cls, (check_word(word), check_letter("corner", corner)))

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
    return {VertexAddress(lex_word(i, level), c).canonical()
            for i in range(3 ** check_range("level", level, 0, VERTEX_LEVEL_MAX)) for c in (0, 1, 2)}
