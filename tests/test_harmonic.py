"""Harmonic triples: extension, energies, pair measures, symmetry classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gasketenergy import VERTEX_LEVEL_MAX, harmonic
from gasketenergy.core import WORD_MAX_LEN, VertexAddress
from gasketenergy.harmonic import (
    BASIS,
    Harmonic,
    SymmetryKind,
    cell_energy,
    classify_symmetry,
    energy_inner,
    extend_to_cell,
    graph_energy,
    harmonic_vertex_values,
    level0_energy,
    measure_coeffs,
    satisfies_skew_condition,
    total_energy_identity,
)
from gasketenergy.measures import cone_value, decompose_positive

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
harmonics = st.builds(Harmonic, rationals, rationals, rationals)
words = st.text(alphabet="012", max_size=4)


def test_extension_rule_frozen():
    """One subdivision splits a corner value 2/5-2/5-1/5 with its neighbours."""
    assert extend_to_cell(Harmonic.of(1, 0, 0), "0") == Harmonic.of(1, Fraction(2, 5), Fraction(2, 5))
    assert extend_to_cell(Harmonic.of(0, 1, 0), "0") == Harmonic.of(0, Fraction(2, 5), Fraction(1, 5))
    assert extend_to_cell(Harmonic.of(1, 2, 3), "") == Harmonic.of(1, 2, 3)


@given(harmonics, words)
def test_extension_preserves_mean_bounds(h, word):
    lo, hi = min(h), max(h)
    ext = extend_to_cell(h, word)
    assert lo <= min(ext) and max(ext) <= hi


def test_level0_energy_of_basis():
    for h in BASIS:
        assert level0_energy(h) == 2
    assert level0_energy(Harmonic.of(1, 1, 1)) == 0


@given(harmonics)
@settings(max_examples=40)
def test_renormalized_graph_energy_is_constant(h):
    e0 = level0_energy(h)
    for m in (1, 2, 3):
        assert graph_energy(harmonic_vertex_values(h, m), m) == e0


@given(harmonics, harmonics)
def test_energy_inner_is_symmetric_bilinear(u, v):
    assert energy_inner(u, v) == energy_inner(v, u)
    w = Harmonic(u.v0 + v.v0, u.v1 + v.v1, u.v2 + v.v2)
    assert energy_inner(w, w) == energy_inner(u, u) + 2 * energy_inner(u, v) + energy_inner(v, v)


@given(harmonics, harmonics)
def test_pair_measure_total_is_half_energy(u, v):
    assert 2 * sum(measure_coeffs(u, v)) == energy_inner(u, v)
    assert total_energy_identity(u, v)


def test_basis_pair_coefficients_are_unit_vectors():
    for i, h in enumerate(BASIS):
        coeffs = measure_coeffs(h, h)
        assert coeffs == tuple(Fraction(1 if k == i else 0) for k in range(3))


@given(harmonics, words)
@settings(max_examples=40)
def test_cell_energy_splits_over_children(h, word):
    assert cell_energy(h, word) == sum(cell_energy(h, word + str(j)) for j in range(3))


def test_cell_energy_frozen_values():
    assert cell_energy(BASIS[0], "") == 2
    assert cell_energy(BASIS[0], "0") == Fraction(6, 5)
    assert cell_energy(BASIS[0], "1") == Fraction(2, 5)


@given(harmonics)
def test_complement_pairs_to_a_constant_vector(h):
    """The energy measure c of a non-constant h lies on the cone boundary, so
    ``decompose_positive`` keeps it whole (t = 1, p = c) and pairs it with the
    measure q of h's orthogonal complement: q lands exactly on the boundary
    too, and p + q tops each coefficient up to E(h)/3."""
    if h.is_constant():
        return
    c = measure_coeffs(h, h)
    t, p, q = decompose_positive(c)
    assert cone_value(c) == 0 and t == 1 and p == c and cone_value(q) == 0
    assert tuple(a + b for a, b in zip(p, q)) == (level0_energy(h) / 3,) * 3


def test_symmetry_classification_frozen():
    assert classify_symmetry(Harmonic.of(3, 3, 3)).kind is SymmetryKind.CONSTANT
    sym = classify_symmetry(Harmonic.of(1, 0, 0))
    assert sym.kind is SymmetryKind.SYMMETRIC and sym.axis == 0
    skew = classify_symmetry(Harmonic.of(0, 1, -1))
    assert skew.kind is SymmetryKind.SKEW and skew.axis == 0
    assert classify_symmetry(Harmonic.of(0, 1, 3)).kind is SymmetryKind.NONE


@given(rationals, rationals)
def test_centered_offsets_classify_skew(c, a):
    if a == 0:
        return
    got = classify_symmetry(Harmonic(c, c + a, c - a))
    assert got.kind is SymmetryKind.SKEW and got.axis == 0
    assert satisfies_skew_condition(Harmonic(c, c + a, c - a), 0)


def test_vertex_sets_refuse_a_level_above_their_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the level was checked")

    monkeypatch.setattr(harmonic, "walk_level", no_work)
    monkeypatch.setattr(harmonic, "int_row", no_work)
    m = VERTEX_LEVEL_MAX + 1
    with pytest.raises(ValueError, match=f"level must be between 0 and {VERTEX_LEVEL_MAX}, got {m}"):
        harmonic_vertex_values(Harmonic.of(1, 0, 0), m)
    with pytest.raises(ValueError, match=f"level must be between 0 and {VERTEX_LEVEL_MAX}, got {m}"):
        graph_energy({}, m)


@pytest.mark.parametrize("axis", [-1, 3])
def test_skew_condition_refuses_an_axis_outside_0_to_2(axis):
    """-1 was read as axis 2, and 3 raised ``IndexError``."""
    with pytest.raises(ValueError, match=f"axis must be 0, 1 or 2, got {axis}"):
        satisfies_skew_condition(Harmonic.of(0, 1, 2), axis)


def test_vertex_values_reject_a_negative_level():
    with pytest.raises(ValueError, match=f"level must be between 0 and {VERTEX_LEVEL_MAX}, got -1"):
        harmonic_vertex_values(Harmonic.of(1, 0, 0), -1)


# ---------------------------------------------------------------------------
# the integer walk against the Fraction code it replaced
# ---------------------------------------------------------------------------

def ref_one_level(b, letter):
    """The ``Fraction`` one-level step the integer walk replaced."""
    v0, v1, v2 = b
    m01 = Fraction(2, 5) * (v0 + v1) + Fraction(1, 5) * v2
    m02 = Fraction(2, 5) * (v0 + v2) + Fraction(1, 5) * v1
    m12 = Fraction(2, 5) * (v1 + v2) + Fraction(1, 5) * v0
    if letter == 0:
        return (v0, m01, m02)
    if letter == 1:
        return (m01, v1, m12)
    return (m02, m12, v2)


def ref_extend(h, word):
    b = tuple(Fraction(v) for v in h)
    for ch in word:
        b = ref_one_level(b, int(ch))
    return b


def ref_cell_energy(h, word):
    b0, b1, b2 = ref_extend(h, word)
    return Fraction(5, 3) ** len(word) * ((b0 - b1) ** 2 + (b1 - b2) ** 2 + (b0 - b2) ** 2)


def ref_vertex_values(h, m):
    out = {}
    stack = [("", ref_extend(h, ""))]
    while stack:
        word, b = stack.pop()
        if len(word) == m:
            for corner in (0, 1, 2):
                out[VertexAddress(word, corner).canonical()] = b[corner]
        else:
            stack.extend((word + ch, ref_one_level(b, int(ch))) for ch in "012")
    return out


def ref_measure_coeffs(c, d):
    """The ``Fraction`` bilinear expansion the integer form replaced."""
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(
            c[i] * d[i]
            - Fraction(1, 2) * (c[i] * d[j] + c[j] * d[i])
            - Fraction(1, 2) * (c[i] * d[k] + c[k] * d[i])
            + Fraction(1, 2) * (c[j] * d[k] + c[k] * d[j])
        )
    return tuple(out)


def seeded_harmonics():
    """Signed and non-integer ``Fraction`` triples, plus raw ``int`` ones."""
    rng = random.Random(20240817)
    out = [Harmonic(*(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)))
           for _ in range(6)]
    out += [Harmonic(1, 0, 0), Harmonic(-3, 7, 2), Harmonic(5, 5, 5), BASIS[2]]
    return out


def is_exact_triple(t):
    return all(type(x) is Fraction for x in t)


@pytest.mark.parametrize("h", seeded_harmonics(), ids=str)
def test_integer_extension_equals_the_fraction_reference(h):
    rng = random.Random(str(h))
    for n in range(WORD_MAX_LEN + 1):
        word = "".join(rng.choice("012") for _ in range(n))
        ext = extend_to_cell(h, word)
        assert ext == ref_extend(h, word) and is_exact_triple(ext), word
        assert cell_energy(h, word) == ref_cell_energy(h, word), word
        assert type(cell_energy(h, word)) is Fraction
        if n < WORD_MAX_LEN:  # the junction word i:j = word j:i reads alike from both cells
            for i, j in ((0, 1), (1, 2), (0, 2)):
                want = ref_one_level(ext, i)[j]
                assert extend_to_cell(h, word + str(i))[j] == extend_to_cell(h, word + str(j))[i] == want, (word, i, j)


@pytest.mark.parametrize("h", seeded_harmonics(), ids=str)
def test_vertex_values_equal_the_reference(h):
    for m in range(5):
        got = harmonic_vertex_values(h, m)
        assert got == ref_vertex_values(h, m)
        assert all(type(x) is Fraction for x in got.values())


def ref_graph_energy(values, m):
    """The ``Fraction`` sum the integer numerators replaced."""
    table = {k.canonical(): Fraction(v) for k, v in values.items()}
    words = [""]
    for _ in range(m):
        words = [w + ch for w in words for ch in "012"]
    total = Fraction(0)
    for w in words:
        a, b, c = (table[VertexAddress(w, corner).canonical()] for corner in (0, 1, 2))
        total += (a - b) ** 2 + (b - c) ** 2 + (a - c) ** 2
    return Fraction(5, 3) ** m * total


@pytest.mark.parametrize("h", seeded_harmonics(), ids=str)
def test_graph_energy_equals_the_reference(h):
    """Harmonic and non-harmonic assignments, with ``int`` and ``Fraction``
    values, keyed by canonical and by raw spellings."""
    rng = random.Random(str(h))
    for m in range(5):
        harmonic = harmonic_vertex_values(h, m)
        assignments = (
            harmonic,
            {k: 7 for k in harmonic},  # constant: harmonic, in ints
            {k: rng.randint(-9, 9) for k in harmonic},
            {k: v + Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for k, v in harmonic.items()},
            {VertexAddress(k.word + str(k.corner), k.corner): v for k, v in harmonic.items()},
        )
        for values in assignments:
            got = graph_energy(values, m)
            assert got == ref_graph_energy(values, m) and type(got) is Fraction, (m, values)


def test_graph_energy_names_a_missing_vertex():
    values = harmonic_vertex_values(Harmonic.of(1, 0, 0), 2)
    del values[VertexAddress("01", 2)]
    with pytest.raises(ValueError) as err:
        graph_energy(values, 2)
    assert str(err.value) == "incomplete vertex assignment: missing value at 01:2"


def test_measure_coeffs_equal_the_reference_and_are_symmetric():
    hs = seeded_harmonics()
    for u in hs:
        for v in hs:
            got = measure_coeffs(u, v)
            assert got == ref_measure_coeffs(u, v) == measure_coeffs(v, u), (u, v)
            assert is_exact_triple(got)


@pytest.mark.parametrize("word, message", [
    ("0" * 65, "word length 65 exceeds the cap 64"),
    ("03", "invalid letter '3' in word '03'"),
])
def test_bad_words_keep_the_check_word_message(word, message):
    h = Harmonic.of(1, 2, 3)
    for call in (extend_to_cell, cell_energy, classify_symmetry):
        with pytest.raises(ValueError) as err:
            call(h, word)
        assert str(err.value) == message
