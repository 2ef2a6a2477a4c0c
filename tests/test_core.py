"""Exact scalars, generator matrices, words, and vertex addresses."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gasketenergy import VERTEX_LEVEL_MAX, check_letter, check_range, core
from gasketenergy.core import (
    MASS_DEN,
    MASS_GENERATORS,
    MASS_SCALED,
    MAT_IDENTITY,
    REFINE_COLS,
    REFINE_DEN,
    REFINE_GENERATORS,
    REFINE_ROWS,
    REFINE_SCALED,
    VertexAddress,
    all_vertices,
    check_word,
    format_rational,
    mat_mul,
    parse_rational,
    word_matrix,
)

words = st.text(alphabet="012", max_size=6)
letters = st.integers(min_value=0, max_value=2)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_mass_generator_entries():
    assert MASS_SCALED[0] == ((9, 0, 0), (2, 2, -1), (2, -1, 2))
    assert MASS_SCALED[1] == ((2, 2, -1), (0, 9, 0), (-1, 2, 2))
    assert MASS_DEN == 15
    assert MASS_GENERATORS[0][0][0] == Fraction(9, 15)


def test_refine_generator_entries():
    assert REFINE_SCALED == (
        ((47, -3, -3), (14, 9, -6), (14, -6, 9)),
        ((9, 14, -6), (-3, 47, -3), (-6, 14, 9)),
        ((9, -6, 14), (-6, 9, 14), (-3, -3, 47)),
    )
    assert REFINE_DEN == 75


def test_refine_rows_are_the_exact_inverses_written_out():
    """``REFINE_ROWS`` is computed as the exact inverse of ``REFINE_COLS``: it
    equals the rows written out below entry for entry, all ``Fraction``s."""
    F = Fraction
    assert REFINE_ROWS == (
        ((F(-7, 20), F(21, 40), F(21, 40)), (F(7, 20), F(-1, 40), F(-1, 40)), (0, F(-1, 2), F(1, 2))),
        ((F(21, 40), F(-7, 20), F(21, 40)), (F(-1, 40), F(7, 20), F(-1, 40)), (F(-1, 2), 0, F(1, 2))),
        ((F(21, 40), F(21, 40), F(-7, 20)), (F(-1, 40), F(-1, 40), F(7, 20)), (F(-1, 2), F(1, 2), 0)),
    )
    assert all(type(x) is Fraction for q in REFINE_ROWS for row in q for x in row)
    for p, q in zip(REFINE_COLS, REFINE_ROWS):
        assert mat_mul(p, q) == mat_mul(q, p) == MAT_IDENTITY


def test_generators_cyclically_conjugate():
    """Relabelling corners 0->1->2->0 permutes the generator family."""
    perm = (1, 2, 0)
    for fam in (MASS_SCALED, REFINE_SCALED):
        for i in range(3):
            conj = tuple(
                tuple(fam[i][r][c] for c in (2, 0, 1)) for r in (2, 0, 1)
            )
            assert conj == fam[perm[i]]


def test_refine_columns_sum_to_letter_vector():
    for j, gen in enumerate(REFINE_GENERATORS):
        for c in range(3):
            col = gen[0][c] + gen[1][c] + gen[2][c]
            assert col == (1 if c == j else 0)


def test_exact_paths_reject_inexact_coefficients():
    """``int_row`` takes only ``int`` (not ``bool``) and ``Fraction`` entries: a
    numpy ``int64`` once wrapped silently, floats raised ``AttributeError`` and
    a ``bool`` ran.  Each call names the offending entry in a ``ValueError``."""
    import numpy as np

    from gasketenergy.derivatives import scan_extrema
    from gasketenergy.measures import find_negative_cell, measure_of_cell

    calls = [(measure_of_cell, ((np.int64(2**62), 0, 0), "0"), "np.int64"),
             (scan_extrema, ((1.0, 2.0, 3.0), "", 2), "1.0"),
             (measure_of_cell, ((1.5, 2, 3), "01"), "1.5"),
             (find_negative_cell, ((1.0, 1, -3), 3), "1.0"),
             (measure_of_cell, ((True, 2, 3), "01"), "True")]
    for fn, args, entry in calls:
        with pytest.raises(ValueError, match=f"coefficient {entry}.* is not an int or a Fraction"):
            fn(*args)
    assert measure_of_cell((2**62, 0, 0), "0") == Fraction(27670116110564327424, 5)
    assert core.int_row((Fraction(1, 2), 3, Fraction(-2, 3))) == ((3, 18, -4), 6)


def test_word_matrix_identity_is_identity():
    for fam in ("mass", "refine"):
        m = word_matrix(fam, "")
        assert m == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@given(words, words)
def test_word_matrix_respects_concatenation(u, v):
    for fam in ("mass", "refine"):
        assert word_matrix(fam, u + v) == mat_mul(word_matrix(fam, u), word_matrix(fam, v))


def test_word_matrix_is_literal_product():
    m = mat_mul(MASS_GENERATORS[0], MASS_GENERATORS[1])
    assert word_matrix("mass", "01") == m
    assert word_matrix("mass", "10") != m  # the generators do not commute


def test_word_matrix_rejects_unknown_family():
    with pytest.raises(ValueError):
        word_matrix("energy", "0")


@given(st.text(max_size=6))
def test_check_word_accepts_exactly_ternary_strings(s):
    if s and not set(s) <= set("012"):
        with pytest.raises(ValueError):
            check_word(s)
    elif set(s) <= set("012"):
        assert check_word(s) == s


@given(rationals)
def test_rational_text_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("text", ["1e9", "1.5", "1_0", "1/-2", "0x10", "1/0"])
def test_parse_rational_takes_only_p_over_q_or_p(text):
    with pytest.raises(ValueError, match="not a rational literal p/q or p"):
        parse_rational(text)


def test_format_rational_integers_have_no_slash():
    assert format_rational(Fraction(6)) == "6"
    assert format_rational(Fraction(82, 75)) == "82/75"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_junction_has_two_spellings_one_canonical():
    a = VertexAddress("0", 1)
    b = VertexAddress("1", 0)
    assert a.canonical() == b.canonical() == VertexAddress("0", 1)


def test_outer_corner_spellings_collapse():
    assert VertexAddress("000", 0).canonical() == VertexAddress("", 0)
    assert VertexAddress("22", 2).canonical() == VertexAddress("", 2)


@given(words, letters)
def test_canonical_is_idempotent(word, corner):
    v = VertexAddress(word, corner)
    assert v.canonical() == v.canonical().canonical()


@given(words, letters)
def test_canonical_preserves_level_or_shortens(word, corner):
    v = VertexAddress(word, corner).canonical()
    assert v.level <= len(word)


def test_vertex_parse_round_trip():
    for text in (":0", "012:2", "1:0"):
        assert str(VertexAddress.parse(text)) == text
    with pytest.raises(ValueError):
        VertexAddress.parse("012")
    with pytest.raises(ValueError):
        VertexAddress.parse("01:3")


def test_vertex_address_is_its_word_and_corner():
    """Hash, order, repr, str and pickle all read the pair ``(word, corner)``."""
    v = VertexAddress("012", 1)
    assert hash(v) == hash(("012", 1)) and v == VertexAddress("012", 1)
    assert sorted([VertexAddress("1", 0), VertexAddress("0", 2), VertexAddress("", 1),
                   VertexAddress("0", 1)]) == [VertexAddress("", 1), VertexAddress("0", 1),
                                               VertexAddress("0", 2), VertexAddress("1", 0)]
    assert VertexAddress("0", 2) < VertexAddress("1", 0) and not VertexAddress("1", 0) < VertexAddress("0", 2)
    assert repr(v) == "VertexAddress(word='012', corner=1)" and str(v) == "012:1"
    back = pickle.loads(pickle.dumps(v))
    assert back == v and type(back) is VertexAddress and back.level == 3


@pytest.mark.parametrize("word, corner, message", [
    ("013", 0, "invalid letter '3' in word '013'"),
    ("0", 3, "corner must be 0, 1 or 2, got 3"),
    ("0", "1", "corner must be 0, 1 or 2, got '1'"),
    (5, 0, "word must be a string, got int"),
    ("0" * 65, 1, "word length 65 exceeds the cap 64"),
], ids=["letter", "corner", "corner-type", "word-type", "length"])
def test_vertex_address_messages(word, corner, message):
    with pytest.raises(ValueError) as exc:
        VertexAddress(word, corner)
    assert str(exc.value) == message


def test_vertex_address_make_and_replace_check_as_the_constructor_does():
    v = VertexAddress("01", 2)
    assert v._replace(corner=0) == VertexAddress("01", 0) and type(v._replace()) is VertexAddress
    assert VertexAddress._make(("1", 1)) == VertexAddress("1", 1)
    with pytest.raises(ValueError, match="corner must be 0, 1 or 2, got 7"):
        v._replace(corner=7)
    with pytest.raises(ValueError, match="invalid letter '3' in word '3'"):
        VertexAddress._make(("3", 0))


def test_canonical_returns_a_canonical_address_itself():
    for v in (VertexAddress("0", 1), VertexAddress("", 2), VertexAddress("1020", 1)):
        assert v.canonical() is v
    respelled = VertexAddress("1", 0).canonical()
    assert type(respelled) is VertexAddress and respelled == ("0", 1)


@pytest.mark.parametrize("level,count", [(0, 3), (1, 6), (2, 15), (3, 42)])
def test_vertex_counts(level, count):
    assert len(all_vertices(level)) == count


def test_all_vertices_rejects_a_negative_level():
    with pytest.raises(ValueError, match=f"level must be between 0 and {VERTEX_LEVEL_MAX}, got -1"):
        all_vertices(-1)


def test_all_vertices_refuses_a_level_above_its_cap_before_any_work(monkeypatch):
    def no_word(index, length):
        raise AssertionError("a word was spelled before the level was checked")

    monkeypatch.setattr(core, "lex_word", no_word)
    with pytest.raises(ValueError, match=f"level must be between 0 and {VERTEX_LEVEL_MAX}, got 11"):
        all_vertices(VERTEX_LEVEL_MAX + 1)


def test_check_range_returns_the_value_or_names_it_in_one_form():
    assert [check_range("n", v, -1, 2) for v in (-1, 0, 2)] == [-1, 0, 2]
    for v in (-2, 3, 10**12):
        with pytest.raises(ValueError) as exc:
            check_range("--level", v, -1, 2)
        assert str(exc.value) == f"--level must be between -1 and 2, got {v}"


def test_check_letter_returns_the_letter_or_names_it_in_one_form():
    assert [check_letter("corner", v) for v in (0, 1, 2)] == [0, 1, 2]
    for v in (-1, 3, "1", None):
        with pytest.raises(ValueError) as exc:
            check_letter("axis", v)
        assert str(exc.value) == f"axis must be 0, 1 or 2, got {v!r}"


def _size_and_letter_calls():
    """(call, message) pairs that pass a non-``int`` size or letter, each in its range by value."""
    from gasketenergy import bvectors, derivatives, dynamics, harmonic, verify

    h, c, v = (Fraction(1), Fraction(0), Fraction(2)), (Fraction(1), Fraction(1), Fraction(1)), VertexAddress("0", 1)
    return {
        "enumerate_bvectors": (lambda: bvectors.enumerate_bvectors(2.5), "level must be between 0 and 64, got 2.5"),
        "level_routes": (lambda: bvectors.level_routes(1.5), "level must be between 0 and 64, got 1.5"),
        "harmonic_vertex_values": (lambda: harmonic.harmonic_vertex_values(h, 2.5),
                                   f"level must be between 0 and {VERTEX_LEVEL_MAX}, got 2.5"),
        "operator_norm_scan": (lambda: derivatives.operator_norm_scan(1.5), "m must be between 0 and 10, got 1.5"),
        "corner-float": (lambda: VertexAddress("01", 1.0), "corner must be 0, 1 or 2, got 1.0"),
        "corner-bool": (lambda: VertexAddress("01", True), "corner must be 0, 1 or 2, got True"),
        "axis_gap": (lambda: derivatives.axis_gap(c, "", 1.0), "axis must be 0, 1 or 2, got 1.0"),
        "circle_map": (lambda: dynamics.circle_map(1.0, 0.5), "letter must be 0, 1 or 2, got 1.0"),
        "apply_B": (lambda: dynamics.apply_B(1.0, (0.0, 0.0)), "letter must be 0, 1 or 2, got 1.0"),
        "satisfies_skew_condition": (lambda: harmonic.satisfies_skew_condition(h, 1.0),
                                     "axis must be 0, 1 or 2, got 1.0"),
        "basis_ratio": (lambda: derivatives.basis_ratio(1.0, v), "corner must be 0, 1 or 2, got 1.0"),
        "all_vertices": (lambda: all_vertices(1.5), f"level must be between 0 and {VERTEX_LEVEL_MAX}, got 1.5"),
        "angular_histogram": (lambda: dynamics.angular_histogram(2.5), "level must be between 0 and 16, got 2.5"),
        "monotone_left_right": (lambda: derivatives.monotone_left_right(2.5), "m must be between 0 and 12, got 2.5"),
        "scan_bounds": (lambda: bvectors.scan_bounds(2.5), "max_level must be between 0 and 15, got 2.5"),
        "scan_bounds-fraction": (lambda: bvectors.scan_bounds(Fraction(2)), "max_level must be between 0 and 15, got 2"),
        "jobs": (lambda: dynamics.angular_histogram(3, jobs=1.0), "jobs must be at least 1, got 1.0"),
        "max-depth": (lambda: verify.run_suites("core", max_depth=2.0, echo=print),
                      "--max-depth must be at least 1, got 2.0"),
    }


@pytest.mark.parametrize("name", list(_size_and_letter_calls()))
def test_sizes_and_letters_must_be_integers(monkeypatch, name):
    """A ``float``, ``bool`` or ``Fraction`` size or letter is refused at the call, with the
    message an out-of-range ``int`` gets, even where its value lies in range.  The tree walk
    is patched to fail, so a size that slips past its check cannot run forever."""
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(core, "_walk", no_walk)
    call, message = _size_and_letter_calls()[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_all_vertices_are_canonical():
    for v in all_vertices(3):
        assert v.canonical() == v


@given(words)
def test_mass_word_matrix_shrinks_total(word):
    """The total mass row (1,1,1) is reproduced by summing the three
    subdivided generators, so repeated words keep totals bounded."""
    m = word_matrix("mass", word)
    total = [2 * sum(row) for row in m]
    assert sum(total) <= 6
    assert sum(total) > 0
