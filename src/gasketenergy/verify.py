"""Invariant suites behind the ``verify`` command.

Each suite re-checks the properties its module promises - exact route
agreements, strict bounds, symmetry, self-similarity - at a size controlled
by ``max_depth``, printing one PASS/FAIL line per property.  Counterexample
words or vertices ride along in the line so a failure is immediately
reproducible.  All randomness is seeded; two runs print identical bytes.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterator

from . import bvectors as bv
from .core import (
    MASS_GENERATORS,
    REFINE_GENERATORS,
    REFINE_SCALED,
    VertexAddress,
    all_vertices,
    mat_mul,
    word_matrix,
)
from .harmonic import (
    BASIS,
    Harmonic,
    SymmetryKind,
    cell_energy,
    classify_symmetry,
    energy_inner,
    graph_energy,
    harmonic_vertex_values,
    level0_energy,
    measure_coeffs,
)
from .measures import (
    children_triple,
    children_triple_via_refine,
    cone_value,
    decompose_positive,
    find_negative_cell,
    is_positive,
    measure_of_cell,
    selfsim_identity_gap,
    total_mass,
)
from . import derivatives as dv

_SEED = 20240817

Check = tuple[str, bool, str]


def _words(up_to: int) -> Iterator[str]:
    for n in range(up_to + 1):
        for tup in itertools.product("012", repeat=n):
            yield "".join(tup)


def _rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def _rand_harmonic(rng: random.Random) -> Harmonic:
    return Harmonic(_rand_fraction(rng), _rand_fraction(rng), _rand_fraction(rng))


def _rand_positive_coeffs(rng: random.Random):
    # positive measures: nonnegative cone coordinates plus a positive bump
    while True:
        c = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(3))
        if is_positive(c) and total_mass(c) > 0:
            return c


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def core_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 6)

    bad = None
    count = 0
    for n in range(level + 1):
        for tup in itertools.product("012", repeat=n):
            w = "".join(tup)
            for corner in (0, 1, 2):
                v = VertexAddress(w, corner)
                c1 = v.canonical()
                count += 1
                if c1 != c1.canonical():
                    bad = v
    yield ("core.canonical-idempotent", bad is None,
           f"{count} spellings through level {level}" if bad is None else f"counterexample {bad}")

    bad = None
    for w in _words(level - 1 if level else 0):
        for i, j in itertools.permutations((0, 1, 2), 2):
            a = VertexAddress(w + str(i), j).canonical()
            b = VertexAddress(w + str(j), i).canonical()
            if a != b:
                bad = (w, i, j)
    yield ("core.junction-pairing", bad is None,
           "both spellings of every junction agree" if bad is None else f"counterexample {bad}")

    n = len(all_vertices(level))
    expect = (3 ** (level + 1) + 3) // 2
    yield ("core.vertex-count", n == expect, f"level {level}: {n} canonical vertices (expect {expect})")

    rng = random.Random(_SEED)
    bad = None
    for _ in range(200):
        u = "".join(rng.choice("012") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("012") for _ in range(rng.randint(0, 5)))
        for fam in ("mass", "refine"):
            if word_matrix(fam, u + v) != mat_mul(word_matrix(fam, u), word_matrix(fam, v)):
                bad = (fam, u, v)
    yield ("core.word-matrix-product", bad is None,
           "200 random splits, both families" if bad is None else f"counterexample {bad}")

    ok = True
    for j, gen in enumerate(REFINE_GENERATORS):
        cols = tuple(gen[0][c] + gen[1][c] + gen[2][c] for c in range(3))
        ok = ok and all(cols[c] == (1 if c == j else 0) for c in range(3))
        ok = ok and all(
            gen[r][c] * 75 == REFINE_SCALED[j][r][c] for r in range(3) for c in range(3)
        )
    total = tuple(
        sum(MASS_GENERATORS[j][r][c] for j in range(3) for r in range(3)) for c in range(3)
    )
    ok = ok and total == (Fraction(1), Fraction(1), Fraction(1))
    yield ("core.generator-structure", ok,
           "refine columns sum to the letter vector; subdivided mass columns sum to 1")


def harmonic_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 5)
    rng = random.Random(_SEED + 1)

    bad = None
    for _ in range(50):
        h = _rand_harmonic(rng)
        e0 = level0_energy(h)
        for m in range(1, level + 1):
            if graph_energy(harmonic_vertex_values(h, m), m) != e0:
                bad = (h, m)
    yield ("harmonic.renormalized-energy-constant", bad is None,
           f"50 random harmonics, levels 1..{level}" if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(500):
        u, v = _rand_harmonic(rng), _rand_harmonic(rng)
        if 2 * sum(measure_coeffs(u, v)) != energy_inner(u, v):
            bad = (u, v)
    yield ("harmonic.bilinear-total", bad is None,
           "500 random pairs: twice the coefficient sum is the energy pairing"
           if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(30):
        h = _rand_harmonic(rng)
        for w in _words(min(level, 3)):
            whole = cell_energy(h, w)
            parts = sum(cell_energy(h, w + str(j)) for j in range(3))
            if whole != parts:
                bad = (h, w)
    yield ("harmonic.cell-additivity", bad is None,
           "cell energy splits exactly over the three children"
           if bad is None else f"counterexample {bad}")

    ok = classify_symmetry(Harmonic.of(1, 1, 1)).kind is SymmetryKind.CONSTANT
    ok = ok and classify_symmetry(Harmonic.of(1, 0, 0)).kind is SymmetryKind.SYMMETRIC
    ok = ok and classify_symmetry(Harmonic.of(0, 1, -1)).kind is SymmetryKind.SKEW
    ok = ok and classify_symmetry(Harmonic.of(0, 1, 3)).kind is SymmetryKind.NONE
    for _ in range(100):
        c = _rand_fraction(rng)
        a = _rand_fraction(rng)
        if a != 0:
            ok = ok and classify_symmetry(Harmonic.of(c, c + a, c - a)).kind is SymmetryKind.SKEW
    yield ("harmonic.symmetry-classes", ok, "frozen and random triples classify as expected")


def measures_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 5)
    rng = random.Random(_SEED + 2)
    coeff_sets = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ] + [tuple(_rand_fraction(rng) for _ in range(3)) for _ in range(5)]

    bad = None
    for c in coeff_sets:
        for w in _words(level):
            if children_triple(c, w) != children_triple_via_refine(c, w):
                bad = (c, w)
    yield ("measures.cross-route", bad is None,
           f"mass and refine routes agree through level {level}"
           if bad is None else f"counterexample {bad}")

    bad = None
    for i, h in enumerate(BASIS):
        for w in _words(min(level, 4)):
            e = tuple(Fraction(1 if k == i else 0) for k in range(3))
            if measure_of_cell(e, w) != cell_energy(h, w):
                bad = (i, w)
    yield ("measures.energy-oracle", bad is None,
           "cell masses equal restricted harmonic energies"
           if bad is None else f"counterexample {bad}")

    bad = None
    for c in coeff_sets:
        for w in _words(level - 1 if level else 0):
            if measure_of_cell(c, w) != sum(measure_of_cell(c, w + str(j)) for j in range(3)):
                bad = (c, w)
    yield ("measures.additivity", bad is None,
           "cell mass splits exactly over children" if bad is None else f"counterexample {bad}")

    bad = None
    for w in _words(min(level, 4)):
        for j in range(3):
            if selfsim_identity_gap(w, j) != 0:
                bad = (w, j)
    yield ("measures.self-similar-identity", bad is None,
           "one-letter self-similarity gap vanishes" if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(500):
        h = _rand_harmonic(rng)
        c = measure_coeffs(h, h)
        if cone_value(c) != 0 or not is_positive(c):
            bad = h
    yield ("measures.single-harmonic-cone", bad is None,
           "500 random harmonics sit exactly on the cone boundary"
           if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(50):
        c = _rand_positive_coeffs(rng)
        if find_negative_cell(c, max_depth=min(level + 2, 7)) is not None:
            bad = c
    for _ in range(50):
        c = tuple(_rand_fraction(rng) for _ in range(3))
        if is_positive(c) or total_mass(c) <= 0:
            continue
        w = find_negative_cell(c, max_depth=10)
        if w is None or measure_of_cell(c, w) >= 0:
            bad = c
    yield ("measures.positivity-scan", bad is None,
           "positive triples have no negative cell; exterior ones yield a witness"
           if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(100):
        c = _rand_positive_coeffs(rng)
        t, p, q = decompose_positive(c)
        mix = tuple(t * pi + (1 - t) * qi for pi, qi in zip(p, q))
        err = max(abs(float(mi) - float(ci)) for mi, ci in zip(mix, c))
        onb = max(abs(float(cone_value(p))), abs(float(cone_value(q))))
        if err > 1e-9 or onb > 1e-9 or not 0 <= t <= 1:
            bad = (c, err, onb)
    yield ("measures.boundary-decomposition", bad is None,
           "positive triples split into two boundary pieces"
           if bad is None else f"counterexample {bad}")


def derivatives_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 6)
    rng = random.Random(_SEED + 3)
    basis = [tuple(Fraction(1 if k == i else 0) for k in range(3)) for i in range(3)]

    verts = all_vertices(level)
    bad = None
    for c in basis:
        for v in verts:
            if dv.rn_derivative(c, v) != dv.rn_derivative_via_refine(c, v):
                bad = (c, str(v))
    yield ("derivatives.route-equality", bad is None,
           f"both closed forms agree at {len(verts)} vertices"
           if bad is None else f"counterexample {bad}")

    bad = None
    for w in _words(level - 1 if level else 0):
        for i, j in itertools.permutations((0, 1, 2), 2):
            for c in basis:
                a = dv._derivative_raw(c, w + str(i), j)
                b = dv._derivative_raw(c, w + str(j), i)
                if a != b:
                    bad = (w, i, j)
    yield ("derivatives.junction-two-sided", bad is None,
           "junction value agrees from both cell sides"
           if bad is None else f"counterexample {bad}")

    bad = None
    for v in verts:
        vals = [dv.basis_ratio(i, v) for i in range(3)]
        if sum(vals) != 1 or any(x < 0 or x > 1 for x in vals):
            bad = str(v)
    yield ("derivatives.basis-partition", bad is None,
           "the three basis derivatives are in [0,1] and sum to 1"
           if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(20):
        c = _rand_positive_coeffs(rng)
        s = dv.scan_extrema(c, "", min(level, 6))
        if not (s.maximum < Fraction(2, 3) * sum(c)) or s.minimum < 0:
            bad = c
    prev = None
    for d in range(1, min(level, 6) + 1):
        s = dv.scan_extrema(basis[0], "", d)
        if prev is not None and (s.minimum > prev[0] or s.maximum < prev[1]):
            bad = ("monotone-depth", d)
        prev = (s.minimum, s.maximum)
    yield ("derivatives.scan-bounds", bad is None,
           "interior scans stay strictly below 2/3 of total mass"
           if bad is None else f"counterexample {bad}")

    bad = None
    for _ in range(200):
        h = _rand_harmonic(rng)
        for w in _words(min(level, 3)):
            g = dv.skew_energy_gap(h, w)
            if g < 0:
                bad = (h, w)
    h = Harmonic.of(0, 1, -1)  # skew about corner 0: the gap must vanish
    if dv.skew_energy_gap(h, "") != 0:
        bad = ("skew", h)
    yield ("derivatives.skew-gap-nonnegative", bad is None,
           "pairing gap >= 0 with equality on skew cells"
           if bad is None else f"counterexample {bad}")

    bad = None
    for j in range(3):
        prev_norm = None
        for n in range(1, 13):
            d = dv.rank1_deviation(j, n)
            if prev_norm is not None and d > prev_norm:
                bad = (j, n)
            prev_norm = d
        if prev_norm > Fraction(1, 1000):
            bad = (j, "slow")
    yield ("derivatives.rank1-convergence", bad is None,
           "scaled powers approach their rank-1 limits monotonically"
           if bad is None else f"counterexample {bad}")

    bad = None
    for m in range(min(max_depth + 4, 10) + 1):
        if dv.edge_margin("1" * m) != dv.edge_margin_closed_form(m):
            bad = m
    yield ("derivatives.margin-closed-form", bad is None,
           "all-1s margins match the three-rate closed form"
           if bad is None else f"counterexample m={bad}")


def bvectors_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 8)
    rng = random.Random(_SEED + 4)

    bad = None
    for w in _words(level):
        a = bv.b_from_mass(w)
        if a != bv.b_from_word(w) or a != bv.b_from_kusuoka(w) or sum(a) != 1:
            bad = w
    yield ("bvectors.three-routes", bad is None,
           f"all routes agree on every word through level {level}"
           if bad is None else f"counterexample {bad!r}")

    hit = bv.scan_bounds(min(max_depth + 2, 10))
    yield ("bvectors.strict-bounds", hit is None,
           f"0 < b_j < 2/3 and disk radius < 1/6 through level {min(max_depth + 2, 10)}"
           if hit is None else f"counterexample {hit!r}")

    bad = None
    coeff_sets = [tuple(Fraction(1 if k == i else 0) for k in range(3)) for i in range(3)]
    coeff_sets += [tuple(_rand_fraction(rng) for _ in range(3)) for _ in range(10)]
    for c in coeff_sets:
        for w in _words(min(level, 4)):
            if bv.weighted_average_gap(c, w) != 0:
                bad = (c, w)
    yield ("bvectors.averaging-identity", bad is None,
           "cell averages equal corner weighted averages, signed measures included"
           if bad is None else f"counterexample {bad}")

    bad = None
    prev = None
    for m in range(13):
        r = bv.disk_radius_sq(bv.closed_form_b(m))
        if r >= Fraction(1, 6) or (prev is not None and r <= prev):
            bad = m
        prev = r
        if bv.closed_form_b(m) != bv.b_from_mass("0" * min(m, 10)) and m <= 10:
            bad = m
    yield ("bvectors.sharpness-trend", bad is None,
           "repeated-0 radii increase strictly toward 1/6 and match the closed form"
           if bad is None else f"counterexample m={bad}")


def dynamics_suite(max_depth: int) -> Iterator[Check]:
    import numpy as np  # the float suite alone loads numpy

    from . import dynamics as dy

    rng = np.random.default_rng(_SEED + 5)

    worst = 0.0
    for j in range(3):
        for t in rng.uniform(-math.pi, math.pi, 3400):
            p = dy.apply_B(j, (math.cos(t), math.sin(t)))
            diff = abs(dy._wrap(math.atan2(p.y, p.x) - dy.circle_map(j, t)))
            worst = max(worst, diff)
    ok = worst < 1e-12
    shown = "below 1e-12" if ok else f"{worst:.2e}"  # the digits follow numpy's arctan2 path
    yield ("dynamics.circle-agreement", ok,
           f"disk and circle forms agree on the boundary (worst {shown})")

    pts = rng.uniform(-1, 1, (100000, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.0]
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    letters = rng.integers(0, 3, (5, x.size))
    for row in letters:
        for j in range(3):
            m = row == j
            x[m], y[m] = dy._apply_B_arrays(j, x[m], y[m])
    r = np.hypot(x, y) * dy.DISK_RADIUS_B
    worst = float(r.max())
    yield ("dynamics.disk-invariance", worst <= dy.DISK_RADIUS_B + 1e-12,
           f"{x.size} interior points stay inside after 5 random letters (max radius {worst:.12f})")

    a = rng.uniform(-1, 1, (10000, 2)) * 0.7
    b = a + rng.normal(0, 0.1, a.shape)
    keep = (np.hypot(*b.T) < 1.0) & (np.hypot(*(a - b).T) > 1e-6)
    a, b = a[keep], b[keep]
    ok = True
    for j in range(3):
        ax, ay = dy._apply_B_arrays(j, a[:, 0], a[:, 1])
        bx, by = dy._apply_B_arrays(j, b[:, 0], b[:, 1])
        ok = ok and bool(np.all(np.hypot(ax - bx, ay - by) > 0))
    yield ("dynamics.injectivity-witness", ok,
           f"{a.shape[0]} distinct pairs keep distinct images under every letter")

    ok = True
    for j, angles in enumerate(dy.BOUNDARY_FIXED_ANGLES):
        for t in angles:
            p = dy.apply_B(j, (math.cos(t), math.sin(t)))
            ok = ok and math.hypot(p.x - math.cos(t), p.y - math.sin(t)) < 1e-12
    interior = sum(dy.count_grid_fixed_points(j, 200) for j in range(3))
    yield ("dynamics.fixed-points", ok and interior == 0,
           "six boundary fixed points, none on a 200x200 interior grid")

    ok = True
    h = 1e-6
    for j in range(3):
        for t in np.linspace(-3.0, 3.0, 61):
            d = dy.circle_map_deriv(j, t)
            fd = (dy.circle_map(j, t + h) - dy.circle_map(j, t - h)) / (2 * h)
            if d <= 0 or (abs(abs(dy._wrap(t - dy._ROT[j])) - math.pi) > 0.05 and abs(d - fd) > 1e-8):
                ok = False
    yield ("dynamics.derivative-positive", ok,
           "boundary derivatives positive and matching finite differences")

    m = min(max_depth + 4, 9)
    hist = dy.angular_histogram(m, slices=99, arc="full")
    k = 33
    sym = hist.counts == tuple(np.roll(hist.counts, k)) and sum(hist.counts) == 3 ** m
    yield ("dynamics.histogram-symmetry", sym,
           f"level-{m} full-circle histogram exactly one-third-rotation symmetric")

    level = min(max_depth + 2, 8)
    words = ["".join(random.Random(_SEED + 6 + i).choices("012", k=level)) for i in range(100)]
    bad = None
    for w in words:
        exact = tuple(float(t) for t in bv.b_from_mass(w))
        p = dy.DiskPoint(0.0, 0.0)
        for ch in w:
            p = dy.apply_B(int(ch), p)
        if max(abs(a - e) for a, e in zip(p.to_b(), exact)) > 1e-10:
            bad = w
    yield ("dynamics.float-exact-agreement", bad is None,
           f"float recursion tracks exact weights at level {level} (100 words)"
           if bad is None else f"counterexample {bad!r}")


SUITES: dict[str, Callable[[int], Iterator[Check]]] = {
    "core": core_suite,
    "harmonic": harmonic_suite,
    "measures": measures_suite,
    "derivatives": derivatives_suite,
    "bvectors": bvectors_suite,
    "dynamics": dynamics_suite,
}


def run_suites(suite: str, max_depth: int = 4, echo: Callable[[str], None] = print) -> bool:
    """Run one named suite (or ``all``); return True iff every check passed."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    if max_depth < 1:
        raise ValueError(f"--max-depth must be at least 1, got {max_depth}")
    names = list(SUITES) if suite == "all" else [suite]
    all_ok = True
    for name in names:
        for check, ok, detail in SUITES[name](max_depth):
            tag = "PASS" if ok else "FAIL"
            echo(f"{tag}  {check}: {detail}")
            all_ok = all_ok and ok
    return all_ok
