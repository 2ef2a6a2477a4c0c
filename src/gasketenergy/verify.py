"""Invariant suites behind the ``verify`` command.

Each suite re-checks the properties its module promises - exact route
agreements, strict bounds, symmetry, self-similarity - at a size controlled
by ``max_depth``, printing one PASS/FAIL line per property.  A failing
check reports its first offending word, vertex or triple in scan order, and
its scan stops there, so a failure is immediately reproducible.  Each suite
seeds its own randomness, so two runs print identical bytes, and ``all`` can
run its suites in up to min(6, CPU count) processes, printed suite by suite.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

from . import bvectors as bv, fan_out, worker_count
from .core import (
    MASS_GENERATORS,
    REFINE_GENERATORS,
    REFINE_SCALED,
    VertexAddress,
    all_vertices,
    mat_mul,
    walk_level,
    word_matrix,
)
from .harmonic import (
    BASIS,
    Harmonic,
    SymmetryKind,
    cell_energy,
    classify_symmetry,
    graph_energy,
    harmonic_vertex_values,
    level0_energy,
    measure_coeffs,
    total_energy_identity,
)
from .measures import (
    BASIS_COEFFS,
    children_row_via_refine,
    children_triple,
    children_triple_via_refine,
    cone_value,
    decompose_positive,
    find_negative_cell,
    is_positive,
    measure_of_cell,
    refine_step,
    selfsim_identity_gap,
    total_mass,
)
from . import derivatives as dv

_SEED = 20240817

Check = tuple[str, bool, str]


def _check(name: str, detail: str, failures: Iterable[object]) -> Check:
    """PASS with ``detail`` when ``failures`` yields nothing, else FAIL with
    its first item as the counterexample; the scan stops at that item."""
    for first in failures:
        return (name, False, f"counterexample {first}")
    return (name, True, detail)


def _words(up_to: int) -> Iterator[str]:
    return ("".join(t) for n in range(up_to + 1) for t in itertools.product("012", repeat=n))


def _rand_word(rng: random.Random, up_to: int) -> str:
    return "".join(rng.choice("012") for _ in range(rng.randint(0, up_to)))


def _rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def _rand_coeffs(rng: random.Random):
    return tuple(_rand_fraction(rng) for _ in range(3))


def _harmonics(rng: random.Random, n: int) -> Iterator[Harmonic]:
    return (Harmonic(*_rand_coeffs(rng)) for _ in range(n))


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

    spellings = (VertexAddress(w, k) for w in _words(level) for k in (0, 1, 2))
    yield _check("core.canonical-idempotent",
                 f"{3 * (3 ** (level + 1) - 1) // 2} spellings through level {level}",
                 (v for v in spellings if (c := v.canonical()) != c.canonical()))

    yield _check("core.junction-pairing", "both spellings of every junction agree",
                 ((w, i, j) for w in _words(max(level - 1, 0))
                  for i, j in itertools.permutations((0, 1, 2), 2)
                  if VertexAddress(w + str(i), j).canonical()
                  != VertexAddress(w + str(j), i).canonical()))

    n = len(all_vertices(level))
    expect = (3 ** (level + 1) + 3) // 2
    yield _check("core.vertex-count", f"level {level}: {n} canonical vertices (expect {expect})",
                 [level] if n != expect else [])

    rng = random.Random(_SEED)
    splits = ((_rand_word(rng, 5), _rand_word(rng, 5)) for _ in range(200))
    yield _check("core.word-matrix-product", "200 random splits, both families",
                 ((fam, u, v) for u, v in splits for fam in ("mass", "refine")
                  if word_matrix(fam, u + v) != mat_mul(word_matrix(fam, u), word_matrix(fam, v))))

    mass_sums = [sum(g[r][c] for g in MASS_GENERATORS for r in range(3)) for c in range(3)]
    yield _check("core.generator-structure",
                 "refine columns sum to the letter vector; subdivided mass columns sum to 1",
                 itertools.chain(
                     (("refine", j, c) for j, g in enumerate(REFINE_GENERATORS) for c in range(3)
                      if g[0][c] + g[1][c] + g[2][c] != int(c == j)
                      or any(g[r][c] * 75 != REFINE_SCALED[j][r][c] for r in range(3))),
                     (("mass", c) for c in range(3) if mass_sums[c] != 1)))


def harmonic_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 5)
    rng = random.Random(_SEED + 1)

    yield _check("harmonic.renormalized-energy-constant", f"50 random harmonics, levels 1..{level}",
                 ((h, m) for h in _harmonics(rng, 50) for m in range(1, level + 1)
                  if graph_energy(harmonic_vertex_values(h, m), m) != level0_energy(h)))

    draws = _harmonics(rng, 1000)
    yield _check("harmonic.bilinear-total",
                 "500 random pairs: twice the coefficient sum is the energy pairing",
                 (pair for pair in zip(draws, draws) if not total_energy_identity(*pair)))

    yield _check("harmonic.cell-additivity", "cell energy splits exactly over the three children",
                 ((h, w) for h in _harmonics(rng, 30) for w in _words(min(level, 3))
                  if cell_energy(h, w) != sum(cell_energy(h, w + str(j)) for j in range(3))))

    frozen = [((1, 1, 1), SymmetryKind.CONSTANT), ((1, 0, 0), SymmetryKind.SYMMETRIC),
              ((0, 1, -1), SymmetryKind.SKEW), ((0, 1, 3), SymmetryKind.NONE)]
    shifts = ((_rand_fraction(rng), _rand_fraction(rng)) for _ in range(100))
    skew = [((c, c + a, c - a), SymmetryKind.SKEW) for c, a in shifts if a != 0]
    yield _check("harmonic.symmetry-classes", "frozen and random triples classify as expected",
                 (h for h, kind in frozen + skew if classify_symmetry(Harmonic.of(*h)).kind is not kind))


def measures_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 5)
    rng = random.Random(_SEED + 2)
    coeff_sets = list(BASIS_COEFFS) + [_rand_coeffs(rng) for _ in range(5)]

    yield _check("measures.cross-route", f"mass and refine routes agree through level {level}",
                 ((c, w) for c in coeff_sets for w in _words(level)
                  if children_triple(c, w) != children_triple_via_refine(c, w)))

    yield _check("measures.energy-oracle", "cell masses equal restricted harmonic energies",
                 ((i, w) for i in range(3) for w in _words(min(level, 4))
                  if measure_of_cell(BASIS_COEFFS[i], w) != cell_energy(BASIS[i], w)))

    yield _check("measures.additivity", "cell mass splits exactly over children",
                 ((c, w) for c in coeff_sets for w in _words(max(level - 1, 0))
                  if measure_of_cell(c, w) != sum(measure_of_cell(c, w + str(j)) for j in range(3))))

    yield _check("measures.self-similar-identity", "one-letter self-similarity gap vanishes",
                 ((w, j) for w in _words(min(level, 4)) for j in range(3)
                  if selfsim_identity_gap(w, j) != 0))

    yield _check("measures.single-harmonic-cone",
                 "500 random harmonics sit exactly on the cone boundary",
                 (h for h in _harmonics(rng, 500)
                  if cone_value(c := measure_coeffs(h, h)) != 0 or not is_positive(c)))

    def positivity_misses():
        for _ in range(50):  # the refine route's cell masses, which no cone test decides
            c = _rand_positive_coeffs(rng)
            kids = walk_level(min(level + 1, 6), children_row_via_refine(c, "")[0], refine_step)
            if find_negative_cell(c, min(level + 2, 7)) is not None or any(min(x) < 0 for _, x in kids):
                yield c
        for c in (_rand_coeffs(rng) for _ in range(50)):
            if not is_positive(c) and total_mass(c) > 0:
                w = find_negative_cell(c, max_depth=10)
                if w is None or measure_of_cell(c, w) >= 0:
                    yield c
    yield _check("measures.positivity-scan",
                 "positive triples have no negative cell; exterior ones yield a witness",
                 positivity_misses())

    def split_misses():
        for _ in range(100):
            c = _rand_positive_coeffs(rng)
            t, p, q = decompose_positive(c)
            mix = tuple(t * pi + (1 - t) * qi for pi, qi in zip(p, q))
            err = max(abs(float(mi) - float(ci)) for mi, ci in zip(mix, c))
            onb = max(abs(float(cone_value(p))), abs(float(cone_value(q))))
            if err > 1e-9 or onb > 1e-9 or not 0 <= t <= 1:
                yield (c, err, onb)
    yield _check("measures.boundary-decomposition",
                 "positive triples split into two boundary pieces", split_misses())


def derivatives_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 6)
    rng = random.Random(_SEED + 3)

    verts = sorted(all_vertices(level))
    yield _check("derivatives.route-equality", f"both closed forms agree at {len(verts)} vertices",
                 ((c, str(v)) for c in BASIS_COEFFS for v in verts
                  if dv.rn_derivative(c, v) != dv.rn_derivative_via_refine(c, v)))

    yield _check("derivatives.junction-two-sided", "junction value agrees from both cell sides",
                 ((w, i, j) for w in _words(max(level - 1, 0))
                  for i, j in itertools.permutations((0, 1, 2), 2) for c in BASIS_COEFFS
                  if dv._derivative_raw(c, w + str(i), j) != dv._derivative_raw(c, w + str(j), i)))

    yield _check("derivatives.basis-partition",
                 "the three basis derivatives are in [0,1] and sum to 1",
                 (str(v) for v in verts
                  if sum(d := [dv.basis_ratio(i, v) for i in range(3)]) != 1
                  or min(d) < 0 or max(d) > 1))

    def scan_misses():
        for _ in range(20):
            c = _rand_positive_coeffs(rng)
            s = dv.scan_extrema(c, "", min(level, 6))
            if not (s.maximum < Fraction(2, 3) * sum(c)) or s.minimum < 0:
                yield c
        scans = [dv.scan_extrema(BASIS_COEFFS[0], "", d) for d in range(1, min(level, 6) + 1)]
        yield from (("monotone-depth", d) for d, s, t in zip(itertools.count(2), scans, scans[1:])
                    if t.minimum > s.minimum or t.maximum < s.maximum)
    yield _check("derivatives.scan-bounds",
                 "interior scans stay strictly below 2/3 of total mass", scan_misses())

    def gap_misses():
        for h in _harmonics(rng, 200):
            c = measure_coeffs(h, h)  # skew_energy_gap(h, w) for every w, sharing one c
            yield from ((h, w) for w in _words(min(level, 3)) if dv.axis_gap(c, w, 0) < 0)
        h = Harmonic.of(0, 1, -1)  # skew about corner 0: the gap must vanish
        if dv.skew_energy_gap(h, "") != 0:
            yield ("skew", h)
    yield _check("derivatives.skew-gap-nonnegative",
                 "pairing gap >= 0 with equality on skew cells", gap_misses())

    def rank1_misses():
        for j in range(3):
            devs = [dv.rank1_deviation(j, n) for n in range(1, 13)]
            yield from ((j, n) for n in range(2, 13) if devs[n - 1] > devs[n - 2])
            if devs[-1] > Fraction(1, 1000):
                yield (j, "slow")
    yield _check("derivatives.rank1-convergence",
                 "scaled powers approach their rank-1 limits monotonically", rank1_misses())

    yield _check("derivatives.margin-closed-form",
                 "all-1s margins match the three-rate closed form",
                 (f"m={m}" for m in range(min(max_depth + 4, 10) + 1)
                  if dv.edge_margin("1" * m) != dv.edge_margin_closed_form(m)))


def bvectors_suite(max_depth: int) -> Iterator[Check]:
    level = min(max_depth, 8)
    rng = random.Random(_SEED + 4)

    yield _check("bvectors.three-routes", f"all routes agree on every word through level {level}",
                 (repr(w) for w in _words(level)
                  if (b := bv.b_from_mass(w)) != bv.b_from_word(w)
                  or b != bv.b_from_kusuoka(w) or sum(b) != 1))

    depth = min(max_depth + 2, 10)
    yield _check("bvectors.strict-bounds",
                 f"0 < b_j < 2/3 and disk radius < 1/6 through level {depth}",
                 (repr(hit) for hit in [bv.scan_bounds(depth)] if hit is not None))

    coeff_sets = list(BASIS_COEFFS) + [_rand_coeffs(rng) for _ in range(10)]
    yield _check("bvectors.averaging-identity",
                 "cell averages equal corner weighted averages, signed measures included",
                 ((c, w) for c in coeff_sets for w in _words(min(level, 4))
                  if bv.weighted_average_gap(c, w) != 0))

    def trend_misses():
        prev = None
        for m in range(13):
            r = bv.disk_radius_sq(bv.closed_form_b(m))
            if (r >= Fraction(1, 6) or (prev is not None and r <= prev)
                    or m <= 10 and bv.closed_form_b(m) != bv.b_from_mass("0" * m)):
                yield f"m={m}"
            prev = r
    yield _check("bvectors.sharpness-trend",
                 "repeated-0 radii increase strictly toward 1/6 and match the closed form",
                 trend_misses())


def dynamics_suite(max_depth: int) -> Iterator[Check]:
    import numpy as np  # the float suite alone loads numpy

    from . import dynamics as dy

    rng = np.random.default_rng(_SEED + 5)

    angles = [rng.uniform(-math.pi, math.pi, 3400) for _ in range(3)]

    def circle_misses():
        for j, t in enumerate(angles):
            x, y = dy._apply_B_arrays(j, np.cos(t), np.sin(t))
            diff = np.arctan2(y, x) - dy._circle_map_array(j, t)
            diff = np.remainder(diff + math.pi, dy.TWO_PI) - math.pi  # wrapped into [-pi, pi)
            yield from ((j, float(t[i])) for i in (~(np.abs(diff) < 1e-12)).nonzero()[0])
    yield _check("dynamics.circle-agreement",
                 "disk and circle forms agree on the boundary (worst below 1e-12)", circle_misses())

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
    yield _check("dynamics.disk-invariance",
                 f"{x.size} interior points stay inside after 5 random letters (max radius {worst:.12f})",
                 ((int(i), "".join(map(str, letters[:, i])))
                  for i in (~(r <= dy.DISK_RADIUS_B + 1e-12)).nonzero()[0]))

    a = rng.uniform(-1, 1, (10000, 2)) * 0.7
    b = a + rng.normal(0, 0.1, a.shape)
    keep = (np.hypot(*b.T) < 1.0) & (np.hypot(*(a - b).T) > 1e-6)
    a, b = a[keep], b[keep]

    def collisions():
        for j in range(3):
            ax, ay = dy._apply_B_arrays(j, a[:, 0], a[:, 1])
            bx, by = dy._apply_B_arrays(j, b[:, 0], b[:, 1])
            yield from ((j, int(i)) for i in (~(np.hypot(ax - bx, ay - by) > 0)).nonzero()[0])
    yield _check("dynamics.injectivity-witness",
                 f"{a.shape[0]} distinct pairs keep distinct images under every letter", collisions())

    def unfixed():
        for j, fixed in enumerate(dy.BOUNDARY_FIXED_ANGLES):
            for t in fixed:
                p = dy.apply_B(j, (math.cos(t), math.sin(t)))
                if not math.hypot(p.x - math.cos(t), p.y - math.sin(t)) < 1e-12:
                    yield (j, t)
        for j in range(3):
            if n := dy.count_grid_fixed_points(j, 200):
                yield (j, "grid", n)
    yield _check("dynamics.fixed-points", "six boundary fixed points, none on a 200x200 interior grid",
                 unfixed())

    def bad_slopes():
        for j in range(3):
            for t in np.linspace(-3.0, 3.0, 61):
                d = dy.circle_map_deriv(j, t)
                fd = (dy.circle_map(j, t + 1e-6) - dy.circle_map(j, t - 1e-6)) / 2e-6
                wraps = abs(abs(dy._wrap(t - dy._ROT[j])) - math.pi) <= 0.05  # image crosses +-pi
                if not (d > 0 and (wraps or abs(d - fd) <= 1e-8)):
                    yield (j, float(t))
    yield _check("dynamics.derivative-positive",
                 "boundary derivatives positive and matching finite differences", bad_slopes())

    m = min(max_depth + 4, 9)
    hist = dy.angular_histogram(m, slices=99, arc="full")
    k = 33
    sym = hist.counts == tuple(np.roll(hist.counts, k)) and sum(hist.counts) == 3 ** m
    yield _check("dynamics.histogram-symmetry",
                 f"level-{m} full-circle histogram exactly one-third-rotation symmetric",
                 [m] if not sym else [])

    level = min(max_depth + 2, 8)
    words = ["".join(random.Random(_SEED + 6 + i).choices("012", k=level)) for i in range(100)]

    def drifts():
        for w in words:
            exact = tuple(float(t) for t in bv.b_from_mass(w))
            p = dy.DiskPoint(0.0, 0.0)
            for ch in w:
                p = dy.apply_B(int(ch), p)
            if max(abs(a - e) for a, e in zip(p.to_b(), exact)) > 1e-10:
                yield repr(w)
    yield _check("dynamics.float-exact-agreement",
                 f"float recursion tracks exact weights at level {level} (100 words)", drifts())


SUITES: dict[str, Callable[[int], Iterator[Check]]] = {
    "core": core_suite,
    "harmonic": harmonic_suite,
    "measures": measures_suite,
    "derivatives": derivatives_suite,
    "bvectors": bvectors_suite,
    "dynamics": dynamics_suite,
}


def _suite_checks(max_depth: int, name: str) -> list[Check]:
    return list(SUITES[name](max_depth))


def run_suites(suite: str, max_depth: int = 4, echo: Callable[[str], None] = print) -> bool:
    """Run one named suite (or ``all``); return True iff every check passed.  Given more
    CPUs than one, ``all`` runs in min(6, CPU count) processes and echoes suite by suite."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    if max_depth < 1:
        raise ValueError(f"--max-depth must be at least 1, got {max_depth}")
    names = list(SUITES) if suite == "all" else [suite]
    workers = worker_count(len(SUITES), len(names), os.cpu_count())
    all_ok = True
    # no name holds the pool's iterator, so an echo that raises closes the pool at once
    for checks in (fan_out(partial(_suite_checks, max_depth), names, workers) if workers > 1
                   else (SUITES[name](max_depth) for name in names)):
        for check, ok, detail in checks:
            tag = "PASS" if ok else "FAIL"
            echo(f"{tag}  {check}: {detail}")
            all_ok = all_ok and ok
    return all_ok
