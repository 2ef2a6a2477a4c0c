"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test is self-timed against its runtime budget and uses fixed seeds, so
the whole module is deterministic.  Everything rational is compared exactly;
float work appears only where the quantities themselves are floats.
"""

import csv
import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from gasketenergy import bvectors as bv
from gasketenergy import derivatives as dv
from gasketenergy import dynamics as dy
from gasketenergy.core import MASS_SCALED, VertexAddress, all_vertices
from gasketenergy.harmonic import BASIS, Harmonic, cell_energy, measure_coeffs
from gasketenergy.measures import (
    KUSUOKA,
    children_triple,
    children_triple_via_refine,
    cone_value,
    find_negative_cell,
    measure_of_cell,
)
from subprocess_env import python_env

ONE, ZERO = Fraction(1), Fraction(0)
E = [
    (ONE, ZERO, ZERO),
    (ZERO, ONE, ZERO),
    (ZERO, ZERO, ONE),
]
TWO_THIRDS = Fraction(2, 3)


def words_through(level):
    yield ""
    for n in range(1, level + 1):
        for tup in itertools.product("012", repeat=n):
            yield "".join(tup)


def test_criterion_01_exact_masses():
    start = time.monotonic()
    assert measure_of_cell(KUSUOKA, "") == 6
    for i in range(3):
        assert measure_of_cell(E[i], "") == 2
        for j in range(3):
            expect = Fraction(6, 5) if i == j else Fraction(2, 5)
            assert measure_of_cell(E[i], str(j)) == expect
    assert time.monotonic() - start < 1.0


def test_criterion_02_cross_route_equality():
    start = time.monotonic()
    for i in range(3):
        for w in words_through(5):
            assert children_triple(E[i], w) == children_triple_via_refine(E[i], w), (i, w)
            assert measure_of_cell(E[i], w) == cell_energy(BASIS[i], w), (i, w)
    assert time.monotonic() - start < 30.0


def test_criterion_03_derivative_boundary_and_routes():
    start = time.monotonic()
    for i in range(3):
        for j in range(3):
            expect = TWO_THIRDS if i == j else Fraction(1, 6)
            assert dv.rn_derivative(E[i], VertexAddress("", j)) == expect

    vertices = all_vertices(6)
    for c in E:
        for v in vertices:
            assert dv.rn_derivative(c, v) == dv.rn_derivative_via_refine(c, v), str(v)

    for w in words_through(5):
        for i, j in itertools.permutations((0, 1, 2), 2):
            for c in E:
                left = dv._derivative_raw(c, w + str(i), j)
                right = dv._derivative_raw(c, w + str(j), i)
                assert left == right, (w, i, j)
    assert time.monotonic() - start < 60.0


def test_criterion_04_midpoint_values():
    assert dv.rn_derivative(E[0], VertexAddress("1", 2)) == 0
    assert dv._derivative_raw(E[0], "1", 2) == 0
    assert dv._derivative_raw(E[0], "2", 1) == 0
    assert dv._derivative_raw(E[0], "0", 1) == Fraction(1, 2)
    assert dv._derivative_raw(E[0], "1", 0) == Fraction(1, 2)


def test_criterion_05_scan_bounds_depth_ten():
    start = time.monotonic()
    minima = []
    for depth in range(1, 11):
        s = dv.scan_extrema(E[0], "", depth)
        minima.append(s.minimum)
        assert s.maximum < TWO_THIRDS, depth
    assert minima[-1] < Fraction(1, 1000)
    for a, b in zip(minima, minima[1:]):
        assert b <= a
    assert time.monotonic() - start < 120.0


def test_criterion_06_positivity_cone():
    start = time.monotonic()
    rng = random.Random(61_803)

    for _ in range(500):
        h = Harmonic(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        assert cone_value(measure_coeffs(h, h)) == 0

    # every cell mass vector through level 7, carried as one integer
    # matrix product per word
    svecs = [(2, 2, 2)]
    mats = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _ in range(7):
        nxt = []
        for p in mats:
            for g in MASS_SCALED:
                q = tuple(
                    tuple(sum(p[r][t] * g[t][c] for t in range(3)) for c in range(3))
                    for r in range(3)
                )
                nxt.append(q)
                svecs.append(tuple(2 * (row[0] + row[1] + row[2]) for row in q))
        mats = nxt

    interior = []
    while len(interior) < 500:
        c = tuple(Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(3))
        if cone_value(c) > 0 and sum(c) > 0:
            interior.append(c)
    for c in interior:
        den = math.lcm(*(x.denominator for x in c))
        ci = tuple(int(x * den) for x in c)
        for s in svecs:
            assert ci[0] * s[0] + ci[1] * s[1] + ci[2] * s[2] >= 0, (c, s)

    exterior = []
    while len(exterior) < 100:
        c = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        if cone_value(c) < 0 and sum(c) > 0:
            exterior.append(c)
    for c in exterior:
        w = find_negative_cell(c, max_depth=10)
        assert w is not None, c
        assert measure_of_cell(c, w) < 0, (c, w)
    assert time.monotonic() - start < 120.0


def test_criterion_07_three_route_weights():
    start = time.monotonic()
    for m in range(9):
        for word, b in bv.enumerate_bvectors(m):
            assert bv.b_from_mass(word) == b, word
            assert bv.b_from_kusuoka(word) == b, word
    for m in range(11):
        expect = bv.closed_form_b(m)
        assert bv.b_from_mass("0" * m) == expect, m
        assert expect[0] == TWO_THIRDS - Fraction(2, 3 * (3 ** (2 * m) + 1))
    assert time.monotonic() - start < 120.0


def test_criterion_08_strict_weight_bounds():
    # full enumeration through level 10 covers (and exceeds) the sampled check
    assert bv.scan_bounds(10) is None


def test_criterion_09_repeated_one_suite():
    for m in range(11):
        assert dv.edge_margin("1" * m) == dv.edge_margin_closed_form(m), m

    norms = [dv.operator_norm_scan(m) for m in range(9)]
    assert max(norms) < Fraction(7, 4)
    print(f"scaled refine-norm max through level 8: {max(norms)} ~ {float(max(norms)):.9f}")

    for m in range(1, 11):
        assert dv.monotone_left_right(m), (
            f"left-to-right ordering of the base-edge cell masses fails at depth {m}: "
            "the all-1s corner cell keeps the inflated mass rate, so its value "
            "exceeds its right neighbour's from depth 3 on"
        )


def test_criterion_10_decay_rates():
    generic = dv.decay_sequence(KUSUOKA, "", 0, 30)
    ratio = generic.values[30] / generic.values[29]
    assert abs(ratio - Fraction(3, 5)) < Fraction(1, 10**9)

    degenerate = dv.decay_sequence(E[0], "1", 2, 30)
    ratio = degenerate.values[30] / degenerate.values[29]
    assert abs(ratio - Fraction(1, 15)) < Fraction(1, 10**9)


def test_criterion_11_dynamics_exactness():
    for j, pair in enumerate(dy.BOUNDARY_FIXED_ANGLES):
        for t in pair:
            assert abs(dy._wrap(dy.circle_map(j, t) - t)) < 1e-12
            p = dy.apply_B(j, (math.cos(t), math.sin(t)))
            assert math.hypot(p.x - math.cos(t), p.y - math.sin(t)) < 1e-12

    rng = np.random.default_rng(20_26)
    thetas = rng.uniform(-math.pi, math.pi, 10_000)
    for j in range(3):
        px, py = dy._disk_map(j, np.cos(thetas), np.sin(thetas))
        diff = np.arctan2(py, px) - dy._circle_map_array(j, thetas)
        worst = np.abs(np.remainder(diff + math.pi, 2 * math.pi) - math.pi).max()
        assert worst < 1e-12

    pts = rng.uniform(-1.0, 1.0, (150_000, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.0][:100_000]
    assert len(pts) == 100_000
    radii = np.hypot(pts[:, 0], pts[:, 1]) * dy.DISK_RADIUS_B
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    for j in range(3):
        worst = max(
            dy.gamma_residual(r, t, j)
            for r, t in zip(radii[:33_334].tolist(), angles[:33_334].tolist())
        )
        assert worst < 1e-12

    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    for row in rng.integers(0, 3, (5, x.size)):
        for j in range(3):
            mask = row == j
            x[mask], y[mask] = dy._disk_map(j, x[mask], y[mask])
    assert float(np.hypot(x, y).max()) <= 1.0 + 1e-12


def test_criterion_12_figure_reproduction(tmp_path):
    angular_csv = tmp_path / "angular13.csv"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "gasketenergy.cli", "ifs", "angular",
         "--level", "13", "--output", str(angular_csv)],
        capture_output=True, text=True, env=python_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 300.0
    with angular_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_lo_rad", "bin_hi_rad", "count", "mean_one_density"]
    counts = [int(r[2]) for r in rows[1:]]
    values = [float(r[3]) for r in rows[1:]]
    assert sum(counts) == 3 ** 13
    assert abs(sum(values) / len(values) - 1.0) < 1e-9

    orbit_csv = tmp_path / "orbit14.csv"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "gasketenergy.cli", "ifs", "orbit",
         "--iters", "14", "--bins", "800", "--output", str(orbit_csv)],
        capture_output=True, text=True, env=python_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 300.0
    with orbit_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][3] == "mean_one_density"
    counts = [int(r[2]) for r in rows[1:]]
    values = [float(r[3]) for r in rows[1:]]
    assert len(counts) == 800
    assert sum(counts) == 3 * 3 ** 14
    assert abs(sum(values) / len(values) - 1.0) < 1e-9

    full = dy.angular_histogram(13, slices=99, arc="full")
    assert full.counts == tuple(np.roll(full.counts, 33))

    def outer_decile(m):
        h = dy.radial_histogram(m, bins=300)
        return sum(h.counts[270:]) / sum(h.counts)

    deciles = [outer_decile(m) for m in range(10, 15)]
    for a, b in zip(deciles, deciles[1:]):
        assert b > a, deciles

    density = dy.density_from_angular(dy.angular_histogram(13, slices=100, arc="third"))
    level13 = dy.invariant_density_residual(np.asarray(density))
    uniform = dy.invariant_density_residual(np.ones(len(density)))
    assert level13 < uniform
