"""The benchmark's four workloads and the independent checks of their outputs.

Every input comes from the ``random.Random`` the harness seeds with the
workload seed; the package only ever sees the generated words, coefficients
and boundary points.  Each check recomputes the op's result by a route that
shares no arithmetic with the route that was timed:

* cell masses and word matrices against harmonic extension
  (``harmonic.extend_to_cell`` / ``cell_energy``);
* derivatives against the limit row applied to the refine recursion
  (``measures.children_triple_via_refine``);
* weight triples route against route, and against ``enumerate_bvectors``;
* histograms against their exact point totals, jobs 1 against jobs 2;
* CLI stdout against the library value printed in the CLI's ``p/q float``
  form, and ``verify`` against an all-``PASS`` transcript.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from harness import FRACTION_PROBE, SPAWN_PROBE, Lib, Op, SpeedProbe, expect, perf_counter

from gasketenergy.core import MASS_GENERATORS, REFINE_GENERATORS, VertexAddress
from gasketenergy.derivatives import LIMIT_ROWS
from gasketenergy.harmonic import BASIS, Harmonic, measure_coeffs
from gasketenergy.measures import KUSUOKA

ROOT = Path(__file__).resolve().parents[1]
LETTERS = "012"

#: Package functions the benchmark calls, by the dotted name its per-layer
#: metrics use.  ``harmonic.*`` and ``children_triple_via_refine`` are only
#: called by the checks.
FUNCTIONS = (
    "core.word_matrix",
    "harmonic.extend_to_cell",
    "harmonic.cell_energy",
    "measures.measure_of_cell",
    "measures.find_negative_cell",
    "measures.children_triple_via_refine",
    "derivatives.rn_derivative",
    "derivatives.rn_derivative_via_mass",
    "derivatives.scan_extrema",
    "derivatives.edge_profile",
    "bvectors.b_from_mass",
    "bvectors.b_from_word",
    "bvectors.b_from_kusuoka",
    "bvectors.enumerate_bvectors",
    "bvectors.scan_bounds",
    "dynamics.angular_histogram",
    "dynamics.radial_histogram",
    "dynamics.boundary_orbit_histogram",
    "dynamics.invariant_density_residual",
    "cli.main",
    "verify.run_suites",
)

CLI_COMMANDS = (
    "measure", "derivative", "bvector", "bvector-level", "edge-profile",
    "ifs-angular", "ifs-radial", "ifs-orbit", "verify",
)

VERIFY_SUITES = ("core", "harmonic", "measures", "derivatives", "bvectors", "dynamics")


def library_table() -> dict[str, Callable[..., Any]]:
    """Name -> package function.  Generators are drained inside the call so
    the traced busy time covers the work."""
    table: dict[str, Callable[..., Any]] = {}
    for name in FUNCTIONS:
        module, attr = name.rsplit(".", 1)
        table[name] = getattr(importlib.import_module("gasketenergy." + module), attr)
    enumerate_bvectors = table["bvectors.enumerate_bvectors"]
    table["bvectors.enumerate_bvectors"] = lambda m: list(enumerate_bvectors(m))
    return table


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def rand_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(n))


def rand_q(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_coeffs(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    return (rand_q(rng), rand_q(rng), rand_q(rng))


def in_cone(c) -> bool:
    """Positive-measure cone, restated: a0a1 + a1a2 + a0a2 >= 0 and sum >= 0."""
    return c[0] * c[1] + c[1] * c[2] + c[0] * c[2] >= 0 and c[0] + c[1] + c[2] >= 0


def rand_positive(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        c = rand_coeffs(rng)
        if in_cone(c) and sum(c) > 0:
            return c


def skew_boundary_coeffs(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Energy measure of a harmonic that is skew about a random corner.

    It sits on the cone boundary and its derivative vanishes at that corner,
    so nudging it outside the cone makes negative cells appear only several
    levels down, next to the corner.
    """
    a, d = rand_q(rng, 5), rand_q(rng, 5) or Fraction(1)
    axis = rng.randrange(3)
    v = [Fraction(0)] * 3
    v[axis], v[(axis + 1) % 3], v[(axis + 2) % 3] = a, a + d, a - d
    h = Harmonic(*v)
    return measure_coeffs(h, h)


# ---------------------------------------------------------------------------
# independent routes used by the checks
# ---------------------------------------------------------------------------

def _dot(u, v) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _mat_vec(m, v):
    return (_dot(m[0], v), _dot(m[1], v), _dot(m[2], v))


def _solve(m, v):
    """Cramer's rule for a 3x3 rational system."""
    def det(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    d = det(m)
    cols = []
    for c in range(3):
        a = [list(row) for row in m]
        for r in range(3):
            a[r][c] = v[r]
        cols.append(det(a) / d)
    return tuple(cols)


_LEVEL1 = (Fraction(2), Fraction(2), Fraction(2))
_UNIT = tuple(tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3))

# Probe vectors that turn a word product into masses of cells no longer than
# the word itself (so the check works at the 64-letter cap):
#   mass:   M(p x) G_x^-1 G_j (2,2,2) = masses of cell p j under the 3 corners
#   refine: R(p x) R_x^-1 L(e_i)      = child masses of cell reversed(p) under e_i
_MASS_PROBE = tuple(
    tuple(_solve(MASS_GENERATORS[x], _mat_vec(MASS_GENERATORS[j], _LEVEL1)) for j in range(3))
    for x in range(3)
)
_REFINE_PROBE = tuple(
    tuple(
        _solve(REFINE_GENERATORS[x], tuple(Fraction(2, 5) * (1 + 2 * e[k]) for k in range(3)))
        for e in _UNIT
    )
    for x in range(3)
)


def child_energies(lib: Lib, q: str):
    """``e[i][j]`` = mass of cell ``q + j`` under corner measure i, by
    harmonic extension to ``q`` and one more level (word length stays |q|+1)."""
    scale = Fraction(5, 3) ** len(q)
    out = []
    for h in BASIS:
        hq = lib("harmonic.extend_to_cell", h, q)
        out.append(tuple(scale * lib("harmonic.cell_energy", hq, str(j)) for j in range(3)))
    return out


def mass_by_energy(lib: Lib, c, word: str) -> Fraction:
    return sum(c[i] * lib("harmonic.cell_energy", BASIS[i], word) for i in range(3))


def derivative_by_refine(lib: Lib, c, vertex: VertexAddress) -> Fraction:
    v = vertex.canonical()
    row = LIMIT_ROWS[v.corner]
    num = _dot(row, lib("measures.children_triple_via_refine", c, v.word))
    den = _dot(row, lib("measures.children_triple_via_refine", KUSUOKA, v.word))
    return num / den


def check_weight(b) -> None:
    """Unit sum, strict bounds 0 < b_j < 2/3 and squared radius < 1/6."""
    expect(sum(b) == 1, f"weights {b} do not sum to 1")
    expect(all(0 < x < Fraction(2, 3) for x in b), f"weights {b} leave (0, 2/3)")
    expect(sum((x - Fraction(1, 3)) ** 2 for x in b) < Fraction(1, 6), f"weights {b} leave the disk")


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length inside a nested output."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, (tuple, list)):
        return max((max_bits(x) for x in obj), default=0)
    return 0


def edge_vertex(word: str, j: int, k: int, x: Fraction) -> VertexAddress:
    """Vertex at dyadic position ``x`` in (0, 1) along edge j -> k of a cell:
    halve the edge toward the half that holds ``x`` until it is the midpoint."""
    while x != Fraction(1, 2):
        if x < Fraction(1, 2):
            word, x = word + str(j), 2 * x
        else:
            word, x = word + str(k), 2 * x - 1
    return VertexAddress(word + str(j), k)


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------

POINT_LENGTHS = (8, 32, 64)


def _word_matrix_op(family: str, w: str) -> Op:
    def run(lib):
        return lib("core.word_matrix", family, w)

    def check(lib, out):
        x, p = int(w[-1]), w[:-1]
        if family == "mass":
            e = child_energies(lib, p)
            for j in range(3):
                expect(_mat_vec(out, _MASS_PROBE[x][j]) == tuple(e[i][j] for i in range(3)),
                       f"mass product of {w!r} disagrees with cell energies")
        else:
            e = child_energies(lib, p[::-1])
            for i in range(3):
                expect(_mat_vec(out, _REFINE_PROBE[x][i]) == e[i],
                       f"refine product of {w!r} disagrees with cell energies")
        lib.note_max("exact.max_bits", max_bits(out))

    return Op(f"word_matrix_{family}.{len(w)}", run, check)


def _measure_op(c, w: str) -> Op:
    def run(lib):
        return lib("measures.measure_of_cell", c, w)

    def check(lib, out):
        expect(out == mass_by_energy(lib, c, w), f"measure_of_cell{c, w} != sum c_i cell_energy")
        lib.note_max("exact.max_bits", max_bits(out))

    return Op(f"measure.{len(w)}", run, check)


def _derivative_op(c, v: VertexAddress) -> Op:
    def run(lib):
        return (lib("derivatives.rn_derivative", c, v),
                lib("derivatives.rn_derivative_via_mass", c, v))

    def check(lib, out):
        a, b = out
        expect(a == b, f"derivative routes disagree at {v}")
        expect(a == derivative_by_refine(lib, c, v), f"derivative at {v} != limit row on refine triple")
        lib.note_max("exact.max_bits", max_bits(out))

    return Op(f"derivative.{len(v.word)}", run, check)


def _bvector_op(w: str) -> Op:
    def run(lib):
        return (lib("bvectors.b_from_mass", w), lib("bvectors.b_from_word", w),
                lib("bvectors.b_from_kusuoka", w))

    def check(lib, out):
        expect(out[0] == out[1] == out[2], f"weight routes disagree at {w!r}")
        check_weight(out[0])
        lib.note_max("exact.max_bits", max_bits(out))

    return Op(f"bvector.{len(w)}", run, check)


def point_round(rng: random.Random, tiny: bool) -> list[Op]:
    """One query of each kind at each word length, in seeded order."""
    lengths = (2, 3, 4) if tiny else POINT_LENGTHS
    ops = []
    for n in lengths:
        ops.append(_word_matrix_op("mass", rand_word(rng, n)))
        ops.append(_word_matrix_op("refine", rand_word(rng, n)))
        ops.append(_measure_op(rand_coeffs(rng), rand_word(rng, n)))
        ops.append(_derivative_op(rand_coeffs(rng), VertexAddress(rand_word(rng, n), rng.randrange(3))))
        ops.append(_bvector_op(rand_word(rng, n)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# level_scans
# ---------------------------------------------------------------------------

def _extrema_op(rng: random.Random, depth: int) -> Op:
    c, word = rand_positive(rng), rand_word(rng, 2)
    sample = []
    while len(sample) < 16:
        u, corner = rand_word(rng, rng.randint(1, depth)), rng.randrange(3)
        if u != str(corner) * len(u):
            sample.append(VertexAddress(word + u, corner))

    def run(lib):
        return lib("derivatives.scan_extrema", c, word, depth)

    def check(lib, out):
        expect(out.minimum <= out.maximum, "minimum above maximum")
        expect(derivative_by_refine(lib, c, out.argmin) == out.minimum, "argmin does not attain the minimum")
        expect(derivative_by_refine(lib, c, out.argmax) == out.maximum, "argmax does not attain the maximum")
        for v in sample:
            expect(out.minimum <= derivative_by_refine(lib, c, v) <= out.maximum,
                   f"derivative at {v} outside the scanned extrema")
        lib.note_max("exact.max_bits", max_bits((out.minimum, out.maximum)))

    return Op(f"scan_extrema.{depth}", run, check)


def _bounds_op(rng: random.Random, level: int) -> Op:
    sample = [rand_word(rng, rng.randint(1, level)) for _ in range(24)]

    def run(lib):
        return lib("bvectors.scan_bounds", level)

    def check(lib, out):
        expect(out is None, f"scan_bounds({level}) reports an offending word {out!r}")
        for w in sample:
            check_weight(lib("bvectors.b_from_word", w))

    return Op(f"scan_bounds.{level}", run, check)


NEGATIVE_DEPTH = 10


def _negative_op(rng: random.Random, exterior: bool) -> Op:
    c0 = skew_boundary_coeffs(rng)
    nudge = sum(c0) / 10**6
    c = tuple(x - nudge if exterior else x + nudge for x in c0)
    sample = [rand_word(rng, rng.randint(1, NEGATIVE_DEPTH)) for _ in range(6)]

    def run(lib):
        return lib("measures.find_negative_cell", c, NEGATIVE_DEPTH)

    def check(lib, out):
        if not exterior:
            expect(in_cone(c), "interior coefficients left the cone")
            expect(out is None, f"negative cell {out!r} reported for a positive measure")
            for w in sample:
                expect(mass_by_energy(lib, c, w) >= 0, f"cell {w!r} of a positive measure is negative")
            return
        expect(out is not None, "no negative cell found outside the cone")
        expect(mass_by_energy(lib, c, out) < 0, f"cell {out!r} is not negative")
        for n in range(len(out)):
            expect(mass_by_energy(lib, c, out[:n]) >= 0, f"prefix {out[:n]!r} is already negative")

    return Op("find_negative_cell." + ("exterior" if exterior else "interior"), run, check)


def _enumerate_op(level: int) -> Op:
    def run(lib):
        pairs = lib("bvectors.enumerate_bvectors", level)
        return (pairs, [lib("bvectors.b_from_mass", w) for w, _ in pairs],
                [lib("bvectors.b_from_kusuoka", w) for w, _ in pairs])

    def check(lib, out):
        pairs, by_mass, by_kusuoka = out
        words = ["".join(t) for t in itertools.product(LETTERS, repeat=level)]
        expect([w for w, _ in pairs] == words, f"level {level} words out of order")
        for (w, b), bm, bk in zip(pairs, by_mass, by_kusuoka):
            expect(b == bm == bk, f"weight routes disagree at {w!r}")
        lib.note_max("exact.max_bits", max_bits(out[1:]))

    return Op(f"enumerate_bvectors.{level}", run, check)


def _edge_op(rng: random.Random, depth: int) -> Op:
    c, word = rand_coeffs(rng), rand_word(rng, 2)
    j, k = rng.sample(range(3), 2)
    n = 1 << depth
    sample = sorted(rng.sample(range(1, n), min(32, n - 1)))

    def run(lib):
        return lib("derivatives.edge_profile", c, word, (j, k), depth)

    def check(lib, out):
        expect([p for p, _ in out] == [Fraction(i, n) for i in range(n + 1)], "edge positions wrong")
        expect(out[0][1] == derivative_by_refine(lib, c, VertexAddress(word, j)), "first endpoint wrong")
        expect(out[n][1] == derivative_by_refine(lib, c, VertexAddress(word, k)), "last endpoint wrong")
        for i in sample:
            v = edge_vertex(word, j, k, Fraction(i, n))
            expect(out[i][1] == derivative_by_refine(lib, c, v), f"edge value at {i}/{n} wrong")
        lib.note_max("exact.max_bits", max_bits(out))

    return Op(f"edge_profile.{depth}", run, check)


def level_round(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        return [_extrema_op(rng, 2), _bounds_op(rng, 3), _negative_op(rng, True),
                _negative_op(rng, False), _enumerate_op(2), _edge_op(rng, 2)]
    return [
        _extrema_op(rng, 8), _extrema_op(rng, 9), _extrema_op(rng, 10),
        _bounds_op(rng, 10), _bounds_op(rng, 11),
        _negative_op(rng, True), _negative_op(rng, False),
        _enumerate_op(4), _edge_op(rng, 8),
    ]


# ---------------------------------------------------------------------------
# disk_histograms
# ---------------------------------------------------------------------------

def _histogram_op(kind: str, size: int, jobs: int, seeds, twins: dict) -> Op:
    if kind == "angular":
        name, args, total = "dynamics.angular_histogram", dict(m=size), 3**size
    elif kind == "radial":
        name, args, total = "dynamics.radial_histogram", dict(m=size), 3**size
    else:
        name, args, total = "dynamics.boundary_orbit_histogram", dict(seeds=seeds, iters=size), len(seeds) * 3**size

    def run(lib):
        return lib(name, jobs=jobs, **args)

    def check(lib, out):
        expect(out.total == total, f"{kind} histogram holds {out.total} points, expected {total}")
        expect(len(out.counts) == len(out.bin_edges) - 1, f"{kind} histogram edges and counts mismatch")
        twin = twins.setdefault(kind, out.counts)
        expect(twin == out.counts, f"{kind} counts differ between jobs 1 and jobs 2")
        lib.note_count("dynamics.points_binned", out.total)

    return Op(f"{kind}.jobs{jobs}", run, check)


def residual_by_hand(values: list[float]) -> float:
    """Sup distance of a sampled circle density from its transfer image, in
    plain floats: the three pullbacks weighted by 3/(5 - 4cos(t - offset)),
    linear interpolation between samples."""
    n = len(values)
    turn = 2 * math.pi

    def sample(x: float) -> float:
        pos = (x % turn) / turn * n
        i = int(pos)
        frac = pos - i
        return values[i % n] * (1 - frac) + values[(i + 1) % n] * frac

    worst = 0.0
    for i in range(n):
        t = turn * i / n
        image = 0.0
        for offset in (0.0, turn / 3, -turn / 3):
            u = t - offset
            pre = 2 * math.atan2(3 * math.sin(u / 2), math.cos(u / 2)) + offset
            image += sample(pre) * 3 / (5 - 4 * math.cos(u))
        worst = max(worst, abs(values[i] - image / 3))
    return worst


def _residual_op(rng: random.Random, samples: int) -> Op:
    values = [rng.uniform(0.5, 1.5) for _ in range(samples)]

    def run(lib):
        return lib("dynamics.invariant_density_residual", values)

    def check(lib, out):
        expected = residual_by_hand(values)
        expect(math.isclose(out, expected, rel_tol=1e-9, abs_tol=1e-12),
               f"density residual {out!r}, expected {expected!r}")

    return Op("density_residual", run, check)


def disk_round(rng: random.Random, tiny: bool) -> list[Op]:
    """Each histogram at jobs 1 and jobs 2 on fresh boundary seeds, plus one
    transfer-operator residual: seven kinds, so the median latency falls
    inside one kind rather than between two."""
    angles = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
    seeds = tuple((math.cos(a), math.sin(a)) for a in angles)
    sizes = {"angular": 5, "radial": 4, "orbit": 4} if tiny else {"angular": 15, "radial": 14, "orbit": 14}
    twins: dict = {}
    ops = [_histogram_op(kind, size, jobs, seeds, twins) for kind, size in sizes.items() for jobs in (1, 2)]
    ops.append(_residual_op(rng, 30 if tiny else 300))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_commands
# ---------------------------------------------------------------------------

def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fmt(x: Fraction) -> str:
    return f"{x} {float(x)!r}"


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


@dataclass
class CliResult:
    argv: list[str]
    code: int
    out: str
    err: str
    wall_s: float


def _cli_op(command: str, argv: list[str], check_out: Callable[[Lib, str], None]) -> Op:
    env = cli_env()

    def run(lib):
        def spawn():
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "gasketenergy.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
            return CliResult(argv, proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0)
        return lib.timed("cli." + command, spawn)

    def check(lib, res):
        expect(res.code == 0, f"exit {res.code}: {res.err.strip()}")
        check_out(lib, res.out)

    return Op(command, run, check)


def _coeff_arg(c) -> str:
    return "--coeffs=" + ",".join(str(x) for x in c)


def _cli_measure(rng, n):
    c, w = rand_coeffs(rng), rand_word(rng, n)

    def check(lib, out):
        value = mass_by_energy(lib, c, w)
        expect(out == _fmt(value) + "\n", f"measure printed {out!r}, expected {value}")
        lib.note_max("exact.max_bits", max_bits(value))

    return _cli_op("measure", ["measure", _coeff_arg(c), "--word", w], check)


def _cli_derivative(rng, n):
    c, v = rand_coeffs(rng), VertexAddress(rand_word(rng, n), rng.randrange(3))

    def check(lib, out):
        value = derivative_by_refine(lib, c, v)
        expect(out == _fmt(value) + " routes-agree\n", f"derivative printed {out!r}, expected {value}")
        lib.note_max("exact.max_bits", max_bits(value))

    return _cli_op("derivative", ["derivative", _coeff_arg(c), "--vertex", str(v)], check)


def _bvector_lines(b) -> str:
    return ",".join(str(x) for x in b) + "\n" + ",".join(repr(float(x)) for x in b) + "\n"


def _cli_bvector(rng, n):
    w = rand_word(rng, n)

    def check(lib, out):
        b = lib("bvectors.b_from_word", w)
        expect(out == _bvector_lines(b), f"bvector printed {out!r}")
        lib.note_max("exact.max_bits", max_bits(b))

    return _cli_op("bvector", ["bvector", "--word", w], check)


def _cli_bvector_level(level):
    def check(lib, out):
        rows = _csv_rows(out)
        words = ["".join(t) for t in itertools.product(LETTERS, repeat=level)]
        expect(len(rows) == len(words) + 1, "bvector --level row count wrong")
        for w, row in zip(words, rows[1:]):
            b = lib("bvectors.b_from_mass", w)
            expect(",".join(row) + "\n" == w + "," + _bvector_lines(b).replace("\n", ",", 1),
                   f"bvector --level row for {w!r} wrong")

    return _cli_op("bvector-level", ["bvector", "--level", str(level)], check)


def _cli_edge(rng, depth):
    c = rand_coeffs(rng)
    n = 1 << depth

    def check(lib, out):
        rows = _csv_rows(out)
        expect(rows[0] == ["position", "position_float", "value", "value_float"], "edge CSV header")
        expect(len(rows) == n + 2, "edge CSV row count")
        for i, row in enumerate(rows[1:]):
            x = Fraction(i, n)
            v = (VertexAddress("", 1) if i == 0 else VertexAddress("", 2) if i == n
                 else edge_vertex("", 1, 2, x))
            value = derivative_by_refine(lib, c, v)
            expect(row == [str(x), repr(float(x)), str(value), repr(float(value))],
                   f"edge CSV row {i} is {row}")

    return _cli_op("edge-profile", ["edge-profile", _coeff_arg(c), "--depth", str(depth)], check)


def _cli_histogram(command: str, argv: list[str], bins: int, total: int):
    def check(lib, out):
        rows = _csv_rows(out)
        expect(len(rows) == bins + 1, f"{command} CSV has {len(rows) - 1} bins, expected {bins}")
        counted = sum(int(row[2]) for row in rows[1:])
        expect(counted == total, f"{command} CSV holds {counted} points, expected {total}")
        lib.note_count("dynamics.points_binned", counted)

    return _cli_op(command, argv, check)


def _cli_verify(suite: str, depth: int):
    def check(lib, out):
        lines = out.splitlines()
        expect(bool(lines) and all(line.startswith("PASS ") for line in lines),
               "verify printed a line that is not PASS")

    return _cli_op("verify", ["verify", "--suite", suite, "--max-depth", str(depth)], check)


def cli_round(rng: random.Random, tiny: bool) -> list[Op]:
    """The README command set, one subprocess at a time, verify last."""
    if tiny:
        return [
            _cli_measure(rng, 3), _cli_derivative(rng, 3), _cli_bvector(rng, 3),
            _cli_bvector_level(2), _cli_edge(rng, 2),
            _cli_histogram("ifs-angular", ["ifs", "angular", "--level", "4", "--slices", "10"], 10, 3**4),
            _cli_histogram("ifs-radial", ["ifs", "radial", "--level", "3", "--bins", "10"], 10, 3**3),
            _cli_histogram("ifs-orbit", ["ifs", "orbit", "--iters", "3", "--bins", "10"], 10, 3 * 3**3),
            _cli_verify("core", 1),
        ]
    ops = [_cli_measure(rng, n) for n in (8, 32, 8, 32, 8)]
    ops += [_cli_derivative(rng, n) for n in (8, 32, 8, 32, 8)]
    ops += [_cli_bvector(rng, n) for n in (8, 32, 8, 32)]
    ops += [
        _cli_bvector_level(4),
        _cli_edge(rng, 6),
        _cli_histogram("ifs-angular", ["ifs", "angular", "--level", "13", "--slices", "100", "--arc", "third"],
                       100, 3**13),
        _cli_histogram("ifs-radial", ["ifs", "radial", "--level", "11", "--bins", "300"], 300, 3**11),
        _cli_histogram("ifs-orbit", ["ifs", "orbit", "--iters", "14", "--bins", "800", "--arc", "sixth"],
                       800, 3 * 3**14),
        _cli_verify("all", 3),
    ]
    return ops


def cli_in_process(lib: Lib, outputs: list[tuple[Op, Any]]) -> dict[str, float]:
    """Re-run each traced command through ``cli.main`` in this process.

    ``cli.startup_s`` is the median of subprocess wall time minus in-process
    time for the same argv.  ``verify --suite all`` runs here one suite at a
    time through ``verify.run_suites``, which also gives ``verify.<suite>``.
    """
    startup = []
    for _, res in outputs:
        if res is None:
            continue
        sink = io.StringIO()
        t0 = perf_counter()
        if res.argv[0] == "verify":
            suite, depth = res.argv[2], int(res.argv[4])
            for name in (VERIFY_SUITES if suite == "all" else (suite,)):
                lib("verify.run_suites", name, depth, echo=lambda line: None, span="verify." + name)
        else:
            with contextlib.redirect_stdout(sink):
                lib("cli.main", res.argv)
        startup.append(res.wall_s - (perf_counter() - t0))
    return {"cli.startup_s": statistics.median(startup) if startup else 0.0}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random, bool], list[Op]]
    #: Latency tail percentile; a run keeps going until ten samples lie beyond it.
    tail_pct: float
    #: Rounds in each pass of a traced run (fixed work, so busy times compare).
    trace_rounds: int
    #: Modules a fresh interpreter imports before the first op (``setup_s``).
    imports: tuple[str, ...]
    #: Host-speed probe whose speed follows these ops most closely.
    probe: SpeedProbe
    #: Extra traced work after the traced pass, returning extra per-layer metrics.
    trace_extra: Callable[[Lib, list[tuple[Op, Any]]], dict[str, float]] = lambda lib, outputs: {}


EXACT_MODULES = ("gasketenergy.core", "gasketenergy.harmonic", "gasketenergy.measures",
                 "gasketenergy.derivatives", "gasketenergy.bvectors")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("point_queries",
                 "independent per-cell queries on random words of length 8/32/64 with no deliberate prefix "
                 "sharing, so it costs raw Fraction word products",
                 point_round, 99.0, 40, EXACT_MODULES, FRACTION_PROBE),
        Workload("level_scans",
                 "whole-tree exact scans and level enumerations that reuse every prefix: where "
                 "prefix sharing and integer row steps show",
                 level_round, 75.0, 3, EXACT_MODULES, FRACTION_PROBE),
        Workload("disk_histograms",
                 "float-only disk and circle histograms at jobs 1 and 2; the exact layers do no "
                 "work here",
                 disk_round, 65.0, 2, ("gasketenergy.dynamics",), SPAWN_PROBE),
        Workload("cli_commands",
                 "the README command set as subprocesses ending with verify: start-up, parsing, "
                 "formatting and the verify suites",
                 cli_round, 70.0, 1, ("gasketenergy.cli",), SPAWN_PROBE, cli_in_process),
    )
}
