"""Command-line surface: output shapes, exit codes, determinism, imports."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gasketenergy
from gasketenergy import bvectors as bv
from gasketenergy import cli
from gasketenergy import core
from gasketenergy import derivatives as dv
from gasketenergy import dynamics as dy
from gasketenergy import measures as ms
from gasketenergy import verify
from gasketenergy.cli import main
from subprocess_env import python_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_whole_set(capsys):
    code, out, _ = run(capsys, "measure", "--coeffs", "1,1,1", "--word", "")
    assert code == 0
    assert out == "6 6.0\n"


def test_measure_examples(capsys):
    code, out, _ = run(capsys, "measure", "--coeffs", "1,0,0", "--word", "0")
    assert code == 0 and out.split()[0] == "6/5"
    code, out, _ = run(capsys, "measure", "--coeffs", "1,1,1", "--word", "00")
    assert code == 0 and out.split()[0] == "82/75"


def test_measure_accepts_rational_coefficients(capsys):
    code, out, _ = run(capsys, "measure", "--coeffs", "1/2,0,0", "--word", "")
    assert code == 0 and out.split()[0] == "1"


@pytest.mark.parametrize("coeffs", ["1e100,0,0", "0.5,0,0"])
def test_measure_rejects_coefficients_outside_the_grammar(capsys, coeffs):
    code, out, err = run(capsys, "measure", "--coeffs", coeffs, "--word", "0")
    assert code == 2 and out == ""
    assert err == f"error: not a rational literal p/q or p: {coeffs.split(',')[0]!r}\n"


@pytest.mark.parametrize("word", ["01", "2201"])
def test_measure_exits_three_on_a_wrong_refine_coefficient(capsys, monkeypatch, word):
    """The refine route shares nothing with the mass walk ``measure`` prints,
    so one wrong coefficient there exits 3 with nothing on stdout."""
    gens = [[list(row) for row in g] for g in ms.REFINE_SCALED]
    gens[0][1][1] += 1  # letter 0's step, read for child 1
    monkeypatch.setattr(ms, "REFINE_SCALED", tuple(tuple(map(tuple, g)) for g in gens))
    code, out, err = run(capsys, "measure", "--coeffs", "1,1,1", "--word", word)
    assert (code, out, err) == (3, "", f"routes-disagree at {word!r}\n")


def test_derivative_examples(capsys):
    for vertex, expect in ((":0", "2/3"), ("1:2", "0"), ("0:1", "1/2")):
        code, out, _ = run(capsys, "derivative", "--coeffs", "1,0,0", "--vertex", vertex)
        assert code == 0
        assert out.split()[0] == expect
        assert out.rstrip().endswith("routes-agree")


@pytest.mark.parametrize("argv", [
    ("measure", "--coeffs", "3,1,2", "--word", "20121"),
    ("derivative", "--coeffs", "3,1,2", "--vertex", "20121:0"),
    ("bvector", "--word", "20121"),
], ids=lambda argv: argv[0])
def test_a_wrong_stride_product_exits_three(capsys, monkeypatch, argv):
    """Each checked command reads the mass walk through the stride table,
    and its other route does not: one entry off by one in the product for
    "2012" exits 3 with nothing on stdout."""
    chunk = "20121"[:core.STRIDE]  # the word's first table product
    bent = [list(row) for row in core.MASS_STRIDE[chunk]]
    bent[0][0] += 1
    monkeypatch.setitem(core.MASS_STRIDE, chunk, tuple(map(tuple, bent)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("routes-disagree at ")


def test_derivative_routes_disagree_on_a_corrupted_walk(capsys, monkeypatch):
    """The second route does not read the integer row walk, so a fault there exits 3."""
    walk = dv.row_walk

    def corrupted(row, word, table=core.MASS_STRIDE):
        r0, r1, r2 = walk(row, word, table)
        return r0 + 1, r1, r2

    monkeypatch.setattr(dv, "row_walk", corrupted)
    code, out, err = run(capsys, "derivative", "--coeffs", "1,2,3", "--vertex", "01:2")
    assert code == 3 and out == ""
    assert err.startswith("routes-disagree at 01:2: ")


def test_bvector_single_word(capsys):
    code, out, _ = run(capsys, "bvector", "--word", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3/5,1/5,1/5"
    assert lines[1] == "0.6,0.2,0.2"


def test_bvector_each_method_agrees(capsys):
    code, out, _ = run(capsys, "bvector", "--word", "021")
    assert code == 0
    for route in (bv.b_from_mass, bv.b_from_word, bv.b_from_kusuoka):
        assert out.splitlines()[0] == ",".join(str(x) for x in route("021"))


def test_bvector_level_scan_csv(capsys):
    code, out, _ = run(capsys, "bvector", "--level", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,b0,b1,b2,b0_f,b1_f,b2_f"
    assert lines[1].startswith("00,27/41,7/41,7/41,")
    assert len(lines) == 10


def test_bvector_level_checks_the_triple_it_prints(capsys, monkeypatch):
    level_routes = bv.level_routes

    def corrupted(m):
        for word, (b, *others) in level_routes(m):
            yield word, ((b[0] + 1, b[1] - 1, b[2]) if word == "12" else b, *others)

    monkeypatch.setattr(bv, "level_routes", corrupted)
    code, out, err = run(capsys, "bvector", "--level", "2")
    assert code == 3 and out == ""
    assert err == "routes-disagree at '12'\n"


def _b_step_int_wrong_coefficient(p, j):
    k, l = (j + 1) % 3, (j + 2) % 3
    out = [0, 0, 0]
    out[j] = 8 * p[j]  # 9 in the recursion
    out[k] = 2 * p[j] + 2 * p[k] - p[l]
    out[l] = 2 * p[j] - p[k] + 2 * p[l]
    return tuple(out)


def _one_entry_off(gens, j):
    """``gens`` with entry (0, 0) of letter j's matrix raised by one."""
    g = [list(map(list, m)) for m in gens]
    g[j][0][0] += 1
    return tuple(tuple(map(tuple, m)) for m in g)


@pytest.mark.parametrize("route", ["recursion", "matrix", "kusuoka"])
def test_bvector_level_exits_three_on_a_wrong_coefficient_in_one_route(capsys, monkeypatch, route):
    """Each route's step is checked: a fault in any one of them, and only
    there, stops the scan before it prints."""
    if route == "recursion":
        monkeypatch.setattr(bv, "_b_step_int", _b_step_int_wrong_coefficient)
    elif route == "matrix":
        monkeypatch.setattr(bv, "MASS_SCALED", _one_entry_off(bv.MASS_SCALED, 1))
    else:
        monkeypatch.setattr(ms, "REFINE_SCALED", _one_entry_off(ms.REFINE_SCALED, 1))
    code, out, err = run(capsys, "bvector", "--level", "2")
    assert code == 3 and out == ""
    assert err.startswith("routes-disagree at '")


def test_bvector_has_no_method_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bvector", "--method", "all"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--method" in err


def test_bvector_word_and_level_together_exit_two_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("bvector did work with two conflicting flags")

    for name in ("b_from_mass", "b_from_word", "b_from_kusuoka", "enumerate_bvectors", "level_routes"):
        monkeypatch.setattr(bv, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(["bvector", "--word", "0", "--level", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--level" in err and "--word" in err


def test_bvector_word_writes_to_the_output_file(tmp_path, capsys):
    path = tmp_path / "b.csv"
    code, out, _ = run(capsys, "bvector", "--word", "01", "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == (Path(__file__).parent / "golden" / "bvector_01.out").read_bytes()


@pytest.mark.parametrize("argv", [
    ("edge-profile", "--coeffs", "1,0,0", "--depth", "2"),
    ("bvector", "--word", "01"),
    ("ifs", "orbit", "--iters", "1", "--bins", "6"),
], ids=lambda argv: argv[0])
def test_an_unwritable_output_path_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_edge_profile_csv(capsys):
    code, out, _ = run(capsys, "edge-profile", "--coeffs", "1,0,0", "--edge", "1,2", "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "position,position_float,value,value_float"
    assert lines[1] == "0,0.0,1/6,0.16666666666666666"
    assert lines[3] == "1/2,0.5,0,0.0"
    assert len(lines) == 6


def test_ifs_angular_csv_has_unit_header(capsys):
    code, out, _ = run(capsys, "ifs", "angular", "--level", "4", "--slices", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bin_lo_rad,bin_hi_rad,count,mean_one_density"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 3 ** 4


def test_ifs_radial_csv(capsys):
    code, out, _ = run(capsys, "ifs", "radial", "--level", "4", "--bins", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bin_lo_r,bin_hi_r,count,mass_ratio"
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert abs(sum(values) - 1.0) < 1e-12


def test_ifs_orbit_csv(capsys):
    code, out, _ = run(capsys, "ifs", "orbit", "--iters", "3", "--bins", "5")
    assert code == 0
    lines = out.splitlines()
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 3 * 3 ** 3


def test_ifs_svg_output(capsys):
    code, out, _ = run(capsys, "ifs", "angular", "--level", "3", "--slices", "9", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<rect") == 9 + 1  # one bar per bin plus the backdrop


def test_output_flag_writes_identical_bytes(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path, jobs in ((first, "1"), (second, "2")):
        code = main(["ifs", "angular", "--level", "7", "--slices", "30",
                     "--jobs", jobs, "--output", str(path)])
        capsys.readouterr()
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_repeated_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "ifs", "orbit", "--iters", "5", "--bins", "17")
    _, out2, _ = run(capsys, "ifs", "orbit", "--iters", "5", "--bins", "17")
    assert out1 == out2


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core", "--max-depth", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_reports_the_first_counterexample_and_exits_one(capsys, monkeypatch):
    real = verify.children_triple_via_refine

    def corrupted(c, word):
        x = real(c, word)
        return (x[0] + 1,) + x[1:] if word.startswith("1") else x

    monkeypatch.setattr(verify, "children_triple_via_refine", corrupted)
    code, out, _ = run(capsys, "verify", "--suite", "measures", "--max-depth", "2")
    assert code == 1
    first, *rest = out.splitlines()
    # the first failing (coefficients, word) pair in scan order, not the last
    assert first == ("FAIL  measures.cross-route: counterexample "
                     "((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), '1')")
    assert rest and all(line.startswith("PASS") for line in rest)


def test_verify_output_stops_changing_at_max_depth_8(capsys):
    """Every suite's scan depths reach their caps (10 at most) by ``--max-depth 8``."""
    assert run(capsys, "verify", "--max-depth", "8") == run(capsys, "verify", "--max-depth", "1000000")


def test_structure_and_symmetry_checks_name_their_first_counterexample(monkeypatch):
    monkeypatch.setattr(verify, "REFINE_SCALED", _one_entry_off(verify.REFINE_SCALED, 1))
    checks = {name: (ok, detail) for name, ok, detail in verify.core_suite(1)}
    assert checks["core.generator-structure"] == (False, "counterexample ('refine', 1, 0)")

    real = verify.classify_symmetry
    monkeypatch.setattr(verify, "classify_symmetry", lambda h: real(verify.Harmonic.of(0, 1, 3)))
    checks = {name: (ok, detail) for name, ok, detail in verify.harmonic_suite(1)}
    assert checks["harmonic.symmetry-classes"] == (False, "counterexample (1, 1, 1)")


def test_positivity_scan_reads_masses_the_cone_test_does_not_decide(monkeypatch):
    """``find_negative_cell`` answers a positive measure from its root cone
    test alone, so the scan checks the refine route's cell masses too: a
    letter-2 step with its sign flipped makes a positive triple fail."""
    real = verify._refine_step
    monkeypatch.setattr(verify, "_refine_step",
                        lambda x, j: tuple(-v for v in real(x, j)) if j == 2 else real(x, j))
    checks = {name: ok for name, ok, _ in verify.measures_suite(2)}
    assert checks["measures.positivity-scan"] is False


def test_vertex_count_names_its_level(monkeypatch):
    monkeypatch.setattr(verify, "all_vertices", lambda level: set())
    check = next(c for c in verify.core_suite(2) if c[0] == "core.vertex-count")
    assert check == ("core.vertex-count", False, "counterexample 2")


def test_circle_agreement_names_its_first_angle(capsys, monkeypatch):
    import numpy as np
    real = dy._circle_map_array
    monkeypatch.setattr(dy, "_circle_map_array", lambda j, t: real(j, t) + 1e-9)
    code, out, _ = run(capsys, "verify", "--suite", "dynamics", "--max-depth", "1")
    assert code == 1
    first = np.random.default_rng(verify._SEED + 5).uniform(-np.pi, np.pi)
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails[0] == f"FAIL  dynamics.circle-agreement: counterexample (0, {float(first)!r})"


def test_dynamics_checks_fail_on_nan(monkeypatch):
    import numpy as np

    real = dy._circle_map_array
    monkeypatch.setattr(dy, "_circle_map_array", lambda j, t: real(j, t) + np.where(t > 3, np.nan, 0))
    monkeypatch.setattr(dy, "circle_map_deriv", lambda j, t: math.nan)
    checks = {name: ok for name, ok, _ in verify.dynamics_suite(1)}
    assert not checks["dynamics.circle-agreement"]
    assert not checks["dynamics.derivative-positive"]


def test_cli_suite_names_are_the_verify_suites():
    assert gasketenergy.SUITE_NAMES == tuple(verify.SUITES)


def test_jobs_two_starts_a_pool(monkeypatch):
    import concurrent.futures

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # at iters 10 the 81 level-3 images of the 3 seeds make three counting tasks
    hist = dy.boundary_orbit_histogram(iters=10, bins=50, jobs=2)
    assert started == [2]
    assert hist == dy.boundary_orbit_histogram(iters=10, bins=50, jobs=1)
    assert started == [2]


def test_check_stops_at_the_first_counterexample():
    def failures():
        yield ("w", 0)
        raise AssertionError("the scan went past its first counterexample")

    assert verify._check("x.y", "fine", failures()) == ("x.y", False, "counterexample ('w', 0)")
    assert verify._check("x.y", "fine", iter(())) == ("x.y", True, "fine")


def test_bad_words_exit_two_with_the_routes_message(capsys):
    expect = "error: invalid letter '3' in word '03'\n"
    assert run(capsys, "measure", "--coeffs", "1,1,1", "--word", "03")[::2] == (2, expect)
    assert run(capsys, "bvector", "--word", "03") == (2, "", expect)
    code, _, err = run(capsys, "bvector", "--word", "0" * 65)
    assert code == 2 and err == "error: word length 65 exceeds the cap 64\n"


def test_parse_errors_exit_two(capsys):
    assert run(capsys, "measure", "--coeffs", "1,1", "--word", "")[0] == 2
    assert run(capsys, "measure", "--coeffs", "1,1,1", "--word", "03")[0] == 2
    assert run(capsys, "derivative", "--coeffs", "1,0,0", "--vertex", "nope")[0] == 2
    assert run(capsys, "edge-profile", "--coeffs", "1,0,0", "--edge", "1,1")[0] == 2


@pytest.mark.parametrize("vertex", ["1:\u0662", "01:0001", "01:\u00b2", "01:3", "01:", "01:1 "])
def test_derivative_takes_only_corner_0_1_or_2(capsys, vertex):
    """An Arabic-Indic two, a zero-padded one and a superscript two are not corners."""
    code, out, err = run(capsys, "derivative", "--coeffs", "1,0,0", "--vertex", vertex)
    assert (code, out) == (2, "")
    assert err == f"error: vertex address must look like '<word>:<corner 0, 1 or 2>', got {vertex!r}\n"


def test_unknown_flags_are_errors():
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--coeffs", "1,1,1", "--word", "", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_bvector_accepts_a_64_letter_word(capsys):
    word = ("2011021" * 10)[:64]
    code, out, err = run(capsys, "bvector", "--word", word)
    assert code == 0, err
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["edge-profile", "--coeffs", "1,0,0", "--depth", "40"],
    ["edge-profile", "--coeffs", "1,0,0", "--depth", "17"],
    ["edge-profile", "--coeffs", "1,0,0", "--depth", "0"],
    ["edge-profile", "--coeffs", "1,0,0", "--depth", "-3"],
    ["edge-profile", "--coeffs", "1,0,0", "--word", "0" * 60, "--depth", "5"],
    ["bvector", "--level", "13"],
    ["bvector", "--level", "40"],
    ["bvector", "--level", "-1"],
    ["ifs", "angular", "--slices", "10000000000"],
    ["ifs", "angular", "--level", "0", "--slices", "0"],
    ["ifs", "radial", "--bins", "100001"],
    ["ifs", "orbit", "--bins", "10000000000"],
    ["ifs", "angular", "--jobs", "0"],
    ["ifs", "radial", "--level", "0", "--jobs", "-1"],
    ["ifs", "orbit", "--jobs", "0"],
    ["verify", "--suite", "all", "--max-depth", "0"],
    ["verify", "--suite", "core", "--max-depth", "-3"],
])
def test_size_arguments_are_bounded_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("a histogram descended before its bounds were checked")

    monkeypatch.setattr(dy, "_descend", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_size_bounds_are_inclusive(capsys):
    code, out, _ = run(capsys, "edge-profile", "--coeffs", "1,0,0", "--word", "0" * 59, "--depth", "5")
    assert code == 0 and len(out.splitlines()) == 2**5 + 2
    code, out, _ = run(capsys, "bvector", "--level", "0")
    assert code == 0 and out.splitlines()[1].startswith(",1/3,1/3,1/3,")
    code, out, _ = run(capsys, "ifs", "radial", "--level", "1", "--bins", "100000")
    assert code == 0 and len(out.splitlines()) == 100000 + 1


def _python(*args, unbuffered=False, **kwargs):
    return subprocess.Popen([sys.executable, *args], env=python_env(unbuffered), **kwargs)


def _close_pipe_early(unbuffered):
    # about 240 kB of CSV, several pipe buffers
    proc = _python("-m", "gasketenergy.cli", "ifs", "angular", "--level", "8", "--slices", "5000",
                   unbuffered=unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"bin_lo_rad,")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_closed_pipe_exits_141_without_a_traceback():
    _close_pipe_early(unbuffered=False)


def test_bvector_word_to_a_closed_pipe_exits_141():
    """The two lines go through the same writer as the CSV commands."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start, so the first write fails
    proc = _python("-m", "gasketenergy.cli", "bvector", "--word", "01",
                   stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


def test_closed_unbuffered_pipe_exits_141():
    """Unbuffered stdout is a raw file that may take only part of a write;
    the output is not cut short silently with exit 0."""
    _close_pipe_early(unbuffered=True)


IMPORT_GUARD = """
import contextlib, io, sys
import gasketenergy.cli as cli
loaded = [m for m in ("numpy", "gasketenergy.dynamics", "concurrent.futures", "gasketenergy.core",
                      "gasketenergy.verify") if m in sys.modules]
assert not loaded, f"import gasketenergy.cli loaded {loaded}"
argv, absent = sys.argv[1].split(), sys.argv[2].split()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0, argv
loaded = [m for m in absent if m in sys.modules]
assert not loaded, f"{argv} loaded {loaded}"
"""

#: Each command, run in a process of its own, with the modules it must not
#: load: none loads numpy, ``dynamics`` or ``concurrent.futures`` (the whole
#: guard once ran in one process that imported ``dynamics`` last and checked
#: for ``concurrent.futures``), and none but ``verify`` loads ``dataclasses`` or
#: ``inspect`` (10-14 ms to import) or a module only another command uses.
_SLOW_IMPORTS = "numpy concurrent.futures gasketenergy.dynamics dataclasses inspect "
COMMAND_IMPORTS = (
    ("measure --coeffs 1,1,1 --word 01",
     _SLOW_IMPORTS + "gasketenergy.verify gasketenergy.bvectors gasketenergy.derivatives gasketenergy.harmonic"),
    ("derivative --coeffs 1,0,0 --vertex 1:2",
     _SLOW_IMPORTS + "gasketenergy.verify gasketenergy.bvectors gasketenergy.harmonic"),
    ("bvector --word 012", _SLOW_IMPORTS + "gasketenergy.verify gasketenergy.derivatives gasketenergy.harmonic"),
    ("bvector --level 2", _SLOW_IMPORTS + "gasketenergy.verify gasketenergy.derivatives gasketenergy.harmonic"),
    ("edge-profile --coeffs 1,0,0 --depth 3", _SLOW_IMPORTS + "gasketenergy.verify gasketenergy.harmonic"),
    ("verify --suite core --max-depth 1", "numpy concurrent.futures gasketenergy.dynamics"),
    ("verify --suite measures --max-depth 1", "numpy concurrent.futures gasketenergy.dynamics"),
    ("verify --suite harmonic --max-depth 1", "numpy concurrent.futures gasketenergy.dynamics"),
)

DYNAMICS_GUARD = """
import contextlib, io, sys
import gasketenergy.cli as cli
import gasketenergy.dynamics
assert "concurrent.futures" not in sys.modules, "import gasketenergy.dynamics loaded concurrent.futures"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["ifs", "orbit", "--iters", "3", "--bins", "5", "--jobs", "2"]) == 0
assert "concurrent.futures" not in sys.modules, "a one-task histogram loaded concurrent.futures"
"""


def test_exact_commands_load_no_numpy():
    for argv, absent in COMMAND_IMPORTS:
        proc = _python("-c", IMPORT_GUARD, argv, absent, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    proc = _python("-c", DYNAMICS_GUARD, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()


def test_exact_modules_import_no_numpy():
    """``scan_bounds`` loads numpy when it first runs, not at import time."""
    code = ("import sys\n"
            "import gasketenergy.core, gasketenergy.harmonic, gasketenergy.measures\n"
            "import gasketenergy.derivatives, gasketenergy.bvectors\n"
            "assert 'numpy' not in sys.modules, 'an exact module loaded numpy'\n")
    proc = _python("-c", code, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()


def test_dynamics_imports_no_exact_module():
    code = "import sys, gasketenergy.dynamics; assert 'gasketenergy.core' not in sys.modules"
    proc = _python("-c", code, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err.decode()
