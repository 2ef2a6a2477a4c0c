"""Command-line surface: output shapes, exit codes, determinism, imports."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gasketenergy
from gasketenergy import bvectors as bv
from gasketenergy import cli
from gasketenergy import derivatives as dv
from gasketenergy import dynamics as dy
from gasketenergy import verify
from gasketenergy.cli import main


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


def test_derivative_examples(capsys):
    for vertex, expect in ((":0", "2/3"), ("1:2", "0"), ("0:1", "1/2")):
        code, out, _ = run(capsys, "derivative", "--coeffs", "1,0,0", "--vertex", vertex)
        assert code == 0
        assert out.split()[0] == expect
        assert out.rstrip().endswith("routes-agree")


def test_derivative_routes_disagree_on_a_corrupted_walk(capsys, monkeypatch):
    """The second route does not read the integer row walk, so a fault there exits 3."""
    walk = dv.row_walk

    def corrupted(row, word, gens=dv.MASS_SCALED):
        r0, r1, r2 = walk(row, word, gens)
        return r0 + 1, r1, r2

    monkeypatch.setattr(dv, "row_walk", corrupted)
    code, out, err = run(capsys, "derivative", "--coeffs", "1,2,3", "--vertex", "01:2")
    assert code == 3 and out == ""
    assert err.startswith("routes-disagree at 01:2: ")


def test_bvector_single_word(capsys):
    code, out, _ = run(capsys, "bvector", "--word", "0", "--method", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3/5,1/5,1/5"
    assert lines[1] == "0.6,0.2,0.2"


def test_bvector_each_method_agrees(capsys):
    outputs = set()
    for method in ("matrix", "recursion", "kusuoka"):
        code, out, _ = run(capsys, "bvector", "--word", "021", "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_bvector_level_scan_csv(capsys):
    code, out, _ = run(capsys, "bvector", "--level", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,b0,b1,b2,b0_f,b1_f,b2_f"
    assert lines[1].startswith("00,27/41,7/41,7/41,")
    assert len(lines) == 10


def test_bvector_level_checks_the_triple_it_prints(capsys, monkeypatch):
    enumerate_bvectors = bv.enumerate_bvectors

    def corrupted(m):
        for word, b in enumerate_bvectors(m):
            yield word, ((b[0] + 1, b[1] - 1, b[2]) if word == "12" else b)

    monkeypatch.setattr(bv, "enumerate_bvectors", corrupted)
    code, out, err = run(capsys, "bvector", "--level", "2")
    assert code == 3 and out == ""
    assert err == "routes-disagree at '12'\n"


def test_bvector_level_prints_the_chosen_route(capsys, monkeypatch):
    monkeypatch.setattr(bv, "b_from_mass", lambda word: (Fraction(1), Fraction(0), Fraction(0)))
    code, out, _ = run(capsys, "bvector", "--level", "2", "--method", "matrix")
    assert code == 0
    assert out.splitlines()[1:] == [w + ",1,0,0,1.0,0.0,0.0" for w in ("00", "01", "02", "10", "11", "12",
                                                                      "20", "21", "22")]
    code, out, _ = run(capsys, "bvector", "--level", "2", "--method", "recursion")
    assert out.splitlines()[1].startswith("00,27/41,7/41,7/41,")


def test_bvector_word_and_level_together_exit_two_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("bvector did work with two conflicting flags")

    for name in ("b_from_mass", "b_from_word", "b_from_kusuoka", "enumerate_bvectors"):
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
    for method in ("matrix", "recursion", "kusuoka", "all"):
        code, out, err = run(capsys, "bvector", "--word", "03", "--method", method)
        assert (code, out, err) == (2, "", expect)
    code, _, err = run(capsys, "bvector", "--word", "0" * 65)
    assert code == 2 and err == "error: word length 65 exceeds the cap 64\n"


def test_parse_errors_exit_two(capsys):
    assert run(capsys, "measure", "--coeffs", "1,1", "--word", "")[0] == 2
    assert run(capsys, "measure", "--coeffs", "1,1,1", "--word", "03")[0] == 2
    assert run(capsys, "derivative", "--coeffs", "1,0,0", "--vertex", "nope")[0] == 2
    assert run(capsys, "edge-profile", "--coeffs", "1,0,0", "--edge", "1,1")[0] == 2


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


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, unbuffered=False, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


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
for argv in (["measure", "--coeffs", "1,1,1", "--word", "01"],
             ["derivative", "--coeffs", "1,0,0", "--vertex", "1:2"],
             ["bvector", "--word", "012"],
             ["bvector", "--level", "2"],
             ["edge-profile", "--coeffs", "1,0,0", "--depth", "3"],
             ["verify", "--suite", "core", "--max-depth", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"{argv} loaded numpy"
    if argv[0] in ("measure", "derivative"):
        loaded = [m for m in ("gasketenergy.verify", "gasketenergy.bvectors") if m in sys.modules]
        assert not loaded, f"{argv} loaded {loaded}"
import gasketenergy.dynamics
assert "concurrent.futures" not in sys.modules, "import gasketenergy.dynamics loaded concurrent.futures"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["ifs", "orbit", "--iters", "3", "--bins", "5", "--jobs", "2"]) == 0
assert "concurrent.futures" not in sys.modules, "a one-task histogram loaded concurrent.futures"
"""


def test_exact_commands_load_no_numpy():
    proc = _python("-c", IMPORT_GUARD, stderr=subprocess.PIPE)
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
