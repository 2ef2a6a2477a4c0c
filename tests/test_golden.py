"""CLI stdout, byte for byte, against outputs captured before a refactor:
the exact commands before the integer row kernel replaced the ``Fraction``
word products, the ``ifs`` and dynamics ``verify`` commands before every
histogram moved onto one chunked counter, the harmonic ``verify`` suite
before the exact modules dropped their floats, and ``verify --suite all
--max-depth 3`` before the harmonic oracle moved onto integer numerators.
The two ``ifs_*_readme`` cases, the README's orbit and angular commands at
full size, were captured before the circle maps moved onto half-angle
pairs and the angle fold dropped ``np.mod``.  One line was re-captured on
purpose: ``dynamics.circle-agreement`` prints its bound on PASS rather than
its worst error, whose last digits follow numpy's ``arctan2`` code path.

The ``help_*`` files hold ``--help`` text at ``COLUMNS=80``, captured while
``dynamics`` still defined ``BINS_MAX`` and ``cli`` imported it at module
level; argparse's layout can differ between Python versions, so these four
follow the interpreter the suite runs on.

Each ``tests/golden/<name>.out`` holds the stdout of ``gasketenergy`` on the
argv listed under ``<name>`` below.  The set mirrors the README commands,
mostly at small sizes; to extend it, add a case and write its file from a
checkout whose output is trusted.
"""

from pathlib import Path

import pytest

from gasketenergy.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "measure_whole": ["measure", "--coeffs", "1,1,1", "--word", ""],
    "measure_0": ["measure", "--coeffs", "1,0,0", "--word", "0"],
    "measure_00": ["measure", "--coeffs", "1,1,1", "--word", "00"],
    "measure_signed_long": ["measure", "--coeffs=-3/4,5/2,1/3", "--word", "0120210122101201"],
    "derivative_corner": ["derivative", "--coeffs", "1,0,0", "--vertex", ":0"],
    "derivative_midpoint": ["derivative", "--coeffs", "1,0,0", "--vertex", "1:2"],
    "derivative_signed_long": ["derivative", "--coeffs=2/3,-1,7/5", "--vertex", "21001220120:1"],
    "bvector_01": ["bvector", "--word", "01"],
    "bvector_long": ["bvector", "--word", "0122011020121102"],
    "bvector_level3": ["bvector", "--level", "3"],
    "edge_profile_depth6": ["edge-profile", "--coeffs", "1,0,0", "--depth", "6"],
    "edge_profile_word_edge": ["edge-profile", "--coeffs", "3,1/2,-1", "--word", "02",
                               "--edge", "2,0", "--depth", "5"],
    "verify_core": ["verify", "--suite", "core", "--max-depth", "3"],
    "verify_harmonic": ["verify", "--suite", "harmonic", "--max-depth", "2"],
    "verify_measures": ["verify", "--suite", "measures", "--max-depth", "2"],
    "verify_derivatives": ["verify", "--suite", "derivatives", "--max-depth", "2"],
    "verify_bvectors": ["verify", "--suite", "bvectors", "--max-depth", "2"],
    "ifs_angular_full99": ["ifs", "angular", "--level", "7", "--arc", "full", "--slices", "99"],
    "ifs_angular_svg": ["ifs", "angular", "--level", "6", "--slices", "10", "--format", "svg"],
    "ifs_radial_level6": ["ifs", "radial", "--level", "6", "--bins", "20"],
    "ifs_orbit_jobs2": ["ifs", "orbit", "--iters", "6", "--bins", "50", "--arc", "sixth",
                        "--jobs", "2"],
    "ifs_orbit_readme": ["ifs", "orbit", "--iters", "14", "--bins", "800", "--arc", "sixth"],
    "ifs_angular_readme": ["ifs", "angular", "--level", "13", "--slices", "100", "--arc", "third"],
    "verify_dynamics": ["verify", "--suite", "dynamics", "--max-depth", "2"],
    "verify_all_depth3": ["verify", "--suite", "all", "--max-depth", "3"],
    "help_ifs_angular": ["ifs", "angular", "--help"],
    "help_ifs_radial": ["ifs", "radial", "--help"],
    "help_ifs_orbit": ["ifs", "orbit", "--help"],
    "help_verify": ["verify", "--help"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(CASES[name])
    except SystemExit as exc:  # --help prints, then exits 0
        code = exc.code
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()
