"""The package names and sizes the benchmark calls stay valid.

``perfbench/workloads.py`` looks up each name of its ``FUNCTIONS`` tuple on
the package when it starts, so a removed or renamed function would stop the
whole benchmark, and a size above a scan's cap would fail its ops.  The
tuple and the sizes are read from the source, without importing the
benchmark.  The sizes ``verify`` and the tests pass to the scans are held
to the same caps.
"""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

from gasketenergy import bvectors, derivatives, verify
from gasketenergy.core import WORD_MAX_LEN, VertexAddress
from gasketenergy.measures import BOUNDS_LEVEL_MAX, EXTREMA_DEPTH_MAX, NEGATIVE_DEPTH_MAX

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

#: Position and keyword of the size argument of each sized call.
SIZE_ARGS = {
    "_extrema_op": (1, "depth"), "_bounds_op": (1, "level"),
    "scan_extrema": (2, "depth"), "scan_bounds": (0, "max_level"), "find_negative_cell": (1, "max_depth"),
}


def benchmark_functions() -> tuple[str, ...]:
    tree = ast.parse(WORKLOADS.read_text())
    return ast.literal_eval(module_constant(tree, "FUNCTIONS"))


def module_constant(tree: ast.Module, name: str) -> ast.expr:
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def literal_sizes(tree: ast.AST, name: str) -> list[int]:
    """The integer literal sizes of every ``name(...)`` call (plain or as an attribute) in ``tree``."""
    pos, key = SIZE_ARGS[name]
    sizes = []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == name:
            args = {**dict(enumerate(call.args)), **{k.arg: k.value for k in call.keywords}}
            node = args.get(pos, args.get(key))
            if isinstance(node, ast.Constant) and type(node.value) is int:
                sizes.append(node.value)
    return sizes


def test_every_benchmark_function_resolves():
    names = benchmark_functions()
    assert "derivatives.rn_derivative_via_mass" in names and "core.word_matrix" in names
    assert derivatives.rn_derivative_via_mass is derivatives.rn_derivative  # an alias kept for the name
    for name in names:
        module, attr = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module("gasketenergy." + module), attr, None)), name


def test_benchmark_scan_sizes_are_within_the_caps():
    """``level_round``'s scan sizes, and ``NEGATIVE_DEPTH``, pass the caps, so
    no cap can fail a benchmark op.  The extrema ops scan two-letter words."""
    tree = ast.parse(WORKLOADS.read_text())
    level_round = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "level_round")
    extrema, bounds = literal_sizes(level_round, "_extrema_op"), literal_sizes(level_round, "_bounds_op")
    assert 10 in extrema and 11 in bounds  # the full round's deepest scans
    assert max(extrema) <= EXTREMA_DEPTH_MAX and max(extrema) + 2 <= WORD_MAX_LEN
    assert max(bounds) <= BOUNDS_LEVEL_MAX
    assert ast.literal_eval(module_constant(tree, "NEGATIVE_DEPTH")) <= NEGATIVE_DEPTH_MAX


def test_test_scan_sizes_are_within_the_caps():
    """Every literal scan size in the tests passes its cap, ``scan_bounds(12)`` among them."""
    found = {name: [] for name in ("scan_extrema", "scan_bounds", "find_negative_cell")}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        for name, sizes in found.items():
            sizes += literal_sizes(tree, name)
    assert 12 in found["scan_bounds"] and 10 in found["scan_extrema"]
    assert max(found["scan_extrema"]) <= EXTREMA_DEPTH_MAX
    assert max(found["scan_bounds"]) <= BOUNDS_LEVEL_MAX
    assert max(found["find_negative_cell"]) <= NEGATIVE_DEPTH_MAX


def test_verify_scan_sizes_are_within_the_caps(monkeypatch):
    """``verify`` caps its scan sizes whatever ``--max-depth``: spies in place
    of the scans record them, up to each suite's scan check."""
    scans, levels, nowhere = [], [], VertexAddress("", 0)

    def extrema(c, word, depth):
        scans.append((word, depth))
        return derivatives.ScanResult(Fraction(0), Fraction(0), nowhere, nowhere)

    monkeypatch.setattr(derivatives, "scan_extrema", extrema)
    monkeypatch.setattr(bvectors, "scan_bounds", levels.append)
    for suite, last in (("derivatives", "derivatives.scan-bounds"), ("bvectors", "bvectors.strict-bounds")):
        assert next(ok for name, ok, _ in verify.SUITES[suite](10**6) if name == last)
    assert scans and all(d <= EXTREMA_DEPTH_MAX and len(w) + d <= WORD_MAX_LEN for w, d in scans)
    assert levels and max(levels) <= BOUNDS_LEVEL_MAX
