"""The package names and sizes the benchmark calls stay valid.

``perfbench/workloads.py`` looks up each name of its ``FUNCTIONS`` tuple on
the package when it starts, so a removed or renamed function would stop the
whole benchmark, and a size above a cap would fail its ops.  The tuple and
the sizes are read from the source, without importing the benchmark.  The
sizes ``verify`` and the tests pass to the capped functions are held to the
same caps.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import gasketenergy as ge
from gasketenergy import bvectors, core, derivatives, dynamics, harmonic, measures, verify

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

#: Position, keyword and cap of the size argument of each sized call: the
#: package's capped functions and the benchmark's op builders.
SIZE_ARGS = {
    "scan_extrema": (2, "depth", ge.EXTREMA_DEPTH_MAX), "scan_bounds": (0, "max_level", ge.BOUNDS_LEVEL_MAX),
    "find_negative_cell": (1, "max_depth", ge.NEGATIVE_DEPTH_MAX),
    "all_vertices": (0, "level", ge.VERTEX_LEVEL_MAX), "harmonic_vertex_values": (1, "m", ge.VERTEX_LEVEL_MAX),
    "graph_energy": (1, "m", ge.VERTEX_LEVEL_MAX), "walk_level": (0, "m", ge.WORD_MAX_LEN),
    "enumerate_bvectors": (0, "m", ge.WORD_MAX_LEN), "closed_form_b": (0, "m", ge.WORD_MAX_LEN),
    "edge_margin_closed_form": (0, "m", ge.WORD_MAX_LEN), "decay_sequence": (3, "depth", ge.WORD_MAX_LEN),
    "rank1_deviation": (1, "n", ge.WORD_MAX_LEN), "edge_profile": (3, "depth", ge.EDGE_DEPTH_MAX),
    "monotone_left_right": (0, "m", ge.MONOTONE_LEVEL_MAX), "operator_norm_scan": (0, "m", ge.NORM_LEVEL_MAX),
    "count_grid_fixed_points": (1, "n", ge.GRID_SIZE_MAX), "enumerate_level": (0, "m", ge.LEVEL_LIMIT),
    "angular_histogram": (0, "m", ge.LEVEL_LIMIT), "radial_histogram": (0, "m", ge.LEVEL_LIMIT),
    "boundary_orbit_histogram": (1, "iters", ge.LEVEL_LIMIT),
    "_extrema_op": (1, "depth", ge.EXTREMA_DEPTH_MAX), "_bounds_op": (1, "level", ge.BOUNDS_LEVEL_MAX),
    "_enumerate_op": (0, "level", ge.WORD_MAX_LEN), "_edge_op": (1, "depth", ge.EDGE_DEPTH_MAX),
    "_cli_bvector_level": (0, "level", ge.BVECTOR_LEVEL_MAX), "_cli_edge": (1, "depth", ge.EDGE_DEPTH_MAX),
}
#: The cap of each sized flag of the benchmark's command lines.
FLAG_CAPS = {"--level": ge.LEVEL_LIMIT, "--iters": ge.LEVEL_LIMIT, "--bins": ge.BINS_MAX, "--slices": ge.BINS_MAX}
#: The package modules whose capped functions the ``verify`` spies wrap, re-exports included.
SPIED = (core, harmonic, measures, derivatives, bvectors, dynamics)


def benchmark_functions() -> tuple[str, ...]:
    tree = ast.parse(WORKLOADS.read_text())
    return ast.literal_eval(module_constant(tree, "FUNCTIONS"))


def module_constant(tree: ast.Module, name: str) -> ast.expr:
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def literal_sizes(tree: ast.AST) -> dict[str, list[int]]:
    """The integer literal sizes of the ``SIZE_ARGS`` calls (plain or as an attribute) in ``tree``, by name."""
    sizes = {name: [] for name in SIZE_ARGS}
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name in SIZE_ARGS:
            pos, key, _ = SIZE_ARGS[name]
            args = {**dict(enumerate(call.args)), **{k.arg: k.value for k in call.keywords}}
            node = args.get(pos, args.get(key))
            if isinstance(node, ast.Constant) and type(node.value) is int:
                sizes[name].append(node.value)
    return sizes


def over_cap(tree: ast.AST) -> dict[str, list[int]]:
    """The literal sizes in ``tree`` above their cap, by name."""
    found = {name: [n for n in sizes if n > SIZE_ARGS[name][2]] for name, sizes in literal_sizes(tree).items()}
    return {name: sizes for name, sizes in found.items() if sizes}


def function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_every_benchmark_function_resolves():
    names = benchmark_functions()
    assert "derivatives.rn_derivative_via_mass" in names and "core.word_matrix" in names
    assert derivatives.rn_derivative_via_mass is derivatives.rn_derivative  # an alias kept for the name
    for name in names:
        module, attr = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module("gasketenergy." + module), attr, None)), name


def test_benchmark_scan_sizes_are_within_the_caps():
    """Every literal size of the benchmark passes its cap, so no cap can fail
    a benchmark op: the op builders' sizes, ``NEGATIVE_DEPTH``, the point
    word lengths, the histogram sizes and the command lines' sized flags.
    The extrema ops scan two-letter words."""
    tree = ast.parse(WORKLOADS.read_text())
    level_round = function(tree, "level_round")
    sizes = literal_sizes(level_round)
    extrema, bounds = sizes["_extrema_op"], sizes["_bounds_op"]
    assert 10 in extrema and 11 in bounds  # the full round's deepest scans
    assert max(extrema) + 2 <= ge.WORD_MAX_LEN
    assert over_cap(tree) == {}
    assert ast.literal_eval(module_constant(tree, "NEGATIVE_DEPTH")) <= ge.NEGATIVE_DEPTH_MAX
    assert max(ast.literal_eval(module_constant(tree, "POINT_LENGTHS"))) <= ge.WORD_MAX_LEN
    histogram_sizes = [ast.literal_eval(node) for node in ast.walk(function(tree, "disk_round"))
                       if isinstance(node, ast.Dict) and node.keys]
    assert len(histogram_sizes) == 2 and all(n <= ge.LEVEL_LIMIT for d in histogram_sizes for n in d.values())
    flags = []
    for node in ast.walk(function(tree, "cli_round")):
        if isinstance(node, ast.List) and all(isinstance(e, ast.Constant) for e in node.elts):
            argv = [e.value for e in node.elts]
            flags += [(flag, int(value)) for flag, value in zip(argv, argv[1:]) if flag in FLAG_CAPS]
    assert ("--level", 13) in flags and ("--iters", 14) in flags
    assert all(value <= FLAG_CAPS[flag] for flag, value in flags)


def test_over_cap_sees_each_kind_of_call():
    source = "scan_bounds(16)\ndv.scan_extrema(c, '', depth=13)\ncount_grid_fixed_points(0, n=1001)\nscan_bounds(15)\n"
    assert over_cap(ast.parse(source)) == {"scan_bounds": [16], "scan_extrema": [13],
                                           "count_grid_fixed_points": [1001]}


def test_test_scan_sizes_are_within_the_caps():
    """Every literal size the tests pass to a capped function passes its cap,
    ``scan_bounds(12)`` among them."""
    found = {name: [] for name in SIZE_ARGS}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        assert over_cap(tree) == {}, path.name
        for name, sizes in literal_sizes(tree).items():
            found[name] += sizes
    assert 12 in found["scan_bounds"] and 10 in found["scan_extrema"] and found["find_negative_cell"]


def test_verify_scan_sizes_are_within_the_caps(monkeypatch):
    """``verify`` caps every size it passes whatever ``--max-depth``: spies
    around the capped functions record the sizes of every suite's calls."""
    calls = []

    def spy(name, real, *args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((name, bound.arguments[SIZE_ARGS[name][1]]))
        return real(*args, **kwargs)

    for name in SIZE_ARGS:
        for module in (m for m in SPIED if hasattr(m, name)):
            wrapped = functools.partial(spy, name, getattr(module, name))
            monkeypatch.setattr(module, name, wrapped)
            if hasattr(verify, name):
                monkeypatch.setattr(verify, name, wrapped)
    for suite in ge.SUITE_NAMES:
        assert all(ok for _, ok, _ in verify.SUITES[suite](10**6)), suite
    assert {name for name, _ in calls} >= {"scan_extrema", "scan_bounds", "all_vertices", "count_grid_fixed_points"}
    assert all(size <= SIZE_ARGS[name][2] for name, size in calls)
