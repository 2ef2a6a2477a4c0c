"""The package names the benchmark calls stay importable.

``perfbench/workloads.py`` looks up each name of its ``FUNCTIONS`` tuple on
the package when it starts, so a removed or renamed function would stop the
whole benchmark.  The tuple is read from the source, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_functions() -> tuple[str, ...]:
    tree = ast.parse(WORKLOADS.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets))
    return ast.literal_eval(value)


def test_every_benchmark_function_resolves():
    names = benchmark_functions()
    assert "derivatives.rn_derivative_via_mass" in names and "core.word_matrix" in names
    derivatives = importlib.import_module("gasketenergy.derivatives")
    assert derivatives.rn_derivative_via_mass is derivatives.rn_derivative  # an alias kept for the name
    for name in names:
        module, attr = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module("gasketenergy." + module), attr, None)), name
