"""The exact modules hold no floats, and only ``core`` decides how the block
walk runs.

``core``, ``harmonic``, ``measures``, ``derivatives`` and ``bvectors`` may
not hold a float literal, name ``float`` or call a ``math`` function other
than the integer ones.  The one allowed site is the body of
``measures.decompose_positive``, whose irrational branch takes a float
square root.

No module but ``core`` names the array step, the ``int64`` proof, its bounds,
the sign test's tier bounds or the block size: the scans take all of them
from ``core.subtree_levels`` and ``core.first_outside_cone``.  The block
kernel runs on ``int64`` alone: ``core``, ``bvectors`` and ``derivatives``
name no ``object`` dtype.  Of the exact modules only ``core``'s functions and
``derivatives._circle`` import numpy, so the kernel stays in ``core``.

``harmonic`` names none of the row kernel or the generator families, so the
harmonic oracle shares no arithmetic with the routes ``verify`` checks it
against, and a wrong coefficient in its own step makes ``verify`` fail.
The other oracle loops (the refine and b-step recursions and the word
matrix product) name none of the strided row walk.

``verify`` forms a FAIL line's counterexample text only in ``_check``, and
every suite yields only ``_check`` verdicts.

Only the package root defines a size cap or words a range message, and no
module tests a letter itself: the others take ``check_range`` and
``check_letter`` from the root.

Every public function earns a caller: another function of the package, the
README's code, a benchmarked op or an acceptance test names it, unless it is
one of the ``REFERENCES`` that tests compare against.
"""

import ast
import re
from pathlib import Path

import pytest

import gasketenergy
from gasketenergy import harmonic
from gasketenergy.cli import main

SRC = Path(gasketenergy.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
EXACT_MODULES = ("core", "harmonic", "measures", "derivatives", "bvectors")
INTEGER_MATH = {"lcm", "gcd", "isqrt"}
ALLOWED = {("measures", "decompose_positive")}


def float_sites(tree: ast.AST, module: str) -> list[str]:
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (module, node.name) in ALLOWED:
            allowed.update(id(n) for n in ast.walk(node))
    sites = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append(f"line {node.lineno}: names float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            sites.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sites.extend(f"line {node.lineno}: from math import {a.name}"
                         for a in node.names if a.name not in INTEGER_MATH)
    return sites


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_holds_no_floats(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert float_sites(tree, module) == []


def test_guard_sees_each_kind_of_site():
    source = (
        "import math\n"
        "from math import sqrt\n"
        "x: float = 0.5\n"
        "y = math.pi + math.isqrt(4)\n"
        "def decompose_positive(c):\n"
        "    return math.sqrt(2.0)\n"
    )
    assert sorted(float_sites(ast.parse(source), "measures")) == [
        "line 2: from math import sqrt",
        "line 3: literal 0.5",
        "line 3: names float",
        "line 4: math.pi",
    ]
    # outside the allowed body the square root and its literal count too
    assert len(float_sites(ast.parse(source), "core")) == 6


WALK_NAMES = {"array_children", "int64_walk", "INT64_ROW_BOUND", "BLOCK_ROWS", "row_bound", "LIMB_BOUND",
              "SHIFT_BOUND"}


def named_lines(tree: ast.AST) -> set[tuple[str, int]]:
    """``(name, line)`` for each name, attribute and imported name that ``tree`` uses."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.add((node.name.rsplit(".", 1)[-1], node.lineno))
    return found


def names_in(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` uses, imports, assigns or defines."""
    return {name for name, _ in named_lines(tree)} | {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def walk_names(tree: ast.AST) -> set[str]:
    """The names in ``WALK_NAMES`` that ``tree`` uses, imports or assigns."""
    return names_in(tree) & WALK_NAMES


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "core"))
def test_only_core_names_the_walk_knobs(module):
    assert walk_names(ast.parse((SRC / f"{module}.py").read_text())) == set()


def test_walk_guard_sees_each_kind_of_name():
    source = (
        "from .core import array_children as step, row_bound\n"
        "import gasketenergy.core as core\n"
        "n = core.BLOCK_ROWS + core.LIMB_BOUND\n"
        "INT64_ROW_BOUND = 7\n"
        "def int64_walk(bound=SHIFT_BOUND): pass\n"
        "# BLOCK_ROWS in a comment, and 'int64_walk' in a string\n"
    )
    assert walk_names(ast.parse(source)) == WALK_NAMES


def object_dtypes(tree: ast.AST) -> list[int]:
    """Lines where ``tree`` names the ``object`` dtype: the name ``object``
    (``dtype=object``, ``== object``), ``np.object_`` or the string ``"object"``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "object"
                  or isinstance(node, ast.Attribute) and node.attr == "object_"
                  or isinstance(node, ast.Constant) and node.value == "object")


@pytest.mark.parametrize("module", ["core", "bvectors", "derivatives"])
def test_the_block_kernel_names_no_object_dtype(module):
    assert object_dtypes(ast.parse((SRC / f"{module}.py").read_text())) == []


def test_object_guard_sees_each_form():
    source = (
        "a = np.empty(3, dtype=object)\n"
        "b = np.asarray(a, 'object')\n"
        "if a.dtype == object: pass\n"
        "c = a.astype(np.object_)\n"
        "# dtype=object in a comment, and 'an object' in a string\n"
        "d = 'an object'\n"
    )
    assert object_dtypes(ast.parse(source)) == [1, 2, 3, 4]


#: The one function outside ``core`` that may import numpy, as ``(module, function)``.
NUMPY_BODIES = {("derivatives", "_circle")}


def numpy_imports(tree: ast.AST, module: str) -> list[int]:
    """Lines where ``tree`` imports numpy (``import numpy``, ``import numpy as np``,
    ``from numpy import ...``) outside a function of ``core`` and the ``NUMPY_BODIES``."""
    allowed = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and (module == "core" or (module, f.name) in NUMPY_BODIES) for n in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in allowed and (
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"))


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_only_the_kernel_imports_numpy(module):
    assert numpy_imports(ast.parse((SRC / f"{module}.py").read_text()), module) == []


def test_numpy_guard_sees_each_form():
    source = (
        "import numpy\n"
        "def _circle(depth):\n"
        "    import numpy as np\n"
        "    from numpy import empty\n"
        "def scan(rows):\n"
        "    import numpy as np\n"
        "from numpy.linalg import norm\n"
        "# import numpy in a comment, and 'from numpy import sign' in a string\n"
        "s = 'import numpy'\n"
    )
    assert numpy_imports(ast.parse(source), "derivatives") == [1, 6, 7]
    assert numpy_imports(ast.parse(source), "core") == [1, 7]
    assert numpy_imports(ast.parse(source), "bvectors") == [1, 3, 4, 6, 7]


def own_checks(tree: ast.AST) -> set[str]:
    """What of the root's vocabulary ``tree`` does itself: assigns a name ending in
    ``_LIMIT`` or holding ``_MAX`` (``WORD_MAX_LEN`` too), tests ``not in (0, 1, 2)``
    or raises a "must be between" message."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and (
                "_MAX" in node.id or node.id.endswith("_LIMIT")):
            found.add("cap")
        elif isinstance(node, ast.Compare) and any(isinstance(op, ast.NotIn) and ast.unparse(right) == "(0, 1, 2)"
                                                   for op, right in zip(node.ops, node.comparators)):
            found.add("letter")
        elif isinstance(node, ast.Raise) and "must be between" in ast.unparse(node):
            found.add("range")
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_only_the_root_defines_caps_and_range_and_letter_checks(module):
    assert own_checks(ast.parse((SRC / f"{module}.py").read_text())) == set()


def test_check_guard_sees_each_form():
    seen = [own_checks(ast.parse(source)) for source in (
        "DEPTH_MAX = 12\n", "LEVEL_LIMIT: int = 16\n", "for WORD_MAX_LEN in (64,): pass\n",
        "def f(j):\n    if j not in (0, 1, 2): pass\n",
        'def f(n):\n    raise ValueError(f"n must be between 0 and 9, got {n}")\n',
        "# N_MAX = 1, and a 'must be between' string that is not raised\nx = 'must be between'\n")]
    assert seen == [{"cap"}, {"cap"}, {"cap"}, {"letter"}, {"range"}, set()]
    assert own_checks(ast.parse((SRC / "__init__.py").read_text())) == {"cap", "letter", "range"}


KERNEL_NAMES = {"row_step", "row_walk", "stride_table", "MASS_STRIDE", "subtree_levels", "array_children",
                "MASS_SCALED", "REFINE_SCALED", "MASS_GENERATORS", "REFINE_GENERATORS"}


def test_harmonic_oracle_names_no_kernel_or_generator():
    tree = ast.parse((SRC / "harmonic.py").read_text())
    assert names_in(tree) & KERNEL_NAMES == set()


STRIDED_NAMES = {"row_walk", "stride_table", "STRIDE", "MASS_STRIDE"}
ORACLE_LOOPS = (("measures", "children_row_via_refine"), ("measures", "_refine_step"),
                ("bvectors", "b_from_word"), ("bvectors", "_b_step_int"), ("core", "word_matrix"))


def strided_names(source: str, function: str) -> set[str]:
    """The names in ``STRIDED_NAMES`` that the named function's body uses."""
    node = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return names_in(node) & STRIDED_NAMES


@pytest.mark.parametrize("module, function", ORACLE_LOOPS)
def test_oracle_loops_name_no_strided_walk(module, function):
    """The refine recursion, the b-step recursion and the word matrix product
    step their own letters, so a wrong stride product makes a checked
    command disagree with them instead of with itself."""
    assert strided_names((SRC / f"{module}.py").read_text(), function) == set()


def test_strided_guard_sees_each_name():
    source = (
        "def _refine_step(x, j):\n"
        "    table = core.stride_table(REFINE_SCALED, core.STRIDE)\n"
        "    return row_walk(x, str(j), table) or core.MASS_STRIDE\n"
        "def other(): return row_walk\n"
    )
    assert strided_names(source, "_refine_step") == STRIDED_NAMES
    assert strided_names(source.replace("row_walk(x", "step(x"), "_refine_step") == STRIDED_NAMES - {"row_walk"}


#: Public functions that only tests call, kept as the references those tests compare against.
REFERENCES = {
    "bvectors.b_step": "tests/test_dynamics.py::test_disk_map_is_conjugate_to_the_weight_step",
    "dynamics.DiskPoint.from_b": "tests/test_dynamics.py::test_disk_map_is_conjugate_to_the_weight_step",
}


def public_defs(tree: ast.Module, module: str) -> dict[str, ast.FunctionDef]:
    """Each public top-level function and public method of a public class, by its
    qualified name (``module.function`` or ``module.Class.method``)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs[f"{module}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs.update((f"{module}.{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    return defs


def uncalled(sources: dict[str, str], elsewhere: set[str]) -> list[str]:
    """The public functions and methods of ``sources`` (module name to text) that no
    module names outside their own body and that are not in ``elsewhere``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    sites: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in named_lines(tree):
            sites.setdefault(name, []).append((module, line))
    return sorted(qualname for module, tree in trees.items() for qualname, node in public_defs(tree, module).items()
                  if node.name not in elsewhere and all(m == module and node.lineno <= line <= node.end_lineno
                                                        for m, line in sites.get(node.name, ())))


def names_outside_src() -> set[str]:
    """The names that the README's code (its blocks and inline spans), perfbench's
    ``FUNCTIONS`` and the acceptance tests use."""
    readme = (ROOT / "README.md").read_text()
    names = {name for span in re.findall(r"`+([^`]+)`+", readme) for name in re.findall(r"[A-Za-z_]\w*", span)}
    names |= {name for name, _ in named_lines(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))}
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    functions = next(node.value for node in workloads.body if isinstance(node, ast.Assign)
                     and [ast.unparse(t) for t in node.targets] == ["FUNCTIONS"])
    return names | {ast.literal_eval(e).rsplit(".", 1)[-1] for e in functions.elts}


def test_every_public_function_has_a_caller():
    """A public function of ``src/`` is named by another function of the package, the
    README's code, a benchmarked op or an acceptance test; only the references do without."""
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert uncalled(sources, names_outside_src()) == sorted(REFERENCES)


def test_caller_guard_sees_each_kind_of_use():
    sources = {
        "a": ("def imported(): pass\n"
              "def recursive(): return recursive()\n"
              "def _private(): pass\n"
              "class Point:\n"
              "    def moved(self): return self.moved\n"
              "    def read(self): pass\n"
              "class _Hidden:\n"
              "    def method(self): pass\n"),
        "b": ("from .a import imported\n"
              "x = Point().read\n"
              "def outside(): pass\n"
              "s = 'recursive moved outside'  # recursive, moved and outside in a comment\n"),
    }
    assert uncalled(sources, {"outside"}) == ["a.Point.moved", "a.recursive"]
    assert uncalled(sources, set()) == ["a.Point.moved", "a.recursive", "b.outside"]


def test_a_wrong_extension_coefficient_fails_the_energy_oracle(capsys, monkeypatch):
    def wrong_step(x, letter):
        x0, x1, x2 = x
        m01, m02, m12 = 3 * (x0 + x1) + x2, 2 * (x0 + x2) + x1, 2 * (x1 + x2) + x0
        if letter == 0:
            return (5 * x0, m01, m02)
        if letter == 1:
            return (m01, 5 * x1, m12)
        return (m02, m12, 5 * x2)

    monkeypatch.setattr(harmonic, "_one_level_int", wrong_step)
    assert main(["verify", "--suite", "measures", "--max-depth", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL  measures.energy-oracle: counterexample (0, '0')"]


def lines_outside(source: str, function: str, needle: str) -> list[int]:
    """Line numbers of ``needle`` in ``source`` outside the named function."""
    node = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return [i for i, line in enumerate(source.splitlines(), 1)
            if needle in line and not node.lineno <= i <= node.end_lineno]


def stray_yields(source: str) -> list[int]:
    """Line numbers of the yields in a ``*_suite`` function's own body (not
    in a generator nested in it) that yield anything but a ``_check(...)``
    call."""
    lines = []

    def visit(node: ast.AST, in_suite: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "").endswith("_suite"))
                continue
            if in_suite and isinstance(child, (ast.Yield, ast.YieldFrom)):
                call = child.value
                if not (isinstance(child, ast.Yield) and isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name) and call.func.id == "_check"):
                    lines.append(child.lineno)
            visit(child, in_suite)

    visit(ast.parse(source), False)
    return lines


def test_only_check_forms_the_verdict():
    source = (SRC / "verify.py").read_text()
    assert lines_outside(source, "_check", "counterexample") == []
    assert stray_yields(source) == []


def test_verdict_guard_sees_a_copy_outside_check():
    source = (
        "def _check(name, detail, failures):\n"
        "    return (name, False, f'counterexample {failures}')\n"
        "def core_suite(n):\n"
        "    yield ('x', False, 'counterexample 3')\n"
        "    def misses():\n"
        "        yield 3\n"
        "    yield _check('y', 'fine', misses())\n"
        "    yield ('z', True, 'built by hand')\n"
        "    yield from misses()\n"
        "def helper():\n"
        "    yield 4\n"
    )
    assert lines_outside(source, "_check", "counterexample") == [4]
    assert stray_yields(source) == [4, 8, 9]
