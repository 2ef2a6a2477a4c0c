"""The README's examples, run in this process.

Each ``$ gasketenergy ...`` line of a ``console`` block must print the
lines shown under it, where a line ``...`` stands for zero or more lines,
and each ``gasketenergy ...`` line of an ``sh`` block must exit 0.  The
Bounds table lists the package root's caps.
"""

import re
import shlex
from pathlib import Path

import pytest

import gasketenergy
from gasketenergy.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def console_examples():
    """``(argv, shown lines)`` for each ``$`` line of the console blocks."""
    examples = []
    for lang, body in BLOCKS:
        if lang == "console":
            for line in body.splitlines():
                if line.startswith("$ "):
                    examples.append((shlex.split(line[2:]), []))
                else:
                    examples[-1][1].append(line)
    return examples


def sh_commands():
    return [shlex.split(line) for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("gasketenergy ")]


def matches(shown, got):
    """Whether ``got`` reads as ``shown``, a ``...`` line matching zero or more lines."""
    if not shown:
        return not got
    if shown[0] == "...":
        return any(matches(shown[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and shown[0] == got[0] and matches(shown[1:], got[1:])


def test_matches_reads_an_ellipsis_as_any_run_of_lines():
    assert matches(["a", "...", "d"], ["a", "d"]) and matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert not matches(["a", "...", "d"], ["a", "b"]) and not matches(["a"], ["a", "b"])


def test_the_readme_has_examples_of_both_kinds():
    assert len(console_examples()) >= 6 and len(sh_commands()) >= 4


def test_the_bounds_table_lists_each_cap_of_the_package_root():
    section = README.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    table = {name: int(value.replace(",", ""))
             for name, value in re.findall(r"^\| `(\w+)` \| ([\d,]+) \|", section, re.M)}
    caps = {name: value for name, value in vars(gasketenergy).items() if "_MAX" in name or name.endswith("_LIMIT")}
    assert table == caps and len(caps) == 12


@pytest.mark.parametrize("argv, shown", [pytest.param(a, s, id=" ".join(a[1:])) for a, s in console_examples()])
def test_console_example_prints_what_the_readme_shows(capsys, argv, shown):
    assert argv[0] == "gasketenergy"
    code = main(argv[1:])
    got = capsys.readouterr().out.splitlines()
    assert code == 0 and matches(shown, got), "\n".join(got)


@pytest.mark.parametrize("argv", sh_commands(), ids=lambda argv: " ".join(argv[1:]))
def test_sh_example_exits_zero(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
