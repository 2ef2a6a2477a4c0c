"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. Every workload runs at a tiny size, untraced and traced, and reports
   exactly the metric names ``BENCHMARK.json`` declares.
2. A deliberately corrupted package function makes the ops that call it
   fail their checks: they count as failed and the run is not ``correct``.
3. Without the package source next to it, ``run.py`` exits non-zero and
   prints no result.

Exits 0 when all of that holds.  Scratch files go under
``perfbench/results/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metric_names() -> None:
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                             "--trace", trace, "--tiny")
            assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, (workload, trace, result)
            assert list(result["metrics"]) == names, f"{workload} trace {trace}: metric names differ"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name, metric)
            print(f"ok  {workload} trace {trace}: {len(names)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def check_corruption_is_counted() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import Lib, run_pass, seeded_rounds
    from workloads import library_table, point_round

    table = library_table()
    honest = table["measures.measure_of_cell"]
    table["measures.measure_of_cell"] = lambda c, word: honest(c, word) + 1

    lib = Lib(table)
    timed, _ = run_pass(seeded_rounds(lambda rng: point_round(rng, True), 3), lib, max_rounds=2)
    corrupted = [o for o in timed.outcomes if o.kind.startswith("measure.")]
    others = [o for o in timed.outcomes if not o.kind.startswith("measure.")]
    assert corrupted and all(o.failure and o.mismatch for o in corrupted), corrupted
    assert all(o.failure is None for o in others), [o for o in others if o.failure]
    print(f"ok  corrupted measure_of_cell: {len(corrupted)} of {len(timed.outcomes)} ops failed their check")


def check_bare_directory_fails() -> None:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run_bench(bare, "--workload", "point_queries", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without the package source: exit {proc.returncode}, no result")


if __name__ == "__main__":
    check_metric_names()
    check_corruption_is_counted()
    check_bare_directory_fails()
    print("selftest passed")
