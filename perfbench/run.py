"""Benchmark of the gasketenergy package: one workload, one seed, one run.

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics of an
untraced closed-loop pass; with ``--trace 1`` it runs a fixed number of
rounds untraced, the same rounds traced, and reports per-layer metrics.
Every metric is printed on stderr with its unit; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run environment, the metrics and any failures are also written to
``perfbench/results/``, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh interpreters timed for ``setup_s`` after one untimed warm-up.
SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from workloads import CLI_COMMANDS, FUNCTIONS, VERIFY_SUITES

    units: dict[str, str] = {}
    for name in FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.errors": "count"})
    units.update({f"cli.{cmd}.wall_s": "s" for cmd in CLI_COMMANDS})
    units["cli.startup_s"] = "s"
    units.update({f"verify.{suite}.busy_s": "s" for suite in VERIFY_SUITES})
    units.update({
        "dynamics.points_binned": "count",
        "exact.max_bits": "bits",
        "trace.overhead_ratio": "ratio",
        "bench.self_s": "s",
    })
    return units


class SetupSampler:
    """``setup_s``: wall time of a fresh interpreter importing the workload's
    modules.  One untimed warm-up fills the bytecode cache; the timed samples
    are spread over the pass (between rounds, clock stopped) so that one slow
    stretch of the host does not set them all."""

    def __init__(self, imports: tuple[str, ...], env: dict[str, str], seconds: float):
        self.argv = [sys.executable, "-c", "import " + ", ".join(imports)]
        self.env = env
        self.seconds = seconds
        self.times: list[float] = []
        self.spawn()

    def spawn(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def between_rounds(self, timed_s: float) -> None:
        due = len(self.times) * self.seconds / SETUP_SAMPLES
        if len(self.times) < SETUP_SAMPLES and timed_s >= due:
            self.times.append(self.spawn())

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(self.spawn())
        return statistics.median(self.times)


def environment(args: argparse.Namespace) -> dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "argv": sys.argv,
    }


def run(args: argparse.Namespace) -> dict[str, object]:
    from harness import Lib, Tracer, peak_rss_mb, run_pass, seeded_rounds, summarize
    from workloads import FUNCTIONS, CLI_COMMANDS, VERIFY_SUITES, WORKLOADS, cli_env, library_table

    workload = WORKLOADS[args.workload]
    metrics: dict[str, float] = {}
    table = library_table()  # imports every package module before any timing

    def rounds():
        return seeded_rounds(lambda rng: workload.make_round(rng, args.tiny), args.seed)

    if not args.trace:
        lib = Lib(table)
        setup = SetupSampler(workload.imports, cli_env(), args.seconds)
        timed, _ = run_pass(rounds(), lib, seconds=args.seconds,
                            tail_pct=None if args.tiny else workload.tail_pct,
                            between_rounds=setup.between_rounds, probe=workload.probe)
        metrics["setup_s"] = setup.median() * timed.speed_factor
        metrics.update(summarize(timed, workload.tail_pct))
        metrics["peak_rss_mb"] = peak_rss_mb()
        tracer = None
    else:
        reference, _ = run_pass(rounds(), Lib(table), max_rounds=workload.trace_rounds,
                                probe=workload.probe)
        tracer = Tracer()
        lib = Lib(table, tracer)
        timed, outputs = run_pass(rounds(), lib, max_rounds=workload.trace_rounds, keep_outputs=True,
                                  probe=workload.probe)
        extra = workload.trace_extra(lib, outputs)
        for name in FUNCTIONS:
            metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
            metrics[f"{name}.busy_s"] = tracer.busy.get(name, 0.0)
            metrics[f"{name}.errors"] = tracer.errors.get(name, 0)
        for cmd in CLI_COMMANDS:
            walls = [end - start for _, _, span, start, end in tracer.spans if span == "cli." + cmd]
            metrics[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0.0
        metrics["cli.startup_s"] = extra.get("cli.startup_s", 0.0)
        for suite in VERIFY_SUITES:
            metrics[f"verify.{suite}.busy_s"] = tracer.busy.get("verify." + suite, 0.0)
        metrics["dynamics.points_binned"] = tracer.counts.get("dynamics.points_binned", 0)
        metrics["exact.max_bits"] = tracer.counts.get("exact.max_bits", 0)
        # both passes at the reference host speed, so drift between them cancels
        metrics["trace.overhead_ratio"] = (timed.wall_s * timed.speed_factor
                                           / (reference.wall_s * reference.speed_factor))
        metrics["bench.self_s"] = tracer.op_self_time()

    failures = Counter(o.failure for o in timed.outcomes if o.failure is not None)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": not any(o.mismatch for o in timed.outcomes),
        "attempted": len(timed.outcomes),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "environment": environment(args),
        "rounds": timed.rounds,
        "wall_s": timed.wall_s,
        "speed_factor": timed.speed_factor,
        "unscaled_ops_per_s": len(timed.outcomes) / timed.wall_s,
        "latency_tail_percentile": workload.tail_pct,
        "failures": dict(failures.most_common(10)),
        "result": result,
    }
    write_results(args, record, tracer)
    return result


def write_results(args: argparse.Namespace, record: dict, tracer) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        spans = [
            {"op": op_id, "parent": parent, "name": name, "start": start, "end": end}
            for op_id, parent, name, start, end in tracer.spans
        ]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    env = record["environment"]
    print(f"# {record['workload']} seed={args.seed} trace={args.trace} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} commit={env['commit']}", file=sys.stderr)
    print(f"# rounds={record['rounds']} attempted={record['result']['attempted']} "
          f"failed={record['result']['failed']} tail=p{record['latency_tail_percentile']:g}",
          file=sys.stderr)
    for failure, count in record["failures"].items():
        print(f"# failure x{count}: {failure}", file=sys.stderr)
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and no minimum sample count (the self-test uses this)")
    args = parser.parse_args()
    if not (SRC / "gasketenergy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gasketenergy'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
