"""Closed-loop timing, tracing and statistics for the gasketenergy benchmark.

Nothing here knows about the package's mathematics.  A workload hands the
harness rounds of ``Op`` objects; the harness runs them one at a time in this
process (closed loop: the next op starts when the previous one has returned)
and checks each round's outputs with the clock stopped.

Calls into the package go through a ``Lib`` object, which looks the function
up by its dotted name (``"core.word_matrix"``) in a table.  Untraced, that is
one dictionary lookup per call.  Traced, each call becomes a span nested in
the span of the op that made it, and its count, busy time and errors are
accumulated under the same name.  The table is also where the self-test
swaps in a deliberately wrong function.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional

perf_counter = time.perf_counter

#: Op time between two speed probes.
PROBE_EVERY_S = 0.5
_FRACTION_STEPS = 8000
_FRACTION_SCALE = Fraction(7, 5)


@dataclass(frozen=True)
class SpeedProbe:
    """A fixed, package-free piece of work timed between ops.

    Other tenants of a shared host change the speed of the same code by up
    to 2x over minutes.  A probe run between ops, outside their latencies,
    measures that speed in the same window as the ops; a pass's times are
    then reported as if each probe had taken ``ref_s``, its time on the
    2-core x86 VM the bounds were set on.  Each workload uses the probe
    whose speed follows its own ops most closely.
    """

    run: Callable[[], float]
    ref_s: float


def _fraction_loop() -> float:
    """Wall time of a loop of small ``Fraction`` steps (pure interpreter work)."""
    gc_was_on = gc.isenabled()
    gc.disable()  # a collection would time the benchmark's heap, not the host
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(_FRACTION_STEPS):
            acc += Fraction(i % 13 + 1, i % 7 + 2) * _FRACTION_SCALE
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def _bare_spawn() -> float:
    """Median wall time of three bare interpreters (no site, no imports)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


#: For in-process exact arithmetic.
FRACTION_PROBE = SpeedProbe(_fraction_loop, 0.05)
#: For process start-up and numpy work.
SPAWN_PROBE = SpeedProbe(_bare_spawn, 0.011)


class CheckFailed(Exception):
    """An op's output disagreed with its independent route."""


def expect(ok: bool, what: str) -> None:
    """Raise ``CheckFailed`` with ``what`` unless ``ok``."""
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``run(lib)`` returns the op's output; ``check(lib, output)`` raises
    ``CheckFailed`` (or any other exception) when the output is wrong.
    """

    kind: str
    run: Callable[["Lib"], Any]
    check: Callable[["Lib", Any], None]


class Tracer:
    """In-memory spans and per-name counters, written out when the run ends.

    A span is ``(op_id, parent, name, start, end)``; spans of one op share
    its ``op_id``.  Library calls are leaves (the benchmark records spans at
    its own call sites only), so their busy time is also their self time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, Optional[str], str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self.parent: Optional[str] = None

    def record(self, name: str, start: float, end: float, failed: bool) -> None:
        self.spans.append((self.op_id, self.parent, name, start, end))
        self.calls[name] += 1
        self.busy[name] += end - start
        if failed:
            self.errors[name] += 1

    def op_self_time(self) -> float:
        """Time inside op spans not covered by their child spans."""
        total = 0.0
        for _, parent, name, start, end in self.spans:
            if parent is None and name.startswith("op."):
                total += end - start
            elif parent is not None and parent.startswith("op."):
                total -= end - start
        return total


class Lib:
    """Calls package functions by dotted name, traced or not."""

    def __init__(self, table: dict[str, Callable[..., Any]], tracer: Optional[Tracer] = None):
        self.table = table
        self.tracer = tracer

    def __call__(self, name: str, *args: Any, span: Optional[str] = None, **kwargs: Any) -> Any:
        """Call ``table[name]``; traced, its busy time also counts toward ``span``."""
        fn = self.table[name]
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self._traced(name, lambda: fn(*args, **kwargs), span)

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run a non-package step (a subprocess, say) as a span called ``name``."""
        return fn() if self.tracer is None else self._traced(name, fn)

    def _traced(self, name: str, fn: Callable[[], Any], span: Optional[str] = None) -> Any:
        tracer = self.tracer
        start = perf_counter()
        failed = True
        try:
            out = fn()
            failed = False
            return out
        finally:
            end = perf_counter()
            tracer.record(name, start, end, failed)
            if span is not None:
                tracer.busy[span] += end - start

    def note_count(self, name: str, n: int) -> None:
        """Add ``n`` to a work counter (traced runs only)."""
        if self.tracer is not None:
            self.tracer.counts[name] = self.tracer.counts.get(name, 0) + n

    def note_max(self, name: str, n: int) -> None:
        """Raise a high-water mark to ``n`` (traced runs only)."""
        if self.tracer is not None:
            self.tracer.counts[name] = max(self.tracer.counts.get(name, 0), n)


@dataclass
class Outcome:
    kind: str
    latency_s: float
    failure: Optional[str]  # None when the op returned and passed its check
    mismatch: bool          # True when the op returned a wrong output
    probes_before: int = 0  # speed probes taken before the op started


@dataclass
class Pass:
    outcomes: list[Outcome]
    rounds: int
    wall_s: float  # op time only: checks, probes and between_rounds excluded
    probe_ref_s: float = 0.0
    probes: list[float] = field(default_factory=list)

    @property
    def speed_factor(self) -> float:
        """Takes a wall time measured in this pass to the reference speed."""
        return self.probe_ref_s / statistics.fmean(self.probes) if self.probes else 1.0

    def op_speed_factor(self, o: Outcome) -> float:
        """Like ``speed_factor``, from the two probes on either side of the op."""
        if not self.probes:
            return 1.0
        k = o.probes_before
        around = self.probes[k - 1:k + 1]
        return self.probe_ref_s / statistics.fmean(around)


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the upper rank that ``percentile`` interpolates from."""
    if n == 0:
        return 0
    return n - 1 - math.ceil((n - 1) * pct / 100.0)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (the ``inclusive`` definition)."""
    xs = sorted(values)
    h = (len(xs) - 1) * pct / 100.0
    lo, hi = math.floor(h), math.ceil(h)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def run_pass(
    rounds: Iterator[list[Op]],
    lib: Lib,
    *,
    seconds: float = 0.0,
    tail_pct: Optional[float] = None,
    max_rounds: Optional[int] = None,
    between_rounds: Callable[[float], None] = lambda timed_s: None,
    keep_outputs: bool = False,
    probe: Optional[SpeedProbe] = None,
) -> tuple[Pass, list[tuple[Op, Any]]]:
    """Run whole rounds closed-loop, checking each round after it ends.

    Stops after ``max_rounds`` rounds when given; otherwise after the first
    round boundary at which ``seconds`` of timed wall time have passed and,
    when ``tail_pct`` is given, at least ten samples lie beyond that
    percentile.  The round's checks and then ``between_rounds(timed_s)``
    follow each round with the clock stopped.  Checked outputs are dropped
    unless ``keep_outputs``, so the heap the ops run against does not grow
    with the run.  A ``probe``, when given, runs before the first op and then
    after any op that ends ``PROBE_EVERY_S`` of op time after the last
    probe, also with the clock stopped.
    """
    tracer = lib.tracer
    outcomes: list[Outcome] = []
    kept: list[tuple[Op, Any]] = []
    done, timed = 0, 0.0
    probes = [probe.run()] if probe else []
    since_probe = 0.0
    for batch in rounds:
        outputs = []
        for op in batch:
            if tracer is not None:
                tracer.op_id = len(outcomes)
                tracer.parent = "op." + op.kind
            t0 = perf_counter()
            try:
                out = op.run(lib)
                failure = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = None
                failure = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.parent = None
                tracer.spans.append((tracer.op_id, None, "op." + op.kind, t0, t1))
            outcomes.append(Outcome(op.kind, t1 - t0, failure, False, len(probes)))
            outputs.append((op, out))
            timed += t1 - t0
            since_probe += t1 - t0
            if probe and since_probe >= PROBE_EVERY_S:
                probes.append(probe.run())
                since_probe = 0.0
        done += 1
        first = len(outcomes) - len(outputs)
        for i, (op, out) in enumerate(outputs, first):
            _check(lib, i, op, out, outcomes[i])
        if keep_outputs:
            kept.extend(outputs)
        between_rounds(timed)
        if max_rounds is not None:
            if done >= max_rounds:
                break
            continue
        if timed < seconds:
            continue
        if tail_pct is None or samples_beyond(len(outcomes), tail_pct) >= 10:
            break
    return Pass(outcomes, done, timed, probe.ref_s if probe else 0.0, probes), kept


def _check(lib: Lib, i: int, op: Op, out: Any, outcome: Outcome) -> None:
    """Check one returned output; a wrong one marks the op failed."""
    if outcome.failure is not None:
        return
    tracer = lib.tracer
    if tracer is not None:
        tracer.op_id = i
        tracer.parent = "check." + op.kind
    t0 = perf_counter()
    try:
        op.check(lib, out)
    except Exception as exc:  # any exception inside a check means a wrong output
        outcome.failure = f"check {type(exc).__name__}: {exc}"
        outcome.mismatch = True
    if tracer is not None:
        tracer.parent = None
        tracer.spans.append((i, None, "check." + op.kind, t0, perf_counter()))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1.0 / (1024 * 1024) if sys.platform == "darwin" else 1.0 / 1024
    return max(own, kids) * scale


def seeded_rounds(make_round: Callable[[random.Random], list[Op]], seed: int) -> Iterator[list[Op]]:
    """Endless rounds from one seeded generator: same seed, same op stream."""
    rng = random.Random(seed)
    while True:
        yield make_round(rng)


def summarize(p: Pass, tail_pct: float) -> dict[str, float]:
    """End-to-end metrics of one untraced pass, at the reference host speed."""
    lat = [o.latency_s * p.op_speed_factor(o) for o in p.outcomes]
    ok = sum(1 for o in p.outcomes if o.failure is None)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": percentile(lat, tail_pct) * 1e3,
        "success_rate": ok / len(lat),
    }
