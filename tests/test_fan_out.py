"""The package root's worker pool, and ``verify --suite all`` run through it.

``--suite all`` runs its six suites in min(6, CPU count) worker processes and
must print the bytes, exit codes and exceptions of the in-process run.
"""

import concurrent.futures
import os
import signal
import subprocess
import sys
import time

import pytest

import gasketenergy
from gasketenergy import verify
from gasketenergy.cli import main
from subprocess_env import python_env


def test_worker_count_is_capped_by_tasks_and_cpus():
    assert gasketenergy.worker_count(1, 27, 8) == 1
    assert gasketenergy.worker_count(2, 27, 8) == 2
    assert gasketenergy.worker_count(10**9, 27, 8) == 8
    assert gasketenergy.worker_count(10**9, 3, 8) == 3
    assert gasketenergy.worker_count(4, 27, None) == 1


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the ``ProcessPoolExecutor``s started, real ones."""
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


def _verify(capsys, monkeypatch, cpus, *argv):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("depth", ["1", "2", "3"])
def test_all_suites_in_a_pool_print_the_in_process_bytes(capsys, monkeypatch, pools, depth):
    pooled = _verify(capsys, monkeypatch, 2, "--suite", "all", "--max-depth", depth)
    assert pools == [2]
    assert pooled == _verify(capsys, monkeypatch, 1, "--suite", "all", "--max-depth", depth)
    assert pools == [2]
    assert pooled[0] == 0 and len(pooled[1].splitlines()) == 34


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor`` and records its worker counts."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        done = concurrent.futures.Future()
        done.set_result(fn(item))
        return done


def test_all_suites_take_at_most_six_workers_and_one_suite_none(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "started", [])
    assert _verify(capsys, monkeypatch, 64, "--suite", "all", "--max-depth", "1")[0] == 0
    assert _InProcessPool.started == [6]
    assert _verify(capsys, monkeypatch, 64, "--suite", "harmonic", "--max-depth", "1")[0] == 0
    assert _InProcessPool.started == [6]


def test_a_failing_check_in_a_worker_prints_the_in_process_fail_line(capsys, monkeypatch, pools):
    """The corrupted route reaches the forked worker, which prints the same
    ``FAIL`` line in the same place and exits 1."""
    real = verify.children_triple_via_refine

    def corrupted(c, word):
        x = real(c, word)
        return (x[0] + 1,) + x[1:] if word.startswith("1") else x

    monkeypatch.setattr(verify, "children_triple_via_refine", corrupted)
    pooled = _verify(capsys, monkeypatch, 2, "--suite", "all", "--max-depth", "1")
    assert pools == [2]
    assert pooled == _verify(capsys, monkeypatch, 1, "--suite", "all", "--max-depth", "1")
    lines = pooled[1].splitlines()
    assert pooled[0] == 1 and [i for i, line in enumerate(lines) if not line.startswith("PASS")] == [9]
    assert lines[9] == ("FAIL  measures.cross-route: counterexample "
                        "((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), '1')")


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")  # in the pool's thread
@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
def test_a_check_raising_in_a_worker_reaches_main_as_its_own_type(capsys, monkeypatch, pools, error):
    """An uncaught error leaves ``main`` as itself (a traceback and exit 1 in a
    process); a ``ValueError`` is exit 2 with its one ``error:`` line."""
    def broken(level):
        raise error(f"no vertices at level {level}")

    monkeypatch.setattr(verify, "all_vertices", broken)  # the first suite's third check
    results = []
    for cpus in (2, 1):
        if error is ValueError:
            results.append(_verify(capsys, monkeypatch, cpus, "--suite", "all", "--max-depth", "1")[::2])
        else:
            with pytest.raises(error, match="no vertices at level 1"):
                _verify(capsys, monkeypatch, cpus, "--suite", "all", "--max-depth", "1")
    assert pools == [2]
    assert results in ([], [(2, "error: no vertices at level 1\n")] * 2)


CLOSE_EARLY = """
import os, sys, time
import gasketenergy.cli as cli
import gasketenergy.verify as verify

os.cpu_count = lambda: 2

def suite(delay, lines):
    def run(max_depth):
        time.sleep(delay)
        yield from ((f"stub.{i}", True, "fine") for i in range(lines))
    return run

# the second suite ends after the reader has gone; the next two run and the last two
# wait in the queue, all far longer than the test waits
verify.SUITES.update(core=suite(0, 2), harmonic=suite(1, 1), measures=suite(600, 1),
                     derivatives=suite(600, 1), bvectors=suite(600, 1), dynamics=suite(600, 1))
code = cli.main(["verify", "--suite", "all"])
sys.exit(code if "concurrent.futures" in sys.modules else 99)
"""


def _group_is_gone(pgid, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)  # signal 0: only asks whether any process is in the group
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def test_closing_the_reader_stops_the_pool_at_once():
    """The reader closes after the first line; the next suite's lines hit the
    closed pipe, and the command exits 141 without running the suites still
    running or queued.  The workers share the command's new process group, so
    an empty group means none is left alive."""
    proc = subprocess.Popen([sys.executable, "-c", CLOSE_EARLY], env=python_env(unbuffered=True),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=30)  # the suites left would take 600 s
        err = proc.stderr.read().decode()
        assert (code, first) == (141, b"PASS  stub.0: fine\n"), err
        assert "Traceback" not in err and _group_is_gone(proc.pid, 10)
    finally:
        if not _group_is_gone(proc.pid, 0.1):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stderr.close()
