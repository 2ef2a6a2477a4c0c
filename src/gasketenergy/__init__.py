"""Exact energy-measure arithmetic on the Sierpinski gasket.

Subpackages by role:

- ``core``        exact scalars/vectors/matrices, words, vertex addresses
- ``harmonic``    harmonic functions from boundary triples, energies
- ``measures``    cell masses of energy measures, positivity, decompositions
- ``derivatives`` measure-vs-measure derivatives at vertices, decay, scans
- ``bvectors``    normalized child-mass triples and their three routes
- ``dynamics``    the induced disk/circle iteration, histograms (floats)
- ``verify``      runnable invariant suites
- ``cli``         command-line entry point (``gasketenergy``)
"""

__version__ = "0.1.0"

#: Largest bin (or slice) count any histogram accepts.  It lives here, not in
#: ``dynamics``, so the ``ifs`` help text can name it without loading numpy.
BINS_MAX = 100_000

#: Deepest ``edge-profile`` depth d (2^d + 1 values), here so its help loads no exact module.
EDGE_DEPTH_MAX = 16

#: Names of the ``verify`` suites in run order, the keys of ``verify.SUITES``;
#: here so the ``verify`` help text needs none of the modules they check.
SUITE_NAMES = ("core", "harmonic", "measures", "derivatives", "bvectors", "dynamics")


def worker_count(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes worth starting: no more than ``jobs``, the tasks or the CPUs."""
    return min(jobs, tasks, cpus or 1)


def fan_out(fn, items: list, workers: int):
    """``fn(item)`` for each item, in order, from ``workers`` processes.  If an item raises
    or the caller stops early, the workers are stopped, so the items left never finish."""
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            yield from (future.result() for future in futures)
        except BaseException:  # GeneratorExit too; the pool's exit would wait for running items
            for proc in list(pool._processes.values()):  # no public handle before Python 3.14
                proc.terminate()
            raise
