"""Exact energy-measure arithmetic on the Sierpinski gasket.

Modules by role:

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

# Every size cap lives here, so help texts name them without loading numpy or the
# exact modules; each is checked before any work.  Times are on 2 CPUs.
#: Longest address word; exact numerators grow linearly in digits with its length.
WORD_MAX_LEN = 64
#: Largest bin (or slice) count any histogram accepts.
BINS_MAX = 100_000
#: Deepest ``edge-profile`` depth d: 2^d + 1 values, 1.1 s at d = 16.
EDGE_DEPTH_MAX = 16
#: Deepest ``bvector --level`` scan: 3^12 rows, 11.5 s and 237 MB.
BVECTOR_LEVEL_MAX = 12
#: Deepest ``dynamics`` level: ``ifs orbit --iters 16`` 2.2 s, ``angular`` 0.45 s, ``enumerate_level`` 5.8 s.
LEVEL_LIMIT = 16
#: Deepest ``find_negative_cell`` search: at most 3^12 rows (1.5 s and 162 MB without the prune); pruned,
#: 300 seeded near-boundary triples took at most 0.02 s and 0.2 MB traced.
NEGATIVE_DEPTH_MAX = 12
#: Deepest ``scan_extrema``: 0.1-0.2 ms a scan after one build of its circle order (at 12: 0.12-0.16 s, 15 MB).
EXTREMA_DEPTH_MAX = 12
#: Deepest ``scan_bounds``: 0.56-0.76 s (``int64`` holds through level 17, so time sets the cap).
BOUNDS_LEVEL_MAX = 15
#: Deepest ``monotone_left_right``: 2^12 bottom-edge cells, 0.004 s.
MONOTONE_LEVEL_MAX = 12
#: Deepest ``operator_norm_scan``: its last int64 level (partial sums within 53 * 4920625**2 * 53 < 2**56;
#: 4920625**2 * 109325 > 2**61 at 11), 0.01 s.
NORM_LEVEL_MAX = 10
#: Deepest vertex set of ``all_vertices``, ``harmonic_vertex_values`` or ``graph_energy``: 0.9 s.
VERTEX_LEVEL_MAX = 10
#: Widest ``count_grid_fixed_points`` grid: 10^6 points, 0.05 s and 60 MB.
GRID_SIZE_MAX = 1000

#: Names of the ``verify`` suites in run order, the keys of ``verify.SUITES``;
#: here so the ``verify`` help text needs none of the modules they check.
SUITE_NAMES = ("core", "harmonic", "measures", "derivatives", "bvectors", "dynamics")


def check_range(name: str, value: int, lo: int, hi: int) -> int:
    """``value``, or a ``ValueError`` naming ``name`` unless it is an ``int`` (not a ``bool``) with
    ``lo <= value <= hi``."""
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"{name} must be between {lo} and {hi}, got {value}")
    return value


def check_letter(name: str, value: int) -> int:
    """``value``, or a ``ValueError`` naming ``name`` unless it is a letter (or corner), the ``int`` 0, 1 or 2."""
    if type(value) is not int or value not in (0, 1, 2):
        raise ValueError(f"{name} must be 0, 1 or 2, got {value!r}")
    return value


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
