"""Float laboratory for the subdivision dynamics on the weight disk.

The exact weight triples of the bvectors module live on a disk; appending a
letter to the cell word acts on that disk by one of three maps.  On the
homogeneous rows (T, X, Y) of the unit-disk point (X/T, Y/T), in orthonormal
in-plane coordinates, letter 0 is the Klein-model boost (cosh = 5/3)

    B = ((5, 4, 0), (4, 5, 0), (0, 0, 3)):  (x, y) |-> ((5x + 4)/(4x + 5), 3y/(4x + 5)),

and letter j is R(a_j) B R(-a_j) for its one-third-turn offset a_j, so a
descent multiplies and adds and never divides.  The maps fix the disk, contract
toward its boundary and restrict to the circle as smooth degree-one maps with a
closed form.  This module iterates all of that in double precision: point
clouds of every level-m cell's weight triple, angular and radial histograms,
boundary orbits, and the residual of a sampled density under the circle maps'
transfer operator.

Everything here is float; exactness lives in the bvectors module, and the
tests pin these floats against it.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import BINS_MAX, GRID_SIZE_MAX, LEVEL_LIMIT, check_letter, check_range, fan_out, worker_count

TWO_PI = 2.0 * math.pi
THIRD_TURN = TWO_PI / 3.0
#: b-space radius of the weight disk; unit-disk radius 1 corresponds to this.
DISK_RADIUS_B = 1.0 / math.sqrt(6.0)

_SQRT3 = math.sqrt(3.0)
_ROT = (0.0, THIRD_TURN, -THIRD_TURN)  # circle offset of each letter's map
_S = _SQRT3 / 2.0  # the sine of the one-third turn

#: The circle maps on half-angles h = theta/2: letter 0 sends (cos h, sin h) to
#: (3 cos h, sin h), so tan(theta/2) to tan(theta/2)/3, and the image angle is
#: twice the new pair's argument.  Letter j is R(a_j/2) diag(3, 1) R(-a_j/2) for
#: its offset a_j, a symmetric 2x2 matrix.  The inverses are their adjugates (det 3
#: times the inverse, a scale atan2 ignores); 0.0 - x keeps letter 0's zeros +0.0.
_HALF_STEP = (((3.0, 0.0), (0.0, 1.0)), ((1.5, _S), (_S, 2.5)), ((1.5, -_S), (-_S, 2.5)))
_HALF_STEP_INVERSE = tuple(((d, 0.0 - b), (0.0 - c, a)) for (a, b), (c, d) in _HALF_STEP)
#: The disk maps on homogeneous rows (T, X, Y): letter j is R(a_j) B R(-a_j), with R
#: rotating (X, Y) by the offset a_j of cosine c and sine s, written out symmetric.
_DISK_STEP = tuple(((5.0, 4.0 * c, 4.0 * s), (4.0 * c, 5.0 * c * c + 3.0 * s * s, 2.0 * c * s),
                    (4.0 * s, 2.0 * c * s, 3.0 * c * c + 5.0 * s * s))
                   for c, s in ((1.0, 0.0), (-0.5, _S), (-0.5, -_S)))

#: Boundary fixed angles of the three maps (two per letter, exact).
BOUNDARY_FIXED_ANGLES: tuple[tuple[float, float], ...] = (
    (0.0, math.pi),
    (THIRD_TURN, -math.pi / 3.0),
    (-THIRD_TURN, math.pi / 3.0),
)

#: Boundary seed points used for the orbit histogram.
DEFAULT_SEEDS: tuple[tuple[float, float], ...] = (
    (0.0, 1.0),
    (-1.0, 0.0),
    (math.sqrt(0.5), -math.sqrt(0.5)),
)


class DiskPoint(NamedTuple):
    """A point of the closed unit disk (the weight disk, rescaled)."""

    x: float
    y: float

    @classmethod
    def from_b(cls, b: Sequence[float]) -> "DiskPoint":
        """From a unit-sum weight triple; the barycenter maps to the origin."""
        return cls(3.0 * float(b[0]) - 1.0, _SQRT3 * (float(b[1]) - float(b[2])))

    @classmethod
    def from_polar(cls, r: float, theta: float) -> "DiskPoint":
        """From b-space polar coordinates (r up to 1/sqrt(6) on the boundary)."""
        s = r / DISK_RADIUS_B
        return cls(s * math.cos(theta), s * math.sin(theta))

    def to_b(self) -> tuple[float, float, float]:
        b0 = (self.x + 1.0) / 3.0
        half_rest = (2.0 - self.x) / 6.0
        d = self.y / (2.0 * _SQRT3)
        return (b0, half_rest + d, half_rest - d)

    @property
    def radius(self) -> float:
        """Unit-disk radius (1 on the boundary)."""
        return math.hypot(self.x, self.y)


def _step(table, j: int, state: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Matrix j of ``table`` on the homogeneous rows ``state``, elementwise: each row of
    ``out`` is its first product plus the others, in that order, through one ``tmp`` row."""
    for row, o in zip(table[j], out):
        np.multiply(row[0], state[0], out=o)
        for m, s in zip(row[1:], state[1:]):
            np.add(o, np.multiply(m, s, out=tmp), out=o)


def _disk_map(j: int, x, y):
    """The letter-j disk map at (x, y), floats or arrays, by Python's operators: the
    image of the homogeneous row (1, x, y), its T divided out."""
    (t0, t1, t2), (x0, x1, x2), (y0, y1, y2) = _DISK_STEP[j]
    t = t0 + t1 * x + t2 * y
    return (x0 + x1 * x + x2 * y) / t, (y0 + y1 * x + y2 * y) / t


def _circle_map_array(j: int, theta: np.ndarray, table=_HALF_STEP) -> np.ndarray:
    """The letter-j circle map (its inverse with ``_HALF_STEP_INVERSE``), elementwise,
    as an angle in [-2pi, 2pi].  A half-angle pair and its negative double to
    the same angle, so theta needs no reduction first."""
    h = 0.5 * theta
    p, q = np.cos(h), np.sin(h)
    (a, b), (c, d) = table[j]
    return 2.0 * np.arctan2(c * p + d * q, a * p + b * q)


def apply_B(j: int, p: Sequence[float]) -> DiskPoint:
    """Image of a disk point under the letter-j subdivision map.

    Rejects points beyond the closed disk by more than 1e-9.
    """
    check_letter("letter", j)
    x, y = float(p[0]), float(p[1])
    if not x * x + y * y <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError("point outside the closed disk")
    return DiskPoint(*_disk_map(j, x, y))


# ---------------------------------------------------------------------------
# circle restrictions
# ---------------------------------------------------------------------------

def _wrap(t: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.remainder(t, TWO_PI)
    return math.pi if t == -math.pi else t


def circle_map(j: int, theta: float) -> float:
    """Boundary restriction of the letter-j map, as an angle in (-pi, pi]."""
    return _wrap(float(_circle_map_array(check_letter("letter", j), theta)))


def circle_map_deriv(j: int, theta: float) -> float:
    """Derivative of the boundary map: 3/(5 + 4cos(theta - offset)); positive."""
    return 3.0 / (5.0 + 4.0 * math.cos(theta - _ROT[check_letter("letter", j)]))


def gamma_residual(r: float, theta: float, j: int) -> float:
    """Defect of the image-radius identity at one point.

    The squared b-radius of the image satisfies
    gamma^2 - 1/6 = 9 (r^2 - 1/6) / (4 sqrt(6) r cos(theta - offset) + 5)^2;
    this evaluates both sides, the left from the actual image point.
    """
    if not r <= DISK_RADIUS_B + 1e-9:  # NaN fails too
        raise ValueError("radius beyond the weight disk")
    p = DiskPoint.from_polar(r, theta)
    gamma = apply_B(j, p).radius * DISK_RADIUS_B
    lhs = gamma * gamma - 1.0 / 6.0
    den = 4.0 * math.sqrt(6.0) * r * math.cos(theta - _ROT[j]) + 5.0
    rhs = 9.0 * (r * r - 1.0 / 6.0) / (den * den)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# level clouds
# ---------------------------------------------------------------------------

#: Each counting task takes ``_BLOCK_POINTS`` contiguous frontier points through
#: the last ``_TASK_LEVELS`` levels: 3^10 leaves, 0.47 MB a row of a level array.
_TASK_LEVELS = 7
_BLOCK_POINTS = 27
#: The barycenter, and the level-1 point of the word "0" where the subtree-0
#: cloud of the histograms starts, as homogeneous (T, X, Y) columns.
_ORIGIN = np.array([[1.0], [0.0], [0.0]])
_SUBTREE0 = np.array(_DISK_STEP[0])[:, :1]


def _scratch(rows: int, n: int) -> tuple:
    """One counting call's buffers for tasks of up to ``n`` leaves of ``rows`` coordinates:
    two ping-pong level arrays, three float rows (the step's temporary, then the leaf
    values and the fold's products) and the int64 bin index."""
    return np.empty((2, rows * n)), np.empty((3, n)), np.empty(n, np.int64)


def _descend(table, state: np.ndarray, levels: int, scratch: tuple) -> np.ndarray:
    """All images of the n points (one row per coordinate) under the words of the given
    length by the matrices of ``table``, letter-major: each letter's children go into one
    contiguous run j of a (rows, 3, n) view of the ``_scratch``'s level arrays in turn,
    so leaf j_L 3^(L-1) n + ... + j_1 n + k is point k taken through letters j_1 ... j_L."""
    for i in range(levels):
        rows, n = state.shape
        children = scratch[0][i % 2, :3 * rows * n].reshape(rows, 3, n)
        for j in (0, 1, 2):
            _step(table, j, state, children[:, j], scratch[1][0, :n])
        state = children.reshape(rows, -1)
    return state


def _word_order(state: np.ndarray, levels: int) -> np.ndarray:
    """The leaves of a ``levels``-deep ``_descend`` in word order, a copy: leaf
    k 3^L + j_1 3^(L-1) + ... + j_L, the letter-major index's digits reversed."""
    rows, size = state.shape
    digits = state.reshape((rows,) + (3,) * levels + (size // 3 ** levels,))
    return digits.transpose(0, *range(levels + 1, 0, -1)).reshape(rows, -1)


def _blocks(table, state: np.ndarray, levels: int) -> list:
    """Descend all but the last ``_TASK_LEVELS`` levels once and cut the frontier,
    in word order, into contiguous blocks, each with the levels left; an empty
    frontier still gives one (empty) block, so counts keep their length."""
    top = max(levels - _TASK_LEVELS, 0)
    state = _word_order(_descend(table, state, top, _scratch(len(state), state.shape[1] * 3 ** top)), top)
    size = max(state.shape[1], 1)
    return [(table, state[:, i:i + _BLOCK_POINTS], levels - top)
            for i in range(0, size, _BLOCK_POINTS)]


def _leaves(tasks: list) -> Iterator[tuple]:
    """Each task's leaves, in the one ``_scratch`` (sized for the widest task) the next overwrites."""
    scratch = _scratch(len(tasks[0][1]), max(block.shape[1] * 3 ** levels for _, block, levels in tasks))
    for table, block, levels in tasks:
        yield _descend(table, block, levels, scratch), scratch


def enumerate_level(m: int) -> Iterator[tuple[float, float, float]]:
    """All 3^m level-m weight triples, floats, in lexicographic word order."""
    check_range("level", m, 0, LEVEL_LIMIT)
    for leaves, _ in _leaves(_blocks(_DISK_STEP, _ORIGIN, m)):
        t, x, y = _word_order(leaves, min(m, _TASK_LEVELS))  # each task's levels
        yield from zip(*(b.tolist() for b in DiskPoint(x / t, y / t).to_b()))


def _count_tasks(count, tasks: list) -> np.ndarray:
    """``count`` summed over the tasks, all run on one ``_scratch``."""
    return sum(count(leaves, *(a[..., :leaves.shape[1]] for a in scratch[1:]))
               for leaves, scratch in _leaves(tasks))


def _count(table, state: np.ndarray, levels: int, count, jobs: int) -> np.ndarray:
    """``count`` summed over the blocks; each worker takes every ``workers``-th
    task and makes its own scratch.  Each point runs the same elementwise float
    chain whatever the blocks or workers, so neither changes the counts."""
    tasks = _blocks(table, state, levels)
    workers = worker_count(jobs, len(tasks), os.cpu_count())
    if workers == 1:
        return _count_tasks(count, tasks)
    return sum(fan_out(partial(_count_tasks, count), [tasks[k::workers] for k in range(workers)], workers))


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

#: Normalization tags: values scaled to mean 1, or to ratios of the total.
NORM_MEAN_ONE = "MeanOne"
NORM_RATIO = "Ratio"

_ARC_SPANS = {"full": TWO_PI, "third": THIRD_TURN, "sixth": math.pi / 3.0}


class Histogram(NamedTuple):
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    normalization: str

    @property
    def total(self) -> int:
        return sum(self.counts)

    def normalized_values(self) -> tuple[float, ...]:
        n = len(self.counts)
        total = self.total
        if total == 0:
            return (0.0,) * n
        if self.normalization == NORM_MEAN_ONE:
            return tuple(c * n / total for c in self.counts)
        return tuple(c / total for c in self.counts)


def _check_arc(arc: str) -> float:
    if arc not in _ARC_SPANS:
        raise ValueError(f"arc must be one of {sorted(_ARC_SPANS)}, got {arc!r}")
    return _ARC_SPANS[arc]


def _check_sizes(level_name: str, m: int, name: str, bins: int, jobs: int) -> None:
    check_range(level_name, m, 0, LEVEL_LIMIT)
    check_range(name, bins, 1, BINS_MAX)
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _bin_counts(t: np.ndarray, span: float, bins: int, idx: np.ndarray) -> np.ndarray:
    """Counts in the bins of [0, span]; floors ``t`` in place and casts it into ``idx``."""
    np.copyto(idx, np.floor(np.multiply(t, bins / span, out=t), out=t), casting="unsafe")
    return np.bincount(np.minimum(np.maximum(idx, 0, out=idx), bins - 1, out=idx), minlength=bins)


def _fold_angles(t: np.ndarray, arc: str, tmp: np.ndarray) -> np.ndarray:
    """Reduce angles in [-2pi, 2pi], in place, into the reporting arc by the
    symmetries that tile it, each comparison written as 0.0 or 1.0 into the
    float ``tmp`` row.  2pi goes to 0 before the negatives are lifted, so a
    lifted one is never reduced again.  Each subtraction is exact (Sterbenz), so
    this is bit for bit ``np.mod(np.mod(t, TWO_PI), THIRD_TURN)``, tiny
    negatives to 2pi too."""
    t -= np.multiply(np.greater_equal(t, TWO_PI, out=tmp), TWO_PI, out=tmp)
    t += np.multiply(np.less(t, 0.0, out=tmp), TWO_PI, out=tmp)
    if arc == "full":
        return t
    t -= np.multiply(np.greater_equal(t, 2.0 * THIRD_TURN, out=tmp), 2.0 * THIRD_TURN, out=tmp)
    t -= np.multiply(np.greater_equal(t, THIRD_TURN, out=tmp), THIRD_TURN, out=tmp)
    if arc == "sixth":
        np.minimum(t, np.subtract(THIRD_TURN, t, out=tmp), out=t)
    return t


def _arc_counts(theta: np.ndarray, arc: str, bins: int, tmp, index) -> np.ndarray:
    return _bin_counts(_fold_angles(theta, arc, tmp), _ARC_SPANS[arc], bins, index)


def _angular_counts(leaves, work, index, arc: str, slices: int) -> np.ndarray:
    theta = np.arctan2(leaves[2], leaves[1], out=work[0])
    if arc == "full" and slices % 3:
        return sum(_arc_counts(np.add(theta, rot, out=work[1]), arc, slices, work[2], index)
                   for rot in _ROT)
    return _arc_counts(theta, arc, slices, work[1], index)


def _orbit_counts(leaves, work, index, arc: str, bins: int) -> np.ndarray:
    theta = np.multiply(2.0, np.arctan2(leaves[1], leaves[0], out=work[0]), out=work[0])
    return _arc_counts(theta, arc, bins, work[1], index)


def _radial_counts(leaves, work, index, bins: int) -> np.ndarray:
    r = np.divide(np.hypot(leaves[1], leaves[2], out=work[0]), leaves[0], out=work[0])
    return _bin_counts(np.multiply(r, DISK_RADIUS_B, out=r), DISK_RADIUS_B, bins, index)


def _edges(span: float, bins: int) -> tuple[float, ...]:
    return tuple(span * i / bins for i in range(bins + 1))


def angular_histogram(m: int, slices: int = 100, arc: str = "third", jobs: int = 1) -> Histogram:
    """Angle histogram of the level-m weight cloud, mean-one normalized.

    The cloud is exactly invariant under the one-third rotation (cycling the
    three letters of every word cycles the weights), so only the subtree of
    words starting with 0 is ever enumerated and the other two subtrees are
    folded in by rotating whole bins.  The reported histogram is therefore
    exactly symmetric, not just up to float placement.  For the full arc
    that folding needs the slice count divisible by 3; otherwise the three
    rotated copies are binned directly.
    """
    span = _check_arc(arc)
    _check_sizes("level", m, "slices", slices, jobs)
    if m == 0:  # the barycenter alone, at angle 0
        return Histogram(_edges(span, slices), (1,) + (0,) * (slices - 1), NORM_MEAN_ONE)
    count = partial(_angular_counts, arc=arc, slices=slices)
    counts = _count(_DISK_STEP, _SUBTREE0, m - 1, count, jobs)
    if arc != "full":
        counts = 3 * counts
    elif slices % 3 == 0:
        k = slices // 3
        counts = counts + np.roll(counts, k) + np.roll(counts, 2 * k)
    return Histogram(_edges(span, slices), tuple(counts.tolist()), NORM_MEAN_ONE)


def radial_histogram(m: int, bins: int = 300, jobs: int = 1) -> Histogram:
    """Radius histogram of the level-m weight cloud over [0, 1/sqrt(6)].

    Values are reported as ratios of the total count.  Radii are rotation
    invariant, so the subtree-0 counts are simply tripled.
    """
    _check_sizes("level", m, "bins", bins, jobs)
    if m == 0:  # the barycenter alone, at radius 0
        return Histogram(_edges(DISK_RADIUS_B, bins), (1,) + (0,) * (bins - 1), NORM_RATIO)
    count = partial(_radial_counts, bins=bins)
    counts = 3 * _count(_DISK_STEP, _SUBTREE0, m - 1, count, jobs)
    return Histogram(_edges(DISK_RADIUS_B, bins), tuple(counts.tolist()), NORM_RATIO)


def boundary_orbit_histogram(seeds: Sequence[tuple[float, float]] = DEFAULT_SEEDS, iters: int = 14,
                             bins: int = 800, arc: str = "sixth", jobs: int = 1) -> Histogram:
    """Angle histogram of boundary seeds pushed through every length-``iters``
    word of the circle maps, mean-one normalized.

    Seeds must sit on the boundary circle (1e-9 tolerance).  Angles are
    folded into the reporting arc by the rotation (and, for the sixth,
    reflection) symmetries of the map family, so a seed anywhere on the
    circle lands in the report.  The work is len(seeds) * 3**iters points,
    so at most len(``DEFAULT_SEEDS``) * 3**(``LEVEL_LIMIT`` - iters) seeds,
    the work of the largest default orbit, are taken before any work.
    """
    span = _check_arc(arc)
    _check_sizes("iters", iters, "bins", bins, jobs)
    check_range("len(seeds)", len(seeds), 0, len(DEFAULT_SEEDS) * 3 ** (LEVEL_LIMIT - iters))
    for sx, sy in seeds:
        if not abs(sx * sx + sy * sy - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"seed ({sx}, {sy}) is not on the boundary circle")
    h = np.array([0.5 * math.atan2(sy, sx) for sx, sy in seeds], dtype=float)
    count = partial(_orbit_counts, arc=arc, bins=bins)
    counts = _count(_HALF_STEP, np.array([np.cos(h), np.sin(h)]), iters, count, jobs)
    return Histogram(_edges(span, bins), tuple(counts.tolist()), NORM_MEAN_ONE)


# ---------------------------------------------------------------------------
# transfer-operator residual
# ---------------------------------------------------------------------------

def invariant_density_residual(values: Sequence[float]) -> float:
    """Sup distance of a sampled circle density from its transfer image.

    ``values`` samples the density at the uniform grid t_i = 2*pi*i/n.  The
    transfer image at t averages the three pullbacks f(g_j^{-1}(t)) weighted
    by the inverse derivative 3/(5 - 4cos(t - offset_j)); a density equal to
    its image would be invariant under the map family.  Evaluation between
    grid points interpolates linearly around the circle.
    """
    f = np.asarray(values, dtype=float)
    n = f.size
    if n < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise ValueError("density values must be finite and nonnegative")
    grid = TWO_PI * np.arange(n) / n
    xp = np.concatenate([grid, [TWO_PI]])
    fp = np.concatenate([f, f[:1]])
    image = np.zeros(n)
    for j in (0, 1, 2):
        pre = _circle_map_array(j, grid, _HALF_STEP_INVERSE)
        weight = 3.0 / (5.0 - 4.0 * np.cos(grid - _ROT[j]))
        image += np.interp(np.mod(pre, TWO_PI), xp, fp) * weight
    image /= 3.0
    return float(np.max(np.abs(f - image)))


def density_from_angular(hist: Histogram) -> np.ndarray:
    """Tile an angular histogram to a full-circle mean-one density sample.

    Accepts full-arc histograms as-is and third-arc ones tiled three times;
    the sample grid is the left bin edges, matching what the residual wants.
    """
    values = np.asarray(hist.normalized_values())
    span = hist.bin_edges[-1] - hist.bin_edges[0]
    if abs(span - TWO_PI) < 1e-12:
        return values
    if abs(span - THIRD_TURN) < 1e-12:
        return np.tile(values, 3)
    raise ValueError("only full or third arcs tile the circle")


def count_grid_fixed_points(j: int, n: int = 200) -> int:
    """Interior fixed points of one map by grid search: the points of an
    n x n grid inside the disk that map ``j`` moves by less than 1e-9.

    The only fixed points sit on the boundary circle, so this returns 0.
    """
    check_letter("letter", j)
    xs = np.linspace(-1.0, 1.0, check_range("n", n, 1, GRID_SIZE_MAX))
    gx, gy = np.meshgrid(xs, xs)
    inside = gx * gx + gy * gy < 1.0
    x, y = gx[inside], gy[inside]
    bx, by = _disk_map(j, x, y)
    return int(np.count_nonzero(np.hypot(bx - x, by - y) < 1e-9))
