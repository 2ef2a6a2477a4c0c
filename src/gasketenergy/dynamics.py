"""Float laboratory for the subdivision dynamics on the weight disk.

The exact weight triples of the bvectors module live on a disk; appending a
letter to the cell word acts on that disk by one of three rational maps.  In
orthonormal in-plane coordinates scaled to the unit disk the letter-0 map is

    (x, y)  |->  ((5x + 4)/(4x + 5),  3y/(4x + 5)),

and the other two letters are its conjugates by the one-third rotations.
The maps fix the disk, contract toward its boundary, and restrict to the
circle as smooth degree-one maps with an explicit closed form.  This module
iterates all of that in double precision: point clouds of every level-m
cell's weight triple, angular and radial histograms, boundary orbits, and
the residual of a sampled density under the circle maps' transfer operator.

Everything here is float; exactness lives in the bvectors module, and the
tests pin these floats against it.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import BINS_MAX, fan_out, worker_count

TWO_PI = 2.0 * math.pi
THIRD_TURN = TWO_PI / 3.0
#: b-space radius of the weight disk; unit-disk radius 1 corresponds to this.
DISK_RADIUS_B = 1.0 / math.sqrt(6.0)

_ROT = (0.0, THIRD_TURN, -THIRD_TURN)  # circle offset of each letter's map
_COS_ROT = (1.0, -0.5, -0.5)
_SIN_ROT = (0.0, math.sqrt(3.0) / 2.0, -math.sqrt(3.0) / 2.0)

#: The circle maps on half-angles h = theta/2: letter 0 sends (cos h, sin h) to
#: (3 cos h, sin h), so tan(theta/2) to tan(theta/2)/3, and the image angle is
#: twice the new pair's argument.  Letter j is R(a_j/2) diag(3, 1) R(-a_j/2) for
#: its offset a_j, kept as (a, b, d) for the symmetric ((a, b), (b, d)); the
#: inverses use diag(1, 3) = 3 diag(1/3, 1), a scale that atan2 ignores.
_HALF_STEP = ((3.0, 0.0, 1.0), (1.5, _SIN_ROT[1], 2.5), (1.5, _SIN_ROT[2], 2.5))
_HALF_STEP_INVERSE = ((1.0, 0.0, 3.0), (2.5, _SIN_ROT[2], 1.5), (2.5, _SIN_ROT[1], 1.5))

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

_SQRT3 = math.sqrt(3.0)


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

    def to_polar(self) -> tuple[float, float]:
        return (math.hypot(self.x, self.y) * DISK_RADIUS_B, math.atan2(self.y, self.x))

    @property
    def radius(self) -> float:
        """Unit-disk radius (1 on the boundary)."""
        return math.hypot(self.x, self.y)


def _check_letter(j: int) -> None:
    if j not in (0, 1, 2):
        raise ValueError(f"letter must be 0, 1 or 2, got {j!r}")


#: Kernel arithmetic: the ufunc into ``out`` when one is given, else Python's operator.
_add = lambda a, b, out=None: a + b if out is None else np.add(a, b, out=out)
_sub = lambda a, b, out=None: a - b if out is None else np.subtract(a, b, out=out)
_mul = lambda a, b, out=None: a * b if out is None else np.multiply(a, b, out=out)
_div = lambda a, b, out=None: a / b if out is None else np.divide(a, b, out=out)


def _apply_B_arrays(j: int, x, y, out=(None, None), tmp=(None,) * 3):
    """The letter-j disk map, elementwise: rotate the letter's axis onto the
    x-axis, apply the letter-0 map, rotate back.  Writes into the ``out`` pair
    with three ``tmp`` rows when given; numpy allocates where they are None."""
    c, s = _COS_ROT[j], _SIN_ROT[j]
    (ox, oy), (t0, t1, t2) = out, tmp
    u = _add(_mul(c, x, t0), _mul(s, y, t1), t0)
    v = _add(_mul(-s, x, t1), _mul(c, y, t2), t1)
    den = _add(_mul(4.0, u, t2), 5.0, t2)
    u = _div(_add(_mul(5.0, u, t0), 4.0, t0), den, t0)
    v = _div(_mul(3.0, v, t1), den, t1)
    return _sub(_mul(c, u, ox), _mul(s, v, t2), ox), _add(_mul(s, u, oy), _mul(c, v, t2), oy)


def _half_step(j: int, p, q, table=_HALF_STEP, out=(None, None), tmp=(None,)):
    """Row j of a half-angle table on the pairs (p, q), elementwise: 4 multiplies, 2 adds."""
    a, b, d = table[j]
    (op, oq), t = out, tmp[0]
    return _add(_mul(a, p, op), _mul(b, q, t), op), _add(_mul(b, p, oq), _mul(d, q, t), oq)


def _circle_map_array(j: int, theta: np.ndarray, table=_HALF_STEP) -> np.ndarray:
    """The letter-j circle map (its inverse with ``_HALF_STEP_INVERSE``), elementwise,
    as an angle in [-2pi, 2pi].  A half-angle pair and its negative double to
    the same angle, so theta needs no reduction first."""
    h = 0.5 * theta
    p, q = _half_step(j, np.cos(h), np.sin(h), table)
    return 2.0 * np.arctan2(q, p)


def apply_B(j: int, p: Sequence[float]) -> DiskPoint:
    """Image of a disk point under the letter-j subdivision map.

    Rejects points beyond the closed disk by more than 1e-9.
    """
    _check_letter(j)
    x, y = float(p[0]), float(p[1])
    if not x * x + y * y <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError("point outside the closed disk")
    return DiskPoint(*_apply_B_arrays(j, x, y))


# ---------------------------------------------------------------------------
# circle restrictions
# ---------------------------------------------------------------------------

def _wrap(t: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.remainder(t, TWO_PI)
    return math.pi if t == -math.pi else t


def circle_map(j: int, theta: float) -> float:
    """Boundary restriction of the letter-j map, as an angle in (-pi, pi]."""
    _check_letter(j)
    return _wrap(float(_circle_map_array(j, theta)))


def circle_map_inverse(j: int, alpha: float) -> float:
    """Inverse boundary map, as an angle in (-pi, pi]."""
    _check_letter(j)
    return _wrap(float(_circle_map_array(j, alpha, _HALF_STEP_INVERSE)))


def circle_map_deriv(j: int, theta: float) -> float:
    """Derivative of the boundary map: 3/(5 + 4cos(theta - offset)); positive."""
    _check_letter(j)
    return 3.0 / (5.0 + 4.0 * math.cos(theta - _ROT[j]))


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

LEVEL_LIMIT = 16
#: Each counting task takes ``_BLOCK_POINTS`` contiguous frontier points through
#: the last ``_TASK_LEVELS`` levels: 3^10 leaves, which stay in a 2 MB L2 cache.
_TASK_LEVELS = 7
_BLOCK_POINTS = 27
#: The barycenter, and the level-1 point of the word "0" where the subtree-0
#: cloud of the histograms starts; one row per coordinate.
_ORIGIN = np.zeros((2, 1))
_SUBTREE0 = np.array(_apply_B_arrays(0, *_ORIGIN))


def _check_level(name: str, m: int) -> None:
    if m < 0 or m > LEVEL_LIMIT:
        raise ValueError(f"{name} must be between 0 and {LEVEL_LIMIT}")


def _scratch(n: int) -> tuple:
    """One counting call's buffers for tasks of up to ``n`` leaves: two ping-pong
    level arrays, three float rows (step temporaries, then the leaf values and
    the fold's products), the fold's two masks and the int64 bin index."""
    return np.empty((2, 2 * n)), np.empty((3, n)), np.empty((2, n), bool), np.empty(n, np.int64)


def _descend(step, state: np.ndarray, levels: int, scratch: tuple) -> np.ndarray:
    """All images of the points (one row per coordinate) under the words of the
    given length by the kernel ``step``, children in word order: each letter's go
    into column j of a (rows, n, 3) view of the ``_scratch``'s level arrays in turn."""
    for i in range(levels):
        n = state.shape[1]
        children = scratch[0][i % 2, :6 * n].reshape(2, n, 3)
        for j in (0, 1, 2):
            step(j, *state, out=children[..., j], tmp=scratch[1][:, :n])
        state = children.reshape(len(state), -1)
    return state


def _blocks(step, state: np.ndarray, levels: int) -> list:
    """Descend all but the last ``_TASK_LEVELS`` levels once and cut the frontier
    into contiguous blocks, each with the levels left; an empty frontier still
    gives one (empty) block, so counts keep their length."""
    top = max(levels - _TASK_LEVELS, 0)
    state = _descend(step, state, top, _scratch(state.shape[1] * 3 ** top))
    size = max(state.shape[1], 1)
    return [(step, state[:, i:i + _BLOCK_POINTS], levels - top)
            for i in range(0, size, _BLOCK_POINTS)]


def _leaves(tasks: list) -> Iterator[tuple]:
    """Each task's leaves, in the one ``_scratch`` (sized for the widest task) the next overwrites."""
    scratch = _scratch(max(block.shape[1] * 3 ** levels for _, block, levels in tasks))
    for step, block, levels in tasks:
        yield _descend(step, block, levels, scratch), scratch


def enumerate_level(m: int) -> Iterator[tuple[float, float, float]]:
    """All 3^m level-m weight triples, floats, in lexicographic word order."""
    _check_level("level", m)
    for (x, y), _ in _leaves(_blocks(_apply_B_arrays, _ORIGIN, m)):
        for p in zip(x.tolist(), y.tolist()):
            yield DiskPoint(*p).to_b()


def _count_tasks(count, tasks: list) -> np.ndarray:
    """``count`` summed over the tasks, all run on one ``_scratch``."""
    return sum(count(x, y, *(a[..., :x.size] for a in scratch[1:])) for (x, y), scratch in _leaves(tasks))


def _count(step, state: np.ndarray, levels: int, count, jobs: int) -> np.ndarray:
    """``count`` summed over the blocks; each worker takes every ``workers``-th
    task and makes its own scratch.  Each point runs the same elementwise float
    chain whatever the blocks or workers, so neither changes the counts."""
    tasks = _blocks(step, state, levels)
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
    _check_level(level_name, m)
    if bins < 1 or bins > BINS_MAX:
        raise ValueError(f"{name} must be between 1 and {BINS_MAX}, got {bins}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _bin_counts(t: np.ndarray, span: float, bins: int, idx: np.ndarray) -> np.ndarray:
    """Counts in the bins of [0, span]; floors ``t`` in place and casts it into ``idx``."""
    np.copyto(idx, np.floor(np.multiply(t, bins / span, out=t), out=t), casting="unsafe")
    return np.bincount(np.minimum(np.maximum(idx, 0, out=idx), bins - 1, out=idx), minlength=bins)


def _fold_angles(t: np.ndarray, arc: str, masks=(None, None), tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Reduce angles in [-2pi, 2pi], in place, into the reporting arc by the
    symmetries that tile it, with two bool ``masks`` and a float ``tmp`` row
    when given.  Each subtraction is exact (Sterbenz), so this is bit for bit
    ``np.mod(np.mod(t, TWO_PI), THIRD_TURN)``, tiny negatives to 2pi too."""
    big, mask = np.greater_equal(t, TWO_PI, out=masks[0]), masks[1]  # big before the add
    t += np.multiply(np.less(t, 0.0, out=mask), TWO_PI, out=tmp)
    t -= np.multiply(big, TWO_PI, out=tmp)
    if arc == "full":
        return t
    t -= np.multiply(np.greater_equal(t, 2.0 * THIRD_TURN, out=mask), 2.0 * THIRD_TURN, out=tmp)
    t -= np.multiply(np.greater_equal(t, THIRD_TURN, out=mask), THIRD_TURN, out=tmp)
    if arc == "sixth":
        np.minimum(t, np.subtract(THIRD_TURN, t, out=tmp), out=t)
    return t


def _arc_counts(theta: np.ndarray, arc: str, bins: int, tmp, masks, index) -> np.ndarray:
    return _bin_counts(_fold_angles(theta, arc, masks, tmp), _ARC_SPANS[arc], bins, index)


def _angular_counts(x, y, work, masks, index, arc: str, slices: int) -> np.ndarray:
    theta = np.arctan2(y, x, out=work[0])
    if arc == "full" and slices % 3:
        return sum(_arc_counts(np.add(theta, rot, out=work[1]), arc, slices, work[2], masks, index)
                   for rot in _ROT)
    return _arc_counts(theta, arc, slices, work[1], masks, index)


def _orbit_counts(p, q, work, masks, index, arc: str, bins: int) -> np.ndarray:
    theta = np.multiply(2.0, np.arctan2(q, p, out=work[0]), out=work[0])
    return _arc_counts(theta, arc, bins, work[1], masks, index)


def _radial_counts(x, y, work, masks, index, bins: int) -> np.ndarray:
    r = np.multiply(np.hypot(x, y, out=work[0]), DISK_RADIUS_B, out=work[0])
    return _bin_counts(r, DISK_RADIUS_B, bins, index)


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
    counts = _count(_apply_B_arrays, _SUBTREE0, m - 1, count, jobs)
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
    counts = 3 * _count(_apply_B_arrays, _SUBTREE0, m - 1, count, jobs)
    return Histogram(_edges(DISK_RADIUS_B, bins), tuple(counts.tolist()), NORM_RATIO)


def boundary_orbit_histogram(seeds: Sequence[tuple[float, float]] = DEFAULT_SEEDS, iters: int = 14,
                             bins: int = 800, arc: str = "sixth", jobs: int = 1) -> Histogram:
    """Angle histogram of boundary seeds pushed through every length-``iters``
    word of the circle maps, mean-one normalized.

    Seeds must sit on the boundary circle (1e-9 tolerance).  Angles are
    folded into the reporting arc by the rotation (and, for the sixth,
    reflection) symmetries of the map family, so a seed anywhere on the
    circle lands in the report.
    """
    span = _check_arc(arc)
    _check_sizes("iters", iters, "bins", bins, jobs)
    for sx, sy in seeds:
        if not abs(sx * sx + sy * sy - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"seed ({sx}, {sy}) is not on the boundary circle")
    h = np.array([0.5 * math.atan2(sy, sx) for sx, sy in seeds], dtype=float)
    count = partial(_orbit_counts, arc=arc, bins=bins)
    counts = _count(_half_step, np.array([np.cos(h), np.sin(h)]), iters, count, jobs)
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
        image += np.interp(_fold_angles(pre, "full"), xp, fp) * weight
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
    xs = np.linspace(-1.0, 1.0, n)
    gx, gy = np.meshgrid(xs, xs)
    inside = gx * gx + gy * gy < 1.0
    x, y = gx[inside], gy[inside]
    bx, by = _apply_B_arrays(j, x, y)
    return int(np.count_nonzero(np.hypot(bx - x, by - y) < 1e-9))
