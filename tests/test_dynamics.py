"""Disk/circle iteration, point clouds, histograms, invariant density."""

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasketenergy import dynamics as dy
from gasketenergy.bvectors import enumerate_bvectors

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
# Radii in weight-space units: the disk boundary sits at 1/sqrt(6).
disk_radii = st.floats(min_value=0.0, max_value=0.999 * dy.DISK_RADIUS_B, allow_nan=False)
letters = st.integers(min_value=0, max_value=2)


def test_disk_coordinates_round_trip():
    p = dy.DiskPoint.from_b((1 / 3, 1 / 3, 1 / 3))
    assert p == (0.0, 0.0)
    b = (3 / 5, 1 / 5, 1 / 5)
    q = dy.DiskPoint.from_b(b)
    assert math.isclose(q.x, 4 / 5, abs_tol=1e-15) and abs(q.y) < 1e-15
    back = q.to_b()
    assert all(math.isclose(u, v, abs_tol=1e-15) for u, v in zip(back, b))


@given(disk_radii, angles)
def test_polar_round_trip(r, t):
    p = dy.DiskPoint.from_polar(r, t)
    rr, tt = p.to_polar()
    assert math.isclose(rr, r, abs_tol=1e-12)
    if r > 1e-9:
        assert abs(dy._wrap(tt - t)) < 1e-9


def test_letter_zero_map_frozen():
    p = dy.apply_B(0, (0.0, 0.0))
    assert math.isclose(p.x, 4 / 5, abs_tol=1e-15) and p.y == 0.0


@given(disk_radii, angles, letters)
@settings(max_examples=80)
def test_disk_map_is_conjugate_to_the_weight_step(r, t, letter):
    """Pushing b through one exact step lands on the image disk point."""
    p = dy.DiskPoint.from_polar(r, t)
    b = p.to_b()
    num = [Fraction(x).limit_denominator(10**12) for x in b]
    total = sum(num)
    num = [x / total for x in num]  # exact unit sum for the rational step
    from gasketenergy.bvectors import b_step

    stepped = b_step(tuple(num), letter)
    q = dy.apply_B(letter, p)
    expect = dy.DiskPoint.from_b(tuple(float(x) for x in stepped))
    assert math.isclose(q.x, expect.x, abs_tol=1e-9)
    assert math.isclose(q.y, expect.y, abs_tol=1e-9)


def test_circle_map_frozen_value():
    assert math.isclose(dy.circle_map(0, math.pi / 2), 2 * math.atan(1 / 3), rel_tol=1e-15)
    assert dy.circle_map(0, 0.0) == 0.0


@given(angles, letters)
def test_circle_map_inverse_round_trip(t, j):
    assert abs(dy._wrap(dy.circle_map_inverse(j, dy.circle_map(j, t)) - t)) < 1e-12


@given(angles, letters)
def test_circle_matches_disk_on_the_boundary(t, j):
    p = dy.apply_B(j, (math.cos(t), math.sin(t)))
    assert abs(dy._wrap(math.atan2(p.y, p.x) - dy.circle_map(j, t))) < 1e-12
    assert math.isclose(math.hypot(p.x, p.y), 1.0, abs_tol=1e-12)


@given(angles, letters)
def test_derivative_positive_and_reciprocal_identity(t, j):
    d = dy.circle_map_deriv(j, t)
    assert d > 0
    image = dy.circle_map(j, t)
    # contraction factor on one side balances expansion on the other
    assert math.isclose((5 + 4 * math.cos(t - dy._ROT[j])) * (5 - 4 * math.cos(image - dy._ROT[j])), 9.0, rel_tol=1e-12)


def test_six_boundary_fixed_points():
    for j, pair in enumerate(dy.BOUNDARY_FIXED_ANGLES):
        for t in pair:
            assert abs(dy._wrap(dy.circle_map(j, t) - t)) < 1e-12


def test_no_interior_grid_fixed_points():
    for j in range(3):
        assert dy.count_grid_fixed_points(j, 60) == 0


@given(disk_radii, angles, letters)
def test_image_radius_identity_residual(r, t, j):
    assert dy.gamma_residual(r, t, j) < 1e-12


class TriangleReport(NamedTuple):
    inside: bool
    base_radius: float
    image_radii: tuple[float, float, float]
    increased: tuple[bool, bool, bool]


def triangle_check(p):
    """Radius growth against the inscribed triangle with vertex (1, 0).

    Points inside the closed inscribed triangle move strictly outward under
    all three maps; points of the open disk outside it still do under at
    least two.
    """
    x, y = float(p[0]), float(p[1])
    base = math.hypot(x, y)
    if not base < 1.0:  # NaN fails too
        raise ValueError("triangle_check expects an interior point")
    inside = x >= -0.5 and abs(y) <= (1.0 - x) / math.sqrt(3.0)
    radii = tuple(dy.apply_B(j, (x, y)).radius for j in range(3))
    return TriangleReport(inside, base, radii, tuple(rr > base for rr in radii))


def test_triangle_report_frozen():
    rep = triangle_check((0.0, 0.0))
    assert rep.inside and rep.base_radius == 0.0
    assert all(math.isclose(x, 0.8, abs_tol=1e-15) for x in rep.image_radii)
    assert all(rep.increased)
    # In the disk but above the inscribed triangle's top edge.
    assert not triangle_check((0.0, 0.9)).inside
    with pytest.raises(ValueError):
        triangle_check((1.5, 0.0))


def test_enumerate_level_matches_exact_weights():
    got = list(dy.enumerate_level(2))
    exact = [tuple(float(x) for x in b) for _, b in enumerate_bvectors(2)]
    assert len(got) == 9
    for g, e in zip(got, exact):
        assert all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(g, e))


def test_enumerate_level_rejects_oversize():
    with pytest.raises(ValueError):
        list(dy.enumerate_level(dy.LEVEL_LIMIT + 1))


def test_angular_histogram_level_zero_single_bin():
    h = dy.angular_histogram(0, slices=10, arc="third")
    assert h.counts[0] == 1 and sum(h.counts) == 1


def test_angular_histogram_level_one_uniform():
    h = dy.angular_histogram(1, slices=3, arc="full")
    assert h.counts == (1, 1, 1)


def test_angular_counts_cover_every_point():
    for arc in ("full", "third", "sixth"):
        h = dy.angular_histogram(5, slices=12, arc=arc)
        assert sum(h.counts) == 3 ** 5


def test_angular_frozen_level_five():
    h = dy.angular_histogram(5, slices=9, arc="third")
    assert h.counts == (36, 24, 27, 18, 36, 18, 27, 24, 33)


def test_full_circle_histogram_is_exactly_rotation_symmetric():
    h = dy.angular_histogram(7, slices=99, arc="full")
    rolled = tuple(np.roll(h.counts, 33))
    assert h.counts == rolled


def test_angular_third_relates_to_full():
    full = dy.angular_histogram(6, slices=30, arc="full")
    third = dy.angular_histogram(6, slices=10, arc="third")
    thirds = [sum(full.counts[i::10][k] for k in range(3)) for i in range(10)]
    assert list(third.counts) == thirds


def test_radial_histogram_normalization():
    h = dy.radial_histogram(6, bins=20)
    assert h.normalization == dy.NORM_RATIO
    assert sum(h.counts) == 3 ** 6
    assert math.isclose(sum(h.normalized_values()), 1.0, rel_tol=1e-12)


def test_radial_outer_mass_grows_with_depth():
    def outer(m):
        h = dy.radial_histogram(m, bins=10)
        return h.counts[-1] / sum(h.counts)

    assert outer(6) < outer(8) < outer(10)


def test_orbit_single_seed_no_iterations_is_one_bin():
    h = dy.boundary_orbit_histogram(seeds=((0.0, 1.0),), iters=0, bins=8, arc="sixth")
    assert sum(h.counts) == 1
    assert sum(1 for c in h.counts if c) == 1


def test_orbit_counts_and_parallel_determinism():
    a = dy.boundary_orbit_histogram(iters=6, bins=50)
    assert sum(a.counts) == 3 * 3 ** 6
    b = dy.boundary_orbit_histogram(iters=6, bins=50, jobs=2)
    assert a == b


def test_orbit_rejects_interior_seed():
    with pytest.raises(ValueError):
        dy.boundary_orbit_histogram(seeds=((0.2, 0.2),), iters=1, bins=4)


def test_angular_parallel_determinism():
    one = dy.angular_histogram(7, slices=33, arc="third")
    two = dy.angular_histogram(7, slices=33, arc="third", jobs=3)
    assert one == two


def test_uniform_density_residual_frozen():
    n = 360
    got = dy.invariant_density_residual(np.full(n, 1 / (2 * math.pi)))
    assert math.isclose(got, (1 / (2 * math.pi)) * (2 / 7), rel_tol=1e-12)
    assert math.isclose(dy.invariant_density_residual(np.ones(n)), 2 / 7, rel_tol=1e-12)


def test_level_eleven_density_beats_uniform():
    dens = dy.density_from_angular(dy.angular_histogram(11, slices=100, arc="third"))
    assert len(dens) == 300
    res = dy.invariant_density_residual(np.asarray(dens))
    assert res < 2 / 7


def test_residual_rejects_bad_input():
    with pytest.raises(ValueError):
        dy.invariant_density_residual(np.array([1.0]))
    with pytest.raises(ValueError):
        dy.invariant_density_residual(np.array([1.0, -0.5, 1.0]))
    with pytest.raises(ValueError, match="finite"):  # inf passes f >= 0 and would give nan
        dy.invariant_density_residual(np.array([1.0, np.inf, 1.0]))


def test_density_from_angular_requires_circular_arc():
    with pytest.raises(ValueError):
        dy.density_from_angular(dy.angular_histogram(3, slices=10, arc="sixth"))


def _histogram_counts(jobs):
    """Counts of every histogram shape whose code paths differ, plus the
    enumerated level cloud."""
    out = [dy.angular_histogram(11, slices=s, arc=arc, jobs=jobs).counts
           for arc in ("full", "third", "sixth") for s in (30, 31)]
    out.append(dy.radial_histogram(11, bins=40, jobs=jobs).counts)
    out += [dy.boundary_orbit_histogram(iters=10, bins=50, arc=arc, jobs=jobs).counts
            for arc in ("full", "third", "sixth")]
    out.append(list(dy.enumerate_level(5)))
    return out


@pytest.fixture(scope="module")
def default_counts():
    return _histogram_counts(jobs=1)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("task_levels, block", [(8, 1), (8, 3), (8, 10**9), (6, 2)])
def test_counts_do_not_depend_on_the_blocks(monkeypatch, default_counts, jobs, task_levels, block):
    """With 8 task levels the level-11 and orbit-10 frontiers hold 9 and 27
    points, so blocks of 1 and 3 split them and 10^9 takes each whole."""
    monkeypatch.setattr(dy, "_TASK_LEVELS", task_levels)
    monkeypatch.setattr(dy, "_BLOCK_POINTS", block)
    assert _histogram_counts(jobs) == default_counts


def _descend_ref(step, state, levels):
    """The stack-and-reshape descent that ``_descend`` replaced."""
    for _ in range(levels):
        children = [np.reshape(step(j, *state), state.shape) for j in (0, 1, 2)]
        state = np.stack(children, axis=-1).reshape(len(state), -1)
    return state


@pytest.mark.parametrize("step", [dy._apply_B_arrays, dy._half_step])
@pytest.mark.parametrize("points", [1, 5, 27])
def test_descend_matches_the_stacked_descent_bit_for_bit(step, points):
    """Same bits as the reference, and leaf ``k * 3^levels + i`` is point k
    taken through the letters of the i-th word in lexicographic order."""
    rng = np.random.default_rng(points)
    angle = rng.uniform(-math.pi, math.pi, points)
    state = np.array([np.cos(angle), np.sin(angle)]) * rng.uniform(0.0, 1.0, points)
    for levels in range(5):
        got = dy._descend(step, state, levels, dy._scratch(points * 3 ** levels))
        assert got.shape == (2, points * 3 ** levels)
        assert np.array_equal(got.view(np.int64), _descend_ref(step, state, levels).view(np.int64))
        for leaf in rng.integers(0, got.shape[1], 8):
            k, i = divmod(int(leaf), 3 ** levels)
            point = state[:, k]
            for t in reversed(range(levels)):
                point = step(i // 3 ** t % 3, *point)
            assert np.array_equal(np.array(point).view(np.int64), got[:, leaf].view(np.int64))


def poison_fresh_scratch(monkeypatch):
    """Fill every scratch ``dynamics._scratch`` makes with values no count can
    come from (NaN floats, set masks, index -1), so a kernel that reads scratch
    before writing it shows; returns the growing list of the sizes made."""
    real, made = dy._scratch, []

    def scratch(n):
        out = real(n)
        for buf, sentinel in zip(out, (np.nan, np.nan, True, -1)):
            buf.fill(sentinel)
        made.append(n)
        return out

    monkeypatch.setattr(dy, "_scratch", scratch)
    return made


def _one_of_each(jobs=1):
    """One call of each histogram, each descending 10 levels below its 1, 1
    and 3 start points, as argument-free callables."""
    return (partial(dy.angular_histogram, 11, slices=31, arc="full", jobs=jobs),
            partial(dy.radial_histogram, 11, bins=40, jobs=jobs),
            partial(dy.boundary_orbit_histogram, iters=10, bins=50, jobs=jobs))


@pytest.fixture(scope="module")
def one_of_each_counts():
    return [call().counts for call in _one_of_each()]


@pytest.mark.parametrize("task_levels", [6, 7, 8])
@pytest.mark.parametrize("block", [1, 3, 27])
def test_histograms_make_one_scratch_as_wide_as_their_widest_task(monkeypatch, one_of_each_counts,
                                                                  task_levels, block):
    """At jobs 1 each histogram call makes one scratch for the descent to the
    frontier and exactly one more, for the leaves of its widest task, which
    every task reuses: the counts come out the same although fresh scratch
    holds NaN."""
    monkeypatch.setattr(dy, "_TASK_LEVELS", task_levels)
    monkeypatch.setattr(dy, "_BLOCK_POINTS", block)
    made = poison_fresh_scratch(monkeypatch)
    frontier = 3 ** (10 - task_levels)
    for call, counts, points in zip(_one_of_each(), one_of_each_counts, (1, 1, 3)):
        made.clear()
        assert call().counts == counts
        assert made == [points * frontier, min(block, points * frontier) * 3 ** task_levels]


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: runs each worker's task list in
    this process when it is submitted and records the lists."""

    lists: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, tasks):
        from concurrent.futures import Future

        _InProcessPool.lists.append(tasks)
        assert len(self.lists) <= self.max_workers
        done = Future()
        done.set_result(fn(tasks))
        return done


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_each_worker_takes_its_own_task_list_and_one_scratch(monkeypatch, one_of_each_counts, jobs):
    """With 8 task levels and blocks of 3 points the level-11 and orbit-10
    frontiers make 3 and 9 tasks; the workers' lists hold every task exactly
    once, each worker makes one scratch after the frontier's, and the counts
    are those of jobs 1 at the default blocks."""
    import concurrent.futures

    monkeypatch.setattr(dy, "_TASK_LEVELS", 8)
    monkeypatch.setattr(dy, "_BLOCK_POINTS", 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(dy.os, "cpu_count", lambda: 8)
    real_blocks, made_tasks = dy._blocks, []

    def blocks(*args):
        made_tasks.append(real_blocks(*args))
        return made_tasks[-1]

    monkeypatch.setattr(dy, "_blocks", blocks)
    made = poison_fresh_scratch(monkeypatch)
    for call, counts in zip(_one_of_each(jobs), one_of_each_counts):
        made.clear()
        made_tasks.clear()
        _InProcessPool.lists = []
        assert call().counts == counts
        (tasks,) = made_tasks
        workers = min(jobs, len(tasks))
        assert len(_InProcessPool.lists) == workers and len(made) == 1 + workers
        assert sorted(map(id, sum(_InProcessPool.lists, []))) == sorted(map(id, tasks))


def test_concurrent_calls_in_threads_count_as_sequential_calls():
    """Two threads counting at once get the counts of sequential calls: no
    buffer outlives its call."""
    import threading

    calls = (partial(dy.boundary_orbit_histogram, iters=10), partial(dy.angular_histogram, 11))
    expected = [call().counts for call in calls]
    start, got = threading.Barrier(2), [[], []]

    def run(i):
        start.wait()
        got[i] += [calls[i]().counts for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert got == [[expected[0]] * 3, [expected[1]] * 3]


# ---------------------------------------------------------------------------
# the half-angle circle maps and the exact fold against their trig forms
# ---------------------------------------------------------------------------

def _wrap_ref(t):
    """Reduce to (-pi, pi] by one turn, as the trig form did."""
    t = t - dy.TWO_PI * (t > math.pi)
    return t + dy.TWO_PI * (t <= -math.pi)


def _circle_map_ref(j, theta, inverse=False):
    """The trig circle map: 2 atan((1/3) tan(t/2)) (inverse: 3 tan) at the
    letter's offset, reduced to (-pi, pi] first."""
    h = _wrap_ref(theta - dy._ROT[j]) / 2.0
    if inverse:
        return 2.0 * np.arctan2(3.0 * np.sin(h), np.cos(h)) + dy._ROT[j]
    return 2.0 * np.arctan2(np.sin(h), 3.0 * np.cos(h)) + dy._ROT[j]


def _fold_ref(theta, arc):
    t = np.mod(theta, dy.TWO_PI)
    if arc == "full":
        return t
    t = np.mod(t, dy.THIRD_TURN)
    return np.minimum(t, dy.THIRD_TURN - t) if arc == "sixth" else t


def _angle_gap(a, b):
    return float(np.max(np.abs(np.remainder(a - b + math.pi, dy.TWO_PI) - math.pi)))


def test_fold_is_bit_identical_to_np_mod():
    rng = np.random.default_rng(41)
    near = []  # k * THIRD_TURN and 1 to 4 ulps on either side
    for k in range(-3, 4):
        lo = hi = k * dy.THIRD_TURN
        near.append(lo)
        for _ in range(4):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
    edge = [0.0, -0.0, -5e-324, -1e-310, -1e-300, dy.TWO_PI, -dy.TWO_PI, math.pi, -math.pi]
    theta = np.concatenate([rng.uniform(-dy.TWO_PI, dy.TWO_PI, 100_000), edge, near])
    theta = theta[np.abs(theta) <= dy.TWO_PI]  # the fold's stated domain
    assert np.any(_fold_ref(theta, "full") == dy.TWO_PI)  # tiny negatives land on 2pi
    buffers = np.empty((2, theta.size), bool), np.empty(theta.size)
    for arc in ("full", "third", "sixth"):
        ref = _fold_ref(theta, arc)
        for got in (dy._fold_angles(theta.copy(), arc), dy._fold_angles(theta.copy(), arc, *buffers)):
            assert got.tobytes() == ref.tobytes(), arc


@pytest.mark.parametrize("inverse", [False, True])
def test_half_angle_table_matches_the_trig_map(inverse):
    table = dy._HALF_STEP_INVERSE if inverse else dy._HALF_STEP
    rng = np.random.default_rng(43)
    theta = rng.uniform(-math.pi, math.pi, 20_000)
    for j in range(3):
        assert _angle_gap(dy._circle_map_array(j, theta, table), _circle_map_ref(j, theta, inverse)) < 1e-12
    # along seeded words: angle by angle, and as one unreduced pair descent
    a, b = theta[:500].copy(), theta[:500].copy()
    h = theta[:500] / 2
    p, q = np.cos(h), np.sin(h)
    for row in rng.integers(0, 3, (16, a.size)):
        for j in range(3):
            m = row == j
            a[m] = _wrap_ref(_circle_map_ref(j, a[m], inverse))
            b[m] = dy._circle_map_array(j, b[m], table)
            p[m], q[m] = dy._half_step(j, p[m], q[m], table)
        assert _angle_gap(a, b) < 1e-12
        assert _angle_gap(a, 2.0 * np.arctan2(q, p)) < 1e-12


def _orbit_counts_ref(angles, iters, arc, bins):
    theta = np.array(angles, dtype=float)
    for _ in range(iters):
        theta = np.concatenate([_circle_map_ref(j, theta) for j in range(3)])
    return dy._bin_counts(_fold_ref(theta, arc), dy._ARC_SPANS[arc], bins, np.empty(theta.size, np.int64))


def _merge_edge_ties(counts, period):
    """Counts with the two bins on either side of every edge at a multiple of
    ``period`` bins (cyclically) added into one."""
    c = np.array(counts)
    for k in range(0, c.size, period):
        c[k] += c[k - 1]
        c[k - 1] = 0
    return c.tolist()


@pytest.mark.parametrize("iters", [0, 1, 2, 5, 9, 12])
def test_orbit_counts_equal_the_trig_chain_from_the_fixed_angles(iters):
    """The maps send fixed angles to fixed angles, so these orbits hold exact
    multiples of pi/3.  Those sit at the ends of the sixth arc, where the
    fold's reflection makes both sides one bin, but on bin edges of the full
    and third arcs when 6 (or 2) divides the bins; there each form's last ulp
    picks the side, so only the counts next to those edges are merged."""
    angles = [t for pair in dy.BOUNDARY_FIXED_ANGLES for t in pair]
    seeds = tuple((math.cos(t), math.sin(t)) for t in angles)
    for arc, bins, tie in (("sixth", 800, 0), ("full", 359, 0), ("third", 99, 0),
                           ("full", 360, 60), ("third", 100, 50)):
        got = dy.boundary_orbit_histogram(seeds=seeds, iters=iters, bins=bins, arc=arc).counts
        ref = _orbit_counts_ref(angles, iters, arc, bins).tolist()
        if tie:
            got, ref = _merge_edge_ties(got, tie), _merge_edge_ties(ref, tie)
        assert list(got) == ref, (arc, bins)


# ---------------------------------------------------------------------------
# work guard: what the orbit histogram asks of numpy
# ---------------------------------------------------------------------------

class _NumpySpy:
    """Stands in for the module's ``np`` and counts calls of some functions."""

    WATCHED = ("mod", "remainder", "sin", "cos", "arctan2", "stack")

    def __init__(self):
        self.calls = dict.fromkeys(self.WATCHED, 0)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.WATCHED:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def _orbit_numpy_calls(monkeypatch):
    spy = _NumpySpy()
    monkeypatch.setattr(dy, "np", spy)
    monkeypatch.setattr(dy, "_TASK_LEVELS", 8)
    monkeypatch.setattr(dy, "_BLOCK_POINTS", 5)  # 27 frontier points: 6 blocks
    h = dy.boundary_orbit_histogram(iters=10, bins=50)
    assert sum(h.counts) == 3 * 3 ** 10
    return spy.calls


def test_orbit_histogram_does_no_per_level_trig_and_no_mod(monkeypatch):
    calls = _orbit_numpy_calls(monkeypatch)
    assert calls == {"mod": 0, "remainder": 0, "sin": 1, "cos": 1, "arctan2": 6, "stack": 0}


def test_the_numpy_spy_sees_a_per_level_call(monkeypatch):
    step = dy._half_step

    def step_with_mod(j, p, q, out, tmp):
        dy.np.mod(p, 1.0)
        return step(j, p, q, out=out, tmp=tmp)

    monkeypatch.setattr(dy, "_half_step", step_with_mod)
    # three letters per level: 2 levels above the blocks, then 8 in each of 6
    assert _orbit_numpy_calls(monkeypatch)["mod"] == 3 * (2 + 6 * 8)


# ---------------------------------------------------------------------------
# NaN fails every bound check
# ---------------------------------------------------------------------------

NAN = float("nan")


def test_orbit_rejects_a_nan_seed():
    with pytest.raises(ValueError, match="boundary circle"):
        dy.boundary_orbit_histogram(seeds=((NAN, NAN),), iters=1, bins=4)


def test_apply_B_rejects_a_nan_point():
    with pytest.raises(ValueError, match="closed disk"):
        dy.apply_B(0, (NAN, 0.0))


def test_triangle_check_rejects_a_nan_point():
    with pytest.raises(ValueError, match="interior point"):
        triangle_check((NAN, 0.0))


def test_gamma_residual_rejects_a_nan_radius():
    with pytest.raises(ValueError, match="weight disk"):
        dy.gamma_residual(NAN, 0.0, 0)


def test_residual_rejects_a_nan_density():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        dy.invariant_density_residual([1.0, NAN, 1.0])
