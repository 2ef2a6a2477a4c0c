"""Disk/circle iteration, point clouds, histograms, invariant density."""

import math
from fractions import Fraction

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


def test_triangle_report_frozen():
    rep = dy.triangle_check((0.0, 0.0))
    assert rep.inside and rep.base_radius == 0.0
    assert all(math.isclose(x, 0.8, abs_tol=1e-15) for x in rep.image_radii)
    assert all(rep.increased)
    # In the disk but above the inscribed triangle's top edge.
    assert not dy.triangle_check((0.0, 0.9)).inside
    with pytest.raises(ValueError):
        dy.triangle_check((1.5, 0.0))


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


def test_worker_count_is_capped_by_tasks_and_cpus():
    assert dy._worker_count(1, 27, 8) == 1
    assert dy._worker_count(2, 27, 8) == 2
    assert dy._worker_count(10**9, 27, 8) == 8
    assert dy._worker_count(10**9, 3, 8) == 3
    assert dy._worker_count(4, 27, None) == 1
