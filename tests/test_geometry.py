import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import migrate_collocation
from rfpde import AdaptiveConfig, BENCHMARKS, benchmark
from rfpde import geometry as geo
from rfpde.adaptive import initial_collocation


def unit_box2():
    return geo.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def lshape():
    return geo.BoxMinusBox(outer=unit_box2(),
                           removed=geo.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])))


class TestRegions:
    def test_box_requires_ordered_bounds(self):
        with pytest.raises(geo.GeometryError):
            geo.Box(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_removed_box_must_be_contained(self):
        with pytest.raises(geo.GeometryError):
            geo.BoxMinusBox(outer=unit_box2(),
                            removed=geo.Box(np.array([0.5, 0.5]), np.array([2.0, 2.0])))

    def test_circumradius(self):
        assert unit_box2().circumradius() == pytest.approx(np.sqrt(2.0))
        box3 = geo.Box(-np.ones(3), np.ones(3))
        assert box3.circumradius() == pytest.approx(np.sqrt(3.0))

    def test_lshape_membership(self):
        region = lshape()
        assert region.contains(np.array([[-0.5, -0.5]]))[0]
        assert not region.contains(np.array([[0.5, 0.5]]))[0]
        # re-entrant edges belong to the boundary, glued edges do not
        assert region.on_boundary(np.array([[0.0, 0.5]]))[0]
        assert region.on_boundary(np.array([[0.5, 0.0]]))[0]
        assert not region.in_closure(np.array([[0.5, 1.0]]))[0]
        assert region.on_boundary(np.array([[0.0, 1.0]]))[0]
        assert np.allclose(region.corner_guard_points(), [[0.0, 0.0]])


class TestClassify:
    def test_center_of_box(self):
        part = geo.PartitionState(unit_box2())
        assert part.classify(np.array([0.0, 0.0])).tolist() == [0]

    def test_ball_interior_excluded_from_subdomain0(self):
        part = geo.split_subdomain(geo.PartitionState(unit_box2()),
                                   np.array([0.5, 0.5]), 0.15)
        assert part.classify(np.array([0.5, 0.5])).tolist() == [1]

    def test_lshape_removed_quadrant(self):
        part = geo.PartitionState(lshape())
        assert part.classify(np.array([0.5, 0.5])).tolist() == [-1]

    def test_ball_index_out_of_range(self):
        part = geo.PartitionState(unit_box2())
        with pytest.raises(IndexError):
            part.ball(1)


class TestInteriorGrid:
    def test_box_50x50_keeps_all_lattice_points(self):
        pts = geo.generate_interior_grid(unit_box2(), resolution=50)
        assert len(pts) == 2500

    def test_lshape_50x50_masks_removed_quadrant(self):
        pts = geo.generate_interior_grid(lshape(), resolution=50)
        assert len(pts) == 1875

    def test_2x2_grid_is_the_corners(self):
        pts = geo.generate_interior_grid(unit_box2(), resolution=2)
        expected = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
        assert {tuple(p) for p in pts} == expected

    def test_3d_points_per_axis(self):
        box3 = geo.Box(-np.ones(3), np.ones(3))
        pts = geo.generate_interior_grid(box3, resolution=21)
        assert len(pts) == 21 ** 3
        assert len(np.unique(pts[:, 0])) == 21

    def test_resolution_precondition(self):
        with pytest.raises(geo.GeometryError):
            geo.generate_interior_grid(unit_box2(), resolution=1)

    def test_a_total_budget_read_per_axis_fails_cleanly(self):
        # a config written when 3D resolutions were totals asks for 10000 per
        # axis; under a 2 GB address-space limit it must fail as a GeometryError
        pytest.importorskip("resource")
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            import numpy as np
            from rfpde import geometry as geo
            try:
                geo.generate_interior_grid(geo.Box(np.zeros(3), np.ones(3)), 10000)
            except geo.GeometryError as exc:
                print(exc)
        """)
        src = str(Path(geo.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "10000-per-axis lattice" in done.stdout

    def test_determinism(self):
        a = geo.generate_interior_grid(lshape(), resolution=37)
        b = geo.generate_interior_grid(lshape(), resolution=37)
        assert a.tobytes() == b.tobytes()


class TestBoundaryPoints:
    def test_square_400(self):
        pts = geo.generate_boundary_points(unit_box2(), 400)
        assert len(pts) == 400
        region = unit_box2()
        assert np.all(region.on_boundary(pts))
        # 100 per edge
        on_bottom = np.abs(pts[:, 1] + 1.0) <= geo.TAU_GEO
        assert on_bottom.sum() == 100

    # The point order sets the row order of every block, and so the bits of
    # the coefficients: the edges run bottom, right, top, left, each in
    # increasing coordinate, then the removed box's reachable faces; the
    # faces run in (axis, lo/hi) order, each raveled over its free axes.
    def test_square_4_midpoints(self):
        pts = geo.generate_boundary_points(unit_box2(), 4)
        np.testing.assert_array_equal(pts, [[0, -1], [1, 0], [0, 1], [-1, 0]])

    @pytest.mark.parametrize("region, count, expected", [
        (lshape(), 8, [[-.5, -1], [.5, -1], [1, -.5], [-.5, 1], [-1, -.5], [-1, .5],
                       [0, .5], [.5, 0]]),
        (geo.Box(np.zeros(2), np.array([2.0, 1.0])), 6,
         [[.5, 0], [1.5, 0], [2, .5], [.5, 1], [1.5, 1], [0, .5]]),
        (geo.Box(np.zeros(3), np.array([2.0, 1.0, 1.0])), 10,
         [[0, .5, .5], [2, .5, .5],
          [.5, 0, .5], [1.5, 0, .5], [.5, 1, .5], [1.5, 1, .5],
          [.5, .5, 0], [1.5, .5, 0], [.5, .5, 1], [1.5, .5, 1]]),
    ], ids=["lshape-8", "box-2x1-6", "box-2x1x1-10"])
    def test_point_order(self, region, count, expected):
        pts = geo.generate_boundary_points(region, count)
        np.testing.assert_array_equal(pts, expected)

    def test_cube_first_face_order(self):
        pts = geo.generate_boundary_points(geo.Box(-np.ones(3), np.ones(3)), 24)
        np.testing.assert_array_equal(pts[:4], [[-1, -.5, -.5], [-1, -.5, .5],
                                                [-1, .5, -.5], [-1, .5, .5]])

    def test_lshape_arclength_proportional(self):
        pts = geo.generate_boundary_points(lshape(), 400)
        assert len(pts) == 400
        assert np.all(lshape().on_boundary(pts))
        # 50 points per unit length: the two re-entrant edges get 50 each
        reentrant_x = np.abs(pts[:, 0]) <= geo.TAU_GEO
        on_seg = reentrant_x & (pts[:, 1] > 0)
        assert on_seg.sum() == 50

    def test_cube_2400_is_400_per_face(self):
        box3 = geo.Box(-np.ones(3), np.ones(3))
        pts = geo.generate_boundary_points(box3, 2400)
        assert len(pts) == 2400
        per_face = np.abs(pts[:, 0] + 1.0) <= geo.TAU_GEO
        assert per_face.sum() == 400

    def test_divisibility_violation(self):
        with pytest.raises(geo.GeometryError):
            geo.generate_boundary_points(unit_box2(), 401)


class TestSphereSampling:
    def test_circle_four_points(self):
        pts = geo.sample_sphere_uniform(np.zeros(2), 1.0, 4)
        np.testing.assert_allclose(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                   atol=1e-15)

    @pytest.mark.parametrize("d,count", [(2, 200), (3, 600)])
    def test_on_sphere_to_tolerance(self, d, count):
        center = np.full(d, 0.25)
        r = 0.37
        pts = geo.sample_sphere_uniform(center, r, count)
        dist = np.linalg.norm(pts - center, axis=1)
        assert np.max(np.abs(dist - r)) <= 1e-12 * r

    def test_fibonacci_lattice_spread(self):
        # direct computation on the generated set: points distinct and balanced
        center = np.zeros(3)
        pts = geo.sample_sphere_uniform(center, 1.0, 600)
        assert len(pts) == 600
        diffs = np.linalg.norm(pts[None, :, :] - pts[:, None, :], axis=2)
        np.fill_diagonal(diffs, np.inf)
        assert diffs.min() > 0.0
        assert np.linalg.norm(pts.mean(axis=0) - center) <= 0.05


class TestSplitSubdomain:
    def test_first_split(self):
        part = geo.split_subdomain(geo.PartitionState(unit_box2()),
                                   np.array([0.5102, 0.5102]), 0.15)
        assert part.n_balls == 1
        assert part.ball(1).radius == 0.15

    def test_two_disjoint_splits(self):
        part = geo.PartitionState(unit_box2())
        part = geo.split_subdomain(part, np.array([0.5102, 0.5102]), 0.15)
        part = geo.split_subdomain(part, np.array([-0.5102, -0.5102]), 0.15)
        assert part.n_balls == 2
        assert [b.index for b in part.balls] == [1, 2]

    def test_contained_ball_conflicts(self):
        part = geo.split_subdomain(geo.PartitionState(unit_box2()),
                                   np.array([0.5, 0.5]), 0.15)
        with pytest.raises(geo.RefinementConflictError) as err:
            geo.split_subdomain(part, np.array([0.5, 0.5]), 0.05)
        assert err.value.conflicting_index == 1

    def test_ball_outside_domain_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.split_subdomain(geo.PartitionState(unit_box2()),
                                np.array([5.0, 5.0]), 0.1)


def make_case(center, radius, region=None, resolution=50, boundary=400,
              ball_resolution=40):
    region = region or unit_box2()
    interior = geo.generate_interior_grid(region, resolution=resolution)
    bpts = geo.generate_boundary_points(region, boundary)
    sets = geo.CollocationSets.initial(interior, bpts)
    part = geo.split_subdomain(geo.PartitionState(region), np.asarray(center), radius)
    return part, sets, geo.reclassify_collocation(
        part, interior, bpts, ball_resolution=ball_resolution, interface_count=200)


class TestReclassify:
    def test_interior_ball_keeps_circle_and_no_boundary(self):
        part, before, after = make_case([0.5102, 0.5102], 0.15)
        assert len(after.boundary[1]) == 0
        assert len(after.interface[1]) == 200

    def test_clipped_ball_migrates_boundary_points(self):
        part, before, after = make_case([0.95, 0.2], 0.1)
        assert len(after.boundary[1]) > 0
        assert len(after.interface[1]) < 200
        # migrated points are exactly the closed-ball boundary points
        ball = part.ball(1)
        assert np.all(ball.contains_closed(after.boundary[1]))

    def test_boundary_conservation(self):
        part, before, after = make_case([0.95, 0.2], 0.1)
        assert sum(len(b) for b in after.boundary) == len(before.boundary[0])

    def test_interior_conservation(self):
        part, before, after = make_case([0.5102, 0.5102], 0.15)
        ball = part.ball(1)
        inside = int(ball.contains_closed(before.interior[0]).sum())
        assert len(after.interior[0]) + inside == len(before.interior[0])
        assert inside > 0

    def test_ball_grid_strictly_inside(self):
        part, before, after = make_case([0.5102, 0.5102], 0.15)
        ball = part.ball(1)
        assert np.all(ball.contains_open(after.interior[1]))
        assert np.all(part.base.contains(after.interior[1]))
        assert len(after.interior[1]) == int(np.sum(
            np.linalg.norm(geo._tensor_lattice(ball.bounding_box(), 40)
                           - ball.center, axis=1) < 0.15))

    def test_interface_points_on_sphere_and_inside_domain(self):
        part, before, after = make_case([0.95, 0.2], 0.1)
        ball = part.ball(1)
        dist = np.linalg.norm(after.interface[1] - ball.center, axis=1)
        assert np.max(np.abs(dist - ball.radius)) <= 1e-12 * ball.radius
        assert np.all(part.base.contains(after.interface[1]))

    def test_ball_outside_domain_errors(self):
        region = unit_box2()
        ball = geo.BallSubdomain(center=np.array([1.5, 0.0]), radius=0.1, index=1)
        part = geo.PartitionState(region, (ball,))
        with pytest.raises(geo.GeometryError):
            geo.reclassify_collocation(part, geo.generate_interior_grid(region, 20),
                                       geo.generate_boundary_points(region, 40),
                                       ball_resolution=40, interface_count=200)

    def test_partition_completeness(self):
        part, before, after = make_case([0.5102, 0.5102], 0.15)
        labels = part.classify(before.interior[0])
        assert np.all(labels >= 0)
        counts = np.bincount(labels, minlength=2)
        assert counts.sum() == len(before.interior[0])

    def test_3d_ball_lattice_per_axis(self):
        box3 = geo.Box(-np.ones(3), np.ones(3))
        interior = geo.generate_interior_grid(box3, resolution=10)
        bpts = geo.generate_boundary_points(box3, 600)
        part = geo.split_subdomain(geo.PartitionState(box3),
                                   np.array([0.5, 0.5, 0.5]), 0.11)
        after = geo.reclassify_collocation(part, interior, bpts, ball_resolution=20,
                                           interface_count=600)
        # 20^3 lattice masked to the open ball: inscribed-ball fraction
        assert len(after.interior[1]) == 3544
        assert len(after.interface[1]) == 600

    def test_too_coarse_ball_lattice_names_ball_resolution(self):
        # the 2-per-axis lattice is the bounding box's corners, all outside
        with pytest.raises(geo.GeometryError, match="ball_resolution"):
            make_case([0.5, 0.5], 0.15, resolution=20, boundary=40,
                      ball_resolution=2)


#: Per dimension: balls (centre, radius) placed one after another, and a
#: boundary point near which two balls of radius 0.25 are placed on a
#: facet along the given axis, their closures 1.5e-10 apart, so that the
#: boundary point between them lies in both (``TAU_GEO`` = 1e-10).
ORACLE_BALLS = {
    # an interior ball (at the L-shape's re-entrant corner there), a ball
    # clipped at a corner of the outer box, and an interior ball
    2: ([((0.0, 0.0), 0.15), ((-0.98, -0.98), 0.15), ((-0.5, 0.5), 0.2)],
        (0.5, -1.0), 0),
    # an interior ball, and a ball clipped by two faces
    3: ([((0.5, 0.5, 0.5), 0.11), ((-0.9, 0.95, 0.0), 0.11)],
        (-1.0, 0.5, -0.5), 1),
}


def same_sets(a, b):
    """Whether two collocation sets hold the same arrays, bit for bit and in
    the same order."""
    pairs = [(a.interior, b.interior), (a.boundary, b.boundary),
             (a.interface, b.interface)]
    return all(len(p) == len(q) and all(
        u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        for u, v in zip(p, q)) for p, q in pairs)


class TestPartitionBuilder:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_matches_the_incremental_migration(self, name):
        problem = benchmark(name)
        cfg = AdaptiveConfig().resolved(problem.dim)
        domain = initial_collocation(problem, cfg)
        balls, target, axis = ORACLE_BALLS[problem.dim]
        points = domain.boundary[0]
        shared = points[np.argmin(np.linalg.norm(points - target, axis=1))]
        step = np.eye(problem.dim)[axis] * (0.25 + 0.75e-10)
        balls = balls + [(shared - step, 0.25), (shared + step, 0.25)]

        part, migrated = geo.PartitionState(problem.region), domain
        for center, radius in balls:
            part = geo.split_subdomain(part, np.asarray(center), radius)
            migrated = migrate_collocation(migrated, part, cfg.ball_resolution,
                                           cfg.interface_count)
            built = geo.reclassify_collocation(part, domain.interior[0],
                                               domain.boundary[0],
                                               cfg.ball_resolution,
                                               cfg.interface_count)
            assert same_sets(built, migrated), part.n_balls

        # some balls are clipped by the boundary, some are not
        clipped = [len(b) > 0 for b in built.boundary[1:]]
        assert any(clipped) and not all(clipped)
        # ball 1 holds the L-shape's re-entrant corner
        assert np.all(part.ball(1).contains_open(problem.region.corner_guard_points()))
        # the shared point lies in both closed balls and goes to the earlier
        first, second = part.balls[-2:]
        assert first.contains_closed(shared) and second.contains_closed(shared)
        owners = [k for k, b in enumerate(built.boundary) if (b == shared).all(1).any()]
        assert owners == [first.index]


class TestNormals:
    def test_radial_direction(self):
        ball = geo.BallSubdomain(np.zeros(2), 1.0, 1)
        np.testing.assert_allclose(geo.outward_normals(ball, np.array([[1.0, 0.0]])),
                                   [[1.0, 0.0]], atol=1e-14)
        ball2 = geo.BallSubdomain(np.array([0.5, 0.5]), 0.15, 1)
        np.testing.assert_allclose(geo.outward_normals(ball2, np.array([[0.65, 0.5]])),
                                   [[1.0, 0.0]], atol=1e-14)

    def test_unit_norm_and_projection(self):
        ball = geo.BallSubdomain(np.array([0.2, -0.3]), 0.41, 1)
        pts = geo.sample_sphere_uniform(ball.center, ball.radius, 50)
        normals = geo.outward_normals(ball, pts)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
        proj = np.sum(normals * (pts - ball.center), axis=1)
        np.testing.assert_allclose(proj, ball.radius, atol=1e-12)

    def test_degenerate_point(self):
        ball = geo.BallSubdomain(np.zeros(2), 1.0, 1)
        with pytest.raises(geo.DegeneratePointError):
            geo.outward_normals(ball, np.zeros((1, 2)))

