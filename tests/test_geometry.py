import numpy as np
import pytest

from rfpde import geometry as geo


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

    def test_3d_target_count(self):
        box3 = geo.Box(-np.ones(3), np.ones(3))
        pts = geo.generate_interior_grid(box3, target=10000)
        assert len(pts) == 21 ** 3

    def test_resolution_precondition(self):
        with pytest.raises(geo.GeometryError):
            geo.generate_interior_grid(unit_box2(), resolution=1)

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

    def test_square_4_midpoints(self):
        pts = geo.generate_boundary_points(unit_box2(), 4)
        expected = {(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
        assert {tuple(p) for p in pts} == expected

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


def make_case(center, radius, region=None, resolution=50, boundary=400):
    region = region or unit_box2()
    interior = geo.generate_interior_grid(region, resolution=resolution)
    bpts = geo.generate_boundary_points(region, boundary)
    sets = geo.CollocationSets.initial(interior, bpts)
    part = geo.split_subdomain(geo.PartitionState(region), np.asarray(center), radius)
    return part, sets, geo.reclassify_collocation(sets, part, 1)


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

    def test_idempotent(self):
        part, before, after = make_case([0.95, 0.2], 0.1)
        again = geo.reclassify_collocation(after, part, 1)
        for kind in ("interior", "boundary", "interface"):
            for a, b in zip(getattr(after, kind), getattr(again, kind)):
                assert a.tobytes() == b.tobytes()

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
        sets = geo.CollocationSets.initial(
            geo.generate_interior_grid(region, resolution=20),
            geo.generate_boundary_points(region, 40))
        ball = geo.BallSubdomain(center=np.array([1.5, 0.0]), radius=0.1, index=1)
        part = geo.PartitionState(region, (ball,))
        with pytest.raises(geo.GeometryError):
            geo.reclassify_collocation(sets, part, 1)

    def test_partition_completeness(self):
        part, before, after = make_case([0.5102, 0.5102], 0.15)
        labels = part.classify(before.interior[0])
        assert np.all(labels >= 0)
        counts = np.bincount(labels, minlength=2)
        assert counts.sum() == len(before.interior[0])

    def test_3d_ball_lattice_budget(self):
        box3 = geo.Box(-np.ones(3), np.ones(3))
        interior = geo.generate_interior_grid(box3, target=1000)
        bpts = geo.generate_boundary_points(box3, 600)
        sets = geo.CollocationSets.initial(interior, bpts)
        part = geo.split_subdomain(geo.PartitionState(box3),
                                   np.array([0.5, 0.5, 0.5]), 0.11)
        after = geo.reclassify_collocation(sets, part, 1)
        # 20^3 lattice masked to the open ball: inscribed-ball fraction
        assert 0 < len(after.interior[1]) < 8000
        assert len(after.interface[1]) == 600


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

