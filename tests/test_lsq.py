import numpy as np
import pytest

from rfpde import basis as bas
from rfpde import geometry as geo
from rfpde import lsq, pde


def box2():
    return geo.Box(-np.ones(2), np.ones(2))


def zero_problem(region=None, nonlinear=False):
    kwargs = {}
    if nonlinear:
        kwargs = dict(nonlinearity=lambda u: u * u,
                      nonlinearity_prime=lambda u: 2.0 * u)
    return pde.SemilinearProblem(
        region=region or box2(),
        forcing=lambda p: np.zeros(len(np.atleast_2d(p))),
        boundary=lambda p: np.zeros(len(np.atleast_2d(p))), **kwargs)


def manufactured_linear(basis, coeffs, region=None):
    """Linear problem whose exact solution is the given basis combination."""
    coeffs = np.asarray(coeffs, dtype=float)

    def forcing(p):
        return -(basis.laplacians(np.atleast_2d(p)) @ coeffs)

    def boundary(p):
        return basis.values(np.atleast_2d(p)) @ coeffs

    return pde.SemilinearProblem(region=region or box2(), forcing=forcing,
                                 boundary=boundary, exact=boundary)


def standard_colloc(region, resolution=20, boundary=80):
    interior = geo.generate_interior_grid(region, resolution=resolution)
    bpts = geo.generate_boundary_points(region, boundary)
    return geo.CollocationSets.initial(interior, bpts)


def one_ball_setup(m0=40, mstar=50, seed=3, center=(0.4, 0.4), radius=0.2):
    region = box2()
    part = geo.split_subdomain(geo.PartitionState(region), np.asarray(center), radius)
    colloc = geo.reclassify_collocation(standard_colloc(region), part, 1,
                                        interior_resolution=12, interface_count=40)
    b0 = bas.generate_transferable(m0, 2.0, 2, seed=seed, stream=0)
    b1 = bas.rescale(bas.generate_transferable(mstar, 2.0, 2, seed=seed, stream=1),
                     np.asarray(center), 2)
    return part, [b0, b1], colloc


class TestAssemble:
    def test_single_interior_row_transcription(self):
        b = bas.BasisSet(weights=np.array([[0.9, -0.3]]), biases=np.array([0.2]),
                         center=np.zeros(2))
        x = np.array([[0.3, 0.1]])
        problem = pde.SemilinearProblem(region=box2(),
                                        forcing=lambda p: np.full(len(np.atleast_2d(p)), 1.75),
                                        boundary=lambda p: np.zeros(len(np.atleast_2d(p))))
        part = geo.PartitionState(box2())
        colloc = geo.CollocationSets((x,), (np.empty((0, 2)),), (np.empty((0, 2)),))
        blocks = lsq.assemble(part, [b], colloc, problem, require_nonempty=False)
        q = b.laplacians(x)[0, 1]
        np.testing.assert_allclose(blocks.matrix, [[0.0, -q]], atol=1e-15)
        np.testing.assert_allclose(blocks.rhs, [1.75])
        assert blocks.row_kind.tolist() == [lsq.ROW_INTERIOR]

    def test_interface_rows_sign_pattern(self):
        part, bases, _ = one_ball_setup()
        gamma_pt = geo.sample_sphere_uniform(part.ball(1).center,
                                             part.ball(1).radius, 1)
        empty = np.empty((0, 2))
        colloc = geo.CollocationSets((empty, empty), (empty, empty),
                                     (empty, gamma_pt))
        blocks = lsq.assemble(part, bases, colloc, zero_problem(),
                              require_nonempty=False)
        assert blocks.matrix.shape[0] == 2
        assert blocks.row_kind.tolist() == [lsq.ROW_IFACE_VALUE, lsq.ROW_IFACE_NORMAL]
        sl0, sl1 = blocks.col_slices
        value_row = blocks.matrix[0]
        vals0 = bases[0].values(gamma_pt)[0]
        vals1 = bases[1].values(gamma_pt)[0]
        np.testing.assert_allclose(value_row[sl1], vals1, atol=1e-15)
        np.testing.assert_allclose(value_row[sl0], -vals0, atol=1e-15)
        # normal row: +ball block, -subdomain-0 block, nothing else
        ball = part.ball(1)
        normals = geo.outward_normals(ball, gamma_pt)
        normal_row = blocks.matrix[1]
        np.testing.assert_allclose(normal_row[sl1],
                                   bases[1].normal_derivatives(gamma_pt, normals)[0],
                                   atol=1e-15)
        np.testing.assert_allclose(normal_row[sl0],
                                   -bases[0].normal_derivatives(gamma_pt, normals)[0],
                                   atol=1e-15)

    def test_toy_system_matches_normal_equations(self):
        b = bas.generate_uniform(1, 1.0, 2, seed=2)
        problem = manufactured_linear(b, [0.3, -1.2])
        part = geo.PartitionState(box2())
        interior = np.array([[0.1, 0.2], [-0.4, 0.5]])
        bpts = geo.generate_boundary_points(box2(), 4)[:1]
        colloc = geo.CollocationSets((interior,), (bpts,), (np.empty((0, 2)),))
        blocks = lsq.assemble(part, [b], colloc, problem)
        assert blocks.matrix.shape == (3, 2)
        sol = lsq.solve_min_norm(blocks)
        F, T = blocks.matrix, blocks.rhs
        brute = np.linalg.solve(F.T @ F, F.T @ T)
        np.testing.assert_allclose(sol.alpha, brute, atol=1e-10)

    def test_empty_interior_set_rejected(self):
        part, bases, colloc = one_ball_setup()
        empty = np.empty((0, 2))
        broken = geo.CollocationSets((empty, colloc.interior[1]),
                                     colloc.boundary, colloc.interface)
        with pytest.raises(lsq.AssemblyError):
            lsq.assemble(part, bases, broken, zero_problem())

    def test_block_locality(self):
        part, bases, colloc = one_ball_setup()
        problem = zero_problem()
        full = lsq.assemble(part, bases, colloc, problem)
        empty = np.empty((0, 2))
        stripped_sets = geo.CollocationSets(
            (colloc.interior[0], empty), (colloc.boundary[0], empty),
            (colloc.interface[0], empty))
        stripped = lsq.assemble(part, bases, stripped_sets, problem,
                                require_nonempty=False)
        removed = np.sum(full.row_subdomain == 1)
        assert removed > 0
        assert stripped.matrix.shape[0] == full.matrix.shape[0] - removed
        keep = full.row_subdomain == 0
        assert np.array_equal(stripped.matrix, full.matrix[keep])

    def test_row_and_column_maps(self):
        part, bases, colloc = one_ball_setup()
        blocks = lsq.assemble(part, bases, colloc, zero_problem())
        n_if = len(colloc.interface[1])
        expected_rows = (len(colloc.interior[0]) + len(colloc.interior[1])
                         + len(colloc.boundary[0]) + len(colloc.boundary[1])
                         + 2 * n_if)
        assert blocks.matrix.shape[0] == expected_rows
        assert blocks.matrix.shape[1] == bases[0].size + bases[1].size
        assert np.sum(blocks.row_kind == lsq.ROW_IFACE_VALUE) == n_if
        assert np.sum(blocks.row_kind == lsq.ROW_IFACE_NORMAL) == n_if
        assert blocks.col_slices == [slice(0, bases[0].size),
                                     slice(bases[0].size, bases[0].size + bases[1].size)]


def two_ball_setup(seed=3):
    """Two balls; the second crosses the outer boundary, so it owns boundary rows."""
    region = box2()
    part = geo.PartitionState(region)
    colloc = standard_colloc(region)
    bases = [bas.generate_transferable(40, 2.0, 2, seed=seed, stream=0)]
    for k, center in enumerate([np.array([0.4, 0.4]), np.array([0.9, -0.3])], 1):
        part = geo.split_subdomain(part, center, 0.2)
        colloc = geo.reclassify_collocation(colloc, part, k, interior_resolution=12,
                                            interface_count=40)
        bases.append(bas.rescale(
            bas.generate_transferable(50, 2.0, 2, seed=seed, stream=k), center, 2))
    return part, bases, colloc


def nonzero_nonlinear_problem():
    return pde.SemilinearProblem(
        region=box2(),
        forcing=lambda p: 1.0 + np.atleast_2d(p)[:, 0],
        boundary=lambda p: np.cos(np.atleast_2d(p)[:, 1]),
        nonlinearity=lambda u: u * u, nonlinearity_prime=lambda u: 2.0 * u)


class TestOneAssemblyPath:
    """The coupled and the local systems come from the same row groups."""

    def setup_method(self):
        self.part, self.bases, self.colloc = two_ball_setup()
        self.problem = nonzero_nonlinear_problem()
        n_cols = sum(b.size for b in self.bases)
        self.alphas = 0.1 * np.random.default_rng(7).standard_normal(n_cols)

    def test_local_system_is_the_balls_block_of_the_coupled_one(self):
        full = lsq.assemble(self.part, self.bases, self.colloc, self.problem,
                            alphas=self.alphas)
        parts = full.split(self.alphas)
        assert len(self.colloc.boundary[2]) > 0
        for k in (1, 2):
            local = lsq.assemble_local(self.problem, self.part.ball(k), self.bases[k],
                                       self.bases[0], parts[0], self.colloc.interior[k],
                                       self.colloc.boundary[k], self.colloc.interface[k],
                                       alpha_k=parts[k])
            mask = full.row_subdomain == k
            expected = full.matrix[mask][:, full.col_slices[k]]
            assert local.matrix.shape == expected.shape
            assert local.matrix.tobytes() == expected.tobytes()
            assert local.rhs.tobytes() == full.rhs[mask].tobytes()
            assert local.row_kind.tobytes() == full.row_kind[mask].tobytes()

    def test_coupled_matrix_matches_zero_padded_reference(self):
        part, bases, colloc, problem = self.part, self.bases, self.colloc, self.problem
        full = lsq.assemble(part, bases, colloc, problem, alphas=self.alphas)
        sl = full.col_slices
        parts = full.split(self.alphas)

        def padded(n, blocks):
            rows = np.zeros((n, len(self.alphas)))
            for k, block in blocks:
                rows[:, sl[k]] = block
            return rows

        groups = []   # (kind, k, padded rows) in the documented row order
        for k, pts in enumerate(colloc.interior):
            vals = bases[k].values(pts)
            rows = -bases[k].laplacians(pts) \
                + problem.nonlinearity_prime(vals @ parts[k])[:, None] * vals
            groups.append((lsq.ROW_INTERIOR, k, padded(len(pts), [(k, rows)])))
        for k, pts in enumerate(colloc.boundary):
            if len(pts):
                groups.append((lsq.ROW_BOUNDARY, k,
                               padded(len(pts), [(k, bases[k].values(pts))])))
        for k in range(1, part.n_subdomains):
            pts = colloc.interface[k]
            normals = geo.outward_normals(part.ball(k), pts)
            groups.append((lsq.ROW_IFACE_VALUE, k, padded(len(pts), [
                (k, bases[k].values(pts)), (0, -bases[0].values(pts))])))
            groups.append((lsq.ROW_IFACE_NORMAL, k, padded(len(pts), [
                (k, bases[k].normal_derivatives(pts, normals)),
                (0, -bases[0].normal_derivatives(pts, normals))])))
        reference = np.vstack([rows for _, _, rows in groups])
        assert full.matrix.shape == reference.shape
        assert full.matrix.tobytes() == reference.tobytes()
        assert full.row_kind.tolist() == [kind for kind, _, rows in groups
                                          for _ in range(len(rows))]
        assert full.row_subdomain.tolist() == [k for _, k, rows in groups
                                               for _ in range(len(rows))]


def blocks_from(F, T):
    F = np.asarray(F, dtype=float)
    T = np.asarray(T, dtype=float)
    return lsq.SystemBlocks(matrix=F, rhs=T, col_slices=[slice(0, F.shape[1])],
                            row_kind=np.zeros(F.shape[0], dtype=np.int8),
                            row_subdomain=np.zeros(F.shape[0], dtype=np.int32))


class TestSolveMinNorm:
    def test_identity(self):
        sol = lsq.solve_min_norm(blocks_from(np.eye(3), [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(sol.alpha, [1, 2, 3], atol=1e-14)
        assert sol.loss == pytest.approx(0.0, abs=1e-28)
        assert sol.rank == 3

    def test_overdetermined_single_column(self):
        # d/da [(a-1)^2 + a^2] = 0 at a = 1/2, squared residual 1/2
        sol = lsq.solve_min_norm(blocks_from([[1.0], [1.0]], [1.0, 0.0]))
        assert sol.alpha[0] == pytest.approx(0.5, abs=1e-14)
        assert sol.loss == pytest.approx(0.5, abs=1e-14)

    def test_rank_deficient_minimum_norm(self):
        # among alpha1 + alpha2 = 2 the minimum-norm solution is (1, 1)
        sol = lsq.solve_min_norm(blocks_from([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]))
        np.testing.assert_allclose(sol.alpha, [1.0, 1.0], atol=1e-12)
        assert sol.rank == 1

    def test_non_finite_rejected(self):
        with pytest.raises(lsq.AssemblyError):
            lsq.solve_min_norm(blocks_from([[np.inf, 1.0]], [0.0]))

    def test_matches_normal_equations_on_random_well_conditioned(self, rng):
        for _ in range(25):
            rows = rng.integers(12, 21)
            cols = rng.integers(2, 11)
            F = rng.standard_normal((rows, cols)) + np.eye(rows, cols) * 3.0
            T = rng.standard_normal(rows)
            sol = lsq.solve_min_norm(blocks_from(F, T))
            brute = np.linalg.solve(F.T @ F, F.T @ T)
            np.testing.assert_allclose(sol.alpha, brute, atol=1e-8, rtol=1e-8)

    def test_normal_equation_stationarity(self, rng):
        F = rng.standard_normal((30, 8)) + np.eye(30, 8) * 2.0
        T = rng.standard_normal(30)
        sol = lsq.solve_min_norm(blocks_from(F, T))
        grad = F.T @ (F @ sol.alpha - T)
        bound = 1e-8 * np.linalg.norm(F) * np.linalg.norm(T)
        assert np.max(np.abs(grad)) <= bound

    def test_null_space_perturbation_does_not_shrink_norm(self, rng):
        for _ in range(10):
            rank = int(rng.integers(1, 4))
            left = rng.standard_normal((12, rank))
            right = rng.standard_normal((rank, 6))
            F = left @ right
            T = rng.standard_normal(12)
            sol = lsq.solve_min_norm(blocks_from(F, T))
            _, _, vt = np.linalg.svd(F)
            null = vt[rank:]
            # minimum-norm solution is orthogonal to the null space
            assert np.max(np.abs(null @ sol.alpha)) <= 1e-10
            for v in null:
                assert np.linalg.norm(sol.alpha + 0.1 * v) >= np.linalg.norm(sol.alpha)

    def test_residual_breakdown_by_kind(self):
        part, bases, colloc = one_ball_setup()
        b = bas.generate_transferable(30, 2.0, 2, seed=12)
        problem = manufactured_linear(b, np.linspace(-1, 1, 31))
        blocks = lsq.assemble(part, bases, colloc, problem)
        sol = lsq.solve_min_norm(blocks)
        total = sum(sol.residual_by_kind.values())
        assert total == pytest.approx(sol.loss, rel=1e-10, abs=1e-12)
        assert set(sol.residual_by_kind) == {"interior", "boundary",
                                             "interface-value", "interface-normal"}


class TestInSpanRecovery:
    def test_linear_solve_recovers_coefficients(self, rng):
        region = box2()
        b = bas.generate_transferable(50, 2.0, 2, seed=77)
        coeffs = rng.standard_normal(b.size)
        problem = manufactured_linear(b, coeffs)
        colloc = standard_colloc(region, resolution=30, boundary=120)
        part = geo.PartitionState(region)
        blocks = lsq.assemble(part, [b], colloc, problem)
        sol = lsq.solve_min_norm(blocks)
        rel = np.linalg.norm(sol.alpha - coeffs) / np.linalg.norm(coeffs)
        assert rel <= 1e-6


class TestGaussNewton:
    def test_linear_problem_single_effective_iteration(self):
        region = box2()
        b = bas.generate_transferable(25, 2.0, 2, seed=5)
        problem = manufactured_linear(b, np.ones(26))
        colloc = standard_colloc(region)
        part = geo.PartitionState(region)
        direct = lsq.solve_min_norm(lsq.assemble(part, [b], colloc, problem))
        report = lsq.gauss_newton(part, [b], colloc, problem)
        assert len(report.iterations) == 1
        assert report.converged
        np.testing.assert_allclose(report.alpha, direct.alpha, atol=1e-12)

    def test_constant_fixed_point_of_quadratic_problem(self):
        # -lap(1) + 1^2 = 1, so with f = g = 1 the constant basis solves it
        region = box2()
        b = bas.BasisSet(weights=np.empty((0, 2)), biases=np.empty(0),
                         center=np.zeros(2))
        assert b.size == 1
        problem = pde.SemilinearProblem(
            region=region,
            forcing=lambda p: np.ones(len(np.atleast_2d(p))),
            boundary=lambda p: np.ones(len(np.atleast_2d(p))),
            nonlinearity=lambda u: u * u, nonlinearity_prime=lambda u: 2.0 * u)
        colloc = standard_colloc(region, resolution=5, boundary=8)
        part = geo.PartitionState(region)
        report = lsq.gauss_newton(part, [b], colloc, problem, n_max=10, tol=1e-5)
        assert report.converged
        # loss is ~0 from the second solve on; the relative-change criterion
        # needs one more pass (on an exact zero) to declare convergence
        assert report.iterations[1][1] <= 1e-20
        assert len(report.iterations) <= 4
        assert report.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert report.loss == pytest.approx(0.0, abs=1e-20)

    def test_zero_previous_loss_stops_immediately(self):
        # loss hits exactly zero at the first iteration; the guard must stop
        # the loop as converged instead of dividing by zero
        calls = []

        def assembler(alpha):
            calls.append(0)
            return blocks_from(np.eye(2), np.zeros(2))

        report = lsq.gauss_newton_core(assembler, is_linear=False, n_max=10,
                                       tol=1e-5)
        assert report.converged
        assert len(report.iterations) == 2
        assert report.iterations[1][2] == 0.0

    def test_divergence_raises_with_trace(self):
        # a fabricated assembler whose residual grows without bound
        state = {"n": 0}

        def assembler(alpha):
            state["n"] += 1
            scale = 10.0 ** (3 * state["n"])
            return blocks_from([[1.0], [-1.0]], [scale, scale])

        with pytest.raises(lsq.NonConvergenceError) as err:
            lsq.gauss_newton_core(assembler, is_linear=False, n_max=50, tol=1e-12)
        assert len(err.value.trace) >= 2

    def test_nonlinear_peak_matches_manufactured(self, rng):
        # quadratic operator with forcing manufactured from a known expansion
        region = box2()
        b = bas.generate_transferable(30, 2.0, 2, seed=9)
        coeffs = 0.3 * rng.standard_normal(b.size)

        def u_exact(p):
            return b.values(np.atleast_2d(p)) @ coeffs

        def forcing(p):
            pts = np.atleast_2d(p)
            return -(b.laplacians(pts) @ coeffs) + u_exact(pts) ** 2

        problem = pde.SemilinearProblem(region=region, forcing=forcing,
                                        boundary=u_exact, exact=u_exact,
                                        nonlinearity=lambda u: u * u,
                                        nonlinearity_prime=lambda u: 2.0 * u)
        colloc = standard_colloc(region, resolution=25, boundary=80)
        part = geo.PartitionState(region)
        # loss bottoms out at float noise, where the relative-change criterion
        # oscillates; assert the recovery itself rather than the flag
        report = lsq.gauss_newton(part, [b], colloc, problem, n_max=8)
        rel = np.linalg.norm(report.alpha - coeffs) / np.linalg.norm(coeffs)
        assert rel <= 1e-6
        assert report.loss <= 1e-20

