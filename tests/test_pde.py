import pickle

import numpy as np
import pytest
from conftest import fd_laplacian, fresh_rows, pointwise_operator

from rfpde import basis as bas
from rfpde import geometry as geo
from rfpde import lsq, pde
from rfpde.geometry import generate_boundary_points


@pytest.fixture
def small_basis():
    return bas.generate_transferable(8, 1.0, 2, seed=21)


def linear_toy(region=None):
    from rfpde.geometry import Box
    region = region or Box(-np.ones(2), np.ones(2))
    return pde.SemilinearProblem(region=region,
                                 forcing=lambda p: np.zeros(len(np.atleast_2d(p))),
                                 boundary=lambda p: np.zeros(len(np.atleast_2d(p))))


def quadratic_toy(forcing=None):
    from rfpde.geometry import Box
    return pde.SemilinearProblem(
        region=Box(-np.ones(2), np.ones(2)),
        forcing=forcing or (lambda p: np.zeros(len(np.atleast_2d(p)))),
        boundary=lambda p: np.zeros(len(np.atleast_2d(p))),
        nonlinearity=lambda u: u * u,
        nonlinearity_prime=lambda u: 2.0 * u)


def interior_rows(problem, basis, alpha, points):
    """Interior rows of the one-subdomain system assembled at ``alpha``, its
    one subdomain's coefficients: each row divided by its weight, the 2-norm
    of its linear part -lap(psi)."""
    region = problem.region
    colloc = geo.CollocationSets.initial(points, generate_boundary_points(region, 8))
    rows = fresh_rows(geo.PartitionState(region), [basis], colloc, problem)
    blocks = lsq.assemble(problem, rows, alphas=[alpha])
    return blocks.matrix[blocks.row_kind == lsq.ROW_INTERIOR]


class TestOperator:
    def test_constant_annihilated_by_laplacian(self, small_basis):
        problem = linear_toy()
        alpha = np.zeros(small_basis.size)
        alpha[0] = 1.0
        res = pde.operator_residuals(problem, small_basis, alpha, np.array([[0.2, 0.3]]))
        assert res.tolist() == [0.0]

    def test_quadratic_nonlinearity_on_constant(self, small_basis):
        problem = quadratic_toy()
        alpha = np.zeros(small_basis.size)
        alpha[0] = 1.0
        res = pde.operator_residuals(problem, small_basis, alpha, np.array([[0.2, 0.3]]))
        assert res[0] == pytest.approx(1.0)

    def test_size_mismatch(self, small_basis):
        problem = linear_toy()
        with pytest.raises(ValueError):
            pde.operator_residuals(problem, small_basis, np.zeros(3),
                                   np.array([[0.0, 0.0]]))

    def test_matches_finite_difference_laplacian(self, small_basis, rng):
        # zero forcing: the residual is the operator value -lap(u)
        problem = linear_toy()
        alpha = rng.standard_normal(small_basis.size)
        pts = rng.uniform(-0.8, 0.8, size=(10, 2))
        res = pde.operator_residuals(problem, small_basis, alpha, pts)
        for x, got in zip(pts, res):
            lap_fd = fd_laplacian(
                lambda y: float(small_basis.values(y[None, :])[0] @ alpha), x)
            assert got == pytest.approx(-lap_fd, rel=1e-5, abs=1e-8)


def weight(linear):
    """Each row's weight: the 2-norm of its linear part ``linear``, as
    ``lsq`` computes it."""
    return np.sqrt(np.einsum("ij,ij->i", linear, linear))


class TestLinearizedRow:
    """The interior rows of ``lsq.assemble``: the operator's directional
    derivative -lap(psi_m) + N'(u) psi_m at the current coefficients,
    divided by the 2-norm of its linear part, -lap(psi_m), whatever the
    coefficients."""

    def test_linear_row_is_negative_laplacians(self, small_basis, rng):
        problem = linear_toy()
        pts = np.array([[0.1, -0.4], [0.5, 0.2]])
        alpha = rng.standard_normal(small_basis.size)
        rows = interior_rows(problem, small_basis, alpha, pts)
        linear = -small_basis.laplacians(pts)
        np.testing.assert_array_equal(rows, linear / weight(linear)[:, None])

    def test_quadratic_row(self, small_basis, rng):
        problem = quadratic_toy()
        pts = np.array([[0.1, -0.4], [0.5, 0.2]])
        alpha = 0.5 * rng.standard_normal(small_basis.size)
        rows = interior_rows(problem, small_basis, alpha, pts)
        vals = small_basis.values(pts)
        u = vals @ alpha
        assert np.all(u != 0.0)
        linear = -small_basis.laplacians(pts)
        np.testing.assert_allclose(rows, (linear + 2.0 * u[:, None] * vals)
                                   / weight(linear)[:, None], atol=1e-15)

    def test_directional_derivative_oracle(self, small_basis, rng):
        # (L(u + eps psi_m) - L(u))/eps -> row_m as eps -> 0, with L evaluated
        # by the pointwise oracle
        problem = quadratic_toy()
        alpha = 0.5 * rng.standard_normal(small_basis.size)
        eps = 1e-6
        pts = rng.uniform(-0.8, 0.8, size=(5, 2))
        rows = interior_rows(problem, small_basis, alpha, pts)
        for x, row in zip(pts, rows):
            base = pointwise_operator(problem, small_basis, alpha, x)
            fd = np.empty(small_basis.size)
            for m in range(small_basis.size):
                bumped = alpha.copy()
                bumped[m] += eps
                fd[m] = (pointwise_operator(problem, small_basis, bumped, x) - base) / eps
            # forward-difference error of the quadratic term is exactly
            # eps * psi_m^2 <= eps per entry, plus float cancellation noise;
            # the row is the derivative divided by the weight |lap(psi)|, and
            # so is that error
            entry = eps + 1e-9 * max(1.0, abs(base))
            w = weight(small_basis.laplacians(x[None]))[0]
            assert np.max(np.abs(fd / w - row)) <= entry / w


class TestBenchmarks:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            pde.benchmark("peak2d-case9")

    def test_peak_case1_exact_at_peak(self):
        problem = pde.benchmark("peak2d-case1")
        assert problem.exact(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)

    def test_corner_exact_at_unit_radius(self):
        problem = pde.benchmark("corner2d")
        assert problem.exact(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["peak2d-case1", "peak2d-case3",
                                      "nonlinear2d-case1", "peak3d"])
    def test_forcing_consistent_with_exact(self, name, rng):
        # -lap(u) (+ u^2) by finite differences vs the analytic forcing, away
        # from the bump centers where the FD step resolves the field
        problem = pde.benchmark(name)
        d = problem.dim
        pts = rng.uniform(-0.9, 0.9, size=(400, d))
        centers = [c for case, cs in pde._PEAK_CENTERS_2D.items() for c in cs] \
            if d == 2 else [(0.5, 0.5, 0.5)]
        keep = np.ones(len(pts), dtype=bool)
        for c in centers:
            keep &= np.linalg.norm(pts - np.asarray(c), axis=1) >= 0.05
        pts = pts[keep][:50]
        f = problem.forcing(pts)
        for x, fx in zip(pts, f):
            lap_fd = fd_laplacian(lambda y: problem.exact(y[None, :])[0], x)
            expect = -lap_fd
            if not problem.is_linear:
                expect += problem.exact(x[None, :])[0] ** 2
            assert fx == pytest.approx(expect, rel=1e-4, abs=1e-7)

    def test_corner_forcing_consistent(self, rng):
        problem = pde.benchmark("corner2d")
        pts = rng.uniform(-0.9, -0.1, size=(20, 2))  # well inside, away from corner
        f = problem.forcing(pts)
        for x, fx in zip(pts, f):
            lap_fd = fd_laplacian(lambda y: problem.exact(y[None, :])[0], x)
            assert fx == pytest.approx(-lap_fd, rel=1e-4)

    def test_corner_forcing_guard(self):
        problem = pde.benchmark("corner2d")
        with pytest.raises(ValueError):
            problem.forcing(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("name", pde.BENCHMARKS)
    def test_boundary_is_trace_of_exact(self, name):
        problem = pde.benchmark(name)
        if problem.dim == 3:
            pts = generate_boundary_points(problem.region, 600)
        else:
            pts = generate_boundary_points(problem.region, 1000 if name != "corner2d" else 1000)
        assert np.max(np.abs(problem.boundary(pts) - problem.exact(pts))) == 0.0

    def test_case3_symmetry(self, rng):
        problem = pde.benchmark("peak2d-case3")
        pts = rng.uniform(-1, 1, size=(200, 2))
        u = problem.exact(pts)
        np.testing.assert_allclose(problem.exact(-pts), u, rtol=0, atol=1e-15)
        np.testing.assert_allclose(problem.exact(pts[:, ::-1]), u, rtol=0, atol=1e-15)

    def test_nonlinearity_derivative_consistent(self, rng):
        problem = pde.benchmark("nonlinear2d-case1")
        u = rng.standard_normal(50)
        h = 1e-7
        fd = (problem.nonlinearity(u + h) - problem.nonlinearity(u)) / h
        np.testing.assert_allclose(fd, problem.nonlinearity_prime(u),
                                   rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("name", pde.BENCHMARKS)
    def test_benchmark_round_trips_through_pickle(self, name, rng):
        # a worker process receives the problem by pickle and must compute
        # the same values, bit for bit
        problem = pde.benchmark(name)
        copy = pickle.loads(pickle.dumps(problem))
        pts = rng.uniform(-1, 1, size=(200, problem.dim))
        pts = pts[np.sum(pts * pts, axis=1) > 1e-3]       # off corner2d's singularity
        for attr in ("forcing", "boundary", "exact"):
            assert getattr(copy, attr)(pts).tobytes() == \
                getattr(problem, attr)(pts).tobytes(), attr
        assert copy.is_linear == problem.is_linear
        if not problem.is_linear:
            u = rng.standard_normal(50)
            for attr in ("nonlinearity", "nonlinearity_prime"):
                assert getattr(copy, attr)(u).tobytes() == \
                    getattr(problem, attr)(u).tobytes(), attr

    def test_nonlinearity_requires_derivative(self):
        from rfpde.geometry import Box
        with pytest.raises(ValueError):
            pde.SemilinearProblem(region=Box(-np.ones(2), np.ones(2)),
                                  forcing=lambda p: p[:, 0],
                                  boundary=lambda p: p[:, 0],
                                  nonlinearity=lambda u: u)
