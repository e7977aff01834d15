import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import (all_coefficients, assert_solves_as_svd_solve, fresh_ball_rows,
                      fresh_rows, fresh_solve, svd_eliminate)

from rfpde import adaptive as ada
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


def assemble(partition, bases, colloc, problem, alphas=None):
    """The coupled system, its bases evaluated at the collocation points."""
    return lsq.assemble(problem, fresh_rows(partition, bases, colloc, problem),
                        alphas=alphas)


def dense(blocks):
    """Zero-padded dense (F, T) of a block-angular system, in block row order."""
    parts = [blocks] + blocks.balls
    col_starts = np.cumsum([0] + [b.size for b in parts])
    F = np.zeros((sum(len(b.rhs) for b in parts), col_starts[-1]))
    start = 0
    for b, col in zip(parts, col_starts):
        rows = slice(start, start + len(b.rhs))
        F[rows, col:col + b.size] = b.matrix
        if b is not blocks:
            F[rows.stop - len(b.coupling):rows.stop, :blocks.size] = b.coupling
        start = rows.stop
    return F, np.concatenate([b.rhs for b in parts])


def one_ball_setup(m0=40, mstar=50, seed=3, center=(0.4, 0.4), radius=0.2):
    region = box2()
    part = geo.split_subdomain(geo.PartitionState(region), np.asarray(center), radius)
    domain = standard_colloc(region)
    colloc = geo.reclassify_collocation(part, domain.interior[0], domain.boundary[0],
                                        ball_resolution=12, interface_count=40)
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
        bpt = np.array([[1.0, 0.0]])
        colloc = geo.CollocationSets.initial(x, bpt)
        blocks = assemble(part, [b], colloc, problem)
        q = b.laplacians(x)[0, 1]
        assert blocks.row_kind.tolist() == [lsq.ROW_INTERIOR, lsq.ROW_BOUNDARY]
        # the row -lap and its forcing, both divided by the row's norm |q|
        np.testing.assert_allclose(blocks.matrix[:1], [[0.0, -q / abs(q)]], atol=1e-15)
        np.testing.assert_allclose(blocks.rhs[:1], [1.75 / abs(q)])

    def test_interface_rows_sign_pattern(self):
        part, bases, _ = one_ball_setup()
        gamma_pt = geo.sample_sphere_uniform(part.ball(1).center,
                                             part.ball(1).radius, 1)
        # one interior point per subdomain and one boundary point of subdomain 0
        empty = np.empty((0, 2))
        colloc = geo.CollocationSets((np.array([[-0.5, -0.5]]), part.ball(1).center[None]),
                                     (np.array([[-1.0, 0.0]]), empty), (empty, gamma_pt))
        blocks = assemble(part, bases, colloc, zero_problem())
        assert blocks.row_kind.tolist() == [lsq.ROW_INTERIOR, lsq.ROW_BOUNDARY]
        (ball_block,) = blocks.balls
        assert ball_block.row_kind.tolist() == [lsq.ROW_INTERIOR, lsq.ROW_IFACE_VALUE,
                                                lsq.ROW_IFACE_NORMAL]
        # value row: +ball block, -subdomain-0 block in the coupling, divided
        # by the norm of the whole row, both blocks' columns
        vals0 = bases[0].values(gamma_pt)[0]
        vals1 = bases[1].values(gamma_pt)[0]
        norm = np.linalg.norm(np.concatenate([vals1, vals0]))
        np.testing.assert_allclose(ball_block.matrix[1], vals1 / norm, atol=1e-15)
        np.testing.assert_allclose(ball_block.coupling[0], -vals0 / norm, atol=1e-15)
        # normal row: likewise with the normal derivatives
        normals = geo.outward_normals(part.ball(1), gamma_pt)
        d0 = bases[0].normal_derivatives(gamma_pt, normals)[0]
        d1 = bases[1].normal_derivatives(gamma_pt, normals)[0]
        norm = np.linalg.norm(np.concatenate([d1, d0]))
        np.testing.assert_allclose(ball_block.matrix[2], d1 / norm, atol=1e-15)
        np.testing.assert_allclose(ball_block.coupling[1], -d0 / norm, atol=1e-15)
        assert ball_block.coupling.shape == (2, bases[0].size)

    def test_toy_system_matches_normal_equations(self):
        b = bas.generate_uniform(1, 1.0, 2, seed=2)
        problem = manufactured_linear(b, [0.3, -1.2])
        part = geo.PartitionState(box2())
        interior = np.array([[0.1, 0.2], [-0.4, 0.5]])
        bpts = geo.generate_boundary_points(box2(), 4)[:1]
        colloc = geo.CollocationSets((interior,), (bpts,), (np.empty((0, 2)),))
        blocks = assemble(part, [b], colloc, problem)
        assert blocks.matrix.shape == (3, 2)
        sol = lsq.solve_min_norm(blocks)
        F, T = blocks.matrix, blocks.rhs
        brute = np.linalg.solve(F.T @ F, F.T @ T)
        np.testing.assert_allclose(sol.alphas[0], brute, atol=1e-10)

    def test_empty_interior_set_rejected(self):
        part, bases, colloc = one_ball_setup()
        empty = np.empty((0, 2))
        broken = geo.CollocationSets((empty, colloc.interior[1]),
                                     colloc.boundary, colloc.interface)
        with pytest.raises(lsq.AssemblyError):
            fresh_rows(part, bases, broken, zero_problem())

    def test_coefficients_must_match_the_subdomains(self):
        part, bases, colloc = one_ball_setup()
        problem = zero_problem(nonlinear=True)
        rows = fresh_rows(part, bases, colloc, problem)
        good = [np.zeros(b.size) for b in bases]
        assert [b.size for b in lsq.assemble(problem, rows, alphas=good).balls] == \
            [bases[1].size]
        for bad in (good[:1], good + good[:1], good[::-1], [good[0], good[1][:-1]],
                    [np.concatenate(good)]):
            with pytest.raises(lsq.AssemblyError, match="coefficients"):
                lsq.assemble(problem, rows, alphas=bad)
        lsq.assemble_local(problem, rows[1], good[0], alphas=good[1:])
        for bad in (good, good[:1], []):
            with pytest.raises(lsq.AssemblyError, match="coefficients"):
                lsq.assemble_local(problem, rows[1], good[0], alphas=bad)

    def test_block_locality(self):
        # subdomain 0's block is the system without the ball, and the ball's
        # block touches subdomain 0 only through its interface rows
        part, bases, colloc = one_ball_setup()
        problem = zero_problem()
        full = assemble(part, bases, colloc, problem)
        stripped_sets = geo.CollocationSets.initial(colloc.interior[0],
                                                    colloc.boundary[0])
        stripped = assemble(geo.PartitionState(part.base), bases[:1], stripped_sets,
                            problem)
        assert stripped.balls == []
        assert full.matrix.shape == stripped.matrix.shape
        assert full.matrix.tobytes() == stripped.matrix.tobytes()
        assert full.rhs.tobytes() == stripped.rhs.tobytes()
        (ball_block,) = full.balls
        n_if = len(colloc.interface[1])
        assert ball_block.matrix.shape[1] == bases[1].size
        assert ball_block.coupling.shape == (2 * n_if, bases[0].size)
        assert ball_block.row_kind[-2 * n_if:].tolist() == \
            [lsq.ROW_IFACE_VALUE] * n_if + [lsq.ROW_IFACE_NORMAL] * n_if

    def test_row_and_column_maps(self):
        part, bases, colloc = one_ball_setup()
        blocks = assemble(part, bases, colloc, zero_problem())
        n_if = len(colloc.interface[1])
        assert blocks.matrix.shape == (len(colloc.interior[0]) + len(colloc.boundary[0]),
                                       bases[0].size)
        (ball_block,) = blocks.balls
        assert ball_block.matrix.shape == (len(colloc.interior[1])
                                           + len(colloc.boundary[1]) + 2 * n_if,
                                           bases[1].size)
        kinds = np.concatenate([blocks.row_kind, ball_block.row_kind])
        assert np.sum(kinds == lsq.ROW_IFACE_VALUE) == n_if
        assert np.sum(kinds == lsq.ROW_IFACE_NORMAL) == n_if
        assert [blocks.size, ball_block.size] == [bases[0].size, bases[1].size]

    def test_no_array_spans_two_subdomains(self):
        part, bases, colloc = two_ball_setup()
        blocks = assemble(part, bases, colloc, nonzero_nonlinear_problem())
        sizes = [b.size for b in bases]
        assert len(blocks.balls) == 2
        assert blocks.matrix.shape[1] == sizes[0]
        assert blocks.coupling is None
        for k, ball_block in enumerate(blocks.balls, 1):
            assert ball_block.balls == []
            assert ball_block.matrix.shape[1] == sizes[k]
            assert ball_block.coupling.shape[1] == sizes[0]
        arrays = [a for b in [blocks] + blocks.balls for a in vars(b).values()
                  if isinstance(a, np.ndarray)]
        # stacked, rhs and row_kind, and a ball's coupling
        assert len(arrays) == 3 + 4 + 4
        assert all(a.ndim == 1 or a.shape[1] in (sizes[0], sizes[1], sizes[2])
                   for a in arrays)


def two_ball_setup(seed=3, m0=40, mstar=50):
    """Two balls; the second crosses the outer boundary, so it owns boundary rows."""
    region = box2()
    part = geo.PartitionState(region)
    bases = [bas.generate_transferable(m0, 2.0, 2, seed=seed, stream=0)]
    for k, center in enumerate([np.array([0.4, 0.4]), np.array([0.9, -0.3])], 1):
        part = geo.split_subdomain(part, center, 0.2)
        bases.append(bas.rescale(
            bas.generate_transferable(mstar, 2.0, 2, seed=seed, stream=k), center, 2))
    domain = standard_colloc(region)
    colloc = geo.reclassify_collocation(part, domain.interior[0], domain.boundary[0],
                                        ball_resolution=12, interface_count=40)
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
        rng = np.random.default_rng(7)
        self.alphas = [0.1 * rng.standard_normal(b.size) for b in self.bases]

    def test_local_system_is_the_balls_block_of_the_coupled_one(self):
        full = assemble(self.part, self.bases, self.colloc, self.problem,
                        alphas=self.alphas)
        assert len(self.colloc.boundary[2]) > 0
        for k in (1, 2):
            rows = lsq.ball_rows(self.problem, self.part.ball(k), self.bases[k],
                                 self.bases[0], self.colloc.interior[k],
                                 self.colloc.boundary[k], self.colloc.interface[k])
            local = lsq.assemble_local(self.problem, rows, self.alphas[0],
                                       alphas=[self.alphas[k]])
            expected = full.balls[k - 1]
            assert local.matrix.shape == expected.matrix.shape
            for name in ("matrix", "rhs", "row_kind", "coupling"):
                assert getattr(local, name).tobytes() == \
                    getattr(expected, name).tobytes(), name

    def test_coupled_matrix_matches_zero_padded_reference(self):
        part, bases, colloc, problem = self.part, self.bases, self.colloc, self.problem
        full = assemble(part, bases, colloc, problem, alphas=self.alphas)
        col_starts = np.cumsum([0] + [b.size for b in bases])
        sl = [slice(start, stop) for start, stop in zip(col_starts, col_starts[1:])]

        def padded(n, blocks, derivative=None):
            """The rows of the operator's linear part in ``blocks``,
            (subdomain, its columns) pairs, padded with zeros and divided by
            the documented row weight: the square root of the sum of squares
            over the subdomain's columns, then over subdomain 0's (an
            interface row's coupling columns). ``derivative``, (subdomain,
            N'(u), basis values), then adds N'(u) psi divided by that
            weight on the subdomain's columns."""
            rows = np.zeros((n, col_starts[-1]))
            norms = np.zeros(n)
            for k, block in blocks:
                rows[:, sl[k]] = block
                norms += np.einsum("ij,ij->i", rows[:, sl[k]], rows[:, sl[k]])
            norms = np.sqrt(norms)
            norms[norms == 0.0] = 1.0
            rows /= norms[:, None]
            if derivative is not None:
                k, slope, vals = derivative
                rows[:, sl[k]] += (slope / norms)[:, None] * vals
            return rows

        groups = []   # (kind, padded rows) in the documented row order
        for k in range(part.n_subdomains):
            pts = colloc.interior[k]
            vals = bases[k].values(pts)
            slope = problem.nonlinearity_prime(vals @ self.alphas[k])
            groups.append((lsq.ROW_INTERIOR, padded(
                len(pts), [(k, -bases[k].laplacians(pts))], (k, slope, vals))))
            pts = colloc.boundary[k]
            groups.append((lsq.ROW_BOUNDARY,
                           padded(len(pts), [(k, bases[k].values(pts))])))
            if k == 0:
                continue
            pts = colloc.interface[k]
            normals = geo.outward_normals(part.ball(k), pts)
            groups.append((lsq.ROW_IFACE_VALUE, padded(len(pts), [
                (k, bases[k].values(pts)), (0, -bases[0].values(pts))])))
            groups.append((lsq.ROW_IFACE_NORMAL, padded(len(pts), [
                (k, bases[k].normal_derivatives(pts, normals)),
                (0, -bases[0].normal_derivatives(pts, normals))])))
        reference = np.vstack([rows for _, rows in groups])
        F, _ = dense(full)
        assert F.shape == reference.shape
        assert F.tobytes() == reference.tobytes()
        kinds = np.concatenate([b.row_kind for b in [full] + full.balls])
        assert kinds.tolist() == [kind for kind, rows in groups for _ in range(len(rows))]

    def test_blocks_share_or_leave_the_evaluated_rows(self):
        # a linear problem's blocks are the evaluated rows themselves; a
        # nonlinear re-linearization copies them and leaves them unchanged
        rows = fresh_rows(self.part, self.bases, self.colloc, zero_problem())
        linear = lsq.assemble(zero_problem(), rows, alphas=self.alphas)
        assert all(b.stacked is r.matrix for b, r in zip([linear] + linear.balls, rows))
        rows = fresh_rows(self.part, self.bases, self.colloc, self.problem)
        before = [r.matrix.tobytes() for r in rows]
        full = lsq.assemble(self.problem, rows, alphas=self.alphas)
        assert not any(np.shares_memory(b.stacked, r.matrix)
                       for b, r in zip([full] + full.balls, rows))
        assert [r.matrix.tobytes() for r in rows] == before

    def test_bases_are_evaluated_once_per_gauss_newton_solve(self, monkeypatch):
        calls = []
        for name in ("values", "laplacians", "normal_derivatives"):
            real = getattr(bas.BasisSet, name)

            def counted(self, *args, real=real, name=name, **kwargs):
                calls.append((name, self))
                return real(self, *args, **kwargs)
            monkeypatch.setattr(bas.BasisSet, name, counted)
        kept = [lsq.keep_ball(self.problem, rows) for rows in
                fresh_ball_rows(self.part, self.bases, self.colloc, self.problem)]
        made = len(calls)
        report = lsq.gauss_newton(self.problem, self.bases[0], self.colloc.interior[0],
                                  self.colloc.boundary[0], kept, 4, 1e-5)
        assert len(report.iterations) > 1
        names = [name for name, _ in calls]
        # per subdomain: interior values and Laplacians, boundary values; per
        # ball: values and normal derivatives of both bases on the interface
        assert names.count("laplacians") == 3
        assert names.count("values") == 3 * 2 + 2 * 2
        assert names.count("normal_derivatives") == 2 * 2
        # the coupled solve evaluates subdomain 0's basis alone
        assert sorted(name for name, _ in calls[made:]) == \
            ["laplacians", "values", "values"]
        assert all(basis is self.bases[0] for _, basis in calls[made:])


def row_norms(matrix, coupling):
    """Each row's 2-norm over a block's columns, ``matrix``, and, for an
    interface row (the last ``len(coupling)``), over its ``coupling``
    columns too."""
    norms = np.einsum("ij,ij->i", matrix, matrix)
    if coupling is not None:
        iface = slice(len(norms) - len(coupling), None)
        norms[iface] += np.einsum("ij,ij->i", coupling, coupling)
    return np.sqrt(norms)


def linearized_rows(part, bases, colloc, problem, alphas, k):
    """Subdomain k's rows linearized at ``alphas``, unweighted: the
    operator's directional derivative -lap(psi) + N'(u) psi, the boundary
    values and a ball's interface rows, and those rows' subdomain-0 columns
    (None for subdomain 0)."""
    pts = colloc.interior[k]
    vals = bases[k].values(pts)
    interior = -bases[k].laplacians(pts)
    if problem.nonlinearity is not None:
        interior += problem.nonlinearity_prime(vals @ alphas[k])[:, None] * vals
    matrix = [interior, bases[k].values(colloc.boundary[k])]
    if k == 0:
        return np.vstack(matrix), None
    pts = colloc.interface[k]
    normals = geo.outward_normals(part.ball(k), pts)
    matrix += [bases[k].values(pts), bases[k].normal_derivatives(pts, normals)]
    coupling = -np.vstack([bases[0].values(pts),
                           bases[0].normal_derivatives(pts, normals)])
    return np.vstack(matrix), coupling


class TestUnitRows:
    """Every row of every block, and its right-hand side with it, is divided
    by one weight, the 2-norm of the row's linear part, an interface row's
    coupling columns included: a linear problem's rows are at unit 2-norm,
    and a nonlinear one's keep their linear part's weights at every
    linearization."""

    def test_coupled_and_local_blocks(self):
        part, bases, colloc = two_ball_setup()
        rng = np.random.default_rng(7)
        alphas = [0.1 * rng.standard_normal(b.size) for b in bases]
        linear = manufactured_linear(bases[0], np.linspace(-1.0, 1.0, bases[0].size))
        for problem, at in ((linear, None), (nonzero_nonlinear_problem(), alphas)):
            rows = fresh_rows(part, bases, colloc, problem)
            full = lsq.assemble(problem, rows, alphas=at)
            alpha_0 = np.zeros(bases[0].size) if at is None else at[0]
            local = [lsq.assemble_local(problem, ball, alpha_0,
                                        alphas=None if at is None else at[k:k + 1])
                     for k, ball in enumerate(rows[1:], 1)]
            assert all(b.coupling is not None for b in full.balls + local)
            blocks = [full] + full.balls + local
            subdomains = [0, 1, 2, 1, 2]
            if problem.is_linear:
                for block in blocks:
                    np.testing.assert_allclose(row_norms(block.matrix, block.coupling),
                                               1.0, rtol=1e-13)
                continue
            for block, k in zip(blocks, subdomains):
                matrix, coupling = linearized_rows(part, bases, colloc, problem,
                                                   alphas, k)
                size = row_norms(matrix, coupling)
                weights = rows[k].norms[:, None]
                # times the stored weights, each row is the linearized row, to
                # 1e-13 of that row's 2-norm
                np.testing.assert_allclose(
                    (block.matrix * weights - matrix) / size[:, None], 0.0, atol=1e-13)
                if coupling is not None:
                    iface = slice(len(size) - len(coupling), None)
                    error = block.coupling * weights[iface] - coupling
                    np.testing.assert_allclose(error / size[iface, None], 0.0, atol=1e-13)
            # the interior rows are not at unit norm: their weight is their
            # linear part's norm
            interior = slice(0, len(rows[0].forcing))
            assert not np.allclose(row_norms(full.matrix[interior], None), 1.0)

    def test_kept_linear_ball_is_eliminated_from_unit_rows(self, monkeypatch):
        part, bases, colloc = two_ball_setup()
        problem = manufactured_linear(bases[0], np.linspace(-1.0, 1.0, bases[0].size))
        eliminated = []
        real = lsq._eliminate

        def eliminate(ball):
            eliminated.append(ball)
            return real(ball)
        monkeypatch.setattr(lsq, "_eliminate", eliminate)
        for rows in fresh_ball_rows(part, bases, colloc, problem):
            lsq.keep_ball(problem, rows)
        assert len(eliminated) == 2
        for block in eliminated:
            assert block.coupling is not None
            np.testing.assert_allclose(row_norms(block.matrix, block.coupling), 1.0,
                                       rtol=1e-13)

    def test_a_row_of_norm_zero_keeps_weight_one(self):
        # one neuron with bias 0 centred at the interior point: its Laplacian
        # is zero there, as is the constant's, so the interior row is zero
        b = bas.BasisSet(weights=np.array([[0.9, -0.3]]), biases=np.array([0.0]),
                         center=np.array([0.3, 0.1]))
        problem = pde.SemilinearProblem(region=box2(),
                                        forcing=lambda p: np.full(len(np.atleast_2d(p)), 1.75),
                                        boundary=lambda p: np.zeros(len(np.atleast_2d(p))))
        colloc = geo.CollocationSets.initial(b.center[None], np.array([[1.0, 0.0]]))
        blocks = assemble(geo.PartitionState(box2()), [b], colloc, problem)
        assert blocks.matrix[0].tolist() == [0.0, 0.0]
        assert blocks.rhs[0] == 1.75
        report = lsq.solve_min_norm(blocks)
        assert np.all(np.isfinite(report.alphas[0]))
        # the zero row's residual, 1.75 at weight 1, and the boundary row's
        # rounding
        assert report.loss == pytest.approx(1.75 ** 2, rel=1e-12)


def system_bytes(system):
    """The bytes of every array of an assembled system, a kept ball's
    elimination or a ``SubdomainRows``: a block's rows (not its spare rows),
    right-hand side, row kinds and coupling, and its balls' in turn."""
    if isinstance(system, lsq.SystemBlocks):
        arrays = [system.matrix, system.rhs, system.row_kind, system.coupling]
        return [a.tobytes() for a in arrays if a is not None] + \
            [b for ball in system.balls for b in system_bytes(ball)]
    if isinstance(system, lsq.SubdomainRows):
        system = system._replace(matrix=system.matrix[:len(system.row_kind)])
    arrays = [a for a in system if a is not None]
    return [b.tobytes() for a in arrays for b in (a if isinstance(a, tuple) else (a,))]


class TestRowsAssembledAgain:
    """Assembly writes into no array of its rows, so rows assembled again, by
    any entry point, give what their first assembly gave and are left as
    they were made."""

    def test_subdomain_0s_rows(self):
        # when the first assembly scaled the rows in place, a second one gave
        # another system, whose gelsd solution differed from the first's by up
        # to 373 (largest coefficient 64)
        problem = pde.benchmark("peak2d-case1")
        cfg = ada.AdaptiveConfig(interior_resolution=20, boundary_count=80, m0=40)
        colloc = ada.initial_collocation(problem, cfg)
        rows = lsq.coupled_rows(problem, ada._base_basis(problem, cfg),
                                colloc.interior[0], colloc.boundary[0], [])
        made = system_bytes(rows[0])
        first = lsq.assemble(problem, rows)
        system = system_bytes(first)
        alphas = lsq.solve_min_norm(first).alphas[0].tobytes()
        second = lsq.assemble(problem, rows)
        assert system_bytes(second) == system
        assert lsq.solve_min_norm(second).alphas[0].tobytes() == alphas
        assert system_bytes(rows[0]) == made

    def test_a_balls_rows(self):
        part, bases, colloc = one_ball_setup()
        problem = manufactured_linear(bases[0], np.linspace(-1.0, 1.0, bases[0].size))
        alpha_0 = np.linspace(-0.5, 0.5, bases[0].size)

        def coupled(rows):
            return lsq.assemble(problem, lsq.coupled_rows(
                problem, bases[0], colloc.interior[0], colloc.boundary[0], [rows]))
        makers = {"assemble_local": partial(lsq.assemble_local, problem, alpha_0=alpha_0),
                  "keep_ball": partial(lsq.keep_ball, problem), "coupled": coupled}
        made = system_bytes(fresh_ball_rows(part, bases, colloc, problem)[0])
        once = {name: system_bytes(make(fresh_ball_rows(part, bases, colloc, problem)[0]))
                for name, make in makers.items()}
        for first in makers.values():
            for name, second in makers.items():
                (rows,) = fresh_ball_rows(part, bases, colloc, problem)
                first(rows)
                assert system_bytes(second(rows)) == once[name], name
                assert system_bytes(rows) == made


class TestBlockSolve:
    """The block elimination against gelsd on the zero-padded dense system."""

    def system(self, bases=None):
        part, default_bases, colloc = two_ball_setup(m0=10, mstar=10)
        bases = bases or default_bases
        problem = nonzero_nonlinear_problem()
        rng = np.random.default_rng(7)
        alphas = [0.1 * rng.standard_normal(b.size) for b in bases]
        return assemble(part, bases, colloc, problem, alphas=alphas)

    def test_full_rank_matches_dense_lstsq(self):
        blocks = self.system()
        F, T = dense(blocks)
        assert np.linalg.matrix_rank(F) == F.shape[1]
        ref, _, _, _ = np.linalg.lstsq(F, T, rcond=lsq.DEFAULT_SVD_CUTOFF)
        sol = lsq.solve_min_norm(blocks)
        alpha = all_coefficients(sol)
        assert np.linalg.norm(alpha - ref) <= 1e-10 * np.linalg.norm(ref)
        assert sum(sol.block_ranks) == F.shape[1]
        res = F @ alpha - T
        assert sol.loss == pytest.approx(res @ res, rel=1e-12, abs=0)

    def test_conditioning_per_block(self):
        blocks = self.system()
        sol = lsq.solve_min_norm(blocks)
        assert len(sol.block_ranks) == len(sol.block_sigmas) == 3
        for ball, rank, sigmas in zip(blocks.balls, sol.block_ranks[1:],
                                      sol.block_sigmas[1:]):
            s = np.linalg.svd(ball.matrix, compute_uv=False)
            kept = s[s > lsq.DEFAULT_SVD_CUTOFF * s[0]]
            assert rank == len(kept)
            np.testing.assert_allclose(sigmas, [kept[0], kept[-1]], rtol=1e-12)
        assert sol.alpha_norms == [float(np.linalg.norm(a)) for a in sol.alphas]

    def test_no_ball_system_is_one_gelsd_call(self):
        region = box2()
        b = bas.generate_transferable(25, 2.0, 2, seed=5)
        problem = manufactured_linear(b, np.linspace(-1.0, 1.0, b.size))
        blocks = assemble(geo.PartitionState(region), [b], standard_colloc(region),
                          problem)
        assert blocks.balls == []
        ref, _, rank, _ = np.linalg.lstsq(blocks.matrix, blocks.rhs,
                                          rcond=lsq.DEFAULT_SVD_CUTOFF)
        sol = lsq.solve_min_norm(blocks)
        assert sol.alphas[0].tobytes() == ref.tobytes()
        assert sum(sol.block_ranks) == rank
        # with no ball the stacked rows are the system's own
        res = blocks.matrix @ ref - blocks.rhs
        assert sol.loss == float(res @ res)

    def test_rank_deficient_ball_block_keeps_the_residual(self):
        _, bases, _ = two_ball_setup(m0=10, mstar=10)
        b = bases[1]   # every neuron twice: the first ball's block loses rank
        bases[1] = replace(b, weights=np.vstack([b.weights, b.weights]),
                           biases=np.concatenate([b.biases, b.biases]))
        blocks = self.system(bases)
        assert np.linalg.matrix_rank(blocks.balls[0].matrix) < bases[1].size
        F, T = dense(blocks)
        ref, _, _, _ = np.linalg.lstsq(F, T, rcond=lsq.DEFAULT_SVD_CUTOFF)
        ref_loss = float((F @ ref - T) @ (F @ ref - T))
        sol = lsq.solve_min_norm(blocks)
        res = F @ all_coefficients(sol) - T
        assert sol.loss == pytest.approx(res @ res, rel=1e-12, abs=0)
        assert sol.loss <= ref_loss * (1.0 + 1e-12)


class TestSingleBallSolve:
    """A single-ball system is solved by gelsd, on the R factor of [F | T]
    when F has fewer than 1.6 rows per column: ball 1 of ``two_ball_setup``
    has 168 rows, so 11 columns (m* = 10) take gelsd as it is and 121 columns
    (m* = 120, at scale 8, where the block is better conditioned than at 2)
    the R factor."""

    def system(self, mstar=10, scale=2, doubled=False):
        part, bases, colloc = two_ball_setup(m0=10, mstar=mstar)
        basis = replace(bases[1], scale=scale)
        if doubled:    # every neuron twice: the block loses rank
            basis = replace(basis, weights=np.vstack([basis.weights, basis.weights]),
                            biases=np.concatenate([basis.biases, basis.biases]))
        problem = nonzero_nonlinear_problem()
        rows = lsq.ball_rows(problem, part.ball(1), basis, bases[0],
                             colloc.interior[1], colloc.boundary[1],
                             colloc.interface[1])
        rng = np.random.default_rng(7)
        return lsq.assemble_local(problem, rows, 0.1 * rng.standard_normal(bases[0].size),
                                  alphas=[0.1 * rng.standard_normal(basis.size)])

    def test_path_is_chosen_by_shape(self, monkeypatch):
        factored = []
        real_qr = np.linalg.qr

        def qr(a, *args, **kwargs):
            factored.append(a.shape)
            return real_qr(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "qr", qr)
        for mstar, scale, reduced in ((10, 2, False), (100, 2, False), (120, 8, True)):
            blocks = self.system(mstar, scale)
            m, n = blocks.matrix.shape
            assert (n < m < 1.6 * n) == reduced
            factored.clear()
            lsq.solve_min_norm(blocks)
            assert factored == ([(m, n + 1)] if reduced else [])

    def test_full_rank_matches_gelsd(self):
        for mstar, scale in ((10, 2), (120, 8)):
            blocks = self.system(mstar, scale)
            A, T = blocks.matrix, blocks.rhs
            assert blocks.coupling is not None and blocks.balls == []
            assert np.linalg.matrix_rank(A) == A.shape[1]
            ref, _, _, s = np.linalg.lstsq(A, T, rcond=lsq.DEFAULT_SVD_CUTOFF)
            sol = lsq.solve_min_norm(blocks)
            assert np.linalg.norm(sol.alphas[0] - ref) <= 1e-10 * np.linalg.norm(ref)
            ref_loss = float((A @ ref - T) @ (A @ ref - T))
            assert sol.loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
            # the loss comes from the system's own rows, not from R
            res = A @ sol.alphas[0] - T
            assert sol.loss == float(res @ res)
            assert sol.block_ranks == [A.shape[1]]
            np.testing.assert_allclose(sol.block_sigmas[0], [s[0], s[-1]], rtol=1e-10)

    def test_rank_deficient_keeps_rank_and_loss(self):
        for mstar in (10, 60):     # 168 rows on 21 and on 121 columns
            blocks = self.system(mstar, doubled=True)
            A, T = blocks.matrix, blocks.rhs
            ref, _, rank, _ = np.linalg.lstsq(A, T, rcond=lsq.DEFAULT_SVD_CUTOFF)
            assert rank < A.shape[1]
            ref_loss = float((A @ ref - T) @ (A @ ref - T))
            sol = lsq.solve_min_norm(blocks)
            assert sum(sol.block_ranks) == rank
            assert sol.loss <= ref_loss * (1.0 + 1e-10)


class TestResidualBound:
    """``lsq.residual_bound``: R[n,n]^2 of the QR of a block's [F | T], the
    least-squares minimum of |F x - T|^2, so no solve's loss lies below it;
    and whether R's diagonal proves that the solve truncates the block."""

    def test_full_rank_block_gives_the_minimum(self, rng):
        F = rng.standard_normal((30, 8)) + np.eye(30, 8) * 2.0
        T = rng.standard_normal(30)
        x = np.linalg.solve(F.T @ F, F.T @ T)
        assert lsq.residual_bound(blocks_from(F, T)) == \
            (pytest.approx(float((F @ x - T) @ (F @ x - T)), rel=1e-12, abs=0), False)
        # a scale candidate's single-ball system, through the R path of
        # ``solve_min_norm`` (168 rows on 121 columns) and not (on 11)
        for mstar, scale in ((10, 2), (120, 8)):
            blocks = TestSingleBallSolve().system(mstar, scale)
            A, T = blocks.matrix, blocks.rhs
            assert np.linalg.matrix_rank(A) == A.shape[1]
            x, *_ = np.linalg.lstsq(A, T, rcond=None)
            assert lsq.residual_bound(blocks)[0] == \
                pytest.approx(float((A @ x - T) @ (A @ x - T)), rel=1e-9, abs=0)

    def test_rank_deficient_block_bounds_the_loss(self, rng):
        left, right = rng.standard_normal((12, 2)), rng.standard_normal((2, 6))
        systems = [blocks_from(left @ right, rng.standard_normal(12))]
        systems += [TestSingleBallSolve().system(mstar, doubled=True)
                    for mstar in (10, 60)]
        for blocks in systems:
            assert np.linalg.matrix_rank(blocks.matrix) < blocks.size
            bound, deficient = lsq.residual_bound(blocks)
            assert 0.0 < bound <= lsq.solve_min_norm(blocks).loss
            assert deficient

    def test_no_more_rows_than_columns_gives_zero(self, rng):
        for rows in (5, 8):
            blocks = blocks_from(rng.standard_normal((rows, 8)), rng.standard_normal(rows))
            # fewer rows than columns: the rank is below n; as many, unproven
            assert lsq.residual_bound(blocks) == (0.0, rows < 8)
            assert lsq.solve_min_norm(blocks).loss < 1e-20

    def test_a_proven_deficiency_is_one_the_solve_truncates(self, rng):
        # random blocks of every rank, some near the cutoff, and scale
        # candidates' blocks with every neuron twice
        systems = []
        for rank in range(1, 9):
            for gap in (0.0, 1e-14, 1e-11, 1e-8):
                left, right = rng.standard_normal((20, rank)), rng.standard_normal((rank, 8))
                F = left @ right + gap * rng.standard_normal((20, 8))
                systems.append(blocks_from(F, rng.standard_normal(20)))
        systems += [TestSingleBallSolve().system(mstar, doubled=doubled)
                    for mstar in (10, 60) for doubled in (False, True)]
        flags = []
        for blocks in systems:
            _, deficient = lsq.residual_bound(blocks)
            s = np.linalg.svd(blocks.matrix, compute_uv=False)
            if deficient:
                assert s[-1] <= lsq.DEFAULT_SVD_CUTOFF * s[0]
                assert lsq.solve_min_norm(blocks).block_ranks[0] < blocks.size
            flags.append(deficient)
        assert any(flags) and not all(flags)

    def test_a_truncated_block_need_not_be_proven_deficient(self):
        # Kahan's triangular matrix: its diagonal ratio is 2e-4, its
        # singular value ratio 2e-15, so the flag proves nothing and the
        # solve truncates it all the same
        n, c = 60, 0.5
        sine = np.sqrt(1.0 - c * c)
        K = np.diag(sine ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        F = np.vstack([K, np.zeros((1, n))])
        _, deficient = lsq.residual_bound(blocks_from(F, np.ones(n + 1)))
        s = np.linalg.svd(F, compute_uv=False)
        assert not deficient and s[-1] <= lsq.DEFAULT_SVD_CUTOFF * s[0]

    def test_non_finite_rejected(self):
        with pytest.raises(lsq.AssemblyError):
            lsq.residual_bound(blocks_from([[np.nan], [1.0]], [0.0, 1.0]))

    def test_a_full_rank_elimination_gives_the_bound_as_the_loss(self):
        # ``_Eliminated.full_rank``: the elimination's SVD kept every
        # singular value of a block with more rows than columns, so gelsd
        # keeps every column too and its loss is the bound. 168 rows on 11
        # and 121 columns, on 21 and 121 with every neuron twice, and on 201
        for mstar, scale, doubled in ((10, 2, False), (120, 8, False), (10, 2, True),
                                      (60, 2, True), (200, 2, False)):
            blocks = TestSingleBallSolve().system(mstar, scale, doubled)
            full_rank = lsq._eliminate(blocks).full_rank
            assert full_rank == (not doubled and mstar < 168), mstar
            solved = lsq.solve_min_norm(blocks)
            assert (solved.block_ranks == [blocks.size]) == full_rank, mstar
            if full_rank:
                assert lsq.residual_bound(blocks) == (
                    pytest.approx(solved.loss, rel=1e-9, abs=0), False)


def blocks_from(F, T):
    F = np.asarray(F, dtype=float)
    T = np.asarray(T, dtype=float)
    return lsq.SystemBlocks(stacked=F, rhs=T,
                            row_kind=np.zeros(F.shape[0], dtype=np.int8))


class TestSolveMinNorm:
    def test_identity(self):
        sol = lsq.solve_min_norm(blocks_from(np.eye(3), [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(sol.alphas[0], [1, 2, 3], atol=1e-14)
        assert sol.loss == pytest.approx(0.0, abs=1e-28)
        assert sum(sol.block_ranks) == 3

    def test_overdetermined_single_column(self):
        # d/da [(a-1)^2 + a^2] = 0 at a = 1/2, squared residual 1/2
        sol = lsq.solve_min_norm(blocks_from([[1.0], [1.0]], [1.0, 0.0]))
        assert sol.alphas[0][0] == pytest.approx(0.5, abs=1e-14)
        assert sol.loss == pytest.approx(0.5, abs=1e-14)

    def test_rank_deficient_minimum_norm(self):
        # among alpha1 + alpha2 = 2 the minimum-norm solution is (1, 1)
        sol = lsq.solve_min_norm(blocks_from([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]))
        np.testing.assert_allclose(sol.alphas[0], [1.0, 1.0], atol=1e-12)
        assert sum(sol.block_ranks) == 1

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
            np.testing.assert_allclose(sol.alphas[0], brute, atol=1e-8, rtol=1e-8)

    def test_normal_equation_stationarity(self, rng):
        F = rng.standard_normal((30, 8)) + np.eye(30, 8) * 2.0
        T = rng.standard_normal(30)
        sol = lsq.solve_min_norm(blocks_from(F, T))
        grad = F.T @ (F @ sol.alphas[0] - T)
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
            (alpha,) = sol.alphas
            assert np.max(np.abs(null @ alpha)) <= 1e-10
            for v in null:
                assert np.linalg.norm(alpha + 0.1 * v) >= np.linalg.norm(alpha)

    def test_residual_breakdown_by_kind(self):
        # the loss, read from the stacked rows, is the squared residual of
        # every row of every kind at the solution
        part, bases, colloc = one_ball_setup()
        b = bas.generate_transferable(30, 2.0, 2, seed=12)
        problem = manufactured_linear(b, np.linspace(-1, 1, 31))
        blocks = assemble(part, bases, colloc, problem)
        sol = lsq.solve_min_norm(blocks)
        F, T = dense(blocks)
        res = F @ all_coefficients(sol) - T
        kinds = np.concatenate([b.row_kind for b in [blocks] + blocks.balls])
        parts = [res[kinds == kind] for kind in range(len(lsq.ROW_KIND_NAMES))]
        assert all(len(part) for part in parts)
        assert sum(part @ part for part in parts) == \
            pytest.approx(sol.loss, rel=1e-10, abs=0)
        # subdomain 0 holds no interface rows, a ball inside the domain no
        # boundary rows
        assert sorted(np.unique(blocks.row_kind)) == [lsq.ROW_INTERIOR, lsq.ROW_BOUNDARY]
        assert sorted(np.unique(blocks.balls[0].row_kind)) == \
            [lsq.ROW_INTERIOR, lsq.ROW_IFACE_VALUE, lsq.ROW_IFACE_NORMAL]


class TestInSpanRecovery:
    def test_linear_solve_recovers_coefficients(self, rng):
        region = box2()
        b = bas.generate_transferable(50, 2.0, 2, seed=77)
        coeffs = rng.standard_normal(b.size)
        problem = manufactured_linear(b, coeffs)
        colloc = standard_colloc(region, resolution=30, boundary=120)
        part = geo.PartitionState(region)
        blocks = assemble(part, [b], colloc, problem)
        sol = lsq.solve_min_norm(blocks)
        rel = np.linalg.norm(sol.alphas[0] - coeffs) / np.linalg.norm(coeffs)
        assert rel <= 1e-6


def solve_with(part, bases, colloc, problem, kept, n_max=50, tol=1e-5):
    """``lsq.gauss_newton`` with the given kept balls."""
    return lsq.gauss_newton(problem, bases[0], colloc.interior[0], colloc.boundary[0],
                            kept, n_max, tol)


class TestGaussNewton:
    def test_linear_problem_single_effective_iteration(self, monkeypatch):
        region = box2()
        b = bas.generate_transferable(25, 2.0, 2, seed=5)
        problem = manufactured_linear(b, np.ones(26))
        colloc = standard_colloc(region)
        part = geo.PartitionState(region)
        direct = lsq.solve_min_norm(assemble(part, [b], colloc, problem))
        calls = []

        def counted(name):
            real = getattr(lsq, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("coupled_rows", "assemble", "solve_min_norm"):
            monkeypatch.setattr(lsq, name, counted(name))
        report = fresh_solve(part, [b], colloc, problem)
        assert calls == ["coupled_rows", "assemble", "solve_min_norm"]
        assert report.iterations == [(0, direct.loss, None)]
        assert report.converged
        assert report.alphas[0].tobytes() == direct.alphas[0].tobytes()

    def count_eliminations(self, monkeypatch):
        calls = []
        real = lsq._eliminate

        def counted(ball):
            calls.append(ball)
            return real(ball)
        monkeypatch.setattr(lsq, "_eliminate", counted)
        return calls

    def test_linear_kept_balls_are_eliminated_once(self, monkeypatch):
        part, bases, colloc = two_ball_setup()
        problem = manufactured_linear(bases[0], np.linspace(-1.0, 1.0, bases[0].size))
        fresh = lsq.solve_min_norm(assemble(part, bases, colloc, problem))
        calls = self.count_eliminations(monkeypatch)
        kept = [lsq.keep_ball(problem, rows)
                for rows in fresh_ball_rows(part, bases, colloc, problem)]
        assert len(calls) == 2
        first = solve_with(part, bases, colloc, problem, kept)
        again = solve_with(part, bases, colloc, problem, kept)
        assert len(calls) == 2
        assert all_coefficients(first).tobytes() == all_coefficients(fresh).tobytes()
        assert all_coefficients(again).tobytes() == all_coefficients(fresh).tobytes()

    def test_kept_linear_balls_report_what_fresh_rows_report(self):
        part, bases, colloc = two_ball_setup()
        problem = manufactured_linear(bases[0], np.linspace(-1.0, 1.0, bases[0].size))
        fresh = lsq.solve_min_norm(assemble(part, bases, colloc, problem))
        kept = [lsq.keep_ball(problem, rows)
                for rows in fresh_ball_rows(part, bases, colloc, problem)]
        report = solve_with(part, bases, colloc, problem, kept)
        assert all_coefficients(report).tobytes() == all_coefficients(fresh).tobytes()
        assert report.loss == fresh.loss

    def test_nonlinear_kept_balls_are_eliminated_every_step(self, monkeypatch):
        part, bases, colloc = two_ball_setup()
        problem = nonzero_nonlinear_problem()
        rows = fresh_rows(part, bases, colloc, problem)
        fresh = lsq.gauss_newton_core(
            lambda alphas: lsq.assemble(problem, rows, alphas=alphas), False, 4, 1e-5)
        kept = [lsq.keep_ball(problem, r) for r in rows[1:]]
        # a nonlinear ball is kept as its rows, which every step re-linearizes
        assert all(ball is r for ball, r in zip(kept, rows[1:]))
        calls = self.count_eliminations(monkeypatch)
        report = solve_with(part, bases, colloc, problem, kept, n_max=4)
        assert len(report.iterations) > 1
        assert len(calls) == 2 * len(report.iterations)
        assert all_coefficients(report).tobytes() == all_coefficients(fresh).tobytes()

    def test_kept_ball_is_immutable(self):
        part, bases, colloc = one_ball_setup()
        for problem in (zero_problem(), zero_problem(nonlinear=True)):
            (rows,) = fresh_ball_rows(part, bases, colloc, problem)
            ball = lsq.keep_ball(problem, rows)
            # a linear ball's elimination, a nonlinear ball's rows
            name = "vt" if problem.is_linear else "matrix"
            with pytest.raises(AttributeError):
                setattr(ball, name, None)
            assert getattr(ball, name) is not None

    def test_subdomain_0_points_and_boundary_count_are_checked(self):
        empty = np.empty((0, 2))

        def solve(setup, interior=None, boundary=None):
            part, bases, colloc = setup
            kept = [lsq.keep_ball(zero_problem(), rows)
                    for rows in fresh_ball_rows(part, bases, colloc, zero_problem())]
            return lsq.gauss_newton(
                zero_problem(), bases[0],
                colloc.interior[0] if interior is None else interior,
                colloc.boundary[0] if boundary is None else boundary, kept, 50, 1e-5)

        with pytest.raises(lsq.AssemblyError, match="subdomain 0"):
            solve(one_ball_setup(), interior=empty)
        with pytest.raises(lsq.AssemblyError, match="no boundary"):
            solve(one_ball_setup(), boundary=empty)
        # the second ball owns boundary points, which are enough
        assert len(two_ball_setup()[2].boundary[2]) > 0
        solve(two_ball_setup(), boundary=empty)

    def test_loss_is_the_residual_at_the_returned_coefficients(self):
        part, bases, colloc = two_ball_setup()
        problem = nonzero_nonlinear_problem()
        report = fresh_solve(part, bases, colloc, problem, n_max=3)
        blocks = assemble(part, bases, colloc, problem, alphas=report.alphas)
        all_blocks = [blocks] + blocks.balls
        assert report.loss == float(sum(b.rhs @ b.rhs for b in all_blocks))

    def test_every_step_reports_the_residual_after_it(self):
        part, bases, colloc = two_ball_setup()
        problem = nonzero_nonlinear_problem()
        rows = fresh_rows(part, bases, colloc, problem)
        at = []

        def assembler(alphas):
            at.append(None if alphas is None else [a.copy() for a in alphas])
            return lsq.assemble(problem, rows, alphas=alphas)

        report = lsq.gauss_newton_core(assembler, False, 4, 1e-5)
        assert len(report.iterations) > 1
        # one assembly at zero coefficients, then one after every step
        assert at[0] is None and len(at) == len(report.iterations) + 1
        assert np.concatenate(at[-1]).tobytes() == all_coefficients(report).tobytes()
        for (n, loss, _), alphas in zip(report.iterations, at[1:]):
            blocks = assemble(part, bases, colloc, problem, alphas=alphas)
            assert loss == float(sum(b.rhs @ b.rhs for b in [blocks] + blocks.balls)), n
        assert report.loss == report.iterations[-1][1]

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
        report = fresh_solve(part, [b], colloc, problem, n_max=10, tol=1e-5)
        assert report.converged
        # loss is ~0 from the second solve on; the relative-change criterion
        # needs one more pass (on an exact zero) to declare convergence
        assert report.iterations[1][1] <= 1e-20
        assert len(report.iterations) <= 4
        assert report.alphas[0][0] == pytest.approx(1.0, abs=1e-12)
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

    def test_a_step_no_halving_lowers_ends_unconverged(self):
        # a fabricated assembler whose residual grows at every assembly,
        # wherever it is linearized
        at = []

        def assembler(alphas):
            at.append(alphas)
            scale = 10.0 ** (3 * len(at))
            return blocks_from([[1.0], [-1.0]], [scale, scale])

        report = lsq.gauss_newton_core(assembler, is_linear=False, n_max=50, tol=1e-12)
        assert not report.converged
        # the zero coefficients, then t delta for t = 1, 1/2, ..., 2^-MAX_HALVINGS
        assert at[0] is None and len(at) == 2 + lsq.MAX_HALVINGS
        delta = at[1][0][0]
        assert [a[0][0] for a in at[1:]] == \
            [delta * 0.5 ** h for h in range(1 + lsq.MAX_HALVINGS)]
        assert report.alphas[0].tolist() == [0.0]
        # one entry, at the unchanged coefficients, with the full step's rise
        ((n, loss, rise),) = report.iterations
        assert (n, loss) == (0, 2e6) and report.loss == loss
        assert rise == pytest.approx((2e12 - 2e6) / 2e6)

    @staticmethod
    def quadratic_assembler(residual, at):
        """A one-coefficient system F = [[1]] whose right-hand side at
        coefficient a is ``residual(a)``: its full step from a is
        ``residual(a)``. Records the coefficient of every assembly."""
        def assembler(alphas):
            a = 0.0 if alphas is None else float(alphas[0][0])
            at.append(a)
            return blocks_from([[1.0]], [residual(a)])
        return assembler

    def test_a_full_step_that_raises_the_loss_is_halved(self):
        # T(a) = 2a^2 - 3.5a + 2: |T|^2 is 4 at 0, 9 at the full step's 2 and
        # 0.25 at the half step's 1
        at = []
        assembler = self.quadratic_assembler(lambda a: 2 * a * a - 3.5 * a + 2, at)
        report = lsq.gauss_newton_core(assembler, is_linear=False, n_max=1, tol=1e-5)
        assert at == [0.0, 2.0, 1.0]
        assert report.alphas[0].tolist() == [1.0]
        assert report.iterations == [(0, 0.25, None)]
        assert report.loss == 0.25
        assert not report.converged          # n_max used up

    def test_a_rounding_level_rise_ends_converged_at_the_current_coefficients(self):
        # the full step from 0 to 1 raises |T|^2 by about 2e-8 relative
        at = []
        assembler = self.quadratic_assembler(lambda a: 1.0 + 1e-8 * a, at)
        report = lsq.gauss_newton_core(assembler, is_linear=False, n_max=50, tol=1e-5)
        assert at == [0.0, 1.0]              # no halving
        assert report.converged
        assert report.alphas[0].tolist() == [0.0]
        ((n, loss, rise),) = report.iterations
        assert (n, loss) == (0, 1.0) and report.loss == 1.0
        assert rise == pytest.approx(2e-8, rel=1e-6)

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
        report = fresh_solve(part, [b], colloc, problem, n_max=8)
        rel = np.linalg.norm(report.alphas[0] - coeffs) / np.linalg.norm(coeffs)
        assert rel <= 1e-6
        assert report.loss <= 1e-20



def held_bytes(array):
    """The bytes ``array`` keeps alive: of the array it is a view of, if any."""
    while array.base is not None:
        array = array.base
    return array.nbytes


class TestKeptLinearBall:
    """A linear ball is kept as its elimination alone: its rows are released
    once factored, and no coupled solve reads them."""

    def setup_method(self):
        # subdomain 0 has fewer columns than a ball, so no kept array of the
        # ball's row count has the rows' shape by accident
        self.part, self.bases, self.colloc = two_ball_setup(m0=10, mstar=50)
        self.problem = manufactured_linear(self.bases[0],
                                           np.linspace(-1.0, 1.0, self.bases[0].size))
        self.rows = fresh_ball_rows(self.part, self.bases, self.colloc, self.problem)

    def test_holds_no_array_of_the_rows_shape(self):
        for rows in self.rows:
            ball = lsq.keep_ball(self.problem, rows)
            assert isinstance(ball, lsq._Eliminated)
            assert ball.size == rows.size
            assert np.count_nonzero(ball.row_kind == lsq.ROW_BOUNDARY) == len(rows.data)
            arrays = list(ball)
            assert len(rows.row_kind) > rows.size
            assert all(a.shape != rows.matrix.shape for a in arrays)
            assert not any(np.shares_memory(a, rows.matrix) for a in arrays)
            assert sum(held_bytes(a) for a in arrays) < rows.matrix.nbytes

    def test_a_coupled_solve_never_reads_the_rows(self, monkeypatch):
        kept = [lsq.keep_ball(self.problem, rows) for rows in self.rows]
        reference = solve_with(self.part, self.bases, self.colloc, self.problem, kept)
        for rows in self.rows:         # every array the rows hold, spoilt
            for array in (rows.matrix, rows.forcing, rows.data, *rows.trace):
                array.fill(np.nan)
        systems = []
        real = lsq.solve_min_norm

        def solve_min_norm(blocks):
            systems.append(blocks)
            return real(blocks)
        monkeypatch.setattr(lsq, "solve_min_norm", solve_min_norm)
        report = solve_with(self.part, self.bases, self.colloc, self.problem, kept)
        assert all_coefficients(report).tobytes() == all_coefficients(reference).tobytes()
        assert report.loss == reference.loss
        (system,) = systems
        assert len(system.balls) == 2
        # the block is the kept elimination itself
        assert all(block is ball for block, ball in zip(system.balls, kept))

    def test_is_assembled_at_zero_coefficients_only(self):
        kept = [lsq.keep_ball(self.problem, rows) for rows in self.rows]
        rows = lsq.coupled_rows(self.problem, self.bases[0], self.colloc.interior[0],
                                self.colloc.boundary[0], kept)
        sizes = [b.size for b in self.bases]
        assert lsq.assemble(self.problem, rows, alphas=[np.zeros(n) for n in sizes]).balls
        for j, n in enumerate(sizes):
            for k in range(n):
                alphas = [np.zeros(m) for m in sizes]
                alphas[j][k] = 1.0
                with pytest.raises(lsq.AssemblyError, match="zero coefficients"):
                    lsq.assemble(self.problem, rows, alphas=alphas)

    def test_holds_no_array_of_the_blocks_row_count(self):
        n0 = self.bases[0].size
        for rows in self.rows:
            ball = lsq.keep_ball(self.problem, rows)
            assert len(rows.row_kind) > max(ball.size, n0 + 1)
            assert all(len(a) <= max(ball.size, n0 + 1) for a in ball)
            assert ball.coupling.shape == (n0 + 1, n0) and ball.rhs.shape == (n0 + 1,)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_are_refused_when_kept(self):
        rows = self.rows[0]
        rows.matrix[len(rows.forcing), 1] = np.inf     # a boundary row
        with pytest.raises(lsq.AssemblyError, match="non-finite"):
            lsq.keep_ball(self.problem, rows)


def one_ball_setup_3d(m0=60, mstar=150, scale=3):
    """peak3d with one ball at its peak, on small collocation sets."""
    problem = pde.benchmark("peak3d")
    center = np.array([0.5, 0.5, 0.5])
    part = geo.split_subdomain(geo.PartitionState(problem.region), center, 0.25)
    domain = ada.initial_collocation(problem, ada.AdaptiveConfig(interior_resolution=10,
                                                                 boundary_count=384))
    colloc = geo.reclassify_collocation(part, domain.interior[0], domain.boundary[0],
                                        ball_resolution=10, interface_count=150)
    bases = [bas.generate_transferable(m0, 2.0, 3, seed=3, stream=0),
             bas.rescale(bas.generate_transferable(mstar, 2.0, 3, seed=3, stream=1),
                         center, scale)]
    return problem, part, bases, colloc


class TestEliminationThroughQR:
    """``lsq._eliminate`` takes the QR of a ball's [A | C | T] and the SVD of
    its triangular factor alone, and solves as the SVD of the block did
    (``conftest.svd_solve``)."""

    def test_no_svd_runs_on_the_block(self, monkeypatch):
        problem, part, bases, colloc = one_ball_setup_3d()
        (rows,) = fresh_ball_rows(part, bases, colloc, problem)
        factored = []
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            factored.append(a.shape)
            return real_svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", svd)
        lsq.keep_ball(problem, rows)
        n = rows.size
        assert len(rows.row_kind) > n
        assert factored == [(n, n)]

    def test_a_3d_ball(self):
        problem, part, bases, colloc = one_ball_setup_3d()
        blocks = assemble(part, bases, colloc, problem)
        (ball,) = blocks.balls
        assert len(ball.rhs) > ball.size + bases[0].size + 1
        # the reduced rows are an R factor of the projected ones of the SVD,
        # so their Gram matrices agree
        eliminated = lsq._eliminate(ball)
        reduced = np.column_stack([eliminated.coupling, eliminated.rhs])
        projected = np.column_stack(svd_eliminate(ball)[:2])
        np.testing.assert_allclose(reduced.T @ reduced, projected.T @ projected, rtol=0,
                                   atol=1e-10 * np.linalg.norm(projected) ** 2)
        kept = [lsq.keep_ball(problem, rows)
                for rows in fresh_ball_rows(part, bases, colloc, problem)]
        assert_solves_as_svd_solve(solve_with(part, bases, colloc, problem, kept), blocks)
        assert_solves_as_svd_solve(lsq.solve_min_norm(blocks), blocks)

    def test_an_underdetermined_ball_block(self):
        # 168 ball rows on 201 columns, fewer than subdomain 0's 201 + 1:
        # the reduced rows are padded with zero rows. The solution is drawn
        # from another basis, so the loss lies far above rounding
        part, bases, colloc = two_ball_setup(m0=200, mstar=200)
        b = bas.generate_transferable(30, 2.0, 2, seed=12)
        problem = manufactured_linear(b, np.linspace(-1.0, 1.0, b.size))
        blocks = assemble(part, bases, colloc, problem)
        ball = blocks.balls[0]
        assert len(ball.rhs) <= ball.size and len(ball.rhs) < bases[0].size + 1
        eliminated = lsq._eliminate(ball)
        assert eliminated.coupling.shape == (bases[0].size + 1, bases[0].size)
        assert not np.any(eliminated.coupling[len(ball.rhs):])
        assert not eliminated.full_rank
        kept = [lsq.keep_ball(problem, rows)
                for rows in fresh_ball_rows(part, bases, colloc, problem)]
        report = solve_with(part, bases, colloc, problem, kept)
        assert all(np.all(np.isfinite(alpha)) for alpha in report.alphas)
        assert report.block_ranks[1] <= len(ball.rhs)
        F, T = dense(blocks)
        ref, _, _, _ = np.linalg.lstsq(F, T, rcond=lsq.DEFAULT_SVD_CUTOFF)
        res = F @ all_coefficients(report) - T
        assert report.loss == pytest.approx(res @ res, rel=1e-10, abs=0)
        assert report.loss <= (F @ ref - T) @ (F @ ref - T) * (1.0 + 1e-8)


def concatenated_solve(blocks):
    """``lsq.solve_min_norm`` of a coupled system on plain gelsd, with the
    balls' reduced couplings stacked below subdomain 0's rows by
    ``np.concatenate``, into a second copy of them: the reference for the
    solve of the one stacked array. Returns alpha and the loss of the
    concatenated rows at it."""
    eliminated = [lsq._eliminate(ball) if isinstance(ball, lsq.SystemBlocks) else ball
                  for ball in blocks.balls]
    F0 = np.concatenate([blocks.matrix] + [e.coupling for e in eliminated])
    T0 = np.concatenate([blocks.rhs] + [e.rhs for e in eliminated])
    m, n = F0.shape
    assert m >= int(1.6 * n)        # no R factor first
    alpha_0, _, _, _ = np.linalg.lstsq(F0, T0, rcond=lsq.DEFAULT_SVD_CUTOFF)
    res = F0 @ alpha_0 - T0
    return (np.concatenate([alpha_0] + [e.back_substitute(alpha_0) for e in eliminated]),
            float(res @ res))


class TestStackedSystem:
    """A coupled solve writes each ball's reduced coupling, n0 + 1 rows for
    subdomain 0's n0 columns, into the spare rows below subdomain 0's, in
    the array that holds subdomain 0's block, and gelsd takes that array:
    subdomain 0's rows are never copied."""

    def solve(self, monkeypatch, part, bases, colloc, problem):
        """Every system the coupled solve of ``problem`` passes to
        ``solve_min_norm``, its report, and the matrix gelsd received."""
        kept = [lsq.keep_ball(problem, rows)
                for rows in fresh_ball_rows(part, bases, colloc, problem)]
        systems, received = [], []
        real_solve, real_lstsq = lsq.solve_min_norm, np.linalg.lstsq

        def solve_min_norm(blocks):
            systems.append((blocks, real_solve(blocks)))
            return systems[-1][1]

        def lstsq(a, *args, **kwargs):
            received.append(a)
            return real_lstsq(a, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(lsq, "solve_min_norm", solve_min_norm)
            m.setattr(lsq.np.linalg, "lstsq", lstsq)
            solve_with(part, bases, colloc, problem, kept)
        assert len(received) == len(systems)
        return kept, systems, received

    def check(self, systems, received):
        for (blocks, report), a in zip(systems, received):
            n0 = blocks.matrix.shape[1]
            n_rows = len(blocks.rhs) + len(blocks.balls) * (n0 + 1)
            assert a.shape == (n_rows, n0)
            assert a is blocks.stacked
            assert np.shares_memory(a, blocks.matrix)
            alpha, loss = concatenated_solve(blocks)
            assert all_coefficients(report).tobytes() == alpha.tobytes()
            assert report.loss == loss

    def test_linear_solve_stacks_the_kept_balls_below_the_rows(self, monkeypatch):
        part, bases, colloc = two_ball_setup()
        problem = manufactured_linear(bases[0], np.linspace(-1.0, 1.0, bases[0].size))
        kept, systems, received = self.solve(monkeypatch, part, bases, colloc, problem)
        (blocks, _), = systems
        assert len(blocks.balls) == 2
        assert all(ball is k for ball, k in zip(blocks.balls, kept))
        self.check(systems, received)

    def test_nonlinear_steps_stack_into_their_linearized_rows(self, monkeypatch):
        part, bases, colloc = one_ball_setup()
        _, systems, received = self.solve(monkeypatch, part, bases, colloc,
                                          nonzero_nonlinear_problem())
        assert len(systems) > 1
        assert all(len(blocks.balls) == 1 for blocks, _ in systems)
        self.check(systems, received)

    @pytest.mark.parametrize("problem", [zero_problem(), nonzero_nonlinear_problem()],
                             ids=["linear", "nonlinear"])
    def test_subdomain_0_holds_n0_plus_1_spare_rows_per_ball(self, problem):
        part, bases, colloc = two_ball_setup()
        rows_0, *balls = fresh_rows(part, bases, colloc, problem)
        n0 = bases[0].size
        # a ball's rows outnumber its reduced rows
        assert all(len(ball.row_kind) > n0 + 1 for ball in balls)
        assert rows_0.matrix.shape == (len(rows_0.row_kind) + 2 * (n0 + 1), n0)
        blocks = lsq.assemble(problem, [rows_0, *balls])
        assert blocks.stacked.shape == rows_0.matrix.shape
        # kept balls take as many spare rows as the rows they were kept from
        kept = [lsq.keep_ball(problem, ball) for ball in balls]
        if problem.is_linear:
            assert [len(ball.rhs) for ball in kept] == [n0 + 1, n0 + 1]
        assert lsq.coupled_rows(problem, bases[0], colloc.interior[0],
                                colloc.boundary[0], kept)[0].matrix.shape == \
            rows_0.matrix.shape

    def test_too_few_spare_rows_are_refused(self):
        part, bases, colloc = one_ball_setup()
        blocks = assemble(part, bases, colloc, nonzero_nonlinear_problem())
        assert len(blocks.stacked) > len(blocks.rhs)
        for stacked in (blocks.matrix, blocks.stacked[:-1]):
            with pytest.raises(lsq.AssemblyError, match="spare row"):
                lsq.solve_min_norm(replace(blocks, stacked=stacked))

    def test_subdomain_0s_rows_are_held_once(self):
        # a linear K=1 solve whose subdomain-0 block (about 6 MB) dwarfs the
        # basis evaluation's 1 MB of scratch and the vectors of the solve
        region = box2()
        center = np.array([0.4, 0.4])
        part = geo.split_subdomain(geo.PartitionState(region), center, 0.2)
        domain = standard_colloc(region, resolution=60, boundary=400)
        colloc = geo.reclassify_collocation(part, domain.interior[0],
                                            domain.boundary[0], ball_resolution=12,
                                            interface_count=40)
        bases = [bas.generate_transferable(200, 2.0, 2, seed=3, stream=0),
                 bas.rescale(bas.generate_transferable(50, 2.0, 2, seed=3, stream=1),
                             center, 2)]
        problem = zero_problem()
        (ball,) = [lsq.keep_ball(problem, rows)
                   for rows in fresh_ball_rows(part, bases, colloc, problem)]
        n_rows = len(colloc.interior[0]) + len(colloc.boundary[0])
        rows_bytes = n_rows * bases[0].size * 8
        stacked_bytes = (n_rows + len(ball.rhs)) * bases[0].size * 8
        tracemalloc.start()
        try:
            solve_with(part, bases, colloc, problem, [ball])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stacked_bytes + rows_bytes / 2
