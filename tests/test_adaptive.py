from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

from conftest import (all_coefficients, assert_solves_as_svd_solve, fresh_rows, fresh_solve,
                      pointwise_operator)

from rfpde import adaptive as ada
from rfpde import basis as bas
from rfpde import geometry as geo
from rfpde import lsq, pde


SMALL = dict(interior_resolution=30, boundary_count=200, ball_resolution=24,
             interface_count=100, scale_max=8, m0=100, m_star=300,
             epsilon=1e-3, radius=0.15, gamma=2.0, seed=3)


def box2():
    return geo.Box(-np.ones(2), np.ones(2))


def constant_basis():
    return bas.BasisSet(weights=np.empty((0, 2)), biases=np.empty(0),
                        center=np.zeros(2))


def problem_with_forcing(f_values, points):
    """Forcing interpolates the given values at the given points exactly."""
    table = {tuple(p): v for p, v in zip(points, f_values)}

    def forcing(p):
        return np.array([table[tuple(row)] for row in np.atleast_2d(p)])

    return pde.SemilinearProblem(region=box2(), forcing=forcing,
                                 boundary=lambda p: np.zeros(len(np.atleast_2d(p))))


class TestMeanResidual:
    def test_zero_when_operator_matches_forcing(self):
        # constant expansion u = 2: L u = 0, so f = 0 gives residual 0... use
        # the quadratic nonlinearity to make the match nontrivial
        problem = pde.SemilinearProblem(
            region=box2(),
            forcing=lambda p: np.full(len(np.atleast_2d(p)), 4.0),
            boundary=lambda p: np.zeros(len(np.atleast_2d(p))),
            nonlinearity=lambda u: u * u, nonlinearity_prime=lambda u: 2.0 * u)
        pts = np.array([[0.0, 0.0], [0.3, -0.2], [0.7, 0.7]])
        res = pde.operator_residuals(problem, constant_basis(), np.array([2.0]), pts)
        assert ada.mean_residual(res) == 0.0

    def test_single_point_squares_residual(self):
        pts = np.array([[0.1, 0.2]])
        problem = problem_with_forcing([-3.0], pts)
        res = pde.operator_residuals(problem, constant_basis(), np.zeros(1), pts)
        assert ada.mean_residual(res) == pytest.approx(9.0)

    def test_matches_direct_loop(self, rng):
        b = bas.generate_transferable(12, 2.0, 2, seed=4)
        alpha = rng.standard_normal(b.size)
        problem = pde.benchmark("peak2d-case1")
        pts = rng.uniform(-1, 1, size=(10, 2))
        got = ada.mean_residual(pde.operator_residuals(problem, b, alpha, pts))
        acc = 0.0
        for x in pts:
            r = pointwise_operator(problem, b, alpha, x) - problem.forcing(x[None, :])[0]
            acc += r * r
        assert got == pytest.approx(acc / len(pts), rel=1e-14)

    def test_is_unweighted(self, rng):
        # at a fixed alpha the gate reads the raw interior residual, which the
        # system's right-hand side holds divided by each row's weight, the
        # norm of the row's linear part -lap(psi)
        b = bas.generate_transferable(12, 2.0, 2, seed=4)
        alpha = rng.standard_normal(b.size)
        problem = pde.benchmark("nonlinear2d-case1")
        part = geo.PartitionState(problem.region)
        colloc = geo.CollocationSets.initial(
            geo.generate_interior_grid(problem.region, 12),
            geo.generate_boundary_points(problem.region, 40))
        (rows,) = fresh_rows(part, [b], colloc, problem)
        interior = slice(0, len(rows.forcing))
        norms = np.linalg.norm(b.laplacians(colloc.interior[0]), axis=1)
        assert norms.min() > 0 and not np.allclose(norms, 1.0)
        weighted = lsq.assemble(problem, [rows], alphas=[alpha]).rhs[interior]
        gate = ada.mean_residual(pde.operator_residuals(problem, b, alpha,
                                                        colloc.interior[0]))
        assert gate == pytest.approx(np.mean((weighted * norms) ** 2), rel=1e-12)
        assert gate != pytest.approx(np.mean(weighted ** 2), rel=1e-2)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            ada.mean_residual(np.empty(0))


class TestLocatePeak:
    def test_argmax_point(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.2]])
        problem = problem_with_forcing([-0.1, -5.0, -0.3], pts)
        res = pde.operator_residuals(problem, constant_basis(), np.zeros(1), pts)
        np.testing.assert_array_equal(ada.locate_peak(res, pts), [0.5, 0.5])

    def test_largest_absolute_value_wins(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.2]])
        peak = ada.locate_peak(np.array([1.0, -4.0, 3.0]), pts)
        np.testing.assert_array_equal(peak, pts[1])

    def test_tie_breaks_to_first_point(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.2]])
        problem = problem_with_forcing([-2.0, -2.0, -2.0], pts)
        res = pde.operator_residuals(problem, constant_basis(), np.zeros(1), pts)
        np.testing.assert_array_equal(ada.locate_peak(res, pts), pts[0])

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            ada.locate_peak(np.empty(0), np.empty((0, 2)))


def first_scale_search(name, **config):
    """The arguments of the first scale search of ``name`` at ``config``:
    the K=0 solve, and its ball placed and points reclassified as
    ``adaptive_solve`` does it."""
    problem = pde.benchmark(name)
    cfg = ada.AdaptiveConfig(**config).resolved(problem.dim)
    part = geo.PartitionState(problem.region)
    domain = ada.initial_collocation(problem, cfg)
    basis0 = ada._base_basis(problem, cfg)
    state, res, _ = ada._solve_and_gate(problem, part, [basis0], domain, [], cfg)
    part = geo.split_subdomain(part, ada.locate_peak(res, domain.interior[0]),
                               cfg.radius)
    colloc = geo.reclassify_collocation(part, domain.interior[0], domain.boundary[0],
                                        ball_resolution=cfg.ball_resolution,
                                        interface_count=cfg.interface_count)
    return problem, basis0, state.report.alphas[0], part.ball(1), colloc, cfg


#: Linear first scale searches: (benchmark, config, whether the candidate of
#: the smallest bound loses, whether the ball's block has no more rows than
#: columns)
BOUNDED_SEARCHES = {
    "peak2d-case1": ("peak2d-case1", SMALL, False, False),
    "corner2d": ("corner2d", dict(SMALL, radius=0.32), False, False),
    "peak3d": ("peak3d", dict(interior_resolution=12, boundary_count=600,
                              ball_resolution=10, interface_count=150, scale_max=8,
                              m0=100, m_star=200, radius=0.3, seed=3), False, False),
    # a rank-deficient ball block (608 rows on 451 columns), where s=4 has
    # the smallest bound and s=5 the smallest loss, as s=5 and s=6 do in the
    # acceptance sweep's peak2d-case1 runs at gamma 3
    "smallest-bound-loses": ("peak2d-case1", dict(SMALL, m_star=450, gamma=3.0, seed=1),
                             True, False),
    # 260 rows on 301 columns: every bound is 0, so s=1 has the smallest
    "underdetermined": ("peak2d-case1", dict(SMALL, ball_resolution=10), True, True),
}


class TestScaleSearch:
    @pytest.mark.parametrize("case", BOUNDED_SEARCHES)
    def test_bounded_search_picks_what_the_full_search_picks(self, case):
        name, config, first_loses, underdetermined = BOUNDED_SEARCHES[case]
        problem, basis0, alpha0, ball, colloc, cfg = first_scale_search(name, **config)
        result = ada.scale_search(problem, basis0, alpha0, ball, colloc, cfg)
        # every candidate solved as the search solves one, in this process
        raw = bas.generate_transferable(cfg.m_star, cfg.gamma, problem.dim, cfg.seed,
                                        stream=ball.index)
        rows_of = partial(ada._candidate_rows, problem, raw, ball, basis0,
                          colloc.interior[1], colloc.boundary[1], colloc.interface[1])
        full = [ada._candidate(problem, rows_of, alpha0, cfg.n_max, cfg.tol, s)
                for s in range(1, cfg.scale_max + 1)]
        losses = [loss for loss, _ in full]
        assert result.scale == 1 + losses.index(min(losses))
        picked = losses[result.scale - 1]
        assert len(result.bounds) == len(result.losses) == cfg.scale_max
        assert len(result.loss_is_bound) == cfg.scale_max
        for s, (bound, loss, converged, by_bound) in enumerate(
                zip(result.bounds, result.losses, result.converged,
                    result.loss_is_bound), start=1):
            if loss is None:
                assert converged is None and not by_bound
                assert bound > picked, s
            elif by_bound:
                # a full-rank block, unsolved: its loss is its bound, the same
                # bits, and the solved loss differs from it by rounding (3.5e-10
                # relative at most on these blocks)
                assert (loss, converged) == (bound, True), s
                assert abs(loss - full[s - 1][0]) <= 1e-6 * full[s - 1][0], s
            else:
                assert (loss, converged) == full[s - 1], s      # the same bits
                # the loss of the truncated solution, evaluated at it, carries
                # rounding: up to 8e-8 relative below the bound on these blocks
                assert bound <= loss * (1 + 1e-6), s
        first = 1 + result.bounds.index(min(result.bounds))
        # only the candidate of the smallest bound may be scored by it
        assert result.loss_is_bound.count(True) <= 1
        assert result.loss_is_bound[first - 1] == any(result.loss_is_bound)
        assert (first != result.scale) == first_loses
        m, n = rows_of(1)[1].matrix.shape
        assert (m <= n) == underdetermined
        if underdetermined:
            assert result.bounds == [0.0] * cfg.scale_max
            assert None not in result.losses
        else:
            assert None in result.losses

    def traced_search(self, monkeypatch, name, **config):
        """The first scale search of ``name``, and in call order the scales
        ``_candidate`` solved ("solve", s) and the balls ``lsq.keep_ball``
        made ("keep", ball)."""
        calls = []
        real_candidate, real_keep = ada._candidate, lsq.keep_ball

        def candidate(*args):
            calls.append(("solve", args[-1]))
            return real_candidate(*args)

        def keep_ball(*args):
            calls.append(("keep", real_keep(*args)))
            return calls[-1][1]
        monkeypatch.setattr(ada, "_candidate", candidate)
        monkeypatch.setattr(lsq, "keep_ball", keep_ball)
        problem, basis0, alpha0, ball, colloc, cfg = first_scale_search(name, **config)
        return ada.scale_search(problem, basis0, alpha0, ball, colloc, cfg), calls

    def test_a_full_rank_first_candidate_is_kept_unsolved(self, monkeypatch):
        name, config, *_ = BOUNDED_SEARCHES["peak3d"]
        result, calls = self.traced_search(monkeypatch, name, **config)
        first = 1 + result.bounds.index(min(result.bounds))
        assert result.scale == first
        assert [kind for kind, _ in calls] == ["keep"]
        kept = calls[0][1]
        assert result.ball is kept
        assert kept.full_rank
        assert result.loss_is_bound == [s == first for s in range(1, len(result.losses) + 1)]
        assert result.losses[first - 1] == result.bounds[first - 1]

    def test_a_first_candidate_proven_deficient_is_solved_first(self, monkeypatch):
        # s=4 has the smallest bound, and its block's QR diagonal proves it
        # rank-deficient, so it is not kept before it is solved; s=5 wins
        name, config, *_ = BOUNDED_SEARCHES["smallest-bound-loses"]
        result, calls = self.traced_search(monkeypatch, name, **config)
        first = 1 + result.bounds.index(min(result.bounds))
        assert calls[0] == ("solve", first)
        assert [kind for kind, _ in calls].count("keep") == 1
        assert result.scale != first and calls[-1][1] is result.ball
        assert not any(result.loss_is_bound)

    @pytest.mark.parametrize("name, config, first_loses", [
        BOUNDED_SEARCHES["smallest-bound-loses"][:3],
        # s=8 has the smallest bound and the smallest loss
        ("peak2d-case1", dict(SMALL, gamma=1.0), False)], ids=["loses", "wins"])
    def test_a_kept_first_candidate_that_truncates_is_solved(self, monkeypatch, name,
                                                            config, first_loses):
        # with no block proven rank-deficient, the first candidate is kept
        # before it is solved; its SVD truncates, so it is solved all the
        # same, and kept again only if it loses
        real_bound = lsq.residual_bound
        monkeypatch.setattr(lsq, "residual_bound",
                            lambda block: (real_bound(block)[0], False))
        result, calls = self.traced_search(monkeypatch, name, **config)
        first = 1 + result.bounds.index(min(result.bounds))
        (kind, kept), *rest = calls
        assert kind == "keep" and not kept.full_rank
        assert rest[0] == ("solve", first)
        assert not any(result.loss_is_bound)
        keeps = [ball for kind, ball in rest if kind == "keep"]
        assert (result.scale != first) == first_loses
        if first_loses:
            assert len(keeps) == 1 and keeps[0] is result.ball
            assert calls[-1][0] == "keep"
        else:
            assert keeps == [] and result.ball is kept

    def make_ball_setup(self):
        region = box2()
        part = geo.split_subdomain(geo.PartitionState(region),
                                   np.array([0.4, 0.4]), 0.2)
        colloc = geo.reclassify_collocation(
            part, geo.generate_interior_grid(region, resolution=15),
            geo.generate_boundary_points(region, 40), ball_resolution=10,
            interface_count=30)
        return part, colloc

    def test_degenerate_losses_tie_to_one(self):
        part, colloc = self.make_ball_setup()
        problem = pde.SemilinearProblem(
            region=box2(),
            forcing=lambda p: np.zeros(len(np.atleast_2d(p))),
            boundary=lambda p: np.zeros(len(np.atleast_2d(p))))
        basis0 = constant_basis()
        result = ada.scale_search(problem, basis0, np.zeros(1), part.ball(1), colloc,
                                  ada.AdaptiveConfig(m_star=20, seed=5, scale_max=4))
        # zero data: every candidate fits exactly, ties resolve to s = 1
        assert result.scale == 1
        assert len(result.losses) == 4
        assert max(result.losses) <= 1e-18

    def test_argmin_invariant_under_positive_scaling(self):
        losses = [3.0, 0.5, 0.5, 2.0]
        for c in (1.0, 17.0, 1e-6):
            scaled = [c * v for v in losses]
            assert int(np.argmin(scaled)) == int(np.argmin(losses)) == 1

    def test_local_solve_freezes_outer_trace(self, rng):
        # the frozen expansion's trace appears in the interface right-hand side
        part, colloc = self.make_ball_setup()
        b0 = bas.generate_transferable(20, 2.0, 2, seed=7, stream=0)
        alpha0 = 0.1 * rng.standard_normal(b0.size)
        problem = pde.SemilinearProblem(
            region=box2(),
            forcing=lambda p: np.zeros(len(np.atleast_2d(p))),
            boundary=lambda p: np.zeros(len(np.atleast_2d(p))))
        from rfpde.lsq import assemble_local, ball_rows
        ball = part.ball(1)
        raw = bas.generate_transferable(30, 2.0, 2, seed=7, stream=1)
        cand = bas.rescale(raw, ball.center, 2)
        rows = ball_rows(problem, ball, cand, b0, colloc.interior[1],
                         colloc.boundary[1], colloc.interface[1])
        blocks = assemble_local(problem, rows, alpha0)
        gamma_pts = colloc.interface[1]
        value_rows = blocks.row_kind == 2
        # each divided by its row's norm, over the ball's and subdomain 0's columns
        norms = np.sqrt(np.sum(cand.values(gamma_pts) ** 2, axis=1)
                        + np.sum(b0.values(gamma_pts) ** 2, axis=1))
        np.testing.assert_allclose(blocks.rhs[value_rows],
                                   b0.values(gamma_pts) @ alpha0 / norms, atol=1e-14)

    def test_nonlinear_candidates_compare_residuals_at_their_coefficients(
            self, monkeypatch):
        part, colloc = self.make_ball_setup()
        problem = pde.benchmark("nonlinear2d-case1")
        basis0 = bas.generate_transferable(20, 2.0, 2, seed=7, stream=0)
        alpha0 = 0.1 * np.random.default_rng(5).standard_normal(basis0.size)
        rows, reports = [], []
        real_rows, real_core = lsq.ball_rows, lsq.gauss_newton_core

        def ball_rows(*args):
            rows.append(real_rows(*args))
            return rows[-1]

        def gauss_newton_core(*args):
            reports.append(real_core(*args))
            return reports[-1]
        monkeypatch.setattr(lsq, "ball_rows", ball_rows)
        monkeypatch.setattr(lsq, "gauss_newton_core", gauss_newton_core)
        # builtin map, the default mapper: every candidate runs in this process
        result = ada.scale_search(problem, basis0, alpha0, part.ball(1), colloc,
                                  ada.AdaptiveConfig(m_star=40, seed=5, scale_max=3))
        # the three candidates' rows, then the winner's evaluated again
        assert len(rows) == 4
        assert len(reports) == len(result.losses) == 3
        assert any(len(report.iterations) > 1 for report in reports)
        for loss, r, report in zip(result.losses, rows, reports):
            rhs = lsq.assemble_local(problem, r, alpha0, alphas=report.alphas).rhs
            assert loss == float(rhs @ rhs)
        assert result.scale == 1 + int(np.argmin(result.losses))
        assert result.ball is rows[-1]
        for name, kept in rows[-1]._asdict().items():
            candidate = getattr(rows[result.scale - 1], name)
            if name == "trace":
                kept, candidate = np.concatenate(kept), np.concatenate(candidate)
            assert kept.tobytes() == candidate.tobytes(), name

    def test_inner_failure_tagged_with_scale(self):
        part, colloc = self.make_ball_setup()

        def bad_forcing(p):
            return np.full(len(np.atleast_2d(p)), np.nan)

        problem = pde.SemilinearProblem(
            region=box2(), forcing=bad_forcing,
            boundary=lambda p: np.zeros(len(np.atleast_2d(p))))
        with pytest.raises(ada.ScaleSearchError) as err:
            ada.scale_search(problem, constant_basis(), np.zeros(1), part.ball(1),
                             colloc, ada.AdaptiveConfig(m_star=10, seed=5, scale_max=3))
        assert err.value.scale == 1

    def test_a_failed_keep_tagged_with_scale(self, monkeypatch):
        args = first_scale_search("peak2d-case1", **SMALL)
        winner = ada.scale_search(*args).scale

        def keep_ball(problem, rows):
            raise lsq.AssemblyError("no ball")
        monkeypatch.setattr(lsq, "keep_ball", keep_ball)
        with pytest.raises(ada.ScaleSearchError, match="no ball") as err:
            ada.scale_search(*args)
        assert err.value.scale == winner


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ada.AdaptiveConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ada.AdaptiveConfig(scale_max=0)
        with pytest.raises(ValueError):
            ada.AdaptiveConfig(n_max=0)
        with pytest.raises(ValueError):
            ada.AdaptiveConfig(strategy="magic")
        for bad in (dict(gamma=0.0), dict(gamma=-1.0), dict(uniform_range=0.0),
                    dict(interior_resolution=1), dict(ball_resolution=1),
                    dict(test_resolution=1), dict(boundary_count=0),
                    dict(interface_count=0), dict(epsilon=np.nan), dict(gamma=np.nan),
                    dict(radius=np.inf), dict(uniform_range=np.inf),
                    dict(epsilon=-np.inf), dict(tol=np.nan), dict(tol=np.inf),
                    dict(tol=-1.0), dict(max_refinements=-3), dict(seed=-1)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ada.AdaptiveConfig(**bad)
        # the smallest values allowed, and a solve that may not refine
        ada.AdaptiveConfig(interior_resolution=2, ball_resolution=2, test_resolution=2,
                           boundary_count=1, interface_count=1, max_refinements=0,
                           tol=0.0, seed=0)

    def test_field_types_checked(self):
        for bad in (dict(m0="100"), dict(epsilon="1e-4"), dict(seed=1.0),
                    dict(strategy=1), dict(interior_resolution=2.5), dict(n_max=True)):
            with pytest.raises(ValueError, match=repr(next(iter(bad)))):
                ada.AdaptiveConfig(**bad)
        cfg = ada.AdaptiveConfig(epsilon=1, m0=np.int64(100), interior_resolution=None)
        assert cfg.m0 == 100

    def test_resolved_defaults(self):
        cfg = ada.AdaptiveConfig()
        two = cfg.resolved(2)
        assert (two.interior_resolution, two.boundary_count) == (50, 400)
        assert (two.ball_resolution, two.interface_count, two.test_resolution) \
            == (40, 200, 256)
        three = cfg.resolved(3)
        assert (three.interior_resolution, three.boundary_count) == (21, 2400)
        assert (three.ball_resolution, three.interface_count, three.test_resolution) \
            == (20, 600, 50)

    def test_explicit_values_kept(self):
        cfg = ada.AdaptiveConfig(interior_resolution=12).resolved(2)
        assert cfg.interior_resolution == 12

    def test_3d_interior_resolution_is_points_per_axis(self):
        cfg = ada.AdaptiveConfig(interior_resolution=21).resolved(3)
        colloc = ada.initial_collocation(pde.benchmark("peak3d"), cfg)
        assert len(colloc.interior[0]) == 21 ** 3

    def test_dict_roundtrip(self):
        cfg = ada.AdaptiveConfig(**SMALL)
        back = ada.AdaptiveConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        # a misspelt field must not silently run with the default value, and
        # a manifest naming a removed field must not re-run with other settings
        with pytest.raises(ValueError, match="mstar, weights"):
            ada.AdaptiveConfig.from_dict({"m0": 100, "mstar": 300,
                                          "weights": [1.0]})


class TestAdaptiveSolve:
    def test_in_span_solution_never_refines(self, rng):
        # exact solution manufactured inside the subdomain-0 basis: the gate
        # is satisfied at entry and the loop body never runs
        cfg = ada.AdaptiveConfig(**SMALL)
        b0 = bas.generate_transferable(cfg.m0, cfg.gamma, 2, cfg.seed, stream=0)
        from dataclasses import replace
        b0 = replace(b0, scale=1.0 / np.sqrt(2.0))
        coeffs = rng.standard_normal(b0.size)

        def forcing(p):
            return -(b0.laplacians(np.atleast_2d(p)) @ coeffs)

        def trace_fn(p):
            return b0.values(np.atleast_2d(p)) @ coeffs

        problem = pde.SemilinearProblem(region=box2(), forcing=forcing,
                                        boundary=trace_fn, exact=trace_fn)
        state, trace = ada.adaptive_solve(problem, cfg)
        assert trace == []
        assert state.partition.n_balls == 0

    def test_the_nonlinear_k0_solve_converges(self):
        # every row keeps one weight at every Gauss-Newton step, so each step
        # lowers one fixed weighted |T|^2; with rows renormalized at every
        # linearization this solve stopped unconverged after 4 entries, no
        # halving of its step lowering the reweighted |T|^2
        problem = pde.benchmark("nonlinear2d-case1")
        cfg = ada.AdaptiveConfig(**SMALL)
        colloc = ada.initial_collocation(problem, cfg)
        report = lsq.gauss_newton(problem, ada._base_basis(problem, cfg),
                                  colloc.interior[0], colloc.boundary[0], [],
                                  cfg.n_max, cfg.tol)
        assert report.converged
        assert report.iterations[-1][2] < cfg.tol

    def test_single_peak_discovery_small_budget(self):
        problem = pde.benchmark("peak2d-case1")
        state, trace = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
        assert state.partition.n_balls == 1
        assert np.linalg.norm(np.asarray(trace[0].center) - [0.5, 0.5]) <= 0.05
        assert trace[0].mean_residual_after <= SMALL["epsilon"]
        assert trace[0].mean_residual_before > SMALL["epsilon"]
        assert 1 <= trace[0].scale <= SMALL["scale_max"]
        assert len(trace[0].scale_losses) == SMALL["scale_max"]

    def test_two_peaks_bookkeeping(self):
        problem = pde.benchmark("peak2d-case2")
        cfg = ada.AdaptiveConfig(**SMALL)
        state, trace = ada.adaptive_solve(problem, cfg)
        assert state.partition.n_balls == 2
        assert [r.index for r in trace] == [1, 2]
        # monotone bookkeeping: X_f0 shrank, every ball owns its points
        full_grid = geo.generate_interior_grid(problem.region,
                                               resolution=cfg.interior_resolution)
        assert len(state.colloc.interior[0]) < len(full_grid)
        assert sum(len(b) for b in state.colloc.boundary) == cfg.boundary_count

    def test_frozen_history(self):
        # ball 1's basis and collocation are bit-identical to their
        # deterministic regeneration after ball 2 was added
        problem = pde.benchmark("peak2d-case2")
        cfg = ada.AdaptiveConfig(**SMALL)
        state, trace = ada.adaptive_solve(problem, cfg)
        assert state.partition.n_balls == 2
        ball1 = state.partition.ball(1)
        raw = bas.generate_transferable(cfg.m_star, cfg.gamma, 2, cfg.seed, stream=1)
        expected = bas.rescale(raw, ball1.center, trace[0].scale)
        got = state.bases[1]
        assert got.weights.tobytes() == expected.weights.tobytes()
        assert got.scale == expected.scale
        assert got.center.tobytes() == expected.center.tobytes()
        # collocation of ball 1 regenerates identically from the partition
        part1 = geo.PartitionState(problem.region, (ball1,))
        colloc1 = geo.reclassify_collocation(
            part1, geo.generate_interior_grid(problem.region,
                                              resolution=cfg.interior_resolution),
            geo.generate_boundary_points(problem.region, cfg.boundary_count),
            ball_resolution=cfg.ball_resolution, interface_count=cfg.interface_count)
        assert state.colloc.interior[1].tobytes() == colloc1.interior[1].tobytes()
        assert state.colloc.interface[1].tobytes() == colloc1.interface[1].tobytes()

    def test_trace_gates_next_iteration(self):
        problem = pde.benchmark("peak2d-case2")
        state, trace = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
        # recompute each entry's "after" residual from the final state of that
        # refinement; the last one is the terminal gate value
        final_gate = ada.mean_residual(pde.operator_residuals(
            problem, state.bases[0], state.report.alphas[0], state.colloc.interior[0]))
        assert trace[-1].mean_residual_after == final_gate
        assert trace[0].mean_residual_after == trace[1].mean_residual_before

    def test_one_residual_evaluation_per_coupled_solve(self, monkeypatch):
        # the gate and the next ball's center read one residual of each solve
        calls = {"residuals": 0, "solves": 0}
        real_residuals, real_solve = ada.operator_residuals, lsq.gauss_newton

        def operator_residuals(*args):
            calls["residuals"] += 1
            return real_residuals(*args)

        def gauss_newton(*args):
            calls["solves"] += 1
            return real_solve(*args)
        monkeypatch.setattr(ada, "operator_residuals", operator_residuals)
        monkeypatch.setattr(lsq, "gauss_newton", gauss_newton)
        _, trace = ada.adaptive_solve(pde.benchmark("peak2d-case1"),
                                      ada.AdaptiveConfig(**SMALL))
        assert len(trace) == 1
        assert calls == {"residuals": len(trace) + 1, "solves": len(trace) + 1}

    def test_max_refinements_errors(self):
        problem = pde.benchmark("peak2d-case1")
        cfg = ada.AdaptiveConfig(**{**SMALL, "max_refinements": 0})
        with pytest.raises(ada.MaxRefinementsError):
            ada.adaptive_solve(problem, cfg)

    def test_diagnostic_recorded(self):
        problem = pde.benchmark("peak2d-case1")
        seen = []

        def diag(state):
            seen.append(state.partition.n_balls)
            return float(state.partition.n_balls)

        state, trace = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL),
                                          diagnostic=diag)
        assert seen == [1]
        assert trace[0].err_l2 == 1.0

    def test_determinism(self):
        problem = pde.benchmark("peak2d-case1")
        cfg = ada.AdaptiveConfig(**SMALL)
        s1, t1 = ada.adaptive_solve(problem, cfg)
        s2, t2 = ada.adaptive_solve(problem, cfg)
        assert all_coefficients(s1.report).tobytes() == \
            all_coefficients(s2.report).tobytes()
        assert t1[0].scale == t2[0].scale
        assert t1[0].mean_residual_after == t2[0].mean_residual_after

    def test_uniform_strategy_runs(self):
        problem = pde.benchmark("peak2d-case1")
        cfg = ada.AdaptiveConfig(**{**SMALL, "strategy": "uniform",
                                    "uniform_range": 3.0, "epsilon": 5e-3})
        state, trace = ada.adaptive_solve(problem, cfg)
        assert state.partition.n_balls >= 1

    def test_seconds_exclude_diagnostic(self, monkeypatch):
        # a fake clock that only the diagnostic advances: a record's seconds
        # must not include the diagnostic's time
        clock = {"t": 0.0}
        monkeypatch.setattr(ada.time, "perf_counter", lambda: clock["t"])

        def diagnostic(state):
            clock["t"] += 1000.0
            return 0.0

        _, trace = ada.adaptive_solve(pde.benchmark("peak2d-case1"),
                                      ada.AdaptiveConfig(**SMALL), diagnostic=diagnostic)
        assert trace[0].seconds < 1000.0

    def test_records_show_each_scale_candidates_convergence(self, monkeypatch):
        # at n_max=3 the candidate s=2 of this config runs out of steps
        reports = []
        real_core = lsq.gauss_newton_core

        def gauss_newton_core(assembler, *args):
            report = real_core(assembler, *args)
            if assembler.func is lsq.assemble_local:
                reports.append(report)
            return report
        monkeypatch.setattr(lsq, "gauss_newton_core", gauss_newton_core)
        monkeypatch.setattr(ada, "_candidate_map", lambda problem, config: nullcontext(map))
        _, trace = ada.adaptive_solve(pde.benchmark("nonlinear2d-case1"),
                                      ada.AdaptiveConfig(**{**SMALL, "n_max": 3}))
        (record,) = trace
        assert record.scale_converged == [report.converged for report in reports]
        assert len(record.scale_converged) == SMALL["scale_max"]
        assert True in record.scale_converged and False in record.scale_converged
        assert record.scale_losses == [report.loss for report in reports]
        assert record.to_dict()["scale_converged"] == record.scale_converged


class TestWorkDoneOncePerBall:
    """A ball's rows come from its scale search, and a linear problem
    eliminates each ball once, in its scale search; its coupled solves
    evaluate its rows again for the residual table alone."""

    def test_linear_problem_does_each_balls_work_once(self, monkeypatch):
        eliminated, evaluated = [], []
        real_eliminate = lsq._eliminate
        real_laplacians = bas.BasisSet.laplacians

        def eliminate(ball):
            eliminated.append(ball)
            return real_eliminate(ball)

        def laplacians(self, points, **kwargs):
            evaluated.append(self)
            return real_laplacians(self, points, **kwargs)
        monkeypatch.setattr(lsq, "_eliminate", eliminate)
        monkeypatch.setattr(bas.BasisSet, "laplacians", laplacians)
        problem = pde.benchmark("peak2d-case2")
        state, _ = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
        assert state.partition.n_balls == 2
        assert len(eliminated) == 2
        # ball k's rows: once by its keep, then once by each coupled solve
        # from K=k on, for its residual table alone
        for k in (1, 2):
            assert sum(basis is state.bases[k] for basis in evaluated) == 1 + (3 - k)

    def test_reuse_gives_the_solution_of_freshly_evaluated_rows(self):
        problem = pde.benchmark("peak2d-case2")
        cfg = ada.AdaptiveConfig(**SMALL)
        state, _ = ada.adaptive_solve(problem, cfg)
        fresh = fresh_solve(state.partition, state.bases, state.colloc, problem,
                            n_max=cfg.n_max, tol=cfg.tol)
        assert all_coefficients(state.report).tobytes() == \
            all_coefficients(fresh).tobytes()
        assert state.report.loss == fresh.loss

    def test_kept_balls_residuals_are_those_of_freshly_evaluated_rows(self):
        problem = pde.benchmark("peak2d-case2")
        state, _ = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
        report = state.report
        fresh = lsq.assemble(problem, fresh_rows(state.partition, state.bases,
                                                 state.colloc, problem))
        x0 = report.alphas[0]

        def table(row_kind, res):
            return {lsq.ROW_KIND_NAMES[k]: float(res[row_kind == k] @ res[row_kind == k])
                    for k in np.unique(row_kind)}
        assert report.residuals[0] == table(fresh.row_kind, fresh.matrix @ x0 - fresh.rhs)
        assert len(fresh.balls) == state.partition.n_balls == 2
        for ball, x, reported in zip(fresh.balls, report.alphas[1:],
                                     report.residuals[1:]):
            res = ball.matrix @ x - ball.rhs
            res[len(res) - len(ball.coupling):] += ball.coupling @ x0
            expected = table(ball.row_kind, res)
            assert sorted(reported) == sorted(expected)
            total = sum(expected.values())
            for name, value in expected.items():
                assert abs(reported[name] - value) <= 1e-4 * total, name

    def test_records_carry_conditioning_and_the_gauss_newton_history(self):
        problem = pde.benchmark("nonlinear2d-case1")
        state, trace = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
        report = state.report
        blocks = lsq.assemble(problem, fresh_rows(state.partition, state.bases,
                                                  state.colloc, problem),
                              alphas=report.alphas)
        assert report.loss == float(sum(b.rhs @ b.rhs
                                        for b in [blocks] + blocks.balls))
        assert sum(v for r in report.residuals for v in r.values()) == \
            pytest.approx(report.loss, rel=1e-12)
        record = trace[-1]
        assert record.loss == report.loss
        assert record.iterations == [list(step) for step in report.iterations]
        assert len(record.iterations) > 1 and record.iterations[-1][1] == report.loss
        assert record.block_ranks == report.block_ranks
        assert len(record.block_sigmas) == state.partition.n_subdomains
        assert all(hi >= lo > 0 for hi, lo in record.block_sigmas)
        assert record.alpha_norms == [float(np.linalg.norm(a)) for a in report.alphas]
        assert record.residuals == report.residuals
        assert len(record.residuals) == state.partition.n_subdomains
        assert 0 < record.search_seconds + record.solve_seconds <= record.seconds
        assert record.search_seconds > 0 and record.solve_seconds > 0

    def search(self, problem):
        """The scale search of ball 1 on ``TestScaleSearch``'s partition, and
        the coupled problem's rows evaluated afresh with the winning basis."""
        part, colloc = TestScaleSearch().make_ball_setup()
        basis0 = bas.generate_transferable(20, 2.0, 2, seed=7, stream=0)
        alpha0 = 0.1 * np.random.default_rng(5).standard_normal(basis0.size)
        config = ada.AdaptiveConfig(m_star=40, seed=5, scale_max=3)
        result = ada.scale_search(problem, basis0, alpha0, part.ball(1), colloc, config)
        return result, fresh_rows(part, [basis0, result.basis], colloc, problem)

    def test_linear_kept_ball_holds_the_elimination_of_its_coupled_block(self):
        problem = pde.benchmark("peak2d-case1")
        result, rows = self.search(problem)
        ball = result.ball
        # the rows are released; what the residual table and the checks read stays
        assert isinstance(ball, lsq._Eliminated)
        assert ball.row_kind.tobytes() == rows[1].row_kind.tobytes()
        assert ball.size == rows[1].size
        # the coupled system at zero coefficients, its ball eliminated afresh
        block = lsq.assemble(problem, rows).balls[0]
        assert isinstance(block, lsq.SystemBlocks)
        expected = lsq._eliminate(block)
        for name in expected._fields:
            assert getattr(ball, name).tobytes() == \
                getattr(expected, name).tobytes(), name

    def test_nonlinear_kept_ball_holds_no_elimination(self):
        problem = pde.benchmark("nonlinear2d-case1")
        result, rows = self.search(problem)
        assert isinstance(result.ball, lsq.SubdomainRows)
        assert result.ball.matrix.tobytes() == rows[1].matrix.tobytes()
        assert result.ball.values.tobytes() == rows[1].values.tobytes()


class TestEliminationThroughQR:
    """A ball eliminated through the QR of [A | C | T] solves as it did by
    the SVD of its block (``conftest.svd_solve``)."""

    # at SMALL the ball's block has full rank (301 of 301 columns), at
    # gamma 1 it is rank-deficient (283 of 301)
    @pytest.mark.parametrize("gamma, deficient", [(SMALL["gamma"], False), (1.0, True)],
                             ids=["full-rank", "rank-deficient"])
    def test_peak2d_case1(self, gamma, deficient):
        problem = pde.benchmark("peak2d-case1")
        state, _ = ada.adaptive_solve(problem, ada.AdaptiveConfig(**{**SMALL,
                                                                     "gamma": gamma}))
        blocks = lsq.assemble(problem, fresh_rows(state.partition, state.bases,
                                                  state.colloc, problem))
        assert blocks.balls
        assert any(rank < ball.size for rank, ball in
                   zip(state.report.block_ranks[1:], blocks.balls)) == deficient
        # the kept balls' solve, and that of the balls eliminated in the solve
        assert_solves_as_svd_solve(state.report, blocks)
        assert_solves_as_svd_solve(lsq.solve_min_norm(blocks), blocks)


class TestRadiusHalvingOnConflict:
    def test_overlapping_second_peak_shrinks_radius(self):
        # two bumps 0.2 apart with a radius that would make the second ball
        # overlap the first: the driver halves the radius until disjoint
        region = box2()
        centers = np.array([[0.3, 0.3], [0.45, 0.3]])

        def exact(p):
            pts = np.atleast_2d(p)
            a = 1000.0
            return sum(np.exp(-a * np.sum((pts - c) ** 2, axis=1)) for c in centers)

        def forcing(p):
            pts = np.atleast_2d(p)
            a = 1000.0
            out = np.zeros(len(pts))
            for c in centers:
                r2 = np.sum((pts - c) ** 2, axis=1)
                out -= (4 * a * a * r2 - 4 * a) * np.exp(-a * r2)
            return out

        problem = pde.SemilinearProblem(region=region, forcing=forcing,
                                        boundary=exact, exact=exact)
        cfg = ada.AdaptiveConfig(**{**SMALL, "radius": 0.12, "epsilon": 5e-3,
                                    "max_refinements": 3})
        # a halved ball is too small to resolve the second bump, so the run
        # may exhaust its refinement budget; the halving itself is what is
        # under test and the trace records it either way
        try:
            _, trace = ada.adaptive_solve(problem, cfg)
        except ada.MaxRefinementsError as err:
            trace = err.trace
        assert len(trace) >= 2
        assert trace[0].radius == 0.12
        assert min(r.radius for r in trace) < 0.12
        assert all(abs(r.radius - 0.12 / 2 ** i) < 1e-12
                   for rec in trace for i, r in [(round(np.log2(0.12 / rec.radius)), rec)])
