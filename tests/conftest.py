"""Shared oracles and helpers for the test suite.

The finite-difference oracles are deliberately independent of the analytic
derivative formulas they check: they only ever call the scalar evaluation
path of whatever function they are given. The pointwise oracles evaluate a
basis neuron by neuron with ``math.tanh`` and plain Python sums, sharing no
code with the batched methods of ``BasisSet``.
"""

import json
import math

import numpy as np
import pytest

from rfpde import AdaptiveConfig, bench, lsq
from rfpde import geometry as geo

#: One line per acceptance criterion, echoed after the run regardless of
#: output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar-or-vector function of a point."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(f(x))
    out = np.empty(base.shape + (x.shape[0],))
    for j in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[..., j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return out


def fd_laplacian(f, x, h=1e-4):
    """Second-order finite-difference Laplacian (5-point in 2D, 7-point in 3D)."""
    x = np.asarray(x, dtype=float)
    center = np.asarray(f(x))
    total = np.zeros_like(center, dtype=float)
    for j in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        total += (np.asarray(f(xp)) - 2.0 * center + np.asarray(f(xm))) / (h * h)
    return total


def pointwise_basis(basis, x):
    """Values, gradients and Laplacians of every basis function at one point.

    With a = scale and z_m = a w_m . (x - center) + b_m:
    psi_m = tanh(z_m), grad psi_m = a (1 - psi_m^2) w_m and
    lap psi_m = -2 a^2 |w_m|^2 psi_m (1 - psi_m^2). Returns arrays of shape
    (M+1,), (M+1, d) and (M+1,); index 0 is the constant function.
    """
    x = [float(v) for v in x]
    center = basis.center.tolist()
    a = basis.scale
    values, gradients, laplacians = [1.0], [[0.0] * len(x)], [0.0]
    for w, b in zip(basis.weights.tolist(), basis.biases.tolist()):
        z = a * sum(wj * (xj - cj) for wj, xj, cj in zip(w, x, center)) + b
        t = math.tanh(z)
        slope = 1.0 - t * t
        values.append(t)
        gradients.append([a * slope * wj for wj in w])
        laplacians.append(-2.0 * a * a * sum(wj * wj for wj in w) * t * slope)
    return np.array(values), np.array(gradients), np.array(laplacians)


def pointwise_operator(problem, basis, alpha, x):
    """Operator value -lap(u) + N(u) at one point, u = sum_m alpha_m psi_m."""
    values, _, laplacians = pointwise_basis(basis, x)
    alpha = [float(a) for a in alpha]
    out = -sum(a * lap for a, lap in zip(alpha, laplacians))
    if problem.nonlinearity is not None:
        u = sum(a * v for a, v in zip(alpha, values))
        out += float(problem.nonlinearity(u))
    return out


def run_from_manifest(manifest_path, outdir) -> dict:
    """Re-execute a run with its manifest's ``benchmark`` and ``config``."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    return bench.run(manifest["benchmark"],
                     AdaptiveConfig.from_dict(manifest["config"]), outdir)


def fresh_ball_rows(partition, bases, colloc, problem):
    """Every ball's rows, evaluated afresh by ``lsq.ball_rows``."""
    return [lsq.ball_rows(problem, partition.ball(k), bases[k], bases[0],
                          colloc.interior[k], colloc.boundary[k], colloc.interface[k])
            for k in range(1, partition.n_subdomains)]


def fresh_rows(partition, bases, colloc, problem):
    """The rows of the coupled problem, every subdomain's evaluated afresh."""
    return lsq.coupled_rows(problem, bases[0], colloc.interior[0], colloc.boundary[0],
                            fresh_ball_rows(partition, bases, colloc, problem))


def fresh_solve(partition, bases, colloc, problem, n_max=None, tol=None):
    """``lsq.gauss_newton`` with every ball kept afresh from its rows; n_max
    and tol default to ``AdaptiveConfig``'s."""
    defaults = AdaptiveConfig()
    kept = [lsq.keep_ball(problem, rows)
            for rows in fresh_ball_rows(partition, bases, colloc, problem)]
    return lsq.gauss_newton(problem, bases[0], colloc.interior[0], colloc.boundary[0],
                            kept, n_max or defaults.n_max, tol or defaults.tol)


def migrate_collocation(sets, partition, ball_resolution, interface_count):
    """The collocation sets after the partition's newest ball is carved out
    of ``sets``, which hold those of every other subdomain.

    The incremental migration that built the sets before they were built
    from the partition alone, kept as a reference: subdomain 0's boundary
    points in the closed ball move to the ball, its interior points there
    are dropped, and the ball's lattice and sphere sample are masked as in
    ``geometry.reclassify_collocation``.
    """
    k = partition.n_balls
    assert sets.n_subdomains == k
    ball, base = partition.ball(k), partition.base
    x_f0, x_g0 = sets.interior[0], sets.boundary[0]
    migrate = ball.contains_closed(x_g0)
    lattice = geo._tensor_lattice(ball.bounding_box(), ball_resolution)
    x_fk = lattice[ball.contains_open(lattice) & base.contains(lattice)
                   & geo._off_corners(base, lattice)]
    sphere = geo.sample_sphere_uniform(ball.center, ball.radius, interface_count)
    return geo.CollocationSets(
        (x_f0[~ball.contains_closed(x_f0)],) + sets.interior[1:] + (x_fk,),
        (x_g0[~migrate],) + sets.boundary[1:] + (x_g0[migrate],),
        sets.interface + (sphere[base.contains(sphere)],))


def svd_eliminate(ball):
    """A ball block's elimination by the truncated SVD U S V^T of the block
    itself, as ``lsq._eliminate`` took it before it went through the QR of
    [A | C | T], kept as a reference: the coupling C and right-hand side T
    projected onto the orthogonal complement of the retained U, on all the
    block's rows, then V^T, S, U^T T and U^T C."""
    u, s, vt = np.linalg.svd(ball.matrix, full_matrices=False)
    r = int(np.count_nonzero(s > lsq.DEFAULT_SVD_CUTOFF * s[0]))
    u, s, vt = u[:, :r], s[:r], vt[:r]
    iface = slice(len(ball.rhs) - len(ball.coupling), None)
    ut_coupling = u[iface].T @ ball.coupling      # C is zero off the interface
    coupling = -(u @ ut_coupling)
    coupling[iface] += ball.coupling
    ut_rhs = u.T @ ball.rhs
    return coupling, ball.rhs - u @ ut_rhs, vt, s, ut_rhs, ut_coupling


def svd_solve(blocks):
    """``lsq.solve_min_norm`` of a coupled system whose balls are blocks, with
    every ball eliminated by ``svd_eliminate``: each ball's projected rows
    stacked below subdomain 0's and solved by gelsd, and the loss read from
    the projected rows, which hold every row's residual A x_k + C x_0 - T.
    Returns the alphas, the loss and the block ranks."""
    eliminated = [svd_eliminate(ball) for ball in blocks.balls]
    F0 = np.concatenate([blocks.matrix] + [e[0] for e in eliminated])
    T0 = np.concatenate([blocks.rhs] + [e[1] for e in eliminated])
    alpha_0, _, rank, _ = np.linalg.lstsq(F0, T0, rcond=lsq.DEFAULT_SVD_CUTOFF)
    alphas = [alpha_0] + [vt.T @ ((ut_rhs - ut_coupling @ alpha_0) / s)
                          for _, _, vt, s, ut_rhs, ut_coupling in eliminated]
    res = F0 @ alpha_0 - T0
    return alphas, float(res @ res), [int(rank)] + [len(e[3]) for e in eliminated]


def assert_solves_as_svd_solve(report, blocks):
    """``report``, a solve of the coupled system ``blocks`` (its balls
    blocks), has the ranks of ``svd_solve``'s and its loss within 1e-5,
    relative."""
    _, loss, ranks = svd_solve(blocks)
    assert report.block_ranks == ranks
    assert report.loss == pytest.approx(loss, rel=1e-5, abs=0)


def all_coefficients(report):
    """Every subdomain's coefficients of ``report``, concatenated in
    subdomain order."""
    return np.concatenate(report.alphas)


def rel_err(approx, exact, floor=1.0):
    """Max elementwise error relative to the larger of |exact| and a floor.

    The floor keeps near-zero entries (saturated tanh tails) from inflating
    the ratio: errors are judged against the scale of the bundle.
    """
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = np.maximum(np.abs(exact), max(floor, 1e-2 * np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact) / scale))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
