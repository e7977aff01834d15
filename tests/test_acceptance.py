"""Acceptance gate: every criterion prints one PASS/FAIL line.

Benchmark-scale runs are cached in module-scoped fixtures and shared across
criteria, so the whole module costs roughly one seed/shape-parameter sweep
(~2.1 minutes on 2 cores; README gives the setup). Run
`pytest tests/test_acceptance.py -v` for per-criterion progress; unit-only
runs can skip it with `-m "not acceptance"`.
"""

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, fresh_rows, run_from_manifest

from rfpde import adaptive as ada
from rfpde import basis as bas
from rfpde import bench
from rfpde import geometry as geo
from rfpde import lsq, pde

pytestmark = pytest.mark.acceptance


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def run_case(name: str, seed: int, gamma: float, m_star: int, **overrides):
    problem = pde.benchmark(name)
    cfg = ada.AdaptiveConfig(epsilon=overrides.pop("epsilon", 1e-4),
                             radius=overrides.pop("radius", 0.15),
                             m0=overrides.pop("m0", 200),
                             m_star=m_star, gamma=gamma, seed=seed, **overrides)
    try:
        state, trace = ada.adaptive_solve(problem, cfg)
    except Exception as exc:  # recorded per-run so one bad seed fails softly
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    grid = bench.evaluate_on_grid(state, problem, cfg.resolved(problem.dim).test_resolution)
    return {
        "ok": True,
        "n_balls": state.partition.n_balls,
        "centers": [np.asarray(r.center) for r in trace],
        "scales": [r.scale for r in trace],
        "residuals": [(r.mean_residual_before, r.mean_residual_after) for r in trace],
        "err": grid.err_l2(),
        "report": state.report,
        "records": trace,
    }


SEEDS = (1, 2, 3, 4, 5)
GAMMAS = (1.0, 2.0, 3.0, 4.0)


@pytest.fixture(scope="module")
def case1_sweep():
    """peak2d-case1 at m_star=1000 over seeds x gammas (criteria 4, 6, 7, 8)."""
    return {(s, g): run_case("peak2d-case1", s, g, 1000)
            for g in GAMMAS for s in SEEDS}


@pytest.fixture(scope="module")
def case1_m700():
    return {s: run_case("peak2d-case1", s, 2.0, 700) for s in SEEDS[:3]}


@pytest.fixture(scope="module")
def case3_runs():
    return {s: run_case("peak2d-case3", s, 2.0, 1000) for s in SEEDS}


@pytest.fixture(scope="module")
def corner_sweep():
    return {g: run_case("corner2d", 1, g, 1000, epsilon=1e-3, radius=0.32, m0=600)
            for g in GAMMAS}


@pytest.fixture(scope="module")
def peak3d_run():
    """peak3d at the criterion-10 settings (criteria 10, 13)."""
    return run_case("peak3d", 1, 2.0, 1000, epsilon=1e-3, radius=0.11, m0=500)


def test_criterion_1_derivative_oracles(rng):
    worst_grad, worst_lap = 0.0, 0.0
    for dim in (2, 3):
        for trial in range(5):
            if trial % 2:
                b = bas.generate_uniform(15, 1.5, dim, seed=300 + trial)
            else:
                b = bas.generate_transferable(15, 2.0, dim, seed=300 + trial)
            if trial == 4:
                b = bas.rescale(b, rng.uniform(-0.2, 0.2, size=dim), 3)
            pts = rng.uniform(-1.0, 1.0, size=(120, dim))
            vals = lambda X: b.values(X)
            grads = np.stack([b.normal_derivatives(pts, np.broadcast_to(e, pts.shape))
                              for e in np.eye(dim)], axis=2)
            laps = b.laplacians(pts)
            h = 1e-5
            grad_fd = np.empty_like(grads)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                grad_fd[:, :, j] = (vals(pts + e) - vals(pts - e)) / (2 * h)
            h2 = 1e-4
            lap_fd = np.zeros_like(laps)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h2
                lap_fd += (vals(pts + e) - 2 * vals(pts) + vals(pts - e)) / h2 ** 2
            scale_g = np.maximum(np.abs(grads), max(1.0, 1e-2 * np.abs(grads).max()))
            scale_l = np.maximum(np.abs(laps), max(1.0, 1e-2 * np.abs(laps).max()))
            worst_grad = max(worst_grad, float(np.max(np.abs(grad_fd - grads) / scale_g)))
            worst_lap = max(worst_lap, float(np.max(np.abs(lap_fd - laps) / scale_l)))
    ok = worst_grad <= 1e-6 and worst_lap <= 1e-6
    report("criterion-1 derivative-oracles", ok,
           f"120 points x 5 sets x d in (2,3); worst rel err "
           f"grad={worst_grad:.2e} lap={worst_lap:.2e} (tol 1e-6)")


def test_criterion_2_least_squares_oracles(rng):
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(12, 21))
        cols = int(rng.integers(2, 11))
        F = rng.standard_normal((rows, cols)) + 3.0 * np.eye(rows, cols)
        T = rng.standard_normal(rows)
        blocks = lsq.SystemBlocks(stacked=F, rhs=T,
                                  row_kind=np.zeros(rows, dtype=np.int8))
        sol = lsq.solve_min_norm(blocks)
        brute = np.linalg.solve(F.T @ F, F.T @ T)
        worst = max(worst, float(np.max(np.abs(sol.alphas[0] - brute))))
    min_norm_ok = True
    for _ in range(10):
        rank = int(rng.integers(1, 4))
        F = rng.standard_normal((15, rank)) @ rng.standard_normal((rank, 7))
        T = rng.standard_normal(15)
        blocks = lsq.SystemBlocks(stacked=F, rhs=T,
                                  row_kind=np.zeros(15, dtype=np.int8))
        sol = lsq.solve_min_norm(blocks)
        pin = np.linalg.pinv(F) @ T
        min_norm_ok &= bool(np.allclose(sol.alphas[0], pin, atol=1e-10))
    ok = worst <= 1e-8 and min_norm_ok
    report("criterion-2 least-squares-oracles", ok,
           f"50 well-conditioned systems worst dev={worst:.2e} (tol 1e-8); "
           f"10 rank-deficient min-norm checks {'ok' if min_norm_ok else 'FAILED'}")


def test_criterion_3_in_span_recovery(rng):
    region = geo.Box(-np.ones(2), np.ones(2))
    b = bas.generate_transferable(50, 2.0, 2, seed=404)
    coeffs = rng.standard_normal(b.size)

    def trace_fn(p):
        return b.values(np.atleast_2d(p)) @ coeffs

    def forcing(p):
        return -(b.laplacians(np.atleast_2d(p)) @ coeffs)

    problem = pde.SemilinearProblem(region=region, forcing=forcing,
                                    boundary=trace_fn, exact=trace_fn)
    part = geo.PartitionState(region)
    colloc = geo.CollocationSets.initial(
        geo.generate_interior_grid(region, resolution=50),
        geo.generate_boundary_points(region, 400))
    sol = lsq.solve_min_norm(
        lsq.assemble(problem, fresh_rows(part, [b], colloc, problem)))
    rel = float(np.linalg.norm(sol.alphas[0] - coeffs) / np.linalg.norm(coeffs))
    state = ada.SolveState(part, [b], colloc, sol)
    err = bench.evaluate_on_grid(state, problem, 64).err_l2()
    ok = rel <= 1e-6 and err <= 1e-8
    report("criterion-3 in-span-recovery", ok,
           f"coefficient rel err={rel:.2e} (tol 1e-6), "
           f"err_l2={err:.2e} on 64^2 grid (tol 1e-8)")


def test_criterion_4_peak_discovery_case1(case1_sweep):
    hits, details = 0, []
    for s in SEEDS:
        r = case1_sweep[(s, 2.0)]
        good = r["ok"] and r["n_balls"] == 1 and \
            np.linalg.norm(r["centers"][0] - [0.5, 0.5]) <= 0.05
        hits += int(good)
        details.append(f"s{s}:" + (f"K={r['n_balls']}" if r["ok"] else "error"))
    report("criterion-4 peak-discovery-case1", hits >= 4,
           f"{hits}/5 seeds gave K=1 within 0.05 of (0.5,0.5) [{' '.join(details)}]")


def test_criterion_5_peak_discovery_case3(case3_runs):
    targets = np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])
    hits, details = 0, []
    for s in SEEDS:
        r = case3_runs[s]
        good = r["ok"] and r["n_balls"] == 4
        if good:
            centers = np.stack(r["centers"])
            dists = np.linalg.norm(centers[None, :, :] - targets[:, None, :], axis=2)
            good = bool(np.all(dists.min(axis=1) <= 0.05))
        hits += int(good)
        details.append(f"s{s}:" + (f"K={r['n_balls']}" if r["ok"] else "error"))
    report("criterion-5 peak-discovery-case3", hits >= 4,
           f"{hits}/5 seeds gave K=4 covering all four centers [{' '.join(details)}]")


def test_criterion_6_scale_coefficient(case1_sweep):
    r = case1_sweep[(1, 2.0)]
    scale = r["scales"][0] if r["ok"] else None
    all_scales = [case1_sweep[(s, 2.0)]["scales"][0] for s in SEEDS
                  if case1_sweep[(s, 2.0)]["ok"]]
    ok = r["ok"] and scale in (4, 5, 6)
    report("criterion-6 scale-coefficient", ok,
           f"seed-1 run chose c*={scale} (allowed 4..6); "
           f"all default-config seeds: {all_scales}")


def test_criterion_7_accuracy_case1(case1_sweep):
    errs = {key: r["err"] for key, r in case1_sweep.items() if r["ok"]}
    best_key = min(errs, key=errs.get)
    best = errs[best_key]
    ok = len(errs) > 0 and best <= 1e-3
    report("criterion-7 accuracy-case1", ok,
           f"best err_l2={best:.3e} at seed={best_key[0]} gamma={best_key[1]} "
           f"over {len(errs)} runs on 256^2 grid (tol 1e-3)")


def test_criterion_8_nonlinear_solver(case1_sweep):
    nl = run_case("nonlinear2d-case1", 1, 2.0, 1000)
    lin = case1_sweep[(1, 2.0)]
    rep = nl["report"] if nl["ok"] else None
    converged = bool(nl["ok"] and rep.converged and len(rep.iterations) <= 50)
    final_re = rep.iterations[-1][2] if converged else None
    ratio = nl["err"] / lin["err"] if (nl["ok"] and lin["ok"]) else np.inf
    ok = converged and final_re < 1e-5 and ratio <= 3.0
    report("criterion-8 nonlinear-solver", ok,
           f"Gauss-Newton Re={final_re if final_re is None else format(final_re, '.2e')} "
           f"in {len(rep.iterations) if rep else '?'} iterations (tol 1e-5); "
           f"err ratio nonlinear/linear={ratio:.2f} (tol 3)")


def test_criterion_14_nonlinear_solves_converge(monkeypatch):
    # every coupled solve runs in this process: the K=0 solve, which no
    # record holds, and each refinement's re-solve
    coupled = []
    real = lsq.gauss_newton

    def gauss_newton(*args):
        solve = real(*args)
        coupled.append(solve.converged)
        return solve
    monkeypatch.setattr(lsq, "gauss_newton", gauss_newton)
    nl = run_case("nonlinear2d-case1", 1, 2.0, 1000)
    records = nl["records"] if nl["ok"] else []
    candidates = [c for r in records for c in r.scale_converged]
    ok = bool(records) and len(coupled) == len(records) + 1 \
        and all(c is True for c in coupled + candidates)
    report("criterion-14 nonlinear-solves-converge", ok,
           f"criterion 8's nonlinear2d-case1 run: {sum(coupled)}/{len(coupled)} "
           f"coupled solves (K=0 and each re-solve) and "
           f"{sum(c is True for c in candidates)}/"
           f"{len(candidates)} scale candidates converged (all required)")


def test_criterion_9_corner_singularity(corner_sweep):
    centers_ok = all(r["ok"] and r["n_balls"] == 1
                     and np.linalg.norm(r["centers"][0]) <= 0.1
                     for r in corner_sweep.values())
    errs = {g: r["err"] for g, r in corner_sweep.items() if r["ok"]}
    best_g = min(errs, key=errs.get)
    ok = centers_ok and errs[best_g] <= 1e-2
    report("criterion-9 corner-singularity", ok,
           f"K=1 within 0.1 of origin on all {len(corner_sweep)} sweep runs; "
           f"best err_l2={errs[best_g]:.3e} at gamma={best_g} (tol 1e-2)")


def test_criterion_10_three_dimensional_smoke(peak3d_run):
    r = peak3d_run
    ok = r["ok"] and r["n_balls"] == 1
    decreasing = False
    dist = None
    if ok:
        dist = float(np.linalg.norm(r["centers"][0] - [0.5, 0.5, 0.5]))
        decreasing = all(after < before for before, after in r["residuals"])
        ok = dist <= 0.1 and decreasing
    report("criterion-10 three-d-smoke", ok,
           f"K={r.get('n_balls')} center dist={dist if dist is None else format(dist, '.3f')} "
           f"(tol 0.1); mean residual strictly decreasing: {decreasing}")


def test_criterion_13_three_dimensional_accuracy(peak3d_run):
    r = peak3d_run
    err = r["err"] if r["ok"] else None
    ok = r["ok"] and err <= 5e-2
    report("criterion-13 three-d-accuracy", ok,
           f"peak3d at the criterion-10 settings: K={r.get('n_balls')} "
           f"scales={r.get('scales')} err_l2={err if err is None else format(err, '.3e')} "
           f"on 50^3 grid (tol 5e-2)")


def test_criterion_11_error_vs_basis_count(case1_sweep, case1_m700):
    errs_700 = [case1_m700[s]["err"] for s in SEEDS[:3] if case1_m700[s]["ok"]]
    errs_1000 = [case1_sweep[(s, 2.0)]["err"] for s in SEEDS[:3]
                 if case1_sweep[(s, 2.0)]["ok"]]
    med700 = float(np.median(errs_700))
    med1000 = float(np.median(errs_1000))
    # non-increasing with growing basis count, one inversion up to 2x allowed
    ok = len(errs_700) == 3 and len(errs_1000) == 3 and med1000 <= 2.0 * med700
    report("criterion-11 error-vs-basis-count", ok,
           f"median err_l2: m*=700 -> {med700:.3e}, m*=1000 -> {med1000:.3e} "
           f"(allow one inversion up to 2x)")


def test_criterion_12_determinism(tmp_path):
    cfg = ada.AdaptiveConfig(epsilon=1e-4, radius=0.15, m0=200, m_star=700,
                             gamma=2.0, seed=3)
    first = bench.run("peak2d-case1", cfg, tmp_path / "a")
    run_from_manifest(tmp_path / "a" / "manifest.json", tmp_path / "b")
    bytes_a = (tmp_path / "a" / "solution.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "solution.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    report("criterion-12 determinism", ok,
           f"two runs from one manifest: solution.csv byte-identical "
           f"({len(bytes_a)} bytes), err_l2={first['err_l2']:.3e}")
