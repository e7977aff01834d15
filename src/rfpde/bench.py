"""Benchmark harness: test grids, the relative l2 error, and run artifacts.

A run executes the adaptive solver on a named benchmark, evaluates the
piecewise expansion on a uniform test grid (each point evaluated with the
basis of the subdomain that owns it), and writes a manifest plus CSV/JSON
artifacts sufficient to re-check every reported number offline. ``run`` with
the manifest's ``benchmark`` and ``config`` reproduces the artifacts
bit-identically only at a fixed BLAS build and BLAS thread count, because
the coefficients depend on both. The predictions depend only on the
coefficients and the numpy build: ``predict`` evaluates the basis with no
BLAS and sums each row with ``np.einsum``, the same reduction for every row,
so a test point's prediction does not depend on the BLAS thread count, on
how many threads ``predict`` runs (the usable cores of the calling process)
or on which span or chunk of points it falls in. The scale candidates'
losses are computed at one BLAS thread whenever worker processes solve them
(see ``adaptive``), whatever the thread count of the calling process.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adaptive
from . import geometry as geo
from .adaptive import SOLVER_ERRORS, AdaptiveConfig, SolveState, adaptive_solve
from .basis import BasisSet, chunk_rows
from .pde import SemilinearProblem, benchmark

#: Bytes per unit of ``ru_maxrss``: kibibytes on Linux, bytes on macOS.
_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def _peak_rss_mb() -> dict:
    """Peak resident sizes in MB: of this process so far (``self``), and of
    the largest of its children that have been waited for (``worker``: the
    scale-search workers, once their pool is joined; 0 without them)."""
    import resource     # Unix only

    def peak(who):
        return resource.getrusage(who).ru_maxrss * _MAXRSS_UNIT / 1e6
    return {"self": peak(resource.RUSAGE_SELF), "worker": peak(resource.RUSAGE_CHILDREN)}


class UndefinedMetricError(ValueError):
    """The error metric's denominator vanishes."""


def err_l2(predicted: np.ndarray, exact: np.ndarray) -> float:
    """Relative discrete l2 error sqrt(sum |pred - exact|^2 / sum |exact|^2)."""
    predicted = np.asarray(predicted, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if predicted.shape != exact.shape or predicted.ndim != 1 or len(exact) == 0:
        raise ValueError("predicted and exact must be equal-length nonempty vectors")
    denom = np.sqrt(np.sum(exact * exact))
    if denom == 0.0:
        raise UndefinedMetricError("exact field is identically zero")
    return float(np.sqrt(np.sum((predicted - exact) ** 2)) / denom)


@dataclass
class TestGrid:
    """Test points with exact/predicted values and absolute errors."""

    points: np.ndarray
    exact: np.ndarray
    predicted: np.ndarray
    subdomain: np.ndarray

    @property
    def abs_err(self) -> np.ndarray:
        return np.abs(self.predicted - self.exact)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def err_l2(self) -> float:
        return err_l2(self.predicted, self.exact)


def _predict_span(basis: BasisSet, alpha: np.ndarray, points: np.ndarray,
                  out: np.ndarray) -> None:
    """``out`` = the expansion's values at ``points``, evaluated
    ``chunk_rows(M)`` points at a time into one reused buffer of rows."""
    step = chunk_rows(basis.n_neurons)
    buffer = np.empty((min(step, len(points)), basis.size))
    for start in range(0, len(points), step):
        stop = min(start + step, len(points))
        rows = basis.values(points[start:stop], out=buffer[:stop - start])
        # each row summed by the same einsum loop, with no BLAS: a point's
        # value is the same bits whatever rows are summed along with it
        np.einsum("ij,j->i", rows, alpha, out=out[start:stop])


def predict(state: SolveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the piecewise expansion; returns (values, subdomain labels).

    Points on a sphere belong to the ball; a point outside every subdomain is
    a geometry bug and raises. Each subdomain's points are split into at most
    as many contiguous spans as the calling process has usable cores, and
    the spans of every subdomain run together on that many threads (numpy
    releases the GIL in the basis evaluation and the row sums).
    """
    # imported here, not with the package, whose import time it would add to
    from concurrent.futures import ThreadPoolExecutor

    labels = state.partition.classify(points)
    if np.any(labels < 0):
        raise RuntimeError("test point assigned to no subdomain")
    cores = adaptive._usable_cores()
    values = np.empty(len(points))
    owned = []
    with ThreadPoolExecutor(max_workers=cores) as pool:
        tasks = []
        for k in range(state.partition.n_subdomains):
            mask = labels == k
            pts = points[mask]
            if len(pts) == 0:
                continue
            out = np.empty(len(pts))
            owned.append((mask, out))
            basis, alpha = state.bases[k], state.report.alphas[k]
            spans = min(cores, -(-len(pts) // chunk_rows(basis.n_neurons)))
            bounds = [len(pts) * i // spans for i in range(spans + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                tasks.append(pool.submit(_predict_span, basis, alpha,
                                         pts[lo:hi], out[lo:hi]))
        for task in tasks:
            task.result()           # re-raises a task's error
    for mask, out in owned:
        values[mask] = out
    return values, labels


def evaluate_on_grid(state: SolveState, problem: SemilinearProblem,
                     resolution: int) -> TestGrid:
    if problem.exact is None:
        raise ValueError("benchmark has no exact solution to compare against")
    points = geo.generate_interior_grid(problem.region, resolution=resolution)
    predicted, labels = predict(state, points)
    return TestGrid(points=points, exact=problem.exact(points),
                    predicted=predicted, subdomain=labels)


# -- artifacts ---------------------------------------------------------------

def _write_solution_csv(path, grid: TestGrid) -> None:
    d = grid.points.shape[1]
    header = ",".join(["x", "y", "z"][:d] + ["predicted", "exact", "abs_err"])
    table = np.column_stack([grid.points, grid.predicted, grid.exact, grid.abs_err])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _write_trace_jsonl(path, trace) -> None:
    with open(path, "w") as fh:
        for record in trace:
            fh.write(json.dumps(record.to_dict()) + "\n")


def _write_subdomains_json(path, state: SolveState) -> None:
    balls = []
    for ball in state.partition.balls:
        balls.append({
            "index": ball.index,
            "center": ball.center.tolist(),
            "radius": ball.radius,
            "scale": state.bases[ball.index].scale,
        })
    with open(path, "w") as fh:
        json.dump({"n_balls": len(balls), "balls": balls}, fh, indent=2)


def _warnings(state: SolveState, trace: list, scale_at_bound: list,
              scale_max: int) -> list[str]:
    """What a finished run's "ok" does not say: each refinement of
    ``scale_at_bound``, whose scale search picked ``scale_max``, each whose
    scale candidates' or coupled re-solve's Gauss-Newton solve did not
    converge, and an unconverged final solve that no refinement record
    holds (the K=0 solve's)."""
    out = []
    for r in trace:
        if r.index in scale_at_bound:
            out.append(f"refinement {r.index}: the scale search picked its largest "
                       f"candidate, scale_max={scale_max}")
        unconverged = [s for s, ok in enumerate(r.scale_converged or [], 1) if ok is False]
        if unconverged:
            out.append(f"refinement {r.index}: scale candidates {unconverged} did not "
                       "converge")
        if r.converged is False:
            out.append(f"refinement {r.index}: the coupled re-solve did not converge")
    if not trace and not state.report.converged:
        out.append("the final solve did not converge")
    return out


def run(name: str, config: AdaptiveConfig, outdir) -> dict:
    """Execute one benchmark run and write its artifacts to ``outdir``.

    Writes manifest.json, trace.jsonl, solution.csv and subdomains.json; the
    manifest's "iterations" holds the final solve's Gauss-Newton steps
    ``[n, loss, re_mse]``, and "converged" whether that solve met its
    stopping rule (false when it used up n_max steps or took a step that no
    halving made lower); "timings" the wall time of the solve
    ("solve_s"), of the error on the test grid that each refinement record
    carries, which "solve_s" leaves out ("diagnostic_s"), of the
    evaluation of the final state on the test grid ("evaluate_s": the last
    record's, also counted in "diagnostic_s", when the solve ended with a
    refinement) and of the whole run ("total_s"); "scale_at_bound" the
    indices of the refinements whose scale search picked its largest
    candidate, ``scale_max``, where the best scale may lie beyond the range
    searched; "warnings" one line for
    each such refinement, each refinement whose scale candidates or coupled
    re-solve did not converge, and a final solve that did not converge
    (``_warnings``), while "status" stays "ok"; and
    "peak_rss_mb" the peak resident sizes of the calling process and of its
    largest scale-search worker, read once the artifacts are written
    (``_peak_rss_mb``). A solver failure writes manifest.json alone, with
    status="failed", the error and, in "trace", the records of the
    refinements finished before it, which every failure of
    ``SOLVER_ERRORS`` carries out of ``adaptive_solve``; the error is
    re-raised.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    problem = benchmark(name)
    cfg = config.resolved(problem.dim)

    t_start = time.perf_counter()
    timings = {}
    manifest = {"benchmark": name, "config": cfg.to_dict(), "status": "ok"}

    diagnostic_s = 0.0
    last = None         # the latest diagnostic's state, test grid and seconds

    def diagnostic(state: SolveState) -> float:
        nonlocal diagnostic_s, last
        t0 = time.perf_counter()
        grid = evaluate_on_grid(state, problem, cfg.test_resolution)
        seconds = time.perf_counter() - t0
        diagnostic_s += seconds
        last = state, grid, seconds
        return grid.err_l2()

    try:
        state, trace = adaptive_solve(
            problem, cfg, diagnostic=diagnostic if problem.exact else None)
        timings["solve_s"] = time.perf_counter() - t_start - diagnostic_s
        timings["diagnostic_s"] = diagnostic_s
    except SOLVER_ERRORS as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["trace"] = [r.to_dict() for r in exc.trace]
        with open(outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
        raise

    if last is not None and last[0] is state:
        _, grid, timings["evaluate_s"] = last
    else:
        t_eval = time.perf_counter()
        grid = evaluate_on_grid(state, problem, cfg.test_resolution)
        timings["evaluate_s"] = time.perf_counter() - t_eval

    _write_solution_csv(outdir / "solution.csv", grid)
    _write_trace_jsonl(outdir / "trace.jsonl", trace)
    _write_subdomains_json(outdir / "subdomains.json", state)
    timings["total_s"] = time.perf_counter() - t_start

    scale_at_bound = [r.index for r in trace if r.scale == cfg.scale_max]
    manifest.update({
        "err_l2": grid.err_l2(),
        "n_balls": state.partition.n_balls,
        "final_loss": state.report.loss,
        "iterations": [list(step) for step in state.report.iterations],
        "converged": state.report.converged,
        "trace": [r.to_dict() for r in trace],
        "scale_at_bound": scale_at_bound,
        "warnings": _warnings(state, trace, scale_at_bound, cfg.scale_max),
        "timings": timings,
        "peak_rss_mb": _peak_rss_mb(),      # the workers are joined by now
        "artifacts": {
            "solution": str(outdir / "solution.csv"),
            "trace": str(outdir / "trace.jsonl"),
            "subdomains": str(outdir / "subdomains.json"),
        },
    })
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
