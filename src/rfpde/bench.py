"""Benchmark harness: test grids, the relative l2 error, and run artifacts.

A run executes the adaptive solver on a named benchmark, evaluates the
piecewise expansion on a uniform test grid (each point evaluated with the
basis of the subdomain that owns it), and writes a manifest plus CSV/JSON
artifacts sufficient to re-check every reported number offline. ``run`` with
the manifest's ``benchmark`` and ``config`` reproduces the artifacts
bit-identically only at a fixed BLAS build, BLAS thread count and
``_EVAL_CHUNK``: ``predict`` multiplies each chunk's basis values by the
coefficients with BLAS, and a test point's prediction depends on the chunk
it falls in (on peak2d-4ball, chunks of 16384 and of 2048 points give 2 of
65536 predictions that differ by up to 3.9e-14). The scale
candidates' losses are computed at one BLAS thread whenever worker processes
solve them (see ``adaptive``), whatever the thread count of the calling
process.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry as geo
from .adaptive import (AdaptiveConfig, MaxRefinementsError, ScaleSearchError,
                       SolveState, adaptive_solve)
from .lsq import NonConvergenceError
from .pde import SemilinearProblem, benchmark

#: Solver-side failures a run records in its manifest before re-raising.
SOLVER_ERRORS = (NonConvergenceError, MaxRefinementsError, ScaleSearchError,
                 geo.GeometryError)

#: Test points per evaluation chunk. A chunk's temporaries (points x basis
#: size doubles, 16 MB at 1001 functions) stay below glibc's largest dynamic
#: mmap threshold (32 MB), so later chunks and calls reuse heap memory instead
#: of mapping and page-faulting fresh memory each time. Changing it moves
#: predictions in their last bits (see the module docstring).
_EVAL_CHUNK = 2048


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


def predict(state: SolveState, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the piecewise expansion; returns (values, subdomain labels).

    Points on a sphere belong to the ball; a point outside every subdomain is
    a geometry bug and raises.
    """
    labels = state.partition.classify(points)
    if np.any(labels < 0):
        raise RuntimeError("test point assigned to no subdomain")
    values = np.empty(len(points))
    for k in range(state.partition.n_subdomains):
        mask = labels == k
        if not np.any(mask):
            continue
        pts = points[mask]
        out = np.empty(len(pts))
        for start in range(0, len(pts), _EVAL_CHUNK):
            chunk = pts[start:start + _EVAL_CHUNK]
            out[start:start + len(chunk)] = \
                state.bases[k].values(chunk) @ state.report.alphas[k]
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


def run(name: str, config: AdaptiveConfig, outdir) -> dict:
    """Execute one benchmark run and write its artifacts to ``outdir``.

    Writes manifest.json, trace.jsonl, solution.csv and subdomains.json; the
    manifest's "iterations" holds the final solve's Gauss-Newton steps
    ``[n, loss, re_mse]``, and "peak_rss_mb" the peak resident sizes of the
    calling process and of its largest scale-search worker, read once the
    artifacts are written (``_peak_rss_mb``). A solver failure writes
    manifest.json alone, with status="failed", the error and the history the
    exception carries, and is re-raised: "trace" holds the refinement
    records of a MaxRefinementsError (empty for other failures),
    "iterations" the steps of a NonConvergenceError.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    problem = benchmark(name)
    cfg = config.resolved(problem.dim)

    t_start = time.perf_counter()
    timings = {}
    manifest = {"benchmark": name, "config": cfg.to_dict(), "status": "ok"}

    def diagnostic(state: SolveState) -> float:
        return evaluate_on_grid(state, problem, cfg.test_resolution).err_l2()

    try:
        state, trace = adaptive_solve(
            problem, cfg, diagnostic=diagnostic if problem.exact else None)
        timings["solve_s"] = time.perf_counter() - t_start
    except SOLVER_ERRORS as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        records = exc.trace if isinstance(exc, MaxRefinementsError) else None
        manifest["trace"] = [r.to_dict() for r in records or []]
        if isinstance(exc, NonConvergenceError):
            manifest["iterations"] = [list(step) for step in exc.trace]
        with open(outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
        raise

    t_eval = time.perf_counter()
    grid = evaluate_on_grid(state, problem, cfg.test_resolution)
    timings["evaluate_s"] = time.perf_counter() - t_eval

    _write_solution_csv(outdir / "solution.csv", grid)
    _write_trace_jsonl(outdir / "trace.jsonl", trace)
    _write_subdomains_json(outdir / "subdomains.json", state)
    timings["total_s"] = time.perf_counter() - t_start

    manifest.update({
        "err_l2": grid.err_l2(),
        "n_balls": state.partition.n_balls,
        "final_loss": state.report.loss,
        "iterations": [list(step) for step in state.report.iterations],
        "trace": [r.to_dict() for r in trace],
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
