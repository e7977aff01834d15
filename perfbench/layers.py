"""Which solver calls a traced run wraps, and the per-layer metrics made from them.

The layers are the solver's modules. Each patch names the attribute its
callers look up: ``adaptive`` calls ``lsq.*`` and ``geo.*`` through the
module, ``lsq`` calls its own functions through its globals, and
``adaptive`` holds its own binding of ``pde.operator_residuals``.
"""

from __future__ import annotations

import numpy as np


def svd_lstsq_flops(m: int, n: int) -> float:
    """Computed operation count of an SVD least-squares solve of an m x n
    matrix, 4pq^2 + 8q^3 with p = max(m, n), q = min(m, n) (Golub and Van
    Loan, Matrix Computations, 3rd ed., Table 5.5.1)."""
    p, q = max(m, n), min(m, n)
    return 4.0 * p * q * q + 8.0 * q ** 3


def _note_matrix(tracer, matrix) -> float:
    mb = matrix.nbytes / 1e6
    tracer.counts["lsq.matrix_mb_max"] = max(tracer.counts["lsq.matrix_mb_max"], mb)
    return mb


def _count_solve(tracer, args, report):
    m, n = args[0].matrix.shape
    tracer.counts["lsq.solve_min_norm.gflop"] += svd_lstsq_flops(m, n) / 1e9
    _note_matrix(tracer, args[0].matrix)


def _count_assemble(tracer, args, blocks):
    mb = _note_matrix(tracer, blocks.matrix)
    if mb > tracer.counts["lsq.assemble.mb_max"]:
        tracer.counts["lsq.assemble.mb_max"] = mb
        tracer.counts["lsq.assemble.zero_share"] = \
            1.0 - np.count_nonzero(blocks.matrix) / blocks.matrix.size


def _count_assemble_local(tracer, args, blocks):
    _note_matrix(tracer, blocks.matrix)


def _count_iterations(key):
    def count(tracer, args, report):
        tracer.counts[key] += len(report.iterations)
    return count


def _count_scale_search(tracer, args, result):
    tracer.counts["adaptive.scale_search.candidates"] += len(result.losses)
    tracer.counts["adaptive.refinements"] += 1


def _count_collocation(tracer, args, sets):
    tracer.counts["geometry.collocation_points"] = sum(
        len(p) for kind in (sets.interior, sets.boundary, sets.interface) for p in kind)


def _count_evals(key):
    def count(tracer, args, result):
        tracer.counts[key] += result.size    # points x basis functions
    return count


def patches(rfpde):
    """(owner, attribute, span name, count) for every wrapped call."""
    lsq, ada, geo = rfpde.lsq, rfpde.adaptive, rfpde.geometry
    basis_set = rfpde.basis.BasisSet
    return [
        (lsq, "solve_min_norm", "lsq.solve_min_norm", _count_solve),
        (lsq, "assemble", "lsq.assemble", _count_assemble),
        (lsq, "assemble_local", "lsq.assemble_local", _count_assemble_local),
        (lsq, "gauss_newton", "lsq.gauss_newton",
         _count_iterations("lsq.gauss_newton.iterations")),
        (lsq, "gauss_newton_core", "lsq.gauss_newton_core",
         _count_iterations("lsq.gauss_newton_core.iterations")),
        (ada, "scale_search", "adaptive.scale_search", _count_scale_search),
        (ada, "mean_residual", "adaptive.mean_residual", None),
        (ada, "locate_peak", "adaptive.locate_peak", None),
        (ada, "operator_residuals", "pde.operator_residuals", None),
        (geo, "reclassify_collocation", "geometry.reclassify_collocation",
         _count_collocation),
        (basis_set, "values", "basis.values", _count_evals("basis.values.evals")),
        (basis_set, "laplacians", "basis.laplacians",
         _count_evals("basis.laplacians.evals")),
        (basis_set, "normal_derivatives", "basis.normal_derivatives",
         _count_evals("basis.normal_derivatives.evals")),
    ]


#: Span name -> the totals of it that are reported ("s", "self_s", "calls").
SPAN_TOTALS = {
    "lsq.solve_min_norm": ("s", "self_s", "calls"),
    "lsq.assemble": ("s", "self_s", "calls"),
    "lsq.gauss_newton": ("s", "calls"),
    "lsq.assemble_local": ("s", "calls"),
    "adaptive.scale_search": ("s", "self_s"),
    "pde.operator_residuals": ("s",),
    "basis.values": ("s",),
    "basis.laplacians": ("s",),
    "basis.normal_derivatives": ("s",),
    "bench.evaluate_on_grid": ("s",),
    "geometry.reclassify_collocation": ("s",),
}

#: Counted metric -> unit.
COUNTS = {
    "lsq.solve_min_norm.gflop": "GFLOP",
    "lsq.matrix_mb_max": "MB",
    "lsq.assemble.zero_share": "1",
    "lsq.gauss_newton.iterations": "count",
    "lsq.gauss_newton_core.iterations": "count",
    "adaptive.scale_search.candidates": "count",
    "adaptive.refinements": "count",
    "basis.values.evals": "count",
    "basis.laplacians.evals": "count",
    "basis.normal_derivatives.evals": "count",
    "bench.test_points": "count",
    "geometry.collocation_points": "count",
}


def layer_metrics(tracer, solve_span: str) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced operation."""
    totals = tracer.totals()
    out = {}
    for name, keys in SPAN_TOTALS.items():
        row = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for key in keys:
            out[f"{name}.{key}"] = (row[key], "count" if key == "calls" else "s")
    for name, unit in COUNTS.items():
        out[name] = (tracer.counts[name], unit)
    out["adaptive.gate.s"] = (sum(totals[n]["s"] for n in
                                  ("adaptive.mean_residual", "adaptive.locate_peak")
                                  if n in totals), "s")
    out["trace.solve_s"] = (totals[solve_span]["s"], "s")
    out["trace.overhead_s"] = (tracer.overhead_s, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
