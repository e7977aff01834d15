"""Digest every least-squares system a benchmark workload solves.

Runs one workload of ``perfbench/workloads.py`` (its problem and solver
configuration) through ``rfpde.adaptive_solve`` with ``rfpde.lsq.solve_min_norm``,
``rfpde.lsq.gauss_newton_core`` and the two builders of collocation sets
wrapped, and prints one JSON object:

- ``systems_sha256``: SHA-256 over every system passed to the solve, in call
  order: its ``matrix``, ``rhs`` and ``row_kind``, and each ball block's
  ``matrix``, ``rhs`` and ``coupling``, or, for a ball that reaches the solve
  as its elimination (a kept linear ball), the elimination's six arrays,
  ``coupling``, ``rhs``, ``vt``, ``s``, ``ut_rhs`` and ``ut_coupling``, in
  that order (its ``row_kind`` is left out);
- ``collocation_sha256``: SHA-256 over every collocation set the solve
  builds, in call order: those returned by ``rfpde.adaptive.initial_collocation``
  and by each ``rfpde.geometry.reclassify_collocation``, each set's interior,
  boundary and interface points of every subdomain;
- ``alpha_sha256``: SHA-256 of the final stacked coefficients;
- ``predictions_sha256``: SHA-256 of the solution's values on the
  workload's test grid (``rfpde.evaluate_on_grid(...).predicted`` at its test
  resolution), so that a change to basis evaluation is checked end to end,
  not only on the systems;
- the number of systems, the chosen scales and the scale-candidate losses;
- ``gauss_newton_steps``: the number of steps of every Gauss-Newton solve,
  in call order, so that a change to the stopping rule shows;
- ``pool``: the coefficient digest and the scale-candidate losses of a
  second, default run, whose scale candidates are solved on worker processes.

The wrappers see only calls in this process, so the digested run solves
the scale candidates in this process too, through the private seam
``rfpde.adaptive._candidate_map``.

Two checkouts that pass the same bytes to the solve print the same digests,
whatever their code looks like. ``--src`` names the solver sources to run, so
a change is compared with its parent checkout by running this script twice
from one checkout:

    python3 tools/digest_systems.py --workload peak2d-4ball
    python3 tools/digest_systems.py --workload peak2d-4ball --src ../parent/src

The coefficients repeat bit for bit only at a fixed BLAS build and thread
count, so run both with the same ``OPENBLAS_NUM_THREADS``. The workers always
run one BLAS thread, so the two runs of one checkout match bit for bit only at
``OPENBLAS_NUM_THREADS=1``. The predictions depend only on the coefficients
and the numpy build: ``rfpde.bench.predict`` sums each test point's row with
``np.einsum``, not BLAS, on the usable cores of the calling process, and
equal coefficients give equal predictions at any thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _update(digest, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def _sha256(array) -> str:
    digest = hashlib.sha256()
    _update(digest, array)
    return digest.hexdigest()


def digest(problem_name: str, config: dict, test_resolution: int) -> dict:
    """Solve ``problem_name`` with ``config`` (``AdaptiveConfig`` keywords),
    digest what the least-squares solve received and returned and the
    solution's values on the test grid of ``test_resolution`` points per
    axis; then solve it again by default, on worker processes."""
    import rfpde

    ada, geo, lsq = rfpde.adaptive, rfpde.geometry, rfpde.lsq
    real, real_core = lsq.solve_min_norm, lsq.gauss_newton_core
    real_initial, real_reclassify = ada.initial_collocation, geo.reclassify_collocation
    # absent from sources that solve every candidate in the calling process
    real_map = getattr(ada, "_candidate_map", None)
    systems = hashlib.sha256()
    collocation = hashlib.sha256()
    count = 0
    steps = []

    def solve_min_norm(blocks):
        nonlocal count
        count += 1
        for array in (blocks.matrix, blocks.rhs, blocks.row_kind):
            _update(systems, array)
        for ball in blocks.balls:
            if isinstance(ball, lsq.SystemBlocks):
                arrays = (ball.matrix, ball.rhs, ball.coupling)
            else:       # a kept linear ball's elimination
                arrays = (ball.coupling, ball.rhs, ball.vt, ball.s, ball.ut_rhs,
                          ball.ut_coupling)
            for array in arrays:
                _update(systems, array)
        return real(blocks)

    def digested(make):
        def wrapper(*args, **kwargs):
            sets = make(*args, **kwargs)
            for kind in (sets.interior, sets.boundary, sets.interface):
                for array in kind:
                    _update(collocation, array)
            return sets
        return wrapper

    def gauss_newton_core(*args, **kwargs):
        report = real_core(*args, **kwargs)
        steps.append(len(report.iterations))
        return report

    problem = rfpde.benchmark(problem_name)

    def solve():
        return rfpde.adaptive_solve(problem, rfpde.AdaptiveConfig(**config))

    lsq.solve_min_norm, lsq.gauss_newton_core = solve_min_norm, gauss_newton_core
    ada.initial_collocation = digested(real_initial)
    geo.reclassify_collocation = digested(real_reclassify)
    if real_map is not None:
        ada._candidate_map = lambda problem, config: nullcontext(map)
    try:
        state, trace = solve()
    finally:
        lsq.solve_min_norm, lsq.gauss_newton_core = real, real_core
        ada.initial_collocation = real_initial
        geo.reclassify_collocation = real_reclassify
        if real_map is not None:
            ada._candidate_map = real_map
    grid = rfpde.evaluate_on_grid(state, problem, test_resolution)
    pool_state, pool_trace = solve()
    return {"src": str(Path(rfpde.__file__).parent), "problem": problem_name,
            "systems": count, "systems_sha256": systems.hexdigest(),
            "collocation_sha256": collocation.hexdigest(),
            "alpha_sha256": _sha256(state.report.alpha),
            "predictions_sha256": _sha256(grid.predicted),
            "scales": [record.scale for record in trace],
            "scale_losses": [record.scale_losses for record in trace],
            "gauss_newton_steps": steps,
            "pool": {"alpha_sha256": _sha256(pool_state.report.alpha),
                     "scale_losses": [record.scale_losses for record in pool_trace]}}


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the rfpde package to run")
    args = parser.parse_args(argv)
    if not (Path(args.src) / "rfpde" / "__init__.py").is_file():
        print(f"error: no solver sources at {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    workload = WORKLOADS[args.workload]
    out = {"workload": workload.name,
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    out.update(digest(workload.problem, workload.config, workload.test_resolution))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
