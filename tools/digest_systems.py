"""Digest every least-squares system a benchmark workload solves.

Runs one workload of ``perfbench/workloads.py`` (its problem and solver
configuration) through ``rfpde.adaptive_solve`` with ``rfpde.lsq.solve_min_norm``,
``rfpde.lsq.gauss_newton_core``, ``rfpde.adaptive.scale_search`` and the two
builders of collocation sets wrapped, and prints one JSON object:

- ``systems_sha256``: SHA-256 over every system passed to the solve, in call
  order: its ``matrix``, ``rhs`` and ``row_kind``, and each ball block's
  ``matrix``, ``rhs`` and ``coupling``, or, for a ball that reaches the solve
  as its elimination (a kept linear ball), the elimination's six arrays,
  ``coupling``, ``rhs``, ``vt``, ``s``, ``ut_rhs`` and ``ut_coupling``, in
  that order, each with its dtype and shape (the reduced ``coupling`` and
  ``rhs`` have n0 + 1 rows for subdomain 0's n0 columns; its row counts per
  kind are left out);
- ``per_system_sha256``: the SHA-256 of each of those systems alone, of the
  same arrays, in call order, so that a change that solves fewer systems
  shows that each one it does solve is one its parent solved: each entry is
  then also in the parent's list (perhaps in another order, as when the
  scale candidates are solved in another order);
- ``collocation_sha256``: SHA-256 over every collocation set the solve
  builds, in call order: those returned by ``rfpde.adaptive.initial_collocation``
  and by each ``rfpde.geometry.reclassify_collocation``, each set's interior,
  boundary and interface points of every subdomain;
- ``alpha_sha256``: SHA-256 of the final coefficients, every subdomain's
  in subdomain order, concatenated (``np.concatenate(report.alphas)``);
- ``predictions_sha256``: SHA-256 of the solution's values on the
  workload's test grid (``rfpde.evaluate_on_grid(...).predicted`` at its test
  resolution), so that a change to basis evaluation is checked end to end,
  not only on the systems;
- the number of systems, the chosen scales, the scale-candidate losses
  (None for a candidate that the scale search ruled out unsolved),
  ``scale_bounds``, the lower bounds of a linear problem's candidate losses
  (None for a nonlinear problem) and ``scale_loss_is_bound``, per candidate
  whether its loss is its bound, taken without a solve because its block
  has full rank (None per refinement from sources that do not record it);
- ``kept_ball_bytes``: the total ``nbytes`` of the arrays each scale search
  kept, in ball order: a linear ball's elimination, a nonlinear ball's rows;
- ``gauss_newton_steps``: the number of steps of every Gauss-Newton solve,
  in call order, so that a change to the stopping rule shows, and
  ``gauss_newton_converged``: whether each of those solves converged, in
  the same order;
- ``pool``: the coefficient digest and the scale-candidate losses of a
  second, default run, whose scale candidates are solved on worker processes;
- ``benchmarks_collocation_sha256``: for every name in ``rfpde.BENCHMARKS``,
  the SHA-256 of the initial collocation set of that benchmark at the default
  ``AdaptiveConfig`` (``rfpde.adaptive.initial_collocation``), digested like
  ``collocation_sha256``. No solve is run, so it also covers the regions no
  workload solves, such as the L-shape of ``corner2d``.

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


def _update_sets(digest, sets) -> None:
    for kind in (sets.interior, sets.boundary, sets.interface):
        for array in kind:
            _update(digest, array)


def _nbytes(ball) -> int:
    """The bytes of a kept ball's arrays, those of a tuple field included."""
    arrays = [a for field in ball for a in (field if isinstance(field, tuple) else (field,))]
    return sum(a.nbytes for a in arrays if a is not None)


def benchmarks_collocation() -> dict:
    """The digest of every benchmark's initial collocation set, by name."""
    import rfpde

    out = {}
    for name in rfpde.BENCHMARKS:
        sha = hashlib.sha256()
        _update_sets(sha, rfpde.adaptive.initial_collocation(rfpde.benchmark(name),
                                                             rfpde.AdaptiveConfig()))
        out[name] = sha.hexdigest()
    return out


def digest(problem_name: str, config: dict, test_resolution: int) -> dict:
    """Solve ``problem_name`` with ``config`` (``AdaptiveConfig`` keywords),
    digest what the least-squares solve received and returned and the
    solution's values on the test grid of ``test_resolution`` points per
    axis; then solve it again by default, on worker processes."""
    import rfpde

    ada, geo, lsq = rfpde.adaptive, rfpde.geometry, rfpde.lsq
    real, real_core = lsq.solve_min_norm, lsq.gauss_newton_core
    real_initial, real_reclassify = ada.initial_collocation, geo.reclassify_collocation
    real_map, real_search = ada._candidate_map, ada.scale_search
    systems = hashlib.sha256()
    collocation = hashlib.sha256()
    each = []
    steps = []
    converged = []
    kept = []

    def solve_min_norm(blocks):
        arrays = [blocks.matrix, blocks.rhs, blocks.row_kind]
        for ball in blocks.balls:
            if isinstance(ball, lsq.SystemBlocks):
                arrays += [ball.matrix, ball.rhs, ball.coupling]
            else:       # a kept linear ball's elimination
                arrays += [ball.coupling, ball.rhs, ball.vt, ball.s, ball.ut_rhs,
                           ball.ut_coupling]
        system = hashlib.sha256()
        for array in arrays:
            _update(systems, array)
            _update(system, array)
        each.append(system.hexdigest())
        return real(blocks)

    def digested(make):
        def wrapper(*args, **kwargs):
            sets = make(*args, **kwargs)
            _update_sets(collocation, sets)
            return sets
        return wrapper

    def gauss_newton_core(*args, **kwargs):
        report = real_core(*args, **kwargs)
        steps.append(len(report.iterations))
        converged.append(report.converged)
        return report

    def scale_search(*args, **kwargs):
        result = real_search(*args, **kwargs)
        kept.append(_nbytes(result.ball))
        return result

    problem = rfpde.benchmark(problem_name)

    def solve():
        return rfpde.adaptive_solve(problem, rfpde.AdaptiveConfig(**config))

    lsq.solve_min_norm, lsq.gauss_newton_core = solve_min_norm, gauss_newton_core
    ada.initial_collocation = digested(real_initial)
    geo.reclassify_collocation = digested(real_reclassify)
    ada._candidate_map = lambda problem, config: nullcontext(map)
    ada.scale_search = scale_search
    try:
        state, trace = solve()
    finally:
        lsq.solve_min_norm, lsq.gauss_newton_core = real, real_core
        ada.initial_collocation = real_initial
        geo.reclassify_collocation = real_reclassify
        ada._candidate_map, ada.scale_search = real_map, real_search
    grid = rfpde.evaluate_on_grid(state, problem, test_resolution)
    pool_state, pool_trace = solve()
    return {"src": str(Path(rfpde.__file__).parent), "problem": problem_name,
            "systems": len(each), "systems_sha256": systems.hexdigest(),
            "per_system_sha256": each,
            "collocation_sha256": collocation.hexdigest(),
            "alpha_sha256": _sha256(np.concatenate(state.report.alphas)),
            "predictions_sha256": _sha256(grid.predicted),
            "scales": [record.scale for record in trace],
            "scale_losses": [record.scale_losses for record in trace],
            # None too from sources whose records carry no bounds, and below
            # from those that do not record which losses are bounds
            "scale_bounds": [getattr(record, "scale_bounds", None) for record in trace],
            "scale_loss_is_bound": [getattr(record, "scale_loss_is_bound", None)
                                    for record in trace],
            "kept_ball_bytes": kept,
            "gauss_newton_steps": steps,
            "gauss_newton_converged": converged,
            "pool": {"alpha_sha256": _sha256(np.concatenate(pool_state.report.alphas)),
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
    out["benchmarks_collocation_sha256"] = benchmarks_collocation()
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
