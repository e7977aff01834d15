#!/usr/bin/env python3
"""Benchmark of the adaptive solver, one workload per process.

    python3 perfbench/run.py --workload peak2d-4ball --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src`` directory. One operation is one ``rfpde.adaptive_solve`` plus
``rfpde.evaluate_on_grid`` of its solution (repeated, see EVAL_POINTS),
checked against the benchmark's own closed form of the exact solution. Whole operations run until
``--seconds`` have passed. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Spans of a traced run are written to ``perfbench/out``.

``--seed`` is recorded but changes no input: each workload fixes its
solver seed (see workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 5

#: Each solution is evaluated on whole test grids until this many test points
#: are done (10 grids in 2D, 5 in 3D); eval_s is the median time of one grid.
#: Single evaluations of one solution vary by a fifth.
EVAL_POINTS = 600_000

SOLVE_SPAN = "adaptive.adaptive_solve"

#: End-to-end metric -> unit, as printed with ``--trace 0``.
END_TO_END = {"setup_s": "s", "solve_s": "s", "eval_s": "s", "err_l2": "1",
              "err_linf": "1", "peak_rss_mb": "MB"}


def blas_threads() -> int:
    """OpenBLAS threads: the requested count, capped at the usable cores."""
    cores = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS")
    return min(cores, int(requested)) if requested else cores


def setup_seconds(workload: str) -> list[float]:
    """Wall time from starting a process to its being ready for the first solve."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return times


def run_operation(rfpde, workload, problem, config, tracer):
    """One solve and the test-grid evaluations of its solution; returns the
    timings and the checks' verdict."""
    from workloads import check

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span(SOLVE_SPAN):
        state, trace = rfpde.adaptive_solve(problem, config)
    solve_s = time.perf_counter() - t0
    eval_s = []
    for _ in range(-(-EVAL_POINTS // workload.test_points)):
        t1 = time.perf_counter()
        with span("bench.evaluate_on_grid"):
            grid = rfpde.evaluate_on_grid(state, problem, workload.test_resolution)
        eval_s.append(time.perf_counter() - t1)
        if tracer is not None:
            tracer.counts["bench.test_points"] += grid.n_points
    verdict = check(workload, grid.points, grid.predicted,
                    [ball.center for ball in state.partition.balls])
    return {"solve_s": solve_s, "eval_s": statistics.median(eval_s),
            "verdict": verdict, "scales": [r.scale for r in trace]}


def main(argv=None) -> int:
    if not (SRC / "rfpde" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC}", file=sys.stderr)
        return 2
    # must precede the first import of numpy, in this process and its probes
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup = [] if args.trace else setup_seconds(workload.name)

    import numpy as np
    import rfpde
    from layers import layer_metrics, patches
    from tracing import Tracer

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"numpy {np.__version__} {blas['name']} {blas['version']} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}", flush=True)

    problem = rfpde.benchmark(workload.problem)
    config = rfpde.AdaptiveConfig(**workload.config)
    attempted = failed = 0
    correct = True
    done, tracers = [], []
    t_start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_start < args.seconds:
        attempted += 1
        tracer = Tracer() if args.trace else None
        try:
            with tracer.patched(patches(rfpde)) if tracer else nullcontext():
                op = run_operation(rfpde, workload, problem, config, tracer)
        except Exception:
            traceback.print_exc()
            print(f"operation {attempted}: FAILED, the solver raised", flush=True)
            failed += 1
            continue
        v = op["verdict"]
        status = "ok"
        if v.fault:
            failed += 1
            status = f"FAILED ({v.fault})"
        if v.problems:
            correct = False
            status = "WRONG: " + "; ".join(v.problems)
        print(f"operation {attempted}: solve {op['solve_s']:.3f} s, eval "
              f"{op['eval_s']:.3f} s, scales {op['scales']}, err_l2 {v.err_l2:.6g}, "
              f"err_linf {v.err_linf:.6g}: {status}", flush=True)
        done.append(op)
        if tracer is not None:
            tracers.append(tracer)

    if not done:
        print("error: no operation produced a solution", file=sys.stderr)
        return 1

    def median(values):
        return float(statistics.median(values))

    if args.trace:
        per_op = [layer_metrics(t, SOLVE_SPAN) for t in tracers]
        metrics = {name: {"value": median([m[name][0] for m in per_op]), "unit": unit}
                   for name, (_, unit) in per_op[0].items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{workload.name}.jsonl", "w") as fh:
            for i, t in enumerate(tracers, 1):
                t.write_jsonl(fh, workload=workload.name, seed=args.seed, operation=i)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {
            "setup_s": median(setup),
            "solve_s": median([op["solve_s"] for op in done]),
            "eval_s": median([op["eval_s"] for op in done]),
            "err_l2": median([op["verdict"].err_l2 for op in done]),
            "err_linf": median([op["verdict"].err_linf for op in done]),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
