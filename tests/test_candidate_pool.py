"""The scale search's candidates on worker processes.

``adaptive_solve`` solves the candidates on a pool of spawned workers whose
OpenBLAS runs one thread. At one BLAS thread in the calling process too, a
pool run and an in-process run must agree bit for bit, and no worker may
outlive the solve, however it ends.
"""

import concurrent.futures.process
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from rfpde import adaptive as ada
from rfpde import geometry as geo
from rfpde import pde

SRC = Path(__file__).resolve().parents[1] / "src"

#: One refinement of peak2d-case1 and of nonlinear2d-case1 on small bases
#: and point sets.
SMALL = dict(interior_resolution=30, boundary_count=200, ball_resolution=24,
             interface_count=100, scale_max=8, m0=100, m_star=300, epsilon=1e-3,
             seed=3)

#: |w|^2 of every neuron is gamma^2 = 1.5e307, so a Laplacian row's factor
#: 2 s^2 |w|^2 overflows for s >= 3 and not below: candidate 3 fails first
FAILS_FROM_SCALE_3 = dict(SMALL, gamma=math.sqrt(1.5e307))

MULTICORE = ada._usable_cores() > 1


def in_process(monkeypatch):
    monkeypatch.setattr(ada, "_candidate_map", lambda problem, config: nullcontext(map))


def test_pool_and_in_process_runs_match_at_one_blas_thread():
    script = textwrap.dedent("""
        import contextlib, hashlib, json, resource, sys
        import rfpde
        from rfpde import adaptive as ada

        def solve(name, config):
            state, trace = rfpde.adaptive_solve(rfpde.benchmark(name),
                                                rfpde.AdaptiveConfig(**config))
            return {"scales": [r.scale for r in trace],
                    "scale_losses": [r.scale_losses for r in trace],
                    "alpha": hashlib.sha256(state.report.alpha.tobytes()).hexdigest()}

        if __name__ == "__main__":
            config = json.loads(sys.argv[1])
            pool_map = ada._candidate_map
            out = {}
            for name in ("peak2d-case1", "nonlinear2d-case1"):
                ada._candidate_map = pool_map
                pool = solve(name, config)
                ada._candidate_map = lambda problem, config: contextlib.nullcontext(map)
                out[name] = [pool, solve(name, config)]
            out["child_cpu_s"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
            print(json.dumps(out))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(SMALL)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    for name in ("peak2d-case1", "nonlinear2d-case1"):
        pool, here = out[name]
        assert pool["scales"], name
        assert len(pool["scale_losses"][0]) == SMALL["scale_max"]
        assert pool == here, name
    if MULTICORE:
        assert out["child_cpu_s"] > 0      # the pool runs really ran on workers


def test_no_worker_outlives_a_solve():
    problem = pde.benchmark("peak2d-case1")
    state, trace = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
    assert trace
    assert multiprocessing.active_children() == []

    with pytest.raises(ada.MaxRefinementsError) as err:
        ada.adaptive_solve(problem, ada.AdaptiveConfig(
            **{**SMALL, "epsilon": 1e-12, "max_refinements": 1}))
    assert len(err.value.trace) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_workers_failure_raises_with_its_scale(monkeypatch):
    problem = pde.benchmark("peak2d-case1")
    config = ada.AdaptiveConfig(**FAILS_FROM_SCALE_3)
    with pytest.raises(ada.ScaleSearchError) as pooled:
        ada.adaptive_solve(problem, config)
    assert multiprocessing.active_children() == []
    in_process(monkeypatch)
    with pytest.raises(ada.ScaleSearchError) as here:
        ada.adaptive_solve(problem, config)
    assert pooled.value.scale == here.value.scale == 3
    assert str(pooled.value) == str(here.value)


def test_scale_search_error_pickles_with_its_scale():
    back = pickle.loads(pickle.dumps(ada.ScaleSearchError("candidate failed", scale=3)))
    assert (type(back), str(back), back.scale) == \
        (ada.ScaleSearchError, "candidate failed", 3)


def test_candidate_map_falls_back_to_builtin_map(monkeypatch):
    config = ada.AdaptiveConfig(**SMALL)
    lambdas = pde.SemilinearProblem(region=geo.Box(-np.ones(2), np.ones(2)),
                                    forcing=lambda p: np.zeros(len(p)),
                                    boundary=lambda p: np.zeros(len(p)))
    with ada._candidate_map(lambdas, config) as mapper:
        assert mapper is map
    with ada._candidate_map(pde.benchmark("peak2d-case1"),
                            ada.AdaptiveConfig(**{**SMALL, "scale_max": 1})) as mapper:
        assert mapper is map
    if MULTICORE:
        with ada._candidate_map(pde.benchmark("peak2d-case1"), config) as mapper:
            assert mapper is not map
            assert list(mapper(abs, range(-4, 4))) == [4, 3, 2, 1, 0, 1, 2, 3]
            # a worker starts per submitted task, up to min(cores, scale_max)
            assert len(multiprocessing.active_children()) == \
                min(ada._usable_cores(), SMALL["scale_max"])
        assert multiprocessing.active_children() == []
    monkeypatch.setattr(ada.os, "sched_getaffinity", lambda pid: {0})
    with ada._candidate_map(pde.benchmark("peak2d-case1"), config) as mapper:
        assert mapper is map


def test_usable_cores_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity exists on Linux only
    monkeypatch.delattr(ada.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ada.os, "cpu_count", lambda: 3)
    assert ada._usable_cores() == 3
    monkeypatch.setattr(ada.os, "cpu_count", lambda: None)
    assert ada._usable_cores() == 1


def test_a_problem_of_lambdas_solves_in_the_calling_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a problem that does not pickle")
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
    benchmark = pde.benchmark("peak2d-case1")
    problem = pde.SemilinearProblem(region=benchmark.region,
                                    forcing=lambda p: benchmark.forcing(p),
                                    boundary=lambda p: benchmark.boundary(p))
    state, trace = ada.adaptive_solve(problem, ada.AdaptiveConfig(**SMALL))
    assert trace
    in_process(monkeypatch)
    expected, _ = ada.adaptive_solve(benchmark, ada.AdaptiveConfig(**SMALL))
    assert state.report.alpha.tobytes() == expected.report.alpha.tobytes()


#: A problem whose functions a spawned worker cannot import: they live in the
#: main module of a ``python -c`` script, or of a script that solves outside
#: the main guard, and pickle by name
UNIMPORTABLE = textwrap.dedent("""
    import json, multiprocessing, sys
    import rfpde

    bench = rfpde.benchmark("peak2d-case1")

    def forcing(p):
        return bench.forcing(p)

    def boundary(p):
        return bench.boundary(p)

    def solve():
        problem = rfpde.SemilinearProblem(region=bench.region, forcing=forcing,
                                          boundary=boundary)
        state, trace = rfpde.adaptive_solve(
            problem, rfpde.AdaptiveConfig(**json.loads(sys.argv[1])))
        print(json.dumps({"refinements": len(trace),
                          "children": len(multiprocessing.active_children())}))
""")


@pytest.mark.parametrize("case", ["python-c", "no-main-guard", "threads-set-on-import"])
def test_workers_that_die_leave_the_solve_to_the_calling_process(case, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    guarded = UNIMPORTABLE + "if __name__ == '__main__':\n    solve()\n"
    if case == "python-c":
        command = ["-c", guarded]
    else:
        # a worker imports a script file: one that solves outside the main
        # guard runs its solve, one that sets the BLAS threads on import sets
        # them over the worker's 1, and the worker refuses to start
        script = tmp_path / "script.py"
        script.write_text(UNIMPORTABLE + "solve()\n" if case == "no-main-guard" else
                          'import os\nos.environ["OPENBLAS_NUM_THREADS"] = "2"\n'
                          + guarded)
        command = [str(script)]
    done = subprocess.run([sys.executable, *command, json.dumps(SMALL)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"refinements": 1, "children": 0}
    if MULTICORE:
        assert "RuntimeWarning: a scale-search worker died" in done.stderr
    if MULTICORE and case == "threads-set-on-import":
        assert "OPENBLAS_NUM_THREADS is '2' in a scale-search worker" in done.stderr
