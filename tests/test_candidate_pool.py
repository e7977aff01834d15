"""The scale search's candidates on worker processes.

``adaptive_solve`` solves the candidates on a pool of spawned workers whose
OpenBLAS runs one thread, whatever the calling process or its main module
set. So a pool run's candidate losses equal those of an in-process run at one
BLAS thread bit for bit; at one BLAS thread in the calling process too, so
does the whole solve. No worker may outlive the solve, however it ends.
"""

import concurrent.futures.process
import ctypes
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from conftest import all_coefficients

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


def subprocess_env(threads):
    """This environment with ``OPENBLAS_NUM_THREADS=threads`` and the
    sources under test on the path."""
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                         os.environ.get("PYTHONPATH")])))


NAMES = ("peak2d-case1", "nonlinear2d-case1")

#: Solves the ``NAMES`` at the config ``argv[1]``, on the worker pool or,
#: with ``argv[2] == "in-process"``, in this process, and prints what they
#: chose, the worker children left and their CPU time
SOLVES = textwrap.dedent("""
    import contextlib, hashlib, json, multiprocessing, resource, sys
    import numpy as np
    import rfpde
    from rfpde import adaptive as ada

    def solve(name, config):
        state, trace = rfpde.adaptive_solve(rfpde.benchmark(name),
                                            rfpde.AdaptiveConfig(**config))
        return {"scales": [r.scale for r in trace],
                "scale_losses": [r.scale_losses for r in trace],
                "alpha": hashlib.sha256(np.concatenate(state.report.alphas).tobytes())
                .hexdigest()}

    if __name__ == "__main__":
        if sys.argv[2] == "in-process":
            ada._candidate_map = lambda problem, config: contextlib.nullcontext(map)
        out = {name: solve(name, json.loads(sys.argv[1]))
               for name in ("peak2d-case1", "nonlinear2d-case1")}
        out["children"] = len(multiprocessing.active_children())
        out["child_cpu_s"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
        print(json.dumps(out))
""")


def run_solves(command, threads, mode="pool"):
    """Run a script of ``SOLVES``, named by the interpreter's arguments
    ``command``, at ``OPENBLAS_NUM_THREADS=threads`` on ``SMALL``; return
    what it printed and its stderr."""
    done = subprocess.run([sys.executable, *command, json.dumps(SMALL), mode],
                          env=subprocess_env(threads), capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


@pytest.fixture(scope="module")
def in_process_at_one_thread():
    out, _ = run_solves(["-c", SOLVES], "1", "in-process")
    for name in NAMES:
        assert out[name]["scales"], name
        assert len(out[name]["scale_losses"][0]) == SMALL["scale_max"]
    return out


def assert_on_the_pool(out, stderr):
    assert "a scale-search worker died" not in stderr
    assert out["children"] == 0
    if MULTICORE:
        assert out["child_cpu_s"] > 0      # the candidates really ran on workers


def test_pool_and_in_process_runs_match_at_one_blas_thread(in_process_at_one_thread):
    out, stderr = run_solves(["-c", SOLVES], "1")
    assert_on_the_pool(out, stderr)
    for name in NAMES:
        assert out[name] == in_process_at_one_thread[name], name


def test_the_callers_blas_threads_do_not_reach_the_candidates(in_process_at_one_thread):
    # the coupled solves run at the caller's two threads, so only the
    # candidates' losses must keep their bits
    out, stderr = run_solves(["-c", SOLVES], "2")
    assert_on_the_pool(out, stderr)
    for name in NAMES:
        assert out[name]["scale_losses"] == \
            in_process_at_one_thread[name]["scale_losses"], name


@pytest.mark.parametrize("imported", ["before-numpy", "after-numpy"])
def test_threads_set_by_the_main_module_stay_one_in_the_workers(
        imported, in_process_at_one_thread, tmp_path):
    # every worker imports the script, which sets two BLAS threads over the
    # one the worker started with: before numpy loads OpenBLAS, or after
    setting = 'import os\nos.environ["OPENBLAS_NUM_THREADS"] = "2"\n'
    script = tmp_path / "script.py"
    script.write_text(setting + SOLVES if imported == "before-numpy" else
                      "import numpy\n" + setting + SOLVES)
    out, stderr = run_solves([str(script)], "1")
    assert_on_the_pool(out, stderr)
    for name in NAMES:
        assert out[name]["scale_losses"] == \
            in_process_at_one_thread[name]["scale_losses"], name


def test_numpys_openblas_exports_a_thread_setter():
    # the workers' one thread rests on this export alone; it is looked up,
    # never called, so this process keeps its threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS")
    from numpy.linalg import _umath_linalg
    loaded = ctypes.CDLL(_umath_linalg.__file__)
    assert any(hasattr(loaded, name) for name in ada._OPENBLAS_SET_THREADS)


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


def children(pid):
    """The pids of the live processes whose parent is ``pid``, from ``/proc``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the fields after the command name, which may hold spaces: state, ppid
        state, ppid = stat.rpartition(")")[2].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.append(int(entry))
    return found


def alive(pid):
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def cmdline(pid):
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def wait_for(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)
    return condition()


@pytest.mark.skipif(not MULTICORE or not os.path.isdir("/proc"),
                    reason="needs two usable cores and /proc")
def test_workers_exit_when_the_calling_process_is_killed(tmp_path):
    script = tmp_path / "solve.py"
    script.write_text(textwrap.dedent("""
        import rfpde

        if __name__ == "__main__":
            rfpde.adaptive_solve(rfpde.benchmark("peak2d-case3"), rfpde.AdaptiveConfig())
    """))
    workers = min(ada._usable_cores(), ada.AdaptiveConfig().scale_max)
    proc = subprocess.Popen([sys.executable, str(script)], env=subprocess_env("1"))
    try:
        def spawned():
            return [pid for pid in children(proc.pid) if b"spawn_main" in cmdline(pid)]
        assert wait_for(lambda: len(spawned()) == workers, 120), "no pool started"
        pids = children(proc.pid)          # the workers and the resource tracker
        time.sleep(1.0)                    # the workers take their candidates
        assert proc.poll() is None, "the solve ended before its scale search"
    finally:
        proc.kill()
        proc.wait()
    assert wait_for(lambda: not any(map(alive, pids)), 5), \
        [pid for pid in pids if alive(pid)]


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


def test_a_map_leaves_the_callers_environment_alone(monkeypatch):
    # the pool path on any machine, with no worker spawned
    seen = []

    def recorder(self, fn, *iterables, **kwargs):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return map(fn, *iterables)
    monkeypatch.setattr(ada, "_usable_cores", lambda: 2)
    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor, "map", recorder)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    with ada._candidate_map(pde.benchmark("peak2d-case1"),
                            ada.AdaptiveConfig(**SMALL)) as mapper:
        assert mapper is not map
        assert list(mapper(abs, [-1, 2])) == [1, 2]
    assert seen == ["3"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


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
    assert all_coefficients(state.report).tobytes() == \
        all_coefficients(expected.report).tobytes()


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


@pytest.mark.parametrize("case", ["python-c", "no-main-guard"])
def test_workers_that_die_leave_the_solve_to_the_calling_process(case, tmp_path):
    guarded = UNIMPORTABLE + "if __name__ == '__main__':\n    solve()\n"
    if case == "python-c":
        command = ["-c", guarded]
    else:
        # a worker imports a script file, and one that solves outside the
        # main guard runs its solve
        script = tmp_path / "script.py"
        script.write_text(UNIMPORTABLE + "solve()\n")
        command = [str(script)]
    done = subprocess.run([sys.executable, *command, json.dumps(SMALL)],
                          env=subprocess_env("1"), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"refinements": 1, "children": 0}
    if MULTICORE:
        assert "RuntimeWarning: a scale-search worker died" in done.stderr
