import json
import os
import resource
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_solve, run_from_manifest

from rfpde import adaptive as ada
from rfpde import basis as bas
from rfpde import bench
from rfpde import geometry as geo
from rfpde import lsq, pde
from rfpde import cli
from rfpde.cli import main as cli_main


SMALL = dict(interior_resolution=30, boundary_count=200, ball_resolution=24,
             interface_count=100, scale_max=8, m0=100, m_star=300,
             epsilon=1e-3, radius=0.15, gamma=2.0, seed=3, test_resolution=64)


class TestErrL2:
    def test_identical_fields(self, rng):
        u = rng.standard_normal(100)
        assert bench.err_l2(u, u) == 0.0

    def test_doubling_gives_one(self, rng):
        u = rng.standard_normal(100) + 2.0
        assert bench.err_l2(2.0 * u, u) == pytest.approx(1.0, rel=1e-14)

    def test_direct_formula(self):
        assert bench.err_l2(np.array([1.0, 0.0]), np.array([1.0, 1.0])) \
            == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)

    def test_zero_denominator(self):
        with pytest.raises(bench.UndefinedMetricError):
            bench.err_l2(np.ones(3), np.zeros(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bench.err_l2(np.ones(3), np.ones(4))


def in_span_state(m=40, seed=11):
    region = geo.Box(-np.ones(2), np.ones(2))
    b = bas.generate_transferable(m, 2.0, 2, seed=seed)
    coeffs = np.linspace(-1, 1, b.size)

    def trace_fn(p):
        return b.values(np.atleast_2d(p)) @ coeffs

    def forcing(p):
        return -(b.laplacians(np.atleast_2d(p)) @ coeffs)

    problem = pde.SemilinearProblem(region=region, forcing=forcing,
                                    boundary=trace_fn, exact=trace_fn)
    part = geo.PartitionState(region)
    colloc = geo.CollocationSets.initial(
        geo.generate_interior_grid(region, resolution=25),
        geo.generate_boundary_points(region, 80))
    report = fresh_solve(part, [b], colloc, problem)
    state = ada.SolveState(part, [b], colloc, report)
    return state, problem


class TestEvaluateOnGrid:
    def test_full_box_grid_size(self):
        state, problem = in_span_state()
        grid = bench.evaluate_on_grid(state, problem, 256)
        assert grid.n_points == 256 * 256
        assert grid.err_l2() <= 1e-8

    def test_corner_grid_masked(self):
        problem = pde.benchmark("corner2d")
        part = geo.PartitionState(problem.region)
        b = bas.generate_transferable(30, 2.0, 2, seed=2)
        colloc = geo.CollocationSets.initial(
            geo.generate_interior_grid(problem.region, resolution=20),
            geo.generate_boundary_points(problem.region, 80))
        report = fresh_solve(part, [b], colloc, problem)
        state = ada.SolveState(part, [b], colloc, report)
        grid = bench.evaluate_on_grid(state, problem, 256)
        assert grid.n_points < 256 * 256
        assert np.all(problem.region.in_closure(grid.points))

    def test_partition_of_test_points(self):
        # every test point is assigned to exactly one subdomain, spheres to balls
        state, problem = one_ball_state()
        grid = bench.evaluate_on_grid(state, problem, 64)
        counts = np.bincount(grid.subdomain, minlength=2)
        assert counts.sum() == grid.n_points
        assert counts[1] > 0
        sphere = geo.sample_sphere_uniform(np.array([0.5, 0.5]), 0.15, 8)
        _, labels = bench.predict(state, sphere)
        assert np.all(labels == 1)

    def test_chunked_prediction_matches_direct(self, rng):
        state, problem = in_span_state()
        basis, alpha = state.bases[0], state.report.alphas[0]
        pts = rng.uniform(-1, 1, size=(3 * bas.chunk_rows(basis.n_neurons) + 7, 2))
        vals, _ = bench.predict(state, pts)
        # one row at a time, so no row is summed along with another
        direct = np.array([np.einsum("j,j->", row, alpha)
                           for row in basis.values(pts)])
        assert vals.tobytes() == direct.tobytes()


def one_ball_state():
    """A solved peak2d-case1 state with one ball of radius 0.15 at (0.5, 0.5)."""
    problem = pde.benchmark("peak2d-case1")
    part = geo.split_subdomain(geo.PartitionState(problem.region),
                               np.array([0.5, 0.5]), 0.15)
    b0 = bas.generate_transferable(20, 2.0, 2, seed=1, stream=0)
    b1 = bas.rescale(bas.generate_transferable(25, 2.0, 2, seed=1, stream=1),
                     np.array([0.5, 0.5]), 3)
    colloc = geo.reclassify_collocation(
        part, geo.generate_interior_grid(problem.region, resolution=20),
        geo.generate_boundary_points(problem.region, 80), ball_resolution=12,
        interface_count=40)
    report = fresh_solve(part, [b0, b1], colloc, problem)
    return ada.SolveState(part, [b0, b1], colloc, report), problem


class TestPredictThreads:
    @pytest.fixture(scope="class")
    def state_and_points(self):
        state, problem = one_ball_state()
        points = geo.generate_interior_grid(problem.region, resolution=128)
        return state, points

    def test_same_bytes_for_every_thread_count(self, state_and_points, monkeypatch):
        state, points = state_and_points
        labels = state.partition.classify(points)
        ball_points = np.count_nonzero(labels == 1)
        # at 3 threads subdomain 0 runs as 3 spans, the ball as one span of
        # fewer points than one evaluation chunk
        assert 0 < ball_points < bas.chunk_rows(state.bases[1].n_neurons)
        assert len(points) - ball_points > 3 * bas.chunk_rows(state.bases[0].n_neurons)
        predicted = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # the threads switch as often as they can
        try:
            for cores in (1, 3):
                monkeypatch.setattr(ada, "_usable_cores", lambda cores=cores: cores)
                predicted[cores], _ = bench.predict(state, points)
        finally:
            sys.setswitchinterval(interval)
        assert predicted[1].tobytes() == predicted[3].tobytes()

    def test_no_thread_outlives_predict(self, state_and_points, monkeypatch):
        state, points = state_and_points
        monkeypatch.setattr(ada, "_usable_cores", lambda: 3)
        before = threading.active_count()
        bench.predict(state, points)
        assert threading.active_count() == before

    def test_error_in_a_task_propagates(self, state_and_points, monkeypatch):
        state, points = state_and_points
        monkeypatch.setattr(ada, "_usable_cores", lambda: 3)

        def values(self, x, out=None):
            raise FloatingPointError("evaluation failed")

        monkeypatch.setattr(bas.BasisSet, "values", values)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="evaluation failed"):
            bench.predict(state, points)
        assert threading.active_count() == before


#: Predicts on peak2d-case3's test grid with a fixed, unsolved two-ball state
#: whose coefficients are random and large, and prints the predictions' digest
PREDICT_FIXED_STATE = textwrap.dedent("""
    import hashlib
    import numpy as np
    from rfpde import adaptive as ada, basis as bas, bench, geometry as geo, lsq, pde

    problem = pde.benchmark("peak2d-case3")
    part = geo.PartitionState(problem.region)
    bases = [bas.generate_transferable(400, 2.0, 2, seed=5, stream=0)]
    for k, center in enumerate(([0.5, 0.5], [-0.5, -0.5]), start=1):
        part = geo.split_subdomain(part, np.array(center), 0.2)
        bases.append(bas.rescale(bas.generate_transferable(600, 2.0, 2, seed=5,
                                                           stream=k),
                                 np.array(center), 6))
    rng = np.random.default_rng(7)
    alphas = [1e6 * rng.standard_normal(b.size) for b in bases]
    report = lsq.SolveReport(alphas=alphas, loss=0.0, residuals=[], block_ranks=[],
                             block_sigmas=[])
    state = ada.SolveState(part, bases, None, report)
    points = geo.generate_interior_grid(problem.region, resolution=256)
    predicted, _ = bench.predict(state, points)
    print(hashlib.sha256(predicted.tobytes()).hexdigest())
""")


def test_predictions_do_not_depend_on_blas_threads():
    src = str(Path(bench.__file__).parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", PREDICT_FIXED_STATE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


@pytest.fixture(scope="module")
def case1_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    config = ada.AdaptiveConfig(**SMALL)
    manifest = bench.run("peak2d-case1", config, outdir)
    return outdir, manifest


class TestRun:
    def test_artifacts_written(self, case1_run):
        outdir, manifest = case1_run
        for name in ("manifest.json", "trace.jsonl", "solution.csv",
                     "subdomains.json"):
            assert (outdir / name).exists()
        assert manifest["status"] == "ok"
        assert manifest["n_balls"] == 1
        assert manifest["err_l2"] > 0

    def test_trace_jsonl_parses(self, case1_run):
        outdir, manifest = case1_run
        lines = (outdir / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == manifest["n_balls"]
        assert records[0]["index"] == 1
        assert records[0]["err_l2"] is not None
        # per subdomain, one squared residual per row kind, summing to the
        # coupled loss
        residuals = records[0]["residuals"]
        assert [sorted(r) for r in residuals] == [
            ["boundary", "interior"],
            ["interface-normal", "interface-value", "interior"]]
        assert sum(v for r in residuals for v in r.values()) == \
            pytest.approx(records[0]["loss"], rel=1e-12)
        assert manifest["trace"][0]["residuals"] == residuals
        # conditioning per subdomain, and the Gauss-Newton steps [n, loss,
        # re_mse]: one, the direct solve, for a linear problem
        for key in ("block_ranks", "block_sigmas", "alpha_norms"):
            assert len(records[0][key]) == 2
            assert manifest["trace"][0][key] == records[0][key]
        assert records[0]["iterations"] == [[0, records[0]["loss"], None]]
        assert manifest["trace"][0]["iterations"] == records[0]["iterations"]
        assert manifest["iterations"] == [[0, manifest["final_loss"], None]]
        assert records[0]["converged"] is manifest["trace"][0]["converged"] is True
        assert manifest["converged"] is True
        # the wall times of the scale search and of the coupled re-solve,
        # parts of the refinement's
        record = records[0]
        assert 0 < record["search_seconds"] + record["solve_seconds"] <= record["seconds"]
        assert record["search_seconds"] > 0 and record["solve_seconds"] > 0
        for key in ("search_seconds", "solve_seconds"):
            assert manifest["trace"][0][key] == record[key]
        # per scale candidate, whether its loss is its bound, taken unsolved
        flags = record["scale_loss_is_bound"]
        assert len(flags) == SMALL["scale_max"]
        assert manifest["trace"][0]["scale_loss_is_bound"] == flags
        for loss, bound, by_bound in zip(record["scale_losses"], record["scale_bounds"],
                                         flags):
            assert not by_bound or loss == bound

    def test_picks_at_the_largest_scale_are_flagged(self, case1_run, tmp_path):
        outdir, manifest = case1_run
        # at SMALL the loss still falls at the last candidate, s=8
        assert [r["scale"] for r in manifest["trace"]] == [SMALL["scale_max"]]
        assert manifest["scale_at_bound"] == [1]
        written = json.loads((outdir / "manifest.json").read_text())
        assert written["scale_at_bound"] == [1]
        # it is the run's one warning, and the status stays "ok"
        assert written["warnings"] == [
            "refinement 1: the scale search picked its largest candidate, scale_max=8"]
        assert written["status"] == "ok"
        # at gamma 4 it turns up after s=7
        config = ada.AdaptiveConfig(**{**SMALL, "gamma": 4.0})
        manifest = bench.run("peak2d-case1", config, tmp_path)
        assert [r["scale"] for r in manifest["trace"]] == [7]
        assert manifest["scale_at_bound"] == []
        assert manifest["warnings"] == []

    def test_unconverged_solves_are_recorded(self, tmp_path):
        # one Gauss-Newton step leaves a nonlinear solve short of its
        # stopping rule; the run still finishes, and says so
        config = ada.AdaptiveConfig(**{**SMALL, "n_max": 1, "scale_max": 2,
                                       "max_refinements": 1, "epsilon": 1.0})
        manifest = bench.run("nonlinear2d-case1", config, tmp_path)
        assert manifest["n_balls"] == 1
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert written["converged"] is False
        assert written["trace"][0]["converged"] is False
        record = json.loads((tmp_path / "trace.jsonl").read_text())
        assert record["converged"] is False
        # both candidates run out of steps too; no solve is at K=0 alone
        assert record["scale_converged"] == [False, False]
        assert written["warnings"] == [
            "refinement 1: the scale search picked its largest candidate, scale_max=2",
            "refinement 1: scale candidates [1, 2] did not converge",
            "refinement 1: the coupled re-solve did not converge"]
        assert written["status"] == "ok"

    def test_an_unconverged_solve_without_refinements_is_a_warning(self, tmp_path):
        config = ada.AdaptiveConfig(**{**SMALL, "n_max": 1, "max_refinements": 0,
                                       "epsilon": 1e9})
        manifest = bench.run("nonlinear2d-case1", config, tmp_path)
        assert (manifest["n_balls"], manifest["converged"]) == (0, False)
        assert manifest["warnings"] == ["the final solve did not converge"]

    def test_solve_time_leaves_out_the_diagnostic(self, case1_run):
        # the test-grid error of each refinement record is timed apart from
        # the solve; the problem has an exact solution, so it was evaluated
        _, manifest = case1_run
        timings = manifest["timings"]
        assert sorted(timings) == ["diagnostic_s", "evaluate_s", "solve_s", "total_s"]
        assert timings["diagnostic_s"] > 0 and timings["solve_s"] > 0
        assert timings["solve_s"] + timings["diagnostic_s"] <= timings["total_s"]

    def test_solve_time_excludes_every_diagnostic(self, tmp_path, monkeypatch):
        # a fake clock that only the test-grid evaluations advance: the
        # solve's time must hold none of them, and the final state's grid is
        # the last refinement's, evaluated once
        clock = {"t": 0.0}
        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock["t"])
        real = bench.evaluate_on_grid
        states = []

        def evaluate_on_grid(state, *args, **kwargs):
            clock["t"] += 1000.0
            states.append(state)
            return real(state, *args, **kwargs)
        monkeypatch.setattr(bench, "evaluate_on_grid", evaluate_on_grid)
        manifest = bench.run("peak2d-case1", ada.AdaptiveConfig(**SMALL), tmp_path)
        timings = manifest["timings"]
        assert timings["diagnostic_s"] == 1000.0 * manifest["n_balls"] > 0
        assert timings["solve_s"] == 0.0
        assert timings["evaluate_s"] == 1000.0
        assert timings["total_s"] == timings["diagnostic_s"]
        assert len(states) == len({id(state) for state in states}) == manifest["n_balls"]
        assert manifest["err_l2"] == manifest["trace"][-1]["err_l2"]

    def test_manifest_records_peak_memory(self, case1_run):
        outdir, manifest = case1_run
        written = json.loads((outdir / "manifest.json").read_text())
        assert written["peak_rss_mb"] == manifest["peak_rss_mb"]
        peak = manifest["peak_rss_mb"]
        assert sorted(peak) == ["self", "worker"]
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        assert 0 < peak["self"] <= now
        if ada._usable_cores() > 1:        # the run's scale search had workers
            assert peak["worker"] > 0

    def test_subdomains_json(self, case1_run):
        outdir, _ = case1_run
        data = json.loads((outdir / "subdomains.json").read_text())
        assert data["n_balls"] == 1
        ball = data["balls"][0]
        assert ball["radius"] == SMALL["radius"]
        assert 1 <= ball["scale"] <= SMALL["scale_max"]

    def test_solution_csv_consistent_with_err(self, case1_run):
        outdir, manifest = case1_run
        rows = (outdir / "solution.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["x", "y", "predicted", "exact", "abs_err"]
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        recomputed = bench.err_l2(data[:, 2], data[:, 3])
        assert recomputed == pytest.approx(manifest["err_l2"], abs=1e-14)

    def test_manifest_rerun_is_byte_identical(self, case1_run, tmp_path):
        outdir, _ = case1_run
        rerun_dir = tmp_path / "rerun"
        run_from_manifest(outdir / "manifest.json", rerun_dir)
        assert (rerun_dir / "solution.csv").read_bytes() \
            == (outdir / "solution.csv").read_bytes()

    def test_failed_run_recorded(self, tmp_path):
        config = ada.AdaptiveConfig(**{**SMALL, "max_refinements": 0})
        with pytest.raises(ada.MaxRefinementsError):
            bench.run("peak2d-case1", config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "MaxRefinementsError" in manifest["error"]

    def test_failed_refinement_keeps_the_finished_ones(self, tmp_path):
        # corner2d's second residual peak lies next to ball 1, and no halving
        # of the radius clears it
        with pytest.raises(geo.RefinementConflictError):
            bench.run("corner2d", ada.AdaptiveConfig(**SMALL), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("RefinementConflictError: new ball at")
        assert [r["index"] for r in manifest["trace"]] == [1]
        assert manifest["trace"][0]["err_l2"] > 0

    def test_failed_gauss_newton_recorded(self, tmp_path, monkeypatch):
        fail_after_first_ball(monkeypatch)
        config = ada.AdaptiveConfig(**{**SMALL, "scale_max": 3})
        with pytest.raises(lsq.AssemblyError):
            bench.run("peak2d-case1", config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "AssemblyError: non-finite entries"
        assert manifest["trace"] == [] and "iterations" not in manifest


def fail_after_first_ball(monkeypatch):
    """Make every coupled solve with a ball raise AssemblyError."""
    real = lsq.gauss_newton

    def gauss_newton(problem, basis_0, interior, boundary, kept, *args, **kwargs):
        if kept:
            raise lsq.AssemblyError("non-finite entries")
        return real(problem, basis_0, interior, boundary, kept, *args, **kwargs)

    monkeypatch.setattr(lsq, "gauss_newton", gauss_newton)


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1", **SMALL}))
        code = cli_main(["--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=ok subdomains=2 err_l2=" in out
        # its one warning: the pick at scale_max
        assert out.rstrip().endswith(" warnings=1")
        assert (tmp_path / "out" / "solution.csv").exists()

    def test_flag_overrides(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1", **SMALL}))
        code = cli_main(["--config", str(config_path), "--seed", "9",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9

    def test_every_flag_sets_its_field(self):
        values = {"--m0": ("m0", 120), "--mstar": ("m_star", 340),
                  "--epsilon": ("epsilon", 0.5), "--radius": ("radius", 0.2),
                  "--seed": ("seed", 9), "--gamma": ("gamma", 3.0),
                  "--strategy": ("strategy", "uniform"), "--R": ("uniform_range", 2.5)}
        config_flags = {a.option_strings[0] for a in cli.build_parser()._actions
                        if a.dest in ada.AdaptiveConfig.__dataclass_fields__}
        assert config_flags == set(values)
        argv = ["--problem", "peak2d-case1", "--out", "unused"]
        argv += [token for flag, (_, value) in values.items()
                 for token in (flag, str(value))]
        _, config, _ = cli._load_config(cli.build_parser().parse_args(argv))
        default = ada.AdaptiveConfig()
        for name, value in values.values():
            assert getattr(default, name) != value
            assert getattr(config, name) == value, name

    def test_missing_problem_is_config_error(self, tmp_path):
        assert cli_main(["--out", str(tmp_path / "out")]) == 3

    def test_bad_config_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 3

    def test_solver_failure_exit_code(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1", **SMALL,
                                           "max_refinements": 0}))
        code = cli_main(["--config", str(config_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_unassemblable_system_is_a_recorded_solver_failure(self, tmp_path, capsys):
        # gamma 1e200 overflows subdomain 0's Laplacian rows at the K=0 solve
        out = tmp_path / "out"
        code = cli_main(["--problem", "peak2d-case1", "--gamma", "1e200",
                         "--out", str(out)])
        assert code == 2
        assert "solver failed" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "AssemblyError" in manifest["error"]

    def test_gauss_newton_failure_exit_code(self, tmp_path, monkeypatch):
        fail_after_first_ball(monkeypatch)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1", **SMALL,
                                           "scale_max": 3}))
        code = cli_main(["--config", str(config_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1",
                                           **SMALL, "mstar": 300}))
        code = cli_main(["--config", str(config_path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "mstar" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def config_exit_code(self, tmp_path, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        return cli_main(["--config", str(config_path), "--out", str(tmp_path / "out")])

    def test_json_array_config_is_config_error(self, tmp_path, capsys):
        assert self.config_exit_code(tmp_path, ["peak2d-case1"]) == 3
        assert "JSON object" in capsys.readouterr().err

    def test_problem_key_is_config_error(self, tmp_path, capsys):
        # the config file names its benchmark as ``benchmark`` only
        config = {"problem": "peak2d-case1", **SMALL}
        assert self.config_exit_code(tmp_path, config) == 3
        assert "no benchmark given" in capsys.readouterr().err
        config = {"benchmark": "peak2d-case1", "problem": "peak2d-case2", **SMALL}
        assert self.config_exit_code(tmp_path, config) == 3
        assert "unknown config fields: problem" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_list_sweep_is_config_error(self, tmp_path, capsys):
        config = {"benchmark": "peak2d-case1", **SMALL, "sweep": 5}
        assert self.config_exit_code(tmp_path, config) == 3
        assert "'sweep'" in capsys.readouterr().err

    def test_mistyped_field_is_config_error(self, tmp_path, capsys):
        config = {"benchmark": "peak2d-case1", **SMALL, "m0": "100"}
        assert self.config_exit_code(tmp_path, config) == 3
        assert "'m0'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unsplittable_boundary_count_is_config_error(self, tmp_path, capsys):
        config = {"benchmark": "peak2d-case1", **SMALL, "boundary_count": 3}
        assert self.config_exit_code(tmp_path, config) == 3
        assert "boundary_count" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("argv, config", [
        (["--gamma", "-1"], {}), (["--strategy", "uniform", "--R", "0"], {}),
        ([], {"boundary_count": 0}), ([], {"test_resolution": 1}),
        (["--epsilon", "nan"], {}), (["--seed", "-1"], {})],
        ids=["gamma", "uniform-range", "boundary-count", "test-resolution",
             "epsilon-nan", "seed"])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, argv, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1", **SMALL,
                                           **config}))
        code = cli_main(["--config", str(config_path), *argv,
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("configuration error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sweep_writes_errors_csv(self, tmp_path, source):
        config = {"benchmark": "peak2d-case1", **SMALL}
        argv = ["--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--sweep", "300,400"]
        else:
            config["sweep"] = [300, 400]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["--config", str(config_path)] + argv) == 0
        out = tmp_path / "out"
        errors = (out / "errors.csv").read_text().splitlines()
        assert errors[0] == "m_star,err_l2"
        assert len(errors) == 3
        for line, m in zip(errors[1:], (300, 400)):
            m_star, err = line.split(",")
            assert int(m_star) == m
            sub = json.loads((out / f"mstar{m}" / "manifest.json").read_text())
            assert sub["config"]["m_star"] == m
            assert float(err) == pytest.approx(sub["err_l2"], abs=1e-14)
            # errors.csv entries re-derive from the dumped fields exactly
            rows = (out / f"mstar{m}" / "solution.csv").read_text().splitlines()
            data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
            assert bench.err_l2(data[:, 2], data[:, 3]) \
                == pytest.approx(float(err), abs=1e-14)

    def test_sweep_with_failing_point_keeps_going(self, tmp_path, capsys):
        # m_star=60 cannot pass the residual gate within the refinement cap
        # (its one ball leaves a mean residual of about 2e-5, m_star=300's
        # about 8e-9); the sweep reports the failure and still completes the
        # other point
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"benchmark": "peak2d-case1", **SMALL,
                                           "epsilon": 1e-6, "max_refinements": 1}))
        out = tmp_path / "out"
        code = cli_main(["--config", str(config_path), "--sweep", "60,300",
                         "--out", str(out)])
        assert code == 2
        assert "m_star=60" in capsys.readouterr().err
        failed = json.loads((out / "mstar60" / "manifest.json").read_text())
        assert failed["status"] == "failed"
        assert (out / "mstar300" / "solution.csv").exists()
        errors = (out / "errors.csv").read_text().splitlines()
        assert errors[1].startswith("60,") and errors[1].endswith(",")
        assert float(errors[2].split(",")[1]) > 0
