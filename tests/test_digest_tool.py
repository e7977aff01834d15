"""``tools/digest_systems.py`` digests what the least-squares solve sees.

Two runs of one configuration must give the same digests; a tool whose
digests did not repeat could not tell two checkouts apart.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import rfpde

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest_systems.py"

#: One refinement of peak2d-case1 on small bases and point sets.
TINY = dict(interior_resolution=30, boundary_count=200, ball_resolution=24,
            interface_count=100, scale_max=8, m0=100, m_star=300, epsilon=1e-3,
            seed=3)

#: Test-grid points per axis of the digested predictions.
TEST_RESOLUTION = 40


def load_tool():
    spec = importlib.util.spec_from_file_location("digest_systems", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_the_same_digests():
    tool = load_tool()
    real = rfpde.lsq.solve_min_norm, rfpde.lsq.gauss_newton_core
    real_map, real_search = rfpde.adaptive._candidate_map, rfpde.adaptive.scale_search
    real_sets = rfpde.adaptive.initial_collocation, rfpde.geometry.reclassify_collocation
    first = tool.digest("peak2d-case1", TINY, TEST_RESOLUTION)
    assert (rfpde.lsq.solve_min_norm, rfpde.lsq.gauss_newton_core) == real
    assert (rfpde.adaptive.initial_collocation,
            rfpde.geometry.reclassify_collocation) == real_sets
    assert first["scales"] and len(first["scale_losses"][0]) == TINY["scale_max"]
    # the default run, on worker processes: the same shape of losses
    assert [len(losses) for losses in first["pool"]["scale_losses"]] == \
        [len(losses) for losses in first["scale_losses"]]
    assert rfpde.adaptive._candidate_map is real_map
    assert rfpde.adaptive.scale_search is real_search
    # one kept ball per refinement, each elimination no larger than the
    # square triangular factor of its block's [A | C | T]
    n, n0 = TINY["m_star"] + 1, TINY["m0"] + 1
    assert len(first["kept_ball_bytes"]) == len(first["scales"])
    assert all(0 < b <= 8 * (n + n0 + 1) ** 2 for b in first["kept_ball_bytes"])
    # the K=0 solve, then per refinement the candidates the scale search
    # solved (those with a loss that is not their bound) and the coupled
    # re-solve
    solved = [sum(loss is not None and not by_bound
                  for loss, by_bound in zip(losses, loss_is_bound))
              for losses, loss_is_bound in zip(first["scale_losses"],
                                               first["scale_loss_is_bound"])]
    assert first["systems"] == 1 + sum(n + 1 for n in solved)
    assert len(first["per_system_sha256"]) == first["systems"]
    # a linear problem: every candidate has a bound, and the one of the
    # smallest bound is solved or scored by it
    assert [len(bounds) for bounds in first["scale_bounds"]] == \
        [TINY["scale_max"]] * len(first["scales"])
    for losses, bounds in zip(first["scale_losses"], first["scale_bounds"]):
        assert losses[bounds.index(min(bounds))] is not None
    # a linear problem: every Gauss-Newton solve is one step, one system
    assert first["gauss_newton_steps"] == [1] * first["systems"]
    assert tool.digest("peak2d-case1", TINY, TEST_RESOLUTION) == first
    other = tool.digest("peak2d-case1", {**TINY, "m0": 99}, TEST_RESOLUTION)
    assert other["systems_sha256"] != first["systems_sha256"]
    # subdomain 0's basis differs, so does every system
    assert not set(other["per_system_sha256"]) & set(first["per_system_sha256"])
    assert other["alpha_sha256"] != first["alpha_sha256"]
    # the collocation points depend on the lattices, not on the bases
    assert other["collocation_sha256"] == first["collocation_sha256"]
    # another seed draws other bases: other values on the same test grid
    reseeded = tool.digest("peak2d-case1", {**TINY, "seed": 4}, TEST_RESOLUTION)
    assert reseeded["predictions_sha256"] != first["predictions_sha256"]
    assert reseeded["alpha_sha256"] != first["alpha_sha256"]
    finer = tool.digest("peak2d-case1", {**TINY, "ball_resolution": 25},
                        TEST_RESOLUTION)
    assert finer["collocation_sha256"] != first["collocation_sha256"]


def test_gauss_newton_steps_of_a_nonlinear_run():
    tool = load_tool()
    out = tool.digest("nonlinear2d-case1", TINY, TEST_RESOLUTION)
    # the K=0 solve, the scale candidates and the coupled re-solve of each
    # refinement, in call order; every step solves one system
    refinements = len(out["scales"])
    assert len(out["gauss_newton_steps"]) == 1 + refinements * (TINY["scale_max"] + 1)
    assert sum(out["gauss_newton_steps"]) == out["systems"]
    assert len(out["gauss_newton_converged"]) == len(out["gauss_newton_steps"])
    assert len(out["per_system_sha256"]) == out["systems"]
    # Gauss-Newton gives no bound: every candidate is solved
    assert out["scale_bounds"] == [None] * refinements
    assert out["scale_loss_is_bound"] == [[False] * TINY["scale_max"]] * refinements
    assert all(None not in losses for losses in out["scale_losses"])
    assert max(out["gauss_newton_steps"]) > 1
    # a nonlinear ball is kept as its rows
    assert len(out["kept_ball_bytes"]) == refinements


def test_every_benchmark_collocation_is_digested():
    tool = load_tool()
    first = tool.benchmarks_collocation()
    assert list(first) == list(rfpde.BENCHMARKS) and len(first) == 8
    # the 2D peak problems share the square; the L-shape and the cube differ
    assert first["peak2d-case1"] == first["nonlinear2d-case3"]
    assert len({first["peak2d-case1"], first["corner2d"], first["peak3d"]}) == 3
    assert tool.benchmarks_collocation() == first


def test_command_line_names_the_workloads(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    monkeypatch.setattr(sys, "path", list(sys.path))    # main extends it
    assert tool.main(["--workload", "peak2d-4ball", "--src", str(tmp_path)]) == 2
    assert "no solver sources" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        tool.main(["--workload", "no-such-workload"])
