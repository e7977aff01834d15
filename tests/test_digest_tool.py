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


def load_tool():
    spec = importlib.util.spec_from_file_location("digest_systems", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_the_same_digests():
    tool = load_tool()
    real = rfpde.lsq.solve_min_norm, rfpde.lsq.gauss_newton_core
    real_map = rfpde.adaptive._candidate_map
    first = tool.digest("peak2d-case1", TINY)
    assert (rfpde.lsq.solve_min_norm, rfpde.lsq.gauss_newton_core) == real
    assert first["scales"] and len(first["scale_losses"][0]) == TINY["scale_max"]
    # the default run, on worker processes: the same shape of losses
    assert [len(losses) for losses in first["pool"]["scale_losses"]] == \
        [len(losses) for losses in first["scale_losses"]]
    assert rfpde.adaptive._candidate_map is real_map
    assert first["systems"] > TINY["scale_max"]
    # a linear problem: every Gauss-Newton solve is one step, one system
    assert first["gauss_newton_steps"] == [1] * first["systems"]
    assert tool.digest("peak2d-case1", TINY) == first
    other = tool.digest("peak2d-case1", {**TINY, "m0": 99})
    assert other["systems_sha256"] != first["systems_sha256"]
    assert other["alpha_sha256"] != first["alpha_sha256"]


def test_gauss_newton_steps_of_a_nonlinear_run():
    tool = load_tool()
    out = tool.digest("nonlinear2d-case1", TINY)
    # the K=0 solve, the scale candidates and the coupled re-solve of each
    # refinement, in call order; every step solves one system
    refinements = len(out["scales"])
    assert len(out["gauss_newton_steps"]) == 1 + refinements * (TINY["scale_max"] + 1)
    assert sum(out["gauss_newton_steps"]) == out["systems"]
    assert max(out["gauss_newton_steps"]) > 1


def test_command_line_names_the_workloads(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    monkeypatch.setattr(sys, "path", list(sys.path))    # main extends it
    assert tool.main(["--workload", "peak2d-4ball", "--src", str(tmp_path)]) == 2
    assert "no solver sources" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        tool.main(["--workload", "no-such-workload"])
