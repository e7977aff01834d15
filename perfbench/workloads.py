"""The benchmark's workloads and its own checks of a solution.

A workload fixes everything the solver receives: the named problem, the
solver configuration (its random seed included) and the test resolution.
The checks use only what the benchmark knows independently of the solver:
the peak centres of each problem and the closed form of its exact solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Sharpness of the Gaussian peaks of every workload, exp(-1000 |x - p|^2).
PEAK_SHARPNESS = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str                    # argument of rfpde.benchmark
    config: dict                    # keywords of rfpde.AdaptiveConfig
    peaks: tuple                    # peak centres of the exact solution
    test_resolution: int            # test-grid points per axis
    centre_tol: float               # largest distance of a ball centre from its peak
    err_l2_max: Optional[float]     # accuracy gate; None leaves err_l2 ungated
    # A check that fails because of a known fault of the solver: its failure
    # counts the operation as failed instead of making the run incorrect.
    fault_err_l2_below: Optional[float] = None
    fault: str = ""

    @property
    def test_points(self) -> int:
        return self.test_resolution ** len(self.peaks[0])


# The solver seed is part of each workload and stays 1: the number of
# refinements, the chosen scales and err_l2 all depend on it (err_l2 of
# peak2d-case1 is 6.5e-4 at seed 1 and 9.7e-4 at seed 2), so a workload whose
# solver seed varied would have no steady accuracy or time to measure.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="peak2d-4ball", problem="peak2d-case3", config=dict(seed=1),
        peaks=((0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)),
        test_resolution=256, centre_tol=0.05, err_l2_max=1e-3),
    Workload(
        name="nonlinear2d-1ball", problem="nonlinear2d-case1", config=dict(seed=1),
        peaks=((0.5, 0.5),),
        test_resolution=256, centre_tol=0.05, err_l2_max=1e-3),
    Workload(
        name="peak3d-1ball", problem="peak3d",
        config=dict(seed=1, epsilon=1e-3, radius=0.11, m0=500),
        peaks=((0.5, 0.5, 0.5),),
        test_resolution=50, centre_tol=0.1, err_l2_max=None,
        fault_err_l2_below=1.0,
        fault="the 3D coupled solve is inaccurate: err_l2 is not below 1, the "
              "error of the zero function, and the scale search picks the "
              "bound scale_max"),
)}


def exact_solution(points, peaks):
    """Sum over the peaks p of exp(-1000 |x - p|^2) at each row of ``points``."""
    pts = np.asarray(points, dtype=float)
    total = np.zeros(len(pts))
    for p in peaks:
        total += np.exp(-PEAK_SHARPNESS * np.sum((pts - np.asarray(p)) ** 2, axis=1))
    return total


def relative_errors(predicted, exact) -> tuple[float, float]:
    """(l2, linf): |pred - exact|_2 / |exact|_2 and max|pred - exact| / max|exact|."""
    diff = np.asarray(predicted, dtype=float) - np.asarray(exact, dtype=float)
    exact = np.asarray(exact, dtype=float)
    l2 = math.sqrt(float(diff @ diff)) / math.sqrt(float(exact @ exact))
    linf = float(np.max(np.abs(diff))) / float(np.max(np.abs(exact)))
    return l2, linf


def centre_problems(centres, peaks, tol: float) -> list[str]:
    """Why the ball centres do not match the peaks one to one within ``tol``."""
    if len(centres) != len(peaks):
        return [f"{len(centres)} balls for {len(peaks)} peaks"]
    for order in itertools.permutations(range(len(peaks))):
        if all(math.dist(c, peaks[i]) <= tol for c, i in zip(centres, order)):
            return []
    return [f"ball centres {[list(map(float, c)) for c in centres]} are not each "
            f"within {tol} of a distinct peak of {list(peaks)}"]


@dataclass
class Verdict:
    err_l2: float
    err_linf: float
    problems: list          # failed checks: the operation's outputs are wrong
    fault: Optional[str]    # the workload's known fault, when its check failed


def check(workload: Workload, points, predicted, centres) -> Verdict:
    """Check one solution on its test grid against the benchmark's own exact solution."""
    points = np.asarray(points, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    problems = []
    expected = (workload.test_points, len(workload.peaks[0]))
    if points.shape != expected:
        problems.append(f"test grid has shape {points.shape}, expected {expected}")
    elif np.any(np.abs(points) > 1.0):
        problems.append("test point outside [-1, 1]^d")
    if predicted.shape != (len(points),) or not np.all(np.isfinite(predicted)):
        problems.append("predicted values missing or not finite")
    l2, linf = relative_errors(predicted, exact_solution(points, workload.peaks))
    if workload.err_l2_max is not None and not l2 <= workload.err_l2_max:
        problems.append(f"err_l2 {l2:.6g} above {workload.err_l2_max}")
    problems += centre_problems(centres, workload.peaks, workload.centre_tol)
    fault = None
    if workload.fault_err_l2_below is not None and not l2 < workload.fault_err_l2_below:
        fault = f"err_l2 {l2:.6g}: {workload.fault}"
    return Verdict(l2, linf, problems, fault)
