"""Semilinear second-order operators and benchmark problems.

The operator family is L u = -lap(u) + N(u) with a user-supplied pointwise
nonlinearity N and its derivative N' (both None for linear problems); its
directional derivative at u along v is -lap(v) + N'(u) v, which is what the
Gauss-Newton rows are built from.

Benchmarks: sharp Gaussian bumps exp(-1000 |x - p|^2) on [-1,1]^2 and
[-1,1]^3 (linear and with the quadratic nonlinearity u^2), and the corner
singularity (x^2 + y^2)^(1/3) on the L-shape [-1,1]^2 \\ [0,1]^2. Forcings
are analytic; boundary data is the trace of the exact solution. Every
benchmark is built from module-level functions, so it pickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .basis import BasisSet
from .geometry import BaseRegion, Box, BoxMinusBox

#: Sharpness of the Gaussian bump benchmarks, exp(-PEAK_SHARPNESS * r^2).
PEAK_SHARPNESS = 1000.0

#: Squared-radius guard below which the corner forcing is considered singular.
CORNER_FORCING_GUARD = 1e-16

PointFn = Callable[[np.ndarray], np.ndarray]
ScalarFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SemilinearProblem:
    """A boundary-value problem -lap(u) + N(u) = f in Omega, u = g on its boundary."""

    region: BaseRegion
    forcing: PointFn
    boundary: PointFn
    nonlinearity: Optional[ScalarFn] = None
    nonlinearity_prime: Optional[ScalarFn] = None
    exact: Optional[PointFn] = None
    name: str = ""

    def __post_init__(self):
        if (self.nonlinearity is None) != (self.nonlinearity_prime is None):
            raise ValueError("nonlinearity and its derivative must come together")

    @property
    def is_linear(self) -> bool:
        return self.nonlinearity is None

    @property
    def dim(self) -> int:
        return self.region.dim


def operator_residuals(problem: SemilinearProblem, basis: BasisSet,
                       alpha: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Strong-form residual L(u_approx) - f at each point, for u_approx = sum alpha_m psi_m."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (basis.size,):
        raise ValueError(f"expected {basis.size} coefficients, got {alpha.shape}")
    lap_u = basis.laplacians(points) @ alpha
    res = -lap_u - problem.forcing(points)
    if problem.nonlinearity is not None:
        u = basis.values(points) @ alpha
        res = res + problem.nonlinearity(u)
    return res


# -- benchmark problems -----------------------------------------------------

_PEAK_CENTERS_2D = {
    "case1": [(0.5, 0.5)],
    "case2": [(0.5, 0.5), (-0.5, -0.5)],
    "case3": [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)],
}


def _bump_sum(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exact solution: the sum of the bumps exp(-a |x - c|^2) over ``centers``."""
    points = np.atleast_2d(points)
    a = PEAK_SHARPNESS
    total = np.zeros(points.shape[0])
    for c in centers:
        r2 = np.sum((points - c) ** 2, axis=1)
        total += np.exp(-a * r2)
    return total


def _bump_neg_laplacian(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Linear forcing: -lap of ``_bump_sum``."""
    # lap exp(-a r^2) = (4 a^2 r^2 - 2 a d) exp(-a r^2)
    points = np.atleast_2d(points)
    a = PEAK_SHARPNESS
    d = points.shape[1]
    total = np.zeros(points.shape[0])
    for c in centers:
        r2 = np.sum((points - c) ** 2, axis=1)
        total -= (4.0 * a * a * r2 - 2.0 * a * d) * np.exp(-a * r2)
    return total


def _bump_nonlinear_forcing(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Forcing of -lap(u) + u^2 for the bump sum u."""
    return _bump_neg_laplacian(points, centers) + _bump_sum(points, centers) ** 2


def _square(u: np.ndarray) -> np.ndarray:
    return u * u


def _twice(u: np.ndarray) -> np.ndarray:
    return 2.0 * u


def _peak_problem(name: str, centers, dim: int, nonlinear: bool) -> SemilinearProblem:
    # module-level functions bound by ``partial``: the problem pickles, so a
    # worker process can receive it
    centers = np.asarray(centers, dtype=float)
    region = Box(-np.ones(dim), np.ones(dim))
    exact = partial(_bump_sum, centers=centers)
    if nonlinear:
        return SemilinearProblem(region=region,
                                 forcing=partial(_bump_nonlinear_forcing, centers=centers),
                                 boundary=exact, nonlinearity=_square,
                                 nonlinearity_prime=_twice, exact=exact, name=name)
    return SemilinearProblem(region=region,
                             forcing=partial(_bump_neg_laplacian, centers=centers),
                             boundary=exact, exact=exact, name=name)


def _corner_exact(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points)
    return (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** (1.0 / 3.0)


def _corner_forcing(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points)
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    if np.any(r2 < CORNER_FORCING_GUARD):
        raise ValueError("forcing evaluated at the singular corner")
    return -(4.0 / 9.0) * r2 ** (-2.0 / 3.0)


def _corner_problem() -> SemilinearProblem:
    region = BoxMinusBox(outer=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                         removed=Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
    return SemilinearProblem(region=region, forcing=_corner_forcing,
                             boundary=_corner_exact, exact=_corner_exact,
                             name="corner2d")


BENCHMARKS = (
    "peak2d-case1", "peak2d-case2", "peak2d-case3",
    "nonlinear2d-case1", "nonlinear2d-case2", "nonlinear2d-case3",
    "corner2d", "peak3d",
)


def benchmark(name: str) -> SemilinearProblem:
    """Construct a benchmark problem by name (see BENCHMARKS)."""
    if name == "corner2d":
        return _corner_problem()
    if name == "peak3d":
        return _peak_problem(name, [(0.5, 0.5, 0.5)], dim=3, nonlinear=False)
    for prefix, nonlinear in (("peak2d-", False), ("nonlinear2d-", True)):
        if name.startswith(prefix):
            case = name[len(prefix):]
            if case in _PEAK_CENTERS_2D:
                return _peak_problem(name, _PEAK_CENTERS_2D[case], dim=2,
                                     nonlinear=nonlinear)
    raise ValueError(f"unknown benchmark {name!r}; choose one of {BENCHMARKS}")
