"""Adaptive outer loop: residual gating, ball placement, scale search.

The driver solves the coupled problem on the current partition, measures the
mean squared interior residual on subdomain 0, and while it exceeds the
threshold: places a ball at the collocation point with the largest absolute
residual, reclassifies collocation points, picks an integer frequency
multiplier for the new ball's basis by trying 1..L on a local problem with
the subdomain-0 trace frozen, and re-solves the coupled system. Existing
balls keep their bases and collocation; only coefficients change. So the
scale search returns the new ball complete, as an ``lsq.KeptBall`` of the
winning candidate's rows (for a linear problem, with its block's elimination),
and every later coupled solve takes the ball from it unchanged; only
subdomain 0's rows are evaluated again (reclassification changes them).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from . import basis as basis_mod
from . import geometry as geo
from . import lsq
from .pde import SemilinearProblem, operator_residuals


class MaxRefinementsError(RuntimeError):
    """Residual gate still failing after the refinement cap."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ScaleSearchError(RuntimeError):
    """An inner solve of the scale search failed; carries the candidate s."""

    def __init__(self, message: str, scale: int):
        super().__init__(message)
        self.scale = scale


#: Accepted values of each annotation of an ``AdaptiveConfig`` field.
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "str": str,
                "Optional[int]": (numbers.Integral, type(None))}


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive solver.

    Resolution fields left as None fall back to the dimension defaults:
    2D interior 50x50 lattice / 400 boundary / 40x40 ball lattice / 200
    interface points / 256x256 test grid; 3D 10000-target lattice / 2400
    boundary / 8500-target ball lattice / 600 interface points / 50^3 test
    grid. ``interior_resolution`` and ``ball_resolution`` are points per axis
    in 2D and total lattice budgets in 3D.
    """

    epsilon: float = 1e-4
    radius: float = 0.15
    m0: int = 200
    m_star: int = 1000
    scale_max: int = 10
    gamma: float = 2.0
    seed: int = 1
    n_max: int = 50
    tol: float = 1e-5
    max_refinements: int = 16
    strategy: str = "transferable"
    uniform_range: float = 1.0
    interior_resolution: Optional[int] = None
    boundary_count: Optional[int] = None
    ball_resolution: Optional[int] = None
    interface_count: Optional[int] = None
    test_resolution: Optional[int] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"config field {f.name!r} must be {f.type}, "
                                 f"not {value!r}")
        if self.epsilon <= 0 or self.radius <= 0:
            raise ValueError("epsilon and radius must be positive")
        if min(self.m0, self.m_star, self.scale_max, self.n_max) < 1:
            raise ValueError("basis counts, scale bound and n_max must be >= 1")
        if self.strategy not in ("transferable", "uniform"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def resolved(self, dim: int) -> "AdaptiveConfig":
        """Fill in dimension-dependent resolution defaults."""
        defaults = {
            2: dict(interior_resolution=50, boundary_count=400, ball_resolution=40,
                    interface_count=200, test_resolution=256),
            3: dict(interior_resolution=10000, boundary_count=2400,
                    ball_resolution=8500, interface_count=600, test_resolution=50),
        }[dim]
        updates = {k: v for k, v in defaults.items() if getattr(self, k) is None}
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "AdaptiveConfig":
        """Config from field names; a key that names no field is rejected."""
        unknown = sorted(set(data) - set(AdaptiveConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return AdaptiveConfig(**data)


@dataclass
class RefinementRecord:
    """One adaptive refinement: the ball added and the diagnostics around it."""

    index: int                     # ball index K
    center: list
    radius: float
    scale: int
    mean_residual_before: float
    mean_residual_after: float
    loss: float                    # squared residual at the re-solve's coefficients
    # the re-solve's Gauss-Newton steps, [n, loss, re_mse]
    iterations: Optional[list] = None
    err_l2: Optional[float] = None
    scale_losses: Optional[list] = None
    seconds: Optional[float] = None
    # per subdomain of the coupled re-solve: the squared residual of its rows
    # of each row kind, its block's rank and [largest, smallest] retained
    # singular value, and the norm of its coefficients
    residuals: Optional[list] = None
    block_ranks: Optional[list] = None
    block_sigmas: Optional[list] = None
    alpha_norms: Optional[list] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveState:
    """Solved piecewise expansion: partition, bases, collocation, coefficients."""

    partition: geo.PartitionState
    bases: list
    colloc: geo.CollocationSets
    report: lsq.SolveReport            # report.alphas: coefficients per subdomain


@dataclass
class ScaleSearchResult:
    scale: int
    basis: basis_mod.BasisSet
    losses: list
    ball: lsq.KeptBall                 # the winning candidate's


def mean_residual(problem: SemilinearProblem, basis0: basis_mod.BasisSet,
                  alpha0: np.ndarray, points: np.ndarray) -> float:
    """Mean of squared interior residuals over the subdomain-0 points."""
    if len(points) == 0:
        raise ValueError("empty interior point set")
    res = operator_residuals(problem, basis0, alpha0, points)
    return float(np.mean(res * res))


def locate_peak(problem: SemilinearProblem, basis0: basis_mod.BasisSet,
                alpha0: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Collocation point with the largest absolute residual (first on ties)."""
    if len(points) == 0:
        raise ValueError("empty interior point set")
    res = operator_residuals(problem, basis0, alpha0, points)
    return points[int(np.argmax(np.abs(res)))].copy()


def scale_search(problem: SemilinearProblem, basis0: basis_mod.BasisSet,
                 alpha0: np.ndarray, ball: geo.BallSubdomain,
                 colloc: geo.CollocationSets,
                 config: AdaptiveConfig) -> ScaleSearchResult:
    """Pick the integer frequency multiplier for a new ball's basis.

    One draw of ``config.m_star`` neurons (substream = ball index) is
    rescaled for every candidate s = 1..``config.scale_max``; each candidate
    solves the local problem with the subdomain-0 expansion frozen at
    ``alpha0``, and the smallest squared residual at its returned
    coefficients wins (ties to the smaller s). The winner is returned as the
    finished ``lsq.KeptBall``.
    """
    k = ball.index
    raw = basis_mod.generate_transferable(config.m_star, config.gamma, problem.dim,
                                          config.seed, stream=k)
    interior = colloc.interior[k]
    boundary = colloc.boundary[k]
    interface = colloc.interface[k]

    losses = []
    best = None
    for s in range(1, config.scale_max + 1):
        candidate = basis_mod.rescale(raw, ball.center, s)
        try:
            rows = lsq.ball_rows(problem, ball, candidate, basis0, interior,
                                 boundary, interface)

            def assembler(alpha_k, rows=rows):
                return lsq.assemble_local(problem, rows, alpha0, alpha_k=alpha_k)

            report = lsq.gauss_newton_core(assembler, problem.is_linear,
                                           config.n_max, config.tol)
        except (lsq.NonConvergenceError, lsq.AssemblyError) as exc:
            raise ScaleSearchError(f"scale candidate s={s} failed: {exc}", scale=s) \
                from exc
        losses.append(report.loss)
        if best is None or report.loss < best[2]:
            best = (s, candidate, report.loss, rows)
    return ScaleSearchResult(scale=best[0], basis=best[1], losses=losses,
                             ball=lsq.keep_ball(problem, best[3]))


def _base_basis(problem: SemilinearProblem, config: AdaptiveConfig) -> basis_mod.BasisSet:
    d = problem.dim
    if config.strategy == "uniform":
        return basis_mod.generate_uniform(config.m0, config.uniform_range, d,
                                          config.seed, stream=0)
    b = basis_mod.generate_transferable(config.m0, config.gamma, d, config.seed,
                                        stream=0)
    # hyperplanes are laid out in the unit ball; map the base domain into it
    return replace(b, scale=1.0 / problem.region.circumradius())


def initial_collocation(problem: SemilinearProblem,
                        config: AdaptiveConfig) -> geo.CollocationSets:
    cfg = config.resolved(problem.dim)
    if problem.dim == 2:
        interior = geo.generate_interior_grid(problem.region,
                                              resolution=cfg.interior_resolution)
    else:
        interior = geo.generate_interior_grid(problem.region,
                                              target=cfg.interior_resolution)
    boundary = geo.generate_boundary_points(problem.region, cfg.boundary_count)
    return geo.CollocationSets.initial(interior, boundary)


def adaptive_solve(problem: SemilinearProblem, config: AdaptiveConfig,
                   diagnostic: Optional[Callable[[SolveState], float]] = None
                   ) -> tuple[SolveState, list[RefinementRecord]]:
    """Run the full adaptive loop; returns the solved state and the trace.

    ``diagnostic``, when given, is evaluated on the state after every coupled
    re-solve and stored in the trace (the benchmark harness passes the
    relative l2 error against the exact solution); its time is not part of a
    record's ``seconds``.
    """
    cfg = config.resolved(problem.dim)
    partition = geo.PartitionState(problem.region)
    colloc = initial_collocation(problem, cfg)
    bases = [_base_basis(problem, cfg)]
    kept: list[lsq.KeptBall] = []

    report = lsq.gauss_newton(partition, problem, bases[0], colloc.interior[0],
                              colloc.boundary[0], kept, cfg.n_max, cfg.tol)
    state = SolveState(partition, list(bases), colloc, report)
    trace: list[RefinementRecord] = []

    gate = mean_residual(problem, bases[0], report.alphas[0], colloc.interior[0])
    while gate > cfg.epsilon:
        if partition.n_balls >= cfg.max_refinements:
            raise MaxRefinementsError(
                f"mean residual {gate:.3e} still above {cfg.epsilon:.3e} after "
                f"{cfg.max_refinements} refinements", trace=trace)
        t0 = time.perf_counter()
        center = locate_peak(problem, bases[0], report.alphas[0], colloc.interior[0])

        radius = cfg.radius
        for attempt in range(4):  # halve up to 3 times on ball overlap
            try:
                partition = geo.split_subdomain(partition, center, radius)
                break
            except geo.RefinementConflictError:
                if attempt == 3:
                    raise
                radius *= 0.5

        k = partition.n_balls
        colloc = geo.reclassify_collocation(colloc, partition,
                                            interior_resolution=cfg.ball_resolution,
                                            interface_count=cfg.interface_count)
        search = scale_search(problem, bases[0], report.alphas[0], partition.ball(k),
                              colloc, cfg)
        bases.append(search.basis)
        kept.append(search.ball)

        report = lsq.gauss_newton(partition, problem, bases[0], colloc.interior[0],
                                  colloc.boundary[0], kept, cfg.n_max, cfg.tol)
        state = SolveState(partition, list(bases), colloc, report)

        new_gate = mean_residual(problem, bases[0], report.alphas[0],
                                 colloc.interior[0])
        seconds = time.perf_counter() - t0
        trace.append(RefinementRecord(
            index=k, center=center.tolist(), radius=radius, scale=search.scale,
            mean_residual_before=gate, mean_residual_after=new_gate,
            loss=report.loss, iterations=[list(step) for step in report.iterations],
            err_l2=None if diagnostic is None else float(diagnostic(state)),
            scale_losses=[float(v) for v in search.losses],
            seconds=seconds, residuals=report.residuals,
            block_ranks=report.block_ranks, block_sigmas=report.block_sigmas,
            alpha_norms=report.alpha_norms))
        gate = new_gate

    return state, trace
