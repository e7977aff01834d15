"""Adaptive outer loop: residual gating, ball placement, scale search.

Every solve, at K=0 and after each refinement, is one step,
``_solve_and_gate``: the coupled problem is solved on the current partition,
and subdomain 0's interior residual is evaluated once at the solution. The
mean of its squares is the gate, and while it exceeds the threshold the
driver places a ball at the collocation point with the largest absolute
entry of that same residual, builds every subdomain's collocation points
from the new partition and the K=0 points
(``geometry.reclassify_collocation``), picks an integer frequency
multiplier for the new ball's basis by trying 1..L on a local problem with
the subdomain-0 trace frozen, and takes the step again. An existing ball
keeps its basis, and its points, which depend on its own geometry alone;
only coefficients change. So the scale search returns the new ball
complete, as ``lsq.keep_ball`` makes it: the winning candidate's rows
(``lsq.SubdomainRows``) for a nonlinear problem, the elimination of its
block alone (``lsq._KeptBall``) for a linear one. Every later coupled solve
takes the ball as it is; only subdomain 0's rows are evaluated again (each
new ball takes points from it), and a kept linear ball's rows, by the same
``lsq.ball_rows`` call, for the solve's residual table alone.

A linear problem's search bounds every candidate before it solves any, and
solves only the candidates that could win; ``scale_search`` describes how,
and why.

The scale candidates do not depend on each other, and ``adaptive_solve``
solves them on a pool of worker processes, started with the ``spawn`` method
by the first scale search and joined before it returns or raises.
There are as many workers as usable cores, at most ``scale_max``. Each
worker sets the OpenBLAS that numpy loaded to one thread once it has
imported the calling script's main module, whatever thread count it started
with or that module set; so every candidate's loss is computed at one BLAS
thread, and the coupled solves keep the calling process's threads. A
worker returns only its candidate's bound, or its loss and whether its
solve converged; the winner's rows are evaluated again in the calling
process, bit for bit the same, since basis evaluation uses no BLAS. Each
worker receives the problem by ``pickle``: a problem that does not pickle
(one built from lambdas, say) has its candidates solved in the calling
process, as they are on a single usable core, by the same code. A script
that calls ``adaptive_solve`` should do so under
``if __name__ == "__main__":``, because every spawned worker imports the
script's main module. A worker that dies (one that re-ran an unguarded
script, or could not import a problem's functions from an interactive
``__main__``) breaks the pool, and the candidates then run in the calling
process, with a warning. A worker exits on its own when the calling process
dies, even by a signal that leaves it no time to join the pool.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from . import basis as basis_mod
from . import geometry as geo
from . import lsq
from .pde import SemilinearProblem, operator_residuals


class MaxRefinementsError(RuntimeError):
    """Residual gate still failing after the refinement cap."""


class ScaleSearchError(RuntimeError):
    """An inner solve of the scale search failed; carries the candidate s."""

    def __init__(self, message: str, scale: int):
        super().__init__(message)
        self.scale = scale

    def __reduce__(self):       # so that it crosses from a worker process
        return type(self), (str(self), self.scale)


#: Solver-side failures. One that escapes ``adaptive_solve`` carries, as its
#: ``trace`` attribute, the records of the refinements finished before it.
SOLVER_ERRORS = (MaxRefinementsError, ScaleSearchError, lsq.AssemblyError,
                 geo.GeometryError)


#: Accepted values of each annotation of an ``AdaptiveConfig`` field.
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "str": str,
                "Optional[int]": (numbers.Integral, type(None))}


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive solver.

    Every ``*_resolution`` field is a number of lattice points per axis, in
    2D and in 3D. Resolution fields left as None fall back to the dimension
    defaults: 2D interior 50^2 lattice / 400 boundary points / 40^2 ball
    lattice / 200 interface points / 256^2 test grid; 3D interior 21^3
    lattice / 2400 boundary points / 20^3 ball lattice / 600 interface
    points / 50^3 test grid.
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
        # written so that NaN fails every comparison
        if not all(0 < v < math.inf for v in (self.epsilon, self.radius, self.gamma,
                                               self.uniform_range)):
            raise ValueError("epsilon, radius, gamma and uniform_range must be "
                             "positive and finite")
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be non-negative and finite")
        if min(self.m0, self.m_star, self.scale_max, self.n_max) < 1:
            raise ValueError("basis counts, scale bound and n_max must be >= 1")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for name, least in (("interior_resolution", 2), ("ball_resolution", 2),
                            ("test_resolution", 2), ("boundary_count", 1),
                            ("interface_count", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, not {value}")
        if self.strategy not in ("transferable", "uniform"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def resolved(self, dim: int) -> "AdaptiveConfig":
        """Fill in dimension-dependent resolution defaults."""
        defaults = {
            2: dict(interior_resolution=50, boundary_count=400, ball_resolution=40,
                    interface_count=200, test_resolution=256),
            3: dict(interior_resolution=21, boundary_count=2400, ball_resolution=20,
                    interface_count=600, test_resolution=50),
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
    # the re-solve's: False if it used up n_max or no halving lowered a step
    converged: Optional[bool] = None
    err_l2: Optional[float] = None
    # per scale candidate s = 1..L: its loss, None for a linear candidate
    # that its bound ruled out unsolved (``ScaleSearchResult``)
    scale_losses: Optional[list] = None
    # per scale candidate, as ``scale_losses``: its Gauss-Newton solve's
    # ``converged``, None where its loss is
    scale_converged: Optional[list] = None
    # per scale candidate of a linear problem: the lower bound of its loss
    # (``lsq.residual_bound``); None for a nonlinear problem
    scale_bounds: Optional[list] = None
    # per scale candidate: whether its loss is its bound, taken unsolved
    # because its block has full rank (``ScaleSearchResult``)
    scale_loss_is_bound: Optional[list] = None
    seconds: Optional[float] = None
    search_seconds: Optional[float] = None   # the scale search's part of seconds
    solve_seconds: Optional[float] = None    # the coupled re-solve's part of seconds
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
    losses: list                       # per candidate; None where ruled out unsolved
    converged: list                    # per candidate, as ``losses``
    # per candidate of a linear problem, ``lsq.residual_bound`` of its
    # block; None for a nonlinear problem
    bounds: Optional[list]
    # per candidate: whether its loss is its bound, taken unsolved because
    # its block has full rank
    loss_is_bound: list
    # the winning candidate's, as ``lsq.keep_ball`` makes it
    ball: lsq.SubdomainRows | lsq._Eliminated


def mean_residual(res: np.ndarray) -> float:
    """Mean of the squared interior residuals ``res`` (of ``_solve_and_gate``)."""
    if len(res) == 0:
        raise ValueError("empty interior point set")
    return float(np.mean(res * res))


def locate_peak(res: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The point of ``points`` whose residual in ``res`` is largest in
    absolute value (the first on ties)."""
    if len(points) == 0:
        raise ValueError("empty interior point set")
    return points[int(np.argmax(np.abs(res)))].copy()


def _solve_and_gate(problem: SemilinearProblem, partition: geo.PartitionState,
                    bases: list, colloc: geo.CollocationSets, kept: list,
                    cfg: AdaptiveConfig) -> tuple[SolveState, np.ndarray, float]:
    """The coupled solve on ``partition``, and subdomain 0's interior residual
    at its coefficients, evaluated once for both ``mean_residual``, the gate,
    and ``locate_peak``, which places the next ball. Returns the solved
    state, that residual and the seconds of the Gauss-Newton solve alone."""
    t0 = time.perf_counter()
    report = lsq.gauss_newton(problem, bases[0], colloc.interior[0], colloc.boundary[0],
                              kept, cfg.n_max, cfg.tol)
    seconds = time.perf_counter() - t0
    res = operator_residuals(problem, bases[0], report.alphas[0], colloc.interior[0])
    return SolveState(partition, list(bases), colloc, report), res, seconds


def _candidate_rows(problem: SemilinearProblem, raw: basis_mod.BasisSet,
                    ball: geo.BallSubdomain, basis0: basis_mod.BasisSet,
                    interior: np.ndarray, boundary: np.ndarray, interface: np.ndarray,
                    s: int) -> tuple[basis_mod.BasisSet, lsq.SubdomainRows]:
    """Scale candidate ``s``'s basis, ``raw`` rescaled by ``s`` about the
    ball's centre, and the ball's rows on it (``lsq.ball_rows``)."""
    basis = basis_mod.rescale(raw, ball.center, s)
    return basis, lsq.ball_rows(problem, ball, basis, basis0, interior, boundary,
                                interface)


def _for_candidate(fn: Callable, *args):
    """``fn(*args)``, whose last argument is a scale candidate s, with an
    ``lsq.AssemblyError`` raised as a ``ScaleSearchError`` of s: the one
    failure rule of a candidate's bound, solve and keep."""
    try:
        return fn(*args)
    except lsq.AssemblyError as exc:
        s = args[-1]
        raise ScaleSearchError(f"scale candidate s={s} failed: {exc}", scale=s) from exc


def _candidate_bound(problem: SemilinearProblem, rows_of: Callable,
                     alpha0: np.ndarray, s: int) -> tuple[float, bool]:
    """The lower bound of linear scale candidate ``s``'s loss, and whether
    its block is proven rank-deficient: its block, as ``_candidate``
    assembles it, checked and bounded by ``lsq.residual_bound``."""
    _, rows = rows_of(s)
    return lsq.residual_bound(lsq.assemble_local(problem, rows, alpha0))


def _candidate(problem: SemilinearProblem, rows_of: Callable, alpha0: np.ndarray,
               n_max: int, tol: float, s: int) -> tuple[float, bool]:
    """Solve scale candidate ``s``, its rows made by ``rows_of(s)``, and
    return its loss and whether its Gauss-Newton solve converged."""
    _, rows = rows_of(s)
    report = lsq.gauss_newton_core(partial(lsq.assemble_local, problem, rows, alpha0),
                                   problem.is_linear, n_max, tol)
    return report.loss, report.converged


def _kept_candidate(problem: SemilinearProblem, rows_of: Callable, s: int
                    ) -> tuple[basis_mod.BasisSet, lsq.SubdomainRows | lsq._Eliminated]:
    """Scale candidate ``s``'s basis, and its ball as ``lsq.keep_ball`` makes
    it from its rows, evaluated here by ``rows_of(s)``."""
    basis, rows = rows_of(s)
    return basis, lsq.keep_ball(problem, rows)


def scale_search(problem: SemilinearProblem, basis0: basis_mod.BasisSet,
                 alpha0: np.ndarray, ball: geo.BallSubdomain,
                 colloc: geo.CollocationSets, config: AdaptiveConfig,
                 mapper: Callable = map) -> ScaleSearchResult:
    """Pick the integer frequency multiplier for a new ball's basis.

    One draw of ``config.m_star`` neurons (substream = ball index) is
    rescaled for every candidate s = 1..``config.scale_max``; each candidate
    solves the local problem with the subdomain-0 expansion frozen at
    ``alpha0``, and the smallest squared residual at its returned
    coefficients wins (ties to the smaller s), whether or not its solve
    converged; ``converged`` records that per candidate. ``mapper`` runs the
    candidates' bounds and solves, like builtin ``map``; ``adaptive_solve``
    passes a worker pool's. Every kept ball is made here, by one cached
    ``_kept_candidate``: the winner's rows are evaluated again, by the same
    ``_candidate_rows``, and returned as the finished ball of
    ``lsq.keep_ball``. A candidate whose assembly fails raises a
    ``ScaleSearchError`` of its s.

    A nonlinear problem solves every candidate, in one map: its
    Gauss-Newton solve has no bound. A linear candidate's loss is its
    truncated-SVD least-squares residual (gelsd), most of the search's time,
    and no loss lies below its bound, R[n,n]^2 of the QR of its [F | T]
    (``lsq.residual_bound``). So a linear search

    1. maps every candidate to its bound, and calls the candidate of the
       smallest bound (ties to the smaller s) the first;
    2. keeps the first, unless its bound proves its block rank-deficient;
    3. takes the first's bound as its loss if the kept block has full rank
       (``lsq._Eliminated.full_rank``, ``loss_is_bound``), or else solves
       it, in one map;
    4. solves, in one more map, every other candidate whose bound is not
       above the first's loss.

    A candidate left out has a loss above the first's, so it cannot win;
    its loss and ``converged`` are None. The pick and every solved loss are
    those of solving every candidate: a solved loss lies below its bound by
    rounding at most (6e-8 relative on the acceptance sweeps), so a
    candidate left out could only tie the pick within rounding, which
    rounding decides in a full search too.

    Why the bound is not the score, and when it is the loss:

    - Where a 2D ball block is rank-deficient the bound is loose: as a
      score it moves the pick in 15 of the 28 runs of the peak2d-case1
      acceptance sweeps (``BENCH_23.json``).
    - Where the block has full rank the bound is the loss (1.9e-14 relative
      from gelsd's on peak3d's ball), and step 3 takes it unsolved:
      ``peak3d-1ball`` then solves none of its 10 candidates, for a
      ``solve_s`` 16.5% lower (``BENCH_24.json``).
    - Step 2 does not keep a first candidate proven rank-deficient, because
      its elimination is wasted when it loses: keeping it anyway made the
      peak2d-case1 acceptance solves at gamma 1 and 3, where it loses,
      18-31% slower (``BENCH_24.json``).
    - The kept elimination's SVD runs at this process's BLAS threads, not
      at the workers' one: for a block with a singular value within
      rounding of the cutoff, whether its loss is its bound or gelsd's can
      depend on this process's thread count.
    """
    k = ball.index
    raw = basis_mod.generate_transferable(config.m_star, config.gamma, problem.dim,
                                          config.seed, stream=k)
    rows_of = partial(_candidate_rows, problem, raw, ball, basis0, colloc.interior[k],
                      colloc.boundary[k], colloc.interface[k])
    task = partial(_for_candidate, _candidate, problem, rows_of, alpha0, config.n_max,
                   config.tol)
    keep = cache(partial(_for_candidate, _kept_candidate, problem, rows_of))
    candidates = range(1, config.scale_max + 1)
    bounds, first, bound_is_loss = None, None, False
    if problem.is_linear:
        scored = list(mapper(partial(_for_candidate, _candidate_bound, problem, rows_of,
                                     alpha0), candidates))
        bounds = [bound for bound, _ in scored]
        first = 1 + bounds.index(min(bounds))
        bound_is_loss = not scored[first - 1][1] and keep(first)[1].full_rank
        solved = {first: (bounds[first - 1], True)} if bound_is_loss else \
            dict(zip([first], mapper(task, [first])))
        rest = [s for s in candidates
                if s != first and bounds[s - 1] <= solved[first][0]]
        solved.update(zip(rest, mapper(task, rest)))
        results = [solved.get(s, (None, None)) for s in candidates]
    else:
        results = list(mapper(task, candidates))
    losses = [loss for loss, _ in results]
    # the first of equal losses
    best = 1 + losses.index(min(loss for loss in losses if loss is not None))
    basis, kept_ball = keep(best)
    return ScaleSearchResult(scale=best, basis=basis, losses=losses,
                             converged=[converged for _, converged in results],
                             bounds=bounds,
                             loss_is_bound=[bound_is_loss and s == first
                                            for s in candidates],
                             ball=kept_ball)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)      # Linux only
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


#: The exports that set an OpenBLAS's thread count: of the OpenBLAS in numpy
#: >= 2 wheels (64- and 32-bit integers), in numpy 1.x wheels, and of
#: distribution and conda builds
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_", "openblas_set_num_threads")


def _init_worker():
    """A worker's initializer: one BLAS thread, and an exit when the process
    that started the pool is gone."""
    _one_loaded_blas_thread()
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent():
    """Exit this process once the process that spawned it has ended.

    A pool's shutdown joins its workers, but a calling process killed by a
    signal joins nothing, and its idle workers would wait for tasks forever.
    A spawned process holds a sentinel of its parent, which the join waits
    on, and which becomes ready when the parent ends, however it ends.
    """
    import multiprocessing

    multiprocessing.parent_process().join()
    os._exit(1)


def _one_loaded_blas_thread():
    """Set the OpenBLAS that numpy loaded to one thread.

    It runs after the worker has imported the calling script's main module,
    so it overrides both the thread count the worker started with and any
    that module set. The export is looked up through numpy's linear-algebra
    extension, whose dependencies ``dlsym`` searches (Windows'
    ``GetProcAddress`` does not); a BLAS that exports none of these names
    (MKL, Accelerate) is left as it is.
    """
    import ctypes

    from numpy.linalg import _umath_linalg
    try:
        blas = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return
    for name in _OPENBLAS_SET_THREADS:
        set_threads = getattr(blas, name, None)
        if set_threads is not None:
            set_threads(1)
            return


@contextmanager
def _candidate_map(problem: SemilinearProblem, config: AdaptiveConfig):
    """The mapper of one adaptive solve's scale candidates.

    It solves them on a ``spawn`` process pool whose workers start at its
    first call and are joined on exit, or with builtin ``map`` on one usable
    core or for a problem that does not pickle. If a worker dies, this call
    and every later one run in the calling process, with a warning: a
    problem's functions defined in an interactive ``__main__`` pickle by
    name, but a spawned worker cannot import them.
    """
    workers = min(_usable_cores(), config.scale_max)
    try:
        pickle.dumps(problem)
    except (pickle.PicklingError, AttributeError, TypeError):
        workers = 1
    if workers < 2:
        yield map
        return
    # imported here, not with the package: they add about a twentieth to the
    # package's import time, and only a solve needs them
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    broken = False

    def pool_map(fn, items):
        nonlocal broken
        items = list(items)
        if not broken:
            try:
                return list(pool.map(fn, items))
            except BrokenProcessPool as exc:
                broken = True
                warnings.warn(f"a scale-search worker died ({exc}); the candidates "
                              "run in the calling process", RuntimeWarning,
                              stacklevel=2)
        return map(fn, items)

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_init_worker) as pool:
        yield pool_map


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
    interior = geo.generate_interior_grid(problem.region, cfg.interior_resolution)
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

    A failure of ``SOLVER_ERRORS`` carries, as its ``trace`` attribute, the
    records of the refinements finished before it.
    """
    trace: list[RefinementRecord] = []
    try:
        cfg = config.resolved(problem.dim)
        partition = geo.PartitionState(problem.region)
        colloc = domain = initial_collocation(problem, cfg)
        bases = [_base_basis(problem, cfg)]
        kept: list[lsq.SubdomainRows | lsq._Eliminated] = []

        state, res, _ = _solve_and_gate(problem, partition, bases, colloc, kept, cfg)
        gate = mean_residual(res)
        with _candidate_map(problem, cfg) as mapper:
            while gate > cfg.epsilon:
                if partition.n_balls >= cfg.max_refinements:
                    raise MaxRefinementsError(
                        f"mean residual {gate:.3e} still above {cfg.epsilon:.3e} after "
                        f"{cfg.max_refinements} refinements")
                t0 = time.perf_counter()
                center = locate_peak(res, colloc.interior[0])

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
                colloc = geo.reclassify_collocation(partition, domain.interior[0],
                                                    domain.boundary[0],
                                                    ball_resolution=cfg.ball_resolution,
                                                    interface_count=cfg.interface_count)
                t_search = time.perf_counter()
                search = scale_search(problem, bases[0], state.report.alphas[0],
                                      partition.ball(k), colloc, cfg, mapper=mapper)
                search_seconds = time.perf_counter() - t_search
                bases.append(search.basis)
                kept.append(search.ball)

                state, res, solve_seconds = _solve_and_gate(problem, partition, bases,
                                                            colloc, kept, cfg)
                report = state.report
                new_gate = mean_residual(res)
                seconds = time.perf_counter() - t0
                trace.append(RefinementRecord(
                    index=k, center=center.tolist(), radius=radius, scale=search.scale,
                    mean_residual_before=gate, mean_residual_after=new_gate,
                    loss=report.loss,
                    iterations=[list(step) for step in report.iterations],
                    converged=report.converged,
                    err_l2=None if diagnostic is None else float(diagnostic(state)),
                    scale_losses=search.losses, scale_converged=search.converged,
                    scale_bounds=search.bounds, scale_loss_is_bound=search.loss_is_bound,
                    seconds=seconds, search_seconds=search_seconds,
                    solve_seconds=solve_seconds,
                    residuals=report.residuals, block_ranks=report.block_ranks,
                    block_sigmas=report.block_sigmas, alpha_norms=report.alpha_norms))
                gate = new_gate
    except SOLVER_ERRORS as exc:
        exc.trace = trace
        raise
    return state, trace
