"""Block least-squares assembly and the Gauss-Newton outer loop.

One dense system couples all subdomains: interior rows enforce the strong
form, boundary rows the Dirichlet data, and each interface point contributes
a value row and a normal-derivative row tying a ball block to the subdomain-0
block with opposite signs. Linear problems are solved in one shot; nonlinear
ones by plain (undamped) Gauss-Newton on the linearized system, starting from
zero coefficients, with the relative change of the squared residual as the
stopping measure.

Rows are built in one place, ``_row_groups``, in one order: the interior rows
of every subdomain, then the boundary rows, then a value and a
normal-derivative group per ball. ``assemble`` writes every group into the
coupled system. ``assemble_local``, the single-ball problem of the scale
search, writes one ball's groups only: its matrix is that ball's column block
of the ball's coupled rows, and the subdomain-0 trace, frozen, stays in the
right-hand side instead of contributing columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .basis import BasisSet
from .geometry import BallSubdomain, CollocationSets, PartitionState, outward_normals
from .pde import SemilinearProblem

ROW_INTERIOR = 0
ROW_BOUNDARY = 1
ROW_IFACE_VALUE = 2
ROW_IFACE_NORMAL = 3
ROW_KIND_NAMES = ("interior", "boundary", "interface-value", "interface-normal")

DEFAULT_SVD_CUTOFF = 1e-12


class AssemblyError(ValueError):
    """Collocation/basis data unfit for assembly."""


class NonConvergenceError(RuntimeError):
    """Gauss-Newton diverged; carries the iteration trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class SystemBlocks:
    """Dense system F alpha = T plus row/column provenance maps."""

    matrix: np.ndarray                 # (rows, cols)
    rhs: np.ndarray                    # (rows,)
    col_slices: list[slice]            # one slice of columns per subdomain
    row_kind: np.ndarray               # int8, ROW_* constants
    row_subdomain: np.ndarray          # int32

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def split(self, alpha: np.ndarray) -> list[np.ndarray]:
        return [alpha[sl] for sl in self.col_slices]


@dataclass
class SolveReport:
    """Solution coefficients plus diagnostics of the solve."""

    alpha: np.ndarray                  # stacked coefficients
    alphas: list[np.ndarray]           # per subdomain
    loss: float                        # squared residual |F alpha - T|^2
    rank: int
    residual_by_kind: dict
    iterations: list = field(default_factory=list)  # (n, loss, re_mse)
    converged: bool = True


def _column_layout(bases: Sequence[BasisSet]) -> tuple[list[slice], int]:
    slices = []
    start = 0
    for b in bases:
        slices.append(slice(start, start + b.size))
        start += b.size
    return slices, start


def _interior_block(problem, basis, alpha_k, points):
    lap = basis.laplacians(points)
    rows = -lap
    rhs = problem.forcing(points) + lap @ alpha_k
    if problem.nonlinearity is not None:
        vals = basis.values(points)
        u = vals @ alpha_k
        rows = rows + problem.nonlinearity_prime(u)[:, None] * vals
        rhs = rhs - problem.nonlinearity(u)
    return rows, rhs


class _Subdomain(NamedTuple):
    """One subdomain's share of the rows: basis, current coefficients,
    collocation points, and its ball (None for subdomain 0)."""

    k: int
    basis: BasisSet
    alpha: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    interface: np.ndarray
    ball: Optional[BallSubdomain]

    @property
    def n_rows(self) -> int:
        n_iface = 2 * len(self.interface) if self.k else 0
        return len(self.interior) + len(self.boundary) + n_iface


def _row_groups(problem: SemilinearProblem, subdomains: Sequence[_Subdomain],
                basis_0: BasisSet, alpha_0: np.ndarray):
    """Yield the row groups ``(kind, k, block_k, block_0, rhs)`` of ``subdomains``.

    The order is the system's row order: interior groups, then boundary
    groups, then a value and a normal-derivative group per ball; empty groups
    are skipped. ``block_k`` multiplies subdomain k's coefficients and
    ``block_0`` subdomain 0's (None off the interfaces). Right-hand sides are
    the residuals at the current coefficients, so on an interface they carry
    subdomain 0's trace at ``alpha_0``.
    """
    for s in subdomains:
        if len(s.interior):
            rows, rhs = _interior_block(problem, s.basis, s.alpha, s.interior)
            yield ROW_INTERIOR, s.k, rows, None, rhs
    for s in subdomains:
        if len(s.boundary):
            vals = s.basis.values(s.boundary)
            yield (ROW_BOUNDARY, s.k, vals, None,
                   problem.boundary(s.boundary) - vals @ s.alpha)
    for s in subdomains:
        if s.k == 0 or len(s.interface) == 0:
            continue
        pts = s.interface
        normals = outward_normals(s.ball, pts)
        vals_k = s.basis.values(pts)
        vals_0 = basis_0.values(pts)
        yield (ROW_IFACE_VALUE, s.k, vals_k, -vals_0,
               vals_0 @ alpha_0 - vals_k @ s.alpha)
        nd_k = s.basis.normal_derivatives(pts, normals)
        nd_0 = basis_0.normal_derivatives(pts, normals)
        yield (ROW_IFACE_NORMAL, s.k, nd_k, -nd_0,
               nd_0 @ alpha_0 - nd_k @ s.alpha)


def _system(problem: SemilinearProblem, subdomains: Sequence[_Subdomain],
            basis_0: BasisSet, alpha_0: np.ndarray,
            columns: dict[int, slice]) -> SystemBlocks:
    """Write the row groups of ``subdomains`` into one zero-filled system.

    ``columns`` maps a subdomain index to its column slice. A subdomain-0
    block is written only when subdomain 0 has columns; otherwise its frozen
    trace is in the right-hand side alone.
    """
    n_rows = sum(s.n_rows for s in subdomains)
    if n_rows == 0:
        raise AssemblyError("no rows to assemble")
    F = np.zeros((n_rows, max(sl.stop for sl in columns.values())))
    T = np.empty(n_rows)
    row_kind = np.empty(n_rows, dtype=np.int8)
    row_subdomain = np.empty(n_rows, dtype=np.int32)
    start = 0
    for kind, k, block_k, block_0, rhs in _row_groups(problem, subdomains,
                                                      basis_0, alpha_0):
        rows = slice(start, start + len(rhs))
        F[rows, columns[k]] = block_k
        if block_0 is not None and 0 in columns:
            F[rows, columns[0]] = block_0
        T[rows] = rhs
        row_kind[rows] = kind
        row_subdomain[rows] = k
        start = rows.stop
    return SystemBlocks(matrix=F, rhs=T, col_slices=list(columns.values()),
                        row_kind=row_kind, row_subdomain=row_subdomain)


def assemble(partition: PartitionState, bases: Sequence[BasisSet],
             colloc: CollocationSets, problem: SemilinearProblem,
             alphas: Optional[np.ndarray] = None,
             require_nonempty: bool = True) -> SystemBlocks:
    """Assemble the coupled system, linearized at ``alphas`` (zeros if None).

    At zero coefficients and for a linear operator this is exactly the direct
    transcription of the collocated problem; otherwise rows carry the
    operator's directional derivative and the right-hand side the current
    residuals (including the cancel-the-jump interface terms).
    """
    n_sub = partition.n_subdomains
    if len(bases) != n_sub or colloc.n_subdomains != n_sub:
        raise AssemblyError("bases/collocation do not align with the partition")
    col_slices, n_cols = _column_layout(bases)
    if alphas is None:
        alphas = np.zeros(n_cols)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (n_cols,):
        raise AssemblyError(f"expected {n_cols} stacked coefficients")
    parts = [alphas[sl] for sl in col_slices]

    if require_nonempty:
        for k in range(n_sub):
            if len(colloc.interior[k]) == 0:
                raise AssemblyError(f"empty interior collocation set for subdomain {k}")
            if k >= 1 and len(colloc.interface[k]) == 0:
                raise AssemblyError(f"empty interface collocation set for ball {k}")
        if sum(len(b) for b in colloc.boundary) == 0:
            raise AssemblyError("no boundary collocation points at all")

    subdomains = [_Subdomain(k, bases[k], parts[k], colloc.interior[k],
                             colloc.boundary[k], colloc.interface[k],
                             partition.ball(k) if k else None)
                  for k in range(n_sub)]
    return _system(problem, subdomains, bases[0], parts[0],
                   dict(enumerate(col_slices)))


def assemble_local(problem: SemilinearProblem, ball: BallSubdomain,
                   basis_k: BasisSet, basis_0: BasisSet, alpha_0: np.ndarray,
                   interior: np.ndarray, boundary: np.ndarray, interface: np.ndarray,
                   alpha_k: Optional[np.ndarray] = None) -> SystemBlocks:
    """Single-ball system with the subdomain-0 expansion frozen at ``alpha_0``.

    The frozen trace and normal trace enter the interface right-hand sides;
    only the ball's coefficients are unknowns.
    """
    if len(interior) == 0:
        raise AssemblyError(f"empty interior collocation set for ball {ball.index}")
    if len(interface) == 0:
        raise AssemblyError(f"empty interface collocation set for ball {ball.index}")
    if alpha_k is None:
        alpha_k = np.zeros(basis_k.size)
    alpha_k = np.asarray(alpha_k, dtype=float)
    ball_rows = _Subdomain(ball.index, basis_k, alpha_k, interior, boundary,
                           interface, ball)
    return _system(problem, [ball_rows], basis_0, alpha_0,
                   {ball.index: slice(0, basis_k.size)})


def solve_min_norm(blocks: SystemBlocks) -> SolveReport:
    """Minimum-norm least-squares solution via SVD with relative cutoff.

    Singular directions below DEFAULT_SVD_CUTOFF times the largest singular
    value are discarded; the report carries the effective rank and a
    per-row-kind breakdown of the squared residual.
    """
    F, T = blocks.matrix, blocks.rhs
    if F.size == 0:
        raise AssemblyError("empty system")
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(T))):
        raise AssemblyError("non-finite entries in the assembled system")
    alpha, _, rank, _ = np.linalg.lstsq(F, T, rcond=DEFAULT_SVD_CUTOFF)
    res = F @ alpha - T
    by_kind = {}
    for kind, name in enumerate(ROW_KIND_NAMES):
        mask = blocks.row_kind == kind
        if np.any(mask):
            by_kind[name] = float(np.sum(res[mask] ** 2))
    return SolveReport(alpha=alpha, alphas=blocks.split(alpha),
                       loss=float(res @ res), rank=int(rank),
                       residual_by_kind=by_kind)


#: Divergence guard: abort when the loss exceeds this multiple of the initial loss.
DIVERGENCE_FACTOR = 1e6


def gauss_newton_core(assembler: Callable[[Optional[np.ndarray]], SystemBlocks],
                      is_linear: bool, n_max: int = 50,
                      tol: float = 1e-5) -> SolveReport:
    """Gauss-Newton driver over an assembler callback.

    ``assembler(alphas)`` must return the system linearized at ``alphas``
    (zeros when None). Linear operators take the direct one-shot branch. Each
    step solves for increments, applies them, and stops once the relative
    change of the squared residual drops below ``tol``; exhausting ``n_max``
    returns converged=False, and a loss blow-up beyond DIVERGENCE_FACTOR x
    the initial loss raises NonConvergenceError.
    """
    if is_linear:
        report = solve_min_norm(assembler(None))
        report.iterations = [(0, report.loss, None)]
        report.converged = True
        return report

    blocks = assembler(None)
    alpha = np.zeros(blocks.matrix.shape[1])
    trace = []
    prev_loss = None
    first_loss = None
    report = None
    converged = False
    for n in range(n_max):
        sol = solve_min_norm(blocks)
        alpha = alpha + sol.alpha
        loss = sol.loss
        re_mse = None if prev_loss is None else (
            0.0 if prev_loss == 0.0 else abs(loss - prev_loss) / prev_loss)
        trace.append((n, loss, re_mse))
        report = sol
        if first_loss is None:
            first_loss = loss
        elif loss > DIVERGENCE_FACTOR * max(first_loss, np.finfo(float).tiny):
            raise NonConvergenceError(
                f"Gauss-Newton diverged at step {n}: loss {loss:.3e} vs "
                f"initial {first_loss:.3e}", trace=trace)
        if prev_loss == 0.0 or (re_mse is not None and re_mse < tol):
            converged = True
            break
        prev_loss = loss
        if n + 1 < n_max:
            blocks = assembler(alpha)
    return SolveReport(alpha=alpha, alphas=blocks.split(alpha), loss=trace[-1][1],
                       rank=report.rank, residual_by_kind=report.residual_by_kind,
                       iterations=trace, converged=converged)


def gauss_newton(partition: PartitionState, bases: Sequence[BasisSet],
                 colloc: CollocationSets, problem: SemilinearProblem,
                 n_max: int = 50, tol: float = 1e-5) -> SolveReport:
    """Solve the coupled problem over all subdomains (direct when linear)."""

    def assembler(alphas):
        return assemble(partition, bases, colloc, problem, alphas=alphas)

    return gauss_newton_core(assembler, problem.is_linear, n_max=n_max, tol=tol)
