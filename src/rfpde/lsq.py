"""Block least-squares assembly, the block elimination solve and the
Gauss-Newton outer loop.

Interior rows enforce the strong form, boundary rows the Dirichlet data, and
each interface point contributes a value row and a normal-derivative row
tying a ball to subdomain 0 with opposite signs. The decomposition does not
overlap, so the coupled system is block-angular: ball k's coefficients touch
only ball k's rows, and subdomain 0's touch its own rows and every interface
row. It is stored that way, with no zero-padded global matrix: subdomain 0's
rows on its own columns, and one block per ball holding the ball's rows on
its own columns (exactly the single-ball system of the scale search) and its
interface rows on subdomain 0's columns.

``solve_min_norm`` eliminates each ball with the truncated SVD U S V^T of its
block, dropping singular values below DEFAULT_SVD_CUTOFF times the block's
largest; projects the ball's coupling and right-hand side onto the orthogonal
complement of the retained U; solves the stacked projected subdomain-0
problem with gelsd at the same relative cutoff; and back-substitutes each
ball's coefficients (Bjorck, Numerical Methods for Least Squares Problems,
1996, section 6.3). A system without balls is one gelsd call. The gelsd
call chooses its path by the shape of its m x n matrix F: when n < m <
int(1.6 n), below gelsd's own threshold for taking a QR first (MNTHR =
int(1.6 min(m, n)); R-bidiagonalization: T. F. Chan, ACM TOMS 8(1), 1982),
the system is first reduced to the triangular factor R of [F | T], and gelsd
runs on R's first n columns with its last column as the right-hand side: the
same least-squares problem, with F's singular values, on n + 1 rows. A 2D
scale candidate's block (1584 x 1001) takes that path, a 3D one (4744 x 1001)
does not. When a ball block is rank-deficient (at K=1 on peak2d-case1 the
ball's block has rank 610 of 1001 columns, the coupled system 811 of 1202),
the result is a least-squares solution but not the minimum-norm one that
gelsd on the whole zero-padded matrix would give: each ball's coefficients
have minimum norm given subdomain 0's, not jointly with them.

Every problem is solved by one plain (undamped) Gauss-Newton loop on the
linearized system, starting from zero coefficients; a linear problem stops
after the first step, which is the direct solve. Every solve reports, and a
nonlinear one stops on the relative change of, one loss: the squared
residual of the problem's equations at the returned coefficients. A
nonlinear step reads it from the right-hand side of the system re-linearized
at its updated coefficients, which the next step solves.

Rows are built in one place, ``_subdomain_rows``, one subdomain at a time in
one order: interior rows, boundary rows, then a ball's interface value and
normal-derivative rows. It allocates the subdomain's block once and has the
basis evaluate each row group straight into its slice of it (``out=``), the
interior Laplacians then negated in place, so the block is the rows of the
operator's linear part with no copy (``ball_rows``; subdomain 0's in
``coupled_rows``). A Gauss-Newton step only re-linearizes them
(``assemble``, ``assemble_local``), and a linear problem's block is that
array itself.
``assemble_local``, the single-ball problem of the scale search, builds the
same block as the ball's block of ``assemble``; its solve leaves the
subdomain-0 trace, frozen, in the right-hand side.

A ball keeps its basis and its collocation points once placed, so it is made
once, by the scale search, and never changed: ``keep_ball`` turns the winning
candidate's rows into what every coupled solve reads of the ball. A
nonlinear ball is kept as its rows, which every Gauss-Newton step
re-linearizes. A linear problem is assembled at zero coefficients only,
where a ball's block depends on its rows alone, so ``keep_ball`` checks that
block for finite entries, eliminates it and keeps the elimination alone; the
rows are released once factored. Every coupled solve, ``gauss_newton``,
evaluates subdomain 0's rows; ``assemble`` builds a nonlinear ball's block
from its kept rows and passes a linear ball's elimination on as it is, and
``solve_min_norm`` eliminates every other ball. The residual of every ball's
rows is read from its elimination: (I - U U^T) C x_0 - (I - U U^T) T, the
elimination's ``coupling @ alpha_0 - rhs``, is the same vector as
A x_k + C x_0 - T, because x_k = V S^-1 U^T (T - C x_0) gives
A x_k = U U^T (T - C x_0) (the dropped singular directions of A are
orthogonal to x_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .basis import BasisSet
from .geometry import BallSubdomain, PartitionState, outward_normals
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
    """System F alpha = T in block-angular storage.

    ``matrix``, ``rhs`` and ``row_kind`` are the first subdomain's rows on its
    own columns: subdomain 0 of a coupled system, the ball of a single-ball
    one. ``balls`` holds the blocks of a coupled system's balls, each one the
    single-ball system of that ball. A ball's block also holds ``coupling``,
    its interface rows (its last ``len(coupling)`` rows) on subdomain 0's
    columns; a solve uses it only in a coupled system. ``col_slices`` places
    each subdomain's coefficients in the stacked vector. A kept linear ball
    is in ``balls`` as its ``_Eliminated``, made by its scale search; the
    solve eliminates every other ball.
    """

    matrix: np.ndarray                 # (rows, cols of the first subdomain)
    rhs: np.ndarray                    # (rows,)
    col_slices: list[slice]            # one slice of columns per subdomain
    row_kind: np.ndarray               # int8, ROW_* constants
    coupling: Optional[np.ndarray] = None
    balls: list[SystemBlocks | _Eliminated] = field(default_factory=list)

    @property
    def n_cols(self) -> int:
        return self.col_slices[-1].stop

    def split(self, alpha: np.ndarray) -> list[np.ndarray]:
        return [alpha[sl] for sl in self.col_slices]


@dataclass
class SolveReport:
    """Solution coefficients plus diagnostics of the solve."""

    alpha: np.ndarray                  # stacked coefficients
    alphas: list[np.ndarray]           # per subdomain
    # squared residual of the equations at ``alpha``: of the problem for a
    # Gauss-Newton solve, of the given system for ``solve_min_norm``
    loss: float
    # per block, as ``alphas``: {row kind name: squared residual of the
    # block's rows of that kind}, for the kinds the block has; the entries
    # add up to ``loss``
    residuals: list
    # per block, as ``alphas``: the rank and [largest, smallest] retained
    # singular value of its factorization (subdomain 0's of a coupled system:
    # of its projected problem)
    block_ranks: list
    block_sigmas: list
    iterations: list = field(default_factory=list)  # (n, loss, re_mse)
    converged: bool = True

    @property
    def alpha_norms(self) -> list[float]:
        return [float(np.linalg.norm(a)) for a in self.alphas]


class SubdomainRows(NamedTuple):
    """What a subdomain's block needs that no Gauss-Newton step changes: its
    basis evaluated at its collocation points, and the problem data there."""

    # the rows of the operator's linear part on the subdomain's columns, in
    # block order; a linear problem's block is this array itself
    matrix: np.ndarray
    row_kind: np.ndarray               # int8, ROW_* constants
    forcing: np.ndarray                # f at the interior points
    data: np.ndarray                   # g at the boundary points
    values: Optional[np.ndarray]       # basis values at the interior points (nonlinear)
    # a ball's interface points: values and normal derivatives of subdomain
    # 0's basis there; None for subdomain 0
    trace: Optional[tuple[np.ndarray, np.ndarray]]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_boundary(self) -> int:
        return len(self.data)


def _subdomain_rows(problem: SemilinearProblem, basis: BasisSet,
                    interior: np.ndarray, boundary: np.ndarray,
                    ball: Optional[BallSubdomain] = None,
                    interface: Optional[np.ndarray] = None,
                    basis_0: Optional[BasisSet] = None) -> SubdomainRows:
    """One subdomain's rows in block order: interior, boundary, then a ball's
    interface value and normal-derivative rows. The rows are the operator's
    linear part on the subdomain's columns (-Laplacians, values, values,
    normal derivatives), each group evaluated into its slice of the block."""
    normals = None if ball is None else outward_normals(ball, interface)
    # (kind, points, evaluation into ``out``) of each row group, in block order
    groups = [(ROW_INTERIOR, interior, basis.laplacians),
              (ROW_BOUNDARY, boundary, basis.values)]
    if ball is not None:
        groups += [(ROW_IFACE_VALUE, interface, basis.values),
                   (ROW_IFACE_NORMAL, interface,
                    partial(basis.normal_derivatives, normals=normals))]
    matrix = np.empty((sum(len(pts) for _, pts, _ in groups), basis.size))
    row_kind = np.empty(len(matrix), dtype=np.int8)
    start = 0
    for kind, pts, evaluate in groups:
        sl = slice(start, start + len(pts))
        evaluate(pts, out=matrix[sl])
        row_kind[sl] = kind
        start = sl.stop
    interior_rows = matrix[:len(interior)]
    np.negative(interior_rows, out=interior_rows)
    trace = None
    if ball is not None:
        trace = (basis_0.values(interface), basis_0.normal_derivatives(interface, normals))
    return SubdomainRows(
        matrix=matrix, row_kind=row_kind, forcing=problem.forcing(interior),
        data=problem.boundary(boundary),
        values=None if problem.nonlinearity is None else basis.values(interior),
        trace=trace)


def ball_rows(problem: SemilinearProblem, ball: BallSubdomain, basis_k: BasisSet,
              basis_0: BasisSet, interior: np.ndarray, boundary: np.ndarray,
              interface: np.ndarray) -> SubdomainRows:
    """The rows of one ball, for its single-ball system."""
    if len(interior) == 0:
        raise AssemblyError(f"empty interior collocation set for ball {ball.index}")
    if len(interface) == 0:
        raise AssemblyError(f"empty interface collocation set for ball {ball.index}")
    return _subdomain_rows(problem, basis_k, interior, boundary, ball, interface,
                           basis_0)


def coupled_rows(problem: SemilinearProblem, basis_0: BasisSet,
                 interior: np.ndarray, boundary: np.ndarray,
                 balls: Sequence[SubdomainRows | _Eliminated]) -> list:
    """The rows of every subdomain of the coupled problem: subdomain 0's,
    evaluated at its ``interior`` and ``boundary`` points, then the balls'
    as given, each one's rows (of ``ball_rows``, on the same basis of
    subdomain 0) or what ``keep_ball`` made of them."""
    if len(interior) == 0:
        raise AssemblyError("empty interior collocation set for subdomain 0")
    if len(boundary) + sum(ball.n_boundary for ball in balls) == 0:
        raise AssemblyError("no boundary collocation points at all")
    return [_subdomain_rows(problem, basis_0, interior, boundary)] + list(balls)


def _block(problem: SemilinearProblem, rows: SubdomainRows,
           alpha_k: np.ndarray, alpha_0: np.ndarray) -> SystemBlocks:
    """One subdomain's block linearized at ``alpha_k``, with subdomain 0 at
    ``alpha_0``: its rows on its own columns and, for a ball, its interface
    rows on subdomain 0's columns as ``coupling``.

    Right-hand sides are the residuals at the current coefficients, so on an
    interface they carry subdomain 0's trace at ``alpha_0``.
    """
    F = rows.matrix
    interior = slice(0, len(rows.forcing))
    boundary = slice(interior.stop, interior.stop + len(rows.data))
    T = np.empty(len(F))
    T[interior] = rows.forcing - F[interior] @ alpha_k
    if problem.nonlinearity is not None:
        u = rows.values @ alpha_k
        F = F.copy()
        F[interior] += problem.nonlinearity_prime(u)[:, None] * rows.values
        T[interior] -= problem.nonlinearity(u)
    T[boundary] = rows.data - F[boundary] @ alpha_k
    coupling = None
    if rows.trace is not None:
        start = boundary.stop
        for trace_0 in rows.trace:
            sl = slice(start, start + len(trace_0))
            T[sl] = trace_0 @ alpha_0 - F[sl] @ alpha_k
            start = sl.stop
        coupling = np.concatenate([-trace_0 for trace_0 in rows.trace])
    return SystemBlocks(matrix=F, rhs=T, col_slices=[slice(0, rows.size)],
                        row_kind=rows.row_kind, coupling=coupling)


def _ball_block(problem: SemilinearProblem, ball: SubdomainRows | _Eliminated,
                alpha_k: np.ndarray, alpha_0: np.ndarray) -> SystemBlocks | _Eliminated:
    """A ball's block: its rows linearized by ``_block``, or a kept linear
    ball's elimination itself, which holds at zero coefficients only."""
    if isinstance(ball, _Eliminated):
        if np.any(alpha_k) or np.any(alpha_0):
            raise AssemblyError("a kept linear ball is eliminated at zero "
                                "coefficients only")
        return ball
    return _block(problem, ball, alpha_k, alpha_0)


def assemble(problem: SemilinearProblem, rows: Sequence,
             alphas: Optional[np.ndarray] = None) -> SystemBlocks:
    """The coupled system of ``coupled_rows``, linearized at ``alphas`` (zeros
    if None). A kept linear ball's block is its elimination.

    At zero coefficients and for a linear operator this is exactly the direct
    transcription of the collocated problem; otherwise rows carry the
    operator's directional derivative and the right-hand side the current
    residuals (including the cancel-the-jump interface terms).
    """
    col_slices, start = [], 0
    for r in rows:
        col_slices.append(slice(start, start + r.size))
        start += r.size
    if alphas is None:
        alphas = np.zeros(start)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (start,):
        raise AssemblyError(f"expected {start} stacked coefficients")
    parts = [alphas[sl] for sl in col_slices]
    balls = [_ball_block(problem, r, a, parts[0]) for r, a in zip(rows[1:], parts[1:])]
    return replace(_block(problem, rows[0], parts[0], parts[0]),
                   col_slices=col_slices, balls=balls)


def assemble_local(problem: SemilinearProblem, rows: SubdomainRows,
                   alpha_0: np.ndarray,
                   alpha_k: Optional[np.ndarray] = None) -> SystemBlocks:
    """Single-ball system of ``ball_rows``, with subdomain 0 frozen at
    ``alpha_0``.

    The frozen trace and normal trace enter the interface right-hand sides;
    only the ball's coefficients are unknowns.
    """
    if alpha_k is None:
        alpha_k = np.zeros(rows.size)
    return _block(problem, rows, np.asarray(alpha_k, dtype=float), alpha_0)


class _Eliminated(NamedTuple):
    """A ball block after elimination: its rows projected onto the orthogonal
    complement of the retained left singular vectors U, and what the
    back-substitution x_k = V S^-1 U^T (T - C x_0) needs, with the rows'
    kinds for the residual table."""

    coupling: np.ndarray               # (I - U U^T) C, on all the block's rows
    rhs: np.ndarray                    # (I - U U^T) T
    vt: np.ndarray                     # retained rows of V^T
    s: np.ndarray                      # retained singular values
    ut_rhs: np.ndarray                 # U^T T
    ut_coupling: np.ndarray            # U^T C
    row_kind: np.ndarray               # int8, ROW_* constants, in block order

    @property
    def size(self) -> int:
        return self.vt.shape[1]

    @property
    def n_boundary(self) -> int:
        return int(np.count_nonzero(self.row_kind == ROW_BOUNDARY))

    def back_substitute(self, alpha_0: np.ndarray) -> np.ndarray:
        return self.vt.T @ ((self.ut_rhs - self.ut_coupling @ alpha_0) / self.s)


def _eliminate(ball: SystemBlocks) -> _Eliminated:
    """Eliminate a ball's block by its truncated SVD (gesdd).

    The SVD stays, workspace and all, because the projection needs an
    orthonormal U: a QR first took the same time and peak memory to within
    a few MB, and one gelsd solve for [T | C] projected as B - A X loses the
    projection to cancellation at |X| ~ 2e6 (err_l2 and Gauss-Newton steps
    move; see CHANGES.md).
    """
    u, s, vt = np.linalg.svd(ball.matrix, full_matrices=False)
    r = int(np.count_nonzero(s > DEFAULT_SVD_CUTOFF * s[0]))
    u, s, vt = u[:, :r], s[:r], vt[:r]
    iface = slice(len(ball.rhs) - len(ball.coupling), None)
    ut_coupling = u[iface].T @ ball.coupling      # C is zero off the interface
    coupling = -(u @ ut_coupling)
    coupling[iface] += ball.coupling
    ut_rhs = u.T @ ball.rhs
    return _Eliminated(coupling=coupling, rhs=ball.rhs - u @ ut_rhs, vt=vt, s=s,
                       ut_rhs=ut_rhs, ut_coupling=ut_coupling, row_kind=ball.row_kind)


def solve_min_norm(blocks: SystemBlocks) -> SolveReport:
    """Least-squares solution by block elimination, truncated SVD per block.

    Each ball block is eliminated with its truncated SVD (a kept linear ball
    is its elimination already), the stacked projected subdomain-0 problem is
    solved by gelsd (``np.linalg.lstsq``), and the balls' coefficients are
    back-substituted; singular values below DEFAULT_SVD_CUTOFF times the
    largest of their block (of the projected problem for subdomain 0) are
    discarded. Without balls this is gelsd on ``matrix``, the minimum-norm
    solution. A gelsd problem with n < m < int(1.6 n) is reduced to the R
    factor of [F | T] first. The report carries each block's rank, retained
    singular-value range and squared residual per row kind; a ball's residual
    is read from its elimination (see the module docstring).
    """
    _check_blocks([b for b in [blocks] + blocks.balls if isinstance(b, SystemBlocks)])
    eliminated = [_eliminate(ball) if isinstance(ball, SystemBlocks) else ball
                  for ball in blocks.balls]
    F0, T0 = blocks.matrix, blocks.rhs
    if eliminated:
        F0 = np.concatenate([F0] + [e.coupling for e in eliminated])
        T0 = np.concatenate([T0] + [e.rhs for e in eliminated])
    m, n = F0.shape
    if n < m < int(1.6 * n):       # gelsd takes a QR first from int(1.6 n) rows on
        R = np.linalg.qr(np.column_stack([F0, T0]), mode="r")
        F0, T0 = R[:, :-1], R[:, -1]
    alpha_0, _, rank, s0 = np.linalg.lstsq(F0, T0, rcond=DEFAULT_SVD_CUTOFF)
    alpha = np.concatenate([alpha_0] + [e.back_substitute(alpha_0) for e in eliminated])

    residuals = [blocks.matrix @ alpha_0 - blocks.rhs]
    residuals += [e.coupling @ alpha_0 - e.rhs for e in eliminated]
    loss = float(sum(res @ res for res in residuals))
    return SolveReport(alpha=alpha, alphas=blocks.split(alpha), loss=loss,
                       residuals=[_residuals_by_kind(b.row_kind, res)
                                  for b, res in zip([blocks] + eliminated, residuals)],
                       block_ranks=[int(rank)] + [len(e.s) for e in eliminated],
                       block_sigmas=[_sigma_range(s0[:rank])]
                       + [_sigma_range(e.s) for e in eliminated])


def _check_blocks(blocks: Sequence[SystemBlocks]) -> None:
    """Raise AssemblyError for an empty block or a non-finite entry."""
    if any(b.matrix.size == 0 for b in blocks):
        raise AssemblyError("empty system")
    arrays = [a for b in blocks for a in (b.matrix, b.rhs, b.coupling) if a is not None]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise AssemblyError("non-finite entries in the assembled system")


def _residuals_by_kind(row_kind: np.ndarray, res: np.ndarray) -> dict:
    """{row kind name: sum of ``res``^2 over its rows}, for the kinds present."""
    parts = ((name, res[row_kind == kind]) for kind, name in enumerate(ROW_KIND_NAMES))
    return {name: float(part @ part) for name, part in parts if len(part)}


def _sigma_range(s: np.ndarray) -> list[float]:
    """[largest, smallest] of the retained singular values ``s``."""
    return [float(s[0]), float(s[-1])] if len(s) else [0.0, 0.0]


#: Divergence guard: abort when the loss exceeds this multiple of the first step's.
DIVERGENCE_FACTOR = 1e6


def gauss_newton_core(assembler: Callable[[Optional[np.ndarray]], SystemBlocks],
                      is_linear: bool, n_max: int, tol: float) -> SolveReport:
    """Gauss-Newton driver over an assembler callback.

    ``assembler(alphas)`` must return the system linearized at ``alphas``
    (zeros when None). Each step solves F delta = T for the increment and
    applies it. A linear problem stops after the first step, the direct solve
    of the system at zero coefficients: one assembly, one solve, iterations
    ``[(0, loss, None)]``. A nonlinear loop re-linearizes after every step,
    and a step's loss and residual table are |T|^2 of that system and its
    right-hand side per row kind: the residual at the updated coefficients.
    The loop stops once the relative change of that loss drops below ``tol``,
    so the report's ``loss`` and ``residuals`` are those at the returned
    coefficients. The report's ranks and singular values are the last
    step's. Exhausting ``n_max`` returns converged=False, and a loss blow-up
    beyond DIVERGENCE_FACTOR x the first step's loss raises
    NonConvergenceError.
    """
    blocks = assembler(None)
    alpha = np.zeros(blocks.n_cols)
    trace = []
    prev_loss = None
    first_loss = None
    converged = False
    for n in range(n_max):
        report = solve_min_norm(blocks)
        alpha = alpha + report.alpha
        if not is_linear:
            blocks = assembler(alpha)
            all_blocks = [blocks] + blocks.balls
            report = replace(report, loss=float(sum(b.rhs @ b.rhs for b in all_blocks)),
                             residuals=[_residuals_by_kind(b.row_kind, b.rhs)
                                        for b in all_blocks])
        loss = report.loss
        re_mse = None if prev_loss is None else (
            0.0 if prev_loss == 0.0 else abs(loss - prev_loss) / prev_loss)
        trace.append((n, loss, re_mse))
        if first_loss is None:
            first_loss = loss
        elif loss > DIVERGENCE_FACTOR * max(first_loss, np.finfo(float).tiny):
            raise NonConvergenceError(
                f"Gauss-Newton diverged at step {n}: loss {loss:.3e} vs "
                f"{first_loss:.3e} after step 0", trace=trace)
        if is_linear or prev_loss == 0.0 or (re_mse is not None and re_mse < tol):
            converged = True
            break
        prev_loss = loss
    return replace(report, alpha=alpha, alphas=blocks.split(alpha),
                   iterations=trace, converged=converged)


def keep_ball(problem: SemilinearProblem,
              rows: SubdomainRows) -> SubdomainRows | _Eliminated:
    """A ball as its scale search made it, complete and never changed, from
    its rows (of ``ball_rows``): a nonlinear ball's rows themselves, which
    every Gauss-Newton step re-linearizes; a linear ball's block at zero
    coefficients, checked for finite entries and eliminated here, once, so
    that every coupled solve takes the elimination instead of factoring the
    block again, and the rows are released."""
    if not problem.is_linear:
        return rows
    block = _block(problem, rows, np.zeros(rows.size), np.zeros(rows.trace[0].shape[1]))
    _check_blocks([block])
    eliminated = _eliminate(block)
    # the retained rows of V^T alone, not the whole V^T they are a view of
    return eliminated._replace(vt=eliminated.vt.copy())


def gauss_newton(partition: PartitionState, problem: SemilinearProblem,
                 basis_0: BasisSet, interior: np.ndarray, boundary: np.ndarray,
                 kept: Sequence[SubdomainRows | _Eliminated], n_max: int,
                 tol: float) -> SolveReport:
    """Solve the coupled problem over all subdomains (direct when linear).

    Subdomain 0's rows are evaluated with ``basis_0`` at its ``interior`` and
    ``boundary`` points; ``kept`` holds every ball of ``partition``, in order,
    as ``keep_ball`` made it.
    """
    if len(kept) != partition.n_balls:
        raise AssemblyError("kept balls do not align with the partition")
    rows = coupled_rows(problem, basis_0, interior, boundary, kept)
    return gauss_newton_core(partial(assemble, problem, rows), problem.is_linear,
                             n_max, tol)
