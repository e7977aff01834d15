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
1996, section 6.3). Every system, with balls or without, is solved as one
array by one path: ``SystemBlocks.stacked``, the array that holds subdomain
0's block. It has one spare row per ball row below subdomain 0's rows (none
without balls); the solve writes each ball's projected coupling into them
and hands the whole array to gelsd, so subdomain 0's rows are never copied
to stack them, and a system without balls is that gelsd call alone. The
gelsd call chooses its path by the shape of its m x n matrix F: when n < m <
int(1.6 n), below gelsd's own threshold for taking a QR first (MNTHR =
int(1.6 min(m, n)); R-bidiagonalization: T. F. Chan, ACM TOMS 8(1), 1982),
the system is first reduced to the triangular factor R of [F | T], and gelsd
runs on R's first n columns with its last column as the right-hand side: the
same least-squares problem, with F's singular values, on n + 1 rows. A 2D
scale candidate's block (1584 x 1001) takes that path, a 3D one (4744 x 1001)
does not. When a ball block is rank-deficient (at K=1 on peak2d-case1 the
ball's block has rank 615 of 1001 columns, the coupled system 816 of 1202),
the result is a least-squares solution but not the minimum-norm one that
gelsd on the whole zero-padded matrix would give: each ball's coefficients
have minimum norm given subdomain 0's, not jointly with them.

Every row of a block, and its entry of the right-hand side, is scaled to
unit 2-norm (an interface row's norm covers its subdomain-0 columns too), so
the scale search, ``keep_ball`` and every coupled solve see one weighted
system, and the relative SVD truncation acts on rows of one size. A linear
problem is solved directly, at zero coefficients; a nonlinear one by a
Gauss-Newton loop from zero coefficients whose step is backtracked: halved
until the weighted squared residual |T|^2 at the trial coefficients is not
above the current one. Each trial is the system re-linearized at it, which
the next step solves, so an accepted full step costs nothing extra. Every
solve reports, and a nonlinear one stops on the relative change of, one
loss: |T|^2 at the returned coefficients, the squared residual of the
problem's equations in unit-row units.

Rows are built in one place, ``_subdomain_rows``, one subdomain at a time in
one order: interior rows, boundary rows, then a ball's interface value and
normal-derivative rows. It allocates the subdomain's block once and has the
basis evaluate each row group straight into its slice of it (``out=``), the
interior Laplacians then negated in place, so the block is the rows of the
operator's linear part with no copy (``ball_rows``; subdomain 0's in
``coupled_rows``). A Gauss-Newton step only re-linearizes them
(``assemble``, ``assemble_local``). One rule sizes every block's array: it
has the shape of its rows' array. A linear problem's block is that array
itself, and a nonlinear step's a copy of it, re-linearized. Subdomain 0's
rows are evaluated, for both kinds of problem, into an array with the
stacked problem's spare rows below them, and ``coupled_rows`` alone counts
them.
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

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .basis import BasisSet
from .geometry import BallSubdomain, outward_normals
from .pde import SemilinearProblem

ROW_INTERIOR = 0
ROW_BOUNDARY = 1
ROW_IFACE_VALUE = 2
ROW_IFACE_NORMAL = 3
ROW_KIND_NAMES = ("interior", "boundary", "interface-value", "interface-normal")

DEFAULT_SVD_CUTOFF = 1e-12


class AssemblyError(ValueError):
    """Collocation/basis data unfit for assembly."""


@dataclass
class SystemBlocks:
    """System F alpha = T in block-angular storage.

    ``matrix``, ``rhs`` and ``row_kind`` are the first subdomain's rows on its
    own columns: subdomain 0 of a coupled system, the ball of a single-ball
    one. ``balls`` holds the blocks of a coupled system's balls, each one the
    single-ball system of that ball. A ball's block also holds ``coupling``,
    its interface rows (its last ``len(coupling)`` rows) on subdomain 0's
    columns; a solve uses it only in a coupled system. A kept linear ball is
    in ``balls`` as its ``_Eliminated``, made by its scale search; the solve
    eliminates every other ball.

    ``stacked`` is the one array that holds a block's rows; ``matrix`` is its
    top ``len(rhs)`` rows. It has the shape of the rows' array it was made
    from (``SubdomainRows.matrix``), so below them the first subdomain's
    ``stacked`` has the spare rows that ``coupled_rows`` counted: one per
    ball row, in ball order, into which ``solve_min_norm`` writes each ball's
    projected coupling before it solves the whole array. A block without
    balls has none.
    """

    stacked: np.ndarray                # (rows + spare rows, cols of the first subdomain)
    rhs: np.ndarray                    # (rows,)
    row_kind: np.ndarray               # int8, ROW_* constants
    coupling: Optional[np.ndarray] = None
    balls: list[SystemBlocks | _Eliminated] = field(default_factory=list)

    @property
    def matrix(self) -> np.ndarray:
        return self.stacked[:len(self.rhs)]

    @property
    def size(self) -> int:
        return self.stacked.shape[1]


@dataclass
class SolveReport:
    """Solution coefficients plus diagnostics of the solve."""

    alphas: list[np.ndarray]           # coefficients per subdomain
    # squared residual of the equations at ``alphas``, in unit-row units:
    # of the problem for a Gauss-Newton solve, of the given system for
    # ``solve_min_norm``
    loss: float
    # per block, as ``alphas``: {row kind name: squared residual of the
    # block's unit rows of that kind}, for the kinds the block has; the
    # entries add up to ``loss``
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
    # block order; for subdomain 0 of a coupled problem, linear or not, one
    # spare row per ball row below them. Every block of the subdomain has
    # this shape: a linear one is this array itself, a nonlinear one a copy
    # (``SystemBlocks.stacked``)
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


def _subdomain_rows(problem: SemilinearProblem, basis: BasisSet,
                    interior: np.ndarray, boundary: np.ndarray,
                    ball: Optional[BallSubdomain] = None,
                    interface: Optional[np.ndarray] = None,
                    basis_0: Optional[BasisSet] = None,
                    spare: int = 0) -> SubdomainRows:
    """One subdomain's rows in block order: interior, boundary, then a ball's
    interface value and normal-derivative rows. The rows are the operator's
    linear part on the subdomain's columns (-Laplacians, values, values,
    normal derivatives), each group evaluated into its slice of an array
    with ``spare`` more rows left below them (``coupled_rows`` sizes them)."""
    normals = None if ball is None else outward_normals(ball, interface)
    # (kind, points, evaluation into ``out``) of each row group, in block order
    groups = [(ROW_INTERIOR, interior, basis.laplacians),
              (ROW_BOUNDARY, boundary, basis.values)]
    if ball is not None:
        groups += [(ROW_IFACE_VALUE, interface, basis.values),
                   (ROW_IFACE_NORMAL, interface,
                    partial(basis.normal_derivatives, normals=normals))]
    row_kind = np.empty(sum(len(pts) for _, pts, _ in groups), dtype=np.int8)
    matrix = np.empty((len(row_kind) + spare, basis.size))
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
    subdomain 0) or what ``keep_ball`` made of them. This is the one place
    that sizes the stacked problem: subdomain 0's rows are evaluated into an
    array with one spare row per ball row below them, for every problem, and
    each block of subdomain 0 is that array or a copy of it
    (``SystemBlocks.stacked``)."""
    if len(interior) == 0:
        raise AssemblyError("empty interior collocation set for subdomain 0")
    if len(boundary) == 0 and not any(ROW_BOUNDARY in ball.row_kind for ball in balls):
        raise AssemblyError("no boundary collocation points at all")
    spare = sum(len(ball.row_kind) for ball in balls)
    return [_subdomain_rows(problem, basis_0, interior, boundary, spare=spare),
            *balls]


def _block(problem: SemilinearProblem, rows: SubdomainRows,
           alpha_k: np.ndarray, alpha_0: np.ndarray) -> SystemBlocks:
    """One subdomain's block linearized at ``alpha_k``, with subdomain 0 at
    ``alpha_0``: its rows on its own columns and, for a ball, its interface
    rows on subdomain 0's columns as ``coupling``.

    Right-hand sides are the residuals at the current coefficients, so on an
    interface they carry subdomain 0's trace at ``alpha_0``.

    The block's ``stacked`` has the shape of the rows' array, spare rows and
    all: a linear block is that array itself, and a nonlinear one a copy of
    it that the rows are re-linearized in.

    Every row is then scaled to unit 2-norm, its right-hand side with it
    (``_equilibrate``), so a linear problem's rows are assembled once: their
    array is scaled in place, and their row kinds are made read-only to mark
    it. A second assembly of them raises AssemblyError, since it would scale
    their scaled array again against the unscaled data.
    """
    F = rows.matrix
    if problem.nonlinearity is None:
        if not rows.row_kind.flags.writeable:
            raise AssemblyError("a linear problem's rows are assembled once: the "
                                "first assembly scaled them in place")
        rows.row_kind.flags.writeable = False
    n = len(rows.row_kind)
    interior = slice(0, len(rows.forcing))
    boundary = slice(interior.stop, interior.stop + len(rows.data))
    T = np.empty(n)
    T[interior] = rows.forcing - F[interior] @ alpha_k
    if problem.nonlinearity is not None:
        u = rows.values @ alpha_k
        F = rows.matrix.copy()
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
    _equilibrate(F[:n], T, coupling)
    return SystemBlocks(stacked=F, rhs=T, row_kind=rows.row_kind, coupling=coupling)


def _equilibrate(matrix: np.ndarray, rhs: np.ndarray,
                 coupling: Optional[np.ndarray]) -> None:
    """Scale each row of a block, and its entry of ``rhs``, to unit 2-norm,
    in place. A row's squared norm is the sum of its squares over the
    subdomain's columns (``matrix``), then, for an interface row, over
    subdomain 0's (``coupling``, the last rows). A row of norm zero keeps
    weight 1.

    Unscaled, an interior row weighs scale^2 |w|^2 against at most 1 for a
    value row, and the truncation relative to the largest singular value
    drops what the value rows ask for: peak3d at acceptance criterion 10's
    settings solves to err_l2 43.3 on unscaled rows, 1.5e-2 on unit rows.
    """
    norms = np.einsum("ij,ij->i", matrix, matrix)
    if coupling is not None:
        iface = slice(len(norms) - len(coupling), None)
        norms[iface] += np.einsum("ij,ij->i", coupling, coupling)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    matrix /= norms[:, None]
    rhs /= norms
    if coupling is not None:
        coupling /= norms[iface, None]


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


def _coefficients(rows: Sequence, alphas: Optional[Sequence]) -> list[np.ndarray]:
    """``alphas``, one vector per subdomain of ``rows``, or zeros if None."""
    if alphas is None:
        return [np.zeros(r.size) for r in rows]
    alphas = [np.asarray(a, dtype=float) for a in alphas]
    if [a.shape for a in alphas] != [(r.size,) for r in rows]:
        raise AssemblyError(f"expected coefficients of sizes {[r.size for r in rows]}")
    return alphas


def assemble(problem: SemilinearProblem, rows: Sequence,
             alphas: Optional[Sequence] = None) -> SystemBlocks:
    """The coupled system of ``coupled_rows``, linearized at ``alphas``, one
    coefficient vector per subdomain (zeros if None). A kept linear ball's
    block is its elimination.

    At zero coefficients and for a linear operator this is exactly the direct
    transcription of the collocated problem; otherwise rows carry the
    operator's directional derivative and the right-hand side the current
    residuals (including the cancel-the-jump interface terms). Every row is
    at unit norm; a linear problem's rows are scaled in place, so they are
    assembled once, and a second assembly of them raises AssemblyError
    (``coupled_rows`` and ``ball_rows`` evaluate them anew).
    """
    alpha_0, *alpha_balls = _coefficients(rows, alphas)
    balls = [_ball_block(problem, r, a, alpha_0) for r, a in zip(rows[1:], alpha_balls)]
    return replace(_block(problem, rows[0], alpha_0, alpha_0), balls=balls)


def assemble_local(problem: SemilinearProblem, rows: SubdomainRows,
                   alpha_0: np.ndarray,
                   alphas: Optional[Sequence] = None) -> SystemBlocks:
    """Single-ball system of ``ball_rows``, linearized at ``alphas``, the
    ball's one coefficient vector (zeros if None), with subdomain 0 frozen at
    ``alpha_0``.

    The frozen trace and normal trace enter the interface right-hand sides;
    only the ball's coefficients are unknowns.
    """
    (alpha_k,) = _coefficients([rows], alphas)
    return _block(problem, rows, alpha_k, alpha_0)


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
    def full_rank(self) -> bool:
        """Whether the truncation kept every singular value of a block with
        more rows than columns: then gelsd at the same cutoff
        (``solve_min_norm``) truncates nothing either, and its loss is the
        least-squares minimum that ``residual_bound`` computes. The decision
        is this SVD's, made at the BLAS threads of the process that
        eliminated the block; gelsd's own SVD may decide otherwise for a
        singular value within rounding of the cutoff."""
        return len(self.s) == self.size < len(self.row_kind)

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
    discarded. The projected couplings are written into the spare rows of
    ``stacked``, so the stacked problem is that array, with no copy of
    subdomain 0's rows; too few spare rows raise AssemblyError. Without
    balls ``stacked`` has no spare row and this is gelsd on ``matrix``, the
    minimum-norm solution. A gelsd problem with n < m < int(1.6 n) is
    reduced to the R factor of [F | T] first. The report carries each
    block's rank, retained singular-value range and squared residual per row
    kind; a ball's residual is read from its elimination (see the module
    docstring).
    """
    _check_blocks([b for b in [blocks] + blocks.balls if isinstance(b, SystemBlocks)])
    eliminated = [_eliminate(ball) if isinstance(ball, SystemBlocks) else ball
                  for ball in blocks.balls]
    F0 = blocks.stacked
    T0 = np.concatenate([blocks.rhs] + [e.rhs for e in eliminated])
    if len(F0) != len(T0):
        raise AssemblyError("subdomain 0's array needs one spare row per ball row")
    start = len(blocks.rhs)
    for e in eliminated:
        F0[start:start + len(e.rhs)] = e.coupling
        start += len(e.rhs)
    m, n = F0.shape
    if n < m < int(1.6 * n):       # gelsd takes a QR first from int(1.6 n) rows on
        R = _r_factor(F0, T0)
        F0, T0 = R[:, :-1], R[:, -1]
    alpha_0, _, rank, s0 = np.linalg.lstsq(F0, T0, rcond=DEFAULT_SVD_CUTOFF)
    alphas = [alpha_0] + [e.back_substitute(alpha_0) for e in eliminated]

    residuals = [blocks.matrix @ alpha_0 - blocks.rhs]
    residuals += [e.coupling @ alpha_0 - e.rhs for e in eliminated]
    loss = float(sum(res @ res for res in residuals))
    return SolveReport(alphas=alphas, loss=loss,
                       residuals=[_residuals_by_kind(b.row_kind, res)
                                  for b, res in zip([blocks] + eliminated, residuals)],
                       block_ranks=[int(rank)] + [len(e.s) for e in eliminated],
                       block_sigmas=[_sigma_range(s0[:rank])]
                       + [_sigma_range(e.s) for e in eliminated])


def _r_factor(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The triangular factor R of [``matrix`` | ``rhs``] (Householder QR)."""
    return np.linalg.qr(np.column_stack([matrix, rhs]), mode="r")


def residual_bound(block: SystemBlocks) -> tuple[float, bool]:
    """R[n,n]^2 of the QR of a block's [F | T], F its m x n ``matrix``: the
    least-squares minimum of |F x - T|^2, and 0 when m <= n; and whether
    it is proven that ``solve_min_norm`` solves F at a rank below n.

    Q^T [F | T] = [[R_11, r], [0, rho]] gives |F x - T|^2 = |R_11 x - r|^2 +
    rho^2, so no coefficients, the truncated solution of ``solve_min_norm``
    among them, have a loss below rho^2; it equals the minimum when F has
    full column rank (Bjorck, Numerical Methods for Least Squares Problems,
    1996). F has R_11's singular values, and a triangular matrix's smallest
    singular value is at most its smallest diagonal entry in absolute
    value, its largest at least the largest one; so min |R_ii| <=
    DEFAULT_SVD_CUTOFF max |R_ii| proves that the truncation drops a
    singular value. Otherwise nothing is proven: the truncation may still
    drop one. With m < n the rank is below n; with m = n nothing is
    proven. On peak2d-case3's first ball, the diagonal ratio min/max of the
    candidate's R is 2.7e-16 at s=6, 1.6e-12 at s=9, where the truncation
    keeps rank 615 and 940 of 1001.

    It reads the first subdomain's rows alone, so it bounds a system
    without balls, such as a scale candidate's single-ball system; the
    block is checked for finite entries as ``solve_min_norm`` checks it.
    """
    _check_blocks([block])
    m, n = block.matrix.shape
    if m <= n:
        return 0.0, m < n
    R = _r_factor(block.matrix, block.rhs)
    diagonal = np.abs(np.diagonal(R)[:n])
    return float(R[n, n] ** 2), bool(diagonal.min() <= DEFAULT_SVD_CUTOFF * diagonal.max())


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


#: Halvings of a Gauss-Newton step before the loop gives up on lowering |T|^2.
MAX_HALVINGS = 20


def _weighted_residual(blocks: SystemBlocks) -> tuple[float, list]:
    """|T|^2 of a system of nonlinear blocks, and its residual table: the
    squared residual, per block and row kind, of its rows at the
    coefficients it was linearized at."""
    all_blocks = [blocks] + blocks.balls
    return (float(sum(b.rhs @ b.rhs for b in all_blocks)),
            [_residuals_by_kind(b.row_kind, b.rhs) for b in all_blocks])


def _backtrack(assembler: Callable[[Optional[list]], SystemBlocks],
               alphas: list, step: list, loss: float, tol: float):
    """The first trial alphas + t ``step``, t = 1, 1/2, ..., 2^-MAX_HALVINGS,
    whose system's |T|^2 is not above ``loss``, that of ``alphas``.

    Returns the trial's coefficients and system (None and None when no trial
    is taken), and the relative rise of |T|^2 at the full step (0 when it did
    not rise). A full step that rises by less than ``tol`` relative is not
    halved: no trial is taken. Each rejected trial's system is released
    before the next one is assembled.
    """
    rise = 0.0
    for halving in range(MAX_HALVINGS + 1):
        trial = [a + 0.5 ** halving * d for a, d in zip(alphas, step)]
        blocks = assembler(trial)
        trial_loss, _ = _weighted_residual(blocks)
        if trial_loss <= loss:
            return trial, blocks, rise
        del blocks
        if halving == 0:
            rise = (trial_loss - loss) / loss if loss else math.inf
            if rise < tol:
                break
    return None, None, rise


def gauss_newton_core(assembler: Callable[[Optional[list]], SystemBlocks],
                      is_linear: bool, n_max: int, tol: float) -> SolveReport:
    """Gauss-Newton driver over an assembler callback, with a backtracked
    step.

    ``assembler(alphas)`` must return the system linearized at ``alphas``,
    one coefficient vector per subdomain (zeros when None), its rows at unit
    norm. A linear problem is the direct solve of the system at zero
    coefficients: one assembly, one solve, iterations ``[(0, loss, None)]``.
    A nonlinear step solves F delta = T for the increments and tries
    alphas + t delta for t = 1, 1/2, ..., 2^-MAX_HALVINGS (``_backtrack``);
    each trial's system is assembled, and the first whose |T|^2 is not above
    the current one is taken, its system the next step's. A step's entry
    ``(n, loss, re_mse)`` holds |T|^2 at the coefficients after it and its
    relative change from the step before (None for the first step), and the
    loop stops converged once that change drops below ``tol``. A step it
    does not take ends the loop at the current coefficients, its entry
    holding their |T|^2 and the relative rise at the full step: converged
    when a full step raises |T|^2 by less than ``tol`` relative, which is
    rounding, and converged=False when no halving lowers it. Exhausting
    ``n_max`` also returns converged=False. The report's ``loss`` and
    ``residuals`` are |T|^2 and its table per block and row kind at the
    returned coefficients, the weighted residual that the solve minimises;
    its ranks and singular values are the last solve's.
    """
    blocks = assembler(None)
    if is_linear:
        report = solve_min_norm(blocks)
        return replace(report, iterations=[(0, report.loss, None)])
    alphas = [np.zeros(b.size) for b in [blocks] + blocks.balls]
    loss, residuals = _weighted_residual(blocks)
    trace = []
    converged = False
    for n in range(n_max):
        report = solve_min_norm(blocks)
        del blocks      # its stacked array is as large as a trial's
        trial, blocks, rise = _backtrack(assembler, alphas, report.alphas, loss, tol)
        if blocks is None:
            trace.append((n, loss, rise))
            converged = rise < tol
            break
        alphas = trial
        previous = loss
        loss, residuals = _weighted_residual(blocks)
        re_mse = None if n == 0 else (
            0.0 if previous == 0.0 else abs(loss - previous) / previous)
        trace.append((n, loss, re_mse))
        if n > 0 and (previous == 0.0 or re_mse < tol):
            converged = True
            break
    return replace(report, alphas=alphas, loss=loss, residuals=residuals,
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


def gauss_newton(problem: SemilinearProblem, basis_0: BasisSet,
                 interior: np.ndarray, boundary: np.ndarray,
                 kept: Sequence[SubdomainRows | _Eliminated], n_max: int,
                 tol: float) -> SolveReport:
    """Solve the coupled problem over all subdomains (direct when linear).

    Subdomain 0's rows are evaluated with ``basis_0`` at its ``interior`` and
    ``boundary`` points; ``kept`` holds every ball, in order, as
    ``keep_ball`` made it.
    """
    rows = coupled_rows(problem, basis_0, interior, boundary, kept)
    return gauss_newton_core(partial(assemble, problem, rows), problem.is_linear,
                             n_max, tol)
