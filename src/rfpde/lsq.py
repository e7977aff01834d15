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

``solve_min_norm`` eliminates each ball's block A (m x n), with coupling C
on its interface rows and right-hand side T, through the QR of [A | C | T]
(Bjorck, Numerical Methods for Least Squares Problems, 1996, section 6.3).
C is zero off the interface rows, so the QR is taken in two stages: the R
factor of [A | T] over the rows with no coupling (interior, boundary), then
that of this R, zero in C's columns, stacked over the interface rows
[A | C | T]. Of the final R = [[R11, R1c | r1], [0, R22]], R11 (n x n, or
fewer rows) gives the truncated SVD U_r S V^T, dropping singular values
below DEFAULT_SVD_CUTOFF times the largest: A = (Q1 U_r) S V^T, so S and V
are A's, and A's m x n left singular vectors U = Q1 U_r are never formed
(R-bidiagonalization: T. F. Chan, ACM TOMS 8(1), 1982). The ball's coupling
and right-hand side projected onto the orthogonal complement of U,
(I - U U^T)[C | T], are orthogonally equivalent to
[(I - U_r U_r^T)[R1c | r1] ; R22], taken in R's coordinates, never as
B - A X (which loses the projection to cancellation at |X| ~ 2e6). The ball
enters the stacked subdomain-0 problem as the R factor of these, n0 + 1
rows for subdomain 0's n0 columns (202 rows of a 2D ball's 1584, 502 of a
3D ball's 4744), padded with zero rows when there are fewer. The stacked
problem is solved with gelsd at the same relative cutoff, and each ball's
coefficients are back-substituted: x_k = V S^-1 U_r^T (r1 - R1c x_0).
Every system, with balls or without, is solved as one array by one path:
``SystemBlocks.stacked``, the array that holds subdomain 0's block. It has
n0 + 1 spare rows per ball below subdomain 0's rows (none without balls);
the solve writes each ball's reduced coupling into them and hands the whole
array to gelsd, so subdomain 0's rows are never copied to stack them, and a
system without balls is that gelsd call alone. The gelsd call chooses its
path by the shape of its m x n matrix F: when n < m < int(1.6 n), below
gelsd's own threshold for taking a QR first (MNTHR = int(1.6 min(m, n))),
the system is first reduced to the triangular factor R of [F | T], and gelsd
runs on R's first n columns with its last column as the right-hand side: the
same least-squares problem, with F's singular values, on n + 1 rows. A 2D
scale candidate's block (1584 x 1001) takes that path, a 3D one (4744 x 1001)
does not. When a ball block is rank-deficient (at K=1 on peak2d-case1 the
ball's block has rank 615 of 1001 columns, the coupled system 816 of 1202),
the result is a least-squares solution but not the minimum-norm one that
gelsd on the whole zero-padded matrix would give: each ball's coefficients
have minimum norm given subdomain 0's, not jointly with them.

Every row has one weight, set once, when its rows are evaluated
(``_subdomain_rows``): the 2-norm of the row's linear part, an interface
row's over its subdomain-0 columns too, and 1 for a row of norm zero. The
row and its entry of every right-hand side are divided by it. So a linear
problem's rows are at unit 2-norm, the scale search, ``keep_ball`` and every
coupled solve see one weighted system, and the relative SVD truncation acts
on rows of one size. Unweighted, an interior row weighs scale^2 |w|^2
against at most 1 for a value row, and the truncation drops what the value
rows ask for: peak3d at acceptance criterion 10's settings solves to err_l2
43.3 on unweighted rows, 1.5e-2 on weighted ones. A nonlinear problem's rows
keep their linear part's weights at every linearization, so all its
Gauss-Newton steps minimize one fixed weighted residual; a Gauss-Newton
step is a descent direction only for a fixed weighting (Nocedal and Wright,
Numerical Optimization, section 10.3).

A linear problem is solved directly, at zero coefficients; a nonlinear one
by a Gauss-Newton loop from zero coefficients whose step is backtracked:
halved until the weighted squared residual |T|^2 at the trial coefficients
is not above the current one. Each trial is the system re-linearized at it,
which the next step solves, so an accepted full step costs nothing extra.
Every solve reports, and a nonlinear one stops on the relative change of,
one loss: |T|^2 at the returned coefficients, the squared residual of the
problem's equations in row-weight units.

Rows are built in one place, ``_subdomain_rows``, one subdomain at a time in
one order: interior rows, boundary rows, then a ball's interface value and
normal-derivative rows. It allocates the subdomain's block once and has the
basis evaluate each row group straight into its slice of it (``out=``), the
interior Laplacians then negated and every row divided by its weight in
place, so the block is the weighted rows of the operator's linear part with
no copy (``ball_rows``; subdomain 0's in ``coupled_rows``). Assembly
(``assemble``, ``assemble_local``, ``keep_ball``) writes into no array of
them, so they can be assembled any number of times; a Gauss-Newton step
only re-linearizes them. One rule sizes every block's array: it has the
shape of its rows' array. A linear problem's block is that array itself,
and a nonlinear step's a copy of it, re-linearized. Subdomain 0's
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
``solve_min_norm`` eliminates every other ball.

A solve returns coefficients, one loss, and each block's rank and retained
singular values; no table of residuals by subdomain or row kind, which
``adaptive`` evaluates from the solution, in the gate's units. A linear
solve's loss is |F0 x0 - T0|^2 on the stacked array, before any R
reduction: subdomain 0's rows, then each ball's n0 + 1 reduced rows. A
ball's x_k lies in the span of the retained V, so A x_k = U U^T (T - C x0),
and its rows' residual A x_k + C x0 - T is -(I - U U^T)(T - C x0), whose
norm its reduced rows carry. So the stacked residual is the whole loss, up
to rounding, and no coupled solve evaluates a ball's rows.
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
    in ``balls`` as its elimination (``_Eliminated``), made by its scale
    search; the solve eliminates every other ball.

    ``stacked`` is the one array that holds a block's rows; ``matrix`` is its
    top ``len(rhs)`` rows. It has the shape of the rows' array it was made
    from (``SubdomainRows.matrix``), so below them the first subdomain's
    ``stacked`` has the spare rows that ``coupled_rows`` counted: n0 + 1 per
    ball for its n0 columns, in ball order, into which ``solve_min_norm``
    writes each ball's reduced coupling (``_Eliminated.coupling``) before it
    solves the whole array. A block without balls has none.
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
    """Solution coefficients plus diagnostics of the solve: one loss, in
    row-weight units, and no residual per subdomain or row kind, which
    ``adaptive`` evaluates from the solution in the gate's units (module
    docstring)."""

    alphas: list[np.ndarray]           # coefficients per subdomain
    # squared residual of the equations at ``alphas``, in row-weight units:
    # of the problem for a Gauss-Newton solve, of the given system, on its
    # stacked rows, for ``solve_min_norm``
    loss: float
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
    basis evaluated at its collocation points, each row divided by its
    weight, and the problem data there. Nothing writes into them once made
    (``_subdomain_rows``)."""

    # the rows of the operator's linear part on the subdomain's columns, in
    # block order, each divided by its entry of ``norms``; for subdomain 0
    # of a coupled problem, linear or not, n0 + 1 spare rows per ball below
    # them, n0 its column count. Every block of the subdomain has this
    # shape: a linear one is this array itself, a nonlinear one a copy
    # (``SystemBlocks.stacked``)
    matrix: np.ndarray
    row_kind: np.ndarray               # int8, ROW_* constants
    norms: np.ndarray                  # each row's weight (module docstring)
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
    with ``spare`` more rows left below them (``coupled_rows`` sizes them).

    Each row is then divided, in place, by its weight, which the module
    docstring defines, and the weights are kept as ``norms``.
    """
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
    rows = matrix[:len(row_kind)]
    norms = np.einsum("ij,ij->i", rows, rows)
    trace = None
    if ball is not None:
        trace = (basis_0.values(interface), basis_0.normal_derivatives(interface, normals))
        norms[len(norms) - 2 * len(interface):] += np.concatenate(
            [np.einsum("ij,ij->i", trace_0, trace_0) for trace_0 in trace])
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    rows /= norms[:, None]
    return SubdomainRows(
        matrix=matrix, row_kind=row_kind, norms=norms,
        forcing=problem.forcing(interior), data=problem.boundary(boundary),
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
    return _subdomain_rows(problem, basis_k, interior, boundary, ball, interface, basis_0)


def coupled_rows(problem: SemilinearProblem, basis_0: BasisSet,
                 interior: np.ndarray, boundary: np.ndarray,
                 balls: Sequence[SubdomainRows | _Eliminated]) -> list:
    """The rows of every subdomain of the coupled problem: subdomain 0's,
    evaluated at its ``interior`` and ``boundary`` points, then the balls'
    as given, each one's rows (of ``ball_rows``, on the same basis of
    subdomain 0) or what ``keep_ball`` made of them. This is the one place
    that sizes the stacked problem: subdomain 0's rows are evaluated into an
    array with n0 + 1 spare rows per ball below them, n0 = ``basis_0.size``,
    the rows of each ball's elimination whether kept or made by the solve,
    for every problem; each block of subdomain 0 is that array or a copy of
    it (``SystemBlocks.stacked``)."""
    if len(interior) == 0:
        raise AssemblyError("empty interior collocation set for subdomain 0")
    if len(boundary) == 0 and not any(ROW_BOUNDARY in ball.row_kind for ball in balls):
        raise AssemblyError("no boundary collocation points at all")
    spare = len(balls) * (basis_0.size + 1)
    return [_subdomain_rows(problem, basis_0, interior, boundary, spare=spare),
            *balls]


def _block(problem: SemilinearProblem, rows: SubdomainRows,
           alpha_k: np.ndarray, alpha_0: np.ndarray) -> SystemBlocks:
    """One subdomain's block linearized at ``alpha_k``, with subdomain 0 at
    ``alpha_0``: its rows on its own columns and, for a ball, its interface
    rows on subdomain 0's columns as ``coupling``, each row divided by its
    weight (``SubdomainRows.norms``).

    The right-hand side is the residual at the current coefficients in
    row-weight units: the forcing, the boundary data and, on an interface,
    subdomain 0's trace at ``alpha_0``, divided by the weights, minus the
    rows times ``alpha_k``, and on the interior rows of a nonlinear problem
    minus N(u) divided by the weights.

    Nothing is written into ``rows``, so they can be assembled any number of
    times. The block's ``stacked`` has the shape of the rows' array, spare
    rows and all: a linear block is that array itself, and a nonlinear one a
    copy of it whose interior rows gain N'(u) psi divided by their weights.
    """
    n = len(rows.row_kind)
    interior = slice(0, len(rows.forcing))
    parts = [rows.forcing, rows.data]
    if rows.trace is not None:
        parts += [trace_0 @ alpha_0 for trace_0 in rows.trace]
    T = np.concatenate(parts) / rows.norms
    T -= rows.matrix[:n] @ alpha_k
    F = rows.matrix
    if problem.nonlinearity is not None:
        u = rows.values @ alpha_k
        weights = rows.norms[interior]
        T[interior] -= problem.nonlinearity(u) / weights
        F = F.copy()
        F[interior] += (problem.nonlinearity_prime(u) / weights)[:, None] * rows.values
    coupling = None
    if rows.trace is not None:
        coupling = np.concatenate(rows.trace)
        coupling /= -rows.norms[n - len(coupling):, None]
    return SystemBlocks(stacked=F, rhs=T, row_kind=rows.row_kind, coupling=coupling)


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
    residuals (including the cancel-the-jump interface terms). Every row
    carries the weight its rows were evaluated with (``_block``).
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
    """A ball block after elimination (``_eliminate``): what the stacked
    subdomain-0 problem and the back-substitution x_k = V S^-1 U_r^T
    (r1 - R1c x_0) need, in the notation of the module docstring, and the
    block's row count per row kind. No array has the block's m rows: every
    one has at most max(n, n0 + 1)."""

    # the R factor of the projected [C | T], [(I - U_r U_r^T)[R1c | r1] ; R22]:
    # its first n0 columns and its last, on n0 + 1 rows
    coupling: np.ndarray
    rhs: np.ndarray
    vt: np.ndarray                     # retained rows of V^T
    s: np.ndarray                      # retained singular values
    ut_rhs: np.ndarray                 # U_r^T r1 = U^T T
    ut_coupling: np.ndarray            # U_r^T R1c = U^T C
    row_counts: np.ndarray             # the block's rows of each ROW_* kind

    @property
    def size(self) -> int:
        return self.vt.shape[1]

    @property
    def row_kind(self) -> np.ndarray:
        """The block's row kinds, in block order (``_subdomain_rows``)."""
        return np.repeat(np.arange(len(ROW_KIND_NAMES), dtype=np.int8), self.row_counts)

    @property
    def full_rank(self) -> bool:
        """Whether the truncation kept every singular value of a block with
        more rows than columns: then gelsd at the same cutoff
        (``solve_min_norm``) truncates nothing either, and its loss is the
        least-squares minimum that ``residual_bound`` computes. The decision
        is this SVD's, made at the BLAS threads of the process that
        eliminated the block; gelsd's own SVD may decide otherwise for a
        singular value within rounding of the cutoff."""
        return len(self.s) == self.size < int(self.row_counts.sum())

    def back_substitute(self, alpha_0: np.ndarray) -> np.ndarray:
        return self.vt.T @ ((self.ut_rhs - self.ut_coupling @ alpha_0) / self.s)


def _eliminate(ball: SystemBlocks) -> _Eliminated:
    """Eliminate a ball's block through the QR of [A | C | T] and the
    truncated SVD of its n x n factor R11, as the module docstring sets
    out: no SVD runs on the block itself, and no array of its m rows is
    made; the largest is the first QR's input, over the rows with no
    coupling."""
    A, C, T = ball.matrix, ball.coupling, ball.rhs
    (m, n), n0 = A.shape, C.shape[1]
    top = m - len(C)                    # the rows with no coupling
    R = _r_factor(A[:top], T[:top])
    # [A | C | T] of that R, zero in C's columns, over the interface rows
    stage = np.zeros((len(R) + len(C), n + n0 + 1))
    stage[:len(R), :n] = R[:, :n]
    stage[:len(R), -1] = R[:, -1]
    stage[len(R):, :n] = A[top:]
    stage[len(R):, n:-1] = C
    stage[len(R):, -1] = T[top:]
    del R
    R = np.linalg.qr(stage, mode="r")
    del stage
    k = min(len(R), n)                  # R11's rows
    u, s, vt = np.linalg.svd(R[:k, :n], full_matrices=False)
    r = int(np.count_nonzero(s > DEFAULT_SVD_CUTOFF * s[0]))
    u, s = u[:, :r], s[:r]
    ut = u.T @ R[:k, n:]
    projected = np.concatenate([R[:k, n:] - u @ ut, R[k:, n:]])
    reduced = np.zeros((n0 + 1, n0 + 1))
    reduced[:min(len(projected), n0 + 1)] = np.linalg.qr(projected, mode="r")
    return _Eliminated(coupling=reduced[:, :n0], rhs=reduced[:, n0],
                       # the retained rows alone, not the whole V^T
                       vt=vt[:r].copy(), s=s, ut_rhs=ut[:, n0], ut_coupling=ut[:, :n0],
                       row_counts=np.bincount(ball.row_kind,
                                              minlength=len(ROW_KIND_NAMES)))


def solve_min_norm(blocks: SystemBlocks) -> SolveReport:
    """Least-squares solution by block elimination, truncated SVD per block.

    Each ball block is eliminated (``_eliminate``; a kept linear ball is its
    elimination already), the stacked reduced subdomain-0 problem is solved
    by gelsd (``np.linalg.lstsq``), and the balls' coefficients are
    back-substituted; singular values below DEFAULT_SVD_CUTOFF times the
    largest of their block (of the stacked problem for subdomain 0) are
    discarded. The reduced couplings, n0 + 1 rows per ball, are written into
    the spare rows of ``stacked``, so the stacked problem is that array,
    with no copy of subdomain 0's rows; a spare row count that does not
    match raises AssemblyError. Without balls ``stacked`` has no spare row
    and this is gelsd on ``matrix``, the minimum-norm solution. A gelsd
    problem with n < m < int(1.6 n) is reduced to the R factor of [F | T]
    first. The report carries each block's rank and retained singular-value
    range, and ``loss``, |F0 x0 - T0|^2 of the stacked array before any R
    reduction: subdomain 0's rows and each ball's reduced rows, which carry
    the ball's residual (module docstring), so no ball's rows are read.
    """
    _check_blocks([b for b in [blocks] + blocks.balls if isinstance(b, SystemBlocks)])
    eliminated = [_eliminate(ball) if isinstance(ball, SystemBlocks) else ball
                  for ball in blocks.balls]
    F0 = blocks.stacked
    T0 = np.concatenate([blocks.rhs] + [e.rhs for e in eliminated])
    if len(F0) != len(T0):
        raise AssemblyError("subdomain 0's array needs n0 + 1 spare rows per ball")
    start = len(blocks.rhs)
    for e in eliminated:
        F0[start:start + len(e.rhs)] = e.coupling
        start += len(e.rhs)
    F, T = F0, T0
    m, n = F0.shape
    if n < m < int(1.6 * n):       # gelsd takes a QR first from int(1.6 n) rows on
        R = _r_factor(F0, T0)
        F, T = R[:, :-1], R[:, -1]
    alpha_0, _, rank, s0 = np.linalg.lstsq(F, T, rcond=DEFAULT_SVD_CUTOFF)
    res = F0 @ alpha_0 - T0
    return SolveReport(alphas=[alpha_0] + [e.back_substitute(alpha_0) for e in eliminated],
                       loss=float(res @ res),
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


def _sigma_range(s: np.ndarray) -> list[float]:
    """[largest, smallest] of the retained singular values ``s``."""
    return [float(s[0]), float(s[-1])] if len(s) else [0.0, 0.0]


#: Halvings of a Gauss-Newton step before the loop gives up on lowering |T|^2.
MAX_HALVINGS = 20


def _weighted_residual(blocks: SystemBlocks) -> float:
    """|T|^2 of a system of nonlinear blocks: its squared residual at the
    coefficients it was linearized at."""
    return float(sum(b.rhs @ b.rhs for b in [blocks] + blocks.balls))


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
        trial_loss = _weighted_residual(blocks)
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
    one coefficient vector per subdomain (zeros when None), each row
    divided by one weight whatever ``alphas``, so that every step lowers one
    weighted |T|^2 (the module docstring). A linear problem is the direct
    solve of the system at zero coefficients: one assembly, one solve,
    iterations ``[(0, loss, None)]``.
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
    ``n_max`` also returns converged=False. The report's ``loss`` is |T|^2
    at the returned coefficients, the weighted residual that the solve
    minimises; its ranks and singular values are the last solve's.
    """
    blocks = assembler(None)
    if is_linear:
        report = solve_min_norm(blocks)
        return replace(report, iterations=[(0, report.loss, None)])
    alphas = [np.zeros(b.size) for b in [blocks] + blocks.balls]
    loss = _weighted_residual(blocks)
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
        loss = _weighted_residual(blocks)
        re_mse = None if n == 0 else (
            0.0 if previous == 0.0 else abs(loss - previous) / previous)
        trace.append((n, loss, re_mse))
        if n > 0 and (previous == 0.0 or re_mse < tol):
            converged = True
            break
    return replace(report, alphas=alphas, loss=loss, iterations=trace,
                   converged=converged)


def keep_ball(problem: SemilinearProblem,
              rows: SubdomainRows) -> SubdomainRows | _Eliminated:
    """A ball as its scale search made it, complete and never changed, from
    its rows (of ``ball_rows``): a nonlinear ball's rows themselves, which
    every Gauss-Newton step re-linearizes; a linear ball's block at zero
    coefficients, where it depends on its rows alone, checked for finite
    entries and eliminated here, once, so that every coupled solve takes the
    elimination instead of factoring the block again, and the rows are
    released. A kept linear ball holds no array of the block's m rows, and
    no coupled solve evaluates them again."""
    if not problem.is_linear:
        return rows
    block = _block(problem, rows, np.zeros(rows.size), np.zeros(rows.trace[0].shape[1]))
    _check_blocks([block])
    return _eliminate(block)


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
