"""Randomized shallow tanh bases with analytic derivatives.

A basis set is M fixed hidden neurons plus the constant function at index 0:

    psi_0(x) = 1,
    psi_m(x) = tanh(c * w_m . (x - x_c) + b_m),   m = 1..M,

where c is the frequency factor: the integer multiplier of a recentred ball
basis, or the input normalization (one over the domain's circumradius) of
the hyperplane-resampled construction on the base domain. Values, normal
derivatives and Laplacians come from the closed forms tanh' = 1 - tanh^2 and
tanh'' = -2 tanh (1 - tanh^2).

Two hidden-parameter constructions are provided:

* ``generate_uniform``: w ~ U([-R, R]^d), b ~ U([-R, R]).
* ``generate_transferable``: directions resampled as normalized Gaussians and
  offsets U[0, 1], scaled by a shared shape parameter gamma, which places the
  neuron hyperplanes uniformly in the unit ball.

Every evaluation method writes its (n, M+1) rows into ``out`` when one is
given (a float64 array of that shape, such as a row slice of a larger
C-contiguous matrix; anything else raises ValueError) and returns it, so a
caller assembling a matrix has each row group evaluated straight into its
rows. Only the destination's rows are written. The points are taken in
chunks of ``chunk_rows(M)`` rows, so that one chunk's scratch (CHUNK_BYTES)
and its destination stay in cache: a chunk's preactivation and tanh go into
one contiguous scratch plane, and the closed-form product is written into
the chunk's rows of ``out``. No (n, M) temporary is made.

Dot products over the axes are accumulated left to right, one axis at a
time. Each axis term is the outer product of the points' coordinate and the
neurons' weight on that axis, formed by ``np.einsum`` with no summed index:
one IEEE product per entry, no BLAS. Every other step is elementwise, in the
same order for every row. A point's row therefore depends neither on the
batch it is evaluated in, nor on the chunk it falls in, nor on where it is
written. The rows of any subset of points equal the corresponding rows of
the full batch bit for bit. They also equal the rows that broadcast
``np.multiply`` products of the same factors give, with one exception: the
einsum adds each product to a zeroed output, so a product of -0.0 enters as
+0.0. That shows only where every axis product of a dot is zero and nothing
nonzero is added after it: the normal derivative along a zero vector, or a
preactivation at the centre with a bias of -0.0. Unit normals and the
generators' biases never reach it. The einsum reads each axis's weights from
one contiguous row (``_weights_by_axis``), which is what makes it faster than
the broadcast product of strided columns: with 500 neurons, 3D values took
0.49 s instead of 0.71 s for 125k points (``BENCH_14.json``). The
byte-for-byte tests rely on all this: the row-subset, ``out`` and
broadcast-oracle checks of the basis and ``TestOneAssemblyPath``, which
compares the coupled and the single-ball systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .rng import substream

#: Bytes of scratch one chunk of an evaluation uses: two (rows, M) planes of
#: doubles. With the chunk's destination rows (one more plane) that is 1.5 MB,
#: within a core's 2 MB L2 cache on the machine it was measured on; 4 MB of
#: scratch evaluated 3D Laplacians about 15% slower.
CHUNK_BYTES = 1 << 20


def chunk_rows(n_neurons: int) -> int:
    """Rows of one evaluation chunk for a basis of ``n_neurons`` neurons."""
    return max(1, CHUNK_BYTES // (16 * max(n_neurons, 1)))


@dataclass(frozen=True)
class BasisSet:
    """Immutable set of M tanh neurons plus the constant basis function."""

    weights: np.ndarray           # (M, d)
    biases: np.ndarray            # (M,)
    center: np.ndarray            # (d,)
    scale: float = 1.0            # frequency factor c

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        c = np.asarray(self.center, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],) or c.shape != (w.shape[1],):
            raise ValueError("inconsistent neuron array shapes")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("neuron parameters must be finite")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def n_neurons(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def size(self) -> int:
        """Number of basis functions, constant included."""
        return self.n_neurons + 1

    # -- evaluation ---------------------------------------------------------

    def _check(self, x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) points, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite evaluation point")
        return pts

    def _destination(self, n: int, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            return np.empty((n, self.size))
        if not isinstance(out, np.ndarray) or out.shape != (n, self.size) \
                or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {(n, self.size)}")
        if not out.flags.writeable:
            raise ValueError("out is read-only")
        return out

    @property
    def _weights_by_axis(self) -> np.ndarray:
        """The weights as a C-contiguous (d, M) array: row j holds every
        neuron's weight on axis j."""
        return np.ascontiguousarray(self.weights.T)

    @staticmethod
    def _axis_dot(a: np.ndarray, wt: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> None:
        # out = a . w_m for every row and neuron, accumulated left to right
        # over the axes, each term the outer product a_j (x) w_j as an einsum
        # with no summed index: one IEEE product per entry, no BLAS, so a
        # point's row is the same bits whatever batch it is evaluated in
        np.einsum("i,m->im", a[:, 0], wt[0], out=out)
        for j in range(1, len(wt)):
            out += np.einsum("i,m->im", a[:, j], wt[j], out=scratch)

    def _chunks(self, pts: np.ndarray, out: np.ndarray):
        """Yield ``(rows, psi, scratch, dest)`` per chunk of rows: the chunk's
        points' slice, its preactivation in ``psi``, a second scratch plane of
        the same shape, and ``out``'s neuron columns of those rows."""
        step = chunk_rows(self.n_neurons)
        wt = self._weights_by_axis
        buffer = np.empty((2, min(step, len(pts)), self.n_neurons))
        for start in range(0, len(pts), step):
            rows = slice(start, min(start + step, len(pts)))
            n = rows.stop - start
            psi, scratch = buffer[0, :n], buffer[1, :n]
            self._axis_dot(pts[rows] - self.center, wt, psi, scratch)
            psi *= self.scale
            psi += self.biases
            yield rows, psi, scratch, out[rows, 1:]

    def values(self, x, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Basis values, shape (n, M+1); column 0 is the constant."""
        pts = self._check(x)
        out = self._destination(len(pts), out)
        out[:, 0] = 1.0
        for _, psi, _, dest in self._chunks(pts, out):
            np.tanh(psi, out=dest)
        return out

    def laplacians(self, x, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Basis Laplacians, shape (n, M+1)."""
        pts = self._check(x)
        out = self._destination(len(pts), out)
        out[:, 0] = 0.0
        wsq = np.sum(self.weights * self.weights, axis=1)
        coef = self.scale * self.scale * wsq
        for _, psi, _, dest in self._chunks(pts, out):
            # coef * (-2 psi) * (1 - psi^2)
            np.tanh(psi, out=psi)
            np.multiply(psi, psi, out=dest)
            np.subtract(1.0, dest, out=dest)
            psi *= -2.0
            psi *= coef
            dest *= psi
        return out

    def normal_derivatives(self, x, normals, out: Optional[np.ndarray] = None
                           ) -> np.ndarray:
        """Directional derivatives n . grad psi, shape (n, M+1)."""
        pts = self._check(x)
        nrm = np.asarray(normals, dtype=float)
        if nrm.shape != pts.shape:
            raise ValueError("normals must match the point array shape")
        out = self._destination(len(pts), out)
        out[:, 0] = 0.0
        wt = self._weights_by_axis
        for rows, psi, scratch, dest in self._chunks(pts, out):
            # scale * (1 - psi^2) * (n . w)
            np.tanh(psi, out=psi)
            psi *= psi
            np.subtract(1.0, psi, out=psi)
            psi *= self.scale
            self._axis_dot(nrm[rows], wt, dest, scratch)
            dest *= psi
        return out


def generate_uniform(m: int, r_bound: float, dim: int, seed: int,
                     stream: int = 0) -> BasisSet:
    """Hidden parameters drawn i.i.d. uniform on [-R, R]^d x [-R, R]."""
    if m < 1 or r_bound <= 0:
        raise ValueError("need m >= 1 and R > 0")
    rng = substream(seed, stream)
    weights = rng.uniform(-r_bound, r_bound, size=(m, dim))
    biases = rng.uniform(-r_bound, r_bound, size=m)
    return BasisSet(weights=weights, biases=biases, center=np.zeros(dim))


def generate_transferable(m: int, gamma: float, dim: int, seed: int,
                          stream: int = 0) -> BasisSet:
    """Unit directions from normalized Gaussians, offsets U[0,1], shared gamma.

    Weights are gamma * a_m with |a_m| = 1 (so |w_m| = gamma for every m) and
    biases gamma * r_m with r_m in [0, 1]; the neuron hyperplanes are then
    uniformly distributed in the unit ball.
    """
    if m < 1 or gamma <= 0:
        raise ValueError("need m >= 1 and gamma > 0")
    rng = substream(seed, stream)
    directions = rng.standard_normal((m, dim))
    norms = np.linalg.norm(directions, axis=1)
    offsets = rng.uniform(0.0, 1.0, size=m)
    return BasisSet(weights=gamma * directions / norms[:, None],
                    biases=gamma * offsets, center=np.zeros(dim))


def rescale(base: BasisSet, center, scale) -> BasisSet:
    """Same neurons, recentred at ``center`` with frequency multiplier ``scale``."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return replace(base, center=np.asarray(center, dtype=float), scale=float(scale))
