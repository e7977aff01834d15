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

Dot products over the axes are accumulated by an explicit per-axis loop, not
a matmul: evaluation stays free of BLAS, and a point's row does not depend on
the batch it is evaluated in, so the rows of any subset of points equal the
corresponding rows of the full batch bit for bit. The byte-for-byte tests
rely on this: the row-subset check of the basis and ``TestOneAssemblyPath``,
which compares the coupled and the single-ball systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import substream


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

    def _preactivation(self, pts: np.ndarray) -> np.ndarray:
        # fixed left-to-right accumulation over axes, no BLAS: a point's row
        # is the same bits whatever batch it is evaluated in; accumulated in
        # place, so the only (n, M) temporaries are the result and one product
        xc = pts - self.center
        dot = xc[:, 0, None] * self.weights[None, :, 0]
        for j in range(1, self.dim):
            dot += xc[:, j, None] * self.weights[None, :, j]
        dot *= self.scale
        dot += self.biases
        return dot

    def values(self, x) -> np.ndarray:
        """Basis values, shape (n, M+1); column 0 is the constant."""
        pts = self._check(x)
        out = np.empty((pts.shape[0], self.size))
        out[:, 0] = 1.0
        np.tanh(self._preactivation(pts), out=out[:, 1:])
        return out

    def laplacians(self, x) -> np.ndarray:
        """Basis Laplacians, shape (n, M+1)."""
        pts = self._check(x)
        psi = np.tanh(self._preactivation(pts))
        wsq = np.sum(self.weights * self.weights, axis=1)
        out = np.empty((pts.shape[0], self.size))
        out[:, 0] = 0.0
        out[:, 1:] = ((self.scale * self.scale * wsq)[None, :] * (-2.0 * psi)
                      * (1.0 - psi * psi))
        return out

    def normal_derivatives(self, x, normals) -> np.ndarray:
        """Directional derivatives n . grad psi, shape (n, M+1)."""
        pts = self._check(x)
        nrm = np.asarray(normals, dtype=float)
        if nrm.shape != pts.shape:
            raise ValueError("normals must match the point array shape")
        psi = np.tanh(self._preactivation(pts))
        dot = nrm[:, 0, None] * self.weights[None, :, 0]
        for j in range(1, self.dim):
            dot = dot + nrm[:, j, None] * self.weights[None, :, j]
        out = np.empty((pts.shape[0], self.size))
        out[:, 0] = 0.0
        out[:, 1:] = self.scale * (1.0 - psi * psi) * dot
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
    while np.any(norms < 1e-300):  # measure-zero resample guard
        bad = norms < 1e-300
        directions[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(directions, axis=1)
    offsets = rng.uniform(0.0, 1.0, size=m)
    return BasisSet(weights=gamma * directions / norms[:, None],
                    biases=gamma * offsets, center=np.zeros(dim))


def rescale(base: BasisSet, center, scale) -> BasisSet:
    """Same neurons, recentred at ``center`` with frequency multiplier ``scale``."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return replace(base, center=np.asarray(center, dtype=float), scale=float(scale))
