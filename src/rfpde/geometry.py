"""Domains, ball partitions, and collocation point bookkeeping.

The computational domain is an axis-aligned box, optionally with a closed
sub-box removed (L-shaped domains). Low-regularity regions are carved out as
balls B_r(c) intersected with the domain; the remainder is subdomain 0.
Collocation sets hold interior points per subdomain, boundary points on the
outer boundary, and interface points on each ball's sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

#: Absolute tolerance for on-boundary / on-sphere tests. Lattice coordinates
#: are exact binary-adjacent rationals; this only absorbs float round-off.
TAU_GEO = 1e-10

#: Interior lattice points closer than this to a re-entrant corner are
#: dropped (the forcing of the corner benchmark is unbounded there).
CORNER_EXCLUSION = 1e-8


class GeometryError(Exception):
    """Invalid geometric configuration or operation."""


class RefinementConflictError(GeometryError):
    """A new ball is not disjoint from an existing one."""

    def __init__(self, message: str, conflicting_index: int | None = None):
        super().__init__(message)
        self.conflicting_index = conflicting_index


class DegeneratePointError(GeometryError):
    """A direction or normal is undefined at the given point."""


def _as_points(x) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.ndim != 2:
        raise GeometryError(f"expected a point array, got shape {np.shape(x)}")
    return pts


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-axis bounds, lo < hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise GeometryError("box bounds must be 1-d arrays of equal length")
        if lo.shape[0] not in (2, 3):
            raise GeometryError("only 2- and 3-dimensional boxes are supported")
        if not np.all(lo < hi):
            raise GeometryError("box requires lo < hi on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def corners(self) -> np.ndarray:
        return _tensor_lattice(self, 2)

    def circumradius(self) -> float:
        """Largest distance from the origin to a corner of the box."""
        return float(np.max(np.linalg.norm(self.corners(), axis=1)))

    def in_closure(self, x) -> np.ndarray:
        pts = _as_points(x)
        return np.all((pts >= self.lo - TAU_GEO) & (pts <= self.hi + TAU_GEO), axis=1)

    def on_boundary(self, x) -> np.ndarray:
        pts = _as_points(x)
        near_face = np.any((np.abs(pts - self.lo) <= TAU_GEO)
                           | (np.abs(pts - self.hi) <= TAU_GEO), axis=1)
        return self.in_closure(pts) & near_face

    def contains(self, x) -> np.ndarray:
        """Strict interior membership."""
        return self.in_closure(x) & ~self.on_boundary(x)

    def corner_guard_points(self) -> np.ndarray:
        return np.empty((0, self.dim))


@dataclass(frozen=True)
class BoxMinusBox:
    """Outer box minus a closed sub-box (e.g. the L-shape [-1,1]² \\ [0,1]²).

    The removed box must be contained in the outer box; faces of the removed
    box glued to the outer boundary carry no re-entrant boundary.
    """

    outer: Box
    removed: Box

    def __post_init__(self):
        if self.outer.dim != self.removed.dim:
            raise GeometryError("outer and removed boxes must share the dimension")
        inside = np.all(self.removed.lo >= self.outer.lo - TAU_GEO) and \
            np.all(self.removed.hi <= self.outer.hi + TAU_GEO)
        if not inside:
            raise GeometryError("removed box must be contained in the outer box")

    @property
    def dim(self) -> int:
        return self.outer.dim

    def circumradius(self) -> float:
        return self.outer.circumradius()

    def _reachable_faces(self) -> list[tuple[int, int]]:
        """Faces (axis, side) of the removed box not glued to the outer boundary."""
        faces = []
        for ax in range(self.dim):
            if self.removed.lo[ax] > self.outer.lo[ax] + TAU_GEO:
                faces.append((ax, 0))
            if self.removed.hi[ax] < self.outer.hi[ax] - TAU_GEO:
                faces.append((ax, 1))
        return faces

    def _near_reachable_face(self, pts: np.ndarray) -> np.ndarray:
        near = np.zeros(pts.shape[0], dtype=bool)
        for ax, side in self._reachable_faces():
            v = self.removed.lo[ax] if side == 0 else self.removed.hi[ax]
            near |= np.abs(pts[:, ax] - v) <= TAU_GEO
        return near

    def in_closure(self, x) -> np.ndarray:
        pts = _as_points(x)
        in_removed = self.removed.in_closure(pts)
        return self.outer.in_closure(pts) & (~in_removed | self._near_reachable_face(pts))

    def on_boundary(self, x) -> np.ndarray:
        pts = _as_points(x)
        reentrant = self.removed.in_closure(pts) & self._near_reachable_face(pts)
        return self.in_closure(pts) & (self.outer.on_boundary(pts) | reentrant)

    def contains(self, x) -> np.ndarray:
        return self.in_closure(x) & ~self.on_boundary(x)

    def corner_guard_points(self) -> np.ndarray:
        """Re-entrant corners of the removed box strictly inside the outer box."""
        corners = self.removed.corners()
        keep = self.outer.contains(corners)
        return corners[keep]


BaseRegion = Union[Box, BoxMinusBox]


@dataclass(frozen=True)
class BallSubdomain:
    """Ball B_r(c) intersected with the domain; index k >= 1."""

    center: np.ndarray
    radius: float
    index: int

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise GeometryError("ball radius must be positive")
        if self.index < 1:
            raise GeometryError("ball index must be >= 1")

    def distances(self, x) -> np.ndarray:
        pts = _as_points(x)
        return np.linalg.norm(pts - self.center, axis=1)

    def contains_closed(self, x) -> np.ndarray:
        return self.distances(x) <= self.radius + TAU_GEO

    def contains_open(self, x) -> np.ndarray:
        return self.distances(x) < self.radius

    def bounding_box(self) -> Box:
        return Box(self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class PartitionState:
    """A base region and its carved-out ball subdomains (indices 1..K).

    Immutable: splits return new values.
    """

    base: BaseRegion
    balls: tuple[BallSubdomain, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "balls", tuple(self.balls))
        for pos, ball in enumerate(self.balls):
            if ball.index != pos + 1:
                raise GeometryError("balls must be indexed consecutively from 1")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_balls(self) -> int:
        return len(self.balls)

    @property
    def n_subdomains(self) -> int:
        return len(self.balls) + 1

    def ball(self, k: int) -> BallSubdomain:
        if not 1 <= k <= len(self.balls):
            raise IndexError(f"no ball subdomain with index {k}")
        return self.balls[k - 1]

    def classify(self, x) -> np.ndarray:
        """Assign each point of the closed domain to exactly one subdomain.

        Closed balls take precedence (points on a sphere belong to the ball);
        everything else in the closed domain is subdomain 0; points outside
        get -1.
        """
        pts = _as_points(x)
        labels = np.where(self.base.in_closure(pts), 0, -1)
        for ball in self.balls:
            mask = ball.contains_closed(pts) & (labels == 0)
            labels[mask] = ball.index
        return labels


@dataclass(frozen=True)
class CollocationSets:
    """Interior / boundary / interface point sets per subdomain.

    All three tuples have one entry per subdomain (index k); ``interface[0]``
    is an empty placeholder since subdomain 0 has no sphere.
    """

    interior: tuple[np.ndarray, ...]
    boundary: tuple[np.ndarray, ...]
    interface: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "interior", tuple(self.interior))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "interface", tuple(self.interface))
        n = len(self.interior)
        if len(self.boundary) != n or len(self.interface) != n:
            raise GeometryError("collocation sets must align across kinds")

    @property
    def n_subdomains(self) -> int:
        return len(self.interior)

    @staticmethod
    def initial(interior: np.ndarray, boundary: np.ndarray) -> "CollocationSets":
        d = interior.shape[1]
        empty = np.empty((0, d))
        return CollocationSets((interior,), (boundary,), (empty,))


def _tensor_lattice(box: Box, n: int) -> np.ndarray:
    """The n-points-per-axis lattice over ``box``, endpoints included."""
    if n < 2:
        raise GeometryError(f"a lattice needs at least 2 points per axis, not {n}")
    axes = [np.linspace(box.lo[i], box.hi[i], n) for i in range(box.dim)]
    try:
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    except MemoryError:
        raise GeometryError(f"a {n}-per-axis lattice ({n ** box.dim} points) does not "
                            "fit in memory; a resolution is points per axis, not a "
                            "total") from None


def _off_corners(region: BaseRegion, pts: np.ndarray) -> np.ndarray:
    """Mask of the points not within ``CORNER_EXCLUSION`` of a re-entrant corner."""
    keep = np.ones(len(pts), dtype=bool)
    for corner in region.corner_guard_points():
        keep &= np.linalg.norm(pts - corner, axis=1) >= CORNER_EXCLUSION
    return keep


def generate_interior_grid(region: BaseRegion, resolution: int) -> np.ndarray:
    """Uniform lattice over the outer box, masked to the closed domain.

    ``resolution`` is points per axis, endpoints included. Lattice points
    outside the domain are masked off; points within ``CORNER_EXCLUSION`` of
    a re-entrant corner are dropped.
    """
    outer = region if isinstance(region, Box) else region.outer
    pts = _tensor_lattice(outer, resolution)
    return pts[region.in_closure(pts) & _off_corners(region, pts)]


def _facet(lo: np.ndarray, hi: np.ndarray, ax: int,
           value: float) -> tuple[np.ndarray, np.ndarray]:
    """The facet x_ax = ``value`` of the box [lo, hi], as its corners."""
    lo, hi = lo.copy(), hi.copy()
    lo[ax] = hi[ax] = value
    return lo, hi


def _facet_points(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """``n`` midpoint-offset lattice points on the facet with corners lo, hi.

    The free axes are those where lo != hi: an edge gets n ticks, a face the
    ``_face_lattice_counts`` grid, raveled in axis order. The offsets keep
    every point off the facet's rim, so no corner or shared edge repeats.
    """
    free = np.flatnonzero(lo != hi)
    sides = hi[free] - lo[free]
    ticks = (n,) if len(free) == 1 else _face_lattice_counts(n, *sides)
    grids = np.meshgrid(*[lo[a] + (np.arange(m) + 0.5) / m * side
                          for a, m, side in zip(free, ticks, sides)], indexing="ij")
    pts = np.repeat(lo[None, :], grids[0].size, axis=0)
    pts[:, free] = np.stack([g.ravel() for g in grids], axis=1)
    return pts


def _boundary_edges_2d(region: BaseRegion) -> list[tuple[np.ndarray, np.ndarray]]:
    """The outer walk (bottom, right, top, left), each edge cut by the removed
    box, then the removed box's reachable faces."""
    outer = region if isinstance(region, Box) else region.outer
    lo, hi = outer.lo, outer.hi
    removed = region.removed if isinstance(region, BoxMinusBox) else None
    edges = []
    for ax, value in ((1, lo[1]), (0, hi[0]), (1, hi[1]), (0, lo[0])):
        a, b = lo[1 - ax], hi[1 - ax]
        pieces = [(a, b)]
        if removed is not None and \
                removed.lo[ax] - TAU_GEO <= value <= removed.hi[ax] + TAU_GEO:
            ra, rb = removed.lo[1 - ax], removed.hi[1 - ax]
            pieces = []
            if ra > a + TAU_GEO:
                pieces.append((a, min(ra, b)))
            if rb < b - TAU_GEO:
                pieces.append((max(rb, a), b))
        edges += [_facet(np.full(2, pa), np.full(2, pb), ax, value)
                  for pa, pb in pieces if pb - pa > TAU_GEO]
    if removed is not None:
        edges += [_facet(np.maximum(removed.lo, lo), np.minimum(removed.hi, hi), ax,
                         removed.hi[ax] if side else removed.lo[ax])
                  for ax, side in region._reachable_faces()]
    return edges


def _face_lattice_counts(n_face: int, len_u: float, len_v: float) -> tuple[int, int]:
    # integer factorization nu*nv = n_face with nu/nv closest to len_u/len_v
    best = None
    for nu in range(1, n_face + 1):
        if n_face % nu:
            continue
        nv = n_face // nu
        mismatch = abs(np.log((nu / nv) / (len_u / len_v)))
        if best is None or mismatch < best[0]:
            best = (mismatch, nu, nv)
    if best is None or best[0] > 1e-9:
        raise GeometryError(
            f"face count {n_face} does not factor to match the face aspect ratio")
    return best[1], best[2]


def _proportional_split(count: int, sizes: np.ndarray, what: str) -> np.ndarray:
    """Integer counts proportional to ``sizes`` that add up to ``count``."""
    raw = count * sizes / sizes.sum()
    counts = np.rint(raw).astype(int)
    if np.any(np.abs(raw - counts) > 1e-9) or counts.sum() != count:
        raise GeometryError(
            f"count {count} does not split proportionally over {len(sizes)} {what}")
    return counts


def generate_boundary_points(region: BaseRegion, count: int) -> np.ndarray:
    """Deterministic boundary collocation points, ``count`` in total.

    The boundary is one list of facets: the edges of ``_boundary_edges_2d``
    in 2D, the six faces of the box in (axis, lo/hi) order in 3D. One
    ``_proportional_split`` gives each facet points in proportion to its
    length or area (the equal split of the square/cube cases is a special
    case), and each facet is laid out as the same midpoint-offset lattice
    (``_facet_points``), so corners and shared edges are never duplicated.
    Raises if the proportional allocation is not integral.
    """
    if region.dim == 2:
        facets, what = _boundary_edges_2d(region), "edges"
    elif isinstance(region, BoxMinusBox):
        raise NotImplementedError("3-d box-minus-box boundary sampling is not supported")
    else:
        lo, hi = region.lo, region.hi
        facets = [_facet(lo, hi, ax, v) for ax in range(3) for v in (lo[ax], hi[ax])]
        what = "faces"
    sizes = np.array([np.prod((f_hi - f_lo)[f_lo != f_hi]) for f_lo, f_hi in facets])
    counts = _proportional_split(count, sizes, what)
    return np.vstack([_facet_points(f_lo, f_hi, n)
                      for (f_lo, f_hi), n in zip(facets, counts)])


def sample_sphere_uniform(center, radius: float, count: int) -> np.ndarray:
    """Deterministic near-uniform point set on the sphere of given radius.

    2D: equispaced angles starting at angle 0. 3D: a Fibonacci lattice.
    """
    center = np.asarray(center, dtype=float)
    if count < 1:
        raise GeometryError("count must be >= 1")
    if radius <= 0:
        raise GeometryError("radius must be positive")
    d = center.shape[0]
    if d == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif d == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        theta = golden * i
        unit = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    else:
        raise GeometryError("sphere sampling supports d in {2, 3}")
    return center + radius * unit


def outward_normals(ball: BallSubdomain, x) -> np.ndarray:
    """Unit normals (x - c)/|x - c|, outward from the ball, for sphere points."""
    pts = _as_points(x)
    diff = pts - ball.center
    norms = np.linalg.norm(diff, axis=1)
    if np.any(norms < TAU_GEO):
        raise DegeneratePointError("normal undefined at the ball center")
    if np.any(np.abs(norms - ball.radius) > TAU_GEO * max(1.0, ball.radius) + TAU_GEO):
        raise GeometryError("point is not on the ball's sphere")
    return diff / norms[:, None]


def split_subdomain(partition: PartitionState, center, radius: float) -> PartitionState:
    """Carve a new ball out of subdomain 0, returning the grown partition.

    The new ball must meet the domain and be disjoint (closures) from all
    existing balls; a violation raises RefinementConflictError carrying the
    offending index.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (partition.dim,):
        raise GeometryError("center dimension does not match the region")
    if radius <= 0:
        raise GeometryError("radius must be positive")
    probe = _tensor_lattice(Box(center - radius, center + radius), 5)
    if not (np.any(partition.base.in_closure(center[None, :]))
            or np.any(partition.base.in_closure(probe))):
        raise GeometryError("new ball does not intersect the domain")
    for ball in partition.balls:
        if np.linalg.norm(center - ball.center) <= radius + ball.radius + TAU_GEO:
            raise RefinementConflictError(
                f"new ball at {center.tolist()} intersects ball {ball.index}",
                conflicting_index=ball.index)
    new = BallSubdomain(center=center, radius=radius, index=partition.n_balls + 1)
    return replace(partition, balls=partition.balls + (new,))


def reclassify_collocation(partition: PartitionState, interior: np.ndarray,
                           boundary: np.ndarray, ball_resolution: int,
                           interface_count: int) -> CollocationSets:
    """The collocation sets of every subdomain of ``partition``, built from
    the domain-wide ``interior`` and ``boundary`` points alone.

    Each of those points goes to the subdomain that
    ``PartitionState.classify`` gives it, in its given order: a closed ball
    takes it, the earliest ball if more than one does, and subdomain 0 the
    rest. A ball keeps the boundary points it takes, but none of the
    interior ones: its interior set is its own lattice of ``ball_resolution``
    points per axis over its bounding box, masked to the open ball-domain,
    and its interface set a sphere sample of ``interface_count`` points,
    masked to the open domain. So the sets depend on the partition alone,
    and any partition's sets, however it was reached, are one call away.
    """
    base = partition.base
    owner_f, owner_g = partition.classify(interior), partition.classify(boundary)
    x_f, x_gamma = [interior[owner_f == 0]], [np.empty((0, partition.dim))]
    for ball in partition.balls:
        lattice = _tensor_lattice(ball.bounding_box(), ball_resolution)
        x_f.append(lattice[ball.contains_open(lattice) & base.contains(lattice)
                           & _off_corners(base, lattice)])
        if len(x_f[-1]) == 0:
            raise GeometryError(
                f"ball {ball.index} holds no point of its {ball_resolution}-per-axis "
                "lattice inside the domain; raise ball_resolution (points per axis)")
        sphere = sample_sphere_uniform(ball.center, ball.radius, interface_count)
        x_gamma.append(sphere[base.contains(sphere)])
    x_g = [boundary[owner_g == k] for k in range(partition.n_subdomains)]
    return CollocationSets(x_f, x_g, x_gamma)
