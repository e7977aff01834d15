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
        d = self.dim
        grids = np.meshgrid(*[np.array([self.lo[i], self.hi[i]]) for i in range(d)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

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

    def counts(self) -> dict:
        return {
            "interior": [len(p) for p in self.interior],
            "boundary": [len(p) for p in self.boundary],
            "interface": [len(p) for p in self.interface],
        }

    @staticmethod
    def initial(interior: np.ndarray, boundary: np.ndarray) -> "CollocationSets":
        d = interior.shape[1]
        empty = np.empty((0, d))
        return CollocationSets((interior,), (boundary,), (empty,))


def _lattice_axis_count(target: int, dim: int) -> int:
    """Largest n with n**dim <= target."""
    n = int(round(target ** (1.0 / dim)))
    while n ** dim > target:
        n -= 1
    while (n + 1) ** dim <= target:
        n += 1
    if n < 2:
        raise GeometryError(f"target count {target} too small for a {dim}-d lattice")
    return n


def _tensor_lattice(box: Box, n: int) -> np.ndarray:
    axes = [np.linspace(box.lo[i], box.hi[i], n) for i in range(box.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def generate_interior_grid(region: BaseRegion, resolution: int | None = None,
                           target: int | None = None) -> np.ndarray:
    """Uniform lattice over the outer box, masked to the closed domain.

    Exactly one of ``resolution`` (points per axis, endpoints included) and
    ``target`` (total lattice budget; the largest n**d <= target is used)
    must be given. Lattice points outside the domain are masked off; points
    within ``CORNER_EXCLUSION`` of a re-entrant corner are dropped.
    """
    if (resolution is None) == (target is None):
        raise GeometryError("give exactly one of resolution and target")
    if resolution is not None and resolution < 2:
        raise GeometryError("resolution must be at least 2 per axis")
    outer = region if isinstance(region, Box) else region.outer
    n = resolution if resolution is not None else _lattice_axis_count(target, region.dim)
    pts = _tensor_lattice(outer, n)
    keep = region.in_closure(pts)
    for corner in region.corner_guard_points():
        keep &= np.linalg.norm(pts - corner, axis=1) >= CORNER_EXCLUSION
    return pts[keep]


def _edge_points(p0: np.ndarray, p1: np.ndarray, n: int) -> np.ndarray:
    # midpoint offsets: n points strictly between the endpoints, no corner
    # duplication across adjacent edges
    t = (np.arange(n) + 0.5) / n
    return p0 + t[:, None] * (p1 - p0)


def _boundary_edges_2d(region: BaseRegion) -> list[tuple[np.ndarray, np.ndarray]]:
    outer = region if isinstance(region, Box) else region.outer
    lo, hi = outer.lo, outer.hi
    # fixed walk order: bottom, right, top, left
    walk = [
        (1, lo[1], 0, lo[0], hi[0]),
        (0, hi[0], 1, lo[1], hi[1]),
        (1, hi[1], 0, lo[0], hi[0]),
        (0, lo[0], 1, lo[1], hi[1]),
    ]
    removed = region.removed if isinstance(region, BoxMinusBox) else None
    edges = []
    for fixed_ax, fixed_val, free_ax, a, b in walk:
        pieces = [(a, b)]
        if removed is not None and \
                removed.lo[fixed_ax] - TAU_GEO <= fixed_val <= removed.hi[fixed_ax] + TAU_GEO:
            ra, rb = removed.lo[free_ax], removed.hi[free_ax]
            pieces = []
            if ra > a + TAU_GEO:
                pieces.append((a, min(ra, b)))
            if rb < b - TAU_GEO:
                pieces.append((max(rb, a), b))
        for pa, pb in pieces:
            if pb - pa <= TAU_GEO:
                continue
            p0 = np.empty(2)
            p1 = np.empty(2)
            p0[fixed_ax] = p1[fixed_ax] = fixed_val
            p0[free_ax], p1[free_ax] = pa, pb
            edges.append((p0, p1))
    if removed is not None:
        for ax, side in region._reachable_faces():
            v = removed.lo[ax] if side == 0 else removed.hi[ax]
            free_ax = 1 - ax
            pa = max(removed.lo[free_ax], outer.lo[free_ax])
            pb = min(removed.hi[free_ax], outer.hi[free_ax])
            p0 = np.empty(2)
            p1 = np.empty(2)
            p0[ax] = p1[ax] = v
            p0[free_ax], p1[free_ax] = pa, pb
            edges.append((p0, p1))
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


def generate_boundary_points(region: BaseRegion, count: int) -> np.ndarray:
    """Deterministic boundary collocation points, ``count`` in total.

    Points are allocated to edges (2D) or faces (3D) proportionally to
    arclength/area (the equal split of the square/cube cases is a special
    case) and laid out as midpoint-offset lattices, so corners and shared
    edges are never duplicated. Raises if the proportional allocation is not
    integral.
    """
    if region.dim == 2:
        edges = _boundary_edges_2d(region)
        lengths = np.array([np.linalg.norm(p1 - p0) for p0, p1 in edges])
        total = lengths.sum()
        raw = count * lengths / total
        counts = np.rint(raw).astype(int)
        if np.any(np.abs(raw - counts) > 1e-9) or counts.sum() != count:
            raise GeometryError(
                f"count {count} does not split proportionally over {len(edges)} edges")
        chunks = [_edge_points(p0, p1, n) for (p0, p1), n in zip(edges, counts)]
        return np.vstack(chunks)

    if isinstance(region, BoxMinusBox):
        raise NotImplementedError("3-d box-minus-box boundary sampling is not supported")
    lo, hi = region.lo, region.hi
    sides = hi - lo
    faces = []
    for ax in range(3):
        for side_val in (lo[ax], hi[ax]):
            u_ax, v_ax = [i for i in range(3) if i != ax]
            faces.append((ax, side_val, u_ax, v_ax, sides[u_ax] * sides[v_ax]))
    areas = np.array([f[4] for f in faces])
    raw = count * areas / areas.sum()
    counts = np.rint(raw).astype(int)
    if np.any(np.abs(raw - counts) > 1e-9) or counts.sum() != count:
        raise GeometryError(
            f"count {count} does not split proportionally over 6 faces")
    chunks = []
    for (ax, side_val, u_ax, v_ax, _), n_face in zip(faces, counts):
        nu, nv = _face_lattice_counts(n_face, sides[u_ax], sides[v_ax])
        tu = lo[u_ax] + (np.arange(nu) + 0.5) / nu * sides[u_ax]
        tv = lo[v_ax] + (np.arange(nv) + 0.5) / nv * sides[v_ax]
        uu, vv = np.meshgrid(tu, tv, indexing="ij")
        pts = np.empty((n_face, 3))
        pts[:, ax] = side_val
        pts[:, u_ax] = uu.ravel()
        pts[:, v_ax] = vv.ravel()
        chunks.append(pts)
    return np.vstack(chunks)


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


def reclassify_collocation(sets: CollocationSets, partition: PartitionState, k: int,
                           interior_resolution: int | None = None,
                           interface_count: int | None = None) -> CollocationSets:
    """Collocation bookkeeping after ball k is carved out.

    Boundary points of subdomain 0 inside the closed ball migrate to the
    ball's boundary set; interior points of subdomain 0 inside the closed
    ball are dropped; a fresh lattice masked to the open ball-domain becomes
    the ball's interior set, and a sphere sample masked to the open domain
    becomes its interface set. Re-applying with the same ball is a no-op.

    ``interior_resolution`` is points per axis in 2D (default 40) and a total
    lattice budget in 3D (default 8500).
    """
    ball = partition.ball(k)
    d = partition.dim
    if interior_resolution is None:
        interior_resolution = 40 if d == 2 else 8500
    if interface_count is None:
        interface_count = 200 if d == 2 else 600

    if not 1 <= k <= sets.n_subdomains:
        raise IndexError(f"ball {k} is neither existing nor the next subdomain")
    is_new = k == sets.n_subdomains

    x_f0, x_g0 = sets.interior[0], sets.boundary[0]
    migrate = ball.contains_closed(x_g0) if len(x_g0) else np.zeros(0, dtype=bool)
    existing_gk = np.empty((0, d)) if is_new else sets.boundary[k]
    x_gk = np.vstack([existing_gk, x_g0[migrate]]) if migrate.any() else existing_gk
    x_g0_new = x_g0[~migrate]
    drop = ball.contains_closed(x_f0) if len(x_f0) else np.zeros(0, dtype=bool)
    x_f0_new = x_f0[~drop]

    bbox = ball.bounding_box()
    if d == 2:
        lattice = _tensor_lattice(bbox, interior_resolution)
    else:
        lattice = _tensor_lattice(bbox, _lattice_axis_count(interior_resolution, d))
    keep = ball.contains_open(lattice) & partition.base.contains(lattice)
    for corner in partition.base.corner_guard_points():
        keep &= np.linalg.norm(lattice - corner, axis=1) >= CORNER_EXCLUSION
    x_fk = lattice[keep]
    if len(x_fk) == 0:
        raise GeometryError(f"ball {k} has an empty interior lattice (outside the domain?)")

    sphere = sample_sphere_uniform(ball.center, ball.radius, interface_count)
    x_gamma = sphere[partition.base.contains(sphere)]

    interior = list(sets.interior)
    boundary = list(sets.boundary)
    interface = list(sets.interface)
    interior[0], boundary[0] = x_f0_new, x_g0_new
    if is_new:
        interior.append(x_fk)
        boundary.append(x_gk)
        interface.append(x_gamma)
    else:
        interior[k], boundary[k], interface[k] = x_fk, x_gk, x_gamma
    return CollocationSets(tuple(interior), tuple(boundary), tuple(interface))
