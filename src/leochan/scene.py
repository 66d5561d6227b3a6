"""Urban scene geometry: triangle soup, procedural grid city, batch ray
queries.

All geometry is stored in kilometers in the LOCAL frame (generator inputs
are meters and are converted).  ``Scene.intersect_batch`` is the one
intersection engine; it must agree exactly with a brute-force oracle over
every triangle (same Moller-Trumbore arithmetic) and breaks distance ties
on the lower face id.

The engine has two sources of candidate (ray, face) pairs and one
nearest-hit step.  Each chunk of ``_RAY_CHUNK`` consecutive rays gets
its candidates from one source.  Then Moller-Trumbore runs on every
pair, with the oracle's arithmetic: its ``einsum`` dot products, and its
``np.cross`` products written out per component in the same order, and
the nearest hit per ray is kept, ties going to the lower face id.
The arithmetic is per pair, so any candidate set that holds every true
hit gives the same hits to the bit.

The first source, for rays in any direction, is a linear bounding-volume
hierarchy (Karras, "Maximizing Parallelism in the Construction of BVHs,
Octrees, and k-d Trees", HPG 2012), built without recursion when the
scene is made, and a short list of wide faces kept out of it.  A face is
wide when its box spans more than half the scene's footprint in both x
and y: on a generated city of more than one block, just the two ground
triangles.  In the tree, every ancestor of a wide face's leaf would be a
box nearly as large as the scene, which almost every bounced ray enters;
kept apart, a wide face costs one slab test per ray.  (Wide in x or y
alone would also take the roofs, floors and long walls of a
one-block-wide street canyon out of the tree, and test them all against
every ray.)  The other faces are stably sorted by the Morton code of
their box centres, with one scale for all three axes, the scene box's
largest extent, so that a city's height gets no more bits than the same
distance across it.  Both fixes are those of Vinkler, Bittner & Havran
("Extended Morton Codes for High Performance Bounding Volume Hierarchy
Construction", HPG 2017).  The sorted faces are cut into leaves of
``_LEAF_SIZE`` consecutive faces.  Each leaf box is padded by
``_BOX_PAD``, and each level above is the pairwise min/max of the level
below, up to one root: node i of a level has children 2i and 2i + 1.
Where a level has an odd number of nodes, its last parent has an empty
right child, which the traversal masks out.  The query first culls
every ray against the padded scene box.  Then each chunk of rays is
tested against the padded boxes of the wide faces, and walks the tree
breadth-first over (ray, node) pairs, as a wavefront (Laine, Karras &
Aila, "Megakernels Considered Harmful", HPG 2013): one level at a time,
both children of every surviving pair get the slab test.  The wide
faces whose box a ray meets and the faces of the leaves it reaches are
its candidates.

The second source is for the launch grid, whose rays are parallel and
leave from the points of a regular (u, v) grid on a plane: the first
bounce of shooting and bouncing rays (Ling, Chou & Lee, "Shooting and
Bouncing Rays", IEEE TAP 1989).  Their first hit is a 2-D coverage
problem, so the faces are rasterized instead of walked.  Each vertex is
projected onto the plane along the rays, in grid units.  For every grid
row i a face spans, its three edges are clipped to the strip [i - pad,
i + pad], and the grid points between the clipped ends, rounded inward,
are its candidates: a per-row span rasterizer, as the edge functions of
Pineda ("A Parallel Algorithm for Polygon Rasterization", SIGGRAPH 1988)
traverse a triangle's rows.  ``pad`` is ``_BOX_PAD`` in grid units,
which is far above the rounding between a launch point and its grid
coordinates, so no true hit on a face's edge or vertex is lost.  Rays no
face covers cost nothing.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

M_PER_KM = 1000.0

# Ray-triangle determinant cutoff (parallel rays) and degenerate-triangle
# area floor, in km units.
_DET_EPS = 1e-14
MIN_TRIANGLE_AREA_KM2 = 1e-12

# Tree boxes, and the launch-grid raster's strips and spans, are padded
# so that floating-point rounding can never prune a genuine hit on the
# edge of a box or a face.
_BOX_PAD = 1e-9

# Faces per BVH leaf and rays per query chunk (the chunk bounds the size
# of the (ray, node) and (ray, face) pair arrays).
_LEAF_SIZE = 2
_RAY_CHUNK = 1024

HEIGHT_LAWS = ("uniform", "constant")


class InvalidDimensions(ValueError):
    pass


@dataclass(frozen=True)
class Material:
    name: str
    relative_permittivity: float
    conductivity: float  # S/m

    def __post_init__(self):
        if self.relative_permittivity < 1.0:
            raise ValueError("relative permittivity must be >= 1")
        if self.conductivity < 0.0:
            raise ValueError("conductivity must be >= 0")


# ITU-style building-material constants used as the single default.
CONCRETE = Material("concrete", 5.31, 0.1395)


def _morton_order(points: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Stable order of ``points`` (inside the box [lo, hi]) along a
    30-bit Morton curve: 10 bits per axis, interleaved x, y, z, all
    three on the scale of the box's largest extent (positive, as a
    scene has no degenerate face)."""
    q = ((points - lo) / np.max(hi - lo) * 1023.0).astype(np.int64)
    # spread each coordinate's 10 bits to every third bit
    for shift, mask in ((16, 0xFF0000FF), (8, 0x0F00F00F),
                        (4, 0xC30C30C3), (2, 0x49249249)):
        q = (q | (q << shift)) & mask
    codes = (q[:, 0] << 2) | (q[:, 1] << 1) | q[:, 2]
    return np.argsort(codes, kind="stable")


def _slab(origins, inv_dirs, lo, hi, t_min, axis_parallel):
    """Whether ray ``origin + t * direction`` meets box [lo, hi] for some
    t > t_min, per row and box.  ``inv_dirs`` is 1 / direction.  The
    last axis of each (rows, 3k) argument holds k boxes' x, y, z (the
    ray repeated k times); the result has shape (rows, k).
    ``axis_parallel`` is whether any direction has a zero component."""
    with np.errstate(invalid="ignore"):
        t_a = (lo - origins) * inv_dirs
        t_b = (hi - origins) * inv_dirs
    near = np.minimum(t_a, t_b)
    far = np.maximum(t_a, t_b)
    # a zero direction component (infinite inverse) stays in the slab
    # everywhere or nowhere; 0 * inf above gave NaN where it starts on it
    if axis_parallel:
        par = np.isinf(inv_dirs)
        inside = (origins >= lo) & (origins <= hi)
        near = np.where(par, np.where(inside, -np.inf, np.inf), near)
        far = np.where(par, np.where(inside, np.inf, -np.inf), far)
    boxes = (len(near), near.shape[1] // 3, 3)
    near = near.reshape(boxes)
    far = far.reshape(boxes)
    enter = np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2])
    exit_ = np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2])
    return (enter <= exit_) & (exit_ > t_min)


def _expand(start, count):
    """(k, start[k] + r) for every k and r in range(count[k]), in that
    order: the members of a list of integer ranges."""
    source = np.repeat(np.arange(len(count)), count)
    base = np.cumsum(count) - count
    return source, np.arange(len(source)) + np.repeat(start - base, count)


def _cross(a, b):
    """Row-wise cross product of two (rows, 3) arrays, with the
    arithmetic of ``np.cross`` (per component a multiply, then a
    subtract) and none of its axis handling."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    out = np.empty((len(a), 3))
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def _moller_trumbore(origins, directions, v0, e1, e2, t_min):
    """Distance of each (ray, triangle) row's hit in (t_min, +inf), or
    +inf.  Row-wise cross products and ``einsum`` dot products, with the
    test oracle's ``np.cross`` arithmetic."""
    pvec = _cross(directions, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > _DET_EPS
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = origins - v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv
    qvec = _cross(tvec, e1)
    v = np.einsum("ij,ij->i", directions, qvec) * inv
    t = np.einsum("ij,ij->i", e2, qvec) * inv
    ok &= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
    return np.where(ok & (t > t_min), t, np.inf)


class Scene:
    """Immutable triangle soup with materials and batch ray queries."""

    def __init__(self, triangles: np.ndarray, material_ids: np.ndarray,
                 materials: list[Material]):
        triangles = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
        material_ids = np.asarray(material_ids, dtype=int)
        if len(material_ids) != len(triangles):
            raise ValueError("one material id per triangle required")
        if len(material_ids) and (material_ids.min() < 0
                                  or material_ids.max() >= len(materials)):
            raise ValueError(
                f"material ids must be in [0, {len(materials)})")
        if not np.isfinite(triangles).all():
            raise ValueError("non-finite vertex coordinate in scene")
        v0 = triangles[:, 0, :]
        e1 = triangles[:, 1, :] - v0
        e2 = triangles[:, 2, :] - v0
        normals = np.cross(e1, e2)
        lengths = np.linalg.norm(normals, axis=1)
        areas = 0.5 * lengths
        if len(triangles) and areas.min() <= MIN_TRIANGLE_AREA_KM2:
            raise ValueError("degenerate triangle in scene")
        self.triangles = triangles
        self.material_ids = material_ids
        self.materials = list(materials)
        self._v0, self._e1, self._e2 = v0, e1, e2
        self._normals = normals / lengths[:, None]
        # face boxes, as elementwise min/max (a reduction over the
        # length-3 vertex axis is several times slower)
        tri_lo = np.minimum(np.minimum(v0, triangles[:, 1]), triangles[:, 2])
        tri_hi = np.maximum(np.maximum(v0, triangles[:, 1]), triangles[:, 2])
        if len(triangles):
            self.bounds = np.stack([tri_lo.min(axis=0), tri_hi.max(axis=0)])
        else:
            self.bounds = np.zeros((2, 3))
        self._build_tree(tri_lo, tri_hi)

    def _build_tree(self, tri_lo: np.ndarray, tri_hi: np.ndarray) -> None:
        """Linear BVH over the faces that are not wide, and the list of
        wide ones (see the module docstring).  ``_wide`` holds the wide
        faces' ids, and row 0 of ``_wide_lo`` and ``_wide_hi`` their
        padded boxes, x, y, z each.  Leaf k holds the faces
        ``_leaf_faces[k]``, -1 marking an empty slot.  ``_levels`` lists,
        from the root down, (lo, hi, node count) per level, where row j
        of lo and hi, shape (parents, 6), holds the boxes of node j's two
        children, x, y, z each."""
        self._levels = []
        if len(self.triangles) == 0:
            return
        lo, hi = self.bounds
        self._root = lo - _BOX_PAD, hi + _BOX_PAD
        span = tri_hi - tri_lo
        half = 0.5 * (hi - lo)
        wide = (span[:, 0] > half[0]) & (span[:, 1] > half[1])
        self._wide = np.flatnonzero(wide)
        self._wide_lo = (tri_lo[self._wide] - _BOX_PAD).reshape(1, -1)
        self._wide_hi = (tri_hi[self._wide] + _BOX_PAD).reshape(1, -1)
        tree = np.flatnonzero(~wide)
        if len(tree) == 0:
            # every face is wide: one leaf of empty slots
            self._leaf_faces = np.full((1, _LEAF_SIZE), -1)
            return
        # np.take gathers rows several times faster than fancy indexing
        centres = np.take(0.5 * (tri_lo + tri_hi), tree, axis=0)
        order = tree[_morton_order(centres, lo, hi)]
        # Empty boxes (lo = +inf, hi = -inf) fill the last leaf's spare
        # slots and the missing child of an odd level's last node; the
        # min/max of a parent absorbs them.
        n_pad = -len(order) % _LEAF_SIZE
        self._leaf_faces = np.concatenate(
            [order, np.full(n_pad, -1)]).reshape(-1, _LEAF_SIZE)
        lo = np.concatenate([np.take(tri_lo, order, axis=0),
                             np.full((n_pad, 3), np.inf)])
        hi = np.concatenate([np.take(tri_hi, order, axis=0),
                             np.full((n_pad, 3), -np.inf)])
        # leaf boxes as elementwise min/max over the slots, for the
        # reason the face boxes are
        lo = lo.reshape(-1, _LEAF_SIZE, 3)
        hi = hi.reshape(-1, _LEAF_SIZE, 3)
        leaf_lo, leaf_hi = lo[:, 0], hi[:, 0]
        for k in range(1, _LEAF_SIZE):
            leaf_lo = np.minimum(leaf_lo, lo[:, k])
            leaf_hi = np.maximum(leaf_hi, hi[:, k])
        lo, hi = leaf_lo - _BOX_PAD, leaf_hi + _BOX_PAD
        while len(lo) > 1:
            n_nodes = len(lo)
            if n_nodes % 2:
                lo = np.concatenate([lo, np.full((1, 3), np.inf)])
                hi = np.concatenate([hi, np.full((1, 3), -np.inf)])
            lo = lo.reshape(-1, 6)
            hi = hi.reshape(-1, 6)
            self._levels.append((lo, hi, n_nodes))
            lo = np.minimum(lo[:, :3], lo[:, 3:])
            hi = np.maximum(hi[:, :3], hi[:, 3:])
        self._levels.reverse()

    def __len__(self) -> int:
        return len(self.triangles)

    def intersect_batch(self, origins: np.ndarray, directions: np.ndarray,
                        t_min: float = 0.0, grid=None):
        """Nearest hits for many rays at once.

        Returns (t, face_id, normal): misses get t = +inf, face_id = -1.
        Normals are unit and oriented against each ray.  Hits lie in
        (t_min, +inf); among equal distances the lower face id wins.

        ``grid`` is the launch plane the rays leave from, when they all
        do (any object with ``direction``, ``origin``, ``e1``, ``e2``,
        ``half_u``, ``half_v``, ``spacing`` and ``grid_shape()``, such
        as ``tracer.LaunchPlane``).  Its precondition: ``origins`` are
        exactly that plane's ``launch_points()``, in their order, and
        every direction is its ``direction``.  The candidate pairs then
        come from the span raster instead of the tree walk; the hits are
        the same.
        """
        origins = np.asarray(origins, dtype=float)
        directions = np.asarray(directions, dtype=float)
        m = len(origins)
        t_out = np.full(m, np.inf)
        fid_out = np.full(m, -1, dtype=int)
        normals = np.zeros((m, 3))
        if len(self.triangles) == 0 or m == 0:
            return t_out, fid_out, normals

        if grid is None:
            candidates = self._walk(origins, directions, t_min)
        else:
            candidates = self._raster(grid, m)
        for ray, face in candidates:
            ray, t, face = self._nearest_hits(origins, directions, ray, face,
                                              t_min)
            t_out[ray] = t
            fid_out[ray] = face

        hit = fid_out >= 0
        if hit.any():
            n = self._normals[fid_out[hit]]
            flip = np.einsum("ij,ij->i", n, directions[hit]) > 0.0
            normals[hit] = np.where(flip[:, None], -n, n)
        return t_out, fid_out, normals

    def _nearest_hits(self, origins, directions, ray, face, t_min):
        """(ray, t, face id) of the nearest hit of each ray that has one,
        among the candidate (ray, face) pairs."""
        # np.take gathers rows several times faster than fancy indexing
        t = _moller_trumbore(np.take(origins, ray, axis=0),
                             np.take(directions, ray, axis=0),
                             np.take(self._v0, face, axis=0),
                             np.take(self._e1, face, axis=0),
                             np.take(self._e2, face, axis=0), t_min)
        keep = t < np.inf
        ray, t, face = ray[keep], t[keep], face[keep]
        # nearest per ray, equal distances to the lower face id
        order = np.lexsort((face, t, ray))
        ray, t, face = ray[order], t[order], face[order]
        first = np.ones(len(ray), dtype=bool)
        first[1:] = ray[1:] != ray[:-1]
        return ray[first], t[first], face[first]

    def _walk(self, origins, directions, t_min):
        """Candidate (ray, face) pairs for one chunk of ``_RAY_CHUNK``
        rays at a time: the faces of every leaf a ray reaches, walking
        (ray, node) pairs breadth-first from the root down, and the wide
        faces whose box it meets."""
        # a zero or subnormal component gives an infinite inverse: the
        # ray is then parallel to that axis
        with np.errstate(divide="ignore", over="ignore"):
            inv_dirs = 1.0 / directions
        parallel = np.isinf(inv_dirs).any(axis=1)
        # The scene box culls every ray first; after a reflection most
        # rays head up and away.
        live = np.flatnonzero(_slab(origins, inv_dirs, *self._root, t_min,
                                    parallel.any())[:, 0])
        n_wide = len(self._wide)
        for a in range(0, len(live), _RAY_CHUNK):
            rays = live[a:a + _RAY_CHUNK]
            origins1, inv_dirs1 = origins[rays], inv_dirs[rays]
            # decided once for the chunk, not on every level
            axis_parallel = parallel[rays].any()
            wide_ray, wide_slot = np.nonzero(_slab(
                np.tile(origins1, n_wide), np.tile(inv_dirs1, n_wide),
                self._wide_lo, self._wide_hi, t_min, axis_parallel))
            ray = np.arange(len(rays))
            node = np.zeros(len(rays), dtype=np.intp)
            # each ray twice, against both children of a node
            origins2 = np.tile(origins1, 2)
            inv_dirs2 = np.tile(inv_dirs1, 2)
            for lo, hi, n_nodes in self._levels:
                keep = _slab(np.take(origins2, ray, axis=0),
                             np.take(inv_dirs2, ray, axis=0),
                             np.take(lo, node, axis=0),
                             np.take(hi, node, axis=0), t_min,
                             axis_parallel)
                # the right child of an odd level's last node is empty,
                # and an empty box passes the slab test
                keep[:, 1] &= 2 * node + 1 < n_nodes
                pair, side = np.nonzero(keep)
                ray, node = ray[pair], 2 * node[pair] + side
            faces = self._leaf_faces[node]
            pair, slot = np.nonzero(faces >= 0)
            yield (rays[np.concatenate([ray[pair], wide_ray])],
                   np.concatenate([faces[pair, slot],
                                   self._wide[wide_slot]]))

    def _raster(self, grid, m):
        """Candidate (ray, face) pairs of a launch grid's parallel rays,
        for one chunk of ``_RAY_CHUNK`` consecutive rays at a time: the
        grid points each face's projection covers (see the module
        docstring).  Ray i * nv + j leaves from grid point (i, j)."""
        nu, nv = grid.grid_shape()
        if m != nu * nv:
            raise ValueError(f"{m} rays for a {nu} x {nv} launch grid")
        # grid coordinates of each vertex's foot on the plane along the
        # rays, one row per vertex: a1 and a2 are e1 and e2 with their
        # component along the rays taken out
        d = grid.direction
        a1 = grid.e1 - (grid.e1 @ d) * d
        a2 = grid.e2 - (grid.e2 @ d) * d
        w = self.triangles.transpose(1, 0, 2) - grid.origin
        gi = (w @ a1 + grid.half_u) / grid.spacing
        gj = (w @ a2 + grid.half_v) / grid.spacing
        pad = _BOX_PAD / grid.spacing

        # the rows each face covers, as (face, row) spans
        i_lo = np.minimum(np.minimum(gi[0], gi[1]), gi[2])
        i_hi = np.maximum(np.maximum(gi[0], gi[1]), gi[2])
        r0 = np.clip(np.ceil(i_lo - pad), 0, nu).astype(np.intp)
        r1 = np.clip(np.floor(i_hi + pad), -1, nu - 1).astype(np.intp)
        face, row = _expand(r0, np.maximum(r1 - r0 + 1, 0))
        # clip each of the face's edges p -> q to the strip
        # [row - pad, row + pad] and take the columns between the ends
        pi, pj = gi[:, face], gj[:, face]
        qi, qj = pi[[1, 2, 0]], pj[[1, 2, 0]]
        # An edge along a row (qi == pi) gets s = +-inf: all of it when
        # inside the strip, none otherwise.  On the strip's border it
        # gets NaN and is dropped, but its ends are the neighbouring
        # edges' ends, which are kept.
        with np.errstate(divide="ignore", invalid="ignore"):
            s_a = (row - pad - pi) / (qi - pi)
            s_b = (row + pad - pi) / (qi - pi)
            s0 = np.maximum(np.minimum(s_a, s_b), 0.0)
            s1 = np.minimum(np.maximum(s_a, s_b), 1.0)
            ok = s0 <= s1
            j0 = pj + s0 * (qj - pj)
            j1 = pj + s1 * (qj - pj)
        j_lo = np.where(ok, np.minimum(j0, j1), np.inf).min(axis=0)
        j_hi = np.where(ok, np.maximum(j0, j1), -np.inf).max(axis=0)
        c0 = np.maximum(np.ceil(j_lo - pad), 0.0)
        c1 = np.minimum(np.floor(j_hi + pad), nv - 1.0)
        keep = c0 <= c1
        if not keep.any():
            return
        face = face[keep]
        first = row[keep] * nv + c0[keep].astype(np.intp)
        last = row[keep] * nv + c1[keep].astype(np.intp)

        # cut the spans into chunks of _RAY_CHUNK consecutive covered
        # rays, as the walk chunks the rays inside the scene box
        depth = np.cumsum(np.bincount(first, minlength=m)
                          - np.bincount(last + 1, minlength=m + 1)[:m])
        starts = np.flatnonzero(depth)[::_RAY_CHUNK]
        ends = np.append(starts[1:], m) - 1
        chunk0 = np.searchsorted(starts, first, side="right") - 1
        chunk1 = np.searchsorted(starts, last, side="right") - 1
        span, chunk = _expand(chunk0, chunk1 - chunk0 + 1)
        order = np.argsort(chunk, kind="stable")
        span, chunk = span[order], chunk[order]
        face = face[span]
        first = np.maximum(first[span], starts[chunk])
        last = np.minimum(last[span], ends[chunk])
        bounds = np.flatnonzero(np.diff(chunk)) + 1
        for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(chunk)]):
            piece, ray = _expand(first[a:b], last[a:b] - first[a:b] + 1)
            yield ray, face[a:b][piece]


# A box's corners 0-3 are its bottom ring and 4-7 its top ring, both
# counter-clockwise from (x0, y0): corner k is (x[_CORNER_X[k]],
# y[_CORNER_Y[k]], z[_CORNER_Z[k]]).  Each face quad (a, b, c, d) splits
# into triangles (a, b, c) and (a, c, d), wound outward.
_CORNER_X = [0, 1, 1, 0, 0, 1, 1, 0]
_CORNER_Y = [0, 0, 1, 1, 0, 0, 1, 1]
_CORNER_Z = [0, 0, 0, 0, 1, 1, 1, 1]
_BOX_QUADS = ((0, 3, 2, 1),   # bottom (z0, normal -z)
              (4, 5, 6, 7),   # top
              (0, 1, 5, 4),   # south
              (2, 3, 7, 6),   # north
              (1, 2, 6, 5),   # east
              (3, 0, 4, 7))   # west
_BOX_TRIANGLES = np.array([tri for a, b, c, d in _BOX_QUADS
                           for tri in ((a, b, c), (a, c, d))])


def generate_city(grid_nx: int, grid_ny: int, block_w_m: float = 80.0,
                  street_w_m: float = 20.0, height_law: str = "uniform",
                  h_min_m: float = 20.0, h_max_m: float = 120.0,
                  h_const_m: float = 30.0, seed: int = 0,
                  materials: list[Material] | None = None) -> Scene:
    """Procedural Manhattan-style grid: box buildings over a ground plane.

    Deterministic for a fixed seed; buildings are watertight 12-triangle
    boxes; the ground plane covers the street grid including the
    perimeter streets.  Distances are meters here, kilometers inside the
    returned scene.
    """
    if grid_nx <= 0 or grid_ny <= 0 or block_w_m <= 0 or street_w_m <= 0:
        raise InvalidDimensions("grid counts and widths must be positive")
    if grid_nx * grid_ny > 10_000:
        raise InvalidDimensions("more than 10^4 blocks requested")
    if height_law not in HEIGHT_LAWS:
        raise InvalidDimensions(f"unknown height law {height_law!r}")
    if height_law == "uniform" and not 0.0 < h_min_m <= h_max_m:
        raise InvalidDimensions("need 0 < h_min <= h_max")
    if height_law == "constant" and h_const_m <= 0.0:
        raise InvalidDimensions("constant height must be positive")

    period = block_w_m + street_w_m
    width_x = grid_nx * period + street_w_m
    width_y = grid_ny * period + street_w_m
    x0 = -width_x / 2.0
    y0 = -width_y / 2.0

    if height_law == "uniform":
        rng = np.random.default_rng(seed)
        heights = rng.uniform(h_min_m, h_max_m, size=grid_nx * grid_ny)
    else:
        heights = np.full(grid_nx * grid_ny, h_const_m)

    # one box per block, blocks in (i, j) row-major order
    bx0 = np.repeat(x0 + street_w_m + np.arange(grid_nx) * period, grid_ny)
    by0 = np.tile(y0 + street_w_m + np.arange(grid_ny) * period, grid_nx)
    xs = np.stack([bx0, bx0 + block_w_m], axis=1)
    ys = np.stack([by0, by0 + block_w_m], axis=1)
    zs = np.stack([np.zeros_like(heights), heights], axis=1)
    corners = np.stack([xs[:, _CORNER_X], ys[:, _CORNER_Y],
                        zs[:, _CORNER_Z]], axis=2)
    ground = np.array([[x0, y0, 0.0], [x0 + width_x, y0, 0.0],
                       [x0 + width_x, y0 + width_y, 0.0],
                       [x0, y0 + width_y, 0.0]])
    tris = [corners[:, _BOX_TRIANGLES].reshape(-1, 3, 3),
            ground[[[0, 1, 2], [0, 2, 3]]]]

    triangles = np.concatenate(tris) / M_PER_KM
    if materials is None:
        materials = [CONCRETE]
    material_ids = np.zeros(len(triangles), dtype=int)
    return Scene(triangles, material_ids, materials)


def ground_plane(width_m: float = 1000.0,
                 materials: list[Material] | None = None) -> Scene:
    """Bare square ground plane centered at the origin (two triangles)."""
    h = width_m / 2.0 / M_PER_KM
    quad = np.array([[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]])
    tris = np.asarray([quad[[0, 1, 2]], quad[[0, 2, 3]]])
    if materials is None:
        materials = [CONCRETE]
    return Scene(tris, np.zeros(2, dtype=int), materials)


def scene_to_text(scene: Scene) -> str:
    """One triangle per line: nine vertex coordinates (km) + material id."""
    buf = io.StringIO()
    for tri, mat in zip(scene.triangles, scene.material_ids):
        coords = ",".join(repr(float(v)) for v in tri.reshape(9))
        buf.write(f"{coords},{int(mat)}\n")
    return buf.getvalue()


def scene_from_text(text: str,
                    materials: list[Material] | None = None) -> Scene:
    """Parse ``scene_to_text`` output; errors name the offending line."""
    if materials is None:
        materials = [CONCRETE]
    tris = []
    mats = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ValueError(f"line {lineno}: expected 10 fields, "
                             f"got {len(parts)}")
        try:
            values = [float(p) for p in parts[:9]]
            mat = int(parts[9])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        tri = np.asarray(values).reshape(3, 3)
        if not np.isfinite(tri).all():
            raise ValueError(f"line {lineno}: non-finite coordinate")
        if not 0 <= mat < len(materials):
            raise ValueError(f"line {lineno}: material id {mat} not in "
                             f"[0, {len(materials)})")
        tris.append(tri)
        mats.append(mat)
    return Scene(np.asarray(tris).reshape(-1, 3, 3),
                 np.asarray(mats, dtype=int), materials)
