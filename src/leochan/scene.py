"""Urban scene geometry: triangle soup, procedural grid city, batch ray
queries.

All geometry is stored in kilometers in the LOCAL frame (generator inputs
are meters and are converted).  ``Scene.intersect_batch`` is the one
intersection engine; it must agree exactly with a brute-force oracle over
every triangle (same Moller-Trumbore arithmetic) and breaks distance ties
on the lower face id.  A hit is a distance and a face id, nothing more:
the tracer turns the face's normal against the ray and reflects it
(``tracer._reflect``).  A scene holds geometry only: every face is
concrete, a constant of the link budget (``link.CONCRETE``).

The engine has two sources of candidate (ray, face) pairs and one
nearest-hit step.  Each source yields its pairs in batches that hold
all the candidates of their rays.  Moller-Trumbore runs on every pair,
with the oracle's arithmetic: its ``einsum`` dot products, and its
``np.cross`` products written out per component in the same order.  Two
scatter-mins (``np.minimum.at``) then keep each ray's nearest hit: the
least t, and among the pairs at that t the least face id.  The
arithmetic is per pair, so any candidate set that holds every true hit
gives the same hits to the bit.

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
``_BOX_PAD``, and each level above is the min/max of groups of
``_TREE_WIDTH`` = 4 nodes of the level below, up to one root: node i of
a level has children 4i to 4i + 3.  Where a level's node count is not a
multiple of four, its last parent's missing children are NaN boxes,
which fail every slab test, so the traversal needs no mask; parents are
built with ``np.fmin``/``np.fmax``, which skip the NaN.  A wider node
halves the levels, and so the walk's numpy calls per chunk, for more
slab tests per level.  Each chunk of
``_RAY_CHUNK`` consecutive rays is tested against the padded wide-face
boxes, and walks the tree breadth-first over (ray, node) pairs, as a
wavefront (Laine, Karras & Aila, "Megakernels Considered Harmful", HPG
2013): one level at a time, all four children of every surviving pair
get the slab test.  A ray reaches exactly the leaves whose own box it
meets, at any width: rounded slab bounds are monotone in the box, so a
ray that meets a leaf's box meets every ancestor's.  The wide faces
whose box a ray meets and the faces of the leaves it reaches are its
candidates.  There is no scene-box cull
ahead of the walk: a ray that misses the padded scene box misses every
box inside it, so the tree's first level and the wide-face test drop it,
and Moller-Trumbore decides every hit anyway.  The tracer walks its
bounced rays, which start on faces inside the box, where such a cull
would drop almost none.

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
face covers cost nothing.  Only row i's spans cover the rays of row i,
so the spans are sorted by row and cut between rows into batches of
about ``_PAIR_BATCH`` pairs.  A caller that needs the hits of only some
launch rays passes ``keep``, which sees the spans and picks the rays
(the tracer keeps those that can still reach the receiver).  Each span
then lists only the kept rays it covers, so a kept ray still gets all
its candidates and its exact nearest hit, and a ray that is not kept
costs nothing and reports a miss.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig

M_PER_KM = 1000.0

# Ray-triangle determinant cutoff (parallel rays) and degenerate-triangle
# area floor, in km units.
_DET_EPS = 1e-14
MIN_TRIANGLE_AREA_KM2 = 1e-12

# Tree boxes, and the launch-grid raster's strips and spans, are padded
# so that floating-point rounding can never prune a genuine hit on the
# edge of a box or a face.
_BOX_PAD = 1e-9

# Faces per BVH leaf, and rays per chunk of the tree walk (the chunk
# bounds the size of the (ray, node) and (ray, face) pair arrays).
_LEAF_SIZE = 2
_RAY_CHUNK = 1024
# Children per BVH node.
_TREE_WIDTH = 4
# Candidate pairs per batch of the launch-grid raster, which is cut only
# between grid rows, so a batch can hold more.
_PAIR_BATCH = 4096

HEIGHT_LAWS = ("uniform", "constant")


class DegenerateTriangle(ValueError):
    """Face ``face`` has an area of at most ``MIN_TRIANGLE_AREA_KM2``, or
    one too large to represent."""

    def __init__(self, face: int):
        super().__init__(f"degenerate triangle (face {face}) in scene")
        self.face = face


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


def _inverse(directions):
    """``1 / directions``, and whether any component of it is infinite.
    A zero or subnormal component gives an infinite inverse: the ray is
    then parallel to that axis."""
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / directions
    return inv, bool(np.isinf(inv).any())


def _expand(start, count):
    """(k, start[k] + r) for every k and r in range(count[k]), in that
    order: the members of a list of integer ranges."""
    source = np.repeat(np.arange(len(count)), count)
    base = np.cumsum(count) - count
    return source, np.arange(len(source)) + np.repeat(start - base, count)


def _rows(a, idx):
    """``a[idx]`` for a (rows, 3) array.  ``np.take`` gathers contiguous
    rows nearly three times faster than fancy indexing, but first copies
    a strided source whole, such as the launch grid's zero-stride
    directions."""
    return np.take(a, idx, axis=0) if a.flags.c_contiguous else a[idx]


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
    """Immutable triangle soup with batch ray queries.

    Every face is concrete: the link budget charges each reflection the
    Fresnel loss of ``link.CONCRETE``, so a scene holds geometry only.
    It keeps a read-only copy of its triangles, so a caller that later
    changes its own array cannot make it disagree with the tree and the
    face data built from it."""

    def __init__(self, triangles: np.ndarray):
        triangles = np.array(triangles, dtype=float).reshape(-1, 3, 3)
        triangles.flags.writeable = False
        if not np.isfinite(triangles).all():
            raise ValueError("non-finite vertex coordinate in scene")
        v0 = triangles[:, 0, :]
        # an area at the floor fails, and so does one too large to
        # represent, whose normal would be NaN
        with np.errstate(over="ignore", invalid="ignore"):
            e1 = triangles[:, 1, :] - v0
            e2 = triangles[:, 2, :] - v0
            normals = np.cross(e1, e2)
            lengths = np.linalg.norm(normals, axis=1)
        areas = 0.5 * lengths
        ok = (areas > MIN_TRIANGLE_AREA_KM2) & (areas < np.inf)
        if not ok.all():
            raise DegenerateTriangle(int(np.argmin(ok)))
        self.triangles = triangles
        self._v0, self._e1, self._e2 = v0, e1, e2
        normals /= lengths[:, None]
        normals.flags.writeable = False
        self.normals = normals
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
        from the root down, (lo, hi) per level, where row j of lo and hi,
        shape (parents, 3 * _TREE_WIDTH), holds the boxes of node j's
        children, x, y, z each; a missing child is a NaN box."""
        self._levels = []
        if len(self.triangles) == 0:
            return
        lo, hi = self.bounds
        half = 0.5 * (hi - lo)
        wide = ((tri_hi[:, 0] - tri_lo[:, 0] > half[0])
                & (tri_hi[:, 1] - tri_lo[:, 1] > half[1]))
        self._wide = np.flatnonzero(wide)
        self._wide_lo = (tri_lo[self._wide] - _BOX_PAD).reshape(1, -1)
        self._wide_hi = (tri_hi[self._wide] + _BOX_PAD).reshape(1, -1)
        tree = np.flatnonzero(~wide)
        if len(tree) == 0:
            # every face is wide: one leaf of empty slots
            self._leaf_faces = np.full((1, _LEAF_SIZE), -1)
            return
        # np.take gathers rows several times faster than fancy indexing
        order = tree[_morton_order(
            np.take(0.5 * (tri_lo + tri_hi), tree, axis=0), lo, hi)]
        # Empty boxes (lo = +inf, hi = -inf) fill the last leaf's spare
        # slots, which the min/max of the leaf box absorbs.
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
            # a level's last parent gets NaN boxes as its missing
            # children: they fail every slab test, and fmin/fmax skip them
            n_pad = -len(lo) % _TREE_WIDTH
            if n_pad:
                lo = np.concatenate([lo, np.full((n_pad, 3), np.nan)])
                hi = np.concatenate([hi, np.full((n_pad, 3), np.nan)])
            self._levels.append((lo.reshape(-1, 3 * _TREE_WIDTH),
                                 hi.reshape(-1, 3 * _TREE_WIDTH)))
            lo = np.fmin.reduce(lo.reshape(-1, _TREE_WIDTH, 3), axis=1)
            hi = np.fmax.reduce(hi.reshape(-1, _TREE_WIDTH, 3), axis=1)
        self._levels.reverse()

    def __len__(self) -> int:
        return len(self.triangles)

    @cached_property
    def distinct_normals(self) -> np.ndarray:
        """The distinct face normals up to sign, as exact rows of
        ``normals`` or their negations: a specular reflection about n
        and about -n is the same.  Each row's first non-zero component
        is positive, and the rows are in lexicographic order.  Computed
        on first use (only multi-bounce traces need it), read-only."""
        n = self.normals
        first = n[np.arange(len(n)), (n != 0.0).argmax(axis=1)]
        n = np.where(first[:, None] < 0.0, -n, n)
        n = n[np.lexsort(n.T[::-1])]
        new = np.ones(len(n), dtype=bool)
        new[1:] = (n[1:] != n[:-1]).any(axis=1)
        n = n[new]
        n.flags.writeable = False
        return n

    @cached_property
    def shape_factors(self) -> np.ndarray:
        """|e1| |e2| / |e1 x e2| per face, with e1 and e2 its edges from
        its first vertex: at least 1, and the factor by which the
        rounding of a Moller-Trumbore distance on the face exceeds that
        of its dot products.  Computed on first use, read-only."""
        lengths = np.linalg.norm(_cross(self._e1, self._e2), axis=1)
        shape = (np.linalg.norm(self._e1, axis=1)
                 * np.linalg.norm(self._e2, axis=1) / lengths)
        shape.flags.writeable = False
        return shape

    def intersect_batch(self, origins: np.ndarray, directions: np.ndarray,
                        t_min: float, grid=None, keep=None):
        """Nearest hits for many rays at once.

        Returns (t, face_id): misses get t = +inf, face_id = -1.  Hits
        lie in (t_min, +inf), a bound every caller states (the tracer's
        is its self-hit distance); among equal distances the lower face
        id wins.  The engine ends at which face and how far: the face's
        normal is ``normals[face_id]``, as built, and orienting it
        against the ray is the tracer's (``tracer._reflect``).

        ``grid`` is the launch plane the rays leave from, when they all
        do (any object with ``direction``, ``origin``, ``e1``, ``e2``,
        ``half_u``, ``half_v``, ``spacing`` and ``grid_shape()``, such
        as ``tracer.LaunchPlane``).  Its precondition: ``origins`` are
        exactly that plane's ``launch_points()``, in their order, and
        every direction is its ``direction``.  The candidate pairs then
        come from the span raster instead of the tree walk; the hits are
        the same.

        ``keep``, with ``grid`` only, selects the rays to intersect.  It
        is called once with the raster's spans, as arrays of face ids,
        grid rows and first and last grid columns (the grid points
        (row, first..last) are the face's candidates), and returns a
        bool per launch ray.  A kept ray gets its exact nearest hit; a
        ray that is not kept reports a miss, whatever it would hit.
        Without ``keep`` every ray is kept.
        """
        origins = np.asarray(origins, dtype=float)
        directions = np.asarray(directions, dtype=float)
        m = len(origins)
        t_out = np.full(m, np.inf)
        if len(self.triangles) == 0 or m == 0:
            return t_out, np.full(m, -1)

        if grid is None:
            candidates = self._walk(origins, directions, t_min)
        else:
            candidates = self._raster(grid, m, keep)
        # no face has this id: it marks a ray without a hit so far
        fid_out = np.full(m, len(self.triangles))
        for ray, face in candidates:
            self._nearest_hits(origins, directions, ray, face, t_min,
                               t_out, fid_out)
        fid_out[t_out == np.inf] = -1
        return t_out, fid_out

    def _nearest_hits(self, origins, directions, ray, face, t_min, t_out,
                      fid_out):
        """Lower ``t_out`` and ``fid_out`` to the nearest hit of each ray
        among the candidate (ray, face) pairs, which hold all of those
        rays' candidates."""
        t = _moller_trumbore(_rows(origins, ray), _rows(directions, ray),
                             np.take(self._v0, face, axis=0),
                             np.take(self._e1, face, axis=0),
                             np.take(self._e2, face, axis=0), t_min)
        # nearest per ray, equal distances to the lower face id
        np.minimum.at(t_out, ray, t)
        tie = t == np.take(t_out, ray)
        np.minimum.at(fid_out, ray[tie], face[tie])

    def _walk(self, origins, directions, t_min):
        """Candidate (ray, face) pairs for one chunk of ``_RAY_CHUNK``
        consecutive rays at a time: the faces of every leaf a ray
        reaches, walking (ray, node) pairs breadth-first from the root
        down, and the wide faces whose box it meets.  No scene-box cull
        comes first: the tracer's walked rays start on faces inside the
        scene box (see the module docstring)."""
        n_wide = len(self._wide)
        for a in range(0, len(origins), _RAY_CHUNK):
            origins1 = origins[a:a + _RAY_CHUNK]
            # parallel to an axis or not, decided once for the chunk, not
            # on every level
            inv_dirs1, axis_parallel = _inverse(directions[a:a + _RAY_CHUNK])
            # each ray once per wide face, and once per child of a
            # node, x, y, z each
            if n_wide:
                wide_ray, wide_slot = _slab(
                    np.concatenate([origins1] * n_wide, axis=1),
                    np.concatenate([inv_dirs1] * n_wide, axis=1),
                    self._wide_lo, self._wide_hi, t_min,
                    axis_parallel).nonzero()
            else:
                wide_ray = wide_slot = np.empty(0, dtype=np.intp)
            ray = np.arange(len(origins1))
            node = np.zeros(len(origins1), dtype=np.intp)
            rep_origins = np.concatenate([origins1] * _TREE_WIDTH, axis=1)
            rep_inv_dirs = np.concatenate([inv_dirs1] * _TREE_WIDTH, axis=1)
            for lo, hi in self._levels:
                pair, side = _slab(rep_origins.take(ray, axis=0),
                                   rep_inv_dirs.take(ray, axis=0),
                                   lo.take(node, axis=0),
                                   hi.take(node, axis=0), t_min,
                                   axis_parallel).nonzero()
                ray, node = ray[pair], _TREE_WIDTH * node[pair] + side
            faces = self._leaf_faces[node]
            pair, slot = (faces >= 0).nonzero()
            yield (a + np.concatenate([ray[pair], wide_ray]),
                   np.concatenate([faces[pair, slot],
                                   self._wide[wide_slot]]))

    def _raster(self, grid, m, keep):
        """Candidate (ray, face) pairs of a launch grid's parallel rays,
        for a batch of whole grid rows at a time: the grid points each
        face's projection covers (see the module docstring).  Ray
        i * nv + j leaves from grid point (i, j).  With a ``keep`` that
        is not None, only the pairs of the rays it keeps (see
        ``intersect_batch``)."""
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
        pi, pj = np.take(gi, face, axis=1), np.take(gj, face, axis=1)
        di = np.take(gi[[1, 2, 0]] - gi, face, axis=1)
        dj = np.take(gj[[1, 2, 0]] - gj, face, axis=1)
        # An edge along a row (di == 0) gets s = +-inf: all of it when
        # inside the strip, none otherwise.  On the strip's border it
        # gets NaN and is dropped, but its ends are the neighbouring
        # edges' ends, which are kept.
        with np.errstate(divide="ignore", invalid="ignore"):
            s_a = (row - pad - pi) / di
            s_b = (row + pad - pi) / di
            s0 = np.maximum(np.minimum(s_a, s_b), 0.0)
            s1 = np.minimum(np.maximum(s_a, s_b), 1.0)
            ok = s0 <= s1
            j0 = pj + s0 * dj
            j1 = pj + s1 * dj
        j_lo = np.where(ok, np.minimum(j0, j1), np.inf).min(axis=0)
        j_hi = np.where(ok, np.maximum(j0, j1), -np.inf).max(axis=0)
        c0 = np.maximum(np.ceil(j_lo - pad), 0.0)
        c1 = np.minimum(np.floor(j_hi + pad), nv - 1.0)
        spans = np.flatnonzero(c0 <= c1)
        face, row = face[spans], row[spans]
        c0, c1 = c0[spans].astype(np.intp), c1[spans].astype(np.intp)
        # each span's candidates as a range of rays, start + 0..count-1
        start, count = row * nv + c0, c1 - c0 + 1
        kept = None
        if keep is not None:
            # the ranges of the kept rays' list that the spans cover
            kept = np.flatnonzero(keep(face, row, c0, c1))
            start, end = (np.searchsorted(kept, start),
                          np.searchsorted(kept, start + count))
            spans = np.flatnonzero(end > start)
            face, row = face[spans], row[spans]
            start, count = start[spans], end[spans] - start[spans]
        # batches of whole grid rows, as only row i's spans cover the
        # rays of row i: a batch ends at the first row end at or past
        # each multiple of _PAIR_BATCH pairs
        spans = np.argsort(row)
        face, row = face[spans], row[spans]
        start, count = start[spans], count[spans]
        row_start = np.flatnonzero(row[1:] != row[:-1]) + 1
        done = np.cumsum(count)[row_start - 1] // _PAIR_BATCH
        cuts = row_start[np.diff(done, prepend=0) > 0]
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(row)]):
            piece, ray = _expand(start[a:b], count[a:b])
            yield ray if kept is None else kept[ray], face[a:b][piece]


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


def generate_city(config: SimConfig) -> Scene:
    """Procedural Manhattan-style grid: box buildings over a ground plane.

    The city keys (``scene_grid_nx`` ... ``scene_h_const_m``, and
    ``seed``) are read from the checked ``config``, which holds their
    defaults, and are not checked again.  Deterministic for a fixed
    seed; buildings are watertight 12-triangle boxes; the ground plane
    covers the street grid including the perimeter streets.  Distances
    are meters in the config, kilometers inside the returned scene.
    """
    grid_nx, grid_ny = config.scene_grid_nx, config.scene_grid_ny
    block_w_m = config.scene_block_w_m
    street_w_m = config.scene_street_w_m
    period = block_w_m + street_w_m
    width_x = grid_nx * period + street_w_m
    width_y = grid_ny * period + street_w_m
    x0 = -width_x / 2.0
    y0 = -width_y / 2.0

    if config.scene_height_law == "uniform":
        rng = np.random.default_rng(config.seed)
        heights = rng.uniform(config.scene_h_min_m, config.scene_h_max_m,
                              size=grid_nx * grid_ny)
    else:
        heights = np.full(grid_nx * grid_ny, config.scene_h_const_m)

    # one box per block, blocks in (i, j) row-major order
    bx0 = np.repeat(x0 + street_w_m + np.arange(grid_nx) * period, grid_ny)
    by0 = np.tile(y0 + street_w_m + np.arange(grid_ny) * period, grid_nx)
    xs = np.stack([bx0, bx0 + block_w_m], axis=1)
    ys = np.stack([by0, by0 + block_w_m], axis=1)
    zs = np.stack([np.zeros_like(heights), heights], axis=1)
    corners = np.stack([xs[:, _CORNER_X], ys[:, _CORNER_Y],
                        zs[:, _CORNER_Z]], axis=2) / M_PER_KM
    ground = np.array([[x0, y0, 0.0], [x0 + width_x, y0, 0.0],
                       [x0 + width_x, y0 + width_y, 0.0],
                       [x0, y0 + width_y, 0.0]]) / M_PER_KM
    # Gathered in km straight into one array: a gather, a concatenation
    # and a division would each hold a copy of every vertex, and the
    # scene copies it once more.
    triangles = np.empty((len(corners) * len(_BOX_TRIANGLES) + 2, 3, 3))
    np.take(corners, _BOX_TRIANGLES, axis=1,
            out=triangles[:-2].reshape(len(corners), -1, 3, 3))
    triangles[-2:] = ground[[[0, 1, 2], [0, 2, 3]]]
    return Scene(triangles)


def scene_from_text(text: str) -> Scene:
    """Parse a scene file, one triangle per line: nine vertex coordinates
    (km) and a material id, which must be 0 (concrete, the one material).
    Errors name the offending line."""
    tris = []
    linenos = []
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
        if mat != 0:
            raise ValueError(f"line {lineno}: material id {mat} is not 0")
        tris.append(tri)
        linenos.append(lineno)
    try:
        return Scene(np.asarray(tris).reshape(-1, 3, 3))
    except DegenerateTriangle as exc:
        raise ValueError(
            f"line {linenos[exc.face]}: degenerate triangle") from None
