"""Brute-force test oracle for ``Scene.intersect_batch``, for both of
its candidate sources: the BVH walk (any rays) and the span raster
(``grid=``, the launch grid's parallel rays).

No tree, no raster, no box cull and no chunking: every face is tested
against every ray, face by face in id order.  A face replaces the best
hit only at a strictly smaller distance, so ties go to the lower face
id.  The arithmetic is the engine's: whichever source lists the
candidate (ray, face) pairs, the engine runs Moller-Trumbore on the
gathered pair rows with the same row-wise ``np.cross`` and
``einsum("ij,ij->i", ...)`` dot products used here, and face normals come
from the same ``np.cross``/``np.linalg.norm`` over all faces, so the two
agree bit for bit.  (A hand-written ``ax*bx + ay*by + az*bz`` does not:
``einsum`` sums the three products in another order.)
"""

import numpy as np

from leochan.scene import _DET_EPS


def nearest_hits(scene, origins, directions, t_min=0.0, t_max=np.inf):
    """(t, face_id, normal) of the nearest hit in (t_min, t_max] per ray.

    Misses get t = +inf, face_id = -1 and a zero normal.  ``t_min`` is a
    scalar or one value per ray; normals are oriented against the ray.
    """
    origins = np.asarray(origins, dtype=float)
    directions = np.asarray(directions, dtype=float)
    m = len(origins)
    t_min = np.broadcast_to(np.asarray(t_min, dtype=float), (m,))
    best_t = np.full(m, np.inf)
    best_fid = np.full(m, -1)
    normals = np.zeros((m, 3))
    tris = scene.triangles
    face_normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    face_normals /= np.linalg.norm(face_normals, axis=1)[:, None]
    for fid, (v0, a, b) in enumerate(tris):
        edge1, edge2 = a - v0, b - v0
        e1 = np.broadcast_to(edge1, (m, 3))
        e2 = np.broadcast_to(edge2, (m, 3))
        pvec = np.cross(directions, e2)
        det = np.einsum("ij,ij->i", e1, pvec)
        ok = np.abs(det) > _DET_EPS
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origins - v0
        u = np.einsum("ij,ij->i", tvec, pvec) * inv
        qvec = np.cross(tvec, e1)
        v = np.einsum("ij,ij->i", directions, qvec) * inv
        t = np.einsum("ij,ij->i", e2, qvec) * inv
        ok &= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
        better = ok & (t > t_min) & (t <= t_max) & (t < best_t)
        best_t[better] = t[better]
        best_fid[better] = fid
        normals[better] = face_normals[fid]
    flip = np.einsum("ij,ij->i", normals, directions) > 0.0
    normals[flip] = -normals[flip]
    return best_t, best_fid, normals
