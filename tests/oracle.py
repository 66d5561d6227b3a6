"""Brute-force test oracle for ``Scene.intersect_batch``.

No box cull and no chunking: every face is tested against every ray,
face by face in id order, with the engine's own Moller-Trumbore array
arithmetic (``np.cross``, ``einsum`` dot products), so the two agree bit
for bit.  A face replaces the best hit only at a strictly smaller
distance, so ties go to the lower face id.
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
    for fid, (v0, a, b) in enumerate(scene.triangles):
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
        n = np.cross(edge1, edge2)
        normals[better] = n / np.linalg.norm(n)
    flip = np.einsum("ij,ij->i", normals, directions) > 0.0
    normals[flip] = -normals[flip]
    return best_t, best_fid, normals
