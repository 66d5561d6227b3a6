"""Brute-force test oracles.

``nearest_hits`` is the reference for ``Scene.intersect_batch``, for
both of its candidate sources: the BVH walk (any rays) and the span
raster (``grid=``, the launch grid's parallel rays).

No tree, no raster, no box cull and no chunking: every face is tested
against every ray, face by face in id order.  A face replaces the best
hit only at a strictly smaller distance, so ties go to the lower face
id.  The arithmetic is the engine's: whichever source lists the
candidate (ray, face) pairs, the engine runs Moller-Trumbore on the
gathered pair rows with the same ``einsum("ij,ij->i", ...)`` dot
products used here.  Its cross products are written out per component
in the order ``np.cross`` computes them here (a multiply, then a
subtract), and face normals come from the same
``np.cross``/``np.linalg.norm`` over all faces, so the two agree bit for
bit.  (A hand-written ``ax*bx + ay*by + az*bz`` does not: ``einsum``
sums the three products in another order.)

``trace_every_ray`` is the reference for ``tracer.trace``.
"""

import numpy as np

from leochan.scene import _DET_EPS, M_PER_KM
from leochan.tracer import _SELF_HIT_EPS, _path_records


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


def trace_every_ray(plane, scene, receiver, rx_radius_m, max_bounces):
    """Reference for ``tracer.trace``: the same march, with every ray
    intersected and tested for capture on every segment.

    No receiver window and no capture-first last segment: each segment
    intersects all its rays, with the launch grid's raster on segment 0,
    and keeps full-grid history arrays.  The captures go through the
    tracer's own dedup and record step, ``tracer._path_records``.
    """
    rx = np.asarray(receiver, dtype=float)
    rx_radius = rx_radius_m / M_PER_KM
    origins = plane.launch_points()
    m = len(origins)
    dirs = np.broadcast_to(plane.direction, (m, 3)).copy()
    launch_idx = np.arange(m)
    acc_len = np.zeros(m)
    width = max(max_bounces, 1)
    hist_fid = np.full((m, width), -1, dtype=int)
    hist_pts = np.zeros((m, width, 3))
    hist_ang = np.zeros((m, width))
    captured = []
    for segment in range(max_bounces + 1):
        t_hit, fid_hit, normals = scene.intersect_batch(
            origins, dirs, _SELF_HIT_EPS,
            grid=plane if segment == 0 else None)
        s_star = np.einsum("ij,ij->i", rx[None, :] - origins, dirs)
        foot = origins + s_star[:, None] * dirs
        miss = np.linalg.norm(rx[None, :] - foot, axis=1)
        can_capture = (s_star > 0.0) & (s_star <= t_hit) & (miss <= rx_radius)
        for i in np.flatnonzero(can_capture):
            captured.append((
                int(launch_idx[i]), segment,
                hist_fid[i, :segment].copy(), hist_pts[i, :segment].copy(),
                hist_ang[i, :segment].copy(),
                float(acc_len[i] + s_star[i]), float(miss[i]),
                dirs[i].copy()))
        alive = ~can_capture & (fid_hit >= 0)
        if segment == max_bounces or not alive.any():
            break
        idx = np.flatnonzero(alive)
        hit_pts = origins[idx] + t_hit[idx, None] * dirs[idx]
        n = normals[idx]
        d = dirs[idx]
        cos_inc = np.clip(-np.einsum("ij,ij->i", d, n), -1.0, 1.0)
        acc_len = acc_len[idx] + t_hit[idx]
        hist_fid = hist_fid[idx]
        hist_pts = hist_pts[idx]
        hist_ang = hist_ang[idx]
        hist_fid[:, segment] = fid_hit[idx]
        hist_pts[:, segment] = hit_pts
        hist_ang[:, segment] = np.arccos(cos_inc)
        origins = hit_pts
        dirs = d - 2.0 * np.einsum("ij,ij->i", d, n)[:, None] * n
        launch_idx = launch_idx[idx]
    return _path_records(captured, plane, scene, rx)
