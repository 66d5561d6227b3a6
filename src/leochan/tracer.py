"""Planar-wavefront shooting-and-bouncing-rays tracer.

The satellite is far enough (500+ km) that the incident field over a
sub-kilometer scene is a plane wave: a grid of parallel rays is launched
from a plane just above the scene, every surface hit reflects specularly,
and a ray is collected when one of its segments passes within a capture
radius of the receiver point.  The ray path length splits into a constant
satellite-to-plane leg plus the traced near-ground leg.

Captured paths keep their raw traced geometry; the residual miss distance
at the receiver (bounded by the launch spacing) is recorded on each path
rather than snapped away, so oracle tests can assert the bound directly.

The march does no work that cannot reach a captured path (the reception
sphere of Seidel & Rappaport, IEEE TVT 1994, decides capture):

- Receiver window.  A launch ray's miss distance is the in-plane
  distance from its grid point to the receiver's foot on the launch
  plane, so segment 0's capture test runs only on the grid points within
  the capture radius of that foot, plus one grid step.
- Capture-first last segment.  On the last segment the next hit serves
  only the capture test, so the capture geometry runs first and only the
  rays that pass within the capture radius ahead of them are intersected.
- Live-only history.  Segment 0 has no history; traced length and
  interactions are kept only for the rays that hit a face and go on.

``tests/oracle.py::trace_every_ray`` intersects and tests every ray on
every segment, and gives the same records to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import M_PER_KM, Scene
from .states import Frame, StateVector

# Minimum satellite-distance to scene-height ratio for the plane-wave
# assumption, the self-occlusion offset after a reflection (km), and the
# launch plane's clearance above the nearest scene corner (km).
PLANE_WAVE_MIN_RATIO = 100.0
_SELF_HIT_EPS = 1e-7
PLANE_MARGIN_KM = 0.05

DEFAULT_MAX_BOUNCES = 2


class SatelliteBelowHorizon(ValueError):
    pass


@dataclass(frozen=True)
class Interaction:
    point: np.ndarray        # km, local frame
    face_id: int
    incidence_angle: float   # rad, measured from the surface normal
    material_id: int = 0


@dataclass(frozen=True)
class PathRecord:
    launch_index: int
    interactions: tuple[Interaction, ...]
    d_near_ground: float     # km, plane entry to receiver
    d_atmosphere: float      # km, satellite to launch plane
    aod: np.ndarray          # unit, satellite toward first interaction
    aoa: np.ndarray          # unit, along the final segment into the rx
    bounce_count: int
    miss_distance: float     # km, closest approach to the receiver point

    @property
    def total_distance(self) -> float:
        return self.d_atmosphere + self.d_near_ground

    def face_sequence(self) -> tuple[int, ...]:
        return tuple(i.face_id for i in self.interactions)


@dataclass(frozen=True)
class LaunchPlane:
    """Grid of parallel launch rays just above the scene."""

    direction: np.ndarray    # unit, satellite -> scene
    origin: np.ndarray       # a point on the plane (km)
    e1: np.ndarray           # in-plane basis
    e2: np.ndarray
    half_u: float            # km
    half_v: float
    spacing: float           # km between adjacent launch points
    d_atmosphere: float      # km from the satellite to the plane
    sat_position: np.ndarray

    def grid_shape(self) -> tuple[int, int]:
        nu = int(math.floor(2.0 * self.half_u / self.spacing)) + 1
        nv = int(math.floor(2.0 * self.half_v / self.spacing)) + 1
        return nu, nv

    def launch_points(self) -> np.ndarray:
        nu, nv = self.grid_shape()
        us = -self.half_u + self.spacing * np.arange(nu)
        vs = -self.half_v + self.spacing * np.arange(nv)
        # (origin + u * e1) + v * e2 per point, row by row
        rows = self.origin + us[:, None] * self.e1
        return (rows[:, None, :] + (vs[:, None] * self.e2)[None]).reshape(
            -1, 3)


def build_launch_plane(sat_local: StateVector, scene: Scene,
                       spacing_m: float,
                       extent_pad_km: float | None = None) -> LaunchPlane:
    """Place the launch plane for one satellite position.

    The plane is perpendicular to the satellite-to-scene direction,
    offset ``PLANE_MARGIN_KM`` above the closest scene corner, and sized
    to the scene footprint projected along the ray direction plus a pad
    that covers bounce spread (default: scene height plus ten spacings).
    """
    sat_local.require(Frame.LOCAL)
    sat = np.asarray(sat_local.position, dtype=float)
    if spacing_m <= 0.0:
        raise ValueError("spacing must be positive")

    bmin, bmax = scene.bounds
    target = np.array([(bmin[0] + bmax[0]) / 2.0,
                       (bmin[1] + bmax[1]) / 2.0, bmin[2]])
    direction = target - sat
    direction = direction / np.linalg.norm(direction)
    if direction[2] >= 0.0:
        raise SatelliteBelowHorizon(
            "satellite direction does not point down into the scene")

    scene_height = float(bmax[2] - bmin[2])
    if np.linalg.norm(sat) < PLANE_WAVE_MIN_RATIO * max(scene_height, 1e-3):
        raise ValueError("satellite too close for the plane-wave launch")

    corners = np.array([[x, y, z]
                        for x in (bmin[0], bmax[0])
                        for y in (bmin[1], bmax[1])
                        for z in (bmin[2], bmax[2])])
    # Plane: direction . x = c, just before the nearest corner.
    proj = corners @ direction
    c = float(proj.min()) - PLANE_MARGIN_KM
    d_atmosphere = c - float(direction @ sat)
    if d_atmosphere <= 0.0:
        raise SatelliteBelowHorizon("satellite is below the launch plane")
    origin = sat + direction * d_atmosphere

    # In-plane basis: e1 horizontal where possible.
    up = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(direction, up)
    n1 = np.linalg.norm(e1)
    if n1 < 1e-9:
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        e1 = e1 / n1
    e2 = np.cross(direction, e1)
    e2 = e2 / np.linalg.norm(e2)

    spacing_km = spacing_m / M_PER_KM
    if extent_pad_km is None:
        extent_pad_km = scene_height + 10.0 * spacing_km
    feet = corners - np.outer(corners @ direction - c, direction)
    u_coords = (feet - origin) @ e1
    v_coords = (feet - origin) @ e2
    half_u = max(abs(u_coords.min()), abs(u_coords.max())) + extent_pad_km
    half_v = max(abs(v_coords.min()), abs(v_coords.max())) + extent_pad_km

    return LaunchPlane(direction=direction, origin=origin, e1=e1, e2=e2,
                       half_u=float(half_u), half_v=float(half_v),
                       spacing=spacing_km, d_atmosphere=float(d_atmosphere),
                       sat_position=sat)


def _receiver_window(plane: LaunchPlane, rx: np.ndarray,
                     rx_radius: float) -> np.ndarray:
    """Rows of the launch grid that can pass within ``rx_radius`` of
    ``rx``, in ascending order.

    A launch ray's distance to the receiver is the in-plane distance
    between its grid point and the receiver's foot on the launch plane,
    so only the grid points within ``rx_radius`` of the foot qualify.
    One extra grid step on every side absorbs rounding; the window only
    has to hold every capturable row, as the per-row test decides.
    """
    nu, nv = plane.grid_shape()
    w = rx - plane.origin
    ci = (w @ plane.e1 + plane.half_u) / plane.spacing
    cj = (w @ plane.e2 + plane.half_v) / plane.spacing
    reach = rx_radius / plane.spacing + 1.0
    i = np.arange(max(math.ceil(ci - reach), 0),
                  min(math.floor(ci + reach), nu - 1) + 1)
    j = np.arange(max(math.ceil(cj - reach), 0),
                  min(math.floor(cj + reach), nv - 1) + 1)
    return (i[:, None] * nv + j[None, :]).reshape(-1)


def trace(plane: LaunchPlane, scene: Scene, receiver, rx_radius_m: float,
          max_bounces: int = DEFAULT_MAX_BOUNCES) -> list[PathRecord]:
    """March the launch grid through the scene and collect receiver hits.

    Capture is a perpendicular-distance test against the receiver point
    on each straight segment: the ray's closest approach must lie ahead
    of it, within the capture radius, and no farther than its next hit.
    Only the work that can reach a captured path is done (see the module
    docstring): segment 0 tests the launch rays of a receiver window
    only, the last segment intersects only the rays that pass within the
    capture radius, and history is kept only for the rays that go on.

    Every segment that has rays makes one ``Scene.intersect_batch``
    call, even when none of them can be captured, and only a full launch
    grid is passed as ``grid``.  Paths with identical reflection-face
    sequences are deduplicated, keeping the ray that passes closest to
    the receiver; the result is sorted by (bounce count, path length)
    and is fully deterministic.
    """
    if rx_radius_m <= 0.0:
        raise ValueError("capture radius must be positive")
    if max_bounces < 0:
        raise ValueError("max_bounces must be >= 0")
    rx = np.asarray(receiver, dtype=float)
    rx_radius = rx_radius_m / M_PER_KM

    origins = plane.launch_points()
    m = len(origins)
    # one direction for every launch ray, held once (a zero-stride view)
    dirs = np.broadcast_to(plane.direction, (m, 3))
    launch_idx = np.arange(m)
    # near: the rows to test for capture, the receiver window on segment
    # 0 and then every live ray (as a slice, which copies no rows).  Per
    # live ray, its traced length and one history column per bounce;
    # segment 0 has none, so they start as a zero-stride length and
    # empty columns, which hold no memory.
    near = _receiver_window(plane, rx, rx_radius)
    acc_len = np.broadcast_to(0.0, (m,))
    hist_fid = np.empty((m, 0), dtype=int)
    hist_pts = np.empty((m, 0, 3))
    hist_ang = np.empty((m, 0))

    captured: list[tuple] = []

    for segment in range(max_bounces + 1):
        o, d = origins[near], dirs[near]
        s_star = np.einsum("ij,ij->i", rx[None, :] - o, d)
        foot = o + s_star[:, None] * d
        miss = np.linalg.norm(rx[None, :] - foot, axis=1)
        close = (s_star > 0.0) & (miss <= rx_radius)
        near = near[close] if segment == 0 else np.flatnonzero(close)
        s_star, miss = s_star[close], miss[close]

        if segment == max_bounces:
            # the hit only decides whether the receiver is seen first
            t_near = scene.intersect_batch(o[close], d[close],
                                           _SELF_HIT_EPS)[0]
        else:
            # segment 0's rays are the launch grid's; later ones scatter
            t_hit, fid_hit, normals = scene.intersect_batch(
                origins, dirs, _SELF_HIT_EPS,
                grid=plane if segment == 0 else None)
            t_near = t_hit[near]
        seen = s_star <= t_near

        for i, s, q in zip(near[seen], s_star[seen], miss[seen]):
            captured.append((
                int(launch_idx[i]), segment, hist_fid[i].copy(),
                hist_pts[i].copy(), hist_ang[i].copy(),
                float(acc_len[i] + s), float(q), dirs[i].copy(),
            ))

        if segment == max_bounces:
            break

        alive = fid_hit >= 0
        alive[near[seen]] = False
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        inc = dirs[idx]
        hit_pts = origins[idx] + t_hit[idx, None] * inc
        n = normals[idx]
        cos_inc = np.clip(-np.einsum("ij,ij->i", inc, n), -1.0, 1.0)
        new_dirs = inc - 2.0 * np.einsum("ij,ij->i", inc, n)[:, None] * n

        acc_len = acc_len[idx] + t_hit[idx]
        hist_fid = np.concatenate([hist_fid[idx], fid_hit[idx, None]], 1)
        hist_pts = np.concatenate([hist_pts[idx], hit_pts[:, None]], 1)
        hist_ang = np.concatenate(
            [hist_ang[idx], np.arccos(cos_inc)[:, None]], 1)
        origins = hit_pts
        dirs = new_dirs
        launch_idx = launch_idx[idx]
        near = slice(None)

    return _path_records(captured, plane, scene, rx)


def _path_records(captured: list[tuple], plane: LaunchPlane,
                  scene: Scene, rx: np.ndarray) -> list[PathRecord]:
    """Deduplicated, sorted ``PathRecord``s from captured rays.

    Each capture is (launch index, bounces, face ids, points, incidence
    angles, near-ground length, miss distance, final direction).  The
    merge is deterministic: launch order first, then per-face-sequence
    dedup keeping the closest pass, then a (bounces, length) sort.
    """
    captured = sorted(captured, key=lambda rec: rec[0])
    best: dict[tuple, tuple] = {}
    for rec in captured:
        key = tuple(int(f) for f in rec[2])
        prev = best.get(key)
        if prev is None or rec[6] < prev[6]:
            best[key] = rec

    records = []
    for rec in best.values():
        (launch_index, bounces, fids, pts, angs, d_near, miss_d,
         final_dir) = rec
        interactions = tuple(
            Interaction(point=pts[k], face_id=int(fids[k]),
                        incidence_angle=float(angs[k]),
                        material_id=int(scene.material_ids[int(fids[k])]))
            for k in range(bounces))
        if bounces > 0:
            anchor = pts[0]
        else:
            anchor = rx
        aod = anchor - plane.sat_position
        aod = aod / np.linalg.norm(aod)
        records.append(PathRecord(
            launch_index=launch_index,
            interactions=interactions,
            d_near_ground=d_near,
            d_atmosphere=plane.d_atmosphere,
            aod=aod,
            aoa=final_dir,
            bounce_count=bounces,
            miss_distance=miss_d,
        ))
    records.sort(key=lambda p: (p.bounce_count, p.d_near_ground))
    return records


def dump_paths(paths: list[PathRecord]) -> str:
    """Debug text: one line per captured path."""
    lines = []
    for p in paths:
        pts = ";".join(
            f"({q.point[0]:.6f},{q.point[1]:.6f},{q.point[2]:.6f})"
            for q in p.interactions)
        lines.append(f"{p.launch_index} {p.bounce_count} "
                     f"{p.d_near_ground:.9f} [{pts}]")
    return "\n".join(lines) + ("\n" if lines else "")
