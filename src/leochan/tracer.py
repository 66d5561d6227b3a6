"""Planar-wavefront shooting-and-bouncing-rays tracer.

The satellite is far enough (500+ km) that the incident field over a
sub-kilometer scene is a plane wave: a grid of parallel rays is launched
from a plane just above the scene, which also covers a receiver outside
the scene, every surface hit reflects specularly,
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
- Live-only rays.  Segment 0 has no history; traced length and
  interactions are kept only for the rays that hit a face and go on.
  With the grid bound below, segment 0 holds launch points only for the
  receiver window and then for the rays that the bands keep: its
  intersection computes their points itself (``LaunchPlane.points``,
  the rows of ``launch_points()`` to the bit) and reports their hits
  alone, so no array of the march grows with the launch grid.  Without
  it, at three bounces or with the bound off, segment 0 holds every
  launch point.
- One-bounce bound.  On a walked segment with one bounce left, a ray
  o + t d can reach a captured path only through the point of its hit
  and then along d' = d - 2 (d.n) n, the reflection about some face
  normal n: every such path lies in the wedge {a d + b d' : a, b >= 0}
  from o.  A ray is intersected only when, for one of the scene's
  distinct normals, the receiver lies within the capture radius (plus a
  rounding margin) of its wedge; the edge along d covers a capture on
  the segment itself.  This extends the reception sphere one bounce
  back, in the manner of image theory (Tan & Tan, IEEE TAP 1996).  A
  scene with more than ``_BOUND_MAX_NORMALS`` distinct normals, such as
  a soup of arbitrary triangles, or a city turned off the axes, whose
  walls' normals differ in their last bits, intersects every ray.
- Grid bound.  With one or two bounces, the bound on segment 1 runs
  one segment early, on the launch grid: the hit point of a launch ray
  on a face, and so each test of the bound on its reflection, is affine
  in the ray's grid coordinates, so per face the bound becomes a few
  bands and half-planes on the grid, widened by a derived rounding
  margin (``_grid_bands``).  Each face's reflection there comes from
  ``_reflect``, as every reflection of the march does, so the margin
  covers the rounding of the march's own arithmetic.  Segment 0 finds
  the nearest hit only of the rays in the receiver window or in the
  bands of a face whose span covers them, and no other launch ray is
  reported.  With two bounces, segment 1's bound would drop its
  reflection anyway; with one, segment 1 is the last, and a reflection
  that passes within the capture radius is kept by the bound's edge
  along it.  On the demo pass this leaves hits for 4,910 of the 69,385
  launch rays that hit.

The live rays are one ``_Rays`` record, whose arrays ``take`` re-indexes
together and ``_bounce`` reflects, adding one history column; both
gather rows with ``ndarray.take`` (``scene._rows``).  Each
segment that captures rays hands them to ``_path_records`` as one
batch, in launch order; it keeps per face sequence the ray that passes closest to
the receiver, the earlier launch on a tie.

``tests/oracle.py::trace_every_ray`` intersects and tests every ray on
every segment, and gives the same records to the bit.

The launch spacing, capture radius and bounce count come from the run's
validated ``config.SimConfig`` (the capture radius from its
``effective_rx_radius_m``, which is positive) and are not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scene import M_PER_KM, Scene, _cross, _expand, _rows
from .states import Frame, StateVector

# Minimum satellite-distance to scene-height ratio for the plane-wave
# assumption, the self-occlusion offset after a reflection (km), and the
# launch plane's clearance above the nearest scene corner (km).
PLANE_WAVE_MIN_RATIO = 100.0
_SELF_HIT_EPS = 1e-7
PLANE_MARGIN_KM = 0.05

# Launch rays a run may need.  At ``trace``'s peak a launch ray holds
# 2.7 bytes at one or two bounces, where memory follows the rays that
# the grid bands keep, and 283 at three, where the one-bounce bound is
# off (``tests/trace_memory.py``: tracemalloc on C06's flat ground at
# 1 m, every ray hitting it), so the cap stands for 23 MB to 2.4 GB.
# ``tests/test_trace_memory.py`` keeps them under 4 and 300 bytes.  The
# cap admits C06's scene at 0.5 m: ``launch_grid_bound`` gives it 8.12M
# rays, and its grid has 3.14M.
MAX_LAUNCH_RAYS = 2 ** 23

# The one-bounce bound runs only on scenes with at most this many
# distinct normals (up to sign), as its cost grows with their number.
# On the demo pass's bounced rays over cities of turned blocks, the
# bound plus the walk of the kept rays cost as much as the walk of every
# ray at about 90 rows on the demo city and 110 on a 20x20 city; at 64
# rows it took 0.72 and 0.69 of it (2 vCPU Xeon, numpy 2.4.6).
_BOUND_MAX_NORMALS = 64
# Rays per block of the bound, which bounds its (normal, ray) arrays.
_BOUND_BLOCK = 1024
# A normal within about 0.57 degrees of a ray's direction, where
# s^2 = 1 - (d.n)^2 is below this, keeps the ray: its wedge is then
# nearly a half-plane, whose plane d x n is ill-conditioned.
_BOUND_MIN_SIN2 = 1e-4
# A face keeps its whole span on the launch grid when kappa / |n.d|
# exceeds this, where kappa = |e1| |e2| / |e1 x e2| is its shape factor:
# the rounding of its hit points grows as that ratio, and the first-order
# error bound of ``_grid_bands`` holds with room to spare below it.
_GRID_MAX_GAIN = 1e6


class SatelliteBelowHorizon(ValueError):
    pass


@dataclass(frozen=True)
class Interaction:
    point: np.ndarray        # km, local frame
    face_id: int
    incidence_angle: float   # rad, measured from the surface normal


@dataclass(frozen=True)
class PathRecord:
    launch_index: int
    interactions: tuple[Interaction, ...]
    d_near_ground: float     # km, plane entry to receiver
    d_atmosphere: float      # km, satellite to launch plane
    aod: np.ndarray          # unit, satellite toward first interaction
    bounce_count: int
    miss_distance: float     # km, closest approach to the receiver point

    @property
    def total_distance(self) -> float:
        return self.d_atmosphere + self.d_near_ground


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
        # (origin + u * e1) + v * e2 per point, one component at a time,
        # as a broadcast over rows of 3 runs a loop per point
        rows = self.origin + us[:, None] * self.e1
        cols = vs[:, None] * self.e2
        points = np.empty((nu, nv, 3))
        for c in range(3):
            np.add(rows[:, c, None], cols[:, c], out=points[:, :, c])
        return points.reshape(-1, 3)

    def points(self, idx: np.ndarray) -> np.ndarray:
        """The launch points of rays ``idx``: rows ``idx`` of
        ``launch_points()``, to the bit, by the same expression."""
        i, j = np.divmod(idx, self.grid_shape()[1])
        us = -self.half_u + self.spacing * i
        vs = -self.half_v + self.spacing * j
        points = np.empty((len(idx), 3))
        for c in range(3):
            np.add(self.origin[c] + us * self.e1[c], vs * self.e2[c],
                   out=points[:, c])
        return points


def plane_wave_min_distance(scene_height_km: float) -> float:
    """Least distance (km) from the scene's origin at which a satellite
    still lights a scene of this height as a plane wave."""
    return PLANE_WAVE_MIN_RATIO * max(scene_height_km, 1e-3)


def _cross3(a, b) -> np.ndarray:
    """a x b for two 3-vectors, with the arithmetic of ``np.cross`` (per
    component a multiply, then a subtract) and none of its overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


def _default_pad_km(scene_height_km: float, spacing_km: float) -> float:
    """``build_launch_plane``'s default pad, which covers bounce spread:
    the scene height plus ten spacings."""
    return scene_height_km + 10.0 * spacing_km


def launch_grid_bound(scene: Scene, spacing_m: float, receiver,
                      rx_radius_m: float) -> int:
    """At least the ray count of every launch grid that
    ``build_launch_plane`` places over ``scene`` and ``receiver`` with
    its default pad, from any direction.

    The plane's origin is the foot of the scene box's bottom-centre
    target, so a point's foot lies no farther from it than the point
    from the target: at most R from the scene box's farthest corner,
    and D from the receiver.  So half_u and half_v are at most the
    larger of R + pad and D plus the capture radius, and nu and nv at
    most floor(2 half / spacing) + 1; one row more covers rounding.
    """
    bmin, bmax = scene.bounds
    half = 0.5 * (bmax - bmin)
    height = float(bmax[2] - bmin[2])
    spacing_km = spacing_m / M_PER_KM
    target = np.array([(bmin[0] + bmax[0]) / 2.0,
                       (bmin[1] + bmax[1]) / 2.0, bmin[2]])
    rx_reach = float(np.linalg.norm(np.asarray(receiver) - target))
    reach = max(math.hypot(half[0], half[1], height)
                + _default_pad_km(height, spacing_km),
                rx_reach + rx_radius_m / M_PER_KM)
    side = math.floor(2.0 * reach / spacing_km) + 2
    return side * side


def build_launch_plane(sat_local: StateVector, scene: Scene,
                       spacing_m: float, receiver, rx_radius_m: float,
                       extent_pad_km: float | None = None) -> LaunchPlane:
    """Place the launch plane for one satellite position.

    The plane is perpendicular to the satellite-to-scene direction,
    offset ``PLANE_MARGIN_KM`` above the closest scene corner, and sized
    to the scene footprint projected along the ray direction plus a pad
    that covers bounce spread (default: scene height plus ten spacings).
    A receiver outside the scene box still sees the sky: where it lies
    before that plane, the plane moves back to the same offset before
    the receiver, and where its foot plus the capture radius
    ``rx_radius_m`` lies outside the padded grid, the grid widens to
    cover it.  Neither happens for a receiver in the scene box.
    """
    sat_local.require(Frame.LOCAL)
    sat = np.asarray(sat_local.position, dtype=float)
    rx = np.asarray(receiver, dtype=float)

    bmin, bmax = scene.bounds
    target = np.array([(bmin[0] + bmax[0]) / 2.0,
                       (bmin[1] + bmax[1]) / 2.0, bmin[2]])
    direction = target - sat
    direction = direction / np.linalg.norm(direction)
    if direction[2] >= 0.0:
        raise SatelliteBelowHorizon(
            "satellite direction does not point down into the scene")

    scene_height = float(bmax[2] - bmin[2])
    if np.linalg.norm(sat) < plane_wave_min_distance(scene_height):
        raise ValueError("satellite too close for the plane-wave launch")

    corners = np.array([[x, y, z]
                        for x in (bmin[0], bmax[0])
                        for y in (bmin[1], bmax[1])
                        for z in (bmin[2], bmax[2])])
    # Plane: direction . x = c, just before the nearest corner, or the
    # receiver where it lies before that.
    proj = corners @ direction
    c = float(proj.min()) - PLANE_MARGIN_KM
    rx_proj = float(direction @ rx)
    if rx_proj <= c:
        c = rx_proj - PLANE_MARGIN_KM
    d_atmosphere = c - float(direction @ sat)
    if d_atmosphere <= 0.0:
        raise SatelliteBelowHorizon("satellite is below the launch plane")
    origin = sat + direction * d_atmosphere

    # In-plane basis: e1 horizontal where possible.
    e1 = _cross3(direction, (0.0, 0.0, 1.0))
    n1 = np.linalg.norm(e1)
    if n1 < 1e-9:
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        e1 = e1 / n1
    e2 = _cross3(direction, e1)
    e2 = e2 / np.linalg.norm(e2)

    spacing_km = spacing_m / M_PER_KM
    if extent_pad_km is None:
        extent_pad_km = _default_pad_km(scene_height, spacing_km)
    feet = corners - np.outer(corners @ direction - c, direction)
    u_coords = (feet - origin) @ e1
    v_coords = (feet - origin) @ e2
    half_u = max(abs(u_coords.min()), abs(u_coords.max())) + extent_pad_km
    half_v = max(abs(v_coords.min()), abs(v_coords.max())) + extent_pad_km
    rx_radius = rx_radius_m / M_PER_KM
    half_u = max(half_u, abs(float((rx - origin) @ e1)) + rx_radius)
    half_v = max(half_v, abs(float((rx - origin) @ e2)) + rx_radius)

    return LaunchPlane(direction=direction, origin=origin, e1=e1, e2=e2,
                       half_u=float(half_u), half_v=float(half_v),
                       spacing=spacing_km, d_atmosphere=float(d_atmosphere),
                       sat_position=sat)


def _reflect(d: np.ndarray, n: np.ndarray):
    """Per row, the face normal ``n`` turned against the ray direction
    ``d``, d.n about it (at most 0), and the specular reflection
    d - 2 (d.n) n: the one place a normal is oriented or a ray
    reflected."""
    n = np.where((np.einsum("ij,ij->i", n, d) > 0.0)[:, None], -n, n)
    dn = np.einsum("ij,ij->i", d, n)
    return n, dn, d - 2.0 * dn[:, None] * n


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


def _bound_slack(rx: np.ndarray, rx_radius: float,
                 bounds: np.ndarray) -> float:
    """Distance from its wedge within which a ray is kept by
    ``_reaches_after_one_bounce``: r (1 + 1e-9) + 1e-12 L, where r is the
    capture radius and L = |rx| + 4 max|bounds| bounds every length in
    the capture arithmetic (km).

    Why this suffices.  With u = 2^-53: the ray's origin o and hit
    point p lie in the scene box, so |o|, |p| <= sqrt(3) max|bounds|
    and the hit distance t is at most the box diagonal; the next
    segment's closest approach s* is at most |rx - p|, and |rx - o| too
    is at most L.  The tracer rounds p = o + t d, its reflection d', the
    foot p + s* d' and the miss, each by a few u per term: in all about
    20 u L, plus 3 u r on the miss's norm.  So a ray that the tracer
    captures lies within r (1 + 3u) + 20 u L of its exact wedge.  The
    bound's own terms are sums of products of rx - o with unit vectors,
    off by a few u L, and are divided by s >= 1e-2 (``_BOUND_MIN_SIN2``):
    at most about 1e3 u L = 1.1e-13 L more.  1e-12 L covers both, nearly
    eight times over.  The squared tests compare against slack^2 s^2,
    where s^2 = 1 - (d.n)^2 has relative error at most 2u / 1e-4, far
    below the 1e-9 relative slack on r.
    """
    scale = float(np.linalg.norm(rx)) + 4.0 * float(np.abs(bounds).max())
    return rx_radius * (1.0 + 1e-9) + 1e-12 * scale


def _reaches_after_one_bounce(origins: np.ndarray, dirs: np.ndarray,
                              rx: np.ndarray, slack: float,
                              normals: np.ndarray) -> np.ndarray:
    """Per ray o + t d, whether ``rx`` lies within ``slack`` of its ray
    or, for one of ``normals``, of its wedge {a d + b d' : a, b >= 0}
    from o, where d' = d - 2 (d.n) n (see the module docstring).

    With w = rx - o, c = d.n and s^2 = 1 - c^2, the wedge lies in the
    plane of d and n, at distance |w.(d x n)| / s = |(w x d).n| / s from
    w.  In that plane, s times w's signed distances from the lines of d
    and of d' are y = w.n - c w.d and z = c w.d + (1 - 2c^2) w.n, and
    the Gram solution of w = a d + b d' has a >= 0 iff c z >= 0 and
    b >= 0 iff c y <= 0.  Inside the wedge, its distance is the plane
    distance; outside, the distance to the nearer edge ray.  Along d it
    is |w x d|, or |w| where w.d <= 0.  Along d' it is the plane and
    in-plane distances combined where w.d' = w.d - 2c w.n is positive;
    elsewhere it is |w|, which is never less than the d edge's.  Every
    test is squared and multiplied through by s^2, so nothing divides.
    Where c = 0, d' = d and the wedge is the ray itself, yet both signs
    hold, so ``inside`` also requires c != 0.
    Runs in blocks of ``_BOUND_BLOCK`` rays.
    """
    keep = np.empty(len(origins), dtype=bool)
    slack2 = slack * slack
    for a in range(0, len(origins), _BOUND_BLOCK):
        w = rx - origins[a:a + _BOUND_BLOCK]
        d = dirs[a:a + _BOUND_BLOCK]
        wd = np.einsum("ij,ij->i", w, d)
        ww = np.einsum("ij,ij->i", w, w)
        x = _cross(w, d)
        # the d edge: a capture on the ray's own segment
        own = np.where(wd > 0.0, np.einsum("ij,ij->i", x, x), ww) <= slack2
        # one row per normal and one column per ray, so that the
        # reduction over the normals runs down the columns
        c = normals @ d.T
        wn = normals @ w.T
        plane2 = (normals @ x.T) ** 2
        s2 = 1.0 - c * c
        cwd = c * wd
        y = wn - cwd
        z = cwd + (1.0 - 2.0 * c * c) * wn
        near2 = slack2 * s2
        inside = ((c != 0.0) & (c * z >= 0.0) & (c * y <= 0.0)
                  & (plane2 <= near2))
        edge = (wd - 2.0 * c * wn > 0.0) & (plane2 + z * z <= near2)
        keep[a:a + _BOUND_BLOCK] = own | (
            (s2 < _BOUND_MIN_SIN2) | inside | edge).any(axis=0)
    return keep


def _grid_bands(plane: LaunchPlane, scene: Scene, rx: np.ndarray,
                slack: float, normals: np.ndarray, window: np.ndarray):
    """The ``keep`` of segment 0 of a one- or two-bounce trace (see
    ``Scene.intersect_batch``): the launch rays in ``window``, and those
    that some face whose span covers them sends on towards the
    receiver, as ``_reaches_after_one_bounce`` would see it on segment 1.

    Every ray that segment 1 can capture is kept.  With two bounces,
    segment 1 has one bounce left, and its bound would drop the
    reflection of every launch ray that this keep drops.  With one
    bounce, a launch ray outside ``window`` can be captured only on
    segment 1, the last: there its reflection passes within the capture
    radius of the receiver, so the bound keeps that reflection by its
    edge along it (``own``), and then the bands below keep the launch
    ray.

    For face f, ``_reflect`` turns its normal n against the launch
    direction d and reflects d into d1 = d - 2 (d.n) n, as on segment 0
    of the march.  The foot p of launch ray (i, j) on f's plane along d
    is affine in (i, j), and so is w = rx - p.  If the ray's nearest hit
    is on f, p is the tracer's hit point up to rounding, and on segment
    1 the bound keeps the reflected ray only if, for some of ``normals``
    n2, with c = d1.n2, s^2 = 1 - c^2, y = w.n2 - c w.d1 and
    z = c w.d1 + (1 - 2 c^2) w.n2:

    - |(w x d1).n2| <= slack s (its ``inside`` and ``edge`` branches
      both require this), and
    - c != 0, c z >= 0 and c y <= 0 (``inside``), or w.d1 - 2 c w.n2 > 0
      and |z| <= slack s (``edge``), or |y| <= slack s, which its ``own``
      branch implies: |w x d1| <= slack, and y is w's component along
      n2 - c d1, which is perpendicular to d1 and of length s.

    Where c here is 0 but the tracer's c rounds to a tiny non-zero
    value, the bands still keep what the bound keeps: the tracer's
    ``inside`` then holds only where |w.n2| is at most about |c| |w.d1|,
    so that |y| is far below the margin, and the |y| term keeps those
    points.

    Every quantity is affine in (i, j), so each test is a band or a
    half-plane on the grid, A + B i + C j against +-H.  The test runs in
    two stages: a face is active for n2 when its vertices' values of
    (w x d1).n2 leave it in n2's band, and per span of an active face,
    only the columns inside that band, (+-H - A - B i) / C, go on to the
    other tests.  A face keeps its whole span where the bound keeps
    every ray, by s^2 < ``_BOUND_MIN_SIN2`` for some n2 (compared with
    1e-12 to spare, as d1.n2 may round otherwise), and where n is nearly
    perpendicular to d (``_GRID_MAX_GAIN``).

    The margin E, added to every bound: let L = |rx| + |plane origin| +
    half_u + half_v + 4 max|bounds|, which bounds every point, distance
    and grid offset here, and a = kappa / |n.d| with kappa the face's
    ``Scene.shape_factors``.  With u = 2^-53: Moller-Trumbore's t errs
    by about 14 u kappa L / |n.d| (its determinant and numerator are dot
    products with relative error about 7 u kappa, against |n.d| and t
    |n.d|), the rounded normal tilts f's plane by about 4 u kappa, and
    the launch and hit points round by a few u L, so the tracer's hit
    point lies within about u L (12 + 22 a) of p, and inside the face up
    to as much.  A, B and C divide by n.d and err by about 20 u L (1 +
    a); y and z add two such terms, and the bound rounds its own by a
    few u L.  In all, at most 100 u L (1 + a) = 1.1e-14 L (1 + a), and E
    = 1e-12 L (1 + a) covers it ninety times over.  The factor 1 +
    1e-9 on slack s covers the rounding of s for s^2 >= 1e-4, and the
    band's column ends, with relative error 2u, are widened by 1e-6
    columns.
    """
    nv = plane.grid_shape()[1]
    d = plane.direction
    v0 = scene.triangles[:, 0]
    kappa = scene.shape_factors
    # each face's normal and reflection, as trace gives them
    n, dn, d1 = _reflect(np.tile(d, (len(v0), 1)), scene.normals)
    # one row per normal n2 and one column per face
    cos = normals @ d1.T
    whole = ((kappa > _GRID_MAX_GAIN * np.abs(dn))
             | (1.0 - cos * cos < _BOUND_MIN_SIN2 + 1e-12).any(axis=0))
    dn = np.where(whole, -1.0, dn)
    scale = (float(np.linalg.norm(rx)) + float(np.linalg.norm(plane.origin))
             + plane.half_u + plane.half_v
             + 4.0 * float(np.abs(scene.bounds).max()))
    margin = 1e-12 * scale * (1.0 + kappa / np.abs(dn))
    half = slack * (1.0 + 1e-9) * np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    half += margin
    # w = rx - p for the foot p of launch ray (i, j) on each face's
    # plane is w0 + i wi + j wj, stacked as rows [w0; wi; wj]
    o00 = plane.origin - plane.half_u * plane.e1 - plane.half_v * plane.e2
    t00 = np.einsum("ij,ij->i", v0 - o00, n) / dn
    w = np.concatenate([
        rx - (o00 + t00[:, None] * d),
        plane.spacing * (((n @ plane.e1) / dn)[:, None] * d - plane.e1),
        plane.spacing * (((n @ plane.e2) / dn)[:, None] * d - plane.e2)])
    # the bound's w.d1, w.n2 and (w x d1).n2, each as the rows A, B, C
    # of A + B i + C j, the latter two with a column per (n2, face)
    # pair, n2 * faces + face
    faces = len(v0)
    d1s = np.tile(d1, (3, 1))
    wd = np.einsum("ij,ij->i", w, d1s).reshape(3, faces)
    split = (len(normals), 3, faces)
    wn, plane2 = ((normals @ v.T).reshape(split).swapaxes(0, 1)
                  .reshape(3, -1) for v in (w, _cross(w, d1s)))
    # A face whose hits can lie in n2's band: the plane distance is
    # affine on the face, so it lies between its values at the vertices.
    x = _cross((rx - scene.triangles.swapaxes(0, 1)).reshape(-1, 3), d1s)
    x = (normals @ x.T).reshape(split)
    active = ((x.min(axis=1) <= half + margin)
              & (x.max(axis=1) >= -half - margin) & ~whole)
    cos, half = cos.reshape(-1), half.reshape(-1)

    def keep(face, row, lo, hi):
        kept = window.copy()
        full = whole[face]
        kept[_expand(row[full] * nv + lo[full],
                     hi[full] - lo[full] + 1)[1]] = True
        # the columns of each span within the band of an active n2
        k, span = np.nonzero(np.take(active, face, axis=1))
        kf, i = k * faces + face[span], row[span]
        a, b, step = np.take(plane2, kf, axis=1)
        a += b * i
        h = half[kf]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            j0 = (-h - a) / step
            j1 = (h - a) / step
        flat = step == 0.0
        inside = np.abs(a) <= h
        j_lo = np.where(flat, np.where(inside, -np.inf, np.inf),
                        np.minimum(j0, j1))
        j_hi = np.where(flat, np.where(inside, np.inf, -np.inf),
                        np.maximum(j0, j1))
        j_lo = np.maximum(np.ceil(j_lo - 1e-6), lo[span])
        j_hi = np.minimum(np.floor(j_hi + 1e-6), hi[span])
        live = np.flatnonzero(j_lo <= j_hi)
        first = j_lo[live].astype(np.intp)
        entry, j = _expand(first, j_hi[live].astype(np.intp) - first + 1)
        entry = live[entry]
        kf, f, i = kf[entry], face[span[entry]], i[entry]
        # the bound's branches for that n2, at the grid point (i, j)
        a, b, step = np.take(wd, f, axis=1)
        w_d = a + b * i + step * j
        a, b, step = np.take(wn, kf, axis=1)
        w_n = a + b * i + step * j
        c, e, h = cos[kf], margin[f], half[kf]
        y = w_n - c * w_d
        z = c * w_d + (1.0 - 2.0 * c * c) * w_n
        ok = (((c != 0.0) & (c * z >= -e) & (c * y <= e))
              | ((w_d - 2.0 * c * w_n >= -e) & (np.abs(z) <= h))
              | (np.abs(y) <= h))
        kept[(i * nv + j)[ok]] = True
        return kept

    return keep


class _Rays(NamedTuple):
    """A batch of the march's rays, one row each: its start and
    direction, its launch index, the length traced before its start,
    and per bounce so far, the face it hit, the hit point and the
    incidence angle."""

    origin: np.ndarray       # (n, 3) km
    direction: np.ndarray    # (n, 3) unit
    launch: np.ndarray       # (n,)
    length: np.ndarray       # (n,) km
    faces: np.ndarray        # (n, bounces)
    points: np.ndarray       # (n, bounces, 3) km
    angles: np.ndarray       # (n, bounces) rad

    def take(self, idx) -> _Rays:
        return _Rays(*(_rows(a, idx) for a in self))


def _launch_rays(plane: LaunchPlane, launch: np.ndarray,
                 points: np.ndarray) -> _Rays:
    """Launch rays ``launch``, leaving from ``points``.  They share one
    direction, held once (a zero-stride view), and have no traced length
    or history yet: a zero-stride length and empty columns, which hold
    no memory."""
    n = len(launch)
    return _Rays(points, np.broadcast_to(plane.direction, (n, 3)), launch,
                 np.broadcast_to(0.0, (n,)), np.empty((n, 0), dtype=int),
                 np.empty((n, 0, 3)), np.empty((n, 0)))


def _bounce(rays: _Rays, idx: np.ndarray, t: np.ndarray, fid: np.ndarray,
            points: np.ndarray, dn: np.ndarray, out: np.ndarray) -> _Rays:
    """The rays ``idx`` of ``rays`` after one reflection: ray i went
    ``t[i]`` to its hit on face ``fid[i]``, and in order of ``idx``,
    the rays hit at ``points``, where d.n was ``dn``, and leave from
    there along ``out``."""
    return _Rays(points, out, _rows(rays.launch, idx),
                 _rows(rays.length, idx) + _rows(t, idx),
                 np.concatenate([_rows(rays.faces, idx),
                                 _rows(fid, idx)[:, None]], 1),
                 np.concatenate([_rows(rays.points, idx),
                                 points[:, None]], 1),
                 np.concatenate([_rows(rays.angles, idx), np.arccos(
                     np.clip(-dn, -1.0, 1.0))[:, None]], 1))


def trace(plane: LaunchPlane, scene: Scene, receiver, rx_radius_m: float,
          max_bounces: int) -> list[PathRecord]:
    """March the launch grid through the scene and collect receiver hits.

    Capture is a perpendicular-distance test against the receiver point
    on each straight segment: the ray's closest approach must lie ahead
    of it, within the capture radius, and no farther than its next hit.
    Only the work that can reach a captured path is done (see the module
    docstring): segment 0 tests the launch rays of a receiver window
    only, the segment with one bounce left keeps only the rays whose
    one-bounce wedge passes near the receiver, at one or two bounces
    segment 0 finds hits only for the launch rays whose reflection can
    pass that test (one builder, ``_grid_bands``, serves both), the last
    segment intersects only the rays that pass within the capture
    radius, and history is kept only for the rays that go on.

    Every segment that some ray reaches makes exactly one
    ``Scene.intersect_batch`` call, even when none of its rays can be
    captured and even with zero rows, when the one-bounce bound drops
    them all; so the k-th call of a trace is segment k.  Only segment 0
    passes ``grid``, with one row per launch ray: zero-stride views
    where the grid bands keep rays, as the engine then reads the kept
    rays' points from the plane.  The live rays are one
    ``_Rays``, and each segment that captures rays adds one batch of
    them, in launch order.  Paths with identical reflection-face sequences
    are deduplicated, keeping the ray that passes closest to the
    receiver, the earlier launch on a tie; the result is sorted by
    (bounce count, path length) and is fully deterministic.
    """
    rx = np.asarray(receiver, dtype=float)
    rx_radius = rx_radius_m / M_PER_KM

    m = math.prod(plane.grid_shape())
    # near: the rays to test for capture, the receiver window on segment
    # 0 and then every live ray
    near = _receiver_window(plane, rx, rx_radius)
    # The one-bounce bound picks the rays of the segment with one bounce
    # left where the segment before reflects them.  At one or two
    # bounces its bands on the launch grid also pick the launch rays
    # that segment 0 intersects, besides the receiver window.
    bounded = (max_bounces > 0
               and len(scene.distinct_normals) <= _BOUND_MAX_NORMALS)
    grid, keep = plane, None
    if bounded:
        axes = scene.distinct_normals
        slack = _bound_slack(rx, rx_radius, scene.bounds)
    if bounded and max_bounces <= 2:
        window = np.zeros(m, dtype=bool)
        window[near] = True
        keep = _grid_bands(plane, scene, rx, slack, axes, window)
        # segment 0 holds the window's rays until the call reports the
        # kept ones, which include them
        rays = _launch_rays(plane, near, plane.points(near))
        near = np.arange(len(near))
    else:
        rays = _launch_rays(plane, np.arange(m), plane.launch_points())

    batches: list[tuple[_Rays, np.ndarray, np.ndarray]] = []

    for segment in range(max_bounces + 1):
        o, d = _rows(rays.origin, near), _rows(rays.direction, near)
        s_star = np.einsum("ij,ij->i", rx[None, :] - o, d)
        miss = np.linalg.norm(rx[None, :] - (o + s_star[:, None] * d), axis=1)
        close = (s_star > 0.0) & (miss <= rx_radius)
        near, s_star, miss = near[close], s_star[close], miss[close]
        # the close rays; this also frees the copies of every live ray
        # before the intersection
        o, d = _rows(rays.origin, near), _rows(rays.direction, near)

        if segment == max_bounces:
            # the hit only decides whether the receiver is seen first
            t_near = scene.intersect_batch(o, d, _SELF_HIT_EPS)[0]
        elif keep is None:
            t_hit, fid_hit = scene.intersect_batch(
                rays.origin, rays.direction, _SELF_HIT_EPS, grid=grid)
            t_near = _rows(t_hit, near)
        else:
            # one zero-stride row per launch ray: the engine reads the
            # kept rays' launch points from the plane
            t_hit, fid_hit, kept = scene.intersect_batch(
                np.broadcast_to(plane.origin, (m, 3)),
                np.broadcast_to(plane.direction, (m, 3)), _SELF_HIT_EPS,
                grid=grid, keep=keep)
            # the window's rays are kept, and both lists ascend
            near = np.searchsorted(kept, _rows(rays.launch, near))
            rays = _launch_rays(plane, kept, plane.points(kept))
            t_near = _rows(t_hit, near)
        seen = s_star <= t_near
        if seen.any():
            batches.append((rays.take(near[seen]), s_star[seen], miss[seen]))

        if segment == max_bounces:
            break

        alive = fid_hit >= 0
        alive[near[seen]] = False
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        d = _rows(rays.direction, idx)
        hit_pts = _rows(rays.origin, idx) + _rows(t_hit, idx)[:, None] * d
        # d becomes the reflection, which frees the incident copy
        _, dn, d = _reflect(d, _rows(scene.normals, _rows(fid_hit, idx)))
        if bounded and segment + 2 == max_bounces:
            # the next segment has one bounce left: only the rays that
            # can still be captured go on
            go = _reaches_after_one_bounce(hit_pts, d, rx, slack, axes)
            idx, hit_pts, d, dn = idx[go], hit_pts[go], d[go], dn[go]
        rays = _bounce(rays, idx, t_hit, fid_hit, hit_pts, dn, d)
        near = np.arange(len(idx))
        # later segments' rays scatter
        grid = keep = None

    return _path_records(batches, plane, rx)


def _path_records(batches: list[tuple[_Rays, np.ndarray, np.ndarray]],
                  plane: LaunchPlane, rx: np.ndarray) -> list[PathRecord]:
    """Deduplicated, sorted ``PathRecord``s from captured rays.

    Each batch holds the rays captured on one segment, in launch order,
    as (rays, s, miss): per ray, the distance along its last segment to
    its closest approach to the receiver, and that miss distance.  Per
    face sequence the closest pass is kept, the earlier launch on a tie:
    sequences of different lengths never meet, and those of one length
    come from one batch.  Records are sorted by (bounces, length).
    """
    best: dict[tuple, tuple] = {}
    for rays, s_star, miss in batches:
        for k, key in enumerate(map(tuple, rays.faces.tolist())):
            prev = best.get(key)
            if prev is None or miss[k] < prev[0]:
                best[key] = (miss[k], rays, k, s_star[k])

    records = []
    for miss_d, rays, k, s in best.values():
        pts = rays.points[k]
        interactions = tuple(
            Interaction(point=p, face_id=int(f), incidence_angle=float(a))
            for p, f, a in zip(pts, rays.faces[k], rays.angles[k]))
        aod = (pts[0] if interactions else rx) - plane.sat_position
        aod = aod / np.linalg.norm(aod)
        records.append(PathRecord(
            launch_index=int(rays.launch[k]), interactions=interactions,
            d_near_ground=float(rays.length[k] + s),
            d_atmosphere=plane.d_atmosphere, aod=aod,
            bounce_count=len(interactions), miss_distance=float(miss_d)))
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
