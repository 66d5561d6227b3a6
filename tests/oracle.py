"""Reference implementations the tests check the package against.

None of this runs in a simulation: the package keeps only the code a run
calls, and the oracles live here.

Ray tracing.  ``nearest_hits`` is the reference for
``Scene.intersect_batch``, for both of its candidate sources: the BVH
walk (any rays) and the span raster (``grid=``, the launch grid's
parallel rays).

No tree, no raster and no chunking: every face is tested
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

``nearest_hits`` also returns each hit's face normal turned against the
ray, its own reference for the orientation that ``tracer._reflect``
gives: the engine returns only the distance and the face.

``trace_every_ray`` is the reference for ``tracer.trace``.

Pass geometry.  ``doppler_closed_form`` is the closed-form along-track
Doppler law, with its inputs measured from the propagated states at
culmination by ``build_pass_geometry``; C01-C03 check it against the
finite-difference range rate of ``Ephemeris.ecef_at``.
``elevation_triangle`` is the law-of-cosines form of
``passes.elevation``.  ``find_pass_every_step`` is the reference for
``passes.find_pass``: the same search with every scan instant
propagated, none skipped.

Frames.  The inverses of the package's forward chain, for the C12 round
trips and for placing sites: ``eci_to_teme``, ``ecef_to_eci``,
``local_to_global`` (with ``local_point_to_global``) and
``ecef_to_geodetic``.  ``ecef_reference`` is the forward chain as first
written, the reference for the bytes of ``Ephemeris.eci_at`` and
``ecef_at``.  It owns all of its arithmetic: the orientation angles of
``earth_orientation_reference`` (every Delaunay argument, and the
nutation series as generator sums over ``NUTATION_TERMS``), its own
rotations from nested lists, multiplied with ``@``, P and N built
separately, the precession-nutation product once per half of the chain,
and the Earth-rate term from ``np.cross``.  ``teme_to_eci_reference`` is
its TEME -> J2000 matrix.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from leochan.frames import (ARCSEC2RAD, DEG2RAD, EARTH_ROTATION_RATE,
                            WGS84_A_KM, WGS84_E2, WGS84_F, EarthOrientation,
                            LocalFrame, geodetic_to_ecef)
from leochan.link import SPEED_OF_LIGHT_KM_S
from leochan.passes import (Ephemeris, NoPassFound, PassWindow,
                            _bisect_crossing, _golden_max, elevation,
                            gamma_at_culmination)
from leochan.scene import _DET_EPS, M_PER_KM
from leochan.states import Frame, StateVector
from leochan.timebase import gmst_rad, julian_centuries_tt
from leochan.tracer import _SELF_HIT_EPS, _path_records, _Rays, _reflect


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
    and keeps full-grid history arrays.  Each segment's captures are
    wrapped in one ``tracer._Rays`` batch and go through the tracer's
    own dedup and record step, ``tracer._path_records``, and
    each hit reflects through its one reflection step,
    ``tracer._reflect``: the reference is for what the march skips, not
    for the law of reflection, which ``nearest_hits``' oriented normals
    and the specularity test check.
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
        t_hit, fid_hit = scene.intersect_batch(
            origins, dirs, _SELF_HIT_EPS,
            grid=plane if segment == 0 else None)
        s_star = np.einsum("ij,ij->i", rx[None, :] - origins, dirs)
        foot = origins + s_star[:, None] * dirs
        miss = np.linalg.norm(rx[None, :] - foot, axis=1)
        can_capture = (s_star > 0.0) & (s_star <= t_hit) & (miss <= rx_radius)
        i = np.flatnonzero(can_capture)
        captured.append((
            _Rays(origins[i], dirs[i], launch_idx[i], acc_len[i],
                  hist_fid[i, :segment], hist_pts[i, :segment],
                  hist_ang[i, :segment]), s_star[i], miss[i]))
        alive = ~can_capture & (fid_hit >= 0)
        if segment == max_bounces or not alive.any():
            break
        idx = np.flatnonzero(alive)
        hit_pts = origins[idx] + t_hit[idx, None] * dirs[idx]
        _, dn, out = _reflect(dirs[idx], scene.normals[fid_hit[idx]])
        cos_inc = np.clip(-dn, -1.0, 1.0)
        acc_len = acc_len[idx] + t_hit[idx]
        hist_fid = hist_fid[idx]
        hist_pts = hist_pts[idx]
        hist_ang = hist_ang[idx]
        hist_fid[:, segment] = fid_hit[idx]
        hist_pts[:, segment] = hit_pts
        hist_ang[:, segment] = np.arccos(cos_inc)
        origins = hit_pts
        dirs = out
        launch_idx = launch_idx[idx]
    return _path_records(captured, plane, rx)


def elevation_triangle(site_ecef, sat_ecef) -> float:
    """Reference for ``passes.elevation``: the law-of-cosines triangle,
    pi/2 minus the central angle minus the angle at the satellite."""
    site = np.asarray(site_ecef, dtype=float)
    sat = np.asarray(sat_ecef, dtype=float)
    r_e = float(np.linalg.norm(site))
    r = float(np.linalg.norm(sat))
    d = float(np.linalg.norm(sat - site))
    cos_gamma = float(site @ sat) / (r_e * r)
    gamma = math.acos(max(-1.0, min(1.0, cos_gamma)))
    cos_rso = (d * d + r * r - r_e * r_e) / (2.0 * d * r)
    angle_rso = math.acos(max(-1.0, min(1.0, cos_rso)))
    return math.pi / 2.0 - gamma - angle_rso


@dataclass(frozen=True)
class PassGeometry:
    """Inputs of the closed-form Doppler law, frozen at culmination.

    The culmination geometry and the effective relative angular rate are
    measured from propagated states rather than assumed.
    """

    r_e: float              # site geocentric radius, km
    r: float                # satellite geocentric radius at t0, km
    gamma_t0: float         # rad
    omega_s: float          # satellite inertial angular rate, rad/s
    omega_e: float          # Earth rotation rate, rad/s
    inclination: float      # rad
    omega_f: float          # effective relative rate omega_s - omega_e cos i
    fc_hz: float
    t0: datetime
    subsat0: np.ndarray     # unit sub-satellite direction at t0 (ECEF)
    ephemeris: Ephemeris

    def psi_delta(self, t: datetime, sat_ecef=None) -> float:
        """Signed along-track central angle between the sub-satellite
        points at t and at culmination (negative before culmination)."""
        if sat_ecef is None:
            sat_ecef = self.ephemeris.ecef_at(t).position
        u = np.asarray(sat_ecef, dtype=float)
        u = u / np.linalg.norm(u)
        cosang = max(-1.0, min(1.0, float(u @ self.subsat0)))
        ang = math.acos(cosang)
        return ang if t >= self.t0 else -ang

    def slant_range_model(self, psi_delta: float) -> float:
        """Law-of-cosines slant range for an along-track offset."""
        cos_g = math.cos(psi_delta) * math.cos(self.gamma_t0)
        return math.sqrt(self.r_e ** 2 + self.r ** 2
                         - 2.0 * self.r_e * self.r * cos_g)


def build_pass_geometry(ephem: Ephemeris, window: PassWindow,
                        site_geodetic: tuple[float, float, float],
                        fc_hz: float) -> PassGeometry:
    """Freeze the closed-form Doppler inputs at the window culmination."""
    site_ecef = geodetic_to_ecef(*site_geodetic)
    sat0 = ephem.ecef_at(window.t0)
    r = float(np.linalg.norm(sat0.position))
    r_e = float(np.linalg.norm(site_ecef))
    subsat0 = np.asarray(sat0.position, dtype=float) / r

    site_u = site_ecef / r_e
    gamma_measured = math.acos(max(-1.0, min(1.0, float(site_u @ subsat0))))

    omega_s = ephem.inertial_angular_rate(window.t0)
    incl = math.radians(ephem.tle.inclination_deg)
    omega_f = omega_s - EARTH_ROTATION_RATE * math.cos(incl)

    return PassGeometry(
        r_e=r_e, r=r, gamma_t0=gamma_measured, omega_s=omega_s,
        omega_e=EARTH_ROTATION_RATE, inclination=incl, omega_f=omega_f,
        fc_hz=fc_hz, t0=window.t0, subsat0=subsat0, ephemeris=ephem,
    )


def doppler_closed_form(t: datetime, geom: PassGeometry,
                        sat_ecef=None) -> float:
    """Closed-form Doppler at instant t, Hz: the along-track
    law-of-cosines range geometry around culmination.

    Positive while approaching (before culmination), zero at culmination,
    negative after.
    """
    dpsi = geom.psi_delta(t, sat_ecef)
    cos_g0 = math.cos(geom.gamma_t0)
    denom = SPEED_OF_LIGHT_KM_S * geom.slant_range_model(dpsi)
    num = (geom.fc_hz * geom.r_e * geom.r * math.sin(dpsi) * cos_g0
           * geom.omega_f)
    return -num / denom


def find_pass_every_step(tle, site_geodetic, theta_min=0.0, step_s=30.0,
                         search_hours=48.0, ephemeris=None) -> PassWindow:
    """Reference for ``passes.find_pass``: its search with every scan
    instant propagated, one after another, and no instant skipped."""
    ephem = ephemeris if ephemeris is not None else Ephemeris(tle)
    site_ecef = geodetic_to_ecef(*site_geodetic)

    def el(t: datetime) -> float:
        return elevation(site_ecef, ephem.ecef_at(t).position)

    def margin(t: datetime) -> float:
        return el(t) - theta_min

    t_epoch = tle.epoch
    n_steps = int(search_hours * 3600.0 / step_s)

    def scan_time(k: int) -> datetime:
        return t_epoch + timedelta(seconds=step_s * k)

    rise_idx = set_idx = None
    was_above = margin(scan_time(0)) > 0.0
    for k in range(1, n_steps + 1):
        is_above = margin(scan_time(k)) > 0.0
        if rise_idx is None:
            if is_above and not was_above:
                rise_idx = k - 1
        elif was_above and not is_above:
            set_idx = k - 1
            break
        was_above = is_above
    if rise_idx is None:
        raise NoPassFound(
            f"no pass above {math.degrees(theta_min):.1f} deg within "
            f"{search_hours:.0f} h of epoch")
    if set_idx is None:
        raise NoPassFound("pass does not set within the search horizon")

    t_start = _bisect_crossing(margin, scan_time(rise_idx),
                               scan_time(rise_idx + 1), rising=True)
    t_end = _bisect_crossing(margin, scan_time(set_idx),
                             scan_time(set_idx + 1), rising=False)
    t0 = _golden_max(el, t_start, t_end)

    sat0 = ephem.ecef_at(t0)
    theta_max = elevation(site_ecef, sat0.position)
    r = float(np.linalg.norm(sat0.position))
    r_e = float(np.linalg.norm(site_ecef))
    gamma_t0 = gamma_at_culmination(theta_max, r_e, r)

    omega_s = ephem.inertial_angular_rate(t0)
    incl = math.radians(tle.inclination_deg)
    omega_f = omega_s - EARTH_ROTATION_RATE * math.cos(incl)

    gamma_min = gamma_at_culmination(theta_min, r_e, r)
    ratio = math.cos(gamma_min) / math.cos(gamma_t0)
    if ratio >= 1.0:
        t_du_analytic = 0.0
    else:
        t_du_analytic = 2.0 / omega_f * math.acos(ratio) / 60.0

    return PassWindow(
        t_start=t_start, t_end=t_end, t0=t0,
        theta_max=theta_max, theta_min=theta_min, gamma_t0=gamma_t0,
        t_du_min=(t_end - t_start).total_seconds() / 60.0,
        t_du_analytic_min=t_du_analytic,
    )


# Largest IAU 1980 nutation terms: multiples of the Delaunay arguments
# (l, l', F, D, Om) and sin/cos coefficients in 1e-4 arcsec (constant and
# per-Julian-century parts).
NUTATION_TERMS = (
    ((0, 0, 0, 0, 1), -171996.0, -174.2, 92025.0, 8.9),
    ((0, 0, 2, -2, 2), -13187.0, -1.6, 5736.0, -3.1),
    ((0, 0, 2, 0, 2), -2274.0, -0.2, 977.0, -0.5),
    ((0, 0, 0, 0, 2), 2062.0, 0.2, -895.0, 0.5),
)


def _delaunay_arguments(ttt: float) -> tuple[float, ...]:
    """Fundamental lunisolar arguments (IAU 1980), radians."""
    def wrap_deg(x):
        return math.fmod(x, 360.0) * DEG2RAD

    l = wrap_deg(134.96298139 + (1325.0 * 360.0 + 198.8673981) * ttt
                 + 0.0086972 * ttt * ttt + 1.78e-5 * ttt ** 3)
    lp = wrap_deg(357.52772333 + (99.0 * 360.0 + 359.0503400) * ttt
                  - 0.0001603 * ttt * ttt - 3.3e-6 * ttt ** 3)
    f = wrap_deg(93.27191028 + (1342.0 * 360.0 + 82.0175381) * ttt
                 - 0.0036825 * ttt * ttt + 3.1e-6 * ttt ** 3)
    d = wrap_deg(297.85036306 + (1236.0 * 360.0 + 307.1114800) * ttt
                 - 0.0019142 * ttt * ttt + 5.3e-6 * ttt ** 3)
    om = wrap_deg(125.04452222 - (5.0 * 360.0 + 134.1362608) * ttt
                  + 0.0020708 * ttt * ttt + 2.2e-6 * ttt ** 3)
    return l, lp, f, d, om


def earth_orientation_reference(t: datetime) -> EarthOrientation:
    """``frames.earth_orientation`` as first written: every Delaunay
    argument, each with its own powers of ``ttt``, and the nutation
    series as generator sums over ``NUTATION_TERMS``."""
    ttt = julian_centuries_tt(t)

    zeta = (2306.2181 * ttt + 0.30188 * ttt * ttt
            + 0.017998 * ttt ** 3) * ARCSEC2RAD
    theta = (2004.3109 * ttt - 0.42665 * ttt * ttt
             - 0.041833 * ttt ** 3) * ARCSEC2RAD
    z = (2306.2181 * ttt + 1.09468 * ttt * ttt
         + 0.018203 * ttt ** 3) * ARCSEC2RAD

    eps_bar = (84381.448 - 46.8150 * ttt - 0.00059 * ttt * ttt
               + 0.001813 * ttt ** 3) * ARCSEC2RAD

    args = _delaunay_arguments(ttt)
    dpsi = 0.0
    deps = 0.0
    for mult, s_const, s_t, c_const, c_t in NUTATION_TERMS:
        ang = sum(m * a for m, a in zip(mult, args))
        dpsi += (s_const + s_t * ttt) * math.sin(ang)
        deps += (c_const + c_t * ttt) * math.cos(ang)
    dpsi *= 1e-4 * ARCSEC2RAD
    deps *= 1e-4 * ARCSEC2RAD

    return EarthOrientation(
        gmst=gmst_rad(t),
        precession_angles=(zeta, z, theta),
        nutation=(dpsi, deps),
        mean_obliquity=eps_bar,
    )


def equation_of_equinoxes(eo: EarthOrientation) -> float:
    dpsi, _ = eo.nutation
    return dpsi * math.cos(eo.mean_obliquity)


def gast(eo: EarthOrientation) -> float:
    """Greenwich apparent sidereal time, radians."""
    return eo.gmst + equation_of_equinoxes(eo)


def _rot1_reference(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def _rot2_reference(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot3_reference(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def precession_reference(eo: EarthOrientation) -> np.ndarray:
    """Mean-of-date -> J2000 rotation P."""
    zeta, z, theta = eo.precession_angles
    return rot3_reference(zeta) @ _rot2_reference(-theta) @ rot3_reference(z)


def nutation_reference(eo: EarthOrientation) -> np.ndarray:
    """True-of-date -> mean-of-date rotation N."""
    dpsi, deps = eo.nutation
    eps_bar = eo.mean_obliquity
    return (_rot1_reference(-eps_bar) @ rot3_reference(dpsi)
            @ _rot1_reference(eps_bar + deps))


def tod_to_j2000_reference(eo: EarthOrientation) -> np.ndarray:
    """P N, from nested-list rotations multiplied with ``@``."""
    return precession_reference(eo) @ nutation_reference(eo)


def teme_to_eci_reference(eo: EarthOrientation) -> np.ndarray:
    """The TEME -> J2000 matrix P N R3(-equation of the equinoxes)."""
    return (tod_to_j2000_reference(eo)
            @ rot3_reference(-equation_of_equinoxes(eo)))


def ecef_reference(ephem: Ephemeris,
                   t: datetime) -> tuple[StateVector, StateVector]:
    """The ECI and ECEF states of ``ephem`` at ``t``, by the forward chain
    as first written: the orientation of ``earth_orientation_reference``,
    nested-list rotations, ``@``, P N built in each half and omega x r
    from ``np.cross``."""
    eo = earth_orientation_reference(t)
    teme = ephem.teme_at(t)
    to_eci = teme_to_eci_reference(eo)
    eci = StateVector(Frame.ECI, teme.t, to_eci @ teme.position,
                      to_eci @ teme.velocity)
    to_tod = tod_to_j2000_reference(eo).T
    spin = rot3_reference(gast(eo))
    r_ecef = spin @ (to_tod @ eci.position)
    omega = np.array([0.0, 0.0, EARTH_ROTATION_RATE])
    v_ecef = spin @ (to_tod @ eci.velocity) - np.cross(omega, r_ecef)
    return eci, StateVector(Frame.ECEF, teme.t, r_ecef, v_ecef)


def eci_to_teme(state: StateVector, eo: EarthOrientation) -> StateVector:
    """Inverse of ``frames.teme_to_eci``."""
    state.require(Frame.ECI)
    m = eo.matrices[0].T
    return StateVector(Frame.TEME, state.t, m @ state.position,
                       m @ state.velocity)


def ecef_to_eci(state: StateVector, eo: EarthOrientation) -> StateVector:
    """Inverse of ``frames.eci_to_ecef``, the +omega x r term included."""
    state.require(Frame.ECEF)
    omega = np.array([0.0, 0.0, EARTH_ROTATION_RATE])
    v_inertial_pef = state.velocity + np.cross(omega, state.position)
    unspin = rot3_reference(-gast(eo))
    to_eci = tod_to_j2000_reference(eo)
    return StateVector(Frame.ECI, state.t,
                       to_eci @ (unspin @ state.position),
                       to_eci @ (unspin @ v_inertial_pef))


def local_point_to_global(frame: LocalFrame, r_local) -> np.ndarray:
    """Inverse of ``LocalFrame.to_local_point``."""
    return frame.rotation.T @ np.asarray(r_local, dtype=float) \
        + frame.origin_ecef


def local_to_global(state: StateVector, frame: LocalFrame) -> StateVector:
    """Inverse of ``frames.global_to_local``."""
    state.require(Frame.LOCAL)
    return StateVector(Frame.ECEF, state.t,
                       local_point_to_global(frame, state.position),
                       frame.rotation.T @ state.velocity)


def ecef_to_geodetic(r) -> tuple[float, float, float]:
    """Inverse of ``frames.geodetic_to_ecef``: (lat_deg, lon_deg,
    alt_km) by the iterated Bowring formula."""
    x, y, z = float(r[0]), float(r[1]), float(r[2])
    lon = math.atan2(y, x)
    p = math.hypot(x, y)
    if p < 1e-12:  # on the polar axis
        lat = math.copysign(math.pi / 2.0, z)
        alt = abs(z) - WGS84_A_KM * math.sqrt(1.0 - WGS84_E2)
        return lat / DEG2RAD, lon / DEG2RAD, alt
    b = WGS84_A_KM * (1.0 - WGS84_F)
    ep2 = (WGS84_A_KM ** 2 - b ** 2) / b ** 2
    beta = math.atan2(z * WGS84_A_KM, p * b)
    lat = 0.0
    for _ in range(8):
        lat_new = math.atan2(z + ep2 * b * math.sin(beta) ** 3,
                             p - WGS84_E2 * WGS84_A_KM * math.cos(beta) ** 3)
        beta_new = math.atan2((1.0 - WGS84_F) * math.sin(lat_new),
                              math.cos(lat_new))
        if abs(lat_new - lat) < 1e-14:
            lat = lat_new
            break
        lat, beta = lat_new, beta_new
    sin_lat = math.sin(lat)
    n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    if abs(lat) < math.pi / 4.0:
        alt = p / math.cos(lat) - n
    else:
        alt = z / sin_lat - n * (1.0 - WGS84_E2)
    return lat / DEG2RAD, lon / DEG2RAD, alt
