"""Visibility passes, elevation geometry and per-path Doppler.

Everything here works in the rotating Earth-fixed frame with geocentric
angles: the site zenith is the site position direction, which keeps
Earth rotation implicit in the sub-satellite track.  Each traced path's
Doppler comes from the satellite velocity projected on its departure
direction.  The closed-form along-track Doppler law, which C01-C03 check
against the propagated range rate, is a test oracle in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from . import frames
from .frames import EARTH_ROTATION_RATE, earth_orientation, geodetic_to_ecef
from .link import SPEED_OF_LIGHT_KM_S
from .sgp4 import PropagatorState, sgp4_init, sgp4_propagate
from .states import StateVector
from .tle import Tle
from .timebase import minutes_between


class NoPassFound(RuntimeError):
    pass


class DomainError(ValueError):
    pass


class Ephemeris:
    """One satellite's propagated states by UTC instant, through the full
    TEME -> ECI -> ECEF chain.  Pure and safe to share."""

    def __init__(self, tle: Tle):
        self.tle = tle
        self.state: PropagatorState = sgp4_init(tle)

    def teme_at(self, t: datetime) -> StateVector:
        return sgp4_propagate(self.state, minutes_between(self.tle.epoch, t))

    def eci_at(self, t: datetime) -> StateVector:
        return frames.teme_to_eci(self.teme_at(t), earth_orientation(t))

    def ecef_at(self, t: datetime) -> StateVector:
        eo = earth_orientation(t)
        return frames.eci_to_ecef(frames.teme_to_eci(self.teme_at(t), eo), eo)

    def inertial_angular_rate(self, t: datetime, h_s: float = 0.5) -> float:
        """Instantaneous angular speed of the position vector in ECI,
        rad/s, by central difference of the direction angle.

        Measured from positions rather than |r x v| / r^2 because the
        analytic theory's velocity is consistent with its position
        derivative only to ~1e-4 km/s, which matters for Hz-level
        Doppler closure.
        """
        ra = self.eci_at(t - timedelta(seconds=h_s)).position
        rb = self.eci_at(t + timedelta(seconds=h_s)).position
        cosang = float(ra @ rb) / float(np.linalg.norm(ra)
                                        * np.linalg.norm(rb))
        return math.acos(max(-1.0, min(1.0, cosang))) / (2.0 * h_s)


def elevation(site_ecef, sat_ecef) -> float:
    """Elevation of the satellite over the site's geocentric horizon.

    Vector form: angle of the slant vector above the plane normal to the
    site position.
    """
    site = np.asarray(site_ecef, dtype=float)
    sat = np.asarray(sat_ecef, dtype=float)
    slant = sat - site
    zenith = site / np.linalg.norm(site)
    sin_el = float(slant @ zenith) / float(np.linalg.norm(slant))
    return math.asin(max(-1.0, min(1.0, sin_el)))


def gamma_at_culmination(theta_max: float, r_e: float, r: float) -> float:
    """Central angle between site and culmination sub-satellite point:
    acos((r_e / r) cos theta_max) - theta_max."""
    if r <= r_e:
        raise DomainError("satellite radius must exceed the site radius")
    if not 0.0 <= theta_max <= math.pi / 2.0:
        raise DomainError("culmination elevation must be in [0, pi/2]")
    return math.acos((r_e / r) * math.cos(theta_max)) - theta_max


@dataclass(frozen=True)
class PassWindow:
    """One visibility window above an elevation threshold."""

    t_start: datetime
    t_end: datetime
    t0: datetime            # culmination instant
    theta_max: float        # rad
    theta_min: float        # rad, visibility threshold used for the scan
    gamma_t0: float         # rad, central angle at culmination
    t_du_min: float         # scanned window duration, minutes
    t_du_analytic_min: float  # closed-form duration estimate, minutes


def per_path_doppler(path, sat_vel_local, fc_hz: float) -> float:
    """Doppler of one traced path from the satellite velocity projection.

    The scene is static, so the path-length rate is the rate of the
    satellite-to-anchor segment alone; the anchor is the first
    interaction point (the receiver for the direct path).
    """
    v = np.asarray(sat_vel_local, dtype=float)
    return fc_hz / SPEED_OF_LIGHT_KM_S * float(v @ path.aod)


def _bisect_crossing(f, t_lo: datetime, t_hi: datetime,
                     rising: bool, tol_s: float = 0.1) -> datetime:
    """Refine a threshold crossing bracketed by (t_lo, t_hi)."""
    while (t_hi - t_lo).total_seconds() > tol_s:
        mid = t_lo + (t_hi - t_lo) / 2
        above = f(mid) > 0.0
        if above == rising:
            t_hi = mid
        else:
            t_lo = mid
    return t_lo + (t_hi - t_lo) / 2


def _golden_max(f, t_lo: datetime, t_hi: datetime,
                tol_s: float = 0.01) -> datetime:
    """Golden-section maximization of f over [t_lo, t_hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_lo, t_hi
    h = (b - a).total_seconds()
    c = a + timedelta(seconds=(1.0 - invphi) * h)
    d = a + timedelta(seconds=invphi * h)
    fc, fd = f(c), f(d)
    while (b - a).total_seconds() > tol_s:
        if fc > fd:
            b, d, fd = d, c, fc
            h = (b - a).total_seconds()
            c = a + timedelta(seconds=(1.0 - invphi) * h)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = (b - a).total_seconds()
            d = a + timedelta(seconds=invphi * h)
            fd = f(d)
    return a + (b - a) / 2


def find_pass(tle: Tle, site_geodetic: tuple[float, float, float],
              theta_min: float = 0.0, step_s: float = 30.0,
              search_hours: float = 48.0,
              ephemeris: Ephemeris | None = None) -> PassWindow:
    """Locate the first pass above ``theta_min`` after the element epoch.

    Numeric elevation scan at ``step_s`` resolution, crossings refined by
    bisection to 0.1 s, culmination by golden-section search; the
    closed-form window-duration estimate is evaluated alongside for
    comparison.  A pass already in progress at the epoch is skipped so
    the window is always a complete rise-culminate-set arc.  The scan
    stops at the first complete window: no instant after its set is
    propagated, and only a search that finds no complete window scans
    all of ``search_hours``.
    """
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
