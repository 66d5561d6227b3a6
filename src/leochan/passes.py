"""Visibility passes, elevation geometry and per-path Doppler.

Everything here works in the rotating Earth-fixed frame with geocentric
angles: the site zenith is the site position direction, which keeps
Earth rotation implicit in the sub-satellite track.  Each traced path's
Doppler comes from the satellite velocity projected on its departure
direction.  The closed-form along-track Doppler law, which C01-C03 check
against the propagated range rate, is a test oracle in
``tests/oracle.py``.

The pass search scans elevation at fixed steps but propagates only the
steps it cannot rule on.  ``_scan_bound`` certifies, from the element
set's secular drag model, the orbit radius range and the fastest turn of
the satellite direction over the whole search horizon.  From the central
angle at one step, the search then jumps over every step at which the
satellite provably stays on the same side of the threshold.  Far below
the horizon that is tens of steps at a time, and the windows are those
of a scan of every step; ``tests/oracle.py`` keeps that scan as the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from . import frames
from .frames import EARTH_ROTATION_RATE, earth_orientation, geodetic_to_ecef
from .link import SPEED_OF_LIGHT_KM_S
from .sgp4 import J2, RE, XKE, PropagatorState, sgp4_init, sgp4_propagate
from .states import StateVector
from .tle import Tle
from .timebase import minutes_between


# Half-step of the central difference in Ephemeris.inertial_angular_rate,
# and the widths, in seconds, to which the pass search narrows a threshold
# crossing and the culmination.
_RATE_HALF_STEP_S = 0.5
_CROSSING_TOL_S = 0.1
_CULMINATION_TOL_S = 0.01

# The pass search's scan step, seconds: find_pass's default and that of
# ``leochan pass --step``.
SCAN_STEP_S = 30.0


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

    def inertial_angular_rate(self, t: datetime) -> float:
        """Instantaneous angular speed of the position vector in ECI,
        rad/s, by central difference of the direction angle.

        Measured from positions rather than |r x v| / r^2 because the
        analytic theory's velocity is consistent with its position
        derivative only to ~1e-4 km/s, which matters for Hz-level
        Doppler closure.
        """
        h_s = _RATE_HALF_STEP_S
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
    return _elevation(site, site / np.linalg.norm(site), sat_ecef)


def _elevation(site: np.ndarray, zenith: np.ndarray, sat_ecef) -> float:
    """``elevation`` with the site's unit zenith ``site / |site|`` given,
    for callers that ask about one site many times.  ``sqrt(v.dot(v))``
    is how ``np.linalg.norm`` computes a vector's norm, so the bits are
    those of ``elevation``."""
    slant = np.asarray(sat_ecef, dtype=float) - site
    sin_el = float(slant.dot(zenith)) / math.sqrt(slant.dot(slant))
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
                     rising: bool) -> datetime:
    """Refine a threshold crossing bracketed by (t_lo, t_hi)."""
    while (t_hi - t_lo).total_seconds() > _CROSSING_TOL_S:
        mid = t_lo + (t_hi - t_lo) / 2
        above = f(mid) > 0.0
        if above == rising:
            t_hi = mid
        else:
            t_lo = mid
    return t_lo + (t_hi - t_lo) / 2


def _golden_max(f, t_lo: datetime, t_hi: datetime) -> datetime:
    """Golden-section maximization of f over [t_lo, t_hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_lo, t_hi
    h = (b - a).total_seconds()
    c = a + timedelta(seconds=(1.0 - invphi) * h)
    d = a + timedelta(seconds=invphi * h)
    fc, fd = f(c), f(d)
    while (b - a).total_seconds() > _CULMINATION_TOL_S:
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


# Relative margin on the certified turn rate of the satellite direction,
# for the SGP4 terms the Keplerian rate leaves out (see _scan_bound).
_RATE_MARGIN = 0.05
# Certification refuses Kepler eccentricities above this.
_MAX_KEPLER_ECC = 0.5
# Pad for rounding: relative on the certified radii, absolute on the
# certified eccentricity.
_PAD = 1e-9


def _scan_bound(state: PropagatorState,
                horizon_min: float) -> tuple[float, float, float] | None:
    """Radius and turn-rate bounds of one element set over a horizon.

    Returns ``(r_min, r_max, omega)`` in km, km and rad/s such that for
    every ``|tsince| <= horizon_min`` minutes ``sgp4_propagate`` raises
    nothing, the orbit radius lies in ``[r_min, r_max]``, and the
    direction of the satellite from the Earth's centre turns in the
    Earth-fixed frame no faster than ``omega``.  Returns ``None`` when
    the bounds cannot be certified.

    Derivation, in SGP4's units (earth radii, minutes), for ``|t| <= T``:

    - Drag.  The semi-major axis is ``am = ao tempa^2`` with ``tempa =
      1 - cc1 t - d2 t^2 - d3 t^3 - d4 t^4``, so ``|tempa - 1| <= P =
      |cc1| T + |d2| T^2 + |d3| T^3 + |d4| T^4`` and, for ``P < 1``,
      ``am`` lies in ``[ao (1-P)^2, ao (1+P)^2]``.  The mean
      eccentricity is ``em = ecco - tempe`` with ``|tempe| <= |bstar cc4|
      T + 2 |bstar cc5|``.  While ``em`` stays in ``[-0.001, 1)`` the
      eccentricity check passes; below 1e-6 it is clamped to 1e-6.
    - Long-period terms add ``aycof / (am (1 - em^2))`` to ``aynl``, so
      the Kepler eccentricity ``sqrt(axnl^2 + aynl^2)`` is at most ``E =
      em_max + |aycof| / (am_min (1 - em_max^2))``.  Certified only for
      ``E <= 1/2``.  Then the semilatus rectum ``pl = am (1 - E^2)`` is
      positive, and Newton's iteration from the mean longitude converges
      well inside its 15 steps (in 5 at most, swept over e <= 1/2 by
      0.01, the perigee by 5 deg and the start by 0.5 deg).
    - Short-period terms give ``mrt = rl (1 - 1.5 temp2 betal con41) +
      0.5 temp1 x1mth2 cos 2u``, where ``rl = am (1 - ecose)`` lies in
      ``[am (1-E), am (1+E)]``, ``temp1 = J2 / (2 pl)`` and ``temp2 =
      temp1 / pl``; both are largest at ``pl_min = am_min (1 - E^2)``.
      That gives ``r_min`` and ``r_max`` below.  Certified only for
      ``r_min > 1``: the radius check never fires.
    - Rate.  On a Keplerian ellipse with semi-major axis at most ``a``
      and perigee at least ``r``, the direction turns fastest at
      perigee, where all the speed is transverse; vis-viva bounds that
      rate by ``XKE sqrt(2/r - 1/a) / r`` per minute.  Take ``r = r_min``
      and ``a = am_max``.  The Earth-fixed frame turns against TEME at
      ``EARTH_ROTATION_RATE``, plus precession and nutation rates below
      1e-11 rad/s.  SGP4's secular rates (``mdot - n``, ``argpdot``,
      ``nodedot``) and its short-period ``su``, ``xnode`` and ``xinc``
      terms each move the direction by O(J2 / p^2) of the mean motion,
      under 1% together.  ``omega`` is the sum of the two rates, plus
      ``_RATE_MARGIN`` (5%).  Sampled every 0.5 s, the fastest turn
      found came within 1.1e-5 above the sum without the margin
      (a circular retrograde equatorial orbit at 200 km).
    """
    s = state
    t = horizon_min
    p = t * (abs(s.cc1) + t * (abs(s.d2) + t * (abs(s.d3) + t * abs(s.d4))))
    de = abs(s.bstar * s.cc4) * t + 2.0 * abs(s.bstar * s.cc5) + _PAD
    em_max = max(s.ecco + de, 1.0e-6)
    if not (p < 1.0 and s.ecco - de >= -0.001
            and em_max < _MAX_KEPLER_ECC):
        return None
    am_min = s.ao * (1.0 - p) ** 2
    am_max = s.ao * (1.0 + p) ** 2
    e = em_max + abs(s.aycof) / (am_min * (1.0 - em_max * em_max))
    if not e <= _MAX_KEPLER_ECC:
        return None
    pl_min = am_min * (1.0 - e * e)
    temp1 = 0.5 * J2 / pl_min
    short = 1.5 * temp1 / pl_min * abs(s.con41)
    r_min = ((am_min * (1.0 - e) * (1.0 - short)
              - 0.5 * temp1 * s.x1mth2) * (1.0 - _PAD))
    r_max = ((am_max * (1.0 + e) * (1.0 + short)
              + 0.5 * temp1 * s.x1mth2) * (1.0 + _PAD))
    if not r_min > 1.0:
        return None
    rate = XKE * math.sqrt(2.0 / r_min - 1.0 / am_max) / r_min / 60.0
    omega = (1.0 + _RATE_MARGIN) * (rate + EARTH_ROTATION_RATE)
    return r_min * RE, r_max * RE, omega


def find_pass(tle: Tle, site_geodetic: tuple[float, float, float],
              theta_min: float, step_s: float = SCAN_STEP_S,
              search_hours: float = 48.0,
              ephemeris: Ephemeris | None = None) -> PassWindow:
    """Locate the first pass above ``theta_min`` after the element epoch.

    Numeric elevation scan at ``step_s`` resolution, crossings refined by
    bisection to 0.1 s, culmination by golden-section search; the
    closed-form window-duration estimate is evaluated alongside for
    comparison.  A pass already in progress at the epoch is skipped so
    the window is always a complete rise-culminate-set arc.  The scan
    stops at the first complete window: no instant after its set is
    propagated.

    The scan propagates only the instants whose side of ``theta_min``
    it cannot prove.  The satellite is above ``theta_min`` exactly when
    its central angle to the site, gamma = pi/2 - el - asin((r_site / r)
    cos el), is below ``G(r) = gamma_at_culmination(theta_min, r_site,
    r)``, which grows with the orbit radius r.  ``_scan_bound``
    certifies ``r_min <= r <= r_max`` and a turn rate ``omega`` for the
    whole horizon.  From an instant below the threshold, gamma needs at
    least ``(gamma - G(r_max)) / omega`` to come down to any G(r); from
    one above, ``(G(r_min) - gamma) / omega`` to reach it.  So every
    scan instant strictly inside that time is on the same side, and the
    scan goes straight to the first instant past it.  The rise and set
    indices, the bisection and golden-section points, and so the window,
    are those of a scan of every instant.  Where nothing can be
    certified (an eccentricity or perigee that could leave SGP4's range
    within the horizon, a ``theta_min`` outside [0, pi/2]), the scan
    takes every instant, so a propagation error is raised at the same
    instant as by such a scan.
    """
    ephem = ephemeris if ephemeris is not None else Ephemeris(tle)
    site_ecef = geodetic_to_ecef(*site_geodetic)
    r_e = float(np.linalg.norm(site_ecef))
    zenith = site_ecef / r_e

    def el(t: datetime) -> float:
        return _elevation(site_ecef, zenith, ephem.ecef_at(t).position)

    def margin(t: datetime) -> float:
        return el(t) - theta_min

    t_epoch = tle.epoch
    n_steps = int(search_hours * 3600.0 / step_s)

    def scan_time(k: int) -> datetime:
        return t_epoch + timedelta(seconds=step_s * k)

    bound = None
    if n_steps > 0 and 0.0 <= theta_min <= math.pi / 2.0:
        # scan instants are rounded to the microsecond
        horizon_min = (abs(minutes_between(ephem.tle.epoch, t_epoch))
                       + (n_steps * abs(step_s) + 1e-6) / 60.0)
        bound = _scan_bound(ephem.state, horizon_min)
    if bound is not None and bound[0] > r_e:
        r_min, r_max, omega = bound
        g_near = gamma_at_culmination(theta_min, r_e, r_min)
        g_far = gamma_at_culmination(theta_min, r_e, r_max)
        turn_per_step = omega * abs(step_s)
    else:
        turn_per_step = None

    def probe(k: int) -> tuple[bool, int]:
        """Whether scan instant k is above ``theta_min``, and the number
        of instants to the next one whose side is not proved."""
        pos = ephem.ecef_at(scan_time(k)).position
        el_k = _elevation(site_ecef, zenith, pos)
        above = el_k - theta_min > 0.0
        if turn_per_step is None:
            return above, 1
        r = math.sqrt(pos.dot(pos))
        gamma = (math.pi / 2.0 - el_k
                 - math.asin(min(1.0, r_e / r * math.cos(el_k))))
        clear = g_near - gamma if above else gamma - g_far
        return above, max(1, int(clear / turn_per_step))

    rise_idx = set_idx = None
    k = 0
    was_above, jump = probe(k)
    while k + jump <= n_steps:
        k += jump
        is_above, jump = probe(k)
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
    theta_max = _elevation(site_ecef, zenith, sat0.position)
    r = math.sqrt(sat0.position.dot(sat0.position))
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
