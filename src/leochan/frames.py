"""Reference-frame transforms: TEME -> ECI(J2000) -> ECEF -> LOCAL.

The celestial side uses the classic equinox-based chain: equation-of-
equinoxes rotation (TEME to true-of-date), IAU 1980 nutation truncated to
its four largest terms (error below 0.003 deg in longitude, well under
scene scale), and the precession polynomials to J2000.  The Earth-fixed
side rotates by apparent sidereal time; polar motion is ignored (< 15 m).
Both sides use the precession-nutation product P N, which
``EarthOrientation.tod_to_j2000`` computes once per instant and shares.

The LOCAL frame is the scene frame: two rotations (about z then y) map
the Earth-center-to-site direction onto +z, and a translation puts the
site at the origin, so local +z is the site zenith.

Only the forward chain, the one a run uses, lives here; its inverses are
test oracles in ``tests/oracle.py``, for the C12 round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property

import numpy as np

from .states import Frame, StateVector
from .timebase import gmst_rad, julian_centuries_tt

ARCSEC2RAD = math.pi / (180.0 * 3600.0)
DEG2RAD = math.pi / 180.0

EARTH_ROTATION_RATE = 7.2921150e-5  # rad/s

# WGS-84 ellipsoid for geodetic -> ECEF conversions.
WGS84_A_KM = 6378.137
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

# Largest IAU 1980 nutation terms: multiples of the Delaunay arguments
# (l, l', F, D, Om) and sin/cos coefficients in 1e-4 arcsec (constant and
# per-Julian-century parts).
NUTATION_TERMS = (
    ((0, 0, 0, 0, 1), -171996.0, -174.2, 92025.0, 8.9),
    ((0, 0, 2, -2, 2), -13187.0, -1.6, 5736.0, -3.1),
    ((0, 0, 2, 0, 2), -2274.0, -0.2, 977.0, -0.5),
    ((0, 0, 0, 0, 2), 2062.0, 0.2, -895.0, 0.5),
)


# Rotations are built from one flat 9-tuple and multiplied with
# ``ndarray.dot``.  ``@`` reaches the same BLAS routine on the same
# operands, so the bits agree, but at 3x3 its dispatch, like the parse
# of a nested list, costs more than the arithmetic.
def rot1(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array((1.0, 0.0, 0.0, 0.0, c, s, 0.0, -s, c)).reshape(3, 3)


def rot2(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array((c, 0.0, -s, 0.0, 1.0, 0.0, s, 0.0, c)).reshape(3, 3)


def rot3(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array((c, s, 0.0, -s, c, 0.0, 0.0, 0.0, 1.0)).reshape(3, 3)


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


@dataclass(frozen=True)
class EarthOrientation:
    """Orientation angles at one instant (all radians), and the
    precession-nutation product that both halves of the chain share,
    computed once per instant."""

    gmst: float
    precession_angles: tuple[float, float, float]  # (zeta, z, theta)
    nutation: tuple[float, float]                  # (dpsi, deps)
    mean_obliquity: float

    @property
    def equation_of_equinoxes(self) -> float:
        dpsi, _ = self.nutation
        return dpsi * math.cos(self.mean_obliquity)

    @property
    def gast(self) -> float:
        return self.gmst + self.equation_of_equinoxes

    @cached_property
    def tod_to_j2000(self) -> np.ndarray:
        """True-of-date -> J2000 rotation P N, read-only."""
        m = precession_matrix(self).dot(nutation_matrix(self))
        m.flags.writeable = False
        return m


def earth_orientation(t: datetime) -> EarthOrientation:
    """Compute Earth orientation angles for a UTC instant."""
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


def precession_matrix(eo: EarthOrientation) -> np.ndarray:
    """Mean-of-date -> J2000 rotation."""
    zeta, z, theta = eo.precession_angles
    return rot3(zeta).dot(rot2(-theta)).dot(rot3(z))


def nutation_matrix(eo: EarthOrientation) -> np.ndarray:
    """True-of-date -> mean-of-date rotation."""
    dpsi, deps = eo.nutation
    eps_bar = eo.mean_obliquity
    return rot1(-eps_bar).dot(rot3(dpsi)).dot(rot1(eps_bar + deps))


def teme_to_eci_matrix(eo: EarthOrientation) -> np.ndarray:
    return eo.tod_to_j2000.dot(rot3(-eo.equation_of_equinoxes))


def teme_to_eci(state: StateVector, eo: EarthOrientation) -> StateVector:
    """Rotate a TEME state onto the J2000 mean equator and equinox."""
    state.require(Frame.TEME)
    m = teme_to_eci_matrix(eo)
    return StateVector(Frame.ECI, state.t, m.dot(state.position),
                       m.dot(state.velocity))


def eci_to_ecef(state: StateVector, eo: EarthOrientation) -> StateVector:
    """J2000 -> Earth-fixed: precession, nutation, then apparent sidereal
    rotation; velocity picks up the -omega x r frame-rate term."""
    state.require(Frame.ECI)
    to_tod = eo.tod_to_j2000.T
    spin = rot3(eo.gast)
    r_ecef = spin.dot(to_tod.dot(state.position))
    # omega x r for omega = (0, 0, w), with the arithmetic of np.cross:
    # per component a multiply, then a subtract, the zero terms kept
    x, y, z = r_ecef.tolist()
    w = EARTH_ROTATION_RATE
    omega_x_r = np.array([0.0 * z - w * y, w * x - 0.0 * z,
                          0.0 * y - 0.0 * x])
    v_ecef = spin.dot(to_tod.dot(state.velocity)) - omega_x_r
    return StateVector(Frame.ECEF, state.t, r_ecef, v_ecef)


def geodetic_to_ecef(lat_deg: float, lon_deg: float, alt_km: float) -> np.ndarray:
    lat = lat_deg * DEG2RAD
    lon = lon_deg * DEG2RAD
    sin_lat = math.sin(lat)
    n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    return np.array([
        (n + alt_km) * math.cos(lat) * math.cos(lon),
        (n + alt_km) * math.cos(lat) * math.sin(lon),
        (n * (1.0 - WGS84_E2) + alt_km) * sin_lat,
    ])


@dataclass(frozen=True)
class LocalFrame:
    """Scene frame: a translation that puts the site at the local
    origin, then a rotation about z by the site's longitude angle gamma
    and about y by its colatitude angle beta (``build_local_frame``)."""

    origin_ecef: np.ndarray
    rotation: np.ndarray      # ECEF -> LOCAL direction cosine matrix

    def to_local_point(self, r_ecef: np.ndarray) -> np.ndarray:
        return self.rotation.dot(np.asarray(r_ecef, dtype=float)
                                 - self.origin_ecef)


def build_local_frame(site_geodetic: tuple[float, float, float]) -> LocalFrame:
    """Construct the scene frame for a site.

    ``site_geodetic`` is (lat_deg, lon_deg, alt_km); the site is the
    origin.  At the poles the first rotation angle is undefined and fixed
    to zero.  The latitude is in [-90, 90], as ``config.SimConfig``
    checks.
    """
    site = geodetic_to_ecef(*site_geodetic)
    ux, uy, uz = site
    rho = math.hypot(ux, uy)
    gamma = 0.0 if rho == 0.0 else math.atan2(uy, ux)
    beta = math.atan2(rho, uz)
    return LocalFrame(origin_ecef=site, rotation=rot2(beta).dot(rot3(gamma)))


def global_to_local(state: StateVector, frame: LocalFrame) -> StateVector:
    """ECEF -> LOCAL.  The scene is static in ECEF, so velocity is a pure
    rotation."""
    state.require(Frame.ECEF)
    return StateVector(Frame.LOCAL, state.t,
                       frame.to_local_point(state.position),
                       frame.rotation.dot(state.velocity))
