"""Reference-frame transforms: TEME -> ECI(J2000) -> ECEF -> LOCAL.

The celestial side uses the classic equinox-based chain: equation-of-
equinoxes rotation (TEME to true-of-date), IAU 1980 nutation truncated to
its four largest terms (error below 0.003 deg in longitude, well under
scene scale), and the precession polynomials to J2000.  The Earth-fixed
side rotates by apparent sidereal time; polar motion is ignored (< 15 m).
Both sides use the precession-nutation product P N.
``EarthOrientation.matrices`` builds the instant's eight elementary
rotations as one array, once, and from them P N, the TEME -> J2000
matrix and the Earth's spin, which both sides share.

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

# Rotations are built from flat tuples of cosines and sines and
# multiplied with ``ndarray.dot``.  ``@`` reaches the same BLAS routine
# on the same operands, so the bits agree, but at 3x3 its dispatch, like
# the parse of a nested list, costs more than the arithmetic.
def rot2(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array((c, 0.0, -s, 0.0, 1.0, 0.0, s, 0.0, c)).reshape(3, 3)


def rot3(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array((c, s, 0.0, -s, c, 0.0, 0.0, 0.0, 1.0)).reshape(3, 3)


@dataclass(frozen=True)
class EarthOrientation:
    """Orientation angles at one instant (all radians), and the rotations
    that both halves of the chain share, computed once per instant."""

    gmst: float
    precession_angles: tuple[float, float, float]  # (zeta, z, theta)
    nutation: tuple[float, float]                  # (dpsi, deps)
    mean_obliquity: float

    @cached_property
    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(TEME -> J2000, true-of-date -> J2000 P N, the Earth's spin
        R3(GAST)), read-only.

        One array holds the eight elementary rotations: P = R3(zeta)
        R2(-theta) R3(z), N = R1(-eps) R3(dpsi) R1(eps + deps), then
        R3(-eqeq) and R3(GAST), with eqeq = dpsi cos(eps) the equation
        of the equinoxes.  The products multiply the same operands in
        the same order as separately built matrices would, so the bits
        are theirs (``tests/oracle.py`` keeps that form)."""
        zeta, z, theta = self.precession_angles
        dpsi, deps = self.nutation
        eps = self.mean_obliquity
        eqeq = dpsi * math.cos(eps)
        cos, sin = math.cos, math.sin
        c0, s0 = cos(zeta), sin(zeta)
        c1, s1 = cos(-theta), sin(-theta)
        c2, s2 = cos(z), sin(z)
        c3, s3 = cos(-eps), sin(-eps)
        c4, s4 = cos(dpsi), sin(dpsi)
        c5, s5 = cos(eps + deps), sin(eps + deps)
        c6, s6 = cos(-eqeq), sin(-eqeq)
        c7, s7 = cos(self.gmst + eqeq), sin(self.gmst + eqeq)
        r = np.array((
            c0, s0, 0.0, -s0, c0, 0.0, 0.0, 0.0, 1.0,
            c1, 0.0, -s1, 0.0, 1.0, 0.0, s1, 0.0, c1,
            c2, s2, 0.0, -s2, c2, 0.0, 0.0, 0.0, 1.0,
            1.0, 0.0, 0.0, 0.0, c3, s3, 0.0, -s3, c3,
            c4, s4, 0.0, -s4, c4, 0.0, 0.0, 0.0, 1.0,
            1.0, 0.0, 0.0, 0.0, c5, s5, 0.0, -s5, c5,
            c6, s6, 0.0, -s6, c6, 0.0, 0.0, 0.0, 1.0,
            c7, s7, 0.0, -s7, c7, 0.0, 0.0, 0.0, 1.0,
        )).reshape(8, 3, 3)
        r.flags.writeable = False
        pn = r[0].dot(r[1]).dot(r[2]).dot(r[3].dot(r[4]).dot(r[5]))
        pn.flags.writeable = False
        to_eci = pn.dot(r[6])
        to_eci.flags.writeable = False
        return to_eci, pn, r[7]


def earth_orientation(t: datetime) -> EarthOrientation:
    """Compute Earth orientation angles for a UTC instant.

    Nutation keeps the four largest IAU 1980 terms (Seidelmann, "1980
    IAU Theory of Nutation", Celestial Mechanics 27, 1982), with
    coefficients in 1e-4 arcsec.  They take multiples of the Delaunay
    arguments F, D and Omega only, so l and l' are not computed.  Every
    sum runs in the order of the table's generator sums that
    ``tests/oracle.py`` keeps, and multiplies left to right as there
    (``c * ttt * ttt`` is ``(c * ttt) * ttt``), so the bits are theirs.
    """
    ttt = julian_centuries_tt(t)
    ttt3 = ttt ** 3

    zeta = (2306.2181 * ttt + 0.30188 * ttt * ttt
            + 0.017998 * ttt3) * ARCSEC2RAD
    theta = (2004.3109 * ttt - 0.42665 * ttt * ttt
             - 0.041833 * ttt3) * ARCSEC2RAD
    z = (2306.2181 * ttt + 1.09468 * ttt * ttt
         + 0.018203 * ttt3) * ARCSEC2RAD

    eps_bar = (84381.448 - 46.8150 * ttt - 0.00059 * ttt * ttt
               + 0.001813 * ttt3) * ARCSEC2RAD

    # Delaunay arguments, degrees wrapped to one turn, then radians
    fmod = math.fmod
    f = fmod(93.27191028 + (1342.0 * 360.0 + 82.0175381) * ttt
             - 0.0036825 * ttt * ttt + 3.1e-6 * ttt3, 360.0) * DEG2RAD
    d = fmod(297.85036306 + (1236.0 * 360.0 + 307.1114800) * ttt
             - 0.0019142 * ttt * ttt + 5.3e-6 * ttt3, 360.0) * DEG2RAD
    om = fmod(125.04452222 - (5.0 * 360.0 + 134.1362608) * ttt
              + 0.0020708 * ttt * ttt + 2.2e-6 * ttt3, 360.0) * DEG2RAD

    # arguments Om, 2F - 2D + 2Om, 2F + 2Om and 2Om
    a1 = om
    a2 = 2.0 * f - 2.0 * d + 2.0 * om
    a3 = 2.0 * f + 2.0 * om
    a4 = 2.0 * om
    sin, cos = math.sin, math.cos
    dpsi = ((-171996.0 - 174.2 * ttt) * sin(a1)
            + (-13187.0 - 1.6 * ttt) * sin(a2)
            + (-2274.0 - 0.2 * ttt) * sin(a3)
            + (2062.0 + 0.2 * ttt) * sin(a4)) * (1e-4 * ARCSEC2RAD)
    deps = ((92025.0 + 8.9 * ttt) * cos(a1)
            + (5736.0 - 3.1 * ttt) * cos(a2)
            + (977.0 - 0.5 * ttt) * cos(a3)
            + (-895.0 + 0.5 * ttt) * cos(a4)) * (1e-4 * ARCSEC2RAD)

    return EarthOrientation(
        gmst=gmst_rad(t),
        precession_angles=(zeta, z, theta),
        nutation=(dpsi, deps),
        mean_obliquity=eps_bar,
    )


def teme_to_eci(state: StateVector, eo: EarthOrientation) -> StateVector:
    """Rotate a TEME state onto the J2000 mean equator and equinox."""
    state.require(Frame.TEME)
    m = eo.matrices[0]
    return StateVector(Frame.ECI, state.t, m.dot(state.position),
                       m.dot(state.velocity))


def eci_to_ecef(state: StateVector, eo: EarthOrientation) -> StateVector:
    """J2000 -> Earth-fixed: precession, nutation, then apparent sidereal
    rotation; velocity picks up the -omega x r frame-rate term."""
    state.require(Frame.ECI)
    _, pn, spin = eo.matrices
    to_tod = pn.T
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
