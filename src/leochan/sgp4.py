"""Near-Earth SGP4 analytic orbit propagation.

Implements the standard near-Earth branch of the SGP4 theory: Brouwer
mean-motion recovery, J2-J4 secular rates, atmospheric drag via the
B* power-density model, long- and short-period periodic corrections.
Deep-space (period > 225 min) element sets are rejected rather than
propagated, so no Sun/Moon resonance machinery is carried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import timedelta

from .frames import DEG2RAD
from .states import Frame, StateVector
from .tle import Tle

TWOPI = 2.0 * math.pi

# WGS-72 geopotential: the constant set SGP4 element sets are fitted with.
MU = 398600.8               # km^3/s^2
RE = 6378.135               # km
XKE = 60.0 / math.sqrt(RE ** 3 / MU)   # sqrt(mu) in canonical units (1/min)
J2 = 0.001082616
J3 = -0.00000253881
J4 = -0.00000165597
J3OJ2 = J3 / J2

DEEP_SPACE_PERIOD_MIN = 225.0
KEPLER_TOL = 1e-12
KEPLER_MAX_ITER = 15
KEPLER_STEP_CLAMP = 0.95


class PropagationError(RuntimeError):
    """Base class for propagation failures."""


class DeepSpaceUnsupported(PropagationError):
    pass


class DecayedOrbit(PropagationError):
    pass


class SatelliteDecayed(PropagationError):
    pass


class KeplerNonConvergence(PropagationError):
    pass


@dataclass(frozen=True)
class PropagatorState:
    """All precomputed SGP4 coefficients for one element set."""

    tle: Tle
    # recovered mean elements
    no_unkozai: float   # rad/min, Brouwer mean motion
    ecco: float
    inclo: float        # rad
    nodeo: float        # rad
    argpo: float        # rad
    mo: float           # rad
    bstar: float
    # geometry at epoch
    ao: float           # semi-major axis, earth radii
    con41: float
    x1mth2: float
    x7thm1: float
    cosio: float
    sinio: float
    eta: float
    # secular rates
    mdot: float
    argpdot: float
    nodedot: float
    nodecf: float
    # drag coefficients
    isimp: bool
    cc1: float
    cc4: float
    cc5: float
    d2: float
    d3: float
    d4: float
    t2cof: float
    t3cof: float
    t4cof: float
    t5cof: float
    omgcof: float
    xmcof: float
    delmo: float
    sinmao: float
    # long-period coefficients
    xlcof: float
    aycof: float


def sgp4_init(tle: Tle) -> PropagatorState:
    """Initialize the propagator from an element set.

    Raises :class:`DeepSpaceUnsupported` for periods above 225 minutes and
    :class:`DecayedOrbit` when the recovered perigee is below the surface.
    """
    ecco = tle.eccentricity
    inclo = tle.inclination_deg * DEG2RAD
    nodeo = tle.raan_deg * DEG2RAD
    argpo = tle.arg_perigee_deg * DEG2RAD
    mo = tle.mean_anomaly_deg * DEG2RAD
    no_kozai = tle.mean_motion_revs_per_day * TWOPI / 1440.0  # rad/min
    bstar = tle.bstar

    x2o3 = 2.0 / 3.0

    # Brouwer mean motion recovery (un-Kozai).
    eccsq = ecco * ecco
    omeosq = 1.0 - eccsq
    rteosq = math.sqrt(omeosq)
    cosio = math.cos(inclo)
    cosio2 = cosio * cosio
    ak = (XKE / no_kozai) ** x2o3
    d1 = 0.75 * J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
    del_ = d1 / (ak * ak)
    adel = ak * (1.0 - del_ * del_
                 - del_ * (1.0 / 3.0 + 134.0 * del_ * del_ / 81.0))
    del_ = d1 / (adel * adel)
    no_unkozai = no_kozai / (1.0 + del_)

    if TWOPI / no_unkozai >= DEEP_SPACE_PERIOD_MIN:
        raise DeepSpaceUnsupported(
            f"period {TWOPI / no_unkozai:.1f} min exceeds the near-Earth "
            f"regime ({DEEP_SPACE_PERIOD_MIN:.0f} min)")

    ao = (XKE / no_unkozai) ** x2o3
    sinio = math.sin(inclo)
    po = ao * omeosq
    con42 = 1.0 - 5.0 * cosio2
    con41 = -con42 - 2.0 * cosio2
    posq = po * po
    rp = ao * (1.0 - ecco)

    if rp <= 1.0:
        raise DecayedOrbit(
            f"perigee radius {rp * RE:.1f} km is at or below "
            f"the surface")

    # Density-function fitting altitudes (s4, q0 terms).
    ss = 78.0 / RE + 1.0
    qzms2ttemp = (120.0 - 78.0) / RE
    qzms2t = qzms2ttemp ** 4
    isimp = rp < 220.0 / RE + 1.0
    sfour = ss
    qzms24 = qzms2t
    perige = (rp - 1.0) * RE
    if perige < 156.0:
        sfour = perige - 78.0
        if perige < 98.0:
            sfour = 20.0
        qzms24 = ((120.0 - sfour) / RE) ** 4
        sfour = sfour / RE + 1.0

    pinvsq = 1.0 / posq
    tsi = 1.0 / (ao - sfour)
    eta = ao * ecco * tsi
    etasq = eta * eta
    eeta = ecco * eta
    psisq = abs(1.0 - etasq)
    coef = qzms24 * tsi ** 4
    coef1 = coef / psisq ** 3.5
    cc2 = coef1 * no_unkozai * (
        ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
        + 0.375 * J2 * tsi / psisq * con41
        * (8.0 + 3.0 * etasq * (8.0 + etasq)))
    cc1 = bstar * cc2
    cc3 = 0.0
    if ecco > 1.0e-4:
        cc3 = -2.0 * coef * tsi * J3OJ2 * no_unkozai * sinio / ecco
    x1mth2 = 1.0 - cosio2
    cc4 = 2.0 * no_unkozai * coef1 * ao * omeosq * (
        eta * (2.0 + 0.5 * etasq) + ecco * (0.5 + 2.0 * etasq)
        - J2 * tsi / (ao * psisq)
        * (-3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
           + 0.75 * x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq))
           * math.cos(2.0 * argpo)))
    cc5 = 2.0 * coef1 * ao * omeosq * (
        1.0 + 2.75 * (etasq + eeta) + eeta * etasq)

    cosio4 = cosio2 * cosio2
    temp1 = 1.5 * J2 * pinvsq * no_unkozai
    temp2 = 0.5 * temp1 * J2 * pinvsq
    temp3 = -0.46875 * J4 * pinvsq * pinvsq * no_unkozai
    mdot = (no_unkozai + 0.5 * temp1 * rteosq * con41
            + 0.0625 * temp2 * rteosq
            * (13.0 - 78.0 * cosio2 + 137.0 * cosio4))
    argpdot = (-0.5 * temp1 * con42
               + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
               + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4))
    xhdot1 = -temp1 * cosio
    nodedot = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2)
                        + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio

    omgcof = bstar * cc3 * math.cos(argpo)
    xmcof = 0.0
    if ecco > 1.0e-4:
        xmcof = -x2o3 * coef * bstar / eeta
    nodecf = 3.5 * omeosq * xhdot1 * cc1
    t2cof = 1.5 * cc1

    # Long-period coefficients; guarded against inclination near 180 deg.
    if abs(cosio + 1.0) > 1.5e-12:
        xlcof = -0.25 * J3OJ2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
    else:
        xlcof = -0.25 * J3OJ2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
    aycof = -0.5 * J3OJ2 * sinio

    delmo = (1.0 + eta * math.cos(mo)) ** 3
    sinmao = math.sin(mo)
    x7thm1 = 7.0 * cosio2 - 1.0

    d2 = d3 = d4 = t3cof = t4cof = t5cof = 0.0
    if not isimp:
        cc1sq = cc1 * cc1
        d2 = 4.0 * ao * tsi * cc1sq
        temp = d2 * tsi * cc1 / 3.0
        d3 = (17.0 * ao + sfour) * temp
        d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * cc1
        t3cof = d2 + 2.0 * cc1sq
        t4cof = 0.25 * (3.0 * d3 + cc1 * (12.0 * d2 + 10.0 * cc1sq))
        t5cof = 0.2 * (3.0 * d4 + 12.0 * cc1 * d3 + 6.0 * d2 * d2
                       + 15.0 * cc1sq * (2.0 * d2 + cc1sq))

    return PropagatorState(
        tle=tle,
        no_unkozai=no_unkozai, ecco=ecco, inclo=inclo, nodeo=nodeo,
        argpo=argpo, mo=mo, bstar=bstar,
        ao=ao, con41=con41, x1mth2=x1mth2, x7thm1=x7thm1,
        cosio=cosio, sinio=sinio, eta=eta,
        mdot=mdot, argpdot=argpdot, nodedot=nodedot, nodecf=nodecf,
        isimp=isimp, cc1=cc1, cc4=cc4, cc5=cc5, d2=d2, d3=d3, d4=d4,
        t2cof=t2cof, t3cof=t3cof, t4cof=t4cof, t5cof=t5cof,
        omgcof=omgcof, xmcof=xmcof, delmo=delmo, sinmao=sinmao,
        xlcof=xlcof, aycof=aycof,
    )


def _solve_kepler(u: float, axnl: float, aynl: float) -> tuple[float, float, float]:
    """Damped Newton iteration for the generalized Kepler equation.

    Returns (eccentric longitude, sin, cos).  Steps are clamped to
    +-0.95 rad so high-eccentricity cases cannot overshoot.
    """
    eo1 = u
    for _ in range(KEPLER_MAX_ITER):
        sineo1 = math.sin(eo1)
        coseo1 = math.cos(eo1)
        denom = 1.0 - coseo1 * axnl - sineo1 * aynl
        delta = (u - aynl * coseo1 + axnl * sineo1 - eo1) / denom
        if abs(delta) >= KEPLER_STEP_CLAMP:
            delta = math.copysign(KEPLER_STEP_CLAMP, delta)
        eo1 += delta
        if abs(delta) < KEPLER_TOL:
            return eo1, math.sin(eo1), math.cos(eo1)
    raise KeplerNonConvergence(
        f"Kepler iteration did not reach {KEPLER_TOL} in "
        f"{KEPLER_MAX_ITER} steps")


def sgp4_propagate(state: PropagatorState, tsince_min: float) -> StateVector:
    """Propagate to ``tsince_min`` minutes after epoch; TEME km, km/s."""
    s = state
    vkmpersec = RE * XKE / 60.0
    x2o3 = 2.0 / 3.0
    t = tsince_min

    # Secular gravity and atmospheric drag.
    xmdf = s.mo + s.mdot * t
    argpdf = s.argpo + s.argpdot * t
    nodedf = s.nodeo + s.nodedot * t
    argpm = argpdf
    mm = xmdf
    t2 = t * t
    nodem = nodedf + s.nodecf * t2
    tempa = 1.0 - s.cc1 * t
    tempe = s.bstar * s.cc4 * t
    templ = s.t2cof * t2

    if not s.isimp:
        delomg = s.omgcof * t
        delmtemp = 1.0 + s.eta * math.cos(xmdf)
        delm = s.xmcof * (delmtemp ** 3 - s.delmo)
        temp = delomg + delm
        mm = xmdf + temp
        argpm = argpdf - temp
        t3 = t2 * t
        t4 = t3 * t
        tempa = tempa - s.d2 * t2 - s.d3 * t3 - s.d4 * t4
        tempe = tempe + s.bstar * s.cc5 * (math.sin(mm) - s.sinmao)
        templ = templ + s.t3cof * t3 + t4 * (s.t4cof + t * s.t5cof)

    nm = s.no_unkozai
    em = s.ecco
    inclm = s.inclo

    am = (XKE / nm) ** x2o3 * tempa * tempa
    nm = XKE / am ** 1.5
    em -= tempe

    if em >= 1.0 or em < -0.001:
        raise SatelliteDecayed(
            f"mean eccentricity {em:.6f} out of range at t={t:.1f} min")
    if em < 1.0e-6:
        em = 1.0e-6

    mm += s.no_unkozai * templ
    xlm = mm + argpm + nodem
    nodem = math.fmod(nodem, TWOPI)
    argpm = math.fmod(argpm, TWOPI)
    xlm = math.fmod(xlm, TWOPI)
    mm = math.fmod(xlm - argpm - nodem, TWOPI)

    # No deep-space periodics: mean elements are the osculating inputs.
    ep = em
    xincp = inclm
    argpp = argpm
    nodep = nodem
    mp = mm
    sinip = s.sinio
    cosip = s.cosio

    # Long-period periodics.
    axnl = ep * math.cos(argpp)
    temp = 1.0 / (am * (1.0 - ep * ep))
    aynl = ep * math.sin(argpp) + temp * s.aycof
    xl = mp + argpp + nodep + temp * s.xlcof * axnl

    u = math.fmod(xl - nodep, TWOPI)
    eo1, sineo1, coseo1 = _solve_kepler(u, axnl, aynl)

    # Short-period preliminary quantities.
    ecose = axnl * coseo1 + aynl * sineo1
    esine = axnl * sineo1 - aynl * coseo1
    el2 = axnl * axnl + aynl * aynl
    pl = am * (1.0 - el2)
    if pl < 0.0:
        raise SatelliteDecayed(f"semilatus rectum negative at t={t:.1f} min")

    rl = am * (1.0 - ecose)
    rdotl = math.sqrt(am) * esine / rl
    rvdotl = math.sqrt(pl) / rl
    betal = math.sqrt(1.0 - el2)
    temp = esine / (1.0 + betal)
    sinu = am / rl * (sineo1 - aynl - axnl * temp)
    cosu = am / rl * (coseo1 - axnl + aynl * temp)
    su = math.atan2(sinu, cosu)
    sin2u = (cosu + cosu) * sinu
    cos2u = 1.0 - 2.0 * sinu * sinu
    temp = 1.0 / pl
    temp1 = 0.5 * J2 * temp
    temp2 = temp1 * temp

    mrt = (rl * (1.0 - 1.5 * temp2 * betal * s.con41)
           + 0.5 * temp1 * s.x1mth2 * cos2u)
    su -= 0.25 * temp2 * s.x7thm1 * sin2u
    xnode = nodep + 1.5 * temp2 * cosip * sin2u
    xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u
    mvt = rdotl - nm * temp1 * s.x1mth2 * sin2u / XKE
    rvdot = rvdotl + nm * temp1 * (s.x1mth2 * cos2u + 1.5 * s.con41) / XKE

    # Orientation vectors and final state.
    sinsu = math.sin(su)
    cossu = math.cos(su)
    snod = math.sin(xnode)
    cnod = math.cos(xnode)
    sini = math.sin(xinc)
    cosi = math.cos(xinc)
    xmx = -snod * cosi
    xmy = cnod * cosi
    ux = xmx * sinsu + cnod * cossu
    uy = xmy * sinsu + snod * cossu
    uz = sini * sinsu
    vx = xmx * cossu - cnod * sinsu
    vy = xmy * cossu - snod * sinsu
    vz = sini * cossu

    if mrt < 1.0:
        raise SatelliteDecayed(
            f"orbit radius {mrt * RE:.1f} km is below the "
            f"surface at t={t:.1f} min")

    r = (mrt * ux * RE,
         mrt * uy * RE,
         mrt * uz * RE)
    v = ((mvt * ux + rvdot * vx) * vkmpersec,
         (mvt * uy + rvdot * vy) * vkmpersec,
         (mvt * uz + rvdot * vz) * vkmpersec)

    return StateVector(
        frame=Frame.TEME,
        t=s.tle.epoch + timedelta(microseconds=round(tsince_min * 60e6)),
        position=r,
        velocity=v,
    )
