"""Per-path link budget and snapshot channel statistics.

Large-scale loss is free-space path loss over the full satellite-to-
receiver distance plus a rain term with an elevation-dependent effective
path, both in the dB domain.  Reflected paths additionally pay the
Fresnel power reflection loss of each surface interaction.  Every
surface is concrete (``CONCRETE``), so the material is a constant of
this module and no scene or path record carries one.  Snapshot
aggregates are the linear-power sum and the power-weighted RMS delay
spread.

The budget reads its carrier, transmit power, rain and polarization from
the run's validated ``config.SimConfig``, under the config's own key
names, and checks none of them again.  Nor does it check what a run
cannot produce: every path length includes the positive satellite-to-
plane leg, a run scores paths only above the horizon and only when it
traced some, and an incidence angle lies in [0, pi/2].  This module
imports ``config`` only for type checking, as ``config`` takes
``POLARIZATIONS`` and ``RAIN_PATH_MODES`` from here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

import numpy as np

from .tracer import PathRecord

if TYPE_CHECKING:
    from .config import SimConfig

SPEED_OF_LIGHT_KM_S = 299792.458

# Effective rain-path constant as printed in the source model; the
# config key rain_path_mode selects the latitude-dependent alternate
# (rain_path_constant).
RAIN_PATH_CONSTANT = 0.232 - 0.00018

POLARIZATIONS = ("H", "V")
RAIN_PATH_MODES = ("verbatim", "latitude")


@dataclass(frozen=True)
class Material:
    name: str
    relative_permittivity: float
    conductivity: float  # S/m


# ITU-style building-material constants: the material of every face.
CONCRETE = Material("concrete", 5.31, 0.1395)


def rain_path_constant(mode: str, site_lat_deg: float) -> float:
    """The rain-path constant of ``mode``: the printed 0.23182 for
    "verbatim", 0.232 - 0.00018 |site latitude in degrees| for
    "latitude"."""
    if mode == "latitude":
        return 0.232 - 0.00018 * abs(site_lat_deg)
    return RAIN_PATH_CONSTANT


def fspl_db(distance_km: float, fc_mhz: float) -> float:
    """Free-space path loss: 32.4 + 20 log10 D(km) + 20 log10 fc(MHz)."""
    return 32.4 + 20.0 * math.log10(distance_km) + 20.0 * math.log10(fc_mhz)


def effective_rain_path_km(rain_rate_mm_h: float, elevation_rad: float,
                           path_constant: float) -> float:
    """Elevation-dependent effective distance through rain."""
    return 1.0 / (0.00741 * rain_rate_mm_h ** 0.776
                  + path_constant * math.sin(elevation_rad))


def rain_attenuation_db(rain_rate_mm_h: float, k: float, alpha: float,
                        elevation_rad: float, path_constant: float) -> float:
    """Rain attenuation k * R^alpha * L(R, elevation), dB."""
    path = effective_rain_path_km(rain_rate_mm_h, elevation_rad,
                                  path_constant)
    return k * rain_rate_mm_h ** alpha * path


def fresnel_power_reflectance(incidence_angle: float, fc_mhz: float,
                              polarization: str) -> float:
    """|Gamma|^2 at a ``CONCRETE`` surface.

    Incidence is measured from the surface normal.  The medium enters as
    the complex relative permittivity  eps_r - j 60 lambda sigma.
    """
    wavelength_m = SPEED_OF_LIGHT_KM_S * 1e3 / (fc_mhz * 1e6)
    eps = complex(CONCRETE.relative_permittivity,
                  -60.0 * wavelength_m * CONCRETE.conductivity)
    cos_i = math.cos(incidence_angle)
    sin2_i = math.sin(incidence_angle) ** 2
    root = cmath.sqrt(eps - sin2_i)
    if polarization == "V":
        gamma = (eps * cos_i - root) / (eps * cos_i + root)
    else:  # "H"
        gamma = (cos_i - root) / (cos_i + root)
    return abs(gamma) ** 2


def reflection_loss_db(incidence_angle: float, fc_mhz: float,
                       polarization: str) -> float:
    """Power lost at one specular reflection off ``CONCRETE``, dB
    (>= 0)."""
    reflectance = fresnel_power_reflectance(incidence_angle, fc_mhz,
                                            polarization)
    return -10.0 * math.log10(reflectance)


def path_power_dbm(path: PathRecord, config: SimConfig,
                   elevation_rad: float) -> float:
    """Received power of one traced path under ``config``'s link keys.

    Transmit power minus free-space loss over the total distance, minus
    rain attenuation, minus the Fresnel loss of every reflection off
    concrete.
    Antennas are isotropic (0 dBi).
    """
    total = path.total_distance
    power = config.pt_dbm - fspl_db(total, config.fc_mhz)
    if config.rain_rate_mm_h > 0.0:
        power -= rain_attenuation_db(
            config.rain_rate_mm_h, config.rain_k, config.rain_alpha,
            elevation_rad,
            rain_path_constant(config.rain_path_mode, config.site_lat_deg))
    for interaction in path.interactions:
        power -= reflection_loss_db(interaction.incidence_angle,
                                    config.fc_mhz, config.polarization)
    return power


def path_delay_us(path: PathRecord) -> float:
    return path.total_distance / SPEED_OF_LIGHT_KM_S * 1e6


@dataclass(frozen=True)
class ScoredPath:
    record: PathRecord
    power_dbm: float
    delay_us: float
    doppler_hz: float


@dataclass(frozen=True)
class ChannelSnapshot:
    """All scored paths at one simulation instant plus aggregates."""

    t: datetime
    elevation_deg: float
    paths: tuple[ScoredPath, ...]
    total_power_dbm: float
    rms_delay_spread_ns: float


def total_power_dbm(powers_dbm) -> float:
    powers = np.asarray(list(powers_dbm), dtype=float)
    return 10.0 * math.log10(np.sum(10.0 ** (powers / 10.0)))


def rms_delay_spread_ns(powers_dbm, delays_us) -> float:
    """Power-weighted second central moment of the path delays."""
    powers = np.asarray(list(powers_dbm), dtype=float)
    delays = np.asarray(list(delays_us), dtype=float)
    w = 10.0 ** (powers / 10.0)
    mean = float(np.sum(w * delays) / np.sum(w))
    # two-pass second central moment: the one-pass E[t^2] - E[t]^2 form
    # cancels catastrophically for microsecond offsets with ns spreads
    variance = float(np.sum(w * (delays - mean) ** 2) / np.sum(w))
    return math.sqrt(max(variance, 0.0)) * 1e3  # us -> ns


def build_snapshot(t: datetime, elevation_rad: float,
                   paths: list[PathRecord], config: SimConfig,
                   dopplers_hz: list[float]) -> ChannelSnapshot:
    """Score traced paths under ``config``'s link keys and assemble the
    per-instant snapshot."""
    scored = [
        ScoredPath(record=p,
                   power_dbm=path_power_dbm(p, config, elevation_rad),
                   delay_us=path_delay_us(p),
                   doppler_hz=float(fd))
        for p, fd in zip(paths, dopplers_hz)
    ]
    scored.sort(key=lambda s: s.delay_us)
    total = total_power_dbm(p.power_dbm for p in scored)
    spread = rms_delay_spread_ns((p.power_dbm for p in scored),
                                 (p.delay_us for p in scored))
    return ChannelSnapshot(t=t, elevation_deg=math.degrees(elevation_rad),
                           paths=tuple(scored), total_power_dbm=total,
                           rms_delay_spread_ns=spread)
