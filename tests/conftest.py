"""Shared fixtures: the acceptance summary, perfbench loading, and the
builders the tests make their inputs with (UTC instants, configs of the
default city, formatted and synthetic element sets, a bare ground
plane, scene files, mutated input files).  None of this runs in a
simulation."""

import importlib.util
import io
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from leochan.config import SimConfig
from leochan.scene import M_PER_KM, Scene
from leochan.tle import Tle, parse_tle, tle_checksum

WGS72_MU = 398600.8
WGS72_RE = 6378.135

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Acceptance results are collected here and printed as a summary table.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))
    assert passed, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")


def load_perfbench(stem: str):
    """Import ``perfbench/<stem>.py`` without putting that directory on
    the import path; the module is registered as ``perfbench_<stem>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def utc(year, month, day, hour=0, minute=0, second=0,
        microsecond=0) -> datetime:
    """Construct a timezone-aware UTC datetime."""
    return datetime(year, month, day, hour, minute, second, microsecond,
                    tzinfo=timezone.utc)


def city_config(nx: int, ny: int, **keys) -> SimConfig:
    """``SimConfig``'s defaults with a city of nx x ny blocks and the
    other config ``keys`` changed, for ``generate_city``: the city keys'
    defaults live in ``SimConfig`` only."""
    return SimConfig(scene_grid_nx=nx, scene_grid_ny=ny, **keys)


def _format_implied_decimal(value: float) -> str:
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0.0 else " "
    v = abs(value)
    exp = math.floor(math.log10(v)) + 1
    mant = round(v / 10.0 ** exp * 1e5)
    if mant == 100000:  # rounding bumped into the next decade
        mant = 10000
        exp += 1
    if not -9 <= exp <= 9:
        raise ValueError(f"value out of TLE exponent range: {value}")
    return f"{sign}{mant:05d}{exp:+d}"


def _format_ndot(value: float) -> str:
    sign = "-" if value < 0.0 else " "
    body = f"{abs(value):.8f}"  # 0.xxxxxxxx
    return sign + body[1:]      # drop the leading zero


def format_tle(tle: Tle) -> tuple[str, str]:
    """Render a Tle back to its two fixed-column lines (checksummed)."""
    line1 = (f"1 {tle.satnum:05d}{tle.classification}"
             f" {tle.intl_designator:<8}"
             f" {tle.epoch_year % 100:02d}{tle.epoch_day:012.8f}"
             f" {_format_ndot(tle.ndot)}"
             f" {_format_implied_decimal(tle.nddot)}"
             f" {_format_implied_decimal(tle.bstar)}"
             f" 0 {tle.element_number:4d}")
    ecc_digits = f"{tle.eccentricity:.7f}"[2:]
    line2 = (f"2 {tle.satnum:05d}"
             f" {tle.inclination_deg:8.4f}"
             f" {tle.raan_deg:8.4f}"
             f" {ecc_digits}"
             f" {tle.arg_perigee_deg:8.4f}"
             f" {tle.mean_anomaly_deg:8.4f}"
             f" {tle.mean_motion_revs_per_day:11.8f}"
             f"{tle.rev_number:5d}")
    line1 += str(tle_checksum(line1))
    line2 += str(tle_checksum(line2))
    return line1, line2


def synthetic_tle(*, epoch: datetime, inclination_deg: float, raan_deg: float,
                  eccentricity: float, arg_perigee_deg: float,
                  mean_anomaly_deg: float, mean_motion_revs_per_day: float,
                  bstar: float = 0.0, name: str = "SYNTHETIC",
                  satnum: int = 90000) -> Tle:
    """Build a valid synthetic element set from orbital elements.

    The elements go through the fixed-column formatter and back through
    the parser, so the returned Tle carries exactly the precision a real
    file would.
    """
    day_of_year = (epoch - epoch.replace(month=1, day=1, hour=0, minute=0,
                                         second=0, microsecond=0))
    draft = Tle(
        name=name, satnum=satnum, classification="U",
        intl_designator="00001A", epoch_year=epoch.year,
        epoch_day=1.0 + day_of_year.total_seconds() / 86400.0,
        epoch=epoch, ndot=0.0, nddot=0.0, bstar=bstar, element_number=999,
        inclination_deg=inclination_deg, raan_deg=raan_deg,
        eccentricity=eccentricity, arg_perigee_deg=arg_perigee_deg,
        mean_anomaly_deg=mean_anomaly_deg,
        mean_motion_revs_per_day=mean_motion_revs_per_day, rev_number=1,
    )
    line1, line2 = format_tle(draft)
    return parse_tle(line1, line2, name=name)


def ground_plane(width_m: float = 1000.0) -> Scene:
    """Bare square ground plane centered at the origin (two triangles)."""
    h = width_m / 2.0 / M_PER_KM
    quad = np.array([[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]])
    tris = np.asarray([quad[[0, 1, 2]], quad[[0, 2, 3]]])
    return Scene(tris)


def scene_to_text(scene: Scene) -> str:
    """A scene file for ``scene_from_text``: one triangle per line, nine
    vertex coordinates (km) and the material id 0."""
    buf = io.StringIO()
    for tri in scene.triangles:
        coords = ",".join(repr(float(v)) for v in tri.reshape(9))
        buf.write(f"{coords},0\n")
    return buf.getvalue()


@st.composite
def one_line_mutant(draw, text: str, alphabet: str) -> tuple[str, int]:
    """``text`` with one to three characters of one of its lines
    replaced, inserted or deleted (from ``alphabet``, which holds no line
    break), and the number of that line."""
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    for _ in range(draw(st.integers(1, 3))):
        ops = ("replace", "insert", "delete") if line else ("insert",)
        op = draw(st.sampled_from(ops))
        width = op != "insert"
        col = draw(st.integers(0, len(line) - width))
        char = "" if op == "delete" else draw(st.sampled_from(alphabet))
        line = line[:col] + char + line[col + width:]
    lines[k] = line
    return "\n".join(lines) + "\n", k + 1


def circular_mean_motion(altitude_km: float) -> float:
    """rev/day of a circular orbit at the given altitude (two-body)."""
    a = WGS72_RE + altitude_km
    return math.sqrt(WGS72_MU / a ** 3) * 86400.0 / (2.0 * math.pi)


def make_circular_tle(altitude_km: float = 542.0,
                      inclination_deg: float = 0.0,
                      raan_deg: float = 0.0, mean_anomaly_deg: float = 0.0,
                      epoch=None, name: str = "SYNTH-CIRC"):
    if epoch is None:
        epoch = utc(2023, 6, 1, 12, 0, 0)
    return synthetic_tle(
        epoch=epoch, inclination_deg=inclination_deg, raan_deg=raan_deg,
        eccentricity=0.0, arg_perigee_deg=0.0,
        mean_anomaly_deg=mean_anomaly_deg,
        mean_motion_revs_per_day=circular_mean_motion(altitude_km),
        name=name)


def orbit_tle(incl, e, perigee_km, bstar, raan=30.0, argp=60.0, ma=90.0):
    """An element set with the given perigee altitude (km) and
    eccentricity, at the epoch 2023-06-01 12:00 UTC."""
    a = (WGS72_RE + perigee_km) / (1.0 - e)
    return synthetic_tle(
        epoch=utc(2023, 6, 1, 12, 0, 0), inclination_deg=incl,
        raan_deg=raan, eccentricity=e, arg_perigee_deg=argp,
        mean_anomaly_deg=ma,
        mean_motion_revs_per_day=(math.sqrt(WGS72_MU / a ** 3)
                                  * 86400.0 / (2.0 * math.pi)),
        bstar=bstar)


@pytest.fixture(scope="session")
def equatorial_pass():
    """The reference pass: 542 km circular equatorial orbit, site offset
    1.9 deg north of the ground track (culmination near 67 deg)."""
    from datetime import timedelta

    from oracle import build_pass_geometry, ecef_to_geodetic

    from leochan.passes import Ephemeris, find_pass

    tle = make_circular_tle()
    ephem = Ephemeris(tle)
    t_star = tle.epoch + timedelta(minutes=20)
    lat, lon, _ = ecef_to_geodetic(ephem.ecef_at(t_star).position)
    site = (lat + 1.9, lon, 0.0)
    window = find_pass(tle, site, theta_min=0.0, step_s=30.0)
    geom = build_pass_geometry(ephem, window, site, fc_hz=2e9)
    return {"tle": tle, "ephem": ephem, "site": site, "window": window,
            "geom": geom}


@pytest.fixture()
def rng():
    return np.random.default_rng(20230601)
