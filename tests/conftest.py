import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from leochan.timebase import utc
from leochan.tle import synthetic_tle

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


@pytest.fixture(scope="session")
def equatorial_pass():
    """The reference pass: 542 km circular equatorial orbit, site offset
    1.9 deg north of the ground track (culmination near 67 deg)."""
    from datetime import timedelta

    from leochan.frames import ecef_to_geodetic
    from leochan.passes import Ephemeris, build_pass_geometry, find_pass

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
