import math

import numpy as np
import pytest

from conftest import (WGS72_RE, circular_mean_motion, make_circular_tle,
                      synthetic_tle, utc)
from leochan.sgp4 import (DecayedOrbit, DeepSpaceUnsupported, sgp4_init,
                          sgp4_propagate)
from leochan.states import Frame
from leochan.tle import parse_tle

# Public element sets used for cross-validation (checksums verified).
PUBLIC_TLES = {
    "ISS-2020": (
        "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992",
        "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298"),
    "ISS-2023": (
        "1 25544U 98067A   23349.38384836  .00022434  00000+0  39396-3 0  9991",
        "2 25544  51.6414 151.0242 0002072  34.3439  48.5014 15.50428682429890"),
    "COSMOS-1408": (
        "1 13552U 82092A   21319.03826954  .00002024  00000-0  69413-4 0  9995",
        "2 13552  82.5637 123.6906 0018570 108.1104 252.2161 15.29390138142807"),
    "SENTINEL-2A": (
        "1 40697U 15028A   19285.17258184 -.00000021  00000-0  86979-5 0  9991",
        "2 40697  98.5703 357.9797 0001109  84.2547 275.8768 14.30816136224811"),
    "NORAD-42761": (
        "1 42761U 17034D   20087.81104596  .00000284  00000-0  30684-4 0  9995",
        "2 42761  43.0186 114.9591 0012544 242.5178 286.4411 15.09851347153625"),
    "SGP4-TEST-5": (
        "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  9994",
        "2 00005 034.2682 348.7242 1859667 331.7664 019.3264 10.82419157413667"),
}

# TEME positions (km) frozen from an independent trusted implementation
# of the same theory, evaluated before this propagator was written.
REFERENCE_TEME_POSITIONS = {
    "ISS-2020": {
        0.0: (-2778.956837956994, 4054.073345965704, 4684.1662679631545),
        360.0: (586.5107793748347, 6587.893806865344, 1553.4163106726485),
        1440.0: (2528.9351401862714, -4148.569691351754, -4760.4434768398305),
    },
    "ISS-2023": {
        0.0: (-2763.7155727530558, -3247.849739904115, 5278.098281892759),
        360.0: (-5890.514928715719, 355.3503922108696, 3355.3398167669584),
        1440.0: (2537.7362849494452, 3377.5745521364665, -5327.116605897295),
    },
    "COSMOS-1408": {
        0.0: (-3806.841347131866, 5710.145895183219, 0.004869917816783043),
        360.0: (-980.1286112550938, 2938.968722107455, -6138.036335846232),
        1440.0: (78.97024641334745, -1722.707952035456, 6614.791775167745),
    },
    "SENTINEL-2A": {
        0.0: (7165.536164657698, -252.7786549582457, 0.07109620084719041),
        360.0: (-6358.904055515259, 686.9484967039145, -3247.8151274661823),
        1440.0: (-2249.985126461238, -973.944443904038, 6726.758155644251),
    },
    "NORAD-42761": {
        0.0: (1979.7369206173055, -6559.025586534295, 907.1816569661783),
        360.0: (-4667.391011167233, -1949.8663639326091, 4716.168154619356),
        1440.0: (4412.05606448327, -4742.898949028372, -2405.4665175014925),
    },
    "SGP4-TEST-5": {
        0.0: (7022.465292664066, -1400.0829675535488, 0.03995155416980694),
        360.0: (-7154.031202015714, -3783.1768250365603, -3536.194122942211),
        1440.0: (-938.559239429339, -6268.187488313943, -4294.029247511629),
    },
}


def test_cross_validation_against_reference_positions():
    for name, lines in PUBLIC_TLES.items():
        state = sgp4_init(parse_tle(*lines, name=name))
        for tsince, expected in REFERENCE_TEME_POSITIONS[name].items():
            sv = sgp4_propagate(state, tsince)
            err = float(np.linalg.norm(sv.position - np.asarray(expected)))
            assert err < 1.0, f"{name} at {tsince} min: {err} km"


def test_recovered_semi_major_axis_vs_kepler_oracle():
    # independent oracle: a = (mu / n^2)^(1/3) from the printed mean motion
    tle = make_circular_tle(542.0)
    state = sgp4_init(tle)
    n_rad_s = tle.mean_motion_revs_per_day * 2 * math.pi / 86400.0
    a_kepler = (398600.8 / n_rad_s ** 2) ** (1.0 / 3.0)
    assert a_kepler == pytest.approx(WGS72_RE + 542.0, abs=0.01)
    assert abs(state.ao * WGS72_RE - (WGS72_RE + 542.0)) < 15.0


def test_deep_space_rejected():
    tle = synthetic_tle(epoch=utc(2023, 1, 1), inclination_deg=55.0,
                        raan_deg=0.0, eccentricity=0.01, arg_perigee_deg=0.0,
                        mean_anomaly_deg=0.0, mean_motion_revs_per_day=2.0)
    with pytest.raises(DeepSpaceUnsupported):
        sgp4_init(tle)


def test_decayed_orbit_rejected():
    # perigee below the surface: e large at low altitude
    n = circular_mean_motion(200.0)
    tle = synthetic_tle(epoch=utc(2023, 1, 1), inclination_deg=10.0,
                        raan_deg=0.0, eccentricity=0.2, arg_perigee_deg=0.0,
                        mean_anomaly_deg=0.0, mean_motion_revs_per_day=n)
    with pytest.raises(DecayedOrbit):
        sgp4_init(tle)


def test_zero_eccentricity_initializes_and_propagates():
    tle = make_circular_tle(542.0, inclination_deg=31.0)
    assert tle.eccentricity == 0.0
    state = sgp4_init(tle)
    sv = sgp4_propagate(state, 47.0)
    assert np.isfinite(sv.position).all()


def test_epoch_radius_in_expected_band():
    state = sgp4_init(make_circular_tle(542.0, inclination_deg=31.0))
    sv = sgp4_propagate(state, 0.0)
    altitude = float(np.linalg.norm(sv.position)) - WGS72_RE
    assert 530.0 <= altitude <= 560.0
    assert sv.frame is Frame.TEME


def test_near_circular_position_velocity_nearly_perpendicular():
    state = sgp4_init(make_circular_tle(542.0, inclination_deg=53.0))
    for tsince in (0.0, 13.0, 71.0, 555.0):
        sv = sgp4_propagate(state, tsince)
        r, v = sv.position, sv.velocity
        bound = np.linalg.norm(r) * np.linalg.norm(v) * 2e-3
        assert abs(float(r @ v)) <= bound


def test_determinism_bit_identical():
    tle = parse_tle(*PUBLIC_TLES["COSMOS-1408"], name="")
    a = sgp4_propagate(sgp4_init(tle), 123.456)
    b = sgp4_propagate(sgp4_init(tle), 123.456)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.velocity, b.velocity)


def test_continuity_leo_speed_bound():
    state = sgp4_init(make_circular_tle(542.0, inclination_deg=53.0))
    dt_s = 1.0
    for t0 in (0.0, 30.0, 500.0):
        a = sgp4_propagate(state, t0)
        b = sgp4_propagate(state, t0 + dt_s / 60.0)
        assert np.linalg.norm(b.position - a.position) <= 8.0 * dt_s


def test_orbital_period_from_node_crossings():
    tle = make_circular_tle(542.0, inclination_deg=53.0)
    state = sgp4_init(tle)

    def z_of(tmin):
        return float(sgp4_propagate(state, tmin).position[2])

    # locate two successive ascending crossings by sign change + bisection
    crossings = []
    step = 0.5
    prev = z_of(0.0)
    t = step
    while len(crossings) < 2 and t < 300.0:
        cur = z_of(t)
        if prev < 0.0 <= cur:
            lo, hi = t - step, t
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if z_of(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            crossings.append(0.5 * (lo + hi))
        prev = cur
        t += step
    assert len(crossings) == 2
    period = crossings[1] - crossings[0]
    nominal = 1440.0 / tle.mean_motion_revs_per_day
    assert abs(period - nominal) / nominal < 0.01


def test_angular_momentum_drift_below_one_percent():
    state = sgp4_init(make_circular_tle(542.0, inclination_deg=53.0))
    period = 1440.0 / state.tle.mean_motion_revs_per_day
    hs = []
    for frac in np.linspace(0.0, 1.0, 25):
        sv = sgp4_propagate(state, frac * period)
        hs.append(np.linalg.norm(np.cross(sv.position, sv.velocity)))
    hs = np.asarray(hs)
    assert (hs.max() - hs.min()) / hs.mean() < 0.01


def test_kepler_iteration_cap_raises(monkeypatch):
    import leochan.sgp4 as sgp4_mod

    monkeypatch.setattr(sgp4_mod, "KEPLER_MAX_ITER", 0)
    state = sgp4_init(make_circular_tle(542.0, inclination_deg=31.0))
    with pytest.raises(sgp4_mod.KeplerNonConvergence):
        sgp4_propagate(state, 10.0)
