import math
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (circular_mean_motion, load_perfbench,
                      make_circular_tle, orbit_tle, synthetic_tle, utc)
from oracle import (doppler_closed_form, ecef_to_geodetic, elevation_triangle,
                    find_pass_every_step)
from leochan.frames import EARTH_ROTATION_RATE, geodetic_to_ecef
from leochan.passes import (DomainError, Ephemeris, NoPassFound, _scan_bound,
                            elevation, find_pass, gamma_at_culmination,
                            per_path_doppler)
from leochan.sgp4 import (PropagationError, SatelliteDecayed, sgp4_init,
                          sgp4_propagate)
from leochan.tle import read_tle_file
from leochan.tracer import PathRecord

DEMO_TLE = Path(__file__).resolve().parent.parent / "demo" / "demo.tle"
DEMO_SITE = (1.9, 0.7791238226849033, 0.0)


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def _count_ecef_at(monkeypatch):
    calls = []
    ecef_at = Ephemeris.ecef_at

    def counted(self, t):
        calls.append(t)
        return ecef_at(self, t)

    monkeypatch.setattr(Ephemeris, "ecef_at", counted)
    return calls


class TestElevation:
    def test_zenith(self):
        site = np.array([6371.0, 0.0, 0.0])
        sat = np.array([6913.0, 0.0, 0.0])
        assert elevation(site, sat) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_horizon(self):
        site = np.array([6371.0, 0.0, 0.0])
        sat = site + np.array([0.0, 1200.0, 0.0])  # slant in horizon plane
        assert elevation(site, sat) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_form_agrees_everywhere(self, rng):
        for _ in range(10_000):
            site = _unit(rng.normal(size=3)) * rng.uniform(6350.0, 6400.0)
            sat = _unit(rng.normal(size=3)) * rng.uniform(6800.0, 7400.0)
            a = elevation(site, sat)
            b = elevation_triangle(site, sat)
            assert abs(a - b) < 1e-9


class TestGammaAtCulmination:
    def test_overhead_culmination_zero(self):
        assert gamma_at_culmination(math.pi / 2, 6371.0, 6913.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_high_culmination_spot(self):
        # direct evaluation: acos((6371/6913) cos 67.51 deg) - 67.51 deg
        theta = math.radians(67.51)
        direct = math.acos(6371.0 / 6913.0 * math.cos(theta)) - theta
        got = gamma_at_culmination(theta, 6371.0, 6913.0)
        assert got == pytest.approx(direct, abs=1e-15)
        assert math.degrees(got) == pytest.approx(1.85, abs=0.01)

    def test_monotone_decreasing_in_theta(self):
        thetas = np.linspace(0.0, math.pi / 2, 200)
        gammas = [gamma_at_culmination(t, 6371.0, 6913.0) for t in thetas]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gamma_at_culmination(0.5, 7000.0, 6900.0)


class TestClosedFormDoppler:
    def test_zero_at_culmination(self, equatorial_pass):
        geom = equatorial_pass["geom"]
        assert abs(doppler_closed_form(geom.t0, geom)) < 5.0

    def test_sign_flips_across_culmination(self, equatorial_pass):
        geom = equatorial_pass["geom"]
        before = doppler_closed_form(geom.t0 - timedelta(seconds=20), geom)
        after = doppler_closed_form(geom.t0 + timedelta(seconds=20), geom)
        assert before > 0.0 > after

    def test_antisymmetry_about_culmination(self, equatorial_pass):
        geom = equatorial_pass["geom"]
        window = equatorial_pass["window"]
        quarter = window.t_du_min * 60.0 / 4.0
        peak = abs(doppler_closed_form(window.t_start, geom))
        for delta in np.linspace(10.0, quarter, 8):
            f_plus = doppler_closed_form(geom.t0 + timedelta(seconds=delta),
                                         geom)
            f_minus = doppler_closed_form(geom.t0 - timedelta(seconds=delta),
                                          geom)
            assert abs(f_plus + f_minus) < 0.02 * peak

    def test_denominator_matches_true_slant_range(self, equatorial_pass):
        geom = equatorial_pass["geom"]
        window = equatorial_pass["window"]
        ephem = equatorial_pass["ephem"]
        site_ecef = geodetic_to_ecef(*equatorial_pass["site"])
        for frac in np.linspace(0.02, 0.98, 15):
            t = window.t_start + timedelta(
                seconds=frac * window.t_du_min * 60.0)
            model = geom.slant_range_model(geom.psi_delta(t))
            true = float(np.linalg.norm(ephem.ecef_at(t).position
                                        - site_ecef))
            assert abs(model - true) / true < 0.01

    def test_zero_crossing_at_elevation_maximum(self, equatorial_pass):
        # crossing and culmination coincide within one scan step
        geom = equatorial_pass["geom"]
        window = equatorial_pass["window"]
        ephem = equatorial_pass["ephem"]
        site_ecef = geodetic_to_ecef(*equatorial_pass["site"])
        step = 30.0
        t = window.t_start
        crossing = None
        prev = doppler_closed_form(t, geom)
        while t < window.t_end:
            t += timedelta(seconds=step)
            cur = doppler_closed_form(t, geom)
            if prev > 0.0 >= cur:
                crossing = t
                break
            prev = cur
        assert crossing is not None
        assert abs((crossing - window.t0).total_seconds()) <= step
        el_at_cross = elevation(site_ecef,
                                ephem.ecef_at(crossing).position)
        assert abs(el_at_cross - window.theta_max) < math.radians(0.5)


class TestPerPathDoppler:
    def _los_path(self, aod):
        return PathRecord(launch_index=0, interactions=(),
                          d_near_ground=0.4, d_atmosphere=550.0,
                          aod=np.asarray(aod, float), bounce_count=0,
                          miss_distance=0.0)

    def test_perpendicular_velocity_zero(self):
        path = self._los_path([0.0, 0.0, -1.0])
        assert per_path_doppler(path, [7.6, 0.0, 0.0], 2e9) == 0.0

    def test_approach_positive(self):
        path = self._los_path([0.0, 0.0, -1.0])  # satellite descending
        assert per_path_doppler(path, [0.0, 0.0, -7.6], 2e9) > 0.0

    def test_matches_range_rate_oracle(self):
        # static anchor: f = -(fc/c) d|sat - anchor|/dt
        fc = 2e9
        sat = np.array([100.0, -50.0, 500.0])
        vel = np.array([3.0, 6.0, -0.5])
        anchor = np.array([0.1, 0.2, 0.0])
        aod = _unit(anchor - sat)
        path = self._los_path(aod)
        dt = 1e-4
        d0 = np.linalg.norm(sat - anchor)
        d1 = np.linalg.norm(sat + vel * dt - anchor)
        oracle = -fc / 299792.458 * (d1 - d0) / dt
        assert per_path_doppler(path, vel, fc) == pytest.approx(oracle,
                                                                abs=1.0)


class TestFindPass:
    def test_window_ordering_and_duration(self, equatorial_pass):
        w = equatorial_pass["window"]
        assert w.t_start < w.t0 < w.t_end
        dur_min = (w.t_end - w.t_start).total_seconds() / 60.0
        assert w.t_du_min == pytest.approx(dur_min, abs=1e-9)
        assert w.theta_max > w.theta_min

    def test_culmination_is_maximum(self, equatorial_pass):
        w = equatorial_pass["window"]
        ephem = equatorial_pass["ephem"]
        site_ecef = geodetic_to_ecef(*equatorial_pass["site"])
        el0 = elevation(site_ecef, ephem.ecef_at(w.t0).position)
        for frac in np.linspace(0.05, 0.95, 12):
            t = w.t_start + timedelta(seconds=frac * w.t_du_min * 60.0)
            assert elevation(site_ecef,
                             ephem.ecef_at(t).position) <= el0 + 1e-9

    def test_degenerate_threshold_at_culmination(self, equatorial_pass):
        # theta_min at the culmination elevation: analytic window collapses
        tle = equatorial_pass["tle"]
        w = equatorial_pass["window"]
        site = equatorial_pass["site"]
        near_max = w.theta_max - math.radians(0.05)
        tiny = find_pass(tle, site, theta_min=near_max, step_s=5.0)
        assert tiny.t_du_min < 1.0
        assert tiny.t_du_analytic_min < 1.0

    def test_no_pass_raises(self):
        # site far from an equatorial track never sees the satellite
        tle = make_circular_tle(542.0, inclination_deg=0.0)
        with pytest.raises(NoPassFound):
            find_pass(tle, (80.0, 0.0, 0.0), theta_min=0.0, step_s=120.0,
                      search_hours=6.0)

    def test_analytic_duration_close_to_scan(self, equatorial_pass):
        w = equatorial_pass["window"]
        assert abs(w.t_du_min - w.t_du_analytic_min) / w.t_du_min < 0.05

    def test_scan_stops_at_first_complete_window(self, monkeypatch):
        # the demo window sets 26.5 min after the epoch; scanning the whole
        # 48 h horizon would take 5,761 instants
        tle = read_tle_file(DEMO_TLE)[0]
        calls = _count_ecef_at(monkeypatch)
        counts = []
        for _ in range(2):
            calls.clear()
            find_pass(tle, DEMO_SITE, theta_min=0.0, step_s=30.0)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 150

    def test_decaying_satellite_gets_first_pass(self):
        # bstar 0.2 brings this 300 km orbit down about 5.5 h after the
        # epoch, well after its first pass over a site under the track
        tle = synthetic_tle(
            epoch=utc(2023, 6, 1, 12, 0, 0), inclination_deg=51.6,
            raan_deg=10.0, eccentricity=0.0, arg_perigee_deg=0.0,
            mean_anomaly_deg=0.0,
            mean_motion_revs_per_day=circular_mean_motion(300.0), bstar=0.2)
        with pytest.raises(SatelliteDecayed):
            Ephemeris(tle).ecef_at(tle.epoch + timedelta(hours=6))
        w = find_pass(tle, (50.76, 39.12, 0.0), theta_min=0.0)
        assert utc(2023, 6, 1, 12, 20, 0) < w.t_start \
            < utc(2023, 6, 1, 12, 21, 0)
        assert utc(2023, 6, 1, 12, 29, 0) < w.t_end \
            < utc(2023, 6, 1, 12, 30, 0)

    def test_pass_cut_by_horizon_raises(self, equatorial_pass):
        tle = equatorial_pass["tle"]
        w = equatorial_pass["window"]
        horizon = timedelta(minutes=20)
        assert w.t_start < tle.epoch + horizon < w.t_end
        with pytest.raises(NoPassFound, match="does not set"):
            find_pass(tle, equatorial_pass["site"], theta_min=0.0,
                      search_hours=horizon.total_seconds() / 3600.0)

    def test_pass_in_progress_at_epoch_is_skipped(self, equatorial_pass):
        tle = equatorial_pass["tle"]
        ephem = equatorial_pass["ephem"]
        sat = ephem.ecef_at(tle.epoch).position
        lat, lon, _ = ecef_to_geodetic(sat)
        site = (lat, lon, 0.0)
        assert elevation(geodetic_to_ecef(*site), sat) > math.radians(80.0)
        w = find_pass(tle, site, theta_min=0.0, ephemeris=ephem)
        # the next pass comes one revolution relative to the site later
        assert w.t_start > tle.epoch + timedelta(minutes=60)
        assert w.t_start < w.t0 < w.t_end


def test_window_duration_formula_reference_case():
    # Closed-form duration for a reference pass geometry:
    # r_E 6371 km, r 6913 km, culmination 67.51 deg, threshold 0 deg,
    # satellite rate 0.066 rad/min, inclination 31 deg -> about 12.76 min.
    omega_s = 0.066 / 60.0
    omega_e = 7.2921150e-5
    incl = math.radians(31.0)
    gamma_min = gamma_at_culmination(0.0, 6371.0, 6913.0)
    gamma_max = gamma_at_culmination(math.radians(67.51), 6371.0, 6913.0)
    t_du = (2.0 / (omega_s - omega_e * math.cos(incl))
            * math.acos(math.cos(gamma_min) / math.cos(gamma_max))) / 60.0
    assert t_du == pytest.approx(12.76, abs=0.1)


def _outcome(search, *args, **kwargs):
    """The window's repr, or the class and message of what was raised."""
    try:
        return repr(search(*args, **kwargs))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def _search_case(draw):
    """An element set, a site, a threshold and a scan step.

    Orbits have e up to 0.2 and bstar of 0, +-1e-5 to 1e-3, or (low
    orbits) 0.1 to 0.5, which brings most down within the horizon.  The
    site lies near the ground track some minutes after the epoch: at 0
    minutes a pass is in progress at the epoch.
    """
    if draw(st.integers(0, 2)) == 0:  # decaying
        e = 0.0
        perigee_km = draw(st.floats(180.0, 280.0))
        bstar = draw(st.floats(0.1, 0.5))
    else:
        e = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
        perigee_km = draw(st.floats(250.0, 1500.0))
        bstar = draw(st.sampled_from([0.0, -1.0, 1.0])) \
            * 10.0 ** draw(st.floats(-5.0, -3.0))
    tle = orbit_tle(draw(st.floats(0.0, 180.0)), e, perigee_km, bstar,
                     *(draw(st.floats(0.0, 359.0)) for _ in range(3)))
    lead = timedelta(minutes=draw(st.sampled_from([0.0, 0.0, 10.0, 45.0])))
    try:
        lat, lon, _ = ecef_to_geodetic(
            Ephemeris(tle).ecef_at(tle.epoch + lead).position)
    except PropagationError:
        lat = lon = 0.0
    lat = max(-89.0, min(89.0, lat + draw(st.floats(-12.0, 12.0))))
    site = (lat, lon + draw(st.floats(-12.0, 12.0)), 0.0)
    theta_min = math.radians(draw(st.floats(0.0, 60.0)))
    step_s = draw(st.sampled_from([10.0, 30.0, 120.0]))
    return tle, site, theta_min, step_s


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_search_case())
def test_find_pass_matches_every_step_scan(case):
    # The skipped instants must not change the window by a bit, nor the
    # exception: class, and message with its instant.
    tle, site, theta_min, step_s = case
    kwargs = dict(theta_min=theta_min, step_s=step_s, search_hours=3.0)
    assert _outcome(find_pass, tle, site, **kwargs) \
        == _outcome(find_pass_every_step, tle, site, **kwargs)


@pytest.mark.parametrize("incl,e,perigee_km,bstar", [
    (180.0, 0.0, 200.0, 0.0),    # the Keplerian turn rate nearly reached
    (97.5, 0.0, 550.0, 3e-4),
    (51.6, 0.2, 400.0, -1e-3),
    (0.0, 0.01, 1200.0, 1e-5),
])
def test_scan_bound_holds_over_the_horizon(incl, e, perigee_km, bstar):
    # radius and turn rate of the propagated positions, every 2 s for 3 h
    state = sgp4_init(orbit_tle(incl, e, perigee_km, bstar))
    r_min, r_max, omega = _scan_bound(state, 180.0)
    dt_s = 2.0
    pos = np.array([sgp4_propagate(state, k * dt_s / 60.0).position
                    for k in range(int(180.0 * 60.0 / dt_s) + 1)])
    r = np.linalg.norm(pos, axis=1)
    u = pos / r[:, None]
    turn = np.arctan2(np.linalg.norm(np.cross(u[1:], u[:-1]), axis=1),
                      np.einsum("ij,ij->i", u[1:], u[:-1])) / dt_s
    assert r_min <= r.min() and r.max() <= r_max
    assert turn.max() + EARTH_ROTATION_RATE <= omega


def test_no_pass_search_skips_the_instants_below_the_horizon(monkeypatch):
    # The demo orbit never rises at 80 N; every-step scanning takes
    # 5,761 instants over the 48 h horizon.
    tle = read_tle_file(DEMO_TLE)[0]
    calls = _count_ecef_at(monkeypatch)
    with pytest.raises(NoPassFound, match="no pass above 0.0 deg"):
        find_pass(tle, (80.0, 0.0, 0.0), theta_min=0.0)
    assert len(calls) < 400


def test_pass_search_workload_takes_fewer_instants(tmp_path, monkeypatch):
    # The seed-0 benchmark searches took 435 ecef_at calls when every
    # scan instant was propagated.
    workloads = load_perfbench("workloads")
    wl = workloads.pass_search(0)
    workloads.write_inputs(wl, tmp_path)
    calls = _count_ecef_at(monkeypatch)
    for tle, (lat, lon, alt, min_elev) in zip(
            read_tle_file(tmp_path / "sets.tle"), wl.searches):
        find_pass(tle, (lat, lon, alt), theta_min=math.radians(min_elev))
    assert len(calls) < 300
