"""Acceptance suite: every release criterion at its stated tolerance.

Each test asserts its criterion and records a PASS/FAIL line that the
terminal summary prints as a table (see conftest).
"""

import math
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import (city_config, ground_plane, make_circular_tle,
                      record_criterion, scene_to_text, synthetic_tle, utc)
from oracle import (doppler_closed_form, ecef_to_eci, ecef_to_geodetic,
                    local_point_to_global, local_to_global, nearest_hits)
from leochan.cli import main
from leochan.frames import (build_local_frame, earth_orientation,
                            eci_to_ecef, geodetic_to_ecef, global_to_local)
from leochan.link import (RAIN_PATH_CONSTANT, fspl_db, rain_attenuation_db,
                          rms_delay_spread_ns)
from leochan.passes import (Ephemeris, elevation, find_pass,
                            gamma_at_culmination, per_path_doppler)
from leochan.scene import generate_city
from leochan.simulate import run_pass_simulation
from leochan.config import parse_config_text
from leochan.states import Frame, StateVector
from leochan.sgp4 import sgp4_init, sgp4_propagate
from leochan.tle import parse_tle
from leochan.tracer import build_launch_plane, trace

C_KM_S = 299792.458
DEMO_TLE = Path(__file__).resolve().parent.parent / "demo" / "demo.tle"


def _pass_samples(equatorial_pass, step_s=1.0, trim_s=5.0):
    """(t, closed-form Hz, finite-difference Hz) across the window."""
    window = equatorial_pass["window"]
    geom = equatorial_pass["geom"]
    ephem = equatorial_pass["ephem"]
    site_ecef = geodetic_to_ecef(*equatorial_pass["site"])
    h = 0.005  # +-5 ms central difference (Delta t = 10 ms)

    def slant(t):
        return float(np.linalg.norm(ephem.ecef_at(t).position - site_ecef))

    samples = []
    t = window.t_start + timedelta(seconds=trim_s)
    t_end = window.t_end - timedelta(seconds=trim_s)
    while t <= t_end:
        fd = (-geom.fc_hz / C_KM_S
              * (slant(t + timedelta(seconds=h))
                 - slant(t - timedelta(seconds=h))) / (2.0 * h))
        samples.append((t, doppler_closed_form(t, geom), fd))
        t += timedelta(seconds=step_s)
    return samples


@pytest.fixture(scope="module")
def doppler_samples(equatorial_pass):
    started = time.perf_counter()
    samples = _pass_samples(equatorial_pass)
    return samples, time.perf_counter() - started


def test_criterion_01_doppler_oracle_equivalence(doppler_samples):
    samples, runtime = doppler_samples
    worst = max(abs(cf - fd) for _, cf, fd in samples)
    ok = worst < 1.0 and runtime < 10.0
    record_criterion(
        "C01 closed-form vs finite-difference Doppler",
        ok, f"worst |diff| {worst:.3f} Hz over {len(samples)} samples "
            f"in {runtime:.1f} s (limits: 1 Hz, 10 s)")


def test_criterion_02_peak_doppler_band(doppler_samples):
    samples, _ = doppler_samples
    peak = max(abs(cf) for _, cf, _ in samples) / 1e3
    ok = 40.0 <= peak <= 48.0
    record_criterion("C02 peak Doppler in [40, 48] kHz", ok,
                     f"peak {peak:.2f} kHz")


def test_criterion_03_zero_crossing_at_culmination(equatorial_pass):
    geom = equatorial_pass["geom"]
    at_t0 = doppler_closed_form(geom.t0, geom)
    before = doppler_closed_form(geom.t0 - timedelta(seconds=10), geom)
    after = doppler_closed_form(geom.t0 + timedelta(seconds=10), geom)
    ok = abs(at_t0) < 5.0 and before > 0.0 > after
    record_criterion(
        "C03 Doppler zero crossing at culmination", ok,
        f"|f(t0)| = {abs(at_t0):.3f} Hz, sign {before:+.0f} -> {after:+.0f}")


def test_criterion_04_pass_duration_formula_consistency():
    mu, re = 398600.8, 6378.135
    rng = np.random.default_rng(2024)
    epoch = utc(2023, 6, 1, 0, 0, 0)
    worst = 0.0
    for _ in range(10):
        incl = round(rng.uniform(30.0, 98.0), 4)
        alt = rng.uniform(400.0, 800.0)
        raan = round(rng.uniform(0.0, 360.0) % 360.0, 4)
        ma = round(rng.uniform(0.0, 360.0) % 360.0, 4)
        n_rev = math.sqrt(mu / (re + alt) ** 3) * 86400.0 / (2.0 * math.pi)
        tle = synthetic_tle(epoch=epoch, inclination_deg=incl,
                            raan_deg=raan, eccentricity=0.0,
                            arg_perigee_deg=0.0, mean_anomaly_deg=ma,
                            mean_motion_revs_per_day=n_rev)
        ephem = Ephemeris(tle)
        at = ephem.ecef_at(epoch + timedelta(minutes=25)).position
        lat, lon, _ = ecef_to_geodetic(at)
        window = find_pass(tle, (lat, lon, 0.0), theta_min=0.0,
                           step_s=30.0, ephemeris=ephem)
        rel = abs(window.t_du_min - window.t_du_analytic_min) \
            / window.t_du_min
        worst = max(worst, rel)
    ok = worst < 0.05
    record_criterion(
        "C04 closed-form vs scanned pass duration (10 random orbits)",
        ok, f"worst relative error {worst * 100:.2f}% (limit 5%)")


def test_criterion_05_culmination_angle_spot_value():
    theta = math.radians(67.51)
    direct = math.acos((6371.0 / 6913.0) * math.cos(theta)) - theta
    got = gamma_at_culmination(theta, 6371.0, 6913.0)
    ok = abs(got - direct) < 1e-15 and \
        abs(math.degrees(got) - 1.85) <= 0.01
    record_criterion(
        "C05 culmination central angle spot value", ok,
        f"gamma(t0) = {math.degrees(got):.4f} deg (expect 1.85 +- 0.01)")


def test_criterion_06_flat_ground_image_source():
    started = time.perf_counter()
    spacing = 1.0
    scene = ground_plane(1000.0)
    el = math.radians(50.0)
    sat = 550.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    sat_state = StateVector(Frame.LOCAL, utc(2023, 1, 1), sat, np.zeros(3))
    rx = np.array([0.0, -0.02, 0.0015])

    def run(spacing_m):
        plane = build_launch_plane(sat_state, scene, spacing_m, rx,
                                   1.5 * spacing_m, extent_pad_km=0.005)
        paths = trace(plane, scene, rx, rx_radius_m=1.5 * spacing_m,
                      max_bounces=2)
        d, p0 = plane.direction, plane.origin
        image = rx * np.array([1.0, 1.0, -1.0])
        oracle = float(d @ (image - p0))
        assert [p.bounce_count for p in paths] == [0, 1]
        return abs(paths[1].d_near_ground - oracle)

    err_full = run(spacing)
    runtime = time.perf_counter() - started
    err_half = run(spacing / 2.0)
    ok = (err_full <= 2.0 * spacing / 1e3
          and err_half <= spacing / 1e3
          and runtime < 5.0)
    record_criterion(
        "C06 flat-ground image-source oracle", ok,
        f"paths {{LOS, bounce}}, err {err_full * 1e3:.4f} m @1 m spacing "
        f"(bound 2 m), {err_half * 1e3:.4f} m @0.5 m (bound 1 m), "
        f"{runtime:.1f} s (limit 5 s)")


def test_criterion_07_engine_oracle_agreement():
    city = generate_city(city_config(6, 6, seed=2))
    rng = np.random.default_rng(77)
    n = 100_000
    origins = rng.uniform(-0.9, 0.9, (n, 3))
    origins[:, 2] = rng.uniform(-0.05, 0.5, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t, fid = city.intersect_batch(origins, dirs, 1e-9)
    t_ref, fid_ref, _ = nearest_hits(city, origins, dirs, 1e-9)
    hit = fid_ref >= 0
    bad = fid != fid_ref
    bad[hit] |= np.abs(t[hit] - t_ref[hit]) > 1e-9
    mismatches = int(bad.sum())
    ok = mismatches == 0
    record_criterion("C07 intersection engine vs brute-force oracle on "
                     "1e5 rays", ok,
                     f"{mismatches} mismatches, {int(hit.sum())} hits")


def test_criterion_08_link_budget_spot_values():
    fspl = fspl_db(550.0, 2000.0)
    rain = rain_attenuation_db(25.0, 0.0000847, 1.0664, math.radians(45.0),
                               RAIN_PATH_CONSTANT)
    ok = abs(fspl - 153.23) <= 0.01 and abs(rain - 0.0103) <= 1e-4
    record_criterion(
        "C08 link budget spot values", ok,
        f"fspl 550 km / 2 GHz = {fspl:.4f} dB, rain 25 mm/h @45 deg = "
        f"{rain:.6f} dB")


def test_criterion_09_rms_delay_spread():
    single_exact = rms_delay_spread_ns([-100.0], [1834.2]) == 0.0
    delta = 0.275
    two = rms_delay_spread_ns([-110.0, -110.0], [3.0, 3.0 + delta])
    two_ok = abs(two - delta / 2.0 * 1e3) <= 1e-12 * (delta / 2.0 * 1e3)
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    for _ in range(20):
        n = rng.integers(2, 12)
        powers = rng.uniform(-150.0, -90.0, n)
        delays = rng.uniform(1800.0, 1900.0, n)
        w = 10.0 ** (powers / 10.0)
        mean = (w * delays).sum() / w.sum()
        oracle = math.sqrt((w * (delays - mean) ** 2).sum() / w.sum()) * 1e3
        got = rms_delay_spread_ns(powers, delays)
        if oracle > 0:
            worst_rel = max(worst_rel, abs(got - oracle) / oracle)
    ok = single_exact and two_ok and worst_rel <= 1e-12
    record_criterion(
        "C09 RMS delay spread definitions", ok,
        f"single exact {single_exact}, two-path rel ok {two_ok}, "
        f"random worst rel {worst_rel:.2e}")


def test_criterion_10_per_path_doppler_spread(equatorial_pass):
    ephem = equatorial_pass["ephem"]
    window = equatorial_pass["window"]
    geom = equatorial_pass["geom"]
    site = equatorial_pass["site"]
    site_ecef = geodetic_to_ecef(*site)
    local_frame = build_local_frame(site)
    city = generate_city(city_config(4, 4, scene_height_law="constant",
                                     scene_h_const_m=25.0))
    rx = np.array([0.0, 0.0, 0.0015])

    best = None
    for offset_s in np.arange(60.0, window.t_du_min * 60.0 - 60.0, 30.0):
        t = window.t_start + timedelta(seconds=offset_s)
        local = global_to_local(ephem.ecef_at(t), local_frame)
        if elevation(site_ecef, ephem.ecef_at(t).position) <= 0:
            continue
        plane = build_launch_plane(local, city, 8.0, rx, 12.0)
        paths = trace(plane, city, rx, rx_radius_m=12.0, max_bounces=2)
        if len(paths) >= 2 and paths[0].bounce_count == 0:
            best = (t, local, paths)
            if len(paths) >= 3:
                break
    assert best is not None, "no snapshot with LOS plus multipath found"
    t, local, paths = best
    dopplers = [per_path_doppler(p, local.velocity, geom.fc_hz)
                for p in paths]
    spread = max(dopplers) - min(dopplers)

    # LOS Doppler against the criterion-1 finite-difference oracle,
    # evaluated for the actual receiver point in ECEF
    rx_ecef = local_point_to_global(local_frame, rx)
    h = 0.005

    def slant(when):
        return float(np.linalg.norm(ephem.ecef_at(when).position - rx_ecef))

    fd = (-geom.fc_hz / C_KM_S
          * (slant(t + timedelta(seconds=h))
             - slant(t - timedelta(seconds=h))) / (2.0 * h))
    los_err = abs(dopplers[0] - fd)
    ok = spread <= 10.0 and los_err < 1.0
    record_criterion(
        "C10 per-path Doppler spread and LOS closure", ok,
        f"{len(paths)} paths, spread {spread:.2f} Hz (limit 10), "
        f"LOS vs oracle {los_err:.3f} Hz (limit 1)")


def test_criterion_11_sgp4_cross_validation():
    from test_sgp4 import PUBLIC_TLES, REFERENCE_TEME_POSITIONS

    worst = 0.0
    for name, lines in PUBLIC_TLES.items():
        state = sgp4_init(parse_tle(*lines, name=name))
        for tsince, expected in REFERENCE_TEME_POSITIONS[name].items():
            sv = sgp4_propagate(state, tsince)
            worst = max(worst, float(
                np.linalg.norm(sv.position - np.asarray(expected))))

    state = sgp4_init(make_circular_tle(542.0, inclination_deg=53.0))
    period_nominal = 1440.0 / state.tle.mean_motion_revs_per_day
    hs = []
    for frac in np.linspace(0.0, 1.0, 40):
        sv = sgp4_propagate(state, frac * period_nominal)
        hs.append(np.linalg.norm(np.cross(sv.position, sv.velocity)))
    h_drift = (max(hs) - min(hs)) / (sum(hs) / len(hs))

    def z_of(tmin):
        return float(sgp4_propagate(state, tmin).position[2])

    crossings = []
    prev, t = z_of(0.0), 0.5
    while len(crossings) < 2 and t < 300.0:
        cur = z_of(t)
        if prev < 0.0 <= cur:
            lo, hi = t - 0.5, t
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if z_of(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            crossings.append(0.5 * (lo + hi))
        prev, t = cur, t + 0.5
    period = crossings[1] - crossings[0]
    period_rel = abs(period - period_nominal) / period_nominal

    ok = worst < 1.0 and h_drift < 0.01 and period_rel < 0.01
    record_criterion(
        "C11 SGP4 cross-validation and invariants", ok,
        f"worst position error {worst:.2e} km over 6 sets x 3 epochs "
        f"(limit 1 km); h drift {h_drift * 100:.3f}%; period error "
        f"{period_rel * 100:.3f}%")


def test_criterion_12_frame_round_trips():
    rng = np.random.default_rng(12)
    t = utc(2022, 6, 15, 12)
    eo = earth_orientation(t)
    frame = build_local_frame((40.7, -74.0, 0.0))
    worst_ecef = worst_local = 0.0
    for _ in range(10_000):
        r = rng.uniform(-8000.0, 8000.0, 3)
        v = rng.uniform(-8.0, 8.0, 3)
        s = StateVector(Frame.ECI, t, r, v)
        back = ecef_to_eci(eci_to_ecef(s, eo), eo)
        worst_ecef = max(worst_ecef,
                         float(np.linalg.norm(back.position - r)))
        s2 = StateVector(Frame.ECEF, t, r, v)
        back2 = local_to_global(global_to_local(s2, frame), frame)
        worst_local = max(worst_local,
                          float(np.linalg.norm(back2.position - r)))
    worst_ortho = 0.0
    rng2 = np.random.default_rng(13)
    for _ in range(1000):
        lf = build_local_frame((rng2.uniform(-90, 90),
                                rng2.uniform(-180, 180), 0.0))
        worst_ortho = max(worst_ortho, float(
            np.abs(lf.rotation @ lf.rotation.T - np.eye(3)).max()))
    m = eo.matrices[0]
    worst_ortho = max(worst_ortho,
                      float(np.abs(m @ m.T - np.eye(3)).max()))
    ok = worst_ecef < 1e-9 and worst_local < 1e-9 and worst_ortho < 1e-12
    record_criterion(
        "C12 frame round trips and orthonormality", ok,
        f"ECI<->ECEF {worst_ecef:.2e} km, ECEF<->LOCAL {worst_local:.2e} "
        f"km (limit 1e-9); orthonormality {worst_ortho:.2e} (limit 1e-12)")


def test_criterion_13_end_to_end_determinism(tmp_path):
    cfg_text = (f"tle_path = {DEMO_TLE}\n"
                "site_lat_deg = 1.9\n"
                "site_lon_deg = 0.7791238226849033\n"
                "scene_grid_nx = 4\nscene_grid_ny = 4\n"
                "scene_height_law = constant\nscene_h_const_m = 25\n"
                "theta_min_deg = 5.0\ntime_step_s = 60\nspacing_m = 12\n"
                "seed = 3\n")
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    digests = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--jobs", jobs]) == 0
        digests.append(b"".join(
            (out / f).read_bytes()
            for f in ("pass_summary.csv", "timeseries.csv", "paths.csv",
                      "delay_spread_cdf.csv")))
    ok = digests[0] == digests[1] == digests[2]
    record_criterion(
        "C13 byte-identical outputs across reruns and jobs=4", ok,
        f"{len(digests[0])} output bytes compared")


def test_criterion_14_empty_scene_pass_shape(tmp_path):
    scene_file = tmp_path / "ground.txt"
    scene_file.write_text(scene_to_text(ground_plane(400.0)))
    cfg = parse_config_text(
        f"tle_path = {DEMO_TLE}\n"
        "site_lat_deg = 1.9\n"
        "site_lon_deg = 0.7791238226849033\n"
        f"scene_file = {scene_file}\n"
        "theta_min_deg = 5.0\ntime_step_s = 30\nspacing_m = 8\n", Path())
    report = run_pass_simulation(cfg)
    powers = [s.total_power_dbm for s in report.snapshots]
    assert all(s.paths for s in report.snapshots), "LOS must always exist"
    k_max = int(np.argmax(powers))
    rising = all(b > a for a, b in zip(powers[:k_max + 1],
                                       powers[1:k_max + 1]))
    falling = all(b < a for a, b in zip(powers[k_max:], powers[k_max + 1:]))
    ok = rising and falling and 0 < k_max < len(powers) - 1
    record_criterion(
        "C14 empty-scene power rises to culmination then falls", ok,
        f"{len(powers)} snapshots, peak at index {k_max}, "
        f"strict rise {rising}, strict fall {falling}")
