import math

import numpy as np
import pytest

from conftest import utc
from leochan.config import SimConfig
from leochan.link import (CONCRETE, RAIN_PATH_CONSTANT,
                          build_snapshot, effective_rain_path_km,
                          fresnel_power_reflectance, fspl_db, path_delay_us,
                          path_power_dbm, rain_attenuation_db,
                          rain_path_constant, reflection_loss_db,
                          rms_delay_spread_ns, total_power_dbm,
                          SPEED_OF_LIGHT_KM_S)
from leochan.tracer import Interaction, PathRecord

def _path(d_near=0.5, d_atm=549.5, interactions=(), launch_index=0):
    return PathRecord(
        launch_index=launch_index, interactions=tuple(interactions),
        d_near_ground=d_near, d_atmosphere=d_atm,
        aod=np.array([0.0, 0.0, -1.0]),
        bounce_count=len(interactions), miss_distance=0.0)


def _bounce(angle, face_id=0):
    return Interaction(point=np.zeros(3), face_id=face_id,
                       incidence_angle=angle)


def test_material_invariants():
    assert CONCRETE.relative_permittivity == 5.31
    assert CONCRETE.conductivity == 0.1395


class TestFspl:
    def test_unit_point(self):
        assert fspl_db(1.0, 1.0) == pytest.approx(32.4, abs=1e-12)

    def test_leo_spot_value(self):
        # 32.4 + 20 log10(550) + 20 log10(2000) evaluated directly
        expected = 32.4 + 20 * math.log10(550.0) + 20 * math.log10(2000.0)
        assert fspl_db(550.0, 2000.0) == pytest.approx(expected, abs=1e-12)
        assert fspl_db(550.0, 2000.0) == pytest.approx(153.23, abs=0.01)

    def test_doubling_distance(self):
        gain = fspl_db(2.0, 100.0) - fspl_db(1.0, 100.0)
        assert gain == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


class TestRain:
    def test_zero_rate_is_zero(self):
        assert rain_attenuation_db(0.0, 0.0000847, 1.0664,
                                   math.radians(45.0),
                                   RAIN_PATH_CONSTANT) == 0.0

    def test_effective_path_spot(self):
        length = effective_rain_path_km(25.0, math.radians(45.0),
                                        RAIN_PATH_CONSTANT)
        direct = 1.0 / (0.00741 * 25.0 ** 0.776
                        + (0.232 - 0.00018) * math.sin(math.radians(45.0)))
        assert length == pytest.approx(direct, rel=1e-12)
        assert length == pytest.approx(3.937, abs=0.001)

    def test_attenuation_spot(self):
        att = rain_attenuation_db(25.0, 0.0000847, 1.0664,
                                  math.radians(45.0), RAIN_PATH_CONSTANT)
        assert att == pytest.approx(0.0103, abs=1e-4)

    def test_monotone_in_rate(self):
        rates = np.linspace(0.5, 200.0, 400)
        values = [rain_attenuation_db(r, 0.0000847, 1.0664,
                                      math.radians(30.0), RAIN_PATH_CONSTANT)
                  for r in rates]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_latitude_mode_constant(self):
        assert rain_path_constant("latitude", 40.0) == pytest.approx(
            0.232 - 0.00018 * 40.0, abs=1e-15)
        assert rain_path_constant("verbatim", 0.0) == pytest.approx(
            0.23182, abs=1e-15)


class TestReflection:
    def test_grazing_loss_vanishes(self):
        assert reflection_loss_db(math.radians(89.99), 2000.0, "V") < 0.01
        assert reflection_loss_db(math.radians(89.99), 2000.0, "H") < 0.01

    def test_concrete_normal_incidence_matches_direct_fresnel(self):
        # brute-force evaluation of |(sqrt(eps)-1)/(sqrt(eps)+1)|^2
        wavelength = SPEED_OF_LIGHT_KM_S * 1e3 / 2e9
        eps = complex(5.31, -60.0 * wavelength * 0.1395)
        root = complex(eps) ** 0.5
        expected = abs((root - 1.0) / (root + 1.0)) ** 2
        got = fresnel_power_reflectance(0.0, 2000.0, "H")
        assert got == pytest.approx(expected, rel=1e-9)
        # normal incidence: both polarizations coincide
        gv = fresnel_power_reflectance(0.0, 2000.0, "V")
        assert gv == pytest.approx(expected, rel=1e-9)

    def test_loss_nonnegative(self, rng):
        for _ in range(200):
            angle = rng.uniform(0.0, math.pi / 2 - 1e-6)
            assert reflection_loss_db(angle, 2000.0, "V") >= 0.0


class TestPathPower:
    def test_los_spot_value(self):
        lp = SimConfig(fc_mhz=2000.0, pt_dbm=30.0, rain_rate_mm_h=0.0)
        p = _path(d_near=0.5, d_atm=549.5)  # 550 km total
        power = path_power_dbm(p, lp, math.radians(45.0))
        assert power == pytest.approx(30.0 - fspl_db(550.0, 2000.0),
                                      abs=1e-12)

    def test_reflection_never_gains(self):
        lp = SimConfig()
        two = _path(interactions=[_bounce(0.3), _bounce(1.0)])
        los = _path()
        assert path_power_dbm(two, lp, 0.5) <= \
            path_power_dbm(los, lp, 0.5)

    def test_db_pipeline_matches_linear_pipeline(self):
        lp = SimConfig(rain_rate_mm_h=10.0)
        p = _path(interactions=[_bounce(0.7)])
        el = math.radians(30.0)
        db_power = path_power_dbm(p, lp, el)
        lin = 10.0 ** (lp.pt_dbm / 10.0)
        lin /= 10.0 ** (fspl_db(p.total_distance, lp.fc_mhz) / 10.0)
        lin /= 10.0 ** (rain_attenuation_db(
            10.0, lp.rain_k, lp.rain_alpha, el,
            rain_path_constant(lp.rain_path_mode, lp.site_lat_deg)) / 10.0)
        lin *= fresnel_power_reflectance(0.7, lp.fc_mhz, "V")
        assert db_power == pytest.approx(10.0 * math.log10(lin), abs=1e-9)

    def test_delay_from_total_distance(self):
        p = _path(d_near=0.5, d_atm=549.5)
        assert path_delay_us(p) == pytest.approx(
            550.0 / SPEED_OF_LIGHT_KM_S * 1e6, rel=1e-12)


class TestSnapshotStats:
    def test_single_path_zero_spread(self):
        assert rms_delay_spread_ns([-100.0], [1834.0]) == 0.0

    def test_two_equal_paths_half_delta(self):
        delta_us = 0.35
        spread = rms_delay_spread_ns([-120.0, -120.0], [5.0, 5.0 + delta_us])
        assert spread == pytest.approx(delta_us / 2.0 * 1e3, rel=1e-12)

    def test_matches_two_pass_moment_oracle(self, rng):
        for _ in range(50):
            n = rng.integers(2, 11)
            powers = rng.uniform(-140.0, -90.0, n)
            delays = rng.uniform(1800.0, 1900.0, n)
            w = 10.0 ** (powers / 10.0)
            mean = (w * delays).sum() / w.sum()
            var = (w * (delays - mean) ** 2).sum() / w.sum()
            oracle = math.sqrt(var) * 1e3
            got = rms_delay_spread_ns(powers, delays)
            assert got == pytest.approx(oracle, rel=1e-12, abs=1e-9)

    def test_translation_invariance(self, rng):
        powers = rng.uniform(-140.0, -90.0, 8)
        delays = rng.uniform(0.0, 10.0, 8)
        a = rms_delay_spread_ns(powers, delays)
        b = rms_delay_spread_ns(powers, delays + 123.456)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_total_power_permutation_invariant(self, rng):
        powers = list(rng.uniform(-140.0, -90.0, 9))
        shuffled = list(powers)
        rng.shuffle(shuffled)
        assert total_power_dbm(powers) == pytest.approx(
            total_power_dbm(shuffled), abs=1e-12)

    def test_removing_path_never_increases_total(self, rng):
        powers = list(rng.uniform(-140.0, -90.0, 6))
        full = total_power_dbm(powers)
        for i in range(len(powers)):
            reduced = powers[:i] + powers[i + 1:]
            assert total_power_dbm(reduced) <= full

    def test_total_power_identity(self):
        total = total_power_dbm([-100.0, -100.0])
        assert total == pytest.approx(-100.0 + 10.0 * math.log10(2.0),
                                      abs=1e-12)


def test_build_snapshot_sorted_and_consistent():
    lp = SimConfig()
    paths = [_path(d_near=0.9, d_atm=549.5, launch_index=1),
             _path(d_near=0.5, d_atm=549.5, launch_index=0)]
    snap = build_snapshot(utc(2023, 1, 1), math.radians(50.0), paths, lp,
                          [100.0, 200.0])
    delays = [p.delay_us for p in snap.paths]
    assert delays == sorted(delays)
    manual_total = total_power_dbm([p.power_dbm for p in snap.paths])
    assert snap.total_power_dbm == pytest.approx(manual_total, abs=1e-9)
