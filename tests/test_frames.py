import math
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import orbit_tle, utc
from oracle import (earth_orientation_reference, ecef_reference,
                    ecef_to_eci, ecef_to_geodetic, eci_to_teme, gast,
                    local_to_global, rot3_reference, teme_to_eci_reference,
                    tod_to_j2000_reference)
from leochan.frames import (EARTH_ROTATION_RATE, EarthOrientation,
                            build_local_frame, earth_orientation, eci_to_ecef,
                            geodetic_to_ecef, global_to_local, rot2, rot3,
                            teme_to_eci)
from leochan.passes import Ephemeris, _elevation, elevation
from leochan.states import Frame, FrameMismatch, StateVector
from leochan.timebase import TT_MINUS_UTC_S
from leochan.tle import read_tle_file

DEMO_TLE = Path(__file__).resolve().parent.parent / "demo" / "demo.tle"


def _stub_eo(gmst=0.0):
    """All orientation angles zeroed: transforms collapse to identity."""
    return EarthOrientation(gmst=gmst, precession_angles=(0.0, 0.0, 0.0),
                            nutation=(0.0, 0.0), mean_obliquity=0.4090926)


def _state(frame, r, v=(0.0, 0.0, 0.0), t=None):
    return StateVector(frame, t or utc(2022, 6, 15, 12), np.asarray(r, float),
                       np.asarray(v, float))


def test_zero_angles_give_identity_teme_to_eci():
    eo = _stub_eo()
    s = _state(Frame.TEME, [6900.0, 100.0, -50.0], [1.0, 7.5, 0.1])
    out = teme_to_eci(s, eo)
    assert np.linalg.norm(out.position - s.position) < 1e-12
    assert np.linalg.norm(out.velocity - s.velocity) < 1e-12


def test_norm_preserved_by_celestial_transforms():
    eo = earth_orientation(utc(2022, 6, 15, 12))
    s = _state(Frame.TEME, [6900.0, 100.0, -50.0])
    out = teme_to_eci(s, eo)
    assert abs(np.linalg.norm(out.position) / np.linalg.norm(s.position)
               - 1.0) < 1e-9


def test_teme_eci_offset_magnitude_for_2022():
    # order-of-magnitude oracle: ~22 years of general precession
    eo = earth_orientation(utc(2022, 6, 15, 12))
    r = np.array([7000.0, 0.0, 0.0])
    out = teme_to_eci(_state(Frame.TEME, r), eo)
    cosang = float(r @ out.position) / (7000.0 * np.linalg.norm(out.position))
    angle = math.degrees(math.acos(min(1.0, cosang)))
    assert 0.05 <= angle <= 0.4


def test_gmst_zero_stub_gives_frame_rate_only():
    eo = _stub_eo(gmst=0.0)
    r = np.array([7000.0, 123.0, -5.0])
    v = np.array([0.3, 7.4, 0.0])
    out = eci_to_ecef(_state(Frame.ECI, r, v), eo)
    assert np.linalg.norm(out.position - r) < 1e-12
    omega = np.array([0.0, 0.0, EARTH_ROTATION_RATE])
    assert np.linalg.norm(out.velocity - (v - np.cross(omega, r))) < 1e-12


def test_geostationary_rest_in_ecef():
    eo = _stub_eo(gmst=0.0)
    r = np.array([42164.0, 0.0, 0.0])
    v = np.cross(np.array([0.0, 0.0, EARTH_ROTATION_RATE]), r)
    out = eci_to_ecef(_state(Frame.ECI, r, v), eo)
    assert np.linalg.norm(out.velocity) < 1e-6


def test_round_trip_eci_ecef(rng):
    eo = earth_orientation(utc(2021, 3, 9, 3, 30))
    for _ in range(200):
        r = rng.uniform(-8000, 8000, 3)
        v = rng.uniform(-8, 8, 3)
        s = _state(Frame.ECI, r, v)
        back = ecef_to_eci(eci_to_ecef(s, eo), eo)
        assert np.linalg.norm(back.position - r) < 1e-9
        assert np.linalg.norm(back.velocity - v) < 1e-12


def test_round_trip_teme_eci(rng):
    eo = earth_orientation(utc(2024, 11, 2, 18))
    for _ in range(200):
        r = rng.uniform(-8000, 8000, 3)
        s = _state(Frame.TEME, r)
        back = eci_to_teme(teme_to_eci(s, eo), eo)
        assert np.linalg.norm(back.position - r) < 1e-9


def test_frame_mismatch_raises():
    eo = _stub_eo()
    with pytest.raises(FrameMismatch):
        teme_to_eci(_state(Frame.ECI, [1, 0, 0]), eo)
    with pytest.raises(FrameMismatch):
        eci_to_ecef(_state(Frame.TEME, [1, 0, 0]), eo)


def test_rotation_matrices_orthonormal():
    for when in (utc(2020, 1, 1), utc(2022, 7, 19, 9), utc(2026, 12, 31)):
        eo = earth_orientation(when)
        for m in eo.matrices:
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_velocity_consistent_with_position_finite_difference():
    # transformed velocity must match d/dt of transformed positions
    t = utc(2022, 6, 15, 12)
    dt = 1e-3
    r = np.array([6900.0, 1000.0, 200.0])
    v = np.array([-1.0, 7.3, 0.5])
    states = []
    for offset in (0.0, dt):
        ti = t + timedelta(seconds=offset)
        s = _state(Frame.ECI, r + v * offset, v, t=ti)
        states.append(eci_to_ecef(s, earth_orientation(ti)))
    fd = (states[1].position - states[0].position) / dt
    assert np.linalg.norm(fd - states[0].velocity) < 1e-6


def test_chain_associativity():
    t = utc(2022, 6, 15, 12)
    eo = earth_orientation(t)
    r = np.array([6900.0, -3000.0, 1200.0])
    s = _state(Frame.TEME, r, t=t)
    seq = eci_to_ecef(teme_to_eci(s, eo), eo)
    frame = build_local_frame((40.0, -74.0, 0.0))
    seq_local = global_to_local(seq, frame)
    # composed matrices applied in one shot
    composed = frame.rotation @ (_ecef_matrix(eo)
                                 @ (eo.matrices[0] @ r)
                                 - frame.origin_ecef)
    assert np.linalg.norm(seq_local.position - composed) < 1e-10


def _ecef_matrix(eo):
    _, pn, spin = eo.matrices
    return spin @ pn.T


@st.composite
def _element_set(draw):
    """The demo set, or a synthetic one with e up to 0.2 and no drag."""
    if draw(st.booleans()):
        return read_tle_file(DEMO_TLE)[0]
    e = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
    return orbit_tle(draw(st.floats(0.0, 180.0)), e,
                     draw(st.floats(250.0, 1500.0)), 0.0,
                     *(draw(st.floats(0.0, 359.0)) for _ in range(3)))


_THIRTY_DAYS_US = 30 * 86400 * 10 ** 6


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_element_set(),
       st.lists(st.integers(-_THIRTY_DAYS_US, _THIRTY_DAYS_US),
                min_size=1, max_size=4))
def test_frame_chain_bytes_match_reference(tle, offsets_us):
    # Writing the nutation series out, sharing P N between the halves
    # of the chain, writing omega x r out, building the rotations as one
    # stack of cosines and sines and multiplying with ndarray.dot must
    # not change a bit of any state.
    ephem = Ephemeris(tle)
    for offset_us in offsets_us:
        t = tle.epoch + timedelta(microseconds=offset_us)
        eci_ref, ecef_ref = ecef_reference(ephem, t)
        for got, ref in ((ephem.eci_at(t), eci_ref),
                         (ephem.ecef_at(t), ecef_ref)):
            assert got.frame is ref.frame
            assert got.position.tobytes() == ref.position.tobytes()
            assert got.velocity.tobytes() == ref.velocity.tobytes()
        eo = earth_orientation(t)
        assert (eo.matrices[0].tobytes()
                == teme_to_eci_reference(eo).tobytes())


_FROM_1990 = utc(1990, 1, 1)
_DAYS_TO_2060 = (utc(2060, 1, 1) - _FROM_1990).days
_SECOND_US = 10 ** 6


@st.composite
def _instant(draw):
    """A UTC instant from 1990 to 2060: anywhere, or within a second of
    a UTC midnight or of a TT midnight, where the day of ``jd_pair``
    turns over."""
    near = draw(st.sampled_from([None, "UTC", "TT"]))
    if near is None:
        return _FROM_1990 + timedelta(microseconds=draw(
            st.integers(0, _DAYS_TO_2060 * 86400 * _SECOND_US)))
    midnight = _FROM_1990 + timedelta(days=draw(
        st.integers(1, _DAYS_TO_2060 - 1)))
    if near == "TT":
        midnight -= timedelta(seconds=TT_MINUS_UTC_S)
    return midnight + timedelta(microseconds=draw(
        st.integers(-_SECOND_US, _SECOND_US)))


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_instant())
def test_earth_orientation_bytes_match_reference(t):
    # The nutation series written out term by term, only the Delaunay
    # arguments it takes, and one stack of rotations per instant must
    # give every angle and matrix of the arithmetic as first written.
    eo = earth_orientation(t)
    ref = earth_orientation_reference(t)
    assert (np.array([eo.gmst, *eo.precession_angles, *eo.nutation,
                      eo.mean_obliquity]).tobytes()
            == np.array([ref.gmst, *ref.precession_angles, *ref.nutation,
                         ref.mean_obliquity]).tobytes())
    to_eci, pn, spin = eo.matrices
    assert to_eci.tobytes() == teme_to_eci_reference(ref).tobytes()
    assert pn.tobytes() == tod_to_j2000_reference(ref).tobytes()
    assert spin.tobytes() == rot3_reference(gast(ref)).tobytes()


_ENTRY = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(arrays(np.float64, (3, 3), elements=_ENTRY),
       arrays(np.float64, (3, 3), elements=_ENTRY),
       arrays(np.float64, 3, elements=_ENTRY),
       arrays(np.float64, 3, elements=_ENTRY))
def test_dot_and_sqrt_dot_match_matmul_and_norm_bytes(a, b, v, w):
    # The frame chain and the pass search call ndarray.dot and
    # sqrt(v.dot(v)) in place of @ and np.linalg.norm, for their lower
    # call overhead alone: each pair reaches the same BLAS routine on
    # the same operands.  A numpy or BLAS under which that stops holding
    # fails here by name, not as a golden mismatch.
    for m in (a, a.T, _read_only(a)):
        for x in (v, _read_only(v)):
            assert m.dot(x).tobytes() == (m @ x).tobytes()
        for x in (b, b.T, _read_only(b)):
            assert m.dot(x).tobytes() == (m @ x).tobytes()
    assert math.sqrt(v.dot(v)).hex() == float(np.linalg.norm(v)).hex()
    slant = w - v
    assume(v.dot(v) > 0.0 and slant.dot(slant) > 0.0)
    assert (_elevation(v, v / np.linalg.norm(v), w).hex()
            == elevation(v, w).hex())


def test_geodetic_round_trip(rng):
    for _ in range(500):
        lat = rng.uniform(-89.9, 89.9)
        lon = rng.uniform(-180, 180)
        alt = rng.uniform(-0.2, 600.0)
        r = geodetic_to_ecef(lat, lon, alt)
        lat2, lon2, alt2 = ecef_to_geodetic(r)
        assert abs(lat - lat2) < 1e-9
        assert abs(lon - lon2) < 1e-9
        assert abs(alt - alt2) < 1e-9


def test_local_frame_equatorial_prime_meridian():
    frame = build_local_frame((0.0, 0.0, 0.0))
    # gamma = 0, beta = pi / 2
    assert np.abs(frame.rotation
                  - rot2(math.pi / 2.0) @ rot3(0.0)).max() < 1e-12
    # the x-axis direction maps onto local +z
    tip = frame.to_local_point(frame.origin_ecef * 1.1)
    assert tip[0] == pytest.approx(0.0, abs=1e-9)
    assert tip[1] == pytest.approx(0.0, abs=1e-9)
    assert tip[2] > 0.0


def test_local_frame_polar_site_pure_translation():
    frame = build_local_frame((90.0, 0.0, 0.0))
    # gamma = 0, beta = 0
    assert np.abs(frame.rotation - rot2(0.0) @ rot3(0.0)).max() < 1e-9
    assert np.abs(frame.rotation - np.eye(3)).max() < 1e-9


def test_local_frame_orthonormality_over_random_sites(rng):
    for _ in range(1000):
        lat = rng.uniform(-90.0, 90.0)
        lon = rng.uniform(-180.0, 180.0)
        frame = build_local_frame((lat, lon, rng.uniform(0.0, 3.0)))
        r = frame.rotation
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_local_anchor_maps_to_origin():
    frame = build_local_frame((35.0, 139.0, 0.05))
    assert np.linalg.norm(frame.to_local_point(frame.origin_ecef)) < 1e-9


def test_zenith_satellite_on_local_z_axis():
    frame = build_local_frame((12.0, 77.0, 0.0))
    zenith = frame.origin_ecef / np.linalg.norm(frame.origin_ecef)
    sat = frame.origin_ecef + 550.0 * zenith
    local = frame.to_local_point(sat)
    assert abs(local[0]) < 1e-6
    assert abs(local[1]) < 1e-6
    assert local[2] == pytest.approx(550.0, abs=1e-6)


def test_local_round_trip(rng):
    frame = build_local_frame((-33.9, 18.4, 0.0))
    t = utc(2022, 1, 1)
    for _ in range(200):
        r = rng.uniform(-8000, 8000, 3)
        v = rng.uniform(-8, 8, 3)
        s = StateVector(Frame.ECEF, t, r, v)
        back = local_to_global(global_to_local(s, frame), frame)
        assert np.linalg.norm(back.position - r) < 1e-9
        assert np.linalg.norm(back.velocity - v) < 1e-12
