import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import city_config, ground_plane, utc
from oracle import nearest_hits, trace_every_ray
from leochan import tracer as tracer_module
from leochan.config import parse_config
from leochan.scene import Scene, generate_city
from leochan.simulate import prepare_pass
from leochan.states import Frame, StateVector
from leochan.tracer import (_BOUND_MAX_NORMALS, _SELF_HIT_EPS,
                            MAX_LAUNCH_RAYS, LaunchPlane,
                            SatelliteBelowHorizon, _bound_slack, _grid_bands,
                            _reaches_after_one_bounce, _reflect,
                            build_launch_plane, dump_paths,
                            launch_grid_bound, plane_wave_min_distance, trace)

T0 = utc(2023, 1, 1)
DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demo" / "sim.cfg"


def _faces(path):
    """The face ids a path reflects off, in order."""
    return tuple(i.face_id for i in path.interactions)


def _sat_state(position):
    return StateVector(Frame.LOCAL, T0, np.asarray(position, float),
                       np.zeros(3))


def _over_scene(scene):
    """Receiver arguments that leave the launch plane over ``scene``
    alone: the scene box's centre, with no capture radius."""
    return scene.bounds.mean(axis=0), 0.0


def _flat_setup(elevation_deg, spacing_m, rx=None, pad_km=0.02,
                width_m=1000.0):
    scene = ground_plane(width_m)
    el = math.radians(elevation_deg)
    sat = 550.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    if rx is None:
        rx = np.array([0.0, -0.02, 0.0015])  # off the ground diagonal
    plane = build_launch_plane(_sat_state(sat), scene, spacing_m, rx,
                               1.5 * spacing_m, extent_pad_km=pad_km)
    return scene, plane, np.asarray(rx)


def test_plane_at_zenith_sits_above_scene_top():
    # scene top at 0.15 km, margin 0.05 -> plane plane at z = 0.2
    city = generate_city(city_config(2, 2, scene_height_law="constant",
                                     scene_h_const_m=150.0))
    sat = _sat_state([0.0, 0.0, 550.0])
    plane = build_launch_plane(sat, city, 5.0, *_over_scene(city))
    assert np.allclose(plane.direction, [0.0, 0.0, -1.0], atol=1e-12)
    assert plane.origin[2] == pytest.approx(0.2, abs=1e-9)
    assert plane.d_atmosphere == pytest.approx(550.0 - 0.2, abs=1e-9)


def test_atmosphere_plus_los_equals_slant_range():
    scene = ground_plane(600.0)
    el = math.radians(40.0)
    sat = 600.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    # receiver exactly at the aim point (scene footprint center, ground)
    rx = np.zeros(3)
    plane = build_launch_plane(_sat_state(sat), scene, 2.0, rx, 3.0)
    los_leg = float(plane.direction @ (rx - plane.origin))
    slant = float(np.linalg.norm(sat - rx))
    assert plane.d_atmosphere + los_leg == pytest.approx(slant, abs=1e-6)


@pytest.mark.parametrize("half_v_scale", [1.0, 0.37, 2.9])
def test_launch_points_equal_per_point_sums(half_v_scale):
    # Row i * nv + j is origin + u_i * e1 + v_j * e2, summed left to
    # right, to the bit; half_v_scale 1 gives a square grid.
    rng = np.random.default_rng(int(half_v_scale * 100))
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        e1 = np.cross(direction, [0.0, 0.0, 1.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(direction, e1)
        half_u = rng.uniform(0.01, 0.2)
        plane = LaunchPlane(direction=direction,
                            origin=rng.uniform(-1.0, 1.0, 3), e1=e1, e2=e2,
                            half_u=half_u, half_v=half_u * half_v_scale,
                            spacing=rng.uniform(0.002, 0.02),
                            d_atmosphere=550.0, sat_position=np.zeros(3))
        nu, nv = plane.grid_shape()
        assert (nu == nv) == (half_v_scale == 1.0)
        ref = np.array([plane.origin + u * plane.e1 + v * plane.e2
                        for u in -plane.half_u + plane.spacing * np.arange(nu)
                        for v in -plane.half_v + plane.spacing * np.arange(nv)])
        points = plane.launch_points()
        assert points.shape == (nu * nv, 3)
        assert np.array_equal(points, ref)


def test_below_horizon_raises():
    scene = ground_plane(500.0)
    with pytest.raises(SatelliteBelowHorizon):
        build_launch_plane(_sat_state([550.0, 0.0, -1.0]), scene, 2.0,
                           *_over_scene(scene))


def test_satellite_too_close_for_plane_wave_raises():
    # the backstop to simulate's perigee check, for SGP4's short-period
    # terms: 100 times a 0.12 km scene's height is 12 km
    city = generate_city(city_config(2, 2, scene_height_law="constant",
                                     scene_h_const_m=120.0))
    need = plane_wave_min_distance(0.12)
    assert need == pytest.approx(12.0)
    build_launch_plane(_sat_state([0.0, 0.0, need * 1.001]), city, 4.0,
                       *_over_scene(city))
    with pytest.raises(ValueError, match="plane-wave"):
        build_launch_plane(_sat_state([0.0, 0.0, need * 0.999]), city, 4.0,
                           *_over_scene(city))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.lists(st.floats(1e-3, 2.0), min_size=3, max_size=3),
       st.floats(0.5, 90.0), st.floats(0.0, 360.0), st.floats(0.5, 60.0),
       st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
       st.floats(0.0, 3.0))
def test_launch_grid_bound_covers_every_direction(corner, size, el_deg,
                                                  az_deg, spacing_m, rx,
                                                  radius):
    # a box's two diagonal triangles give the scene that box; the
    # receiver lies in it or up to about 5 km outside
    lo = np.array(corner)
    hi = lo + np.array(size)
    scene = Scene([[lo, (hi[0], lo[1], lo[2]), (lo[0], hi[1], hi[2])],
                   [hi, (lo[0], hi[1], hi[2]), (hi[0], lo[1], lo[2])]])
    el, az = math.radians(el_deg), math.radians(az_deg)
    sat = 800.0 * np.array([math.cos(el) * math.cos(az),
                            math.cos(el) * math.sin(az), math.sin(el)])
    rx_radius_m = radius * spacing_m
    try:
        plane = build_launch_plane(_sat_state(sat), scene, spacing_m, rx,
                                   rx_radius_m)
    except SatelliteBelowHorizon:
        return
    nu, nv = plane.grid_shape()
    side = math.isqrt(launch_grid_bound(scene, spacing_m, rx, rx_radius_m))
    assert nu <= side and nv <= side


def test_launch_grid_cap_admits_c06_half_metre_scene():
    assert launch_grid_bound(ground_plane(1000.0), 0.5,
                             [0.0, -0.02, 0.0015], 0.75) <= MAX_LAUNCH_RAYS


def test_low_elevation_extent_covers_scene_shadow():
    # oracle: every scene corner projects inside the plane rectangle
    city = generate_city(city_config(3, 3, seed=1))
    el = math.radians(5.0)
    sat = 1500.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    plane = build_launch_plane(_sat_state(sat), city, 4.0,
                               *_over_scene(city))
    tilt = math.degrees(math.acos(abs(plane.direction[2])))
    assert tilt == pytest.approx(85.0, abs=0.5)
    bmin, bmax = city.bounds
    corners = np.array([[x, y, z]
                        for x in (bmin[0], bmax[0])
                        for y in (bmin[1], bmax[1])
                        for z in (bmin[2], bmax[2])])
    d = plane.direction
    c = float(d @ plane.origin)
    feet = corners - np.outer(corners @ d - c, d)
    u = (feet - plane.origin) @ plane.e1
    v = (feet - plane.origin) @ plane.e2
    assert (np.abs(u) <= plane.half_u + 1e-12).all()
    assert (np.abs(v) <= plane.half_v + 1e-12).all()


def test_flat_ground_exactly_two_paths():
    scene, plane, rx = _flat_setup(45.0, spacing_m=2.0)
    paths = trace(plane, scene, rx, rx_radius_m=3.0, max_bounces=2)
    assert [p.bounce_count for p in paths] == [0, 1]


def test_flat_ground_image_source_lengths():
    spacing = 2.0
    scene, plane, rx = _flat_setup(45.0, spacing_m=spacing)
    paths = trace(plane, scene, rx, rx_radius_m=1.5 * spacing, max_bounces=2)
    d = plane.direction
    p0 = plane.origin
    los_oracle = float(d @ (rx - p0))
    rx_image = rx * np.array([1.0, 1.0, -1.0])
    ref_oracle = float(d @ (rx_image - p0))
    bound = 2.0 * spacing / 1000.0
    assert abs(paths[0].d_near_ground - los_oracle) <= bound
    assert abs(paths[1].d_near_ground - ref_oracle) <= bound


def test_capture_miss_distance_bounded_by_radius():
    scene, plane, rx = _flat_setup(60.0, spacing_m=3.0)
    paths = trace(plane, scene, rx, rx_radius_m=4.5, max_bounces=1)
    for p in paths:
        assert p.miss_distance <= 4.5 / 1000.0


@pytest.mark.parametrize("max_bounces", [0, 1, 2, 3])
def test_empty_scene_sees_only_the_sky(max_bounces):
    # No face: nothing to bound or hit, and the receiver gets its line
    # of sight alone.
    scene = Scene(np.empty((0, 3, 3)))
    plane = LaunchPlane(direction=np.array([0.0, 0.0, -1.0]),
                        origin=np.array([0.0, 0.0, 0.1]),
                        e1=np.array([1.0, 0.0, 0.0]),
                        e2=np.array([0.0, 1.0, 0.0]), half_u=0.01,
                        half_v=0.01, spacing=0.002, d_atmosphere=500.0,
                        sat_position=np.array([0.0, 0.0, 500.1]))
    paths = trace(plane, scene, np.zeros(3), 3.0, max_bounces)
    want = trace_every_ray(plane, scene, np.zeros(3), 3.0, max_bounces)
    assert [p.bounce_count for p in paths] == [0]
    assert [(p.launch_index, p.d_near_ground) for p in paths] == [
        (p.launch_index, p.d_near_ground) for p in want]


def test_occluded_receiver_yields_empty_result():
    # receiver inside a closed box, direct rays only
    city = generate_city(city_config(
        1, 1, scene_block_w_m=60.0, scene_street_w_m=20.0,
        scene_height_law="constant", scene_h_const_m=40.0))
    rx = np.array([0.0, 0.0, 0.02])  # center of the lone building
    sat = _sat_state([200.0, 0.0, 500.0])
    plane = build_launch_plane(sat, city, 3.0, rx, 4.5)
    assert trace(plane, city, rx, rx_radius_m=4.5, max_bounces=0) == []


def test_specularity_and_segment_validity():
    city = generate_city(city_config(2, 2, seed=8))
    el = math.radians(35.0)
    sat = 600.0 * np.array([math.cos(el), math.sin(el) * 0.2, math.sin(el)])
    sat = 600.0 * sat / np.linalg.norm(sat)
    rx = np.array([0.0, 0.0, 0.0015])
    plane = build_launch_plane(_sat_state(sat), city, 3.0, rx, 4.5)
    paths = trace(plane, city, rx, rx_radius_m=4.5, max_bounces=2)
    assert paths, "expected at least one path in the test scene"
    launch_points = plane.launch_points()
    for p in paths:
        start = launch_points[p.launch_index]
        direction = plane.direction
        for inter in p.interactions:
            seg = inter.point - start
            seg_len = np.linalg.norm(seg)
            seg_dir = seg / seg_len
            # incoming matches the current direction
            assert np.allclose(seg_dir, direction, atol=1e-9)
            # the tracer's reflection is specular: angle in == angle
            # out, and in, out and normal are coplanar
            normal, _, out = (v[0] for v in _reflect(
                direction[None], city.normals[[inter.face_id]]))
            angle_in = math.acos(min(1.0, -float(direction @ normal)))
            angle_out = math.acos(min(1.0, float(out @ normal)))
            assert abs(angle_in - angle_out) < 1e-9
            assert abs(float(np.cross(direction, normal) @ out)) < 1e-9
            assert abs(angle_in - inter.incidence_angle) < 1e-9
            # no scene hit strictly inside the segment
            _, blocker, _ = nearest_hits(city, start[None], seg_dir[None],
                                         1e-7, seg_len - 1e-7)
            assert blocker[0] == -1
            start = inter.point
            direction = out


def test_deterministic_trace():
    city = generate_city(city_config(3, 2, seed=4))
    sat = _sat_state([300.0, 100.0, 480.0])
    rx = np.array([0.0, 0.0, 0.0015])
    plane = build_launch_plane(sat, city, 4.0, rx, 6.0)
    a = trace(plane, city, rx, rx_radius_m=6.0, max_bounces=2)
    b = trace(plane, city, rx, rx_radius_m=6.0, max_bounces=2)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.launch_index == pb.launch_index
        assert _faces(pa) == _faces(pb)
        assert pa.d_near_ground == pb.d_near_ground


def test_one_intersection_call_per_segment(monkeypatch):
    # The benchmark numbers bounce segments by counting intersect_batch
    # calls (the k-th call of a trace is segment k), and only segment
    # 0's rays are the launch grid's.  The last segment intersects only
    # the rays that pass within the capture radius.
    calls = []
    query = Scene.intersect_batch

    def counted(self, origins, directions, t_min=0.0, grid=None, keep=None):
        result = query(self, origins, directions, t_min, grid=grid,
                       keep=keep)
        calls.append((grid, origins, directions,
                      int((result[1] >= 0).sum())))
        return result

    monkeypatch.setattr(Scene, "intersect_batch", counted)
    city = generate_city(city_config(2, 2, seed=8))
    rx = np.array([0.0, 0.0, 0.01])
    plane = build_launch_plane(_sat_state([250.0, -40.0, 490.0]), city,
                               4.0, rx, 6.0)
    paths = trace(plane, city, rx, rx_radius_m=6.0, max_bounces=2)
    assert 2 in [p.bounce_count for p in paths]
    assert len(calls) == 3
    assert calls[0][0] is plane
    # segment 0 holds the launch direction once, not once per ray
    assert calls[0][2].strides[0] == 0
    assert [grid for grid, *_ in calls[1:]] == [None, None]
    # the segments before the last had rays that hit, so none was skipped
    assert all(hits > 0 for *_, hits in calls[:2])
    # segment 1 has one bounce left: the bound keeps only some of the
    # rays that segment 0 reflected
    assert 0 < len(calls[1][1]) < calls[0][3]
    _, origins, directions, _ = calls[2]
    assert len(origins) >= 1
    s_star = np.einsum("ij,ij->i", rx - origins, directions)
    foot = origins + s_star[:, None] * directions
    miss = np.linalg.norm(rx - foot, axis=1)
    assert (s_star > 0.0).all()
    assert (miss <= 6.0 / 1000.0).all()


def test_bound_dropping_every_ray_still_calls_once(monkeypatch):
    # A receiver 5 km to the side of a lone block lit from 40 degrees up:
    # no wedge of a reflected ray passes near it.  At three bounces the
    # bound on segment 2 drops every ray that two reflections sent on,
    # and segment 2 still makes its one (zero-row) call before the trace
    # ends.  At two bounces the launch grid's bound keeps no launch ray,
    # so segment 0 reports no hit and is the only call.
    calls = []
    query = Scene.intersect_batch

    def counted(self, origins, directions, t_min=0.0, grid=None, keep=None):
        result = query(self, origins, directions, t_min, grid=grid,
                       keep=keep)
        calls.append((len(origins), int((result[1] >= 0).sum())))
        return result

    monkeypatch.setattr(Scene, "intersect_batch", counted)
    city = generate_city(city_config(
        1, 1, scene_block_w_m=60.0, scene_street_w_m=60.0,
        scene_height_law="constant", scene_h_const_m=60.0))
    el, az = math.radians(40.0), math.radians(30.0)
    sat = 550.0 * np.array([math.cos(el) * math.cos(az),
                            math.cos(el) * math.sin(az), math.sin(el)])
    # a plane over the block alone, which does not reach the receiver
    # 5 km off: the bound is under test, not the sky
    plane = build_launch_plane(_sat_state(sat), city, 4.0,
                               *_over_scene(city))
    m = len(plane.launch_points())
    rx = np.array([0.0, 5.0, 0.01])
    assert trace(plane, city, rx, rx_radius_m=6.0, max_bounces=3) == []
    assert [rays for rays, _ in calls] == [m, calls[0][1], 0]
    assert calls[1][1] > 0
    assert trace_every_ray(plane, city, rx, 6.0, 3) == []
    calls.clear()
    assert trace(plane, city, rx, rx_radius_m=6.0, max_bounces=2) == []
    assert calls == [(m, 0)]
    assert trace_every_ray(plane, city, rx, 6.0, 2) == []


def test_refining_spacing_keeps_coarse_paths():
    coarse_spacing = 4.0
    scene, plane, rx = _flat_setup(50.0, spacing_m=coarse_spacing,
                                   pad_km=0.05)
    fine_plane = dataclasses.replace(plane, spacing=plane.spacing / 2.0)
    coarse = trace(plane, scene, rx, rx_radius_m=1.5 * coarse_spacing,
                   max_bounces=2)
    fine = trace(fine_plane, scene, rx, rx_radius_m=1.5 * coarse_spacing,
                 max_bounces=2)
    coarse_keys = {_faces(p) for p in coarse}
    fine_keys = {_faces(p) for p in fine}
    assert coarse_keys <= fine_keys


def test_paths_sorted_and_unit_vectors():
    city = generate_city(city_config(2, 2, seed=8))
    sat = _sat_state([250.0, -40.0, 490.0])
    rx = np.array([0.0, 0.0, 0.0015])
    plane = build_launch_plane(sat, city, 4.0, rx, 6.0)
    paths = trace(plane, city, rx, rx_radius_m=6.0, max_bounces=2)
    keys = [(p.bounce_count, p.d_near_ground) for p in paths]
    assert keys == sorted(keys)
    for p in paths:
        assert abs(np.linalg.norm(p.aod) - 1.0) < 1e-9
        assert p.bounce_count == len(p.interactions) <= 2
        # near-ground length consistent with the recorded geometry
        pts = [plane.launch_points()[p.launch_index]]
        pts += [i.point for i in p.interactions]
        seg_sum = sum(np.linalg.norm(b - a) for a, b in zip(pts, pts[1:]))
        foot_leg = abs(p.d_near_ground - seg_sum)
        # remaining leg reaches the receiver up to the capture radius
        last_to_rx = np.linalg.norm(rx - pts[-1])
        assert foot_leg <= last_to_rx + 1e-9


def test_dump_paths_format():
    scene, plane, rx = _flat_setup(45.0, spacing_m=3.0)
    paths = trace(plane, scene, rx, rx_radius_m=4.5, max_bounces=1)
    text = dump_paths(paths)
    lines = [ln for ln in text.splitlines() if ln]
    assert len(lines) == len(paths)
    assert lines[0].split()[1] == "0"  # LOS first


def _overhead_midway_case(spacing_m, i, axis):
    """Satellite exactly overhead a ground plane, and a receiver midway
    between launch ray (i, i) and its next neighbour along one grid
    axis, half a spacing from both: they lie on the capture radius.
    Where the spacing is a power of two in km, the miss distances equal
    the radius to the bit; elsewhere the receiver's grid coordinate
    rounds, so the receiver window needs its extra step."""
    scene = ground_plane(spacing_m * 20)
    plane = build_launch_plane(_sat_state([0.0, 0.0, 600.0]), scene,
                               spacing_m, *_over_scene(scene))
    points = plane.launch_points()
    nv = plane.grid_shape()[1]
    a = i * nv + i
    b = a + (nv if axis == 0 else 1)
    rx = 0.5 * (points[a] + points[b]) + 0.03 * plane.direction
    return plane, scene, rx, spacing_m / 2.0, 0


def _unit(v):
    return v / np.linalg.norm(v)


def _captured(origin, direction, rx, rx_radius):
    """The tracer's capture test on one segment, without the next hit:
    its closest approach lies ahead of it and within the radius."""
    o, d = origin[None], direction[None]
    s_star = np.einsum("ij,ij->i", rx[None, :] - o, d)
    foot = o + s_star[:, None] * d
    miss = np.linalg.norm(rx[None, :] - foot, axis=1)
    return bool(s_star[0] > 0.0 and miss[0] <= rx_radius)


@st.composite
def _bounce_case(draw):
    """A ray o + t d on a segment with one bounce left, the normal n of
    the face it hits at t, and a receiver placed from the ray, or from
    the reflected ray the tracer computes, at a drawn fraction of the
    capture radius."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = np.eye(3)[rng.integers(3)]
    n = draw(st.sampled_from([axis, _unit(rng.normal(size=3))]))
    kind = draw(st.sampled_from(["any", "parallel", "perpendicular",
                                 "near_parallel", "near_perpendicular"]))
    other = _unit(np.cross(n, rng.normal(size=3)))
    if kind == "any":
        d = _unit(rng.normal(size=3))
    elif kind == "parallel":
        d = -n if rng.random() < 0.5 else n.copy()
    elif kind == "perpendicular":
        d = other
    elif kind == "near_parallel":
        d = _unit(-n + 10.0 ** rng.uniform(-13, -1) * other)
    else:
        d = _unit(other + 10.0 ** rng.uniform(-12, -3) * n)
    o = rng.uniform(-1.0, 1.0, 3)
    t = 10.0 ** rng.uniform(-6, 0.3)
    # the tracer's hit point and reflection
    inc = d[None]
    p = (o[None] + np.array([t])[:, None] * inc)[0]
    d_out = _reflect(inc, n[None])[2][0]
    rx_radius = 10.0 ** rng.uniform(-4, -1)
    where = draw(st.sampled_from(["reflected", "own", "origin"]))
    if where == "origin":
        rx = o.copy()
    else:
        start, direction = (p, d_out) if where == "reflected" else (o, d)
        side = _unit(np.cross(direction, rng.normal(size=3)))
        frac = draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-9, 1.5]))
        s = 10.0 ** rng.uniform(-6, 0.3)
        rx = start + s * direction + frac * rx_radius * side
    bounds = np.stack([np.minimum(o, p), np.maximum(o, p)])
    normals = np.concatenate([rng.normal(size=(draw(st.integers(0, 4)), 3)),
                              n[None] * draw(st.sampled_from([1.0, -1.0]))])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return o, d, p, d_out, rx, rx_radius, bounds, rng.permutation(normals)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_bounce_case())
def test_bound_keeps_every_capturable_ray(case):
    # Whatever the tracer would capture, on the ray's own segment or
    # after its bounce, must pass the one-bounce bound, including at the
    # capture radius, with d parallel or perpendicular to the normal,
    # and with the receiver at the ray's origin.
    o, d, p, d_out, rx, rx_radius, bounds, normals = case
    keep = _reaches_after_one_bounce(
        o[None], d[None], rx, _bound_slack(rx, rx_radius, bounds), normals)
    if _captured(o, d, rx, rx_radius) or _captured(p, d_out, rx, rx_radius):
        assert keep[0]


def _wedge_distance(w, d, d_out):
    """Distance from w to {a d + b d_out : a, b >= 0}, by the Gram
    system and the two edge rays."""
    best = min(np.linalg.norm(w - max(w @ v, 0.0) / (v @ v) * v)
               for v in (d, d_out))
    gram = np.array([[d @ d, d @ d_out], [d @ d_out, d_out @ d_out]])
    if abs(np.linalg.det(gram)) > 1e-12:
        a, b = np.linalg.solve(gram, [w @ d, w @ d_out])
        if a >= 0.0 and b >= 0.0:
            best = min(best, np.linalg.norm(w - a * d - b * d_out))
    return best


def test_bound_drops_rays_far_from_their_wedge(rng):
    # Not vacuous: of rays aimed at random around a receiver, the bound
    # keeps those whose wedge passes within reach and drops the rest,
    # as a brute-force distance to each wedge says.
    normals = np.eye(3)
    origins = rng.uniform(-1.0, 1.0, (3000, 3))
    dirs = rng.normal(size=(3000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rx, rx_radius = np.array([0.1, -0.2, 0.05]), 0.05
    keep = _reaches_after_one_bounce(origins, dirs, rx, rx_radius, normals)
    for o, d, k in zip(origins, dirs, keep):
        if (1.0 - (d @ normals.T) ** 2).min() < 1e-4:
            continue  # a normal nearly along d keeps the ray
        best = min(_wedge_distance(rx - o, d,
                                   _reflect(d[None], n[None])[2][0])
                   for n in normals)
        assert k == (best <= rx_radius)
    assert 0 < keep.sum() < len(keep)


def test_bound_degenerate_wedge_is_the_ray():
    # Light from azimuth 0 keeps every reflection off the block's walls
    # and the ground in the x-z plane, exactly perpendicular to the
    # normal (0, 1, 0): for it d' = d, so the wedge is the ray itself,
    # and a receiver 5 km along y, within the capture radius of the
    # plane of d and that normal but far from every ray, keeps none.
    city = generate_city(city_config(1, 1, seed=3))
    el = math.radians(40.0)
    sat = 600.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    # a plane over the block alone, as in the test above
    plane = build_launch_plane(_sat_state(sat), city, 4.0,
                               *_over_scene(city))
    rx, rx_radius = np.array([0.0, 5.0, 0.0015]), 0.006
    _, p, out = _march(plane, city, 1)
    assert len(p) > 0 and (out[:, 1] == 0.0).all()
    keep = _reaches_after_one_bounce(
        p, out, rx, _bound_slack(rx, rx_radius, city.bounds),
        city.distinct_normals)
    assert not keep.any()


def test_grid_bound_degenerate_wedge_is_the_ray():
    # The same lone block and receiver on the launch grid: with no
    # receiver window, the bands keep none of the launch rays that hit,
    # as the bound on their reflections keeps none.
    city = generate_city(city_config(1, 1, seed=3))
    el = math.radians(40.0)
    sat = 600.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    # a plane over the block alone, as in the test above
    plane = build_launch_plane(_sat_state(sat), city, 4.0,
                               *_over_scene(city))
    rx, rx_radius = np.array([0.0, 5.0, 0.0015]), 0.006
    origins = plane.launch_points()
    dirs = np.broadcast_to(plane.direction, origins.shape)
    fid = city.intersect_batch(origins, dirs, _SELF_HIT_EPS, grid=plane)[1]
    assert (fid >= 0).sum() == 610
    keep = _grid_bands(plane, city, rx,
                       _bound_slack(rx, rx_radius, city.bounds),
                       city.distinct_normals,
                       np.zeros(len(origins), dtype=bool))
    fid = city.intersect_batch(origins, dirs, _SELF_HIT_EPS, grid=plane,
                               keep=keep)[1]
    assert (fid >= 0).sum() == 0


def _march(plane, scene, bounces):
    """Launch indices, origins and directions of the rays after
    ``bounces`` reflections, with the tracer's arithmetic."""
    origins = plane.launch_points()
    dirs = np.broadcast_to(plane.direction, origins.shape)
    launch_idx = np.arange(len(origins))
    for segment in range(bounces):
        t, fid = scene.intersect_batch(
            origins, dirs, _SELF_HIT_EPS,
            grid=plane if segment == 0 else None)
        idx = np.flatnonzero(fid >= 0)
        inc = dirs[idx]
        origins = origins[idx] + t[idx, None] * inc
        dirs = _reflect(inc, scene.normals[fid[idx]])[2]
        launch_idx = launch_idx[idx]
    return launch_idx, origins, dirs


def _reflected_ray_case(max_bounces, bounces, frac):
    """A receiver at ``frac`` times the capture radius from a ray after
    its ``bounces``-th reflection, partway along its free run.  After
    two reflections: on the last segment at two bounces, and on the
    bounded segment itself at three.  After three, off the ground and
    two walls that face different ways, the ray heads straight back
    towards the satellite, out of the one-bounce wedge of its second
    segment: only segments with one bounce left may be bounded."""
    city = generate_city(city_config(2, 2, seed=8))
    plane = build_launch_plane(_sat_state([300.0, 200.0, 400.0]), city,
                               4.0, *_over_scene(city))
    _, origins, dirs = _march(plane, city, bounces)
    t = city.intersect_batch(origins, dirs, _SELF_HIT_EPS)[0]
    # a ray that leaves the scene runs 40 m before the receiver
    run = np.where(np.isfinite(t), t, 0.04)
    if bounces == 3:
        run[np.any(dirs != -plane.direction, axis=1)] = 0.0
    i = int(np.argmax(run))
    rx_radius_m = 3.0
    side = _unit(np.cross(dirs[i], [0.3, -0.2, 0.9]))
    rx = (origins[i] + 0.5 * run[i] * dirs[i]
          + frac * rx_radius_m / 1000.0 * side)
    return plane, city, rx, rx_radius_m, max_bounces


def _turn(angle_deg):
    """The rotation about the vertical by ``angle_deg``."""
    c, s = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _turned(scene, angle_deg):
    """``scene`` turned about the vertical by ``angle_deg``."""
    return Scene(scene.triangles @ _turn(angle_deg).T)


def _zenith_case(offset_deg, az_deg, max_bounces):
    """A city lit from ``offset_deg`` off the zenith, or from exactly
    overhead its centre: walls nearly parallel to the launch rays (|n.d|
    of 1e-3 and below, or 0), and ground reflections within 0.1 degrees
    of the vertical, where the one-bounce bound keeps every ray.  The
    receiver stands in the middle street."""
    city = generate_city(city_config(2, 2, seed=8))
    if offset_deg == 0.0:
        sat = np.append(city.bounds.mean(axis=0)[:2], 600.0)
    else:
        el, az = math.radians(90.0 - offset_deg), math.radians(az_deg)
        sat = 600.0 * np.array([math.cos(el) * math.cos(az),
                                math.cos(el) * math.sin(az), math.sin(el)])
    rx = np.array([0.0, 0.0015, 0.0015])
    plane = build_launch_plane(_sat_state(sat), city, 4.0, rx, 6.0)
    return plane, city, rx, 6.0, max_bounces


def _band_edge_case(frac):
    """A receiver at ``frac`` times the capture radius from a twice
    reflected ray, off the plane of its first reflected ray and its
    second face's normal n2.  That puts the first hit on the edge of the
    launch grid's band for n2, up to the bound's rounding slack."""
    city = generate_city(city_config(2, 2, seed=8))
    plane = build_launch_plane(_sat_state([300.0, 200.0, 400.0]), city,
                               4.0, *_over_scene(city))
    _, origins, dirs = _march(plane, city, 1)
    t, fid = city.intersect_batch(origins, dirs, _SELF_HIT_EPS)
    hit = np.flatnonzero(fid >= 0)
    inc = dirs[hit]
    second = origins[hit] + t[hit, None] * inc
    n, _, out = _reflect(inc, city.normals[fid[hit]])
    run = city.intersect_batch(second, out, _SELF_HIT_EPS)[0]
    run = np.where(np.isfinite(run), run, 0.04)
    i = int(np.argmax(run))
    rx_radius_m = 3.0
    side = _unit(np.cross(inc[i], n[i]))
    rx = (second[i] + 0.5 * run[i] * out[i]
          + frac * rx_radius_m / 1000.0 * side)
    return plane, city, rx, rx_radius_m, 2


def _turned_city_case():
    """A 9x9 city turned by 30 degrees: its walls' normals, each rounded
    from its own vertices, make more distinct rows than
    ``_BOUND_MAX_NORMALS``, so no bound runs."""
    city = _turned(generate_city(city_config(9, 9, seed=1)), 30.0)
    assert len(city.distinct_normals) > _BOUND_MAX_NORMALS
    # at a street crossing, which sees the sky and one reflection
    rx = _turn(30.0) @ np.array([0.05, 0.05, 0.0015])
    plane = build_launch_plane(_sat_state([300.0, 200.0, 400.0]), city,
                               20.0, rx, 30.0)
    return plane, city, rx, 30.0, 2


def _rotated_city(draw, spacing_m):
    """A generated city turned about the vertical by a drawn angle: its
    walls face no axis."""
    city = generate_city(city_config(
        draw(st.integers(1, 2)), draw(st.integers(1, 2)),
        scene_block_w_m=spacing_m * draw(st.integers(2, 8)),
        scene_street_w_m=spacing_m * draw(st.integers(1, 3)),
        scene_h_min_m=spacing_m, scene_h_max_m=spacing_m * 8.0,
        seed=draw(st.integers(0, 2**31 - 1))))
    return _turned(city, draw(st.floats(1.0, 89.0)))


def _soup_scene(draw, spacing_m, rng):
    """Randomly oriented triangles a few spacings wide over a ground
    plane: below the bound's normal limit or above it."""
    few = draw(st.booleans())
    count = (draw(st.integers(2, 10)) if few else
             draw(st.integers(_BOUND_MAX_NORMALS + 1,
                              _BOUND_MAX_NORMALS + 8)))
    half = spacing_m * draw(st.integers(6, 16)) / 1000.0
    centres = rng.uniform([-half, -half, 0.0], [half, half, half],
                          (count, 1, 3))
    tris = centres + rng.normal(size=(count, 3, 3)) * 3.0 * spacing_m / 1000.0
    ground = 1.5 * half * np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0],
                                    [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]])
    tris = np.concatenate([tris, ground[[[0, 1, 2], [0, 2, 3]]]])
    scene = Scene(tris)
    assert (len(scene.distinct_normals) <= _BOUND_MAX_NORMALS) == few
    return scene


@st.composite
def _trace_case(draw):
    # Scenes are sized in spacings, so that the grid stays small.
    # 1000 / 256 m is a power of two in km, so exact grid distances
    # come out exact
    spacing_m = draw(st.one_of(st.sampled_from([2.0, 1000.0 / 256, 20.0]),
                               st.floats(2.0, 20.0)))
    scene_kind = draw(st.sampled_from(["city", "soup", "rotated_city",
                                       "ground"]))
    if scene_kind == "ground":
        scene = ground_plane(spacing_m * draw(st.integers(4, 40)))
    elif scene_kind == "rotated_city":
        scene = _rotated_city(draw, spacing_m)
    elif scene_kind == "soup":
        scene = _soup_scene(
            draw, spacing_m,
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        scene = generate_city(city_config(
            draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            scene_block_w_m=spacing_m * draw(st.integers(2, 10)),
            scene_street_w_m=spacing_m * draw(st.integers(1, 4)),
            scene_h_min_m=spacing_m, scene_h_max_m=spacing_m * 8.0,
            seed=draw(st.integers(0, 2**31 - 1))))
    el = math.radians(draw(st.one_of(st.sampled_from([5.0, 45.0, 90.0]),
                                     st.floats(5.0, 90.0))))
    az = math.radians(draw(st.one_of(
        st.sampled_from([0.0, 45.0, 90.0, 180.0, 270.0]),
        st.floats(0.0, 360.0))))
    sat = 600.0 * np.array([math.cos(el) * math.cos(az),
                            math.cos(el) * math.sin(az), math.sin(el)])
    if el == math.radians(90.0):
        # exactly overhead the scene's centre, as the plane aims
        sat = np.append(scene.bounds.mean(axis=0)[:2], 600.0)
    # over the scene alone: some receivers below lie outside it
    plane = build_launch_plane(_sat_state(sat), scene, spacing_m,
                               *_over_scene(scene))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["face", "above", "outside", "on_ray",
                                 "midway"]))
    if kind in ("face", "above"):
        # on the ground, a wall or a roof, or above it
        a, b = sorted(rng.random(2))
        tri = scene.triangles[rng.integers(len(scene))]
        rx = a * tri[0] + (b - a) * tri[1] + (1.0 - b) * tri[2]
        if kind == "above":
            rx = rx + [0.0, 0.0, rng.uniform(0.0, 3.0 * spacing_m) / 1e3]
    elif kind == "outside":
        # beyond the launch grid's footprint, in the plane's own terms
        side = rng.choice([-1.0, 1.0])
        rx = plane.origin + side * (plane.half_u + 4.0 * plane.spacing
                                    + rng.uniform(0.0, 0.05)) * plane.e1
        rx = rx + rng.uniform(0.0, 0.2) * plane.direction
    else:
        # on a launch ray, or midway between two neighbouring ones
        points = plane.launch_points()
        nu, nv = plane.grid_shape()
        i, j = rng.integers(nu - 1), rng.integers(nv - 1)
        di, dj = ((1, 0), (0, 1))[rng.integers(2)]
        rx = points[i * nv + j]
        if kind == "midway":
            rx = 0.5 * (rx + points[(i + di) * nv + j + dj])
        rx = rx + rng.uniform(0.0, 0.3) * plane.direction

    radius_kind = draw(st.sampled_from(["grid", "scene", "any"]))
    if radius_kind == "grid":
        # an exact grid distance: rays at the radius are on its border
        rx_radius_m = spacing_m * draw(st.sampled_from([0.5, 1, 1.5, 2,
                                                        3, 5]))
    elif radius_kind == "scene":
        rx_radius_m = 1e4
    else:
        rx_radius_m = spacing_m * draw(st.floats(0.3, 3.0))
    # two and three bounces first: they run the one-bounce bound
    return plane, scene, rx, rx_radius_m, draw(st.sampled_from([2, 3, 1, 0]))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_trace_case())
@example(_overhead_midway_case(2.0, 13, 0))
@example(_overhead_midway_case(1000.0 / 256, 10, 1))
@example(_reflected_ray_case(2, 2, 1.0))
@example(_reflected_ray_case(2, 2, 1.0 - 1e-12))
@example(_reflected_ray_case(3, 2, 1.0))
@example(_reflected_ray_case(3, 2, 1.0 - 1e-12))
@example(_reflected_ray_case(3, 3, 1.0 - 1e-12))
@example(_reflected_ray_case(1, 1, 1.0))
@example(_reflected_ray_case(1, 1, 1.0 - 1e-12))
@example(_zenith_case(0.0, 0.0, 2))
@example(_zenith_case(0.05, 0.0, 2))
@example(_zenith_case(0.05, 30.0, 1))
@example(_band_edge_case(1.0))
@example(_band_edge_case(1.0 - 1e-12))
@example(_turned_city_case())
def test_trace_equals_every_ray_march(case):
    # The receiver window, the one-bounce bound on the launch grid and
    # on later segments, the capture-first last segment and the
    # live-only history must give the records of the march that
    # intersects and tests every ray on every segment, to the bit: on
    # cities, turned cities, triangle soups below and above the bound's
    # normal limit, receivers at the capture radius of a ray reflected
    # once, twice or three times, or on the edge of a launch grid band,
    # and light from the zenith or within 0.1 degrees of it.
    plane, scene, rx, rx_radius_m, max_bounces = case
    got = trace(plane, scene, rx, rx_radius_m, max_bounces)
    want = trace_every_ray(plane, scene, rx, rx_radius_m, max_bounces)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.launch_index == q.launch_index
        assert _faces(p) == _faces(q)
        assert p.d_near_ground == q.d_near_ground
        assert p.miss_distance == q.miss_distance
        assert np.array_equal(p.aod, q.aod)
        for a, b in zip(p.interactions, q.interactions):
            assert np.array_equal(a.point, b.point)
            assert a.incidence_angle == b.incidence_angle


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_trace_case())
@example(_zenith_case(0.0, 0.0, 2))
@example(_zenith_case(0.05, 0.0, 2))
@example(_zenith_case(0.05, 30.0, 2))
@example(_band_edge_case(1.0))
@example(_band_edge_case(1.0 - 1e-12))
def test_grid_bound_keeps_every_ray_the_bound_keeps(case):
    # Segment 0's keep, at one bounce and at two, must hold every launch
    # ray whose full-grid hit, reflected as the tracer reflects it,
    # passes the one-bounce bound; every kept ray gets the full grid's
    # hit to the bit, and a ray that is not kept reports a miss.  No
    # receiver window, so that the keep stands on the bound alone.
    plane, scene, rx, rx_radius_m, _ = case
    axes = scene.distinct_normals
    if len(axes) > _BOUND_MAX_NORMALS:
        return
    rx_radius = rx_radius_m / 1000.0
    slack = _bound_slack(rx, rx_radius, scene.bounds)
    origins = plane.launch_points()
    dirs = np.broadcast_to(plane.direction, origins.shape)
    t, fid = scene.intersect_batch(origins, dirs, _SELF_HIT_EPS, grid=plane)
    hit = np.flatnonzero(fid >= 0)
    inc = dirs[hit]
    p = origins[hit] + t[hit, None] * inc
    out = _reflect(inc, scene.normals[fid[hit]])[2]
    window = np.zeros(len(origins), dtype=bool)
    keep = _grid_bands(plane, scene, rx, slack, axes, window)
    needed = _reaches_after_one_bounce(p, out, rx, slack, axes)
    t_k, fid_k = scene.intersect_batch(
        origins, dirs, _SELF_HIT_EPS, grid=plane, keep=keep)
    kept = fid_k >= 0
    assert kept[hit[needed]].all()
    assert np.array_equal(fid_k[kept], fid[kept])
    assert np.array_equal(t_k[kept], t[kept])
    assert np.isinf(t_k[~kept]).all()


def test_grid_bound_work_counts_on_the_demo_pass(monkeypatch):
    # Counts of work, which do not move with the host's speed.  At three
    # instants of the demo pass, segment 1 gets exactly the rays, in the
    # same order, that the march over the full launch grid gives it, and
    # segment 0 finds hits for at most a third of the rays that hit in
    # the full grid (16% over the whole pass).
    window, snapshot = prepare_pass(parse_config(DEMO_CONFIG))
    inputs = []
    monkeypatch.setattr(tracer_module, "trace",
                        lambda *args, **kw: inputs.append((args, kw)) or [])
    for frac in (0.1, 0.5, 0.9):
        snapshot(window.t_start + frac * (window.t_end - window.t_start))
    monkeypatch.undo()
    assert len(inputs) == 3
    query = Scene.intersect_batch

    def march(args, kw, full_grid):
        calls = []

        def counted(self, origins, directions, t_min=0.0, grid=None,
                    keep=None):
            result = query(self, origins, directions, t_min, grid=grid,
                           keep=None if full_grid else keep)
            calls.append((origins.copy(), np.array(directions),
                          int((result[1] >= 0).sum())))
            return result

        monkeypatch.setattr(Scene, "intersect_batch", counted)
        records = trace(*args, **kw)
        monkeypatch.undo()
        return records, calls

    for args, kw in inputs:
        assert kw["max_bounces"] == 2
        got, calls = march(args, kw, full_grid=False)
        want, full = march(args, kw, full_grid=True)
        assert [p.launch_index for p in got] == [p.launch_index
                                                 for p in want]
        assert len(calls) == len(full) == 3
        for (o, d, _), (o_full, d_full, _) in zip(calls[1:], full[1:]):
            assert np.array_equal(o, o_full)
            assert np.array_equal(d, d_full)
        assert 3 * calls[0][2] <= full[0][2]
