import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leochan.scene as scene_module
from conftest import (city_config, ground_plane, one_line_mutant,
                      scene_to_text, utc)
from oracle import nearest_hits
from leochan.config import ConfigError, SimConfig
from leochan.scene import (_LEAF_SIZE, DegenerateTriangle, Scene,
                           generate_city, scene_from_text)
from leochan.states import Frame, StateVector
from leochan.tracer import _reflect, build_launch_plane


def test_single_block_triangle_count():
    city = generate_city(city_config(1, 1, scene_height_law="constant",
                                     scene_h_const_m=30.0))
    assert len(city) == 12 + 2


def test_ten_by_ten_triangle_count():
    assert len(generate_city(city_config(10, 10, seed=3))) == 100 * 12 + 2


def test_same_seed_identical_vertices():
    a = generate_city(city_config(4, 5, seed=11))
    b = generate_city(city_config(4, 5, seed=11))
    assert np.array_equal(a.triangles, b.triangles)


def test_different_seed_differs():
    a = generate_city(city_config(4, 5, seed=11))
    b = generate_city(city_config(4, 5, seed=12))
    assert not np.array_equal(a.triangles, b.triangles)


def test_invalid_dimensions():
    # the city's keys are checked with the rest of the config, and the
    # message starts with the key it refuses
    for key, bad in [("scene_grid_nx", {"scene_grid_nx": 0}),
                     ("scene_block_w_m", {"scene_block_w_m": -1.0}),
                     ("scene_grid_nx", {"scene_grid_nx": 101,
                                        "scene_grid_ny": 101}),
                     ("scene_height_law", {"scene_height_law": "fractal"})]:
        with pytest.raises(ConfigError, match=f"^{key} "):
            SimConfig(**bad)


def test_degenerate_triangle_rejected():
    tri = np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], dtype=float)
    with pytest.raises(ValueError):
        Scene(tri)


def test_triangle_whose_area_overflows_rejected():
    # finite vertices, but the cross product overflows: once accepted,
    # with an infinite area and a NaN normal
    tri = [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]
    tris = np.concatenate([ground_plane().triangles, [tri]])
    with pytest.raises(DegenerateTriangle, match="face 2") as exc:
        Scene(tris)
    assert exc.value.face == 2


def _one_ray(scene, origin, direction):
    t, fid = scene.intersect_batch(np.array([origin], dtype=float),
                                   np.array([direction], dtype=float), 0.0)
    return t[0], fid[0]


def test_vertical_ray_hits_ground():
    g = ground_plane(1000.0)
    d = np.array([0.0, 0.0, -1.0])
    t, fid = _one_ray(g, [0.0, 0.0, 1.0], d)
    assert fid >= 0
    assert t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(_reflect(d[None], g.normals[[fid]])[0], [0, 0, 1])


def test_parallel_outside_ray_misses():
    g = ground_plane(1000.0)
    t, fid = _one_ray(g, [2.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert fid == -1 and t == np.inf


def test_normal_faces_against_ray():
    # from below the ground, the normal that the tracer reflects about
    # faces back along the ray, which goes straight back
    g = ground_plane(1000.0)
    d = np.array([[0.0, 0.0, 1.0]])
    _, fid = _one_ray(g, [0.0, 0.0, -1.0], d[0])
    assert fid >= 0
    n, dn, out = _reflect(d, g.normals[[fid]])
    assert n[0, 2] == -1.0 and dn[0] == -1.0
    assert np.array_equal(out, -d)


def _assert_matches_oracle(scene, origins, dirs, t_min, grid=None):
    # The engine's hits are the oracle's, and per hit the normal that
    # the tracer turns against the ray is the oracle's, row for row.
    t, fid = scene.intersect_batch(origins, dirs, t_min, grid=grid)
    t_ref, fid_ref, normals_ref = nearest_hits(scene, origins, dirs, t_min)
    assert np.array_equal(fid, fid_ref)
    assert np.array_equal(t, t_ref)
    hit = np.flatnonzero(fid >= 0)
    n = _reflect(np.asarray(dirs, dtype=float)[hit],
                 scene.normals[fid[hit]])[0]
    assert np.array_equal(n, normals_ref[hit])


def test_bvh_equals_brute_force_random_rays(rng):
    city = generate_city(city_config(6, 6, seed=2))
    n = 20_000
    origins = rng.uniform(-0.9, 0.9, (n, 3))
    origins[:, 2] = rng.uniform(-0.05, 0.4, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # axis-parallel rays take the slab test's zero-direction branch
    dirs[:200] = [0.0, 0.0, -1.0]
    origins[:200, 2] = 1.0
    dirs[200:400] = [0.0, 1.0, 0.0]
    _assert_matches_oracle(city, origins, dirs, 1e-9)


def test_batch_equals_single_queries(rng):
    # A ray's hit must not depend on the batch it is queried in: the
    # chunking runs per batch, so query each ray on its own.
    city = generate_city(city_config(5, 4, seed=9))
    n = 3000
    origins = rng.uniform(-0.8, 0.8, (n, 3))
    origins[:, 2] = rng.uniform(0.0, 0.4, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ts, fids = city.intersect_batch(origins, dirs, 1e-9)
    for i in range(n):
        t, fid = city.intersect_batch(origins[i:i + 1], dirs[i:i + 1], 1e-9)
        assert fids[i] == fid[0]
        assert ts[i] == t[0]


def test_rays_at_ground_perimeter_survive_box_cull():
    # Hits on the edge of the scene box must not be culled by slab
    # rounding: aim every ray at a point on the ground plane's border.
    city = generate_city(city_config(6, 6, seed=2))
    rng = np.random.default_rng(5)
    n = 5000
    (x0, y0, _), (x1, y1, _) = city.bounds
    side = rng.integers(0, 4, n)
    s = rng.uniform(0.0, 1.0, n)
    targets = np.zeros((n, 3))
    targets[:, 0] = np.select([side < 2, side == 2], [x0 + s * (x1 - x0), x0],
                              x1)
    targets[:, 1] = np.select([side >= 2, side == 0],
                              [y0 + s * (y1 - y0), y0], y1)
    origins = rng.uniform(-1.5, 1.5, (n, 3))
    origins[:, 2] = rng.uniform(0.05, 1.0, n)
    dirs = targets - origins
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    _assert_matches_oracle(city, origins, dirs, 1e-9)


# Coordinates on a coarse grid give shared edges, axis-aligned faces and
# exact distance ties; free floats give everything else.
_coord = st.one_of(st.integers(-4, 4).map(lambda k: k / 4.0),
                   st.floats(-1.0, 1.0, allow_subnormal=False))
_vertex = st.tuples(_coord, _coord, _coord)


def _area(tri) -> float:
    v = np.asarray(tri)
    return 0.5 * float(np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0])))


_triangle = st.tuples(_vertex, _vertex, _vertex).filter(
    lambda tri: _area(tri) > 1e-6)
_axes = [[s * (k == j) for j in range(3)] for k in range(3) for s in (1, -1)]
_direction = st.one_of(
    st.sampled_from(_axes),
    st.tuples(*[st.integers(-1, 1)] * 3).filter(any),
    st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 3).filter(
        lambda d: np.linalg.norm(d) > 1e-3))


@st.composite
def _scene_and_rays(draw):
    tris = draw(st.lists(_triangle, max_size=6))
    scene = Scene(np.asarray(tris, dtype=float).reshape(-1, 3, 3))
    # origin components on the box faces, on the grid (mostly inside the
    # box) or anywhere around it
    lo, hi = scene.bounds
    n = draw(st.integers(1, 8))
    origins = np.array([[draw(st.one_of(st.sampled_from([lo[k], hi[k]]),
                                        _coord, st.floats(-3.0, 3.0)))
                         for k in range(3)] for _ in range(n)])
    dirs = np.array(draw(st.lists(_direction, min_size=n, max_size=n)),
                    dtype=float)
    # some rays graze a vertex, where edge rounding decides the hit
    corners = scene.triangles.reshape(-1, 3)
    for k in range(n):
        if len(corners) and draw(st.booleans()):
            aim = draw(st.sampled_from(list(corners))) - origins[k]
            if np.linalg.norm(aim) > 1e-3:
                dirs[k] = aim
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    return scene, origins, dirs, t_min


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_scene_and_rays())
def test_batch_equals_oracle_small_scenes(case):
    _assert_matches_oracle(*case)


def _soup(rng, n, n_wide=0):
    """n small non-degenerate triangles, half of them on a coarse grid so
    that they share edges and tie on distance, and n_wide that span the
    whole footprint in x and y, in a shuffled id order.  A small face
    spans at most 0.5 in each axis, and two of them sit at opposite
    corners of [-1, 1]^3, so that the footprint is at least 1.5 wide
    and none of them is wide; a wide face spans 3 in x and in y."""
    tris = np.empty((0, 3, 3))
    while len(tris) < n:
        centre = rng.uniform(-1.0, 1.0, (n, 1, 3))
        offset = rng.uniform(-0.25, 0.25, (n, 3, 3))
        snap = rng.random(n) < 0.5
        centre[snap] = np.round(centre[snap] * 2.0) / 2.0
        offset[snap] = np.round(offset[snap] * 4.0) / 4.0
        cand = centre + offset
        keep = [_area(c) > 1e-6 for c in cand]
        tris = np.concatenate([tris, cand[keep]])
    tris = tris[:n]
    tris[0] += -1.0 - tris[0].mean(axis=0)
    tris[-1] += 1.0 - tris[-1].mean(axis=0)
    if n_wide == 2 and rng.random() < 0.5:
        # a ground quad split on its diagonal, as generate_city's
        z = np.round(rng.uniform(-1.0, 1.0) * 4.0) / 4.0
        quad = np.array([[-1.5, -1.5, z], [1.5, -1.5, z], [1.5, 1.5, z],
                         [-1.5, 1.5, z]])
        wide = quad[[[0, 1, 2], [0, 2, 3]]]
    else:
        wide = rng.uniform(-1.5, 1.5, (n_wide, 3, 3))
        for tri in wide:
            for axis in (0, 1):
                ends = rng.choice(3, 2, replace=False)
                tri[ends, axis] = -1.5, 1.5
    tris = rng.permutation(np.concatenate([tris, wide]))
    return Scene(tris)


def _without_ground(city):
    return Scene(city.triangles[:-2])


@st.composite
def _tree_scene_and_rays(draw):
    # Cities of 1x1 to 4x4 blocks, with or without their ground; a bare
    # ground plane, whose two faces are both wide; or soups of 4q + r
    # leaves (r = 1 to 3), the last one full or not, with zero to two
    # wide faces.  So the leaves' parents lack 3, 2 or 1 children, and
    # the last parent's missing children are NaN boxes.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["city", "bare city", "ground", "soup"]))
    if kind == "ground":
        scene = ground_plane(draw(st.floats(1.0, 2000.0)))
    elif kind == "soup":
        leaves = 4 * draw(st.integers(1, 16)) + draw(st.integers(1, 3))
        n = leaves * _LEAF_SIZE - draw(st.integers(0, _LEAF_SIZE - 1))
        scene = _soup(rng, n, draw(st.integers(0, 2)))
    else:
        scene = generate_city(city_config(
            draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            seed=draw(st.integers(0, 2**31 - 1))))
        if kind == "bare city":
            scene = _without_ground(scene)
    tris = scene.triangles
    m = 300
    face = rng.integers(0, len(tris), m)
    # targets: vertices, edge midpoints, and points on the faces of each
    # face's bounding box
    corner = rng.integers(0, 3, m)
    targets = tris[face, corner]
    mid = rng.random(m) < 0.35
    targets[mid] = 0.5 * (targets[mid] + tris[face, (corner + 1) % 3][mid])
    on_box = rng.random(m) < 0.3
    lo, hi = tris[face].min(axis=1), tris[face].max(axis=1)
    box_pts = lo + rng.random((m, 3)) * (hi - lo)
    rows, axis = np.arange(m), rng.integers(0, 3, m)
    box_pts[rows, axis] = np.where(rng.random(m) < 0.5, lo[rows, axis],
                                   hi[rows, axis])
    targets[on_box] = box_pts[on_box]
    dirs = rng.normal(size=(m, 3))
    # axis-parallel rays, and rays with one or two components of +-0.0
    n_zero = np.where(rng.random(m) < 0.4, rng.integers(1, 3, m), 0)
    for k in np.flatnonzero(n_zero):
        zero_axes = rng.choice(3, n_zero[k], replace=False)
        dirs[k, zero_axes] = np.copysign(0.0, rng.normal(size=n_zero[k]))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    origins = targets - rng.uniform(0.05, 2.0, m)[:, None] * dirs
    t_min = draw(st.one_of(st.just(0.0), st.just(1e-9),
                           st.floats(0.0, 2.0)))
    return scene, origins, dirs, t_min


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_tree_scene_and_rays())
def test_batch_equals_oracle_multi_level_trees(case):
    _assert_matches_oracle(*case)


_WIDE_CASES = {
    "city 1x1": (lambda: generate_city(city_config(1, 1)), 6),
    "city 1x8": (lambda: generate_city(city_config(1, 8)), 2),
    "city 4x7": (lambda: generate_city(
        city_config(4, 7, scene_height_law="constant")), 2),
    "city 20x20": (lambda: generate_city(city_config(20, 20, seed=4)), 2),
    "bare city": (lambda: _without_ground(
        generate_city(city_config(6, 6, seed=2))), 0),
    "ground": (ground_plane, 2),
    "one face": (lambda: Scene(ground_plane().triangles[:1]), 1),
    "soup": (lambda: _soup(np.random.default_rng(1), 2 * _LEAF_SIZE + 1), 0),
    "soup, 1 wide": (lambda: _soup(np.random.default_rng(2),
                                   16 * _LEAF_SIZE + 2, 1), 1),
    "soup, 2 wide": (lambda: _soup(np.random.default_rng(3),
                                   8 * _LEAF_SIZE + 3, 2), 2),
}


@pytest.mark.parametrize("case", _WIDE_CASES)
def test_every_face_in_one_leaf_or_the_wide_list(case):
    # A face in neither place is never a candidate, and random rays can
    # easily miss it.
    build, n_wide = _WIDE_CASES[case]
    scene = build()
    leaves = scene._leaf_faces.ravel()
    ids = np.concatenate([leaves[leaves >= 0], scene._wide])
    assert np.array_equal(np.sort(ids), np.arange(len(scene)))
    assert len(scene._wide) == n_wide


def test_city_wide_faces_are_its_ground():
    # a lone block's roof and floor span over half the footprint too,
    # but from two blocks on, even in a one-block-wide street canyon,
    # only the ground does
    for city in (generate_city(city_config(1, 8)),
                 generate_city(city_config(2, 2)),
                 generate_city(city_config(3, 9, seed=5))):
        assert list(city._wide) == [len(city) - 2, len(city) - 1]


def test_subnormal_direction_component_equals_oracle():
    # 1 / 1e-320 overflows to +inf: the walk must treat the ray as
    # parallel to that axis, without a RuntimeWarning
    city = generate_city(city_config(2, 2))
    origins = np.array([[0.05, 0.05, 0.5], [0.0, 0.0, 0.5],
                        [0.05, 0.05, 0.5]])
    dirs = np.array([[1e-320, 0.0, -1.0], [0.0, -1e-320, -1.0],
                     [5e-324, 1e-310, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_matches_oracle(city, origins, dirs, 0.0)
    # a roof, the ground, the same roof
    fid = city.intersect_batch(origins, dirs, 0.0)[1]
    assert fid[0] == fid[2] and 0 <= fid[0] < len(city) - 2
    assert fid[1] in (len(city) - 2, len(city) - 1)


def _launch_plane(scene, elevation_deg, azimuth_deg, spacing_m):
    """The launch plane of a satellite 600 km from the foot of the
    scene box's centre.  At exactly 90 deg it sits straight above, so
    that the rays point exactly down and every wall is edge-on."""
    (x0, y0, z0), (x1, y1, _) = scene.bounds
    foot = np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0, z0])
    el, az = math.radians(elevation_deg), math.radians(azimuth_deg)
    if elevation_deg == 90.0:
        sat = foot + [0.0, 0.0, 600.0]
    else:
        sat = foot + 600.0 * np.array([math.cos(el) * math.cos(az),
                                       math.cos(el) * math.sin(az),
                                       math.sin(el)])
    # a receiver at the foot leaves the plane over the scene alone
    return build_launch_plane(
        StateVector(Frame.LOCAL, utc(2023, 1, 1), sat, np.zeros(3)), scene,
        spacing_m, foot, 0.0)


def _snapped_mesh(draw, plane, rng):
    """A height field over launch-grid points: every vertex is a launch
    point moved along the rays, and each lattice cell splits into two
    triangles that share a diagonal.  Launch rays then run through the
    vertices and, on steps of two cells, through the midpoints of the
    edges, shared ones included."""
    nu, nv = plane.grid_shape()
    step = draw(st.integers(1, 2))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    i0 = draw(st.integers(0, max(nu - 1 - a * step, 0)))
    j0 = draw(st.integers(0, max(nv - 1 - b * step, 0)))
    ii = np.minimum(i0 + step * np.arange(a + 1), nu - 1)
    jj = np.minimum(j0 + step * np.arange(b + 1), nv - 1)
    depth = rng.uniform(0.0, 0.1, (a + 1, b + 1))
    points = plane.launch_points()
    vert = (points[ii[:, None] * nv + jj[None, :]]
            + depth[..., None] * plane.direction)
    tris = []
    for p in range(a):
        for q in range(b):
            c00, c10 = vert[p, q], vert[p + 1, q]
            c01, c11 = vert[p, q + 1], vert[p + 1, q + 1]
            if rng.random() < 0.5:
                tris += [(c00, c10, c11), (c00, c11, c01)]
            else:
                tris += [(c00, c10, c01), (c10, c11, c01)]
    keep = [t for t in tris if _area(t) > 1e-12]
    keep = keep[:draw(st.integers(1, max(len(keep), 1)))]
    return np.asarray(keep, dtype=float).reshape(-1, 3, 3)


@st.composite
def _launch_grid_case(draw):
    # The city is sized in spacings, so that the grid stays small.
    spacing_m = draw(st.one_of(st.sampled_from([0.5, 60.0]),
                               st.floats(0.5, 60.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    city = generate_city(city_config(
        draw(st.integers(1, 2)), draw(st.integers(1, 2)),
        scene_block_w_m=spacing_m * draw(st.integers(2, 8)),
        scene_street_w_m=spacing_m * draw(st.integers(1, 4)),
        scene_h_min_m=spacing_m, scene_h_max_m=spacing_m * 12.0,
        seed=draw(st.integers(0, 2**31 - 1))))
    elevation = draw(st.one_of(
        st.sampled_from([90.0, 90.0 - 1e-6, 90.0 - 1e-9, 0.5]),
        st.floats(0.5, 90.0)))
    azimuth = draw(st.one_of(st.sampled_from([0.0, 45.0, 90.0, 180.0, 270.0]),
                             st.floats(0.0, 360.0)))
    plane = _launch_plane(city, elevation, azimuth, spacing_m)
    kind = draw(st.sampled_from(["empty", "triangle", "city", "snapped"]))
    if kind == "city":
        scene = city
    else:
        if kind == "empty":
            tris = np.empty((0, 3, 3))
        elif kind == "triangle":
            # inside the city's box, out across the grid's edge, or
            # far beyond it (more grid cells than an int64 holds)
            lo, hi = city.bounds
            scale = draw(st.sampled_from([1.0, 4.0, 1e21]))
            tris = lo + (rng.random((1, 3, 3)) * scale - (scale - 1) / 2) * (
                hi - lo)
            tris = tris if _area(tris[0]) > 1e-12 else city.triangles[-1:]
        else:
            tris = _snapped_mesh(draw, plane, rng)
        scene = Scene(tris)
    t_min = draw(st.one_of(st.sampled_from([0.0, 1e-7]),
                           st.floats(0.0, 0.1)))
    return scene, plane, t_min


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_launch_grid_case())
def test_grid_path_equals_oracle(case):
    # The span raster must list every true hit of the launch grid's
    # rays: then t and face id are the oracle's to the bit.
    scene, plane, t_min = case
    origins = plane.launch_points()
    dirs = np.broadcast_to(plane.direction, origins.shape).copy()
    _assert_matches_oracle(scene, origins, dirs, t_min, grid=plane)


@pytest.mark.parametrize("budget", [1, 7])
@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(case=_launch_grid_case())
def test_grid_path_equals_oracle_in_small_batches(budget, case):
    # The raster cuts its batches between grid rows only; with a budget
    # this small it cuts between every two rows that have spans.
    scene, plane, t_min = case
    origins = plane.launch_points()
    dirs = np.broadcast_to(plane.direction, origins.shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene_module, "_PAIR_BATCH", budget)
        _assert_matches_oracle(scene, origins, dirs, t_min, grid=plane)


@pytest.mark.parametrize("budget", [1, 7, 4096])
def test_raster_batches_hold_whole_rays(budget):
    # The nearest-hit step keeps one minimum per ray, so all of a ray's
    # candidates must come in one batch.
    city = generate_city(city_config(3, 2, seed=6))
    plane = _launch_plane(city, 35.0, 110.0, 6.0)
    nu, nv = plane.grid_shape()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene_module, "_PAIR_BATCH", budget)
        batches = list(city._raster(plane, nu * nv, None))
    rays = np.concatenate([np.unique(ray) for ray, _ in batches])
    assert len(rays) == len(np.unique(rays))
    if budget == 1:
        assert all(len(np.unique(ray // nv)) == 1 for ray, _ in batches)
    # the same candidate pairs, in whatever batches
    pairs = np.concatenate([ray * len(city) + face for ray, face in batches])
    ref = np.concatenate([ray * len(city) + face for ray, face
                          in city._raster(plane, nu * nv, None)])
    assert np.array_equal(np.sort(pairs), np.sort(ref))
    assert len(batches) > 1


def _doubled(scene, seed):
    """The scene with every face twice, in a shuffled id order, and the
    id of each face's twin."""
    n = len(scene)
    perm = np.random.default_rng(seed).permutation(2 * n)
    new_id = np.argsort(perm)
    twin = new_id[(perm + n) % (2 * n)]
    tris = np.concatenate([scene.triangles, scene.triangles])[perm]
    return Scene(tris), twin


@pytest.mark.parametrize("source", ["walk", "raster"])
def test_coincident_faces_go_to_the_lower_id(source, rng):
    # Twin faces give every ray the same distance to both, so the scatter
    # minimum over face ids decides.
    scene, twin = _doubled(generate_city(city_config(3, 3, seed=4)), 9)
    if source == "walk":
        n = 4000
        origins = rng.uniform(-0.2, 0.2, (n, 3))
        origins[:, 2] = rng.uniform(0.0, 0.2, n)
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        grid = None
    else:
        grid = _launch_plane(scene, 50.0, 20.0, 5.0)
        origins = grid.launch_points()
        dirs = np.broadcast_to(grid.direction, origins.shape)
    _assert_matches_oracle(scene, origins, dirs, 1e-9, grid=grid)
    fid = scene.intersect_batch(origins, dirs, 1e-9, grid=grid)[1]
    hit = fid[fid >= 0]
    assert len(hit) > 100
    assert (hit < twin[hit]).all()


def test_grid_path_rejects_other_rays():
    city = generate_city(city_config(1, 1))
    plane = _launch_plane(city, 60.0, 30.0, 8.0)
    origins = plane.launch_points()[1:]
    dirs = np.broadcast_to(plane.direction, origins.shape)
    with pytest.raises(ValueError, match="launch grid"):
        city.intersect_batch(origins, dirs, 0.0, grid=plane)


def test_watertight_box_entry_exit_parity(rng):
    city = generate_city(city_config(1, 1, scene_height_law="constant",
                                     scene_h_const_m=50.0))
    # strip the ground so only the box remains
    box = Scene(city.triangles[:12])
    n = 10_000
    # aim from random outside points at random points inside the box
    origins = rng.uniform(-1.0, 1.0, (n, 3))
    origins[:, 2] = rng.uniform(0.2, 1.0, n)
    inside = np.column_stack([rng.uniform(-0.03, 0.03, n),
                              rng.uniform(-0.03, 0.03, n),
                              rng.uniform(0.005, 0.045, n)])
    dirs = inside - origins
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    crossings = np.zeros(n, dtype=int)
    t_min = np.full(n, 1e-9)
    live = np.ones(n, dtype=bool)
    while live.any():
        t, fid, _ = nearest_hits(box, origins, dirs, t_min)
        live &= (fid >= 0) & (crossings <= 10)
        crossings += live
        t_min = np.where(live, t + 1e-9, t_min)
    assert np.all(crossings % 2 == 0)


def test_text_round_trip():
    city = generate_city(city_config(2, 3, seed=5))
    text = scene_to_text(city)
    back = scene_from_text(text)
    assert np.array_equal(back.triangles, city.triangles)


def test_text_import_rejects_bad_field_count():
    with pytest.raises(ValueError):
        scene_from_text("1,2,3,4,5\n")



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scene_rejects_non_finite_vertices(bad):
    # a non-finite vertex spoils the tree's boxes, so that every ray
    # misses, even one aimed straight at the other, valid face
    g = ground_plane()
    tris = g.triangles.copy()
    tris[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite vertex"):
        Scene(tris)


def test_text_import_names_line_of_bad_material_id():
    # the id column takes exactly what int() reads as 0: concrete, the
    # one material
    lines = scene_to_text(ground_plane()).splitlines()
    coords = lines[1].rsplit(",", 1)[0]
    for bad in ("1", "-1", "3"):
        lines[1] = f"{coords},{bad}"
        with pytest.raises(ValueError, match=rf"^line 2: material id {bad}"):
            scene_from_text("\n".join(lines))
    for zero in ("00", "+0", "-0"):
        lines[1] = f"{coords},{zero}"
        back = scene_from_text("\n".join(lines))
        assert np.array_equal(back.triangles, ground_plane().triangles)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(one_line_mutant(scene_to_text(generate_city(city_config(1, 1, seed=3))),
                       "0123456789.,-+eE_ #x"))
def test_mutated_scene_file_builds_or_names_its_line(mutant):
    # A damaged line is refused by its number, and nothing else happens:
    # a mutant that is refused by no line builds a scene.
    text, lineno = mutant
    try:
        scene = scene_from_text(text)
    except ValueError as exc:
        assert str(exc).startswith(f"line {lineno}: ")
        return
    assert len(scene) <= 14


@pytest.mark.parametrize("bad", [
    "0,0,0, 1,0,0, 2,0,0",
    # finite, but its cross product overflows: once accepted, with an
    # infinite area and a NaN normal
    "0,0,0, 1e200,0,0, 0,1e200,0",
])
def test_text_import_names_line_of_degenerate_triangle(bad):
    lines = scene_to_text(ground_plane()).splitlines()
    with pytest.raises(ValueError, match=r"^line 3: degenerate triangle$"):
        scene_from_text("\n".join([lines[0], "# note", bad + ",0",
                                   lines[1]]))


def test_text_import_names_line_of_bad_coordinate():
    lines = scene_to_text(ground_plane()).splitlines()
    with pytest.raises(ValueError, match=r"line 3: could not convert"):
        scene_from_text("\n".join(["# header", lines[0], "x" + lines[1]]))
    with pytest.raises(ValueError, match=r"line 2: non-finite"):
        scene_from_text("\n".join([lines[0],
                                    "nan," + lines[1].split(",", 1)[1]]))


def test_scene_keeps_its_own_arrays(rng):
    # Changing the caller's array after construction must change
    # nothing in the scene: its faces, the tree and the face data stay
    # those it was built from, and its own array is read-only.
    city = generate_city(city_config(2, 2, seed=5))
    tris = city.triangles.copy()
    scene = Scene(tris)
    tris += 0.25
    assert np.array_equal(scene.triangles, city.triangles)
    with pytest.raises(ValueError):
        scene.triangles[0, 0, 0] = 1.0
    origins = rng.uniform(-0.2, 0.2, (2000, 3))
    origins[:, 2] = rng.uniform(0.0, 0.2, 2000)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    _assert_matches_oracle(scene, origins, dirs, 1e-9)


def test_distinct_normals_up_to_sign():
    city = generate_city(city_config(3, 2, seed=1))
    axes = city.distinct_normals
    assert city.distinct_normals is axes
    assert not axes.flags.writeable
    assert np.array_equal(axes, np.eye(3)[::-1])
    # a rotated soup: every face normal is one row or its negation
    rng = np.random.default_rng(3)
    soup = Scene(rng.uniform(-1.0, 1.0, (40, 3, 3)))
    axes = soup.distinct_normals
    assert len(axes) == 40
    for n in soup.normals:
        same = np.all(axes == n, axis=1) | np.all(axes == -n, axis=1)
        assert same.sum() == 1
    assert Scene(np.empty((0, 3, 3))).distinct_normals.shape == (0, 3)


def test_shape_factors():
    # |e1| |e2| / |e1 x e2| = 1 / sin of the angle at the first vertex:
    # 1 for a right angle there, sqrt(2) for the ground's half squares,
    # which meet the diagonal at 45 degrees, and large for a sliver.
    tris = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
                     [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-3, 0.0]]])
    scene = Scene(tris)
    assert scene.shape_factors[0] == 1.0
    assert scene.shape_factors[1] == pytest.approx(math.hypot(1.0, 1e-3)
                                                   / 1e-3, rel=1e-12)
    assert not scene.shape_factors.flags.writeable
    assert np.allclose(ground_plane(100.0).shape_factors, math.sqrt(2.0),
                       rtol=1e-15)
    city = generate_city(city_config(3, 3, seed=4))
    assert (city.shape_factors >= 1.0).all()
