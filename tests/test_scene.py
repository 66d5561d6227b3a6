import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import nearest_hits
from leochan.scene import (_LEAF_SIZE, CONCRETE, InvalidDimensions,
                           Material, Scene, generate_city, ground_plane,
                           scene_from_text, scene_to_text)
from leochan.states import Frame, StateVector
from leochan.timebase import utc
from leochan.tracer import build_launch_plane


def test_single_block_triangle_count():
    city = generate_city(1, 1, height_law="constant", h_const_m=30.0)
    assert len(city) == 12 + 2


def test_ten_by_ten_triangle_count():
    assert len(generate_city(10, 10, seed=3)) == 100 * 12 + 2


def test_same_seed_identical_vertices():
    a = generate_city(4, 5, seed=11)
    b = generate_city(4, 5, seed=11)
    assert np.array_equal(a.triangles, b.triangles)


def test_different_seed_differs():
    a = generate_city(4, 5, seed=11)
    b = generate_city(4, 5, seed=12)
    assert not np.array_equal(a.triangles, b.triangles)


def test_invalid_dimensions():
    with pytest.raises(InvalidDimensions):
        generate_city(0, 5)
    with pytest.raises(InvalidDimensions):
        generate_city(5, 5, block_w_m=-1.0)
    with pytest.raises(InvalidDimensions):
        generate_city(101, 101)
    with pytest.raises(InvalidDimensions):
        generate_city(2, 2, height_law="fractal")


def test_material_invariants():
    with pytest.raises(ValueError):
        Material("void", 0.5, 0.0)
    with pytest.raises(ValueError):
        Material("weird", 2.0, -1.0)
    assert CONCRETE.relative_permittivity == 5.31
    assert CONCRETE.conductivity == 0.1395


def test_degenerate_triangle_rejected():
    tri = np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], dtype=float)
    with pytest.raises(ValueError):
        Scene(tri, np.zeros(1, dtype=int), [CONCRETE])


def _one_ray(scene, origin, direction):
    t, fid, normal = scene.intersect_batch(np.array([origin], dtype=float),
                                           np.array([direction], dtype=float))
    return t[0], fid[0], normal[0]


def test_vertical_ray_hits_ground():
    g = ground_plane(1000.0)
    t, fid, normal = _one_ray(g, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    assert fid >= 0
    assert t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(normal, [0.0, 0.0, 1.0])
    assert g.material_ids[fid] == 0


def test_parallel_outside_ray_misses():
    g = ground_plane(1000.0)
    t, fid, _ = _one_ray(g, [2.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert fid == -1 and t == np.inf


def test_normal_faces_against_ray():
    g = ground_plane(1000.0)
    _, fid, normal = _one_ray(g, [0.0, 0.0, -1.0], [0.0, 0.0, 1.0])
    assert fid >= 0
    assert normal[2] == -1.0


def _assert_matches_oracle(scene, origins, dirs, t_min, grid=None):
    t, fid, normals = scene.intersect_batch(origins, dirs, t_min, grid=grid)
    t_ref, fid_ref, normals_ref = nearest_hits(scene, origins, dirs, t_min)
    assert np.array_equal(fid, fid_ref)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(normals, normals_ref)


def test_bvh_equals_brute_force_random_rays(rng):
    city = generate_city(6, 6, seed=2)
    n = 20_000
    origins = rng.uniform(-0.9, 0.9, (n, 3))
    origins[:, 2] = rng.uniform(-0.05, 0.4, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # axis-parallel rays take the cull's zero-direction branch
    dirs[:200] = [0.0, 0.0, -1.0]
    origins[:200, 2] = 1.0
    dirs[200:400] = [0.0, 1.0, 0.0]
    _assert_matches_oracle(city, origins, dirs, 1e-9)


def test_batch_equals_single_queries(rng):
    # A ray's hit must not depend on the batch it is queried in: the box
    # cull and the chunking run per batch, so query each ray on its own.
    city = generate_city(5, 4, seed=9)
    n = 3000
    origins = rng.uniform(-0.8, 0.8, (n, 3))
    origins[:, 2] = rng.uniform(0.0, 0.4, n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ts, fids, normals = city.intersect_batch(origins, dirs, 1e-9)
    for i in range(n):
        t, fid, normal = city.intersect_batch(origins[i:i + 1],
                                              dirs[i:i + 1], 1e-9)
        assert fids[i] == fid[0]
        assert ts[i] == t[0]
        assert np.array_equal(normals[i], normal[0])


def test_rays_at_ground_perimeter_survive_box_cull():
    # Hits on the edge of the scene box must not be culled by slab
    # rounding: aim every ray at a point on the ground plane's border.
    city = generate_city(6, 6, seed=2)
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
    scene = Scene(np.asarray(tris, dtype=float).reshape(-1, 3, 3),
                  np.zeros(len(tris), dtype=int), [CONCRETE])
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
    return Scene(tris, np.zeros(len(tris), dtype=int), [CONCRETE])


def _without_ground(city):
    return Scene(city.triangles[:-2], city.material_ids[:-2], city.materials)


@st.composite
def _tree_scene_and_rays(draw):
    # Cities of 1x1 to 4x4 blocks, with or without their ground; a bare
    # ground plane, whose two faces are both wide; or soups one to
    # _LEAF_SIZE + 1 small faces past 2^k full leaves, with zero to two
    # wide faces.  In a soup's tree some level has an odd node count,
    # and the last node's padded right child is empty.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["city", "bare city", "ground", "soup"]))
    if kind == "ground":
        scene = ground_plane(draw(st.floats(1.0, 2000.0)))
    elif kind == "soup":
        n = (2 ** draw(st.integers(1, 6)) * _LEAF_SIZE
             + draw(st.integers(1, _LEAF_SIZE + 1)))
        scene = _soup(rng, n, draw(st.integers(0, 2)))
    else:
        scene = generate_city(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                              seed=draw(st.integers(0, 2**31 - 1)))
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
    "city 1x1": (lambda: generate_city(1, 1), 6),
    "city 1x8": (lambda: generate_city(1, 8), 2),
    "city 4x7": (lambda: generate_city(4, 7, height_law="constant"), 2),
    "city 20x20": (lambda: generate_city(20, 20, seed=4), 2),
    "bare city": (lambda: _without_ground(generate_city(6, 6, seed=2)), 0),
    "ground": (ground_plane, 2),
    "one face": (lambda: Scene(ground_plane().triangles[:1], [0],
                               [CONCRETE]), 1),
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
    for city in (generate_city(1, 8), generate_city(2, 2),
                 generate_city(3, 9, seed=5)):
        assert list(city._wide) == [len(city) - 2, len(city) - 1]


def test_subnormal_direction_component_equals_oracle():
    # 1 / 1e-320 overflows to +inf: the walk must treat the ray as
    # parallel to that axis, without a RuntimeWarning
    city = generate_city(2, 2)
    origins = np.array([[0.05, 0.05, 0.5], [0.0, 0.0, 0.5],
                        [0.05, 0.05, 0.5]])
    dirs = np.array([[1e-320, 0.0, -1.0], [0.0, -1e-320, -1.0],
                     [5e-324, 1e-310, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_matches_oracle(city, origins, dirs, 0.0)
    # a roof, the ground, the same roof
    fid = city.intersect_batch(origins, dirs)[1]
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
    return build_launch_plane(
        StateVector(Frame.LOCAL, utc(2023, 1, 1), sat, np.zeros(3)), scene,
        spacing_m)


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
    city = generate_city(
        draw(st.integers(1, 2)), draw(st.integers(1, 2)),
        block_w_m=spacing_m * draw(st.integers(2, 8)),
        street_w_m=spacing_m * draw(st.integers(1, 4)),
        h_min_m=spacing_m, h_max_m=spacing_m * 12.0,
        seed=draw(st.integers(0, 2**31 - 1)))
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
        scene = Scene(tris, np.zeros(len(tris), dtype=int), [CONCRETE])
    t_min = draw(st.one_of(st.sampled_from([0.0, 1e-7]),
                           st.floats(0.0, 0.1)))
    return scene, plane, t_min


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_launch_grid_case())
def test_grid_path_equals_oracle(case):
    # The span raster must list every true hit of the launch grid's
    # rays: then t, face id and normal are the oracle's to the bit.
    scene, plane, t_min = case
    origins = plane.launch_points()
    dirs = np.broadcast_to(plane.direction, origins.shape).copy()
    _assert_matches_oracle(scene, origins, dirs, t_min, grid=plane)


def test_grid_path_rejects_other_rays():
    city = generate_city(1, 1)
    plane = _launch_plane(city, 60.0, 30.0, 8.0)
    origins = plane.launch_points()[1:]
    dirs = np.broadcast_to(plane.direction, origins.shape)
    with pytest.raises(ValueError, match="launch grid"):
        city.intersect_batch(origins, dirs, grid=plane)


def test_watertight_box_entry_exit_parity(rng):
    city = generate_city(1, 1, height_law="constant", h_const_m=50.0)
    # strip the ground so only the box remains
    box = Scene(city.triangles[:12], city.material_ids[:12], city.materials)
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
    city = generate_city(2, 3, seed=5)
    text = scene_to_text(city)
    back = scene_from_text(text)
    assert np.array_equal(back.triangles, city.triangles)
    assert np.array_equal(back.material_ids, city.material_ids)


def test_text_import_rejects_bad_field_count():
    with pytest.raises(ValueError):
        scene_from_text("1,2,3,4,5\n")



def test_scene_rejects_material_id_out_of_range():
    city = generate_city(1, 1)
    ids = city.material_ids.copy()
    for bad in (1, -1):
        ids[3] = bad
        with pytest.raises(ValueError, match="material ids"):
            Scene(city.triangles, ids, city.materials)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scene_rejects_non_finite_vertices(bad):
    # a non-finite vertex spoils the tree's boxes, so that every ray
    # misses, even one aimed straight at the other, valid face
    g = ground_plane()
    tris = g.triangles.copy()
    tris[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite vertex"):
        Scene(tris, g.material_ids, g.materials)


def test_text_import_names_line_of_bad_material_id():
    lines = scene_to_text(ground_plane()).splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",3"
    with pytest.raises(ValueError, match=r"line 2: material id 3"):
        scene_from_text("\n".join(lines))


def test_text_import_names_line_of_bad_coordinate():
    lines = scene_to_text(ground_plane()).splitlines()
    with pytest.raises(ValueError, match=r"line 3: could not convert"):
        scene_from_text("\n".join(["# header", lines[0], "x" + lines[1]]))
    with pytest.raises(ValueError, match=r"line 2: non-finite"):
        scene_from_text("\n".join([lines[0],
                                    "nan," + lines[1].split(",", 1)[1]]))
