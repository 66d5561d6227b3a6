"""Urban scene geometry: triangle soup, procedural grid city, batch ray
queries.

All geometry is stored in kilometers in the LOCAL frame (generator inputs
are meters and are converted).  ``Scene.intersect_batch`` is the one
intersection engine; it must agree exactly with a brute-force oracle over
every triangle (same Moller-Trumbore arithmetic) and breaks distance ties
on the lower face id.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

M_PER_KM = 1000.0

# Ray-triangle determinant cutoff (parallel rays) and degenerate-triangle
# area floor, in km units.
_DET_EPS = 1e-14
MIN_TRIANGLE_AREA_KM2 = 1e-12

# The ray-cull box is padded so that floating-point slab rounding can
# never prune a genuine hit on the edge of the scene.
_BOX_PAD = 1e-9

HEIGHT_LAWS = ("uniform", "constant")


class InvalidDimensions(ValueError):
    pass


@dataclass(frozen=True)
class Material:
    name: str
    relative_permittivity: float
    conductivity: float  # S/m

    def __post_init__(self):
        if self.relative_permittivity < 1.0:
            raise ValueError("relative permittivity must be >= 1")
        if self.conductivity < 0.0:
            raise ValueError("conductivity must be >= 0")


# ITU-style building-material constants used as the single default.
CONCRETE = Material("concrete", 5.31, 0.1395)


class Scene:
    """Immutable triangle soup with materials and batch ray queries."""

    def __init__(self, triangles: np.ndarray, material_ids: np.ndarray,
                 materials: list[Material]):
        triangles = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
        material_ids = np.asarray(material_ids, dtype=int)
        if len(material_ids) != len(triangles):
            raise ValueError("one material id per triangle required")
        if len(material_ids) and (material_ids.min() < 0
                                  or material_ids.max() >= len(materials)):
            raise ValueError(
                f"material ids must be in [0, {len(materials)})")
        v0 = triangles[:, 0, :]
        e1 = triangles[:, 1, :] - v0
        e2 = triangles[:, 2, :] - v0
        areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        if len(triangles) and areas.min() <= MIN_TRIANGLE_AREA_KM2:
            raise ValueError("degenerate triangle in scene")
        self.triangles = triangles
        self.material_ids = material_ids
        self.materials = list(materials)
        self._v0, self._e1, self._e2 = v0, e1, e2
        normals = np.cross(e1, e2)
        self._normals = normals / np.linalg.norm(normals, axis=1)[:, None] \
            if len(triangles) else normals
        if len(triangles):
            self.bounds = np.stack([triangles.min(axis=(0, 1)),
                                    triangles.max(axis=(0, 1))])
        else:
            self.bounds = np.zeros((2, 3))

    def __len__(self) -> int:
        return len(self.triangles)

    def intersect_batch(self, origins: np.ndarray, directions: np.ndarray,
                        t_min: float = 0.0):
        """Nearest hits for many rays at once.

        Returns (t, face_id, normal): misses get t = +inf, face_id = -1.
        Normals are unit and oriented against each ray.  Hits lie in
        (t_min, +inf); among equal distances the lower face id wins.
        """
        origins = np.asarray(origins, dtype=float)
        directions = np.asarray(directions, dtype=float)
        m = len(origins)
        t_out = np.full(m, np.inf)
        fid_out = np.full(m, -1, dtype=int)
        n_tris = len(self.triangles)
        if n_tris == 0 or m == 0:
            return t_out, fid_out, np.zeros((m, 3))

        # Cull rays whose forward half-line misses the scene box; after a
        # reflection most rays head up and away, so this pays off.
        box_lo = self.bounds[0] - _BOX_PAD
        box_hi = self.bounds[1] + _BOX_PAD
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / directions
            t_a = (box_lo - origins) * inv
            t_b = (box_hi - origins) * inv
            lo = np.minimum(t_a, t_b)
            hi = np.maximum(t_a, t_b)
            par = directions == 0.0
            inside = (origins >= box_lo) & (origins <= box_hi)
            lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
            hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
        enter = np.nanmax(lo, axis=1)
        exit_ = np.nanmin(hi, axis=1)
        live = np.flatnonzero((enter <= exit_) & (exit_ > t_min))
        if len(live) == 0:
            return t_out, fid_out, np.zeros((m, 3))
        origins_live = origins[live]
        directions_live = directions[live]
        m_live = len(live)

        chunk = max(1, min(int(2e6) // n_tris, 1 << 18))
        v0 = self._v0[None, :, :]
        e1 = self._e1[None, :, :]
        e2 = self._e2[None, :, :]
        for a in range(0, m_live, chunk):
            b = min(a + chunk, m_live)
            o = origins_live[a:b, None, :]
            d = directions_live[a:b, None, :]
            pvec = np.cross(d, e2)
            det = np.einsum("mtj,mtj->mt", np.broadcast_arrays(e1, pvec)[0],
                            pvec)
            ok = np.abs(det) > _DET_EPS
            inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            tvec = o - v0
            u = np.einsum("mtj,mtj->mt", tvec, pvec) * inv
            qvec = np.cross(tvec, e1)
            v = np.einsum("mtj,mtj->mt", np.broadcast_arrays(d, qvec)[0],
                          qvec) * inv
            t = np.einsum("mtj,mtj->mt", np.broadcast_arrays(e2, qvec)[0],
                          qvec) * inv
            ok &= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
            t = np.where(ok & (t > t_min), t, np.inf)
            idx = np.argmin(t, axis=1)
            rows = np.arange(b - a)
            tbest = t[rows, idx]
            hit = np.isfinite(tbest)
            t_out[live[a:b]] = tbest
            fid_out[live[a:b]] = np.where(hit, idx, -1)

        normals = np.zeros((m, 3))
        hit_mask = fid_out >= 0
        if hit_mask.any():
            n = self._normals[fid_out[hit_mask]]
            flip = np.einsum("ij,ij->i", n, directions[hit_mask]) > 0.0
            n = np.where(flip[:, None], -n, n)
            normals[hit_mask] = n
        return t_out, fid_out, normals


def _box(x0, x1, y0, y1, z0, z1) -> np.ndarray:
    """12 triangles of an axis-aligned box, outward winding."""
    c = np.array([[x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
                  [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1]])
    quads = [(0, 3, 2, 1),   # bottom (z0, normal -z)
             (4, 5, 6, 7),   # top
             (0, 1, 5, 4),   # south
             (2, 3, 7, 6),   # north
             (1, 2, 6, 5),   # east
             (3, 0, 4, 7)]   # west
    tris = []
    for a, b, cc, d in quads:
        tris.append(c[[a, b, cc]])
        tris.append(c[[a, cc, d]])
    return np.asarray(tris)


def generate_city(grid_nx: int, grid_ny: int, block_w_m: float = 80.0,
                  street_w_m: float = 20.0, height_law: str = "uniform",
                  h_min_m: float = 20.0, h_max_m: float = 120.0,
                  h_const_m: float = 30.0, seed: int = 0,
                  materials: list[Material] | None = None) -> Scene:
    """Procedural Manhattan-style grid: box buildings over a ground plane.

    Deterministic for a fixed seed; buildings are watertight 12-triangle
    boxes; the ground plane covers the street grid including the
    perimeter streets.  Distances are meters here, kilometers inside the
    returned scene.
    """
    if grid_nx <= 0 or grid_ny <= 0 or block_w_m <= 0 or street_w_m <= 0:
        raise InvalidDimensions("grid counts and widths must be positive")
    if grid_nx * grid_ny > 10_000:
        raise InvalidDimensions("more than 10^4 blocks requested")
    if height_law not in HEIGHT_LAWS:
        raise InvalidDimensions(f"unknown height law {height_law!r}")
    if height_law == "uniform" and not 0.0 < h_min_m <= h_max_m:
        raise InvalidDimensions("need 0 < h_min <= h_max")
    if height_law == "constant" and h_const_m <= 0.0:
        raise InvalidDimensions("constant height must be positive")

    period = block_w_m + street_w_m
    width_x = grid_nx * period + street_w_m
    width_y = grid_ny * period + street_w_m
    x0 = -width_x / 2.0
    y0 = -width_y / 2.0

    if height_law == "uniform":
        rng = np.random.default_rng(seed)
        heights = rng.uniform(h_min_m, h_max_m, size=grid_nx * grid_ny)
    else:
        heights = np.full(grid_nx * grid_ny, h_const_m)

    tris = []
    k = 0
    for i in range(grid_nx):
        bx0 = x0 + street_w_m + i * period
        for j in range(grid_ny):
            by0 = y0 + street_w_m + j * period
            tris.append(_box(bx0, bx0 + block_w_m, by0, by0 + block_w_m,
                             0.0, heights[k]))
            k += 1
    ground = np.array([[x0, y0, 0.0], [x0 + width_x, y0, 0.0],
                       [x0 + width_x, y0 + width_y, 0.0],
                       [x0, y0 + width_y, 0.0]])
    tris.append(np.asarray([ground[[0, 1, 2]], ground[[0, 2, 3]]]))

    triangles = np.concatenate(tris) / M_PER_KM
    if materials is None:
        materials = [CONCRETE]
    material_ids = np.zeros(len(triangles), dtype=int)
    return Scene(triangles, material_ids, materials)


def ground_plane(width_m: float = 1000.0,
                 materials: list[Material] | None = None) -> Scene:
    """Bare square ground plane centered at the origin (two triangles)."""
    h = width_m / 2.0 / M_PER_KM
    quad = np.array([[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]])
    tris = np.asarray([quad[[0, 1, 2]], quad[[0, 2, 3]]])
    if materials is None:
        materials = [CONCRETE]
    return Scene(tris, np.zeros(2, dtype=int), materials)


def scene_to_text(scene: Scene) -> str:
    """One triangle per line: nine vertex coordinates (km) + material id."""
    buf = io.StringIO()
    for tri, mat in zip(scene.triangles, scene.material_ids):
        coords = ",".join(repr(float(v)) for v in tri.reshape(9))
        buf.write(f"{coords},{int(mat)}\n")
    return buf.getvalue()


def scene_from_text(text: str,
                    materials: list[Material] | None = None) -> Scene:
    """Parse ``scene_to_text`` output; errors name the offending line."""
    if materials is None:
        materials = [CONCRETE]
    tris = []
    mats = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ValueError(f"line {lineno}: expected 10 fields, "
                             f"got {len(parts)}")
        try:
            values = [float(p) for p in parts[:9]]
            mat = int(parts[9])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        tri = np.asarray(values).reshape(3, 3)
        if not np.isfinite(tri).all():
            raise ValueError(f"line {lineno}: non-finite coordinate")
        if not 0 <= mat < len(materials):
            raise ValueError(f"line {lineno}: material id {mat} not in "
                             f"[0, {len(materials)})")
        tris.append(tri)
        mats.append(mat)
    return Scene(np.asarray(tris).reshape(-1, 3, 3),
                 np.asarray(mats, dtype=int), materials)
