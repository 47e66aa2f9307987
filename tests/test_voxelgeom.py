"""Voxel grid construction, surface/normal extraction, ray casting, file IO."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    box_grid,
    by_index,
    cube_mesh,
    icosphere_mesh,
    make_grid,
    oracle_ray_cast,
    segment_hits_aabb,
    write_obj,
)
from handover.voxelgeom import (
    Mesh,
    VoxelGrid,
    _slab,
    estimate_normals,
    load_obj,
    load_vgrid,
    ray_cast,
    save_vgrid,
    segments_hit_boxes,
    surface_voxels,
    voxelize_mesh,
)
from handover import voxelgeom


def world_to_index(grid, point):
    """The grid cell holding a world point (it may lie outside the grid)."""
    g = np.floor((np.asarray(point, dtype=float) - grid.origin) / grid.voxel_size)
    return (int(g[0]), int(g[1]), int(g[2]))


def in_bounds(grid, idx) -> bool:
    return all(0 <= idx[a] < grid.dims[a] for a in range(3))


class TestVoxelize:
    def test_unit_cube_containment(self):
        grid = voxelize_mesh(cube_mesh(1.0), dims=(64, 64, 64), padding=0.05)
        centers = grid.occupied_centers
        assert centers.size > 0
        # strictly inside the cube: every occupied center, with half-voxel slack
        m = 0.5 + grid.voxel_size
        assert np.all(np.abs(centers) <= m)
        # and conversely the deep interior is fully occupied
        xs = np.linspace(-0.4, 0.4, 5)
        for x in xs:
            for y in xs:
                for z in xs:
                    assert grid.occupancy[world_to_index(grid, (x, y, z))]

    def test_empty_mesh_error(self):
        mesh = Mesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(ValueError, match="empty mesh"):
            voxelize_mesh(mesh)

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_face_index_outside_the_vertices_names_faces(self, index):
        with pytest.raises(ValueError, match=re.escape("faces must be vertex indices in [0, 3)")):
            voxelize_mesh(Mesh(np.eye(3), [(0, 1, index)]), (4, 4, 4))

    @pytest.mark.parametrize("face", ["f 1 2 4", "f 1 2 0", "f 1 2 -4"])
    def test_obj_face_index_outside_the_vertices_names_file_and_faces(self, face, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: faces must be vertex indices in [0, 3)")):
            load_obj(path)

    def test_sphere_volume_within_10_percent(self):
        r = 0.5
        grid = voxelize_mesh(icosphere_mesh(r, 3), dims=(64, 64, 64), padding=0.05)
        expect = (4.0 / 3.0) * math.pi * r**3 / grid.voxel_size**3
        assert abs(grid.occupied_count - expect) <= 0.10 * expect

    def test_convex_mesh_is_6_connected(self):
        grid = voxelize_mesh(cube_mesh(1.0), dims=(24, 24, 24))
        occupied = {tuple(i) for i in np.argwhere(grid.occupancy)}
        seen = set()
        stack = [next(iter(occupied))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            x, y, z = v
            for n in (
                (x + 1, y, z), (x - 1, y, z), (x, y + 1, z),
                (x, y - 1, z), (x, y, z + 1), (x, y, z - 1),
            ):
                if n in occupied and n not in seen:
                    stack.append(n)
        assert seen == occupied

    def test_nonfinite_vertices_error(self):
        mesh = cube_mesh(1.0)
        mesh.vertices[0, 0] = np.nan
        with pytest.raises(ValueError, match="^mesh larger than representable extent: non-finite vertex$"):
            voxelize_mesh(mesh)


# -- the per-triangle voxelizer, kept as the oracle ----------------------------


def oracle_edge(ax, ay, bx, by, px, py):
    """2D edge function: cross(b - a, p - a). Positive = p left of a->b."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def oracle_voxelize_mesh(mesh: Mesh, dims=(64, 64, 64), padding: float = 0.05) -> VoxelGrid:
    """The per-triangle voxelizer that voxelgeom.voxelize_mesh replaced, kept as
    its bitwise oracle. Solid voxelization by even-odd parity of surface crossings along +z.

    The grid is sized so the mesh bounding box (expanded by `padding` as a
    fraction of its extent, per side) fits inside `dims` with cubic cells;
    the mesh is centered in the grid.

    A cell is occupied iff its center sees an odd number of triangle
    crossings below it along z. Shared triangle edges are resolved with a
    consistent perturbation rule so watertight meshes fill without seams.
    """
    dims = tuple(int(d) for d in dims)
    if len(mesh.faces) == 0:
        raise ValueError("empty mesh")
    verts = mesh.vertices
    if not np.isfinite(verts).all():
        raise ValueError("mesh larger than representable extent: non-finite vertex")
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    extent = hi - lo
    if float(extent.max()) <= 0:
        raise ValueError("mesh larger than representable extent: zero-extent bounding box")
    padded = extent * (1.0 + 2.0 * padding)
    voxel_size = float(max(padded[a] / dims[a] for a in range(3)))
    if not (voxel_size > 0 and math.isfinite(voxel_size)):
        raise ValueError("mesh larger than representable extent")
    mid = (lo + hi) / 2.0
    origin = mid - np.asarray(dims, dtype=float) * voxel_size / 2.0

    nx, ny, nz = dims
    # z values of all cell centers, shared by every column
    zc = origin[2] + (np.arange(nz) + 0.5) * voxel_size
    crossings: dict[tuple[int, int], list[float]] = {}

    cx0 = origin[0] + 0.5 * voxel_size
    cy0 = origin[1] + 0.5 * voxel_size
    for tri in mesh.faces:
        v0, v1, v2 = verts[tri[0]], verts[tri[1]], verts[tri[2]]
        area2 = oracle_edge(v0[0], v0[1], v1[0], v1[1], v2[0], v2[1])
        if area2 == 0.0:
            continue  # degenerate in projection; vertical wall, no z crossing
        if area2 < 0:
            v1, v2 = v2, v1
            area2 = -area2
        # candidate columns limited to the triangle's xy bounding box
        txlo = min(v0[0], v1[0], v2[0])
        txhi = max(v0[0], v1[0], v2[0])
        tylo = min(v0[1], v1[1], v2[1])
        tyhi = max(v0[1], v1[1], v2[1])
        ix0 = max(0, int(math.ceil((txlo - cx0) / voxel_size)))
        ix1 = min(nx - 1, int(math.floor((txhi - cx0) / voxel_size)))
        iy0 = max(0, int(math.ceil((tylo - cy0) / voxel_size)))
        iy1 = min(ny - 1, int(math.floor((tyhi - cy0) / voxel_size)))
        if ix0 > ix1 or iy0 > iy1:
            continue
        ixs = np.arange(ix0, ix1 + 1)
        iys = np.arange(iy0, iy1 + 1)
        px = (cx0 + ixs * voxel_size)[:, None]
        py = (cy0 + iys * voxel_size)[None, :]
        w0 = oracle_edge(v1[0], v1[1], v2[0], v2[1], px, py)
        w1 = oracle_edge(v2[0], v2[1], v0[0], v0[1], px, py)
        w2 = oracle_edge(v0[0], v0[1], v1[0], v1[1], px, py)
        inside = np.ones(w0.shape, dtype=bool)
        for w, (a, b) in ((w0, (v1, v2)), (w1, (v2, v0)), (w2, (v0, v1))):
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            # tie rule: boundary counts iff a +x-infinitesimal perturbation
            # lands strictly inside (dy < 0, or dy == 0 and dx > 0)
            on_tie = dy < 0 or (dy == 0 and dx > 0)
            inside &= (w > 0) | ((w == 0) & on_tie)
        if not inside.any():
            continue
        zhit = (w0 * v0[2] + w1 * v1[2] + w2 * v2[2]) / (w0 + w1 + w2)
        for ii, jj in zip(*np.nonzero(inside)):
            crossings.setdefault((int(ixs[ii]), int(iys[jj])), []).append(float(zhit[ii, jj]))

    occ = np.zeros(dims, dtype=bool)
    for (ix, iy), zs in crossings.items():
        zs_arr = np.sort(np.asarray(zs))
        below = np.searchsorted(zs_arr, zc, side="right")
        occ[ix, iy, :] = (below % 2) == 1
    return VoxelGrid(dims, voxel_size, origin, occ)


QUAD_CUBE_OBJ = """\
v -0.5 -0.5 -0.5
v -0.5 -0.5 0.5
v -0.5 0.5 -0.5
v -0.5 0.5 0.5
v 0.5 -0.5 -0.5
v 0.5 -0.5 0.5
v 0.5 0.5 -0.5
v 0.5 0.5 0.5
f 1 2 4 3
f 5 7 8 6
f 1 5 6 2
f 3 4 8 7
f 1 3 7 5
f 2 6 8 4
"""


def quad_cube(tmp_path) -> Mesh:
    """The unit cube of QUAD_CUBE_OBJ, one quad per face, read by load_obj."""
    path = tmp_path / "quad_cube.obj"
    path.write_text(QUAD_CUBE_OBJ)
    return load_obj(path)


def assert_same_grid(got, want):
    assert got.dims == want.dims
    assert got.occupancy.tobytes() == want.occupancy.tobytes()
    assert got.voxel_size == want.voxel_size
    assert got.origin.tobytes() == want.origin.tobytes()


_DIMS = [(64, 64, 64), (24, 31, 17), (3, 90, 5), (7, 7, 7), (1, 1, 1)]
_MESHES = {
    "cube": lambda tmp_path: cube_mesh(1.0),
    "offset_cube": lambda tmp_path: cube_mesh(0.3, (0.25, -0.1, 2.0)),
    "icosphere3": lambda tmp_path: icosphere_mesh(0.5, 3),
    "icosphere4": lambda tmp_path: icosphere_mesh(0.5, 4),
    "quad_cube": quad_cube,
}


class TestVoxelizeOracle:
    @pytest.mark.parametrize("dims", _DIMS)
    @pytest.mark.parametrize("name", list(_MESHES))
    def test_equals_the_per_triangle_oracle(self, name, dims, tmp_path):
        mesh = _MESHES[name](tmp_path)
        assert_same_grid(voxelize_mesh(mesh, dims), oracle_voxelize_mesh(mesh, dims))

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_blocks_split_mid_mesh(self, chunk, monkeypatch):
        mesh = icosphere_mesh(0.5, 2)
        want = oracle_voxelize_mesh(mesh, (24, 31, 17))
        monkeypatch.setattr(voxelgeom, "VOXELIZE_CHUNK_PAIRS", chunk)
        assert_same_grid(voxelize_mesh(mesh, (24, 31, 17)), want)

    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data(), integer=st.booleans(), chunk=st.sampled_from([3, 64, 2048]))
    def test_random_meshes_equal_the_oracle(self, data, integer, chunk, monkeypatch):
        """Float vertices, or integer ones in [-4, 4] on a grid of unit cells
        centered on the integers (two unused corner vertices fix its frame),
        so columns meet shared edges and crossings meet cell centers exactly.
        Faces may repeat a vertex (degenerate) or stand vertical."""
        n = data.draw(st.integers(3, 10))
        coord = st.integers(-4, 4).map(float) if integer else st.floats(-2.0, 2.0, width=32)
        verts = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n))
        faces = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=24))
        if data.draw(st.booleans()):  # a vertical wall: vertex 1 straight above or below vertex 0
            verts[1] = (*verts[0][:2], verts[1][2])
            faces.append((0, 1, 2))
        if integer:  # extent 8 padded by 1/16 a side: 9 units, so 1.0 cells where dims are 9 or more
            dims, padding = data.draw(st.sampled_from([(9, 9, 9), (9, 9, 17), (17, 9, 11)])), 1 / 16
            verts += [(-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)]
        else:
            dims, padding = data.draw(st.sampled_from([(16, 16, 16), *_DIMS[1:]])), 0.05
        mesh = Mesh(verts, faces)
        try:
            want = oracle_voxelize_mesh(mesh, dims, padding)
        except ValueError as exc:  # a flat point set: the error keeps its message
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                voxelize_mesh(mesh, dims, padding)
            return
        monkeypatch.setattr(voxelgeom, "VOXELIZE_CHUNK_PAIRS", chunk)
        assert_same_grid(voxelize_mesh(mesh, dims, padding), want)

    @pytest.mark.parametrize("dims", [(5, 5, 4), (5, 5, 9), (9, 5, 4)])
    def test_integer_cube_ties_equal_the_oracle(self, dims, monkeypatch):
        """A watertight cube on corners 0 and 4, on 1.0 cells: the columns are
        the integer points, on its edges and shared diagonals, so the tie
        rule decides every column on them."""
        mesh = Mesh(cube_mesh(4.0).vertices + 2.0, cube_mesh(4.0).faces)
        want = oracle_voxelize_mesh(mesh, dims, padding=0.0)
        assert 0 < want.occupied_count < want.occupancy.size
        monkeypatch.setattr(voxelgeom, "VOXELIZE_CHUNK_PAIRS", 5)
        assert_same_grid(voxelize_mesh(mesh, dims, padding=0.0), want)

    def test_quad_faces_equal_their_triangulated_twin(self, tmp_path):
        """load_obj fans each quad into two triangles, so the quad cube fills
        as the same cube written as triangles, bit for bit."""
        quads = quad_cube(tmp_path)
        twin = tmp_path / "twin.obj"
        write_obj(quads, twin)
        assert len(quads.faces) == 12
        assert load_obj(twin).faces.tolist() == quads.faces.tolist()
        got, want = voxelize_mesh(quads, (16, 16, 16)), voxelize_mesh(load_obj(twin), (16, 16, 16))
        assert_same_grid(got, want)
        assert got.occupied_count == 14**3  # the 16 cells less one a side, 0.05 of the extent

    def test_polygon_faces_fan_from_their_first_vertex(self, tmp_path):
        path = tmp_path / "poly.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 2 1\nf 1 2/7 3//2 -2 5/1/1\nf 1 2 3\n")
        assert load_obj(path).faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 2]]

    @pytest.mark.parametrize("kwargs,message", [
        ({"dims": (0, 8, 8)}, "dims must be an integer in [1, inf), got 0"),
        ({"dims": (8, -4, 8)}, "dims must be an integer in [1, inf), got -4"),
        ({"dims": (8, 8, 2.5)}, "dims must be an integer in [1, inf), got 2.5"),
        ({"padding": -0.6}, "padding must be a finite number in [0, inf), got -0.6"),
        ({"padding": float("nan")}, "padding must be a finite number in [0, inf), got nan"),
        ({"padding": float("inf")}, "padding must be a finite number in [0, inf), got inf"),
    ])
    def test_bad_dims_and_padding_name_the_argument(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            voxelize_mesh(cube_mesh(1.0), **kwargs)

    def test_zero_extent_error(self):
        mesh = Mesh(np.ones((3, 3)), [(0, 1, 2)])
        with pytest.raises(ValueError, match="^mesh larger than representable extent: zero-extent bounding box$"):
            voxelize_mesh(mesh)

    def test_memory_peak_on_the_subdivided_icosphere(self):
        """Its 5,120 triangles at 64^3 peaked near 1.74 MB under tracemalloc
        (numpy 2.4, x86_64) in blocks of 2,048 pairs; the per-triangle loop
        peaked near 1.00 MB."""
        mesh = icosphere_mesh(0.5, 4)
        tracemalloc.start()
        try:
            voxelize_mesh(mesh, (64, 64, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_500_000


class TestSurface:
    def test_single_voxel_is_surface(self):
        occ = np.zeros((5, 5, 5), dtype=bool)
        occ[2, 2, 2] = True
        assert surface_voxels(make_grid(occ)).tolist() == [[2, 2, 2]]

    def test_3x3x3_block_has_26_surface_voxels(self):
        grid = box_grid((5, 5, 5), (1, 1, 1), (3, 3, 3))
        surf = list(map(tuple, surface_voxels(grid).tolist()))
        assert len(surf) == 26
        assert (2, 2, 2) not in surf

    def test_empty_grid(self):
        assert surface_voxels(make_grid(np.zeros((4, 4, 4), dtype=bool))).tolist() == []

    def test_translation_invariance(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[1:4, 2:5, 1:3] = True
        a = surface_voxels(make_grid(occ, origin=(0, 0, 0)))
        b = surface_voxels(make_grid(occ, origin=(12.3, -4.5, 6.7)))
        assert a.tolist() == b.tolist()


class TestNormals:
    def test_face_normal_of_block(self):
        grid = box_grid((9, 9, 9), (2, 2, 2), (6, 6, 6))
        normals = by_index(grid.surface, estimate_normals(grid))
        assert np.allclose(normals[(6, 4, 4)], (1, 0, 0), atol=1e-6)
        assert np.allclose(normals[(2, 4, 4)], (-1, 0, 0), atol=1e-6)
        assert np.allclose(normals[(4, 4, 6)], (0, 0, 1), atol=1e-6)

    def test_isolated_voxel_fallback_is_unit(self):
        occ = np.zeros((5, 5, 5), dtype=bool)
        occ[2, 2, 2] = True
        grid = make_grid(occ)
        normals = by_index(grid.surface, estimate_normals(grid))
        assert abs(np.linalg.norm(normals[(2, 2, 2)]) - 1.0) < 1e-6

    def test_sphere_normals_near_radial(self):
        grid = voxelize_mesh(icosphere_mesh(0.5, 3), dims=(48, 48, 48))
        normals = by_index(grid.surface, estimate_normals(grid))
        center = grid.occupied_centers.mean(axis=0)
        devs = []
        for idx, n in normals.items():
            radial = grid.center(idx) - center
            radial /= np.linalg.norm(radial)
            devs.append(math.degrees(math.acos(np.clip(np.dot(n, radial), -1, 1))))
        assert np.mean(devs) < 15.0

    def test_all_normals_unit(self):
        grid = box_grid((8, 8, 8), (1, 1, 1), (5, 4, 3))
        for n in estimate_normals(grid):
            assert abs(np.linalg.norm(n) - 1.0) < 1e-6

    def test_the_cached_arrays_are_read_only(self):
        """Every later stage reads these caches, so no caller may write them."""
        grid = box_grid((6, 6, 6), (1, 1, 1), (4, 4, 4))
        for name in ("occupancy", "surface", "normals"):
            arr = getattr(grid, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
            assert getattr(grid, name) is arr

    def test_surface_rows_find_each_surface_voxel_and_nothing_else(self):
        grid = box_grid((5, 5, 5), (1, 1, 1), (3, 3, 3))
        n = len(grid.surface)
        assert grid.surface_rows(grid.surface).tolist() == list(range(n))
        assert grid.surface_rows(grid.surface[::-1, None]).tolist() == [[r] for r in reversed(range(n))]
        off = [(2, 2, 2), (0, 0, 0), (-1, 2, 2), (5, 2, 2), (2, 2, 9)]  # interior, empty, off the grid
        assert grid.surface_rows(off).tolist() == [-1] * len(off)
        # off the grid on y; then a box filling the grid, whose faces are surface, so every index off
        # the grid has a clipped key that lands on a surface voxel
        wall = box_grid((5, 5, 5), (0, 0, 0), (4, 4, 4))
        cases = [(grid, [(2, -1, 2), (2, 5, 2), (1, -7, 1), (3, 12, 3)]),
                 (wall, [(-1, 2, 2), (5, 2, 2), (2, -1, 2), (2, 5, 2), (2, 2, -1), (2, 2, 5), (-3, 7, 2), (0, 0, 0)])]
        for g, idx in cases:
            assert g.surface_rows(idx).tolist() == looped_surface_rows(g, idx).tolist()
        assert looped_surface_rows(wall, cases[1][1]).tolist() == [-1] * 7 + [0]
        # the sampler's call form: the (B, S, 3) moveaxis view of axes-first (3, B, S) probe cells
        stack = np.random.default_rng(0).integers(-1, 6, size=(3, 8, 40))
        for g in (grid, wall):
            want = looped_surface_rows(g, np.moveaxis(stack, 0, -1))
            assert 0 < np.count_nonzero(want >= 0) < want.size
            assert np.array_equal(g.surface_rows(np.moveaxis(stack, 0, -1)), want)


def looped_surface_rows(grid, indices) -> np.ndarray:
    """VoxelGrid.surface_rows one index at a time: its row in grid.surface,
    -1 off the surface (an index off the grid is on no surface voxel)."""
    idx = np.asarray(indices)
    row_of = {s: r for r, s in enumerate(map(tuple, grid.surface.tolist()))}
    return np.array([row_of.get(tuple(i), -1) for i in idx.reshape(-1, 3).tolist()]).reshape(idx.shape[:-1])


def _cells(dims, *occupied):
    occ = np.zeros(dims, dtype=bool)
    for idx in occupied:
        occ[idx] = True
    return occ


# (occupancy, origins, directions, t_max, blocked); a grid of 0.25 m cells at
# the origin, so every face, edge and end point below is exact in binary
_EDGE_CASES = {
    "parallel on the upper face misses": (
        np.ones((4, 4, 4)), [[-0.5, 0.5, 1.0], [0.5, 1.0, 0.5]], [[1, 0, 0], [0, 0, -1]], 3.0,
        [False, False],
    ),
    "parallel on the lower face walks": (
        _cells((4, 4, 4), (3, 1, 0), (2, 0, 1)), [[-0.5, 0.3, 0.0], [0.6, 0.0, -0.5]],
        [[1, 0, 0], [0, 0, 1]], 3.0, [True, True],
    ),
    "origin inside an occupied cell": (
        _cells((4, 4, 4), (1, 2, 3)), [[0.3, 0.6, 0.8]] * 3,
        [[1, 0, 0], [-0.6, 0.0, 0.8], [0, 0, 1]], 0.01, [True, True, True],
    ),
    "segment ending exactly on a cell face": (
        _cells((4, 4, 4), (2, 1, 1)), [[0.125, 0.3, 0.3]] * 2, [[1, 0, 0]] * 2,
        np.array([0.375, np.nextafter(0.375, 0.0)]), [True, False],
    ),
    # both lines cross the edge x = y = 0.25 of cell (0, 0, 0); the walk steps
    # x first on the tie there, so only the second one enters that cell
    "grazing ray through a cell edge": (
        _cells((4, 4, 4), (0, 0, 0)), [[-0.25, 0.75, 0.125], [0.75, -0.25, 0.125]],
        [[1, -1, 0], [-1, 1, 0]], 1.0, [False, True],
    ),
    "batch mixing misses and hits": (
        _cells((4, 4, 4), (0, 0, 0), (3, 3, 3), (1, 2, 1)),
        [[-0.5, 0.1, 0.1], [-0.5, 0.1, 0.1], [2.0, 2.0, 2.0], [0.9, 0.9, 0.9], [1.5, 0.6, 0.3],
         [-0.1, -0.1, -0.1]],
        [[1, 0, 0], [-1, 0, 0], [1, 1, 1], [-1, -1, -1], [-1, 0, 0], [1, 1, 1]],
        np.array([1.0, 1.0, 5.0, 0.5, 1.2, 0.2]), [True, False, False, True, True, True],
    ),
}


class TestRayCast:
    def test_empty_grid_no_hit(self):
        grid = make_grid(np.zeros((10, 10, 10), dtype=bool))
        assert ray_cast(grid, (-1, 0.05, 0.05), (1, 0, 0), 5.0).tolist() == [False]

    def test_single_voxel_hit_distance(self):
        occ = np.zeros((220, 8, 8), dtype=bool)
        occ[203, 3, 3] = True  # center x = 2.035, entered 0.995 m from the start
        grid = make_grid(occ, voxel_size=0.01, origin=(0.0, 0.0, 0.0))
        start = np.array([1.035, 0.035, 0.035])
        idx, t = oracle_ray_cast(grid, start, (1, 0, 0), 3.0)
        assert idx == (203, 3, 3)
        assert abs(t - 1.0) <= grid.voxel_size
        t_max = np.array([0.99, 1.0, 3.0])
        assert ray_cast(grid, start, (1, 0, 0), t_max).tolist() == [False, True, True]

    def test_random_rays_match_marching_and_slab_oracles(self):
        rng = np.random.default_rng(11)
        occ = rng.random((16, 16, 16)) < 0.12
        grid = make_grid(occ, voxel_size=0.01)
        vs = grid.voxel_size
        origins = rng.uniform(-0.05, 0.21, size=(100, 3))
        dirs = rng.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        got = ray_cast(grid, origins, dirs, 0.5)
        assert got.shape == (100,) and 0 < got.sum() < 100
        for origin, direction, blocked in zip(origins, dirs, got.tolist()):
            scalar = oracle_ray_cast(grid, origin, direction, 0.5)
            # oracle 1: fine-step marching
            march = None
            for k in range(int(0.5 / (0.1 * vs))):
                p = origin + direction * (k * 0.1 * vs)
                idx = world_to_index(grid, p)
                if in_bounds(grid, idx) and grid.occupancy[idx]:
                    march = idx
                    break
            # oracle 2: exact first-entry over per-voxel AABBs
            best = None
            for idx in map(tuple, np.argwhere(occ)):
                lo = grid.origin + np.array(idx) * vs
                t0, t1 = 0.0, 0.5
                ok = True
                for a in range(3):
                    if direction[a] == 0.0:
                        if origin[a] < lo[a] or origin[a] > lo[a] + vs:
                            ok = False
                            break
                        continue
                    ta = (lo[a] - origin[a]) / direction[a]
                    tb = (lo[a] + vs - origin[a]) / direction[a]
                    if ta > tb:
                        ta, tb = tb, ta
                    t0, t1 = max(t0, ta), min(t1, tb)
                    if t0 > t1:
                        ok = False
                        break
                if ok and (best is None or t0 < best[1]):
                    best = (idx, t0)
            scalar_idx = scalar[0] if scalar else None
            assert scalar_idx == march
            assert scalar_idx == (best[0] if best else None)
            assert blocked is (scalar is not None)

    def test_reversed_ray_visibility_is_symmetric(self):
        occ = np.zeros((12, 12, 12), dtype=bool)
        occ[6, 4:8, 4:8] = True  # wall between the two probe points
        a = np.array([0.02, 0.055, 0.055])
        b = np.array([0.10, 0.055, 0.055])
        d = (b - a) / np.linalg.norm(b - a)
        dist = float(np.linalg.norm(b - a))
        both = (np.stack([a, b]), np.stack([d, -d]), dist)
        assert ray_cast(make_grid(occ, voxel_size=0.01), *both).tolist() == [True, True]
        occ[6] = False  # open the wall: both directions clear
        assert ray_cast(make_grid(occ, voxel_size=0.01), *both).tolist() == [False, False]

    def test_ray_floated_off_the_surface_hits_nothing(self):
        grid = box_grid((10, 10, 10), (3, 3, 3), (6, 6, 6))
        normals = by_index(grid.surface, estimate_normals(grid))
        surface = list(map(tuple, surface_voxels(grid).tolist()))
        n = np.array([normals[idx] for idx in surface])
        origins = grid.centers(surface) + 2.0 * grid.voxel_size * n
        assert not ray_cast(grid, origins, n, 0.05).any()
        assert ray_cast(grid, origins, -n, 0.05).all()  # turned back, each hits the box

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_edge_cases_match_the_scalar_oracle(self, case):
        occ, origins, dirs, t_max, expect = _EDGE_CASES[case]
        grid = make_grid(occ, voxel_size=0.25)
        origins, dirs = np.array(origins, dtype=float), np.array(dirs, dtype=float)
        t_max = np.broadcast_to(t_max, len(origins))
        scalar = [oracle_ray_cast(grid, o, d, t) is not None for o, d, t in zip(origins, dirs, t_max)]
        assert scalar == expect
        assert ray_cast(grid, origins, dirs, t_max).tolist() == expect

    @pytest.mark.parametrize("dims", [(3, 17, 5), (1, 4, 9), (6, 1, 1)])
    def test_odd_grid_shapes_match_the_scalar_oracle(self, dims):
        """Non-cubic grids and grids one cell thick: lines from every empty
        cell and from outside the grid, along each axis both ways (two zero
        direction components), tilted off it (one, then none) and at random,
        so some leave through each of the six faces."""
        rng = np.random.default_rng(sum(dims))
        occ = rng.random(dims) < 0.2
        grid = make_grid(occ, voxel_size=0.25, origin=(-0.4, 0.3, 1.1))
        lo, hi = grid.origin, grid.origin + np.array(dims) * grid.voxel_size
        eye = np.eye(3)
        axial = [s * eye[a] for a in range(3) for s in (-1.0, 1.0)]
        tilted = [d + 0.37 * np.roll(d, 1) for d in axial]
        tilted += [d - 0.21 * np.roll(d, 2) for d in tilted]
        dirs = np.array(axial + tilted + list(rng.normal(size=(6, 3))))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        inside = grid.centers(np.argwhere(~occ)) + rng.uniform(-0.1, 0.1, size=(int((~occ).sum()), 3))
        outside = rng.uniform(lo - 0.5, hi + 0.5, size=(40, 3))
        origins = np.repeat(np.vstack([inside, outside]), len(dirs), axis=0)
        dirs = np.tile(dirs, (len(origins) // len(dirs), 1))
        t_max = rng.choice([0.3, 10.0], size=len(origins))
        scalar = [oracle_ray_cast(grid, o, d, t) is not None for o, d, t in zip(origins, dirs, t_max)]
        assert ray_cast(grid, origins, dirs, t_max).tolist() == scalar
        ends = origins + dirs * t_max[:, None]
        for a in range(3):
            for beyond in (ends[:, a] < lo[a], ends[:, a] > hi[a]):
                along = (dirs[:, a] != 0) & (np.delete(dirs, a, axis=1) == 0).all(axis=1)
                assert (beyond & along & ~np.array(scalar)).any()  # a clear line left through this face


    def test_lines_freeze_and_are_copied_out(self):
        """Six of eleven lines stop in their entry cell, so the live five are
        copied out at once; two of them stop on the next step (one on the
        border) and stay frozen while three walk on, then all are copied out."""
        grid = make_grid(np.array([1, 1, 1, 0, 0, 1, 0, 0], dtype=bool).reshape(8, 1, 1), voxel_size=1.0)
        starts = [0.5, 1.5, 2.5, 0.2, 1.2, 2.2, 4.5, 7.5, 3.5, 6.2, 3.5]
        t_max = np.array([10.0] * 10 + [1.2])
        origins = np.array([[x, 0.5, 0.5] for x in starts])
        expect = [True] * 6 + [True, False, True, False, False]
        scalar = [oracle_ray_cast(grid, o, (1, 0, 0), t) is not None for o, t in zip(origins, t_max)]
        assert scalar == expect
        assert ray_cast(grid, origins, (1.0, 0.0, 0.0), t_max).tolist() == expect

    def test_occupied_box_bounds_the_occupied_cells(self):
        grid = box_grid((9, 7, 5), (2, 0, 1), (6, 3, 4))
        assert grid.occupied_box.tolist() == [[2, 0, 1], [6, 3, 4]]
        assert not grid.occupied_box.flags.writeable
        empty = make_grid(np.zeros((4, 6, 5), dtype=bool))
        assert (empty.occupied_box[0] > empty.occupied_box[1]).all()  # no line can reach it


def literal_steps(h, td, k) -> np.ndarray:
    """h after k sequential h += td, one row at a time: the walk's own adds."""
    out = []
    for x, t, n in zip(h.tolist(), td.tolist(), k.tolist()):
        for _ in range(n):
            x += t
        out.append(x)
    return np.array(out)


def test_sum_steps_equal_a_literal_add_loop_bitwise():
    """ray_cast starts a line at the occupied box with the heads its walk
    would have summed there; _sum_steps jumps through each binade in closed
    form, and every row must come out as the literal adds, bit for bit:
    heads that cross binades, half-ulp ties (a dyadic step) from odd and
    even h / ulp, steps at least as large as the head, no steps, and
    infinite steps (an axis with a zero direction component)."""
    rng = np.random.default_rng(40)
    n = 300
    ulp = 2.0**-53  # of the binade [0.5, 1)
    odd, even = (0.5 + (2 * rng.integers(0, 2**50, n) + p) * ulp for p in (1, 0))
    ties = (2 * np.concatenate([rng.integers(0, 4, n // 2), rng.integers(0, 2**40, n - n // 2)]) + 1) * ulp / 2
    groups = [  # (h, td, k)
        (rng.uniform(1e-3, 1.0, n), rng.uniform(1e-3, 0.1, n), rng.integers(0, 65, n)),  # across binades
        (odd, ties, rng.integers(1, 65, n)),
        (even, ties, rng.integers(1, 65, n)),
        (rng.uniform(1e-4, 0.01, n), rng.uniform(0.01, 1.0, n), rng.integers(1, 20, n)),  # td >= h
        (rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 0.5, n), np.zeros(n, dtype=int)),
        (np.full(n, np.inf), np.full(n, np.inf), rng.integers(0, 5, n)),
        (rng.uniform(0.0, 2.0, n), np.full(n, np.inf), rng.integers(1, 5, n)),
    ]
    h, td, k = (np.concatenate(v) for v in zip(*groups))
    want = literal_steps(h, td, k)
    assert (np.abs(np.diff(want[n : 3 * n].reshape(2, n))) > 0).any()  # odd and even heads part on some ties
    assert np.array_equal(voxelgeom._sum_steps(h, td, k).view(np.int64), want.view(np.int64))
    shaped = voxelgeom._sum_steps(h.reshape(-1, 3), td.reshape(-1, 3), k.reshape(-1, 3))  # as ray_cast's (n, 3)
    assert shaped.shape == (len(h) // 3, 3) and np.array_equal(shaped.reshape(-1).view(np.int64), want.view(np.int64))


@st.composite
def box_walk_cases(draw):
    """A grid of 4 to 16 cells a side that is empty, holds one cell, a box
    that may touch the grid's faces, or the shell of one; and 60 lines from
    inside and outside both the grid and the occupied box, some with zero
    direction components, some lying on a face plane of that box, each
    ending before, inside or after it (or at its entry)."""
    dims = tuple(draw(st.integers(4, 16)) for _ in range(3))
    kind = draw(st.sampled_from(["empty", "one cell", "box", "shell"]))
    lo = [draw(st.one_of(st.just(0), st.integers(0, d - 1))) for d in dims]
    hi = [draw(st.one_of(st.just(d - 1), st.integers(a, d - 1))) for a, d in zip(lo, dims)]
    hi = lo if kind == "one cell" else hi
    occ = np.zeros(dims, dtype=bool)
    occ[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] = kind != "empty"
    if kind == "shell":
        occ[lo[0] + 1 : hi[0], lo[1] + 1 : hi[1], lo[2] + 1 : hi[2]] = False
    vs = draw(st.sampled_from([0.25, 0.01, 0.037]))
    grid = make_grid(occ, voxel_size=vs, origin=draw(st.sampled_from([(0.0, 0.0, 0.0), (-0.4, 0.3, 1.1),
                                                                      (12.5, -7.25, 3.0)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g_lo, g_hi = grid.origin, grid.origin + np.array(dims) * vs
    b_lo, b_hi = grid.origin + np.array(lo) * vs, grid.origin + (np.array(hi) + 1) * vs
    n = 60
    where = rng.choice(4, n, p=[0.35, 0.35, 0.1, 0.2])  # in the grid, around it, in the box, on a box face plane
    origins = rng.uniform(g_lo - 4 * vs, g_hi + 4 * vs, (n, 3))
    origins[where == 0] = rng.uniform(g_lo, g_hi, (n, 3))[where == 0]
    origins[where == 2] = rng.uniform(b_lo, b_hi, (n, 3))[where == 2]
    aim = rng.uniform(b_lo - vs, b_hi + vs, (n, 3))  # most lines head for the box
    dirs = np.where((rng.random(n) < 0.8)[:, None], aim - origins, rng.normal(size=(n, 3)))
    dirs[rng.random((n, 3)) < 0.2] = 0.0
    face, axis = where == 3, rng.integers(0, 3, n)
    origins[face, axis[face]] = np.where(rng.random((n, 1)) < 0.5, b_lo, b_hi)[face, axis[face]]
    dirs[face, axis[face]] = 0.0
    dirs[~dirs.any(axis=1), 0] = 1.0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t0, t1, ok = voxelgeom._slab(origins, dirs, 1e3, b_lo, b_hi)  # the box's span along each line
    t0, t1 = np.where(ok, t0, 0.5), np.where(ok, t1, 1.0)
    pick = rng.integers(0, 4, n)
    t_max = np.choose(pick, [t0 * rng.uniform(0.1, 0.95, n), rng.uniform(t0, t1), 2 * t1 + 1.0, t0])
    return grid, origins, dirs, np.maximum(t_max, 0.0)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(box_walk_cases())
def test_ray_cast_started_at_the_occupied_box_matches_the_scalar_walk(case):
    grid, origins, dirs, t_max = case
    scalar = [oracle_ray_cast(grid, o, d, t) is not None for o, d, t in zip(origins, dirs, t_max)]
    assert ray_cast(grid, origins, dirs, t_max).tolist() == scalar


def oracle_slab(origins, dirs, t_max, lo, hi):
    """The masked slab clip the inf/NaN one replaced: a direction component
    of exactly 0 keeps the segment only from inside that slab."""
    shape = np.broadcast_shapes(np.shape(origins), np.shape(dirs), np.shape(lo), np.shape(hi))[:-1]
    t0 = np.zeros(shape)
    t1 = np.full(shape, t_max, dtype=float)
    ok = np.ones(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            da = dirs[..., a]
            oa = origins[..., a]
            zero = da == 0.0
            ok &= ~zero | ((oa >= lo[..., a]) & (oa <= hi[..., a]))
            ta = (lo[..., a] - oa) / da
            tb = (hi[..., a] - oa) / da
            t0 = np.where(zero, t0, np.maximum(t0, np.minimum(ta, tb)))
            t1 = np.where(zero, t1, np.minimum(t1, np.maximum(ta, tb)))
    return t0, t1, ok & (t0 <= t1)


class TestSlab:
    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_matches_the_masked_oracle(self, seed):
        """Zero and -0.0 direction components, origins on slab planes, boxes
        with lo == hi on some axes and a t_max per row: the same ok, and the
        same t0 and t1 wherever ok holds."""
        rng = np.random.default_rng(seed)
        n = 20000
        lo = rng.integers(-2, 2, size=(n, 3)) * 0.5
        hi = lo + rng.integers(0, 3, size=(n, 3)) * 0.5
        # per axis: below the slab, on its lower plane, inside, on its upper plane, above, or anywhere
        offsets = rng.choice([-0.5, 0.0, 0.5, 1.0, 1.5, np.nan], size=(n, 3))
        origins = np.where(np.isnan(offsets), rng.uniform(-2.0, 2.0, size=(n, 3)), lo + offsets * (hi - lo))
        origins[offsets == -0.5] -= 0.25
        origins[offsets == 1.5] += 0.25
        dirs = rng.normal(size=(n, 3))
        dirs[rng.random((n, 3)) < 0.3] = 0.0
        dirs[rng.random((n, 3)) < 0.15] = -0.0
        t_max = rng.choice([0.0, 0.25, 1.0, 3.0, 50.0], size=n)
        want, got = oracle_slab(origins, dirs, t_max, lo, hi), _slab(origins, dirs, t_max, lo, hi)
        ok = want[2]
        assert 0.1 < ok.mean() < 0.9
        assert ((dirs == 0.0).any(axis=1) & ok).sum() > n // 10  # zero components on both outcomes
        assert ((dirs == 0.0).any(axis=1) & ~ok).sum() > n // 10
        assert np.array_equal(got[2], ok)
        assert np.array_equal(got[0][ok], want[0][ok]) and np.array_equal(got[1][ok], want[1][ok])

    def test_broadcast_blocks_match_the_masked_oracle(self):
        """The occlusion scan's shapes: (candidate, ray) origins and
        directions against one box per candidate, axis-aligned normals."""
        rng = np.random.default_rng(3)
        origins = rng.integers(-3, 4, size=(40, 60, 3)) * 0.5
        dirs = np.eye(3)[rng.integers(0, 3, size=(40, 60))] * rng.choice([-1.0, 1.0, -0.0], size=(40, 60, 1))
        lo = rng.uniform(-1.0, 0.0, size=(40, 1, 3))
        hi = lo + rng.uniform(0.0, 1.5, size=(40, 1, 3))
        want, got = oracle_slab(origins, dirs, 2.0, lo, hi), _slab(origins, dirs, 2.0, lo, hi)
        ok = want[2]
        assert 0 < ok.sum() < ok.size
        assert np.array_equal(got[2], ok)
        assert np.array_equal(got[0][ok], want[0][ok]) and np.array_equal(got[1][ok], want[1][ok])


class TestSegmentsHitBoxes:
    UNIT = (np.zeros(3), np.ones(3))

    def test_random_segments_match_exact_oracle(self):
        rng = np.random.default_rng(23)
        n = 3000
        starts = rng.uniform(-1.0, 2.0, size=(n, 3))
        ends = rng.uniform(-1.0, 2.0, size=(n, 3))
        lo = rng.uniform(-0.5, 0.5, size=(n, 3))
        hi = lo + rng.uniform(0.05, 1.5, size=(n, 3))
        expect = np.array([segment_hits_aabb(s, e, l, h) for s, e, l, h in zip(starts, ends, lo, hi)])
        assert 0.1 < expect.mean() < 0.9  # both outcomes well represented
        # end point as t_max = 1 on the raw offset, or as a per-ray length
        # along a unit direction; the closure only matters on a boundary
        length = np.linalg.norm(ends - starts, axis=1)
        for dirs, t_max in ((ends - starts, 1.0), ((ends - starts) / length[:, None], length)):
            for open_end in (False, True):
                got = segments_hit_boxes(starts, dirs, t_max, lo, hi, open_end=open_end)
                assert got.shape == (n,)
                assert np.array_equal(got, expect)

    def test_shared_origin_broadcasts(self):
        rng = np.random.default_rng(5)
        origin = np.array([-0.5, 0.3, 0.4])
        ends = rng.uniform(-1.0, 2.0, size=(500, 3))
        got = segments_hit_boxes(origin, ends - origin, 1.0, *self.UNIT)
        expect = [segment_hits_aabb(origin, e, *self.UNIT) for e in ends]
        assert got.tolist() == expect

    def test_ray_grazing_an_edge_hits_the_closed_box(self):
        # enters and leaves at the single point (0, 0, 0.5)
        o, d = np.array([-1.0, 1.0, 0.5]), np.array([1.0, -1.0, 0.0])
        assert segments_hit_boxes(o, d, 5.0, *self.UNIT)
        assert not segments_hit_boxes(o - [0.0, 1e-9, 0.0], d, 5.0, *self.UNIT)

    def test_parallel_ray_in_a_face_plane(self):
        d = np.array([1.0, 0.0, 0.0])
        for z, hit in ((1.0, True), (0.0, True), (1.0 + 1e-12, False), (-1e-12, False)):
            assert bool(segments_hit_boxes(np.array([-1.0, 0.5, z]), d, 5.0, *self.UNIT)) is hit

    def test_segment_ending_on_a_face(self):
        o, d = np.array([-1.0, 0.5, 0.5]), np.array([1.0, 0.0, 0.0])
        assert segments_hit_boxes(o, d, 1.0, *self.UNIT)
        assert not segments_hit_boxes(o, d, 1.0, *self.UNIT, open_end=True)
        assert not segments_hit_boxes(o, d, np.nextafter(1.0, 0.0), *self.UNIT)
        assert segments_hit_boxes(o, d, np.nextafter(1.0, 2.0), *self.UNIT, open_end=True)

    def test_per_ray_t_max(self):
        o = np.array([-1.0, 0.5, 0.5])
        d = np.tile([1.0, 0.0, 0.0], (4, 1))
        t_max = np.array([0.5, 1.0, 1.5, 3.0])
        closed = segments_hit_boxes(o, d, t_max, *self.UNIT)
        open_ = segments_hit_boxes(o, d, t_max, *self.UNIT, open_end=True)
        assert closed.tolist() == [False, True, True, True]
        assert open_.tolist() == [False, False, True, True]

    def test_start_inside_and_pointing_away(self):
        lo, hi = self.UNIT
        assert segments_hit_boxes(np.full(3, 0.5), np.array([0.0, 0.0, 1.0]), 0.1, lo, hi)
        assert not segments_hit_boxes(np.array([-1.0, 0.5, 0.5]), np.array([-1.0, 0.0, 0.0]),
                                      5.0, lo, hi)


class TestVgridIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        occ = rng.random((7, 9, 5)) < 0.3
        grid = make_grid(occ, voxel_size=0.004, origin=(1.25, -0.5, 0.125))
        p1, p2 = tmp_path / "a.vgrid", tmp_path / "b.vgrid"
        save_vgrid(grid, p1)
        loaded = load_vgrid(p1)
        assert loaded.dims == grid.dims
        assert loaded.voxel_size == grid.voxel_size
        assert np.array_equal(loaded.origin, grid.origin)
        assert np.array_equal(loaded.occupancy, grid.occupancy)
        save_vgrid(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_rejected_on_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.vgrid"
        p.write_text("NOPE 1\ndims 1 1 1\nvoxel_size 0.01\norigin 0 0 0\n1\n")
        with pytest.raises(ValueError):
            load_vgrid(p)
