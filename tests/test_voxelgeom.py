"""Voxel grid construction, surface/normal extraction, ray casting, file IO."""
import math

import numpy as np
import pytest

from conftest import (
    box_grid,
    by_index,
    cube_mesh,
    icosphere_mesh,
    make_grid,
    oracle_ray_cast,
    segment_hits_aabb,
)
from handover.voxelgeom import (
    Mesh,
    VoxelGrid,
    estimate_normals,
    load_vgrid,
    ray_cast,
    save_vgrid,
    segments_hit_boxes,
    surface_voxels,
    voxelize_mesh,
)


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
        with pytest.raises(ValueError):
            voxelize_mesh(mesh)


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
