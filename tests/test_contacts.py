"""Contact map ingestion, the thickness heuristic, and density clustering."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    box_grid,
    by_index,
    contact_map,
    make_grid,
    oracle_cluster_contacts,
    oracle_estimate_normals,
    oracle_register,
    oracle_surface_voxels,
)
from handover import suite
from handover.contacts import (
    ContactMap,
    _neighborhoods,
    _surface_run_lengths,
    cluster_contacts,
    largest_cluster,
    load_contact_map,
    predict_contacts_heuristic,
    save_contact_map,
)
from handover.voxelgeom import VoxelGrid, load_vgrid, save_vgrid, write_grid_file


def write_vcontact(path, grid, entries):
    """Hand-rolled binary VCONTACT writer independent of save_contact_map."""
    nx, ny, nz = grid.dims
    lines = [
        "VCONTACT 1",
        f"dims {nx} {ny} {nz}",
        f"voxel_size {grid.voxel_size!r}",
        "origin " + " ".join(repr(float(v)) for v in grid.origin),
    ]
    marked = set(entries)
    for z in range(nz):
        for y in range(ny):
            lines.append("".join("1" if (x, y, z) in marked else "0" for x in range(nx)))
    path.write_text("\n".join(lines) + "\n")


class TestIngestion:
    def test_ten_surface_ones(self, tmp_path):
        grid = box_grid((8, 8, 8), (1, 1, 1), (6, 6, 6))
        surf = list(map(tuple, grid.surface[:10].tolist()))
        p = tmp_path / "m.vcontact"
        write_vcontact(p, grid, surf)
        cm = load_contact_map(p, grid)
        values = by_index(cm.keys, cm.values.tolist())
        assert sorted(values) == sorted(surf)
        assert all(v == 1.0 for v in values.values())

    def test_dims_mismatch_error(self, tmp_path):
        grid = box_grid((8, 8, 8), (1, 1, 1), (6, 6, 6))
        other = box_grid((9, 8, 8), (1, 1, 1), (6, 6, 6))
        p = tmp_path / "m.vcontact"
        write_vcontact(p, other, list(map(tuple, other.surface[:3].tolist())))
        with pytest.raises(ValueError, match="dims"):
            load_contact_map(p, grid)

    def test_all_zero_error(self, tmp_path):
        grid = box_grid((6, 6, 6), (1, 1, 1), (4, 4, 4))
        p = tmp_path / "m.vcontact"
        write_vcontact(p, grid, [])
        with pytest.raises(ValueError, match="empty contact map"):
            load_contact_map(p, grid)

    def test_a_grid_with_no_surface_voxel_is_an_error(self, tmp_path):
        grid = make_grid(np.zeros((3, 3, 3), dtype=bool))
        p = tmp_path / "m.vcontact"
        write_vcontact(p, grid, [(1, 1, 1)])
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: the grid has no surface voxel"):
            load_contact_map(p, grid)

    def test_interior_label_snaps_to_lowest_tied_surface_voxel(self, tmp_path):
        # 3x3x3 block: the center is interior with six equidistant surface
        # neighbors; the lowest (x, y, z) one is (1, 2, 2)
        grid = box_grid((5, 5, 5), (1, 1, 1), (3, 3, 3))
        p = tmp_path / "m.vcontact"
        write_vcontact(p, grid, [(2, 2, 2)])
        cm = load_contact_map(p, grid)
        assert list(by_index(cm.keys, cm.values.tolist())) == [(1, 2, 2)]

    def test_round_trip_bit_exact_binary_and_float(self, tmp_path):
        grid = box_grid((7, 6, 5), (1, 1, 1), (5, 4, 3))
        surf = list(map(tuple, grid.surface.tolist()))
        binary = contact_map(grid, {i: 1.0 for i in surf[:8]})
        probs = contact_map(grid, {i: 0.25 + 0.5 * (k % 3) / 2.0 for k, i in enumerate(surf)})
        for cm in (binary, probs):
            p1, p2 = tmp_path / "a.vcontact", tmp_path / "b.vcontact"
            save_contact_map(cm, p1)
            loaded = load_contact_map(p1, grid)
            assert by_index(loaded.keys, loaded.values.tolist()) == by_index(cm.keys, cm.values.tolist())
            save_contact_map(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [2.0, -0.1, float("nan")])
    def test_values_outside_the_unit_interval_are_rejected(self, bad):
        grid = box_grid((5, 5, 5), (1, 1, 1), (3, 3, 3))
        first, key = (tuple(grid.surface[i].tolist()) for i in (0, 3))
        with pytest.raises(ValueError, match=re.escape(f"contact value at {key} must be finite and in [0, 1]")):
            contact_map(grid, {first: 1.0, key: bad})


def _labelled(occ, labels) -> tuple:
    """(occupancy, dense contact values) from {index: value}."""
    occ = np.array(occ, dtype=bool)
    dense = np.zeros(occ.shape)
    for idx, v in labels.items():
        dense[idx] = v
    return occ, dense


def _rod():
    occ = np.zeros((6, 3, 3), dtype=bool)
    occ[1:5, 1, 1] = True  # the inner two voxels' 26-neighbour sums vanish
    return occ


@st.composite
def labelled_grids(draw):
    """A random object of at least one voxel, and contact values drawn over
    every cell: on the surface, inside the object and in empty cells."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    occ = np.array(draw(st.lists(st.booleans(), min_size=int(np.prod(dims)), max_size=int(np.prod(dims)))),
                   dtype=bool).reshape(dims)
    occ.flat[draw(st.integers(0, occ.size - 1))] = True
    value = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    dense = np.array(draw(st.lists(value, min_size=occ.size, max_size=occ.size))).reshape(dims)
    dense.flat[draw(st.integers(0, occ.size - 1))] = 1.0  # never an empty map
    return occ, dense


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labelled_grids())
@example(_labelled(np.pad([[[True]]], 2), {(2, 2, 2): 0.75, (0, 0, 0): 0.5}))  # a lone voxel
@example(_labelled(_rod(), {(2, 1, 1): 1.0, (0, 0, 0): 0.25}))
@example(_labelled(np.ones((1, 4, 1)), {(0, 2, 0): 0.5}))  # dims of 1: every cell is on the surface
# the center of a 3x3x3 block and an empty cell snap to the face voxel (1, 2, 2) they share
@example(_labelled(np.pad(np.ones((3, 3, 3), dtype=bool), 1),
                   {(2, 2, 2): 0.5, (0, 2, 2): 0.75, (1, 2, 2): 0.25, (4, 4, 4): 1.0}))
def test_surface_normals_and_registration_equal_the_per_voxel_oracles(tmp_path, occ_dense):
    """grid.occupied_centers, grid.surface and grid.normals, and the keys and
    values load_contact_map registers, bit for bit as the per-voxel loops
    (and argwhere over the occupancy) give them."""
    occ, dense = occ_dense
    grid = make_grid(occ, voxel_size=0.01, origin=(0.3, -0.2, 1.1))
    assert grid.occupied_centers.tobytes() == grid.centers(np.argwhere(occ)).tobytes()
    assert list(map(tuple, grid.surface.tolist())) == oracle_surface_voxels(grid)
    normals = oracle_estimate_normals(grid)
    assert grid.normals.tobytes() == np.array(list(normals.values())).reshape(-1, 3).tobytes()
    write_grid_file(tmp_path / "m.vcontact", "VCONTACT", grid, dense)
    cm = load_contact_map(tmp_path / "m.vcontact", grid)
    want = sorted(oracle_register(grid, dense).items())
    assert list(map(tuple, cm.keys.tolist())) == [k for k, _ in want]
    assert cm.values.tobytes() == np.array([v for _, v in want]).tobytes()


def test_a_vanishing_gradient_component_is_positive_zero():
    """The rod's end voxel sees one neighbour, along +x: its normal is -x with
    y and z +0.0, as the per-offset loop's sum leaves them, not -0.0."""
    grid = make_grid(_rod())
    normal = grid.normals[grid.surface_rows([(1, 1, 1)])[0]]
    assert normal.tolist() == [-1.0, 0.0, 0.0]
    assert np.signbit(normal).tolist() == [True, False, False]


class TestHeuristic:
    def test_thin_handle_beats_thick_head(self):
        occ = np.zeros((40, 20, 20), dtype=bool)
        occ[2:30, 9:12, 9:12] = True  # thin handle
        occ[30:38, 4:17, 4:17] = True  # big head
        grid = make_grid(occ)
        cm = predict_contacts_heuristic(grid)
        values = by_index(cm.keys, cm.values.tolist())
        handle = [v for (x, y, z), v in values.items() if x < 30]
        head = [v for (x, y, z), v in values.items() if x >= 30]
        assert np.mean(handle) > np.mean(head)

    def test_sphere_probabilities_equal_on_octahedral_orbits(self):
        n = 17
        c = (n - 1) / 2.0
        xs, ys, zs = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        occ = (xs - c) ** 2 + (ys - c) ** 2 + (zs - c) ** 2 <= 7.2**2
        grid = make_grid(occ)
        cm = predict_contacts_heuristic(grid)
        orbits: dict = {}
        for (x, y, z), v in by_index(cm.keys, cm.values.tolist()).items():
            key = tuple(sorted(abs(int(w - c) * 2) for w in (x, y, z)))
            orbits.setdefault(key, []).append(v)
        for key, vals in orbits.items():
            assert max(vals) - min(vals) < 1e-6, key

    def test_heuristic_invariant_under_90_degree_rotation(self):
        occ = np.zeros((24, 24, 24), dtype=bool)
        occ[3:20, 10:13, 10:13] = True
        occ[15:20, 6:17, 6:17] = True
        grid = make_grid(occ)
        cm = predict_contacts_heuristic(grid)
        rocc = np.rot90(occ, k=1, axes=(0, 1)).copy()
        rcm = predict_contacts_heuristic(make_grid(rocc))
        n = occ.shape[1]
        rvalues = by_index(rcm.keys, rcm.values.tolist())
        for (x, y, z), v in by_index(cm.keys, cm.values.tolist()).items():
            assert rvalues[(n - 1 - y, x, z)] == pytest.approx(v, abs=1e-12)

    def test_rod_and_single_voxel_probability_one(self):
        occ = np.zeros((12, 6, 6), dtype=bool)
        occ[2:10, 3, 3] = True
        cm = predict_contacts_heuristic(make_grid(occ))
        assert all(v == 1.0 for v in cm.values.tolist())
        single = np.zeros((5, 5, 5), dtype=bool)
        single[2, 2, 2] = True
        cm2 = predict_contacts_heuristic(make_grid(single))
        assert by_index(cm2.keys, cm2.values.tolist()) == {(2, 2, 2): 1.0}

    def test_surface_run_lengths_match_the_scalar_scan_on_bundled_objects(self, scenes):
        for name, scene in scenes.items():
            assert_surface_runs_match_the_scan(scene.grid.occupancy, name)

    def test_surface_run_lengths_match_the_scalar_scan_on_random_grids(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
            assert_surface_runs_match_the_scan(rng.random(dims) < rng.uniform(0.0, 1.0), trial)

    def test_surface_run_lengths_of_an_empty_grid_are_empty(self):
        runs = _surface_run_lengths(make_grid(np.zeros((4, 3, 5), dtype=bool)))
        assert runs.shape == (0, 3) and runs.dtype == int

    def test_surface_run_lengths_of_a_full_grid_are_the_dims(self):
        for dims in ((4, 3, 5), (1, 1, 1), (1, 6, 2)):
            grid = make_grid(np.ones(dims, dtype=bool))
            runs = _surface_run_lengths(grid)
            assert len(runs) == len(grid.surface) and (runs == dims).all(), dims
            assert_surface_runs_match_the_scan(grid.occupancy, dims)

    def test_surface_run_lengths_with_occupancy_on_every_face(self):
        # a frame of runs along each grid edge, broken runs and lone cells on every face
        occ = np.zeros((7, 6, 5), dtype=bool)
        occ[:, 0, 0] = occ[0, :, -1] = occ[-1, -1, :] = True
        occ[1:3, 2, 0] = occ[4:, 3, -1] = occ[0, 2:5, 2] = occ[-1, 1, 1:3] = True
        occ[3, 0, 2] = occ[2, -1, 3] = occ[5, 4, 4] = True
        assert all(face.any() for a in range(3) for face in (occ.take(0, a), occ.take(-1, a)))
        assert_surface_runs_match_the_scan(occ, "faces")


def assert_surface_runs_match_the_scan(occ, label):
    """_surface_run_lengths, axis by axis, equals the scalar scan read at
    every surface cell."""
    grid = make_grid(occ)
    runs = _surface_run_lengths(grid)
    assert runs.dtype == int and runs.shape == grid.surface.shape, label
    for axis in range(3):
        assert np.array_equal(runs[:, axis], oracle_run_lengths(occ, axis)[tuple(grid.surface.T)]), (label, axis)


def oracle_run_lengths(occ, axis):
    """The scalar run scan: walk each row along `axis`, write each run's
    length over its cells."""
    moved = np.moveaxis(occ, axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    out = np.zeros(flat.shape, dtype=int)
    n = flat.shape[1]
    for r in range(flat.shape[0]):
        row = flat[r]
        i = 0
        while i < n:
            if not row[i]:
                i += 1
                continue
            j = i
            while j < n and row[j]:
                j += 1
            out[r, i:j] = j - i
            i = j
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def reference_dbscan(points, eps, min_pts):
    """O(n^2) textbook DBSCAN over voxel index tuples (unit spacing)."""
    pts = [np.asarray(p, dtype=float) for p in points]
    n = len(pts)
    neigh = [
        sorted(j for j in range(n) if float(((pts[i] - pts[j]) ** 2).sum()) <= eps * eps)
        for i in range(n)
    ]
    labels = [None] * n
    cid = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        if len(neigh[i]) < min_pts:
            labels[i] = -1
            continue
        labels[i] = cid
        queue = list(neigh[i])
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == -1:
                labels[j] = cid
            if labels[j] is not None:
                continue
            labels[j] = cid
            if len(neigh[j]) >= min_pts:
                queue.extend(neigh[j])
        cid += 1
    out = []
    for c in range(cid):
        out.append(frozenset(points[i] for i in range(n) if labels[i] == c))
    return set(out)


def map_from_indices(dims, indices):
    occ = np.zeros(dims, dtype=bool)
    for i in indices:
        occ[i] = True
    grid = make_grid(occ, voxel_size=1.0)
    return contact_map(grid, {i: 1.0 for i in indices})


class TestClustering:
    def test_two_separated_blobs(self):
        a = [(x, y, 0) for x in range(5) for y in range(4)]  # 20
        b = [(40 + x, y, 0) for x in range(4) for y in range(2)]  # 8
        cm = map_from_indices((50, 8, 4), a + b)
        clusters = cluster_contacts(cm, eps=1.5, min_pts=3)
        assert sorted(c.size for c in clusters) == [8, 20]
        assert largest_cluster(clusters).size == 20

    def test_single_point_min_pts_one(self):
        cm = map_from_indices((4, 4, 4), [(2, 2, 2)])
        clusters = cluster_contacts(cm, eps=1.0, min_pts=1)
        assert len(clusters) == 1 and clusters[0].size == 1

    def test_dense_set_single_cluster(self):
        pts = [(x, y, 0) for x in range(3) for y in range(3)]
        cm = map_from_indices((4, 4, 4), pts)
        clusters = cluster_contacts(cm, eps=5.0, min_pts=1)
        assert len(clusters) == 1 and clusters[0].size == len(pts)

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(5, 120))
            pts = {
                tuple(int(v) for v in rng.integers(0, 14, size=3)) for _ in range(n)
            }
            pts = sorted(pts)
            eps = float(rng.uniform(1.0, 3.5))
            min_pts = int(rng.integers(1, 6))
            cm = map_from_indices((14, 14, 14), pts)
            got = {frozenset(map(tuple, c.member_indices.tolist())) for c in cluster_contacts(cm, eps, min_pts)}
            assert got == reference_dbscan(pts, eps, min_pts), (trial, eps, min_pts)

    def test_cluster_partition_property(self):
        rng = np.random.default_rng(9)
        pts = sorted({tuple(int(v) for v in rng.integers(0, 10, size=3)) for _ in range(80)})
        cm = map_from_indices((10, 10, 10), pts)
        clusters = cluster_contacts(cm, eps=1.8, min_pts=3)
        seen: list = []
        for c in clusters:
            seen.extend(map(tuple, c.member_indices.tolist()))
        assert len(seen) == len(set(seen))  # disjoint
        assert set(seen) <= set(pts)

    def test_largest_cluster_tie_breaks_to_lowest_index(self):
        a = [(0, y, 0) for y in range(4)]
        b = [(9, y, 0) for y in range(4)]
        cm = map_from_indices((10, 5, 2), a + b)
        clusters = cluster_contacts(cm, eps=1.0, min_pts=2)
        assert len(clusters) == 2
        assert tuple(largest_cluster(clusters).member_indices[0].tolist()) == (0, 0, 0)

    def test_empty_inputs_raise(self):
        grid = box_grid((5, 5, 5), (1, 1, 1), (3, 3, 3))
        cm = ContactMap(grid, grid.surface[:1], [0.1])  # below threshold
        with pytest.raises(ValueError, match="empty contact map"):
            cluster_contacts(cm)
        with pytest.raises(ValueError, match="empty contact map"):
            largest_cluster([])


def bundled_and_heuristic_maps(scenes):
    for name in suite.OBJECT_NAMES:
        yield from ((f"{name}[{i}]", cm) for i, cm in enumerate(scenes[name].contact_maps))
        yield f"{name}[heuristic]", predict_contacts_heuristic(scenes[name].grid)


@pytest.mark.parametrize("eps_voxels, min_pts", [(None, 4), (2.3, 1), (1.7, 5), (3.6, 12), (1e3, 4), (3.0, 100000)])
def test_clusters_equal_the_per_point_oracle_on_bundled_maps(scenes, eps_voxels, min_pts):
    """Same clusters, member lists and order as DBSCAN with a neighbourhood
    per point on every bundled and heuristic map: eps of 3 voxels (the
    default), eps off the voxel lattice, eps wider than the 64-voxel grid,
    min_pts 1 (every point is core) and 100000 (every point is noise)."""
    for label, cm in bundled_and_heuristic_maps(scenes):
        if eps_voxels == 1e3 and len(cm.contacts()[0]) > 200:
            continue  # the oracle's queue grows as n^2 when every point neighbours every other
        eps = None if eps_voxels is None else eps_voxels * cm.grid.voxel_size
        got = cluster_contacts(cm, eps, min_pts)
        want = oracle_cluster_contacts(cm, eps, min_pts)
        assert [c.member_indices.tolist() for c in got] == [c.member_indices.tolist() for c in want], label
        assert got or min_pts > 1, label


def brute_neighborhoods(cm, eps) -> list[list[int]]:
    """Each contact point's neighbours by the float test over every other
    point, sorted: the sets _neighborhoods must give in any order."""
    centers = cm.grid.centers(cm.contacts()[0])
    out = []
    for a in range(0, len(centers), 64):
        d = centers[None] - centers[a : a + 64, None]
        near = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2] <= eps * eps
        out += [np.flatnonzero(row).tolist() for row in near]
    return out


def assert_neighborhoods_and_clusters(label, cm, eps, min_pts=4):
    start, nbr = _neighborhoods(cm.grid, cm.contacts()[0], eps)
    got = [sorted(nbr[start[i] : start[i + 1]].tolist()) for i in range(len(start) - 1)]
    assert got == brute_neighborhoods(cm, eps), label
    want = oracle_cluster_contacts(cm, eps, min_pts)
    got = cluster_contacts(cm, eps, min_pts)
    assert [c.member_indices.tolist() for c in got] == [c.member_indices.tolist() for c in want], label
    return got


def far_mug_maps(scenes):
    """The mug's contact maps and heuristic map on its grid moved to origin + (1000, -1000, 500) m."""
    grid = scenes["mug"].grid
    far = VoxelGrid(grid.dims, grid.voxel_size, grid.origin + [1000.0, -1000.0, 500.0], grid.occupancy)
    maps = [(f"far mug[{i}]", ContactMap(far, cm.keys, cm.values)) for i, cm in enumerate(scenes["mug"].contact_maps)]
    return maps + [("far mug[heuristic]", predict_contacts_heuristic(far))]


@pytest.mark.parametrize("edge", [np.sqrt(8.0), 3.0, np.sqrt(10.0)])
def test_stencil_neighborhoods_are_exact_at_lattice_distances(scenes, edge):
    """eps at a lattice distance (sqrt(8), 3 and sqrt(10) voxel edges) and
    one ulp either side of it, where the float test decides a whole shell of
    offsets: the stencil gathers exactly the neighbours of the float test
    over all points, and clusters as the per-point oracle does, on every
    bundled and heuristic map and on the mug moved far from the world origin."""
    for label, cm in [*bundled_and_heuristic_maps(scenes), *far_mug_maps(scenes)]:
        eps = edge * cm.grid.voxel_size
        for e in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, np.inf)):
            assert_neighborhoods_and_clusters(f"{label} at {e!r}", cm, float(e))


def test_stencil_at_extreme_eps(scenes):
    """eps 1e300 m makes every point a neighbour of every other (one
    cluster); eps 1e-300 m leaves each point alone (all noise). Maps of at
    most 200 contact points, where the oracles' n^2 work stays small."""
    small = [(label, cm) for label, cm in bundled_and_heuristic_maps(scenes) if len(cm.contacts()[0]) <= 200]
    assert len(small) >= 8
    for label, cm in small:
        n = len(cm.contacts()[0])
        assert [c.size for c in assert_neighborhoods_and_clusters(label, cm, 1e300)] == [n], label
        assert assert_neighborhoods_and_clusters(label, cm, 1e-300) == [], label


def test_stencil_memory_on_a_sparse_map_across_a_long_grid():
    """Two 4-voxel cubes at opposite ends of a 512 x 8 x 8 grid: the
    stencil's keys span the whole box between them, yet clustering stays
    under the bound of the largest heuristic map below."""
    occ = np.zeros((512, 8, 8), dtype=bool)
    occ[:4, :4, :4] = occ[-4:, -4:, -4:] = True
    grid = make_grid(occ, voxel_size=0.003)
    cm = ContactMap(grid, grid.surface, np.ones(len(grid.surface)))
    tracemalloc.start()
    try:
        clusters = cluster_contacts(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.size for c in clusters] == [56, 56]
    assert peak <= 750_000


def test_cluster_memory_peak_on_the_largest_heuristic_map(scenes):
    """mug's heuristic map is the largest bundled one (880 contact voxels).
    Its DBSCAN with each neighbourhood found on demand peaked at 737,172 B
    under tracemalloc (numpy 2.4, x86_64), mostly the expansion queue. With
    the neighbourhoods built as arrays in bounded chunks it peaks near 459 kB."""
    heuristic = {name: predict_contacts_heuristic(scenes[name].grid) for name in suite.OBJECT_NAMES}
    cm = max(heuristic.values(), key=lambda m: len(m.contacts()[0]))
    assert cm is heuristic["mug"] and len(cm.contacts()[0]) == 880
    tracemalloc.start()
    try:
        cluster_contacts(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 750_000


def test_vgrid_vcontact_pair_survives_disk_round_trip(tmp_path):
    grid = box_grid((9, 9, 9), (2, 2, 2), (6, 6, 6), voxel_size=0.003, origin=(2.0, -0.1, 0.7))
    cm = contact_map(grid, {i: 1.0 for i in map(tuple, grid.surface[::3].tolist())})
    save_vgrid(grid, tmp_path / "o.vgrid")
    save_contact_map(cm, tmp_path / "o.vcontact")
    g2 = load_vgrid(tmp_path / "o.vgrid")
    cm2 = load_contact_map(tmp_path / "o.vcontact", g2)
    assert by_index(cm2.keys, cm2.values.tolist()) == by_index(cm.keys, cm.values.tolist())
