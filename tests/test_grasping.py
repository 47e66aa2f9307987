"""Antipodal sampling, gripper collision, occlusion scoring, ranking."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import box_grid, by_index, make_grid, oracle_block_occlusions, oracle_collisions, set_normals
from handover import grasping, suite
from handover.contacts import ContactCluster, cluster_contacts, largest_cluster
from handover.grasping import (
    CONTENDER_CHUNK,
    MAX_NORMAL_OPPOSITION_DEG,
    MIN_CONFIDENCE,
    OCCLUSION_BLOCK_PAIRS,
    OCCLUSION_FLUSH_PAIRS,
    OCCLUSION_RAY_FACTOR,
    REGION_EPS,
    ROLL_STEP_DEG,
    GraspCandidate,
    GraspSet,
    GripperModel,
    contact_score,
    contenders,
    occlusion_fraction,
    rank_grasps,
    sample_grasps,
)
from handover.voxelgeom import VoxelGrid


GRIPPER = GripperModel()


def sample_default(grid, **kw):
    return sample_grasps(grid, GRIPPER, **kw)


def collision_oracle(gripper, cand, grid) -> bool:
    """Brute force: any occupied voxel center inside a gripper box but
    outside the closing region (boxes restated from the model fields)."""
    ft, fl, pd = gripper.finger_thickness, gripper.finger_length, gripper.palm_depth
    hw = cand.width / 2.0
    eps = 1e-9
    for c in grid.occupied_centers:
        x, y, z = cand.rotation.T @ (c - cand.translation)
        finger = abs(x) <= ft / 2 and hw <= abs(y) <= hw + ft and abs(z) <= fl / 2
        palm = abs(x) <= ft / 2 and abs(y) <= hw + ft and fl / 2 <= z <= fl / 2 + pd
        region = abs(x) <= ft / 2 + eps and abs(y) <= hw + eps and abs(z) <= fl / 2 + eps
        if (finger or palm) and not region:
            return True
    return False


class TestSampling:
    def test_box_yields_high_confidence_face_pairs(self):
        grid = box_grid((20, 20, 20), (6, 6, 6), (13, 13, 13))  # 8 cm cube
        cands = sample_default(grid, max_candidates=100, seed=0)
        assert cands
        assert any(c.confidence >= 0.99 for c in cands)
        # face-opposing pair: contacts straddle the box along the closing axis
        best = max(cands, key=lambda c: c.confidence)
        p, q = best.contact_pair
        assert sum(abs(a - b) for a, b in zip(p, q)) >= 7

    def test_sphere_wider_than_gripper_yields_nothing(self):
        n = 20
        c = (n - 1) / 2.0
        xs, ys, zs = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        occ = (xs - c) ** 2 + (ys - c) ** 2 + (zs - c) ** 2 <= 7.0**2  # 0.14 m across
        grid = make_grid(occ, voxel_size=0.01)
        found = sample_default(grid, max_candidates=50, seed=1)
        assert isinstance(found, GraspSet) and len(found) == 0

    def test_rod_candidates_confident_and_collision_free(self):
        grid = box_grid((30, 8, 8), (4, 3, 3), (25, 4, 4))  # 22 cm, 2 cm square
        cands = sample_default(grid, max_candidates=200, seed=2)
        assert cands
        for cand in cands:
            assert cand.confidence >= 0.23
            assert cand.width <= GRIPPER.max_width
            assert not collision_oracle(GRIPPER, cand, grid)

    def test_determinism_and_cap(self):
        grid = box_grid((20, 20, 20), (6, 6, 6), (13, 13, 13))
        a = sample_default(grid, max_candidates=40, seed=5)
        b = sample_default(grid, max_candidates=40, seed=5)
        assert len(a) == len(b) <= 40
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.rotation, cb.rotation)
            assert np.array_equal(ca.translation, cb.translation)
            assert (ca.width, ca.confidence, ca.contact_pair) == (
                cb.width,
                cb.confidence,
                cb.contact_pair,
            )

    def test_candidates_sorted_by_confidence(self):
        grid = box_grid((24, 12, 12), (3, 4, 4), (20, 7, 7))
        cands = sample_default(grid, max_candidates=60, seed=3)
        confs = [c.confidence for c in cands]
        assert confs == sorted(confs, reverse=True)

    def test_approach_perpendicular_to_closing_axis(self):
        grid = box_grid((16, 16, 16), (5, 5, 5), (10, 10, 10))
        for cand in sample_default(grid, max_candidates=30, seed=4):
            approach = -cand.rotation[:, 2]
            closing = cand.rotation[:, 1]
            assert abs(np.dot(approach, closing)) < 1e-9
            assert np.allclose(cand.rotation @ cand.rotation.T, np.eye(3), atol=1e-9)


def line_cluster(grid, indices):
    members = sorted(indices)
    return ContactCluster(members)


class TestOcclusion:
    def test_distant_gripper_and_averted_rays_zero(self):
        grid = box_grid((10, 10, 10), (2, 2, 2), (7, 7, 7))
        members = list(map(tuple, grid.surface[:10].tolist()))
        cluster = line_cluster(grid, members)
        set_normals(grid, {i: np.array([-1.0, 0.0, 0.0]) for i in members})
        cand = GraspCandidate(np.eye(3), (1.0, 0.05, 0.05), 0.04, 1.0, ((0, 0, 0), (1, 0, 0)))
        assert occlusion_fraction(cand, cluster, GRIPPER, grid) == 0.0

    def test_three_of_ten_covered_is_0_3(self):
        occ = np.zeros((4, 14, 4), dtype=bool)
        occ[1, 2:12, 1] = True
        grid = make_grid(occ, voxel_size=0.01)
        members = [(1, y, 1) for y in range(2, 12)]
        cluster = line_cluster(grid, members)
        set_normals(grid, {i: np.array([-1.0, 0.0, 0.0]) for i in members})
        # closing axis along the row; width 0.022 covers exactly the middle
        # three centers (spacing 0.01)
        mid = grid.center((1, 6, 1))
        cand = GraspCandidate(np.eye(3), mid, 0.022, 1.0, (members[0], members[-1]))
        assert occlusion_fraction(cand, cluster, GRIPPER, grid) == pytest.approx(0.3)

    def test_closing_on_whole_cluster_is_one(self):
        occ = np.zeros((4, 9, 4), dtype=bool)
        occ[1, 2:7, 1] = True
        grid = make_grid(occ, voxel_size=0.01)
        members = [(1, y, 1) for y in range(2, 7)]
        cluster = line_cluster(grid, members)
        set_normals(grid, {i: np.array([0.0, 0.0, 1.0]) for i in members})
        cand = GraspCandidate(np.eye(3), grid.center((1, 4, 1)), 0.08, 1.0, (members[0], members[-1]))
        assert occlusion_fraction(cand, cluster, GRIPPER, grid) == 1.0

    def test_empty_cluster_raises(self):
        grid = box_grid((6, 6, 6), (1, 1, 1), (4, 4, 4))
        cand = GraspCandidate(np.eye(3), (0, 0, 0), 0.02, 1.0, ((0, 0, 0), (1, 0, 0)))
        with pytest.raises(ValueError, match="empty contact map"):
            occlusion_fraction(cand, ContactCluster([]), GRIPPER, grid)

    def test_translation_equivariance(self):
        occ = np.zeros((8, 12, 8), dtype=bool)
        occ[3, 2:10, 3] = True
        shift = np.array([5.0, -2.0, 1.5])
        members = [(3, y, 3) for y in range(2, 10)]
        normals = {i: np.array([1.0, 0.0, 0.0]) for i in members}
        vals = []
        for origin in ((0, 0, 0), shift):
            grid = make_grid(occ, voxel_size=0.01, origin=origin)
            set_normals(grid, normals)
            cluster = line_cluster(grid, members)
            t = grid.center((3, 5, 3)) + np.array([0.0, 0.0, 0.02])
            cand = GraspCandidate(np.eye(3), t, 0.03, 1.0, (members[0], members[1]))
            vals.append(occlusion_fraction(cand, cluster, GRIPPER, grid))
        assert vals[0] == vals[1]


def synthetic_ranked_set():
    """Candidates over a tiny rod: varying confidence, varying occlusion."""
    occ = np.zeros((6, 16, 6), dtype=bool)
    occ[2, 2:14, 2] = True
    grid = make_grid(occ, voxel_size=0.01)
    members = [(2, y, 2) for y in range(2, 14)]
    cluster = line_cluster(grid, members)
    set_normals(grid, {i: np.array([-1.0, 0.0, 0.0]) for i in members})
    rng = np.random.default_rng(0)
    cands = []
    for k in range(12):
        # slide the closing window along the rod to vary coverage
        t = grid.center((2, 2 + k, 2))
        cands.append(
            GraspCandidate(np.eye(3), t, 0.024, float(rng.uniform(0.3, 1.0)), (members[0], members[1]))
        )
    return grid, cluster, cands


class TestScoringAndRanking:
    def test_contact_score_examples(self):
        assert contact_score(0.8, 0.2, 0.5) == pytest.approx(0.3, abs=1e-12)
        a = contact_score(0.7, 0.0, 0.5)
        b = contact_score(0.7, 0.5, 0.5)
        assert a - b == pytest.approx(0.25, abs=1e-12)
        with pytest.raises(ValueError):
            contact_score(0.5, 0.5, 1.5)

    def test_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s, o, lam = rng.uniform(0, 1, 3)
            lam = float(np.clip(lam, 0.01, 0.99))
            assert contact_score(s, o + 0.1, lam) < contact_score(s, o, lam)
            assert contact_score(s + 0.1, o, lam) > contact_score(s, o, lam)

    def test_lambda_one_matches_confidence_order(self):
        grid, cluster, cands = synthetic_ranked_set()
        ranked = rank_grasps(cands, cluster, 1.0, GRIPPER, grid)
        confs = [rg.candidate.confidence for rg in ranked]
        assert confs == sorted(confs, reverse=True)

    def test_lambda_zero_matches_occlusion_order(self):
        grid, cluster, cands = synthetic_ranked_set()
        ranked = rank_grasps(cands, cluster, 0.0, GRIPPER, grid)
        occs = [rg.occlusion for rg in ranked]
        assert occs == sorted(occs)

    def test_score_formula_and_tie_chain(self):
        grid, cluster, cands = synthetic_ranked_set()
        for lam in (0.0, 0.25, 0.5, 1.0):
            ranked = rank_grasps(cands, cluster, lam, GRIPPER, grid)
            for rg in ranked:
                expect = lam * rg.candidate.confidence - (1 - lam) * rg.occlusion
                assert rg.score == pytest.approx(expect, abs=1e-12)
            keys = [(-rg.score, -rg.candidate.confidence, rg.occlusion) for rg in ranked]
            assert keys == sorted(keys)

    def test_empty_candidates_error(self):
        grid, cluster, _ = synthetic_ranked_set()
        with pytest.raises(ValueError, match="no grasp candidates"):
            rank_grasps([], cluster, 0.5, GRIPPER, grid)


# -- batched kernels against the per-roll / per-candidate reference -------------


def oracle_sample_grasps(grid, gripper, max_candidates, seed, tested=None):
    """Reference sampler: one frame and one collision test per roll, the probe
    walk as a Python loop over cells (the unbatched form of sample_grasps).
    It stops only at the pool cap. Given a list `tested`, it appends
    (surface voxel, confidence, free rolls) for each pair it tests."""
    surface = list(map(tuple, grid.surface.tolist()))
    normals = by_index(grid.surface, grid.normals)
    vs = grid.voxel_size
    order = np.random.default_rng(seed).permutation(len(surface))
    occupied = grid.occupied_centers
    cos_limit = math.cos(math.radians(MAX_NORMAL_OPPOSITION_DEG))
    rolls = np.radians(np.arange(0.0, 360.0, ROLL_STEP_DEG))
    surface_set = set(surface)
    pool = []
    pool_cap = max(8 * max_candidates, 64)
    step_lens = np.arange(0.5 * vs, gripper.max_width + 2 * vs, 0.5 * vs)
    axial_max = gripper.max_width / 2 + gripper.finger_thickness + 2 * REGION_EPS
    radial_max = math.hypot(
        gripper.finger_thickness / 2, gripper.finger_length / 2 + gripper.palm_depth
    ) + 2 * REGION_EPS
    for si in order:
        p = surface[si]
        n_p = normals[p]
        c_p = grid.center(p)
        cells = np.floor((c_p - np.outer(step_lens, n_p) - grid.origin) / vs).astype(int)
        seen, seen_set = [], {p}
        for row in cells:
            q = (int(row[0]), int(row[1]), int(row[2]))
            if q in seen_set:
                continue
            seen_set.add(q)
            if q in surface_set:
                seen.append(q)
        for q in seen:
            n_q = normals[q]
            if float(np.dot(n_p, -n_q)) < cos_limit:
                continue
            c_q = grid.center(q)
            width = float(np.linalg.norm(c_q - c_p))
            if width > gripper.max_width or width < 0.5 * vs:
                continue
            axis = (c_q - c_p) / width
            confidence = 0.5 * float(np.dot(n_p, -axis)) + 0.5 * float(np.dot(n_q, axis))
            confidence = min(max(confidence, 0.0), 1.0)
            if confidence < MIN_CONFIDENCE:
                continue
            mid = (c_p + c_q) / 2.0
            rel = occupied - mid
            along = rel @ axis
            r2 = np.einsum("ij,ij->i", rel, rel) - along * along
            near = occupied[(np.abs(along) <= axial_max) & (r2 <= radial_max * radial_max)]
            seed_axis = np.zeros(3)
            seed_axis[int(np.argmin(np.abs(axis)))] = 1.0
            b0 = seed_axis - np.dot(seed_axis, axis) * axis
            b0 = b0 / np.linalg.norm(b0)
            b1 = np.cross(axis, b0)
            pooled = len(pool)
            for theta in rolls:
                z = -(math.cos(theta) * b0 + math.sin(theta) * b1)
                rot = np.column_stack([np.cross(axis, z), axis, z])
                if oracle_collides(gripper, rot, mid, width, near):
                    continue
                pool.append(GraspCandidate(rot, mid, width, confidence, (p, q)))
            if tested is not None:
                tested.append((p, confidence, len(pool) - pooled))
        if len(pool) >= pool_cap:
            break
    ranked = sorted(range(len(pool)), key=lambda i: (-pool[i].confidence, i))
    return [pool[i] for i in ranked[:max_candidates]]


def oracle_collides(gripper, rotation, translation, width, points) -> bool:
    if len(points) == 0:
        return False
    local = (points - translation) @ rotation
    ax, ay, z = np.abs(local[:, 0]), np.abs(local[:, 1]), local[:, 2]
    az = np.abs(z)
    ft, hfl, hw = gripper.finger_thickness, gripper.finger_length / 2.0, width / 2.0
    hx = ft / 2.0
    in_x = ax <= hx
    finger = in_x & (ay >= hw) & (ay <= hw + ft) & (az <= hfl)
    palm = in_x & (ay <= hw + ft) & (z >= hfl) & (z <= hfl + gripper.palm_depth)
    in_region = (ax <= hx + REGION_EPS) & (ay <= hw + REGION_EPS) & (az <= hfl + REGION_EPS)
    return bool(((finger | palm) & ~in_region).any())


def oracle_occlusions(cands, cluster, gripper, grid) -> list[float]:
    """Reference occlusion: one candidate at a time, box after box."""
    normals = by_index(grid.surface, grid.normals)
    members = list(map(tuple, cluster.member_indices.tolist()))
    centers = np.array([grid.center(i) for i in members])
    nrm = np.array([normals[i] for i in members])
    return [oracle_occlusion(c, centers, nrm, gripper, grid.voxel_size) for c in cands]


def oracle_occlusion(grasp, centers, nrm, gripper, voxel_size) -> float:
    max_dist = OCCLUSION_RAY_FACTOR * gripper.finger_length
    rot, t = grasp.rotation, grasp.translation
    covered = gripper.in_closing_region(rot, t, grasp.width, centers)
    o_loc = (centers + 1.5 * voxel_size * nrm - t) @ rot
    d_loc = nrm @ rot
    hit = np.zeros(len(centers), dtype=bool)
    for lo, hi in gripper.boxes(grasp.width):
        t0 = np.zeros(len(centers))
        t1 = np.full(len(centers), max_dist)
        ok = ~covered & ~hit
        for a in range(3):
            d, o = d_loc[:, a], o_loc[:, a]
            zero = d == 0.0
            ok &= ~zero | ((o >= lo[a]) & (o <= hi[a]))
            with np.errstate(divide="ignore", invalid="ignore"):
                ta = (lo[a] - o) / d
                tb = (hi[a] - o) / d
            swap = ta > tb
            t0 = np.where(zero, t0, np.maximum(t0, np.where(swap, tb, ta)))
            t1 = np.where(zero, t1, np.minimum(t1, np.where(swap, ta, tb)))
            ok &= zero | (t0 <= t1)
        hit |= ok
    return int(np.count_nonzero(covered | hit)) / len(centers)


@pytest.fixture(scope="module")
def bundled_grasps(scenes):
    """Per bundled scene at seed 1 and the scene's max_grasps: (scene,
    sampled candidates, planning cluster)."""
    out = {}
    for name, scene in scenes.items():
        grid, params = scene.grid, scene.params
        cands = sample_grasps(grid, scene.gripper, params.max_grasps, 1)
        clusters = cluster_contacts(scene.contact_maps[scene.planning_map], params.eps, params.min_pts)
        out[name] = (scene, cands, largest_cluster(clusters))
    return out


def sampler_stop(tested, max_candidates):
    """From the oracle's record of tested pairs: how many of them the sampler
    tests, which rule stops it, and how many times it tests its queue at a
    voxel's end. It tests a pair at confidence 1.0 at once and queues the
    others. It stops at the pair that brings max_candidates free candidates
    to confidence 1.0 ("ceiling"). At the end of a voxel where the pool,
    with every queued pair counted as free at all its rolls, reaches the
    cap, it tests the queue, and stops if the pool itself reaches the cap
    ("cap"). With neither stop (None) it tests the queue last."""
    pool_cap = max(8 * max_candidates, 64)
    rolls = round(360 / ROLL_STEP_DEG)
    pool = top = pairs = flushes = 0
    queue = []
    for k, (p, confidence, free) in enumerate(tested):
        if confidence != 1.0:
            queue.append(free)
        else:
            pairs, pool, top = pairs + 1, pool + free, top + free
            if top >= max_candidates:
                return pairs, "ceiling", flushes
        if (k + 1 == len(tested) or tested[k + 1][0] != p) and pool + rolls * len(queue) >= pool_cap:
            pairs, pool, queue, flushes = pairs + len(queue), pool + sum(queue), [], flushes + 1
            if pool >= pool_cap:
                return pairs, "cap", flushes
    return pairs + len(queue), None, flushes


def assert_sampler_matches_oracle(grid, gripper, max_candidates, seed, monkeypatch):
    """Bitwise the same candidates, and exactly as many pairs
    collision-tested as sampler_stop derives from the oracle's record.
    Returns the rule that stopped the sampler and its count of queue tests."""
    tests = {"sampler": 0, "oracle": 0}

    def counted(key, fn):
        def wrapper(*args):
            tests[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(grasping, "_collisions", counted("sampler", grasping._collisions))
    monkeypatch.setitem(globals(), "oracle_collides", counted("oracle", oracle_collides))
    cands = sample_grasps(grid, gripper, max_candidates, seed)
    tested = []
    expect = oracle_sample_grasps(grid, gripper, max_candidates, seed, tested)
    assert tests["oracle"] == round(360 / ROLL_STEP_DEG) * len(tested)  # one test per roll
    pairs, stop, flushes = sampler_stop(tested, max_candidates)
    assert tests["sampler"] == pairs
    assert cands and len(cands) == len(expect)
    for got, ref in zip(cands, expect):
        assert got.rotation.tobytes() == ref.rotation.tobytes()
        assert got.translation.tobytes() == ref.translation.tobytes()
        assert (got.width, got.confidence, got.contact_pair) == (
            ref.width,
            ref.confidence,
            ref.contact_pair,
        )
    return stop, flushes


@pytest.mark.parametrize("name", suite.OBJECT_NAMES)
def test_sampler_matches_per_roll_oracle_bitwise(scenes, name, monkeypatch):
    """At the scene's max_grasps (pool cap 4800)."""
    scene = scenes[name]
    grid = scene.grid
    assert_sampler_matches_oracle(grid, scene.gripper, scene.params.max_grasps, 1, monkeypatch)


@pytest.mark.parametrize("max_candidates", [100, 20, 1])
@pytest.mark.parametrize("name", suite.OBJECT_NAMES)
def test_sampler_stops_where_the_per_roll_oracle_stops(scenes, name, max_candidates, monkeypatch):
    """At 100, 20 and 1 (pool caps 800, 160 and 64) the oracle stops early too."""
    scene = scenes[name]
    grid = scene.grid
    assert_sampler_matches_oracle(grid, scene.gripper, max_candidates, 1, monkeypatch)


@pytest.mark.parametrize("max_candidates", [600, 20])
def test_sampler_matches_the_oracle_far_from_the_world_origin(scenes, max_candidates, monkeypatch):
    """The cull expands |o - m|^2 about the grid's middle: with the mug's
    grid moved to (1000, -1000, 500) m it still keeps every point the
    per-roll oracle can hit."""
    grid, scene = scenes["mug"].grid, scenes["mug"]
    far = VoxelGrid(grid.dims, grid.voxel_size, grid.origin + [1000.0, -1000.0, 500.0], grid.occupancy)
    assert_sampler_matches_oracle(far, scene.gripper, max_candidates, 1, monkeypatch)


def stacked_cubes():
    """Two stacked 3 cm cubes: a probe from the top face pairs with the
    bottom of the upper cube and then with the bottom of the lower one, so
    the pool can fill before a voxel's last pair."""
    occ = np.zeros((12, 12, 20), dtype=bool)
    occ[4:7, 4:7, 2:5] = occ[4:7, 4:7, 7:10] = True
    return make_grid(occ)


def tilted(grid, normals, degrees=2.0):
    """Turn the `normals` ({voxel index: normal}) about (1, 2, 3) by `degrees`
    and set them on grid: no pair of a turned voxel reaches confidence 1.0."""
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    theta = math.radians(degrees)
    turn = np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * k @ k  # Rodrigues
    set_normals(grid, {i: turn @ n for i, n in normals.items()})
    return grid


@pytest.mark.parametrize("seed", range(6))
def test_sampler_finishes_the_voxel_that_fills_the_pool(seed, monkeypatch):
    """With every normal tilted 2 degrees about (1, 2, 3) no candidate of
    the stacked cubes reaches confidence 1.0, so only the pool cap stops
    the sampler, and the voxel's last pair is still tested."""
    grid = stacked_cubes()
    tilted(grid, by_index(grid.surface, grid.normals))
    assert assert_sampler_matches_oracle(grid, GRIPPER, 1, seed, monkeypatch)[0] == "cap"


@pytest.mark.parametrize("seed", range(6))
def test_sampler_stops_once_max_candidates_reach_the_ceiling(seed, monkeypatch):
    """Untilted, the stacked cubes' candidates sit at confidence 1.0: the
    sampler stops at the first free one, before the pool cap."""
    grid = stacked_cubes()
    assert assert_sampler_matches_oracle(grid, GRIPPER, 1, seed, monkeypatch)[0] == "ceiling"


def cubes_probed_below_one_first(seed, voxels=8):
    """The stacked cubes with the normals of the first `voxels` surface
    voxels of `seed`'s probe order tilted: their pairs, which come first,
    sit below confidence 1.0."""
    grid = stacked_cubes()
    first = np.random.default_rng(seed).permutation(len(grid.surface))[:voxels]
    return tilted(grid, by_index(grid.surface[first], grid.normals[first]))


@pytest.mark.parametrize("seed", [0, 2, 3, 4, 5])
def test_sampler_tests_its_queue_once_the_pool_bound_reaches_the_cap(seed, monkeypatch):
    """Eight queued pairs below 1.0 could free the 64 candidates of the cap:
    the sampler tests them at their voxel's end, finds fewer, goes on and
    stops at the ceiling. (At seed 1 the queue does fill the cap.)"""
    grid = cubes_probed_below_one_first(seed)
    assert assert_sampler_matches_oracle(grid, GRIPPER, 1, seed, monkeypatch) == ("ceiling", 1)


@pytest.mark.parametrize("seed", range(3))
def test_sampler_tests_its_queue_when_the_surface_runs_out(seed, monkeypatch):
    """At max_candidates 1000 (cap 8000) neither stop fires on the stacked
    cubes: the queued pairs are tested after the last voxel."""
    grid = cubes_probed_below_one_first(seed)
    assert assert_sampler_matches_oracle(grid, GRIPPER, 1000, seed, monkeypatch) == (None, 0)


def test_collision_cull_keeps_every_answer(scenes, monkeypatch):
    """Each pair's collision batch is culled to the finger bands and palm
    ring; on every pair of the bundled scenes at seed 0 it must give the same
    answers as the whole slab that a box can reach at any roll."""
    calls = []

    def recorded(gripper, rotations, translation, width, points):
        out = collisions(gripper, rotations, translation, width, points)
        calls.append((rotations, translation, width, len(points), out))
        return out

    collisions = grasping._collisions
    monkeypatch.setattr(grasping, "_collisions", recorded)
    culled = near_total = 0
    for scene in scenes.values():
        grid, gripper = scene.grid, scene.gripper
        occupied = grid.occupied_centers
        axial_max = gripper.max_width / 2 + gripper.finger_thickness + 2 * REGION_EPS
        radial_max = math.hypot(
            gripper.finger_thickness / 2, gripper.finger_length / 2 + gripper.palm_depth
        ) + 2 * REGION_EPS
        calls.clear()
        sample_grasps(grid, gripper, scene.params.max_grasps, 0)
        assert calls
        for rotations, mid, width, n_culled, out in calls:
            rel = occupied - mid
            along = rel @ rotations[0][:, 1]
            r2 = np.einsum("ij,ij->i", rel, rel) - along * along
            near = occupied[(np.abs(along) <= axial_max) & (r2 <= radial_max * radial_max)]
            assert np.array_equal(out, collisions(gripper, rotations, mid, width, near))
            culled += n_culled
            near_total += len(near)
    assert culled < near_total


def test_sampler_memory_peak_on_mug(scenes):
    """Probing in chunks bounds the temporaries: with every surface voxel of
    mug in one chunk the sampler peaked at 7.8 MB, with chunks of 64 at 1.7 MB.
    Holding the occupied centres, surface centres and normals as (3, n) rows
    once per call took a full tier-1 run's peak from 1,349,433 B to 1,487,969
    B. Warming numpy.random's lazy import and grid.surface_keys, which are
    not the sampler's, took the peak of a first call in a fresh process from
    2,251,963 B to 1,503,159 B (a second call: 1,485,905 B; numpy 2.4, x86_64)."""
    scene = scenes["mug"]
    grid = scene.grid
    _ = grid.normals, grid.occupied_centers, grid.surface_keys  # fill the grid's caches
    np.random.default_rng(0)  # a process's first call imports numpy.random's generator modules
    tracemalloc.start()
    try:
        sample_grasps(grid, scene.gripper, 600, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_collisions_equal_the_mask_oracle_on_every_mug_call(scenes, monkeypatch):
    """Every call of sampler runs on mug, seed after seed until more than
    1000: the per-point z ranges give the (roll, point) mask form's answer,
    bit for bit."""
    calls = []

    def recorded(gripper, rotations, translation, width, points):
        out = collisions(gripper, rotations, translation, width, points)
        calls.append((gripper, rotations, translation, width, points, out))
        return out

    collisions = grasping._collisions
    monkeypatch.setattr(grasping, "_collisions", recorded)
    scene = scenes["mug"]
    for seed in itertools.count():  # a run stops at its 600th candidate at 1.0: about 170 calls
        sample_grasps(scene.grid, scene.gripper, scene.params.max_grasps, seed)
        if len(calls) > 1000:
            break
    assert len(calls) > 1000
    for *args, out in calls:
        want = oracle_collisions(*args)
        assert out.dtype == want.dtype and np.array_equal(out, want)


def test_axes_first_local_frames_round_like_xyz_last():
    """The collision, closing-region and occlusion kernels take local frames
    as rot^T @ (P^T - t^T) on (3, n) rows. The bitwise oracles hold only if
    the BLAS rounds that (3, 3) @ (3, n) product exactly as the transpose of
    (P - t) @ rot: this pins it on seeded stacks shaped like each call site
    (8 rolls x 1-3,400 points; up to 64 poses x 64-1,000 voxels; one
    rotation), near the origin and 125 m from it, on contiguous rows and on
    transposed (n, 3) stacks, so a numpy or BLAS change that breaks it fails here."""
    rng = np.random.default_rng(37)

    def frames(k):
        return np.linalg.qr(rng.normal(size=(k, 3, 3)))[0]

    for far, _ in itertools.product((0.0, 125.0), range(12)):
        n, poses, voxels = int(rng.integers(1, 3401)), int(rng.integers(1, 65)), int(rng.integers(64, 1001))
        sites = [(frames(8), n, (3,)), (frames(poses), voxels, (poses, 1, 3)), (frames(1)[0], voxels, (3,))]
        for rot, count, t_shape in sites:
            points = far + 0.05 * rng.normal(size=(count, 3))
            t = far + 0.05 * rng.normal(size=t_shape)
            want = (points - t) @ rot
            t_t = np.swapaxes(np.atleast_2d(t), -1, -2)  # t^T
            for rows in (np.ascontiguousarray(points.T), points.T):
                got = np.swapaxes(rot, -1, -2) @ (rows - t_t)
                assert np.array_equal(np.swapaxes(got, -1, -2), want), (far, count, t_shape)
            dirs = rng.normal(size=(count, 3))  # ray directions: no translation
            assert np.array_equal(np.swapaxes(np.swapaxes(rot, -1, -2) @ np.ascontiguousarray(dirs.T), -1, -2), dirs @ rot)


@pytest.mark.parametrize("flush", [1, OCCLUSION_FLUSH_PAIRS, 1024, 10**9])
def test_occlusions_equal_the_three_slab_oracle_at_block_edges(bundled_grasps, monkeypatch, flush):
    """The union-box cull and the gathered box tests score every candidate
    exactly as the three slab tests per pair do, for candidate counts on
    each side of a block edge, and with the gathered pairs tested after
    every block, at the default size, at 1024 pairs, or once at the end."""
    monkeypatch.setattr(grasping, "OCCLUSION_FLUSH_PAIRS", flush)
    for name in ("hammer", "rodball"):
        scene, cands, cluster = bundled_grasps[name]
        grid, gripper = scene.grid, scene.gripper
        block = OCCLUSION_BLOCK_PAIRS // cluster.size
        assert 2 <= block < len(cands)
        for n in (1, block - 1, block, block + 1, 2 * block, 2 * block + 1, len(cands)):
            want = oracle_block_occlusions(cands[:n], cluster, gripper, grid)
            assert grasping._occlusions(cands[:n], cluster, gripper, grid) == want, (name, n)


def rodball_seed0(bundled_grasps):
    scene, _, cluster = bundled_grasps["rodball"]
    grid = scene.grid
    return scene, sample_grasps(grid, scene.gripper, scene.params.max_grasps, 0), cluster


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_memory_peak_on_rodball(bundled_grasps):
    """rodball holds the largest bundled planning cluster (993 voxels). With
    every pair slab-tested against all three boxes in blocks of 4096 pairs,
    rank_grasps on its 600 seed-0 candidates peaked at 488,292 B under
    tracemalloc (numpy 2.4, x86_64), and 472,261 B with the union-box cull:
    the pairs that meet the union box are gathered in bounded batches.
    Freeing each block before the next and gathering 512 pairs, not 1024,
    took it to 410,049 B. With axes-first local frames it peaks at 406,735 B
    in a full tier-1 run and at 461,672 B with this test run alone, whose
    first call fills CPython's free lists."""
    scene, cands, cluster = rodball_seed0(bundled_grasps)
    grid = scene.grid
    peak = traced_peak(lambda: rank_grasps(cands, cluster, scene.params.lam, scene.gripper, grid))
    assert peak <= 500_000


def test_contenders_memory_peak_on_rodball(bundled_grasps):
    """The contender scan runs the same blocks and keeps the shuffled rays
    and a few per-candidate arrays: on rodball's 600 seed-0 candidates it
    peaks at 448,480 B in a full tier-1 run and at 449,552 B with this test
    run alone (numpy 2.4, x86_64). Its peak is the union-box slab test. Local
    frames read through swapaxes views of [candidate, xyz, ray] products gave
    473,104 B: a ufunc over a view it cannot flatten to one stride buffers
    it. Stored [xyz, candidate, ray], each axis the slab reads is one block."""
    scene, cands, cluster = rodball_seed0(bundled_grasps)
    grid = scene.grid
    peak = traced_peak(lambda: contenders(cands, cluster, scene.gripper, grid))
    assert peak <= 500_000


@pytest.mark.parametrize("name", suite.OBJECT_NAMES)
def test_hit_counts_over_shuffled_chunks_sum_to_the_whole_cluster(bundled_grasps, name):
    """contenders prunes on counts taken CONTENDER_CHUNK shuffled voxels at a
    time: each (candidate, voxel) test must come out as it does in
    rank_grasps, over the whole cluster in its own order."""
    scene, cands, cluster = bundled_grasps[name]
    grid = scene.grid
    rays = grasping._rays(cluster, grid)
    order = np.random.default_rng(3).permutation(cluster.size)
    starts = range(0, cluster.size, CONTENDER_CHUNK)
    chunks = [[r[order[s : s + CONTENDER_CHUNK]] for r in rays] for s in starts]
    for part in (cands[:100], cands[-1:]):
        whole = grasping._hits(part, rays, scene.gripper)
        assert np.array_equal(sum(grasping._hits(part, chunk, scene.gripper) for chunk in chunks), whole)


@st.composite
def reordered_candidates(draw, bundled_grasps):
    """Up to 60 bundled candidates of one scene, in a drawn order, with drawn
    confidences in [MIN_CONFIDENCE, 1] that often tie."""
    scene, cands, cluster = bundled_grasps[draw(st.sampled_from(suite.OBJECT_NAMES))]
    picks = draw(st.lists(st.integers(0, len(cands) - 1), min_size=1, max_size=60, unique=True))
    level = st.one_of(st.sampled_from([MIN_CONFIDENCE, 0.5, 0.9, 1.0]), st.floats(MIN_CONFIDENCE, 1.0))
    drawn = [dataclasses.replace(cands[i], confidence=draw(level)) for i in picks]
    return scene, drawn, cluster


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_contenders_keep_the_top_of_any_order_and_confidences(bundled_grasps, data):
    """The bundled scenes sample in confidence order, all at 1.0; here the
    order and the confidences are drawn. contenders returns a subsequence of
    its input, and ranking it gives rank_grasps' top over all of them, at a
    drawn lam and at both ends."""
    scene, cands, cluster = data.draw(reordered_candidates(bundled_grasps))
    grid = scene.grid
    args = (scene.gripper, grid)
    kept = contenders(cands, cluster, *args)
    position = {id(c): k for k, c in enumerate(cands)}
    assert kept and all(id(c) in position for c in kept)
    assert [position[id(c)] for c in kept] == sorted(position[id(c)] for c in kept)
    for lam in (data.draw(st.floats(0.0, 1.0)), 0.0, 1.0):
        want = rank_grasps(cands, cluster, lam, *args)[0]
        got = rank_grasps(kept, cluster, lam, *args)[0]
        assert got.candidate is want.candidate, lam
        assert (got.occlusion, got.score) == (want.occlusion, want.score), lam


def grasp_rows(candidates) -> list:
    """Each candidate's fields, its arrays as bytes: equal lists hold the same grasps bit for bit."""
    return [(c.rotation.tobytes(), c.translation.tobytes(), c.width, c.confidence, c.contact_pair) for c in candidates]


def test_grasp_set_rows_are_read_only_and_stay_aligned(bundled_grasps):
    """The sampler's GraspSet holds read-only aligned arrays; an index builds
    that row's GraspCandidate, a slice or an index array gives a GraspSet of
    the same rows, and a list of candidates stacks back to the same arrays."""
    cands = bundled_grasps["mug"][1]
    n = len(cands)
    assert isinstance(cands, GraspSet) and n > 40
    arrays = [cands.rotation, cands.translation, cands.width, cands.confidence, cands.contact_pair]
    assert [a.shape for a in arrays] == [(n, 3, 3), (n, 3), (n,), (n,), (n, 2, 3)]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        cands.width[0] = 0.01
    one = cands[7]
    assert isinstance(one, GraspCandidate) and isinstance(one.width, float) and isinstance(one.confidence, float)
    assert one.contact_pair == tuple(map(tuple, cands.contact_pair[7].tolist()))
    for part, rows in ((cands[3:40:7], range(3, 40, 7)), (cands[np.array([5, 0, n - 1, 5])], [5, 0, n - 1, 5]),
                       (cands[-2:], [n - 2, n - 1])):
        assert isinstance(part, GraspSet) and len(part) == len(rows)
        assert not any(a.flags.writeable for a in (part.rotation, part.translation, part.width, part.contact_pair))
        assert grasp_rows(part) == grasp_rows(cands[k] for k in rows)
    stacked = GraspSet.of(list(cands))
    assert GraspSet.of(cands) is cands and grasp_rows(stacked) == grasp_rows(cands)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(
        (stacked.rotation, stacked.translation, stacked.width, stacked.confidence, stacked.contact_pair), arrays))


def test_contenders_of_nothing_and_of_an_empty_cluster(bundled_grasps):
    scene, cands, cluster = bundled_grasps["hammer"]
    grid = scene.grid
    assert contenders([], cluster, scene.gripper, grid) == []
    with pytest.raises(ValueError, match="empty contact map"):
        contenders(cands, ContactCluster([]), scene.gripper, grid)


def listed_boxes(gripper, width):
    """The finger, finger and palm boxes as (lo, hi) pairs, built one width at
    a time from the model fields."""
    ft, fl, hw = gripper.finger_thickness, gripper.finger_length, width / 2.0
    hx = ft / 2.0
    return [
        (np.array([-hx, hw, -fl / 2]), np.array([hx, hw + ft, fl / 2])),
        (np.array([-hx, -hw - ft, -fl / 2]), np.array([hx, -hw, fl / 2])),
        (np.array([-hx, -hw - ft, fl / 2]), np.array([hx, hw + ft, fl / 2 + gripper.palm_depth])),
    ]


def test_boxes_and_region_of_a_width_array_are_each_widths_bitwise(bundled_grasps):
    widths = np.array([c.width for c in bundled_grasps["mug"][1][:50]] + [GRIPPER.max_width, 1e-6])
    boxes, region = GRIPPER.boxes(widths), GRIPPER.closing_region(widths)
    assert boxes.shape == (len(widths), 3, 2, 3) and region.shape == (len(widths), 2, 3)
    ft, fl = GRIPPER.finger_thickness, GRIPPER.finger_length
    for w, got_boxes, got_region in zip(widths.tolist(), boxes, region):
        assert np.array_equal(got_boxes, np.array(listed_boxes(GRIPPER, w)))
        assert np.array_equal(GRIPPER.boxes(w), got_boxes)
        assert np.array_equal(got_region, [[-ft / 2, -w / 2.0, -fl / 2], [ft / 2, w / 2.0, fl / 2]])
    for bad in (0.0, -0.01, GRIPPER.max_width * 1.5):
        with pytest.raises(ValueError, match="width must lie in"):
            GRIPPER.boxes(np.append(widths, bad))


def test_closing_region_of_a_pose_stack_is_each_poses_bitwise(bundled_grasps):
    """in_closing_region on a stack of (rotation, translation, width) poses,
    as _hits calls it, gives each pose's own call bit for bit: over the
    planning cluster's centers and the sampled contact pairs, which lie on
    the region's boundary."""
    for name, (scene, cands, cluster) in bundled_grasps.items():
        cands, gripper = cands[:40], scene.gripper
        pairs = np.array([p for c in cands for p in c.contact_pair], dtype=float)
        points = np.concatenate([scene.grid.centers(cluster.member_indices), scene.grid.centers(pairs)])
        rot = np.array([c.rotation for c in cands])
        t = np.array([c.translation for c in cands])[:, None, :]
        got = gripper.in_closing_region(rot, t, np.array([c.width for c in cands]), points)
        assert got.shape == (len(cands), len(points)) and got.any() and not got.all(), name
        for row, c in zip(got, cands):
            assert np.array_equal(row, gripper.in_closing_region(c.rotation, c.translation, c.width, points)), name


def two_sided_region(gripper, rotation, translation, width, points) -> np.ndarray:
    """in_closing_region as lo - REGION_EPS <= local <= hi + REGION_EPS per axis."""
    local = (np.atleast_2d(points) - translation) @ rotation
    lo, hi = np.moveaxis(gripper.closing_region(width), -2, 0)[..., None, :]
    return ((local >= lo - REGION_EPS) & (local <= hi + REGION_EPS)).all(axis=-1)


def test_closing_region_faces_match_the_two_sided_test():
    """Points at +-(hi + REGION_EPS) on each axis, and one ulp inside and
    outside: the one-sided |local| test gives the two-sided form's mask, for
    one pose and for a stack of poses."""
    widths = np.array([0.02, 0.05, GRIPPER.max_width])
    points = []
    for hi in GRIPPER.closing_region(widths)[:, 1]:
        for axis, sign in itertools.product(range(3), (1.0, -1.0)):
            face = sign * (hi[axis] + REGION_EPS)
            for v in (face, np.nextafter(face, 0.0), np.nextafter(face, sign * np.inf)):
                point = np.zeros(3)
                point[axis] = v
                points.append(point)
    points = np.array(points)
    single = GRIPPER.in_closing_region(np.eye(3), np.zeros(3), widths[0], points)
    assert np.array_equal(single, two_sided_region(GRIPPER, np.eye(3), np.zeros(3), widths[0], points))
    assert single[:18].tolist() == [True, True, False] * 6  # its own faces: on, inside, outside
    turn = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])  # axes swapped and flipped, exactly
    rot = np.array([np.eye(3), turn, turn.T])
    t = np.array([[0.0, 0.0, 0.0], [0.25, -0.5, 0.125], [0.0, 0.0, 0.0]])[:, None, :]
    world = np.concatenate([points, (points @ turn.T) + t[1], points @ turn])  # each pose's faces in the world
    stack = GRIPPER.in_closing_region(rot, t, widths, world)
    assert stack.shape == (3, len(world)) and stack.any() and not stack.all()
    assert np.array_equal(stack, two_sided_region(GRIPPER, rot, t, widths, world))
    for r, tr, w in zip(rot, t, widths):
        assert np.array_equal(GRIPPER.in_closing_region(r, tr, w, world), two_sided_region(GRIPPER, r, tr, w, world))


def assert_ranking_matches_oracle(cands, cluster, scene, lam):
    grid, gripper = scene.grid, scene.gripper
    ranked = rank_grasps(cands, cluster, lam, gripper, grid)
    occ = oracle_occlusions(cands, cluster, gripper, grid)
    order = sorted(
        range(len(cands)),
        key=lambda i: (-contact_score(cands[i].confidence, occ[i], lam), -cands[i].confidence, occ[i], i),
    )
    def row(c):  # a sampled GraspSet builds each row's candidate anew: compare what the row holds
        return c.contact_pair, c.rotation.tobytes(), c.translation.tobytes(), c.width, c.confidence

    assert [row(rg.candidate) for rg in ranked] == [row(cands[i]) for i in order]
    assert [rg.occlusion for rg in ranked] == [occ[i] for i in order]


@pytest.mark.parametrize("name", suite.OBJECT_NAMES)
def test_rank_occlusions_match_per_candidate_oracle(bundled_grasps, name):
    scene, cands, cluster = bundled_grasps[name]
    assert_ranking_matches_oracle(cands, cluster, scene, scene.params.lam)


def test_block_boundaries_change_nothing(bundled_grasps):
    scene, cands, cluster = bundled_grasps["hammer"]
    block = OCCLUSION_BLOCK_PAIRS // cluster.size
    assert 2 <= block < len(cands)
    for n in (1, block - 1, block, block + 1):
        assert_ranking_matches_oracle(cands[:n], cluster, scene, 0.5)
    grid = scene.grid
    expect = oracle_occlusions(cands[:3], cluster, scene.gripper, grid)
    got = [occlusion_fraction(c, cluster, scene.gripper, grid) for c in cands[:3]]
    assert got == expect


def test_rank_rejects_empty_cluster():
    grid, _, cands = synthetic_ranked_set()
    with pytest.raises(ValueError, match="empty contact map"):
        rank_grasps(cands, ContactCluster([]), 0.5, GRIPPER, grid)


def test_rank_checks_lam_before_any_occlusion_work():
    grid, _, cands = synthetic_ranked_set()
    # an empty cluster fails as soon as occlusion is scored, so the lam error
    # shows that the check came first
    empty = ContactCluster([])
    for lam in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="lam must lie in"):
            rank_grasps(cands, empty, lam, GRIPPER, grid)
