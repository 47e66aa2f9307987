"""Acceptance gate: ten end-to-end properties, one test each.

Each test checks its target against an oracle implemented here from scratch
(brute force, symbolic restatement, or byte comparison), independent of the
library code paths it judges. Timed criteria assert their wall-clock budget.
"""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from handover import cli
from handover.contacts import ContactCluster, ContactMap, cluster_contacts, load_contact_map, save_contact_map
from handover.delivery import (
    DeliveryContext,
    plan_handover_orientation,
    sample_orientations,
)
from handover.ergonomics import (
    ELBOW_MID_DEG,
    ELBOW_RANGE_DEG,
    GRAVITY,
    SHOULDER_MID_DEG,
    SHOULDER_RANGE_DEG,
    HumanModel,
    joint_torques,
    plan_handover_position,
)
from handover.grasping import (
    GraspCandidate,
    GripperModel,
    contact_score,
    occlusion_fraction,
    rank_grasps,
    sample_grasps,
)
from handover.harness import SharedStages, load_report, run_pipeline, save_report
from handover.metrics import reachability, success, visibility
from handover.voxelgeom import load_vgrid, save_vgrid

from conftest import box_grid, by_index, make_grid, random_rotation
from test_contacts import map_from_indices, reference_dbscan


# -------------------------------------------------------------- criterion 1

def test_criterion_01_scoring_exactness():
    """Ranked scores equal lam*S - (1-lam)*O to 1e-12 on 1000+ triples, and
    the score is monotone in each argument. Budget: 1 s."""
    t_start = time.perf_counter()
    grid = box_grid((26, 9, 9), (2, 3, 3), (17, 5, 5), voxel_size=0.01)
    gripper = GripperModel()
    candidates = sample_grasps(grid, gripper, 60, seed=0)
    assert candidates
    members = [i for i in map(tuple, grid.surface.tolist()) if 8 <= i[0] <= 12]
    cluster = ContactCluster(members)
    rng = np.random.default_rng(3)
    triples = 0
    draws = max(1, math.ceil(1000 / len(candidates)))
    for lam in rng.uniform(0.0, 1.0, size=draws):
        lam = float(lam)
        for rg in rank_grasps(candidates, cluster, lam, gripper, grid):
            want = lam * rg.candidate.confidence - (1.0 - lam) * rg.occlusion
            assert abs(rg.score - want) <= 1e-12
            triples += 1
    assert triples >= 1000

    # monotone: higher confidence never hurts, higher occlusion never helps
    for _ in range(1000):
        s1, s2 = sorted(rng.uniform(0.0, 1.0, size=2))
        o1, o2 = sorted(rng.uniform(0.0, 1.0, size=2))
        lam = float(rng.uniform(0.05, 0.95))
        o = float(rng.uniform(0.0, 1.0))
        s = float(rng.uniform(0.0, 1.0))
        if s1 < s2:
            assert contact_score(s1, o, lam) < contact_score(s2, o, lam)
        if o1 < o2:
            assert contact_score(s, o1, lam) > contact_score(s, o2, lam)
    assert contact_score(0.2, 0.9, 1.0) == contact_score(0.2, 0.1, 1.0)
    assert contact_score(0.9, 0.4, 0.0) == contact_score(0.1, 0.4, 0.0)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    print(f"criterion 1: {triples} scored triples exact, monotone; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 2

def march_blocked(center, normal, rot, trans, width, gripper, voxel_size):
    """Brute-force blockage: point-in-closing-box, else a fine ray march
    against the three gripper boxes."""
    local_c = rot.T @ (center - trans)
    hw, hx, hfl = width / 2, gripper.finger_thickness / 2, gripper.finger_length / 2
    eps = 1e-9
    if (abs(local_c[0]) <= hx + eps and abs(local_c[1]) <= hw + eps
            and abs(local_c[2]) <= hfl + eps):
        return True
    ft, fl, pd = gripper.finger_thickness, gripper.finger_length, gripper.palm_depth
    boxes = [
        (np.array([-hx, hw, -fl / 2]), np.array([hx, hw + ft, fl / 2])),
        (np.array([-hx, -hw - ft, -fl / 2]), np.array([hx, -hw, fl / 2])),
        (np.array([-hx, -hw - ft, fl / 2]), np.array([hx, hw + ft, fl / 2 + pd])),
    ]
    origin = center + 1.5 * voxel_size * normal
    max_dist = 4.0 * gripper.finger_length
    steps = np.arange(0.0, max_dist + 1e-12, 0.00025)
    pts = (origin + steps[:, None] * normal - trans) @ rot
    for lo, hi in boxes:
        if bool(((pts >= lo) & (pts <= hi)).all(axis=1).any()):
            return True
    return False


def test_criterion_02_occlusion_oracle():
    """occlusion_fraction agrees with a ray-march + point-in-box oracle on 50
    randomized scenes, exact blocked counts. Budget: 30 s."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(11)
    gripper = GripperModel()
    for scene_i in range(50):
        lo = rng.integers(2, 8, size=3)
        hi = lo + rng.integers(2, 8, size=3)
        occ = np.zeros((20, 20, 20), dtype=bool)
        occ[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] = True
        grid = make_grid(occ, voxel_size=0.01)
        surface = list(map(tuple, grid.surface.tolist()))
        normals = by_index(grid.surface, grid.normals)
        m = int(rng.integers(8, min(26, len(surface) + 1)))
        members = [surface[j] for j in rng.choice(len(surface), size=m, replace=False)]
        cluster = ContactCluster(members)
        anchor = grid.center(surface[int(rng.integers(len(surface)))])
        grasp = GraspCandidate(
            rotation=random_rotation(rng),
            translation=anchor + rng.uniform(-0.02, 0.02, size=3),
            width=float(rng.uniform(0.02, 0.10)),
            confidence=0.5,
            contact_pair=(members[0], members[1]),
        )
        frac = occlusion_fraction(grasp, cluster, gripper, grid)
        got = round(frac * m)
        want = sum(
            march_blocked(grid.center(i), normals[i], grasp.rotation,
                          grasp.translation, grasp.width, gripper, grid.voxel_size)
            for i in members
        )
        assert got == want, f"scene {scene_i}: module {got} vs oracle {want}"
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"criterion 2: 50 scenes, exact count agreement; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_dbscan_equivalence():
    """cluster_contacts equals the O(n^2) textbook reference on 100 random
    sets with n <= 200. Budget: 30 s."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(4, 201))
        pts = sorted({tuple(int(v) for v in rng.integers(0, 16, size=3)) for _ in range(n)})
        eps = float(rng.uniform(1.0, 4.0))
        min_pts = int(rng.integers(1, 8))
        cm = map_from_indices((16, 16, 16), pts)
        got = {frozenset(map(tuple, c.member_indices.tolist())) for c in cluster_contacts(cm, eps, min_pts)}
        assert got == reference_dbscan(pts, eps, min_pts), (trial, eps, min_pts)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"criterion 3: 100 random sets equal; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 4

def exhaustive_position_winner(human, object_mass, alpha, step):
    """Restated from scratch: planar trig FK, gravity moments, strict height
    window, max-normalization, argmin with the declared tie order."""
    ua, fa = human.upper_arm_length, human.forearm_length
    sh_z, waist_z = human.shoulder_height, human.waist_height
    m_ua, m_fa = human.upper_arm_mass, human.forearm_mass
    m_tip = human.hand_mass + object_mass

    def angles(lo, hi):
        out, k = [], 0
        while lo + k * step <= hi + 1e-9:
            out.append(min(lo + k * step, hi))
            k += 1
        return out

    rows = []
    for ts in angles(*SHOULDER_RANGE_DEG):
        for te in angles(*ELBOW_RANGE_DEG):
            a, b = math.radians(ts), math.radians(ts + te)
            hand_z = sh_z - ua * math.cos(a) - fa * math.cos(b)
            if not (waist_z < hand_z < sh_z):
                continue
            x_e = ua * math.sin(a)
            x_h = x_e + fa * math.sin(b)
            tau_s = abs(GRAVITY * (m_ua * x_e / 2 + m_fa * (x_e + x_h) / 2 + m_tip * x_h))
            tau_e = abs(GRAVITY * (m_fa * (x_h - x_e) / 2 + m_tip * (x_h - x_e)))
            traw = tau_s**2 + tau_e**2
            draw = (SHOULDER_MID_DEG - ts) ** 2 + (ELBOW_MID_DEG - te) ** 2
            rows.append((ts, te, traw, draw))
    t_max = max(r[2] for r in rows)
    d_max = max(r[3] for r in rows)
    best = None
    for ts, te, traw, draw in rows:
        ft = traw / t_max if t_max > 0 else 0.0
        fd = draw / d_max if d_max > 0 else 0.0
        key = ((1 - alpha) * ft + alpha * fd, ft, ts, te)
        if best is None or key < best[0]:
            best = (key, ts, te)
    return best[1], best[2]


def test_criterion_04_position_equivalence():
    """Planner winner equals exhaustive 5-degree-grid evaluation for five
    alpha values; costs normalized to [0,1]; hand strictly inside the height
    window; f_disp = 0 at the rest midpoint when the window keeps it.
    Budget: 5 s."""
    t_start = time.perf_counter()
    human = HumanModel()
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, winner, kept = plan_handover_position(human, 0.5, alpha, 5.0)
        got = (winner.shoulder_deg, winner.elbow_deg)
        assert got == exhaustive_position_winner(human, 0.5, alpha, 5.0), alpha
        for effort, displacement in zip(kept.effort_cost.tolist(), kept.displacement_cost.tolist()):
            assert 0.0 <= effort <= 1.0
            assert 0.0 <= displacement <= 1.0
        assert human.waist_height < winner.hand_position[2] < human.shoulder_height
    # a shorter forearm drops the rest-midpoint hand below the shoulder, so
    # the midpoint is kept; on a 2.5-degree grid pure posture lands exactly on
    # it with zero displacement cost
    short = HumanModel(forearm_length=0.15)
    _, winner, _ = plan_handover_position(short, 0.5, alpha=1.0, step=2.5)
    assert (winner.shoulder_deg, winner.elbow_deg) == (
        SHOULDER_MID_DEG, ELBOW_MID_DEG,
    )
    assert winner.displacement_cost == 0.0
    assert (winner.shoulder_deg, winner.elbow_deg) == \
        exhaustive_position_winner(short, 0.5, 1.0, 2.5)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    print(f"criterion 4: five alphas match exhaustive search; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_torque_analytic():
    """Hanging arm carries no gravity moment; a massless arm holding a point
    mass reproduces the lever formula to 1e-9 relative."""
    human = HumanModel()
    tau_s, tau_e = joint_torques(0.0, 0.0, object_mass=2.0, human=human)
    assert tau_s < 1e-9 and tau_e < 1e-9

    massless = HumanModel(upper_arm_mass=0.0, forearm_mass=0.0, hand_mass=0.0)
    m = 1.3
    ua, fa = massless.upper_arm_length, massless.forearm_length
    for ts, te in ((90.0, 0.0), (45.0, 0.0), (30.0, 40.0)):
        tau_s, tau_e = joint_torques(ts, te, object_mass=m, human=massless)
        x_hand = ua * math.sin(math.radians(ts)) + fa * math.sin(math.radians(ts + te))
        x_fore = fa * math.sin(math.radians(ts + te))
        assert tau_s == pytest.approx(m * GRAVITY * x_hand, rel=1e-9)
        assert tau_e == pytest.approx(m * GRAVITY * x_fore, rel=1e-9)
    print("criterion 5: zero pose < 1e-9, lever formula matches at 1e-9 relative")


# -------------------------------------------------------------- criterion 6

def capsule_hit(points, base, height, radius):
    rel = points - base
    z = np.clip(rel[:, 2], 0.0, height)
    return bool(((rel[:, 0] ** 2 + rel[:, 1] ** 2 + (rel[:, 2] - z) ** 2)
                 < radius * radius).any())


def test_criterion_06_orientation_optimality():
    """Planner objective equals the minimum over feasible rotations recomputed
    with a from-scratch feasibility filter, on 20 randomized scenes, exact.
    Budget: 30 s."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(23)
    gripper = GripperModel()
    human = HumanModel()
    robot_base = np.array([1.2, 0.0, 0.0])
    rotations = sample_orientations(45.0)
    for scene_i in range(20):
        lo = rng.integers(2, 6, size=3)
        hi = lo + rng.integers(3, 8, size=3)
        occ = np.zeros((16, 16, 16), dtype=bool)
        occ[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1] = True
        grid = make_grid(occ, voxel_size=0.01)
        surface = list(map(tuple, grid.surface.tolist()))
        held = grid.center(surface[int(rng.integers(len(surface)))])
        grasp_rot = random_rotation(rng)
        width = float(rng.uniform(0.02, 0.10))
        ee = np.array([rng.uniform(0.5, 0.75), rng.uniform(-0.12, 0.12),
                       rng.uniform(0.95, 1.20)])
        m = int(rng.integers(4, 11))
        members = [surface[j] for j in rng.choice(len(surface), size=m, replace=False)]
        cluster = ContactCluster(members)
        ctx = DeliveryContext(
            grid=grid, gripper=gripper, grasp_rotation=grasp_rot,
            held_point=held, width=width, ee_position=ee, human=human,
            robot_base=robot_base,
        )

        # from-scratch feasibility + objective scan
        obj_rel = grid.occupied_centers - held
        grip_rel = gripper.surface_points(width, grid.voxel_size) @ grasp_rot.T
        cl_rel = grid.centers(np.asarray(members, dtype=float)) - held
        to_human = human.base_position - robot_base
        to_human = np.array([to_human[0], to_human[1], 0.0])
        to_human /= np.linalg.norm(to_human)
        eye = human.eye_point
        feas_objs = []
        n_feasible = 0
        for rot in rotations:
            obj_pts = ee + obj_rel @ rot.T
            if float(obj_pts[:, 2].min()) < 0.40:
                continue
            if capsule_hit(obj_pts, human.base_position, human.height, 0.20):
                continue
            if capsule_hit(ee + grip_rel @ rot.T, human.base_position, human.height, 0.20):
                continue
            approach = rot @ (-grasp_rot[:, 2])
            cosang = min(max(float(np.dot(approach, to_human)), -1.0), 1.0)
            if math.degrees(math.acos(cosang)) > 120.0:
                continue
            n_feasible += 1
            feas_objs.append(float(np.linalg.norm(ee + cl_rel @ rot.T - eye, axis=1).sum()))
        assert feas_objs, f"scene {scene_i} left no feasible rotation"
        pose = plan_handover_orientation(ctx, cluster)
        assert pose.objective == min(feas_objs), scene_i
        assert sum(c.feasible for c in pose.candidates) == n_feasible, scene_i
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"criterion 6: 20 scenes, objective equals recomputed minimum; {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 7

def segment_hits_any_voxel(lo_all, hi_all, origin, end):
    """Exact slab test of segment origin->end against N axis-aligned boxes:
    hit when the clipped interval is nonempty with t1 > 0 and t0 < 1."""
    d = end - origin
    t_lo = np.full(lo_all.shape[0], -np.inf)
    t_hi = np.full(lo_all.shape[0], np.inf)
    ok = np.ones(lo_all.shape[0], dtype=bool)
    for a in range(3):
        if d[a] == 0.0:
            ok &= (origin[a] >= lo_all[:, a]) & (origin[a] <= hi_all[:, a])
            continue
        ta = (lo_all[:, a] - origin[a]) / d[a]
        tb = (hi_all[:, a] - origin[a]) / d[a]
        t_lo = np.maximum(t_lo, np.minimum(ta, tb))
        t_hi = np.minimum(t_hi, np.maximum(ta, tb))
    return bool((ok & (t_lo <= t_hi) & (t_hi > 0.0) & (t_lo < 1.0)).any())


def segment_hits_oriented_box(o_loc, e_loc, lo, hi, open_end=False):
    """Slab test in a box's local frame, interval clipped to [0, 1]."""
    d = e_loc - o_loc
    t0, t1 = 0.0, 1.0
    for a in range(3):
        if d[a] == 0.0:
            if o_loc[a] < lo[a] or o_loc[a] > hi[a]:
                return False
            continue
        ta, tb = (lo[a] - o_loc[a]) / d[a], (hi[a] - o_loc[a]) / d[a]
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return False
    return t0 < 1.0 if open_end else True


def gripper_boxes(gripper, width):
    hw, hx = width / 2, gripper.finger_thickness / 2
    ft, fl, pd = gripper.finger_thickness, gripper.finger_length, gripper.palm_depth
    return [
        (np.array([-hx, hw, -fl / 2]), np.array([hx, hw + ft, fl / 2])),
        (np.array([-hx, -hw - ft, -fl / 2]), np.array([hx, -hw, fl / 2])),
        (np.array([-hx, -hw - ft, fl / 2]), np.array([hx, hw + ft, fl / 2 + pd])),
    ]


def oracle_visibility(scene, ctx, rotation, cm):
    grid = ctx.grid
    vs = grid.voxel_size
    normals = by_index(grid.surface, grid.normals)
    eye = ctx.human.eye_point
    eye_grid = ctx.held_point + rotation.T @ (eye - ctx.ee_position)
    grip_rot = rotation @ ctx.grasp_rotation
    occ_centers = grid.occupied_centers
    occ_lo = occ_centers - vs / 2
    occ_hi = occ_centers + vs / 2
    hw, hx, hfl = ctx.width / 2, ctx.gripper.finger_thickness / 2, ctx.gripper.finger_length / 2
    fx, fy, h = ctx.body_proxy_dims
    proxy_lo = np.array([ctx.robot_base[0] - fx / 2, ctx.robot_base[1] - fy / 2, ctx.robot_base[2]])
    proxy_hi = np.array([ctx.robot_base[0] + fx / 2, ctx.robot_base[1] + fy / 2, ctx.robot_base[2] + h])
    boxes = gripper_boxes(ctx.gripper, ctx.width)
    values = by_index(cm.keys, cm.values.tolist())
    contact = list(map(tuple, cm.contacts()[0].tolist()))
    denom = sum(values[i] for i in contact)
    numer = 0.0
    flags = {}
    for idx in contact:
        c = grid.center(idx)
        n = normals.get(idx)
        if n is None:
            off = eye_grid - c
            nn = float(np.linalg.norm(off))
            n = off / nn if nn > 0 else np.array([0.0, 0.0, 1.0])
        aim = c + 1.5 * vs * n
        world_c = ctx.ee_position + rotation @ (c - ctx.held_point)
        world_aim = ctx.ee_position + rotation @ (aim - ctx.held_point)
        dist = float(np.linalg.norm(aim - eye_grid))
        visible = True
        if dist > 0:
            local_c = grip_rot.T @ (world_c - ctx.ee_position)
            eps = 1e-9
            if (abs(local_c[0]) <= hx + eps and abs(local_c[1]) <= hw + eps
                    and abs(local_c[2]) <= hfl + eps):
                visible = False
            if visible:
                o_loc = grip_rot.T @ (eye - ctx.ee_position)
                e_loc = grip_rot.T @ (world_aim - ctx.ee_position)
                if any(segment_hits_oriented_box(o_loc, e_loc, lo, hi) for lo, hi in boxes):
                    visible = False
            if visible and segment_hits_oriented_box(eye, world_aim, proxy_lo, proxy_hi,
                                                     open_end=True):
                visible = False
            if visible and segment_hits_any_voxel(occ_lo, occ_hi, eye_grid, aim):
                visible = False
        if visible:
            numer += values[idx]
        flags[idx] = visible
    return numer / denom, flags


def oracle_reachability(ctx, rotation, cm):
    human = ctx.human
    grip_pts = ctx.ee_position + (
        ctx.gripper.surface_points(ctx.width, ctx.grid.voxel_size)
        @ ctx.grasp_rotation.T
    ) @ rotation.T
    grip_d = float(np.hypot(grip_pts[:, 0] - human.base_position[0],
                            grip_pts[:, 1] - human.base_position[1]).min())
    values = by_index(cm.keys, cm.values.tolist())
    contact = list(map(tuple, cm.contacts()[0].tolist()))
    denom = sum(values[i] for i in contact)
    numer = 0.0
    flags = {}
    for idx in contact:
        world = ctx.ee_position + rotation @ (ctx.grid.center(idx) - ctx.held_point)
        d1 = float(np.linalg.norm(world - human.shoulder_point))
        d2 = math.hypot(world[0] - human.base_position[0], world[1] - human.base_position[1])
        ok = d1 < human.arm_length and d2 < grip_d
        if ok:
            numer += values[idx]
        flags[idx] = ok
    return numer / denom, flags


def rebuild_context(scene, report):
    pose = np.array(report.grasp["pose"])
    return DeliveryContext(
        grid=scene.grid,
        gripper=scene.gripper,
        grasp_rotation=pose[:3, :3],
        held_point=pose[:3, 3],
        width=report.grasp["width"],
        ee_position=np.array(report.delivery["ee_position"]),
        human=scene.human,
        robot_base=scene.robot_base,
        body_proxy_dims=scene.body_proxy_dims,
    )


def test_criterion_07_metric_oracles(scenes):
    """Visibility and reachability bounded in [0,1] on every bundled scene and
    exactly equal to per-voxel brute-force recomputation; success is strict at
    the threshold."""
    checked = 0
    for name, scene in scenes.items():
        report = run_pipeline(scene, "FULL", seed=0)
        assert report.failure is None, (name, report.failure)
        rotation = np.array(report.delivery["object_rotation"])
        ctx = rebuild_context(scene, report)
        for cm in scene.contact_maps:
            contact = cm.contacts()[0]
            v_mod, v_flags = visibility(ctx, rotation, cm)
            r_mod, r_flags = reachability(ctx, rotation, cm)
            v_flags, r_flags = by_index(contact, v_flags.tolist()), by_index(contact, r_flags.tolist())
            assert 0.0 <= v_mod <= 1.0 and 0.0 <= r_mod <= 1.0
            v_orc, v_orc_flags = oracle_visibility(scene, ctx, rotation, cm)
            r_orc, r_orc_flags = oracle_reachability(ctx, rotation, cm)
            assert v_flags == v_orc_flags, name
            assert r_flags == r_orc_flags, name
            assert v_mod == v_orc and r_mod == r_orc, name
            checked += 1
        # bounds also hold for the no-planning ablation
        a4 = run_pipeline(scene, "A4", seed=0)
        for entry in a4.metrics["per_map"]:
            assert 0.0 <= entry["visibility"] <= 1.0
            assert 0.0 <= entry["reachability"] <= 1.0
    assert success([0.5], [1.0]) is False
    assert success([1.0], [0.5]) is False
    assert success([0.5 + 1e-9], [0.5 + 1e-9]) is True
    print(f"criterion 7: {checked} scene/map pairs match brute force exactly")


# -------------------------------------------------------------- criterion 8

def test_criterion_08_ablation_direction(scenes):
    """Mean success: FULL >= A2 and FULL >= A3 over the 5x5 grid; A4 never
    succeeds and its reachability median is exactly 0.0. Budget: 3 min."""
    t_start = time.perf_counter()
    succ = {m: [] for m in ("FULL", "A1", "A2", "A3", "A4")}
    a4_reach = []
    for scene in scenes.values():
        for seed in range(5):
            shared = SharedStages(scene)
            for mode in succ:
                rep = run_pipeline(scene, mode, seed=seed, shared=shared)
                succ[mode].append(1.0 if rep.success else 0.0)
                if mode == "A4":
                    assert rep.success is False
                    a4_reach.append(rep.metrics["reachability_median"])
    means = {m: float(np.mean(v)) for m, v in succ.items()}
    assert means["FULL"] >= means["A2"]
    assert means["FULL"] >= means["A3"]
    assert all(r == 0.0 for r in a4_reach)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 180.0
    print("criterion 8: success means "
          + " ".join(f"{m}={means[m]:.2f}" for m in succ) + f"; {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_bench_determinism(suite_dir, tmp_path, capsys):
    """Repeated bench invocations with identical arguments write byte-identical
    summary.csv, serial or parallel."""
    args = [str(suite_dir / "hammer.scene.json"), str(suite_dir / "knife.scene.json"),
            "--modes", "FULL,A4", "--seeds", "0,1"]
    blobs = []
    for run_i, jobs in enumerate(("1", "1", "3")):
        out = tmp_path / f"bench{run_i}"
        code = cli.main(["bench", *args, "--out", str(out), "--jobs", jobs])
        capsys.readouterr()
        assert code == 0
        blobs.append((out / "summary.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print("criterion 9: three bench runs byte-identical (serial x2, parallel x1)")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_format_roundtrips(suite_dir, scenes, tmp_path):
    """Grid and contact-map files round-trip bit-exactly; run reports survive
    JSON round-trips losslessly."""
    src_grid = suite_dir / "hammer.vgrid"
    grid = load_vgrid(src_grid)
    again = tmp_path / "again.vgrid"
    save_vgrid(grid, again)
    assert again.read_bytes() == src_grid.read_bytes()

    src_cm = suite_dir / "hammer_contacts_0.vcontact"
    cm = load_contact_map(src_cm, grid)
    cm_again = tmp_path / "again.vcontact"
    save_contact_map(cm, cm_again)
    assert cm_again.read_bytes() == src_cm.read_bytes()

    report = run_pipeline(scenes["hammer"], "FULL", seed=0)
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    save_report(report, p1)
    loaded = load_report(p1)
    assert loaded.to_dict() == report.to_dict()
    save_report(loaded, p2)
    assert p2.read_bytes() == p1.read_bytes()
    print("criterion 10: vgrid, vcontact, and report round-trips exact")
