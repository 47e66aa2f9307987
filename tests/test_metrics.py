"""Visibility/reachability scoring and the success rule."""
import math
from dataclasses import replace

import numpy as np
import pytest

from handover.delivery import BODY_PROXY_DIMS, DeliveryContext
from handover.ergonomics import HumanModel
from handover.grasping import GripperModel
from handover import metrics
from handover.harness import AblationMode, SharedStages, run_pipeline
from handover.metrics import (
    evaluate_maps,
    lower_median,
    reachability,
    success,
    visibility,
)
from handover.voxelgeom import ray_cast
from conftest import box_grid, by_index, contact_map, oracle_ray_cast

I3 = np.eye(3)


def rot_y(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# ----------------------------------------------------------- median, success

def test_lower_median_odd():
    assert lower_median([3.0, 1.0, 2.0]) == 2.0


def test_lower_median_even_takes_lower_middle():
    assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert lower_median([1.0, 1.0]) == 1.0


def test_lower_median_single_and_empty():
    assert lower_median([7.0]) == 7.0
    with pytest.raises(ValueError, match="empty"):
        lower_median([])


def test_success_requires_both_medians_strictly_above():
    assert success([0.7], [0.9]) is True
    assert success([0.6], [0.4]) is False
    assert success([0.5], [0.9]) is False  # equality does not count
    assert success([0.9], [0.5]) is False
    assert success([0.4, 0.6, 0.8], [0.9, 0.7, 0.8]) is True


def test_success_threshold_validated():
    with pytest.raises(ValueError, match="threshold"):
        success([0.9], [0.9], threshold=1.0)
    with pytest.raises(ValueError, match="threshold"):
        success([0.9], [0.9], threshold=0.0)


# ------------------------------------------------------------ slab fixture

# 3-voxel-thick slab in front of and below the receiver's eye. Contacts on
# the eye-side face (x index 2) are in clear view; the far face (x index 4)
# hides behind the slab itself.
NEAR = [(2, y, z) for y in (4, 5, 6) for z in (4, 5, 6)]
FAR = [(4, y, z) for y in (4, 5, 6) for z in (4, 5, 6)]


def slab_ctx(origin=(0.55, -0.06, 1.14), held_idx=(3, 5, 5), grasp_rotation=None,
             body_proxy_dims=BODY_PROXY_DIMS):
    grid = box_grid((7, 12, 12), (2, 2, 2), (4, 9, 9), voxel_size=0.01, origin=origin)
    held = grid.centers(np.array([held_idx], dtype=float))[0]
    ctx = DeliveryContext(
        grid=grid,
        gripper=GripperModel(),
        grasp_rotation=I3 if grasp_rotation is None else grasp_rotation,
        held_point=held,
        width=0.03,
        ee_position=held.copy(),
        human=HumanModel(),
        robot_base=np.array([1.2, 0.0, 0.0]),
        body_proxy_dims=body_proxy_dims,
    )
    return grid, ctx


def ones_map(grid, indices):
    return contact_map(grid, {i: 1.0 for i in indices})


def keyed(cm, result):
    """A score's (score, flags) with the flags keyed by contact voxel."""
    score, flags = result
    return score, by_index(cm.contacts()[0], flags.tolist())


# ---------------------------------------------------------------- visibility

def test_eye_facing_face_fully_visible():
    grid, ctx = slab_ctx(body_proxy_dims=None)
    cm = ones_map(grid, NEAR)
    assert visibility(ctx, I3, cm)[0] == 1.0


def test_face_behind_slab_invisible():
    grid, ctx = slab_ctx(body_proxy_dims=None)
    cm = ones_map(grid, FAR)
    assert visibility(ctx, I3, cm)[0] == 0.0


def test_visibility_weights_mixed_faces():
    grid, ctx = slab_ctx(body_proxy_dims=None)
    cm = contact_map(
        grid,
        {**{i: 0.9 for i in NEAR}, **{i: 0.6 for i in FAR}},
    )
    got, _ = visibility(ctx, I3, cm)
    assert got == pytest.approx((9 * 0.9) / (9 * 0.9 + 9 * 0.6), abs=1e-12)


def test_visibility_detail_flags_consistent():
    grid, ctx = slab_ctx(body_proxy_dims=None)
    cm = ones_map(grid, NEAR + FAR)
    score, flags = keyed(cm, visibility(ctx, I3, cm))
    assert set(flags) == set(map(tuple, cm.contacts()[0].tolist()))
    assert score == pytest.approx(sum(flags.values()) / len(flags))
    assert all(flags[i] for i in NEAR)
    assert not any(flags[i] for i in FAR)


def test_closing_region_hides_held_contacts():
    # held point on the visible face: the whole face sits inside the closing
    # region (offsets within finger thickness/width/length), while the
    # gripper boxes themselves never cross the sight lines
    grid, ctx = slab_ctx(held_idx=(2, 5, 5), body_proxy_dims=None)
    cm = ones_map(grid, NEAR)
    # held one voxel deeper, the face lies outside the region and is clear
    assert visibility(slab_ctx(body_proxy_dims=None)[1], I3, cm)[0] == 1.0
    assert visibility(ctx, I3, cm)[0] == 0.0


def test_palm_toward_eye_blocks_sight_lines():
    # rotating the approach axis toward the receiver parks the palm slab
    # between eye and contacts
    grid, ctx = slab_ctx(grasp_rotation=rot_y(-90.0), body_proxy_dims=None)
    cm = ones_map(grid, NEAR)
    # the same slab grasped with the palm away from the eye hides nothing
    clear, _ = visibility(slab_ctx(body_proxy_dims=None)[1], I3, cm)
    blocked, _ = visibility(ctx, I3, cm)
    assert clear == 1.0
    assert blocked < clear


def test_robot_proxy_blocks_sight_lines():
    grid, ctx = slab_ctx()
    ctx = replace(ctx, robot_base=np.array([0.3, 0.0, 0.0]), body_proxy_dims=(0.5, 0.5, 1.55))
    cm = ones_map(grid, NEAR)
    assert visibility(replace(ctx, body_proxy_dims=None), I3, cm)[0] == 1.0
    assert visibility(ctx, I3, cm)[0] == 0.0


def test_empty_contact_map_rejected():
    grid, ctx = slab_ctx()
    weak = contact_map(grid, {NEAR[0]: 0.1})
    with pytest.raises(ValueError, match="empty contact map"):
        visibility(ctx, I3, weak)
    with pytest.raises(ValueError, match="empty contact map"):
        reachability(ctx, I3, weak)


# -------------------------------------------------------------- reachability

def test_near_face_reachable():
    grid, ctx = slab_ctx()
    assert reachability(ctx, I3, ones_map(grid, NEAR))[0] == 1.0


def test_far_face_shadowed_by_gripper():
    # far-face contacts sit farther from the body axis than the gripper does
    grid, ctx = slab_ctx()
    assert reachability(ctx, I3, ones_map(grid, FAR))[0] == 0.0


def test_mixed_faces_split_score():
    grid, ctx = slab_ctx()
    assert reachability(ctx, I3, ones_map(grid, NEAR + FAR))[0] == pytest.approx(0.5)


def test_out_of_reach_scene_scores_zero():
    grid, ctx = slab_ctx(origin=(1.95, -0.06, 1.14))
    assert reachability(ctx, I3, ones_map(grid, NEAR + FAR))[0] == 0.0


def test_reachability_flags_match_per_point_rule():
    grid, ctx = slab_ctx()
    cm = ones_map(grid, NEAR + FAR)
    score, flags = keyed(cm, reachability(ctx, I3, cm))
    human = ctx.human
    grip_pts = ctx.gripper_points(I3)
    grip_d = min(math.hypot(p[0] - human.base_position[0], p[1] - human.base_position[1])
                 for p in grip_pts)
    for idx in map(tuple, cm.contacts()[0].tolist()):
        world = ctx.ee_position + I3 @ (grid.center(idx) - ctx.held_point)
        d1 = float(np.linalg.norm(world - human.shoulder_point))
        d2 = math.hypot(world[0] - human.base_position[0], world[1] - human.base_position[1])
        assert flags[idx] == (d1 < human.arm_length and d2 < grip_d)
    assert score == pytest.approx(sum(flags.values()) / len(flags))


# ----------------------------------------------------------------- aggregate

def test_evaluate_maps_folds_lists_and_verdict():
    grid, ctx = slab_ctx()
    maps = [ones_map(grid, NEAR), ones_map(grid, FAR), ones_map(grid, NEAR + FAR)]
    scores = evaluate_maps(ctx, I3, maps)
    assert scores.visibility == [visibility(ctx, I3, m)[0] for m in maps]
    assert scores.reachability == [reachability(ctx, I3, m)[0] for m in maps]
    assert scores.visibility_median == lower_median(scores.visibility)
    assert scores.reachability_median == lower_median(scores.reachability)
    # reach medians land exactly on 0.5: strictness makes this a failure
    assert scores.reachability_median == 0.5
    assert scores.success is False


def test_evaluate_maps_repeatable():
    grid, ctx = slab_ctx()
    maps = [ones_map(grid, NEAR), ones_map(grid, NEAR + FAR)]
    a = evaluate_maps(ctx, I3, maps)
    b = evaluate_maps(ctx, I3, maps)
    assert a.visibility == b.visibility
    assert a.reachability == b.reachability
    assert a.success == b.success


def test_scores_bounded_on_slab_scene():
    grid, ctx = slab_ctx()
    for cm in (ones_map(grid, NEAR), ones_map(grid, FAR), ones_map(grid, NEAR + FAR)):
        for fn in (visibility, reachability):
            v, _ = fn(ctx, I3, cm)
            assert 0.0 <= v <= 1.0


# ------------------------------------------- per-voxel oracles, bundled scenes
#
# The per-voxel visibility and reachability as they were before the metrics
# were batched, kept verbatim (with the gripper's and the robot proxy's own
# slab tests inlined) so the array code can be held to them bit for bit.


def oracle_segment_hits_box(origin, target_dist, direction, lo, hi) -> bool:
    t0, t1 = 0.0, target_dist
    for a in range(3):
        d = direction[a]
        if d == 0.0:
            if origin[a] < lo[a] or origin[a] > hi[a]:
                return False
            continue
        ta = (lo[a] - origin[a]) / d
        tb = (hi[a] - origin[a]) / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return t0 < target_dist


def oracle_ray_blocked(gripper, rotation, translation, width, origin, direction, max_distance) -> bool:
    o = rotation.T @ (np.asarray(origin, dtype=float) - translation)
    d = rotation.T @ np.asarray(direction, dtype=float)
    for lo, hi in gripper.boxes(width):
        t0, t1 = 0.0, max_distance
        ok = True
        for a in range(3):
            if d[a] == 0.0:
                if o[a] < lo[a] or o[a] > hi[a]:
                    ok = False
                    break
                continue
            ta = (lo[a] - o[a]) / d[a]
            tb = (hi[a] - o[a]) / d[a]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_visibility(ctx, rotation, cm):
    grid = ctx.grid
    values = by_index(cm.keys, cm.values.tolist())
    contact = list(map(tuple, cm.contacts()[0].tolist()))
    denom = sum(values[i] for i in contact)
    vs = grid.voxel_size
    eye = ctx.human.eye_point
    grip_rot, grip_t = ctx.gripper_pose(rotation)
    proxy = None
    if ctx.body_proxy_dims is not None:
        fx, fy, h = ctx.body_proxy_dims
        base = ctx.robot_base
        proxy = (np.array([base[0] - fx / 2, base[1] - fy / 2, base[2]]),
                 np.array([base[0] + fx / 2, base[1] + fy / 2, base[2] + h]))
    normals = by_index(grid.surface, grid.normals)
    eye_grid = ctx.grid_frame_point(rotation, eye)
    numer = 0.0
    flags = {}
    for idx in contact:
        c_grid = grid.center(idx)
        world = ctx.ee_position + rotation @ (c_grid - ctx.held_point)
        normal = normals.get(idx)
        if normal is None:
            off = eye_grid - c_grid
            n = float(np.linalg.norm(off))
            normal = off / n if n > 0 else np.array([0.0, 0.0, 1.0])
        aim_grid = c_grid + 1.5 * vs * normal
        to_aim = aim_grid - eye_grid
        dist = float(np.linalg.norm(to_aim))
        visible = True
        if dist > 0:
            if bool(ctx.gripper.in_closing_region(grip_rot, grip_t, ctx.width, world)[0]):
                visible = False
            else:
                world_aim = ctx.ee_position + rotation @ (aim_grid - ctx.held_point)
                direction = (world_aim - eye) / dist
                if oracle_ray_blocked(ctx.gripper, grip_rot, grip_t, ctx.width, eye,
                                      direction, dist):
                    visible = False
            if visible and proxy is not None:
                world_aim = ctx.ee_position + rotation @ (aim_grid - ctx.held_point)
                direction = (world_aim - eye) / dist
                if oracle_segment_hits_box(eye, dist, direction, proxy[0], proxy[1]):
                    visible = False
            if visible:
                hit = oracle_ray_cast(grid, eye_grid, to_aim / dist, dist)
                visible = hit is None
        if visible:
            numer += values[idx]
        flags[idx] = visible
    return numer / denom, flags


def oracle_reachability(ctx, rotation, cm):
    grid = ctx.grid
    values = by_index(cm.keys, cm.values.tolist())
    contact = list(map(tuple, cm.contacts()[0].tolist()))
    denom = sum(values[i] for i in contact)
    human = ctx.human
    shoulder = human.shoulder_point
    base = human.base_position
    grip_pts = ctx.gripper_points(rotation)
    gripper_axis_dist = float(
        np.hypot(grip_pts[:, 0] - base[0], grip_pts[:, 1] - base[1]).min()
    )
    numer = 0.0
    flags = {}
    for idx in contact:
        world = ctx.ee_position + rotation @ (grid.center(idx) - ctx.held_point)
        d1 = float(np.linalg.norm(world - shoulder))
        d2 = float(np.hypot(world[0] - base[0], world[1] - base[1]))
        ok = d1 < human.arm_length and d2 < gripper_axis_dist
        if ok:
            numer += values[idx]
        flags[idx] = ok
    return numer / denom, flags


def delivered_context(scene, report, body_proxy_dims):
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
        body_proxy_dims=body_proxy_dims,
    )


def test_oracles_cover_every_branch_on_slab():
    # the slab fixture exercises the closing region, a palm blocking sight
    # lines and the robot proxy, and interior voxels have no surface normal;
    # the batched code must agree on each
    for kwargs, robot in (({}, None), ({"held_idx": (2, 5, 5)}, None),
                          ({"grasp_rotation": rot_y(-90.0)}, None),
                          ({}, ((0.3, 0.0, 0.0), (0.5, 0.5, 1.55)))):
        grid, ctx = slab_ctx(**kwargs)
        if robot is not None:
            ctx = replace(ctx, robot_base=np.array(robot[0]), body_proxy_dims=robot[1])
        interior = {(3, 5, 5): 0.6, (3, 7, 4): 0.8}
        cm = contact_map(grid, {**{i: 0.9 for i in NEAR}, **{i: 0.6 for i in FAR}, **interior})
        assert not set(interior) & set(by_index(grid.surface, grid.normals))
        for c in (ctx, replace(ctx, body_proxy_dims=None)):
            assert keyed(cm, visibility(c, I3, cm)) == oracle_visibility(c, I3, cm)
        assert keyed(cm, reachability(ctx, I3, cm)) == oracle_reachability(ctx, I3, cm)


@pytest.mark.parametrize("mode", ["FULL", "A4"])
def test_batched_metrics_match_per_voxel_oracles(scenes, mode):
    """Equal flags and bitwise-equal scores on every bundled scene, seeds 0-1,
    all three maps, at the pose the pipeline delivers; the robot proxy is
    also dropped once per scene."""
    for name, scene in scenes.items():
        for seed in (0, 1):
            report = run_pipeline(scene, mode, seed=seed)
            assert report.failure is None, (name, seed, report.failure)
            rotation = np.array(report.delivery["object_rotation"])
            ctx = delivered_context(scene, report, scene.body_proxy_dims)
            for cm in scene.contact_maps:
                assert keyed(cm, visibility(ctx, rotation, cm)) == \
                    oracle_visibility(ctx, rotation, cm), (name, seed)
                assert keyed(cm, reachability(ctx, rotation, cm)) == \
                    oracle_reachability(ctx, rotation, cm), (name, seed)
            if seed == 0:
                bare = delivered_context(scene, report, None)
                cm = scene.contact_maps[0]
                assert keyed(cm, visibility(bare, rotation, cm)) == \
                    oracle_visibility(bare, rotation, cm), name


def test_evaluate_maps_carries_the_flags():
    grid, ctx = slab_ctx()
    maps = [ones_map(grid, NEAR), ones_map(grid, FAR)]
    scores = evaluate_maps(ctx, I3, maps)
    assert [f.tolist() for f in scores.visibility_flags] == [visibility(ctx, I3, m)[1].tolist() for m in maps]
    assert [f.tolist() for f in scores.reachability_flags] == [reachability(ctx, I3, m)[1].tolist() for m in maps]


def assert_evaluate_maps_equals_per_map_calls(ctx, rotation, maps):
    scores = evaluate_maps(ctx, rotation, maps)
    per_map = zip(maps, scores.visibility, scores.visibility_flags, scores.reachability,
                  scores.reachability_flags, strict=True)
    for cm, vis, vis_flags, reach, reach_flags in per_map:
        score, flags = visibility(ctx, rotation, cm)
        assert vis == score and np.array_equal(vis_flags, flags)
        score, flags = reachability(ctx, rotation, cm)
        assert reach == score and np.array_equal(reach_flags, flags)


def test_evaluate_maps_equals_per_map_calls_on_every_bundled_delivery(scenes):
    """The one walk over the union of the maps' contacts gives each map the
    score and flags of its own visibility and reachability calls: bundled
    scenes, seeds 0-1, the top grasp of either lam delivered each way."""
    for scene in scenes.values():
        for seed in (0, 1):
            shared = SharedStages(scene)
            tops = {id(top): top for lam in (scene.params.lam, 1.0)
                    for top in [shared.ranking(seed, lam)[0].candidate]}
            for top in tops.values():
                for kind in ("planned", "random", "tucked"):
                    ctx, rotation = shared.delivery(seed, top, kind)[:2]
                    assert_evaluate_maps_equals_per_map_calls(ctx, rotation, scene.contact_maps)


def test_evaluate_maps_equals_per_map_calls_on_synthetic_maps():
    grid, ctx = slab_ctx()
    near = {i: 0.5 + 0.05 * k for k, i in enumerate(NEAR)}
    far = {i: 0.9 for i in FAR}
    interior = {(3, 5, 5): 0.6, (3, 7, 4): 0.8}  # off the surface: sight lines aim along _toward
    below = {(2, 3, 3): 0.3, (4, 3, 3): 0.2}  # keys, but not contacts
    cases = {
        "disjoint": [contact_map(grid, near), contact_map(grid, {**far, **below})],
        "overlapping": [contact_map(grid, {**near, **far}), contact_map(grid, dict(list(far.items())[::2])),
                        contact_map(grid, {**far, NEAR[0]: 0.7, **below})],
        "off the surface": [contact_map(grid, {**near, **interior}), contact_map(grid, interior),
                            contact_map(grid, {**far, (3, 5, 5): 1.0})],
    }
    for rotation in (I3, rot_y(30)):
        for maps in cases.values():
            assert_evaluate_maps_equals_per_map_calls(ctx, rotation, maps)
    with pytest.raises(ValueError, match="empty contact map"):
        evaluate_maps(ctx, I3, [contact_map(grid, near), contact_map(grid, below)])


def test_ray_cast_matches_the_scalar_walk_on_every_bundled_sight_line(scenes, monkeypatch):
    """Every sight line of the bundled scenes, seeds 0-4, all five modes:
    the lockstep walk blocks exactly the sight lines the scalar walk does.
    Each run makes its own SharedStages, so no mode reuses another's scores,
    and each scored delivery walks its maps' contacts in one ray_cast call."""
    calls = []

    def recorded(grid, origins, dirs, t_max):
        blocked = ray_cast(grid, origins, dirs, t_max)
        calls.append((grid, origins, dirs, t_max, blocked))
        return blocked

    monkeypatch.setattr(metrics, "ray_cast", recorded)
    scored = 0
    for scene in scenes.values():
        for seed in range(5):
            for mode in AblationMode:
                if run_pipeline(scene, mode, seed).metrics is not None:
                    scored += 1
    assert len(calls) == scored >= 100
    lines = 0
    for grid, eye, dirs, t_max, blocked in calls:
        scalar = [oracle_ray_cast(grid, eye, d, t) is not None for d, t in zip(dirs, t_max)]
        assert blocked.tolist() == scalar
        lines += len(scalar)
    assert lines > 10000
