"""Orientation sampling, delivery feasibility, and final-pose selection."""
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from handover.contacts import ContactCluster
from handover.delivery import (
    BODY_CAPSULE_RADIUS,
    BOUND_MARGIN,
    DEDUP_TOL,
    MIN_OBJECT_HEIGHT,
    DeliveryContext,
    _direction_frame,
    _rot_x,
    exposure_objective,
    feasibility_reason,
    feasible,
    plan_handover_orientation,
    rotation_angle_deg,
    sample_orientations,
)
from handover.ergonomics import HumanModel
from handover.grasping import GripperModel
from handover.harness import SharedStages, _delivery_record

from conftest import box_grid, oracle_feasibility_reason, pipeline_context


def rot_y(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ------------------------------------------------------------------ sampling

def brute_force_rotations(step):
    """Independent dedup of the (azimuth, elevation, roll) grid."""
    def frame(az, el):
        az, el = math.radians(az), math.radians(el)
        d = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
        v = np.array([-math.sin(az), math.cos(az), 0.0])
        u = np.cross(d, v)
        return np.column_stack([d, v, u])

    seen = {}
    n = int(360 // step)
    for az in [k * step for k in range(n)]:
        for el in [k * step for k in range(-int(90 // step), int(90 // step) + 1)]:
            for roll in [k * step for k in range(n)]:
                c, s = math.cos(math.radians(roll)), math.sin(math.radians(roll))
                rx = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
                m = frame(az, el) @ rx
                seen.setdefault(tuple(np.round(m, 9).ravel()), m)
    return list(seen.values())


def test_default_grid_has_208_unique_rotations():
    rots = sample_orientations(45.0)
    assert len(rots) == 208
    assert len(brute_force_rotations(45.0)) == 208


def test_pole_directions_account_for_16_rotations():
    # 8 az x 3 non-pole el x 8 roll = 192 distinct; each pole collapses to 8
    rots = sample_orientations(45.0)
    poles = [r for r in rots if abs(abs(r[2, 0]) - 1.0) < 1e-9]
    assert len(poles) == 16
    assert len(rots) - len(poles) == 192


def test_identity_always_sampled():
    for step in (45.0, 90.0):
        rots = sample_orientations(step)
        assert any(np.abs(r - np.eye(3)).max() <= 1e-12 for r in rots)


def test_rotations_orthonormal_and_distinct():
    rots = sample_orientations(45.0)
    for r in rots:
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    for i in range(len(rots)):
        for j in range(i + 1, len(rots)):
            assert np.abs(rots[i] - rots[j]).max() > 1e-9


def test_coarser_grid_is_strictly_smaller():
    assert len(sample_orientations(90.0)) < len(sample_orientations(45.0))
    assert len(sample_orientations(90.0)) == len(brute_force_rotations(90.0))


def list_dedup_rotations(step):
    """The pairwise list scan sample_orientations used before it compared
    each rotation against the kept stack in one expression."""
    azimuths = [k * step for k in range(int(360.0 // step))]
    n_el = int(math.floor(90.0 / step + 1e-9))
    mats = []
    for az in azimuths:
        for el in [k * step for k in range(-n_el, n_el + 1)]:
            for roll in azimuths:
                r = _direction_frame(az, el) @ _rot_x(roll)
                if not any(np.abs(r - m).max() <= DEDUP_TOL for m in mats):
                    mats.append(r)
    return mats


@pytest.mark.parametrize("step", [45.0, 30.0, 90.0])
def test_stack_dedup_is_bitwise_the_list_scan(step):
    got = sample_orientations(step)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in list_dedup_rotations(step)]
    assert not any(r.flags.writeable for r in got)


def test_step_must_divide_360():
    with pytest.raises(ValueError, match="divide 360"):
        sample_orientations(50.0)
    with pytest.raises(ValueError):
        sample_orientations(0.0)


def test_rotation_angle_examples():
    assert rotation_angle_deg(np.eye(3)) == pytest.approx(0.0)
    assert rotation_angle_deg(rot_y(90.0)) == pytest.approx(90.0)
    assert rotation_angle_deg(rot_z(180.0)) == pytest.approx(180.0)


# --------------------------------------------------------------- feasibility

def make_ctx(ee, grasp_rotation=None, width=0.03, dims=(3, 3, 3), lo=(1, 1, 1), hi=(1, 1, 1),
             held=None):
    """Single-voxel (by default) object held at the center of voxel `held`
    (default `lo`), receiver at the origin facing +x, robot base 1.2 m in
    front."""
    grid = box_grid(dims, lo, hi, voxel_size=0.01)
    held = grid.centers(np.array([lo if held is None else held], dtype=float))[0]
    return DeliveryContext(
        grid=grid,
        gripper=GripperModel(),
        grasp_rotation=np.eye(3) if grasp_rotation is None else grasp_rotation,
        held_point=held,
        width=width,
        ee_position=np.asarray(ee, dtype=float),
        human=HumanModel(),
        robot_base=np.array([1.2, 0.0, 0.0]),
    )


def test_feasible_pose_has_no_reason():
    ctx = make_ctx([0.6, 0.0, 1.0])
    assert feasibility_reason(ctx, np.eye(3)) is None
    assert feasible(ctx, np.eye(3))


def test_low_object_rejected():
    ctx = make_ctx([0.6, 0.0, 0.35])
    assert feasibility_reason(ctx, np.eye(3)) == "object below clearance height"


def test_object_inside_body_capsule_rejected():
    ctx = make_ctx([0.05, 0.0, 1.0])
    assert feasibility_reason(ctx, np.eye(3)) == "object penetrates receiver"


def test_gripper_sweep_into_body_rejected():
    # at full width the fingers span +-0.065 m along world x after a 90 degree
    # yaw; the object voxel itself stays 0.26 m out, beyond the 0.20 m capsule
    ctx = make_ctx([0.26, 0.0, 1.0], grasp_rotation=rot_z(90.0), width=0.10)
    assert feasibility_reason(ctx, np.eye(3)) == "gripper penetrates receiver"


def test_backward_approach_rejected():
    # approach axis -R[:,2] = +x points from receiver toward robot: 180 deg
    ctx = make_ctx([0.6, 0.0, 1.0], grasp_rotation=rot_y(-90.0))
    assert feasibility_reason(ctx, np.eye(3)) == "approach axis outside delivery cone"


def test_cone_boundary_inclusive():
    # approach straight down sits at exactly 90 degrees from the horizontal
    # robot-to-human direction, inside the 120 degree cone
    ctx = make_ctx([0.6, 0.0, 1.0])
    assert np.allclose(ctx.approach_axis(np.eye(3)), [0.0, 0.0, -1.0])
    assert feasible(ctx, np.eye(3))


def test_capsule_radius_strict():
    ctx = make_ctx([0.2000001, 0.0, 1.0])
    assert feasibility_reason(ctx, np.eye(3)) != "object penetrates receiver"


def test_coincident_bases_rejected():
    ctx = make_ctx([0.6, 0.0, 1.0])
    ctx = replace(ctx, robot_base=ctx.human.base_position.copy())
    with pytest.raises(ValueError, match="coincide"):
        feasibility_reason(ctx, np.eye(3))


def test_context_is_frozen():
    ctx = make_ctx([0.6, 0.0, 1.0])
    ctx.object_offsets, ctx.always_clear  # fill the caches a reassignment would leave stale
    with pytest.raises(FrozenInstanceError):
        ctx.held_point = np.zeros(3)
    moved = replace(ctx, ee_position=np.array([0.6, 0.0, 0.35]))
    assert feasibility_reason(moved, np.eye(3)) == "object below clearance height"


def test_context_owns_read_only_copies_of_its_arrays(scenes):
    """The hammer's FULL context at seed 0 shares no memory with the arm plan
    every mode reads or with the top candidate, and refuses in-place writes."""
    scene = scenes["hammer"]
    shared = SharedStages(scene, 0)
    top = shared.ranking(scene.params.lam)[0].candidate
    base = scene.robot_base
    ctx = replace(pipeline_context(scene, shared, scene.params.lam), robot_base=base)
    ee = shared.position()[0]
    plan_z = float(ee[2])
    for name, source in (("ee_position", ee), ("held_point", top.translation),
                         ("grasp_rotation", top.rotation), ("robot_base", base)):
        value = getattr(ctx, name)
        assert not np.shares_memory(value, source), name
        with pytest.raises(ValueError, match="read-only"):
            value[2] -= 1.0
    assert float(shared.position()[0][2]) == plan_z


@pytest.mark.parametrize("step", [45.0, 30.0])
def test_feasibility_matches_scalar_oracle_on_bundled_contexts(bundled_stages, step):
    """The FULL and A1 contexts of every bundled scene at seeds 0-4: the same
    reason as the unbounded scalar check for every sampled rotation."""
    rotations = sample_orientations(step)
    for (name, seed), (scene, shared, _, _) in bundled_stages.items():
        for lam in (scene.params.lam, 1.0):
            ctx = pipeline_context(scene, shared, lam)
            got = [feasibility_reason(ctx, r) for r in rotations]
            assert got == [oracle_feasibility_reason(ctx, r) for r in rotations], (name, seed, lam)


def basis_to(a, b) -> np.ndarray:
    """A rotation taking the unit vector a to the unit vector b."""
    def frame(u):
        helper = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        v = np.cross(u, helper)
        v /= np.linalg.norm(v)
        return np.column_stack([u, v, np.cross(u, v)])
    return frame(b) @ frame(a).T


def bound_contexts(slack):
    """For each per-point check, a context whose bound lies `slack` above
    that check's limit and whose longest offset meets the limit at the
    identity rotation: (check index, its reason, context)."""
    rod = 0.14  # a 15-voxel rod held at one end voxel
    down = make_ctx([0.8, 0.0, MIN_OBJECT_HEIGHT + rod + slack],
                    dims=(3, 3, 17), lo=(1, 1, 1), hi=(1, 1, 15), held=(1, 1, 15))
    toward = make_ctx([BODY_CAPSULE_RADIUS + rod + slack, 0.0, 1.0],
                      dims=(17, 3, 3), lo=(1, 1, 1), hi=(15, 1, 1), held=(15, 1, 1))
    local = GripperModel().surface_points(0.03, 0.01)
    far = local[np.argmax(np.linalg.norm(local, axis=1))]
    r_grip = float(np.linalg.norm(far))
    grip = make_ctx([BODY_CAPSULE_RADIUS + r_grip + slack, 0.0, 1.0],
                    grasp_rotation=basis_to(far / r_grip, np.array([-1.0, 0.0, 0.0])))
    for ctx in (down, toward):
        assert np.linalg.norm(ctx.object_offsets, axis=1).max() == pytest.approx(rod, abs=1e-15)
    return [(0, "object below clearance height", down),
            (1, "object penetrates receiver", toward),
            (2, "gripper penetrates receiver", grip)]


@pytest.mark.parametrize("margins", [-2.0, -0.5, 0.5, 1.5, 2.0])
def test_bound_edges_skip_or_fall_back_like_the_oracle(margins, monkeypatch):
    """Each bound within 2 margins of its limit: a check is skipped only when
    its bound clears by BOUND_MARGIN, a check that runs rejects exactly when
    a point crosses the limit, and every reason equals the oracle's."""
    rotations = sample_orientations(45.0) + sample_orientations(30.0)
    skipped = margins > 1.0
    runs = {"object_points": 0, "gripper_points": 0}
    for method in ("object_points", "gripper_points"):
        def counting(self, rotation, method=method, real=getattr(DeliveryContext, method)):
            runs[method] += 1
            return real(self, rotation)

        monkeypatch.setattr(DeliveryContext, method, counting)
    reasons = set()
    for check, reason, ctx in bound_contexts(margins * BOUND_MARGIN):
        assert ctx.always_clear == tuple(i != check or skipped for i in range(3))
        assert (feasibility_reason(ctx, np.eye(3)) == reason) is (margins < 0)
        expect = [oracle_feasibility_reason(ctx, r) for r in rotations]
        runs.update(object_points=0, gripper_points=0)
        got = [feasibility_reason(ctx, r) for r in rotations]
        assert got == expect, check
        # the points of a check are built once per rotation, and only if it runs
        ran = 0 if skipped else len(rotations)
        assert runs == {"object_points": ran if check < 2 else 0,
                        "gripper_points": ran if check == 2 else 0}
        reasons.update(got)
    assert "approach axis outside delivery cone" in reasons and None in reasons
    if margins < 0:
        assert {"object below clearance height", "object penetrates receiver",
                "gripper penetrates receiver"} <= reasons


# ------------------------------------------------------------- pose planning

def rod_setup(ee=(0.55, 0.0, 1.0)):
    """12-voxel rod along x, held at the low end, contacts at the high end."""
    grid = box_grid((20, 7, 7), (2, 3, 3), (13, 3, 3), voxel_size=0.01)
    held = grid.centers(np.array([[2, 3, 3]], dtype=float))[0]
    members = [(x, 3, 3) for x in (11, 12, 13)]
    cluster = ContactCluster(members)
    ctx = DeliveryContext(
        grid=grid,
        gripper=GripperModel(),
        grasp_rotation=np.eye(3),
        held_point=held,
        width=0.03,
        ee_position=np.asarray(ee, dtype=float),
        human=HumanModel(),
        robot_base=np.array([1.2, 0.0, 0.0]),
    )
    return ctx, cluster


def test_planner_minimizes_over_feasible_set():
    ctx, cluster = rod_setup()
    pose = plan_handover_orientation(ctx, cluster)
    assert feasible(ctx, pose.object_rotation)
    objs = []
    for rot in sample_orientations(45.0):
        if feasibility_reason(ctx, rot) is None:
            rel = ctx.grid.centers(np.asarray(cluster.member_indices, dtype=float)) - ctx.held_point
            pts = ctx.ee_position + rel @ rot.T
            objs.append(float(np.linalg.norm(pts - ctx.human.eye_point, axis=1).sum()))
    assert pose.objective == pytest.approx(min(objs), abs=1e-12)


def test_planner_swings_contacts_toward_eye():
    ctx, cluster = rod_setup()
    pose = plan_handover_orientation(ctx, cluster)
    identity_obj = exposure_objective(ctx, np.eye(3), cluster)
    assert pose.objective < identity_obj - 1e-6


def test_planner_tie_break_restated():
    ctx, cluster = rod_setup()
    pose = plan_handover_orientation(ctx, cluster)
    rotations = sample_orientations(45.0)
    best = None
    pick = None
    for k, rot in enumerate(rotations):
        if feasibility_reason(ctx, rot) is not None:
            continue
        obj = exposure_objective(ctx, rot, cluster)
        key = (round(obj / 1e-9), rotation_angle_deg(rot), k)
        if best is None or key < best:
            best, pick = key, rot
    assert np.allclose(pose.object_rotation, pick, atol=0.0)


def test_contact_at_held_point_keeps_identity():
    # every rotation leaves a held-point contact fixed, so all objectives tie
    # and the identity wins on geodesic angle
    ctx = make_ctx([0.6, 0.0, 1.0])
    cluster = ContactCluster([(1, 1, 1)])
    pose = plan_handover_orientation(ctx, cluster)
    assert np.array_equal(pose.object_rotation, np.eye(3))
    assert pose.objective == pytest.approx(float(np.linalg.norm(ctx.ee_position - ctx.human.eye_point)))


def test_planner_translation_equivariant():
    shift = np.array([0.7, -0.4, 0.15])
    ctx0, cluster0 = rod_setup()
    grid1 = box_grid((20, 7, 7), (2, 3, 3), (13, 3, 3), voxel_size=0.01,
                     origin=tuple(shift))
    members = [(x, 3, 3) for x in (11, 12, 13)]
    cluster1 = ContactCluster(members)
    ctx1 = DeliveryContext(
        grid=grid1,
        gripper=GripperModel(),
        grasp_rotation=np.eye(3),
        held_point=ctx0.held_point + shift,
        width=0.03,
        ee_position=ctx0.ee_position + shift,
        human=HumanModel(base_position=tuple(shift)),
        robot_base=np.array([1.2, 0.0, 0.0]) + shift,
    )
    p0 = plan_handover_orientation(ctx0, cluster0)
    p1 = plan_handover_orientation(ctx1, cluster1)
    assert np.allclose(p0.object_rotation, p1.object_rotation, atol=0.0)
    assert p0.objective == pytest.approx(p1.objective, rel=1e-12)


def test_candidate_trace_covers_whole_sample_set():
    ctx, cluster = rod_setup()
    pose = plan_handover_orientation(ctx, cluster)
    assert len(pose.candidates) == 208
    for cand in pose.candidates:
        if cand.feasible:
            assert cand.objective is not None and cand.reason is None
        else:
            assert cand.objective is None and isinstance(cand.reason, str)


def test_empty_cluster_rejected():
    ctx, _ = rod_setup()
    with pytest.raises(ValueError, match="empty contact map"):
        plan_handover_orientation(ctx, ContactCluster([]))


def test_all_rotations_infeasible_raises():
    ctx, cluster = rod_setup(ee=(0.55, 0.0, 0.1))  # everything below clearance
    with pytest.raises(ValueError, match="no feasible handover orientation"):
        plan_handover_orientation(ctx, cluster)


# ----------------------------------------------------------------- pose math

def test_object_pose_maps_held_point_to_ee():
    ctx, cluster = rod_setup()
    pose = plan_handover_orientation(ctx, cluster)
    rec = _delivery_record(ctx, pose.object_rotation, pose.objective)
    object_pose = np.array(rec["object_pose"])
    world = object_pose @ np.append(ctx.held_point, 1.0)
    assert np.allclose(world[:3], ctx.ee_position, atol=1e-12)
    # a generic grid point lands at ee + R (p - held)
    p = ctx.grid.centers(np.array([[12, 3, 3]], dtype=float))[0]
    world = object_pose @ np.append(p, 1.0)
    expect = ctx.ee_position + pose.object_rotation @ (p - ctx.held_point)
    assert np.allclose(world[:3], expect, atol=1e-12)
    # the gripper turns with the object about the held point
    gripper_pose = np.array(rec["gripper_pose"])
    assert np.array_equal(gripper_pose[:3, :3], pose.object_rotation @ ctx.grasp_rotation)
    assert np.array_equal(gripper_pose[:3, 3], ctx.ee_position)
    assert np.array_equal(gripper_pose[3], [0.0, 0.0, 0.0, 1.0])
