"""Orientation sampling, delivery feasibility, and final-pose selection."""
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from handover import delivery
from handover.contacts import ContactCluster, cluster_contacts, largest_cluster, predict_contacts_heuristic
from handover.delivery import (
    APPROACH_CONE_DEG,
    BODY_CAPSULE_RADIUS,
    BOUND_MARGIN,
    MIN_OBJECT_HEIGHT,
    OBJECTIVE_TIE_TOL,
    DeliveryContext,
    exposure_objective,
    feasibility_reason,
    feasible,
    plan_handover_orientation,
    rotation_angle_deg,
    sample_orientations,
)
from handover.ergonomics import HumanModel
from handover.grasping import GripperModel
from handover.harness import PipelineParams, SharedStages, _delivery_record

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


DEDUP_TOL = 1e-9


def _rot_x(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _direction_frame(az_deg: float, el_deg: float) -> np.ndarray:
    """Rotation taking +x to the (azimuth, elevation) direction, +y to the
    azimuth tangent and +z to the elevation tangent. Identity at (0, 0)."""
    az, el = math.radians(az_deg), math.radians(el_deg)
    ca, sa, ce, se = math.cos(az), math.sin(az), math.cos(el), math.sin(el)
    d = np.array([ce * ca, ce * sa, se])
    v = np.array([-sa, ca, 0.0])
    u = np.array([-se * ca, -se * sa, ce])
    return np.column_stack([d, v, u])


def _grid_nodes(step):
    """(azimuth, elevation, roll) in enumeration order."""
    azimuths = [k * step for k in range(int(360.0 // step))]
    n_el = int(math.floor(90.0 / step + 1e-9))
    elevations = [k * step for k in range(-n_el, n_el + 1)]
    return [(az, el, roll) for az in azimuths for el in elevations for roll in azimuths]


def stack_dedup_rotations(step):
    """The per-node build sample_orientations used before it built the grid
    in closed form: each rotation is compared against the kept stack and
    dropped when within DEDUP_TOL of one, which merges the pole azimuths."""
    nodes = _grid_nodes(step)
    kept = np.empty((len(nodes), 3, 3))
    n = 0
    for az, el, roll in nodes:
        r = _direction_frame(az, el) @ _rot_x(roll)
        if not (np.abs(kept[:n] - r).max(axis=(1, 2)) <= DEDUP_TOL).any():
            kept[n] = r
            n += 1
    return list(kept[:n])


def list_dedup_rotations(step):
    """The pairwise list scan the stack dedup replaced."""
    mats = []
    for az, el, roll in _grid_nodes(step):
        r = _direction_frame(az, el) @ _rot_x(roll)
        if not any(np.abs(r - m).max() <= DEDUP_TOL for m in mats):
            mats.append(r)
    return mats


# every step the orientation_step rule accepts: the 360 / m >= 15 that divide 360
ACCEPTED_STEPS = [360.0 / m for m in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24)]


def test_accepted_steps_are_every_step_the_rule_takes():
    taken = []
    for m in range(1, 25):
        try:
            taken.append(PipelineParams(orientation_step=360.0 / m).orientation_step)
        except ValueError:
            pass
    assert taken == ACCEPTED_STEPS


@pytest.mark.parametrize("step", ACCEPTED_STEPS)
def test_closed_form_grid_is_bitwise_the_stack_dedup(step):
    got = sample_orientations(step)
    assert got.shape == (len(got), 3, 3) and not got.flags.writeable
    assert [r.tobytes() for r in got] == [r.tobytes() for r in stack_dedup_rotations(step)]
    assert not any(r.flags.writeable for r in got)


@pytest.mark.parametrize("step", [45.0, 30.0, 90.0])
def test_stack_dedup_is_bitwise_the_list_scan(step):
    got = stack_dedup_rotations(step)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in list_dedup_rotations(step)]
    assert [r.tobytes() for r in sample_orientations(step)] == [r.tobytes() for r in got]


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
    ctx.gripper_offsets, ctx.near_offsets  # fill the caches a reassignment would leave stale
    with pytest.raises(FrozenInstanceError):
        ctx.held_point = np.zeros(3)
    moved = replace(ctx, ee_position=np.array([0.6, 0.0, 0.35]))
    assert feasibility_reason(moved, np.eye(3)) == "object below clearance height"


def test_context_owns_read_only_copies_of_its_arrays(scenes):
    """The hammer's FULL context at seed 0 shares no memory with the arm plan
    every mode reads or with the top candidate, and refuses in-place writes."""
    scene = scenes["hammer"]
    shared = SharedStages(scene)
    top = shared.ranking(0, scene.params.lam)[0].candidate
    base = scene.robot_base
    ctx = replace(pipeline_context(scene, shared, 0, scene.params.lam), robot_base=base)
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
    for (name, seed), (scene, shared, *_) in bundled_stages.items():
        for lam in (scene.params.lam, 1.0):
            ctx = pipeline_context(scene, shared, seed, lam)
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
        offsets = ctx.grid.occupied_centers - ctx.held_point
        assert np.linalg.norm(offsets, axis=1).max() == pytest.approx(rod, abs=1e-15)
    return [(0, "object below clearance height", down),
            (1, "object penetrates receiver", toward),
            (2, "gripper penetrates receiver", grip)]


def count_capsule_rows(monkeypatch) -> list:
    """Wrap delivery._capsule_d2; each call appends the number of points it
    was given."""
    rows, real = [], delivery._capsule_d2
    monkeypatch.setattr(delivery, "_capsule_d2", lambda points, *rest: rows.append(len(points)) or real(points, *rest))
    return rows


@pytest.mark.parametrize("margins", [-2.0, -0.5, 0.5, 1.5, 2.0])
def test_bound_edges_skip_or_fall_back_like_the_oracle(margins, monkeypatch):
    """Each bound within 2 margins of its limit: a check's kept offsets are
    empty exactly when its bound clears by BOUND_MARGIN, a check that keeps
    some rejects exactly when a point crosses the limit, and every reason
    equals the oracle's."""
    rotations = np.concatenate([sample_orientations(45.0), sample_orientations(30.0)])
    skipped = margins > 1.0
    rows = count_capsule_rows(monkeypatch)
    reasons = set()
    for check, reason, ctx in bound_contexts(margins * BOUND_MARGIN):
        assert [len(o) == 0 for o in ctx.near_offsets] == [i != check or skipped for i in range(3)]
        assert (feasibility_reason(ctx, np.eye(3)) == reason) is (margins < 0)
        expect = [oracle_feasibility_reason(ctx, r) for r in rotations]
        rows.clear()
        got = [feasibility_reason(ctx, r) for r in rotations]
        assert got == expect, check
        # a capsule check tests its kept offsets once per rotation, and none if it keeps none
        assert sum(rows) == (0 if check == 0 else len(rotations) * len(ctx.near_offsets[check])), check
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


def oracle_plan_handover_orientation(ctx, cluster, step):
    """The exhaustive search the bound-ordered one replaced, kept as its
    bitwise oracle: every feasible rotation scored in sample order.
    (rotation, objective, [(feasible, objective, reason) per rotation])."""
    trace, best = [], None
    for k, rot in enumerate(sample_orientations(step)):
        reason = feasibility_reason(ctx, rot)
        obj = None if reason is not None else exposure_objective(ctx, rot, cluster)
        trace.append((reason is None, obj, reason))
        if obj is not None:
            key = (round(obj / OBJECTIVE_TIE_TOL), rotation_angle_deg(rot), k)
            if best is None or key < best[0]:
                best = (key, rot, obj)
    return best[1], best[2], trace


def assert_search_equals_the_oracle(pose, ctx, cluster, step, label):
    rotation, objective, trace = oracle_plan_handover_orientation(ctx, cluster, step)
    assert pose.object_rotation.tobytes() == rotation.tobytes(), label
    assert pose.objective == objective, label
    assert [(c.feasible, c.objective, c.reason) for c in pose.candidates] == trace, label


def count_scores(monkeypatch) -> list:
    """Wrap delivery._exposure so that every exposure objective computed
    from here on, by the search, a candidate or the oracle, appends one
    entry to the returned list."""
    scored, real = [], delivery._exposure

    def counting(ctx, cluster):
        score = real(ctx, cluster)
        return lambda rotation: scored.append(1) or score(rotation)

    monkeypatch.setattr(delivery, "_exposure", counting)
    return scored


@pytest.mark.parametrize("step", [45.0, 30.0])
def test_bound_ordered_search_equals_the_exhaustive_oracle(bundled_stages, step, monkeypatch):
    """The FULL contexts of every bundled scene at seeds 0-4, planned on the
    map-0 cluster and on the heuristic map's: the same rotation, objective
    and trace, bit for bit. Before any candidate objective is read, the
    search has scored under 5% of the feasible rotations at 30 degrees."""
    scored = count_scores(monkeypatch)
    heuristic = {}
    searched = feasible_total = 0
    for (name, seed), (scene, shared, *_) in bundled_stages.items():
        p = scene.params
        if name not in heuristic:
            heuristic[name] = largest_cluster(cluster_contacts(predict_contacts_heuristic(scene.grid),
                                                              p.eps, p.min_pts))
        ctx = pipeline_context(scene, shared, seed, p.lam)
        map0 = largest_cluster(cluster_contacts(scene.contact_maps[0], p.eps, p.min_pts))
        for kind, cluster in (("map-0", map0), ("heuristic", heuristic[name])):
            scored.clear()
            pose = plan_handover_orientation(ctx, cluster, step)
            searched += len(scored)
            feasible_total += sum(c.feasible for c in pose.candidates)
            assert_search_equals_the_oracle(pose, ctx, cluster, step, (name, seed, kind))
    if step == 30.0:
        assert 0 < searched < 0.05 * feasible_total, (searched, feasible_total)


def test_rotations_tied_within_the_tolerance_go_to_the_smallest_angle():
    """A contact 2 cm below the held point and the eye 0.6 m along -y: every
    rotation taking +z to +y points the contact straight at the eye, so
    their objectives agree to rounding. The smallest angle wins, though a
    tied rotation comes earlier in sample order."""
    eye = HumanModel().eye_point
    ctx = make_ctx(eye + [0.0, 0.6, 0.0], dims=(3, 3, 5), lo=(1, 1, 1), hi=(1, 1, 3), held=(1, 1, 3))
    cluster = ContactCluster([(1, 1, 1)])
    pose = plan_handover_orientation(ctx, cluster)
    assert_search_equals_the_oracle(pose, ctx, cluster, 45.0, "tie")
    rotations = [c.rotation for c in pose.candidates]
    tied = [k for k, c in enumerate(pose.candidates)
            if c.feasible and abs(c.objective - pose.objective) <= OBJECTIVE_TIE_TOL]
    assert len(tied) >= 3 and all(np.allclose(rotations[k][:, 2], [0.0, 1.0, 0.0]) for k in tied)
    winner = min(tied, key=lambda k: rotation_angle_deg(rotations[k]))
    assert winner != tied[0] and rotations[winner] is pose.object_rotation
    assert pose.objective == pytest.approx(0.58, abs=1e-12)


def test_offsets_that_cancel_leave_every_feasible_rotation_scored(monkeypatch):
    """Contacts at both ends of a rod held at its middle: the offsets sum to
    zero, so every bound is m |ee - eye| and none clears the best objective.
    The search scores each feasible rotation once and picks the identity,
    which lines the rod up with the sight line."""
    eye = HumanModel().eye_point
    ctx = make_ctx(eye + [0.6, 0.0, 0.0], dims=(7, 3, 3), lo=(1, 1, 1), hi=(5, 1, 1), held=(3, 1, 1))
    cluster = ContactCluster([(1, 1, 1), (5, 1, 1)])
    scored = count_scores(monkeypatch)
    pose = plan_handover_orientation(ctx, cluster)
    assert len(scored) == sum(c.feasible for c in pose.candidates) > 1
    assert_search_equals_the_oracle(pose, ctx, cluster, 45.0, "cancel")
    scored.clear()
    assert [c.objective for c in pose.candidates] and not scored  # each objective is computed once
    assert np.array_equal(pose.object_rotation, np.eye(3))


def test_candidates_hold_the_scores_the_search_took(monkeypatch):
    """Reading pose.candidates scores nothing the search scored: those
    objectives are filled in, and each other feasible one is computed once,
    when first read."""
    eye = HumanModel().eye_point
    ctx = make_ctx(eye + [0.0, 0.6, 0.0], dims=(3, 3, 5), lo=(1, 1, 1), hi=(1, 1, 3), held=(1, 1, 3))
    scored = count_scores(monkeypatch)
    pose = plan_handover_orientation(ctx, ContactCluster([(1, 1, 1)]))
    searched = len(scored)
    assert searched == len(pose.scored)
    assert [pose.candidates[k].objective for k in pose.scored] == list(pose.scored.values())
    assert len(scored) == searched
    feasible = [c for c in pose.candidates if c.feasible]
    first = [c.objective for c in feasible]
    assert [c.objective for c in feasible] == first
    assert len(scored) == len(feasible) > searched


def cone_edge_context(cos):
    """make_ctx with a grasp frame whose approach axis, at the identity
    rotation, has cosine `cos` with the robot-to-human direction (-x), bit
    for bit: the approach is -(column 2), so that cosine is entry [0, 2]."""
    s = math.sqrt(1.0 - cos * cos)
    return make_ctx([0.6, 0.0, 1.0], grasp_rotation=np.array([[0.0, s, cos], [0.0, -cos, s], [1.0, 0.0, 0.0]]))


def ulps_from(x, n):
    """x stepped |n| representable doubles up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


CONE_COS = math.cos(math.radians(APPROACH_CONE_DEG))
# the cone's cosine and 1-4 ulps either side (acos reads <= 120 degrees down
# to 3 ulps below it; 4 below is -0.5, outside), and 1e-9 away: just inside,
# at and just past the band that takes the scalar test
CONE_EDGE_COSINES = ([ulps_from(CONE_COS, n) for n in range(-4, 5)]
                     + [ulps_from(CONE_COS + d, n) for d in (-1e-9, 1e-9) for n in (-1, 0, 1)])


@pytest.mark.parametrize("cos", CONE_EDGE_COSINES, ids=repr)
def test_cone_edge_reasons_equal_the_scalar_oracle(cos):
    """A cosine at or within 1e-9 of the cone's gets the scalar verdict, in
    the search's one-array test and in feasibility_reason alike."""
    ctx = cone_edge_context(cos)
    assert float(np.dot(ctx.approach_axis(np.eye(3)), ctx.robot_to_human)) == cos
    assert not any(map(len, ctx.near_offsets))  # so the search decides every rotation by the cone
    pose = plan_handover_orientation(ctx, ContactCluster([(1, 1, 1)]))
    rotations = sample_orientations(45.0)
    identity = next(k for k, r in enumerate(rotations) if np.array_equal(r, np.eye(3)))
    expect = [oracle_feasibility_reason(ctx, r) for r in rotations]
    assert [c.reason for c in pose.candidates] == expect
    assert [feasibility_reason(ctx, r) for r in rotations] == expect
    inside = math.degrees(math.acos(cos)) <= APPROACH_CONE_DEG
    assert pose.candidates[identity].feasible is inside


def test_cone_edge_cosines_cover_both_verdicts_and_a_naive_disagreement():
    verdicts = [math.degrees(math.acos(c)) > APPROACH_CONE_DEG for c in CONE_EDGE_COSINES]
    assert True in verdicts and False in verdicts
    assert any(v != (c < CONE_COS) for c, v in zip(CONE_EDGE_COSINES, verdicts))


def count_feasibility_calls(monkeypatch) -> list:
    """Wrap the feasibility_reason the search looks up; each call appends one entry."""
    calls, real = [], delivery.feasibility_reason
    monkeypatch.setattr(delivery, "feasibility_reason", lambda ctx, r: calls.append(1) or real(ctx, r))
    return calls


@pytest.mark.parametrize("margins", [-2.0, -0.5, 0.5, 1.5, 2.0])
@pytest.mark.parametrize("step", [45.0, 30.0])
def test_search_with_point_checks_equals_the_oracle(margins, step, monkeypatch):
    """On each bound edge context the search never calls feasibility_reason,
    whether or not a check keeps offsets, and equals the exhaustive oracle
    bit for bit either way."""
    calls = count_feasibility_calls(monkeypatch)
    for check, _, ctx in bound_contexts(margins * BOUND_MARGIN):
        cluster = ContactCluster(np.argwhere(ctx.grid.occupancy)[:1])
        calls.clear()
        pose = plan_handover_orientation(ctx, cluster, step)
        assert not calls and any(map(len, ctx.near_offsets)) is (margins < 1.0), check
        assert_search_equals_the_oracle(pose, ctx, cluster, step, (check, margins))


def test_search_on_a_bundled_context_calls_no_scalar_check(bundled_stages, monkeypatch):
    """Every bundled FULL context at seeds 0-4 keeps no offset for any point
    check, so its search decides every rotation in the one-array cone test,
    and calls no feasibility_reason."""
    calls = count_feasibility_calls(monkeypatch)
    for (_, seed), (scene, shared, *_) in bundled_stages.items():
        assert not any(map(len, pipeline_context(scene, shared, seed, scene.params.lam).near_offsets)), scene.name
    (scene, shared, *_) = bundled_stages[("mug", 0)]
    ctx = pipeline_context(scene, shared, 0, scene.params.lam)
    pose = plan_handover_orientation(ctx, shared.cluster(), 30.0)
    assert len(pose.candidates) == len(sample_orientations(30.0)) and not calls


@pytest.fixture(scope="module")
def live_contexts(scenes, bundled_stages):
    """Contexts whose point checks keep offsets, as {label: (context, the
    cluster it plans on)}: the FULL contexts of mug, hammer and rodball at
    seed 0 with 0.25 m thick fingers, and the bundled mug's held 0.24 m in
    front of the receiver's base, 0.44 m up."""
    out = {}
    for name in ("mug", "hammer", "rodball"):
        scene = replace(scenes[name], gripper=replace(scenes[name].gripper, finger_thickness=0.25))
        shared = SharedStages(scene)
        out[name + "-wide"] = (pipeline_context(scene, shared, 0, scene.params.lam), shared.cluster())
    (scene, shared, *_) = bundled_stages[("mug", 0)]
    ctx = pipeline_context(scene, shared, 0, scene.params.lam)
    out["mug-close"] = (replace(ctx, ee_position=ctx.human.base_position + [0.24, 0.0, 0.44]), shared.cluster())
    return out


def test_live_point_checks_equal_the_oracle(live_contexts):
    """Where the point checks keep offsets, feasibility_reason and the search
    give the unbounded scalar check's reason on every rotation at 30 degrees,
    and the search equals the exhaustive oracle bit for bit. All three point
    reasons occur."""
    rotations = sample_orientations(30.0)
    reasons = set()
    for label, (ctx, cluster) in live_contexts.items():
        assert any(map(len, ctx.near_offsets)), label
        expect = [oracle_feasibility_reason(ctx, r) for r in rotations]
        assert [feasibility_reason(ctx, r) for r in rotations] == expect, label
        pose = plan_handover_orientation(ctx, cluster, 30.0)
        assert_search_equals_the_oracle(pose, ctx, cluster, 30.0, label)
        reasons.update(expect)
    assert {"object below clearance height", "object penetrates receiver",
            "gripper penetrates receiver"} <= reasons


def test_wide_gripper_search_tests_only_the_kept_gripper_offsets(live_contexts, monkeypatch):
    """The 0.25 m thick fingers of the wide mug context reach the receiver
    from only a few of their 76,188 offsets: a 30-degree search tests at most
    those in the capsule check per rotation, not every gripper point."""
    ctx, cluster = live_contexts["mug-wide"]
    low, near_obj, near_grip = ctx.near_offsets
    assert len(low) == len(near_obj) == 0 and 0 < len(near_grip) < len(ctx.gripper_offsets) // 10
    rows = count_capsule_rows(monkeypatch)
    pose = plan_handover_orientation(ctx, cluster, 30.0)
    assert 0 < sum(rows) <= len(pose.rotations) * len(near_grip)


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
