"""Final-pose selection: re-orient the grasped object about the held point so
its contact region faces the receiver, subject to safety constraints.

Candidate rotations are deltas applied to the grasp-time pose (identity =
keep it). They are parameterized by pointing a canonical axis at each
(azimuth, elevation) node of a spherical grid, then rolling about it; the
(0, 0, 0) node contributes the identity, so it is always in the set.

A DeliveryContext and one such rotation are the whole description of a
delivered pose; the search returns only the rotation and what it scored.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contacts import ContactCluster
from .ergonomics import HumanModel
from .grasping import GripperModel
from .voxelgeom import VoxelGrid, cos_sin_deg, read_only, row_dots

DEFAULT_STEP_DEG = 45.0
MIN_ORIENTATION_STEP = 15.0  # degrees; 6,384 rotations, cone-tested as one array by a search
OBJECTIVE_TIE_TOL = 1e-9  # objectives this close are tie-broken by rotation angle
MIN_OBJECT_HEIGHT = 0.40
BODY_CAPSULE_RADIUS = 0.20
APPROACH_CONE_DEG = 120.0
_CONE_COS = math.cos(math.radians(APPROACH_CONE_DEG))
_CONE_EDGE = 1e-9  # a cosine this near _CONE_COS takes the scalar angle test
_OUTSIDE_CONE = "approach axis outside delivery cone"
BODY_PROXY_DIMS = (0.5, 0.5, 1.1)  # robot stand-in box: footprint x, y, height
BOUND_MARGIN = 1e-6  # m; a check is skipped only when its bound clears by this


def rotation_angle_deg(rotation: np.ndarray) -> float:
    """Geodesic distance from the identity, in degrees."""
    t = (float(np.trace(rotation)) - 1.0) / 2.0
    return math.degrees(math.acos(min(max(t, -1.0), 1.0)))


def sample_orientations(step: float = DEFAULT_STEP_DEG) -> np.ndarray:
    """The rotation grid as one read-only (N, 3, 3) array, in (azimuth,
    elevation, roll) order: each rotation takes +x to the (azimuth,
    elevation) direction, +y to the azimuth tangent and +z to the elevation
    tangent, after a roll about +x. The (0, 0, 0) node is the identity. At a
    pole every azimuth repeats azimuth 0's rotations, so a pole keeps
    azimuth 0 only; no other two nodes coincide."""
    step = float(step)
    if step <= 0 or 360.0 % step != 0.0:
        raise ValueError("step must be positive and divide 360")
    n_el = int(math.floor(90.0 / step + 1e-9))
    az = np.arange(int(360.0 // step)) * step
    el = np.arange(-n_el, n_el + 1) * step
    cr, sr = cos_sin_deg(az)  # the rolls take the azimuth steps
    ca, sa, ce, se = np.broadcast_arrays(cr[:, None], sr[:, None], *cos_sin_deg(el))
    zero = np.zeros_like(ca)
    frames = np.stack([ce * ca, -sa, -se * ca, ce * sa, ca, -se * sa, se, zero, ce], -1)
    one, zero = np.ones_like(cr), np.zeros_like(cr)
    rolls = np.stack([one, zero, zero, zero, cr, -sr, zero, sr, cr], -1)
    keep = (az == 0.0)[:, None] | (np.abs(el) != 90.0)
    rotations = (frames.reshape(*keep.shape, 1, 3, 3) @ rolls.reshape(-1, 3, 3))[keep].reshape(-1, 3, 3)
    return read_only(rotations)


@dataclass(frozen=True)
class DeliveryContext:
    """Everything feasibility and metric checks need about the final scene:
    the grasped object, where it is held, and who stands where. With one
    delta rotation it describes the whole delivered pose. Frozen, with
    read-only copies of the array fields, because the offsets and the
    per-point cull below are cached from its fields."""

    grid: VoxelGrid
    gripper: GripperModel
    grasp_rotation: np.ndarray  # gripper world rotation at grasp time
    held_point: np.ndarray  # grasp midpoint in grid/world coordinates
    width: float
    ee_position: np.ndarray  # where the held point sits at delivery
    human: HumanModel
    robot_base: np.ndarray
    body_proxy_dims: tuple[float, float, float] | None = BODY_PROXY_DIMS  # None: no robot body

    def __post_init__(self):
        for name, shape in (("grasp_rotation", (3, 3)), ("held_point", 3), ("ee_position", 3),
                            ("robot_base", 3)):
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=float).reshape(shape)))

    @cached_property
    def gripper_offsets(self) -> np.ndarray:
        """Gripper surface samples (pitch = voxel size) in world frame at
        grasp time, relative to the held point."""
        local = self.gripper.surface_points(self.width, self.grid.voxel_size)
        return local @ self.grasp_rotation.T

    def gripper_points(self, rotation: np.ndarray) -> np.ndarray:
        return self.ee_position + self.gripper_offsets @ rotation.T

    def gripper_pose(self, rotation: np.ndarray):
        return rotation @ self.grasp_rotation, self.ee_position

    def approach_axis(self, rotation: np.ndarray) -> np.ndarray:
        return rotation @ (-self.grasp_rotation[:, 2])

    @cached_property
    def near_offsets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The offsets each per-point check of `_reasons` must test: the
        object offsets that could fall below MIN_OBJECT_HEIGHT, the object
        offsets and the gripper offsets that could enter the receiver's body
        capsule; an object offset is an occupied voxel center relative to the
        held point. A rotation about the held point keeps each offset's
        length |o|, so its point lies no lower than `ee_z - |o|` and no nearer
        the receiver's segment than `dist(ee, segment) - |o|`. An offset is
        dropped from a check when that bound clears its limit by
        BOUND_MARGIN."""
        ee, human = self.ee_position, self.human
        obj, grip = self.grid.occupied_centers - self.held_point, self.gripper_offsets
        r_obj, r_grip = (np.linalg.norm(o, axis=1) for o in (obj, grip))
        to_axis = math.sqrt(_capsule_d2(ee[None], human.base_position, human.height)[0])
        limit = BODY_CAPSULE_RADIUS + BOUND_MARGIN
        return (obj[ee[2] - r_obj < MIN_OBJECT_HEIGHT + BOUND_MARGIN],
                obj[to_axis - r_obj < limit], grip[to_axis - r_grip < limit])

    @cached_property
    def robot_to_human(self) -> np.ndarray:
        d = self.human.base_position - self.robot_base
        d = np.array([d[0], d[1], 0.0])
        n = float(np.linalg.norm(d))
        if n < 1e-9:
            raise ValueError("robot and human bases coincide")
        return d / n

    def grid_frame_point(self, rotation: np.ndarray, world_point) -> np.ndarray:
        """Map a world point into grid coordinates at the delivered pose."""
        return self.held_point + rotation.T @ (np.asarray(world_point, dtype=float) - self.ee_position)


@dataclass
class OrientationCandidate:
    rotation: np.ndarray
    feasible: bool
    reason: str | None  # set when infeasible
    score: Callable[[np.ndarray], float] = field(repr=False, compare=False)  # the exposure objective

    @cached_property
    def objective(self) -> float | None:  # computed when first read, unless the search scored it
        return self.score(self.rotation) if self.feasible else None


@dataclass
class HandoverPose:
    """What the orientation search found: the chosen row of the read-only
    rotation stack it searched, that delta rotation about the held point and
    its exposure objective, one reason per row (None where feasible), and the
    objectives it scored, by row. The delivered object and gripper poses
    follow from the rotation and the DeliveryContext the search ran on."""

    index: int
    objective: float
    rotations: np.ndarray = field(repr=False)  # (N, 3, 3), in sample order
    reasons: list[str | None] = field(repr=False)
    scored: dict[int, float] = field(repr=False)
    score: Callable[[np.ndarray], float] = field(repr=False, compare=False)  # the exposure objective

    @cached_property
    def object_rotation(self) -> np.ndarray:
        return self.rotations[self.index]

    @cached_property
    def candidates(self) -> list[OrientationCandidate]:
        """Every sampled rotation as an OrientationCandidate, built when first
        read. The chosen one holds object_rotation itself, and each holds the
        objective the search scored for it, if any."""
        rows = list(self.rotations)
        rows[self.index] = self.object_rotation
        built = [OrientationCandidate(r, reason is None, reason, self.score) for r, reason in zip(rows, self.reasons)]
        for k, obj in self.scored.items():
            vars(built[k])["objective"] = obj  # where cached_property keeps a value it computed
        return built


def _capsule_d2(points: np.ndarray, base: np.ndarray, height: float) -> np.ndarray:
    """Squared distance of each point to the vertical segment base..base+height."""
    rel = points - base
    z = np.clip(rel[:, 2], 0.0, height)
    return rel[:, 0] ** 2 + rel[:, 1] ** 2 + (rel[:, 2] - z) ** 2


def _outside_cone(ctx: DeliveryContext, rotations: np.ndarray) -> np.ndarray:
    """For each rotation of an (N, 3, 3) stack, whether its approach axis
    lies more than APPROACH_CONE_DEG from the robot-to-human direction. The
    cosines round as the per-rotation np.dot does; one within _CONE_EDGE of
    the cone's gets the angle test, where acos could round it across."""
    axes = ctx.approach_axis(rotations)
    cos = row_dots(axes, np.broadcast_to(ctx.robot_to_human, axes.shape))
    outside = cos < _CONE_COS
    for k in np.flatnonzero(np.abs(cos - _CONE_COS) <= _CONE_EDGE).tolist():
        outside[k] = math.degrees(math.acos(min(max(float(cos[k]), -1.0), 1.0))) > APPROACH_CONE_DEG
    return outside


def _reasons(ctx: DeliveryContext, rotations: np.ndarray) -> list[str | None]:
    """feasibility_reason for each rotation of an (N, 3, 3) stack. The cone
    is tested once on the whole stack; each per-point check tests only its
    `ctx.near_offsets`, rotation by rotation, and the loop is skipped when
    all three are empty. A rotation takes the reason of the first check it
    fails, in the order height, object capsule, gripper capsule, cone."""
    reasons = [_OUTSIDE_CONE if out else None for out in _outside_cone(ctx, rotations).tolist()]
    low, near_obj, near_grip = ctx.near_offsets
    ee, base, height = ctx.ee_position, ctx.human.base_position, ctx.human.height
    r2 = BODY_CAPSULE_RADIUS * BODY_CAPSULE_RADIUS
    for k, r in enumerate(rotations if len(low) or len(near_obj) or len(near_grip) else ()):
        if len(low) and ((ee + low @ r.T)[:, 2] < MIN_OBJECT_HEIGHT).any():
            reasons[k] = "object below clearance height"
        elif len(near_obj) and (_capsule_d2(ee + near_obj @ r.T, base, height) < r2).any():
            reasons[k] = "object penetrates receiver"
        elif len(near_grip) and (_capsule_d2(ee + near_grip @ r.T, base, height) < r2).any():
            reasons[k] = "gripper penetrates receiver"
    return reasons


def feasibility_reason(ctx: DeliveryContext, rotation: np.ndarray) -> str | None:
    """None when the rotation is deliverable, else a short reason label:
    `_reasons` on a one-row stack."""
    return _reasons(ctx, np.asarray(rotation)[None])[0]


def feasible(ctx: DeliveryContext, rotation: np.ndarray) -> bool:
    return feasibility_reason(ctx, rotation) is None


def exposure_objective(ctx: DeliveryContext, rotation: np.ndarray, cluster: ContactCluster) -> float:
    """Sum of contact-voxel distances to the receiver's eye at the delivered
    pose. Lower is better: the contact region swings toward the viewer."""
    return _exposure(ctx, cluster)(rotation)


def _exposure(ctx: DeliveryContext, cluster: ContactCluster):
    """exposure_objective as a function of the rotation alone: the contact
    offsets and the eye point are worked out once."""
    rel = ctx.grid.centers(cluster.member_indices) - ctx.held_point
    eye = ctx.human.eye_point
    return lambda rotation: float(np.linalg.norm(ctx.ee_position + rel @ rotation.T - eye, axis=1).sum())


def plan_handover_orientation(ctx: DeliveryContext, cluster: ContactCluster,
                              step: float = DEFAULT_STEP_DEG) -> HandoverPose:
    """Minimizes the contact-to-eye exposure objective over the feasible
    sampled rotations. `_reasons` decides the whole rotation stack in one
    call, with feasibility_reason's verdicts. Objectives within 1e-9 of each
    other count as tied; ties break by the smaller geodesic angle from
    identity, then by sample order. The objective of m contacts at offsets
    c_i, sum_i |ee + R c_i - eye|, is at least |m (ee - eye) + R sum_i c_i|:
    rotations are scored in increasing order of that bound until it exceeds
    the best objective by BOUND_MARGIN, so none later can win or tie. Returns the winning row, its
    objective, and the stack with every row's reason and each score taken."""
    if cluster.size == 0:
        raise ValueError("empty contact map")
    stack = sample_orientations(step)
    score = _exposure(ctx, cluster)
    reasons = _reasons(ctx, stack)
    ok = np.flatnonzero([reason is None for reason in reasons])
    if not len(ok):
        raise ValueError("no feasible handover orientation")
    offsets = (ctx.grid.centers(cluster.member_indices) - ctx.held_point).sum(axis=0)
    bounds = np.linalg.norm(cluster.size * (ctx.ee_position - ctx.human.eye_point)
                            + stack[ok] @ offsets, axis=1)
    scored: dict[int, float] = {}
    best = None  # ((quantized objective, angle, index), objective)
    for bound, k in sorted(zip(bounds.tolist(), ok.tolist())):  # equal bounds in sample order
        if best is not None and bound > best[1] + BOUND_MARGIN:
            break
        obj = scored[k] = score(stack[k])
        key = (round(obj / OBJECTIVE_TIE_TOL), rotation_angle_deg(stack[k]), k)
        if best is None or key < best[0]:
            best = (key, obj)
    (*_, k), obj = best
    return HandoverPose(k, obj, stack, reasons, scored, score)
