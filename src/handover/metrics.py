"""Receiver-centric evaluation of a delivered pose: can the contact region be
seen, can it be reached, and does the handover count as successful.

Every score takes the pose as a DeliveryContext plus one delta rotation and
returns (score, flags): the weighted fraction of the map's contact voxels
that pass, and their flags as a bool array aligned with the map's contact
keys (ContactMap.contacts). The context also says what may block a sight
line: the gripper, and the robot body proxy unless its body_proxy_dims is
None."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contacts import ContactMap
from .delivery import DeliveryContext
from .voxelgeom import ray_cast, row_dots, segments_hit_boxes

AIM_OFFSET_VOXELS = 1.5  # sight lines aim this far off the contact face


@dataclass
class MetricScores:
    visibility: list[float]
    reachability: list[float]
    visibility_median: float
    reachability_median: float
    success: bool
    # per map: visible / reachable, one flag per contact key
    visibility_flags: list[np.ndarray]
    reachability_flags: list[np.ndarray]


def lower_median(values) -> float:
    """Median that never interpolates: for even counts, the lower middle."""
    if not values:
        raise ValueError("median of empty list")
    ordered = sorted(values)
    return float(ordered[(len(ordered) - 1) // 2])


def success(visibility_scores, reachability_scores, threshold: float = 0.5) -> bool:
    """Handover succeeds iff both lower medians strictly exceed the threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    return lower_median(visibility_scores) > threshold and lower_median(reachability_scores) > threshold


def _robot_proxy_box(ctx: DeliveryContext):
    if ctx.body_proxy_dims is None:
        return None
    fx, fy, h = ctx.body_proxy_dims
    half = np.array([fx / 2, fy / 2, 0.0])
    return ctx.robot_base - half, ctx.robot_base + half + [0.0, 0.0, h]


def _contacts(cm: ContactMap):
    """Contact voxels in lexicographic order, their weights and the total
    weight. Every sum of weights runs in that order, from the first: np.sum
    would sum pairwise."""
    contact, weights = cm.contacts()
    denom = sum(weights.tolist())
    if denom <= 0:
        raise ValueError("empty contact map")
    return contact, weights, denom


def _rotate(rotation: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """rotation @ v for every row v, rounded exactly as the per-row product
    (vectors @ rotation.T can differ in the last bit)."""
    return (rotation[None] @ vectors[..., None])[..., 0]


def _toward(off: np.ndarray) -> np.ndarray:
    """Unit rows along `off`, +z where a row vanishes: the sight-line normal
    of a contact voxel that has no surface normal."""
    n = np.sqrt(row_dots(off, off))[:, None]  # np.linalg.norm per row
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n > 0, off / n, [0.0, 0.0, 1.0])


def visibility(ctx: DeliveryContext, rotation: np.ndarray, cm: ContactMap,
               include_gripper: bool = True):
    """(score, flags) for the contact voxels the receiver's eye can see.

    Sight lines aim at a point floated 1.5 voxel edges off the contact face
    along its outward normal; aiming at the buried voxel center would make
    grazing rays clip the surface early. A contact voxel is visible when the
    segment from the eye to its aim point crosses no object voxel, no gripper
    box, and no robot body proxy (none when ctx.body_proxy_dims is None), and
    the voxel center is not covered by the closing region. A voxel whose aim
    point is the eye itself counts as seen.

    All sight lines are built as arrays and tested against the closing
    region and each box at once (segments_hit_boxes; the proxy's far end is
    open). The lines nothing else blocks then walk the object grid together,
    in one ray_cast call.
    """
    grid = ctx.grid
    contact, weights, denom = _contacts(cm)
    eye = ctx.human.eye_point
    # eye mapped into grid coordinates once; the grid never moves, the world does
    eye_grid = ctx.grid_frame_point(rotation, eye)
    centers = grid.centers(contact)
    rows = grid.surface_rows(contact)
    nrm = _toward(eye_grid - centers)  # kept where a voxel has no surface normal
    nrm[rows >= 0] = grid.normals[rows[rows >= 0]]
    aims = centers + AIM_OFFSET_VOXELS * grid.voxel_size * nrm
    to_aim = aims - eye_grid
    dist = np.sqrt(row_dots(to_aim, to_aim))  # np.linalg.norm per row
    rays = np.flatnonzero(dist > 0)
    t_max = dist[rays]
    blocked = np.zeros(len(rays), dtype=bool)
    proxy = _robot_proxy_box(ctx)
    if include_gripper or proxy is not None:
        world_aims = ctx.ee_position + _rotate(rotation, aims[rays] - ctx.held_point)
        dirs = (world_aims - eye) / t_max[:, None]
    if include_gripper:
        grip_rot, grip_t = ctx.gripper_pose(rotation)
        world = ctx.ee_position + _rotate(rotation, centers[rays] - ctx.held_point)
        blocked |= ctx.gripper.in_closing_region(grip_rot, grip_t, ctx.width, world)
        eye_loc = grip_rot.T @ (eye - grip_t)
        dirs_loc = _rotate(grip_rot.T, dirs)
        for lo, hi in ctx.gripper.boxes(ctx.width):
            blocked |= segments_hit_boxes(eye_loc, dirs_loc, t_max, lo, hi)
    if proxy is not None:
        blocked |= segments_hit_boxes(eye, dirs, t_max, *proxy, open_end=True)
    clear = ~blocked
    blocked[clear] = ray_cast(grid, eye_grid, to_aim[rays[clear]] / t_max[clear, None], t_max[clear])
    visible = np.ones(len(contact), dtype=bool)
    visible[rays] = ~blocked
    return sum(weights[visible].tolist(), 0.0) / denom, visible


def reachability(ctx: DeliveryContext, rotation: np.ndarray, cm: ContactMap):
    """(score, flags) for the contact voxels inside the receiver's grasp
    envelope: within arm's length of the shoulder AND horizontally closer to
    the body axis than any part of the gripper. Every contact voxel is
    tested at once."""
    contact, weights, denom = _contacts(cm)
    human = ctx.human
    base = human.base_position
    grip_pts = ctx.gripper_points(rotation)
    gripper_axis_dist = float(
        np.hypot(grip_pts[:, 0] - base[0], grip_pts[:, 1] - base[1]).min()
    )
    world = ctx.ee_position + _rotate(rotation, ctx.grid.centers(contact) - ctx.held_point)
    arm = world - human.shoulder_point
    d1 = np.sqrt(row_dots(arm, arm))
    d2 = np.hypot(world[:, 0] - base[0], world[:, 1] - base[1])
    ok = (d1 < human.arm_length) & (d2 < gripper_axis_dist)
    return sum(weights[ok].tolist(), 0.0) / denom, ok


def evaluate_maps(ctx: DeliveryContext, rotation: np.ndarray, maps, threshold: float = 0.5):
    """Score every ground-truth map at the delivered pose and fold the lists
    into the success verdict against `threshold`. The per-voxel flags behind
    each score come along, so diagnostics need no second pass.

    visibility and reachability run once, on the union of the maps' contact
    voxels, and each map takes its flags from the union by position. A
    voxel's flags depend on its row only, so they equal a per-map call's."""
    parts = [_contacts(cm) for cm in maps]  # an empty map fails as in its own call
    dims = ctx.grid.dims
    keys = [np.ravel_multi_index(tuple(contact.T), dims) for contact, _, _ in parts]
    union = np.sort(np.concatenate(keys))  # not np.unique: its first call holds ~1 MB
    union = union[np.diff(union, prepend=-1) != 0]
    whole = ContactMap(ctx.grid, np.stack(np.unravel_index(union, dims), axis=1), np.ones(len(union)))
    seen = visibility(ctx, rotation, whole)[1]
    near = reachability(ctx, rotation, whole)[1]
    at = [np.searchsorted(union, k) for k in keys]
    vis_flags = [seen[rows] for rows in at]
    reach_flags = [near[rows] for rows in at]
    vis_scores = [sum(w[f].tolist(), 0.0) / denom for f, (_, w, denom) in zip(vis_flags, parts)]
    reach_scores = [sum(w[f].tolist(), 0.0) / denom for f, (_, w, denom) in zip(reach_flags, parts)]
    return MetricScores(
        visibility=vis_scores,
        reachability=reach_scores,
        visibility_median=lower_median(vis_scores),
        reachability_median=lower_median(reach_scores),
        success=success(vis_scores, reach_scores, threshold),
        visibility_flags=vis_flags,
        reachability_flags=reach_flags,
    )
