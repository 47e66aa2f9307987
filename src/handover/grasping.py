"""Parallel-jaw grasp sampling and contact-aware ranking.

Gripper frame: +y is the closing axis (fingers straddle the held point along
it), -z is the approach axis (the gripper travels along -z to reach the
object, palm on the +z side). The pose translation is the held point, i.e.
the midpoint of the grasped contact pair.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .contacts import ContactCluster
from .voxelgeom import Index, VoxelGrid, segments_hit_boxes

MAX_NORMAL_OPPOSITION_DEG = 30.0  # antipodal pair filter
MIN_CONFIDENCE = 0.23  # alignment score floor for kept candidates
ROLL_STEP_DEG = 45.0
OCCLUSION_RAY_FACTOR = 4.0  # occlusion ray length, in finger lengths
REGION_EPS = 1e-9  # closing-region boundary inflation


@dataclass
class GripperModel:
    """Two-finger gripper reduced to three axis-aligned boxes in its own
    frame. Dimensions in meters."""

    finger_length: float = 0.05
    finger_thickness: float = 0.015
    max_width: float = 0.10
    palm_depth: float = 0.04

    def __post_init__(self):
        for name in ("finger_length", "finger_thickness", "max_width", "palm_depth"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"gripper field {name!r} must be finite and positive, got {value!r}")

    def boxes(self, width: float):
        """Finger/finger/palm boxes as (lo, hi) pairs at jaw opening `width`."""
        if not (0.0 < width <= self.max_width):
            raise ValueError("width must lie in (0, max_width]")
        ft = self.finger_thickness
        fl = self.finger_length
        hw = width / 2.0
        hx = ft / 2.0
        finger_pos = (np.array([-hx, hw, -fl / 2]), np.array([hx, hw + ft, fl / 2]))
        finger_neg = (np.array([-hx, -hw - ft, -fl / 2]), np.array([hx, -hw, fl / 2]))
        palm = (
            np.array([-hx, -hw - ft, fl / 2]),
            np.array([hx, hw + ft, fl / 2 + self.palm_depth]),
        )
        return [finger_pos, finger_neg, palm]

    def closing_region(self, width: float):
        """Between-finger volume (where grasped material lives)."""
        ft = self.finger_thickness
        fl = self.finger_length
        hw = width / 2.0
        return (np.array([-ft / 2, -hw, -fl / 2]), np.array([ft / 2, hw, fl / 2]))

    def in_closing_region(self, rotation, translation, width, points) -> np.ndarray:
        """Boolean mask: which world points lie in the closing region (with a
        1e-9 boundary inflation so grasped-pair centers count as inside)."""
        local = (np.atleast_2d(points) - translation) @ rotation
        return _inside(local, *self.closing_region(width))

    def surface_points(self, width: float, pitch: float) -> np.ndarray:
        """Points sampled on the faces of all three boxes at the given pitch,
        in gripper frame. Used for clearance and reach checks."""
        pts = []
        for lo, hi in self.boxes(width):
            axes = [np.arange(lo[a], hi[a] + pitch / 2, pitch) for a in range(3)]
            for a in range(3):
                u, v = (a + 1) % 3, (a + 2) % 3
                gu, gv = np.meshgrid(axes[u], axes[v], indexing="ij")
                for bound in (lo[a], hi[a]):
                    face = np.empty((gu.size, 3))
                    face[:, a] = bound
                    face[:, u] = gu.ravel()
                    face[:, v] = gv.ravel()
                    pts.append(face)
        return np.vstack(pts)


def _inside(local, lo, hi) -> np.ndarray:
    """Which local points (xyz on the last axis) lie in [lo, hi] +- REGION_EPS."""
    return ((local >= lo - REGION_EPS) & (local <= hi + REGION_EPS)).all(axis=-1)


@dataclass
class GraspCandidate:
    rotation: np.ndarray  # (3,3), columns are gripper axes in world
    translation: np.ndarray  # held point (midpoint of the contact pair)
    width: float
    confidence: float  # antipodal alignment score in [0, 1]
    contact_pair: tuple[Index, Index]

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)

    @property
    def pose(self) -> np.ndarray:
        """Homogeneous 4x4, row-major."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @property
    def approach_axis(self) -> np.ndarray:
        return -self.rotation[:, 2]


@dataclass
class RankedGrasp:
    candidate: GraspCandidate
    occlusion: float
    score: float


# -- sampling ------------------------------------------------------------------


def _perpendicular(axis: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to `axis`: project out the world
    axis least aligned with it."""
    a = np.abs(axis)
    seed = np.zeros(3)
    seed[int(np.argmin(a))] = 1.0
    v = seed - np.dot(seed, axis) * axis
    return v / np.linalg.norm(v)


def _cross(a, b) -> np.ndarray:
    """np.cross of 3-vectors (same products, same order) without its call overhead."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


# cos and sin of each roll about the closing axis, taken with math.cos/math.sin
_ROLLS = np.radians(np.arange(0.0, 360.0, ROLL_STEP_DEG))
_ROLL_COS, _ROLL_SIN = (np.array([[f(theta)] for theta in _ROLLS]) for f in (math.cos, math.sin))


def sample_grasps(
    grid: VoxelGrid,
    normals: dict[Index, np.ndarray],
    gripper: GripperModel,
    max_candidates: int = 200,
    seed: int = 0,
):
    """Antipodal grasp sampling over surface voxels.

    For each surface voxel p (in seeded random order) the sampler steps
    through the body along -normal(p) and pairs p with every surface voxel
    passed whose normal opposes within 30 degrees and whose center lies
    within max_width. Each pair spawns one candidate per 45-degree roll of
    the approach axis about the closing axis; candidates that collide with
    occupied voxels outside the closing region, or whose alignment
    confidence falls below 0.23, are dropped. At most `max_candidates`
    survive, highest confidence first (stable in generation order).

    The probe walk of each p is one sorted lookup of its cells among the
    surface voxels; the 8 roll frames of a pair are built and
    collision-tested as one batch.
    """
    surface = grid.surface
    if not surface:
        return []
    vs = grid.voxel_size
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(surface))
    occupied = grid.occupied_centers
    cos_limit = math.cos(math.radians(MAX_NORMAL_OPPOSITION_DEG))
    # linear cell index of each surface voxel, ascending because the surface
    # is in lexicographic order, closed by a sentinel that no cell reaches
    surface_keys = np.append(np.ravel_multi_index(np.array(surface).T, grid.dims), grid.occupancy.size)
    centers = grid.centers(surface)
    pool: list[GraspCandidate] = []
    pool_cap = max(8 * max_candidates, 64)
    step_lens = np.arange(0.5 * vs, gripper.max_width + 2 * vs, 0.5 * vs)
    # over all rolls the gripper sweeps a slab around the closing axis: no
    # point beyond these two bounds can touch any box, at any roll angle
    axial_max = gripper.max_width / 2 + gripper.finger_thickness + 2 * REGION_EPS
    radial_max = math.hypot(
        gripper.finger_thickness / 2, gripper.finger_length / 2 + gripper.palm_depth
    ) + 2 * REGION_EPS

    for si in order:
        p = surface[si]
        n_p = normals[p]
        c_p = centers[si]
        probe = c_p - np.outer(step_lens, n_p)
        cells = np.floor((probe - grid.origin) / vs).astype(int)
        cells = cells[((cells >= 0) & (cells < grid.dims)).all(axis=1)]
        keys = np.ravel_multi_index(cells.T, grid.dims)
        passed = np.searchsorted(surface_keys, keys)
        passed = passed[(surface_keys[passed] == keys) & (passed != si)]
        _, first = np.unique(passed, return_index=True)
        for qi in passed[np.sort(first)]:
            q = surface[qi]
            n_q = normals[q]
            if float(np.dot(n_p, -n_q)) < cos_limit:
                continue
            c_q = centers[qi]
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
            b0 = _perpendicular(axis)
            b1 = _cross(axis, b0)
            z = -(_ROLL_COS * b0 + _ROLL_SIN * b1)  # minus the approach, per roll
            rots = np.stack([_cross(axis, z), np.broadcast_to(axis, z.shape), z], axis=-1)
            for rot in rots[~_collisions(gripper, rots, mid, width, near)]:
                pool.append(GraspCandidate(rot, mid, width, confidence, (p, q)))
        if len(pool) >= pool_cap:
            break

    ranked = sorted(range(len(pool)), key=lambda i: (-pool[i].confidence, i))
    return [pool[i] for i in ranked[:max_candidates]]


def _collisions(gripper, rotations, translation, width, points) -> np.ndarray:
    """Per rotation in the (R, 3, 3) stack: does any point (voxel center)
    fall inside a gripper box but outside the closing region?

    Fused form of the boxes()/closing_region() tests; both fingers share
    x/z bounds, so one |y| band covers them."""
    local = (points - translation) @ rotations
    ft = gripper.finger_thickness
    hfl = gripper.finger_length / 2.0
    hx = ft / 2.0
    hw = width / 2.0
    palm_z = (local[..., 2] >= hfl) & (local[..., 2] <= hfl + gripper.palm_depth)
    ax, ay, az = np.abs(local, out=local).transpose(2, 0, 1)  # in place: one (R, N, 3) array
    in_x = ax <= hx
    finger = in_x & (ay >= hw) & (ay <= hw + ft) & (az <= hfl)
    palm = in_x & (ay <= hw + ft) & palm_z
    # a point in a box already has |x| <= hx, inside the region's x bound
    in_region = (ay <= hw + REGION_EPS) & (az <= hfl + REGION_EPS)
    return ((finger | palm) & ~in_region).any(axis=-1)


# -- occlusion + ranking ---------------------------------------------------------

# (candidate, cluster voxel) pairs per occlusion block: each temporary stays
# near 100 kB whatever the candidate count. 16384 ranked the five bundled
# scenes ~0.1 s faster but raised a plan run's peak RSS by up to 1.6 MB.
OCCLUSION_BLOCK_PAIRS = 4096


def occlusion_fraction(
    grasp: GraspCandidate,
    cluster: ContactCluster,
    normals: dict[Index, np.ndarray],
    gripper: GripperModel,
    grid: VoxelGrid,
) -> float:
    """Fraction of cluster voxels the gripper hides.

    A voxel is blocked when a ray from its center (offset 1.5 voxel edges
    along its own normal) hits a gripper box within 4 finger lengths, or when
    the center lies in the closing region. Counts stay integral until the
    single final division.
    """
    return _occlusions([grasp], cluster, normals, gripper, grid)[0]


def _occlusions(candidates, cluster, normals, gripper, grid) -> list[float]:
    """occlusion_fraction of every candidate, scored in blocks of at most
    OCCLUSION_BLOCK_PAIRS (candidate, cluster voxel) pairs: per block, one
    slab-test broadcast over candidates x voxels for each gripper box."""
    if cluster.size == 0:
        raise ValueError("empty contact map")
    centers = grid.centers(cluster.member_indices)
    nrm = np.array([normals[i] for i in cluster.member_indices])
    origins = centers + 1.5 * grid.voxel_size * nrm
    max_dist = OCCLUSION_RAY_FACTOR * gripper.finger_length
    block = max(1, OCCLUSION_BLOCK_PAIRS // cluster.size)
    out: list[float] = []
    for start in range(0, len(candidates), block):
        chunk = candidates[start : start + block]
        rot = np.array([c.rotation for c in chunk])
        t = np.array([c.translation for c in chunk])[:, None, :]
        region = np.array([gripper.closing_region(c.width) for c in chunk])[:, :, None, :]
        boxes = np.array([gripper.boxes(c.width) for c in chunk])[:, :, :, None, :]
        hit = _inside((centers - t) @ rot, region[:, 0], region[:, 1])
        o_loc = (origins - t) @ rot
        d_loc = nrm @ rot
        for b in range(boxes.shape[1]):
            hit |= segments_hit_boxes(o_loc, d_loc, max_dist, boxes[:, b, 0], boxes[:, b, 1])
        out.extend((np.count_nonzero(hit, axis=1) / cluster.size).tolist())
    return out


def contact_score(confidence: float, occlusion: float, lam: float) -> float:
    """Ranking objective: lam * confidence - (1 - lam) * occlusion."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    return lam * confidence - (1.0 - lam) * occlusion


def rank_grasps(
    candidates,
    cluster: ContactCluster,
    lam: float,
    normals,
    gripper: GripperModel,
    grid: VoxelGrid,
):
    """Score candidates and order them best-first.

    Ties break by higher confidence, then lower occlusion, then candidate
    position in the input list. Occlusion is scored for blocks of candidates
    at once; a block holds at most OCCLUSION_BLOCK_PAIRS (candidate, cluster
    voxel) pairs, so memory stays bounded whatever the candidate count.
    """
    if not candidates:
        raise ValueError("no grasp candidates")
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    occlusions = _occlusions(candidates, cluster, normals, gripper, grid)
    ranked = [
        (i, RankedGrasp(cand, occ, contact_score(cand.confidence, occ, lam)))
        for i, (cand, occ) in enumerate(zip(candidates, occlusions))
    ]
    ranked.sort(key=lambda item: (-item[1].score, -item[1].candidate.confidence, item[1].occlusion, item[0]))
    return [rg for _, rg in ranked]
