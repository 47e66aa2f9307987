"""Parallel-jaw grasp sampling and contact-aware ranking.

Gripper frame: +y is the closing axis (fingers straddle the held point along
it), -z is the approach axis (the gripper travels along -z to reach the
object, palm on the +z side). The pose translation is the held point, i.e.
the midpoint of the grasped contact pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .contacts import ContactCluster
from .voxelgeom import (AIM_OFFSET_VOXELS, Index, VoxelGrid, check_fields, read_only, row_dots, rule,
                        segments_hit_boxes)

MAX_NORMAL_OPPOSITION_DEG = 30.0  # antipodal pair filter
MIN_CONFIDENCE = 0.23  # alignment score floor for kept candidates
ROLL_STEP_DEG = 45.0
OCCLUSION_RAY_FACTOR = 4.0  # occlusion ray length, in finger lengths
REGION_EPS = 1e-9  # closing-region boundary inflation


@dataclass
class GripperModel:
    """Two-finger gripper reduced to three axis-aligned boxes in its own
    frame. Dimensions in meters."""

    finger_length: float = rule(0.05, "number", "(0, 0.25]")
    finger_thickness: float = rule(0.015, "number", "(0, 0.25]")
    max_width: float = rule(0.10, "number", "(0, 0.25]")
    palm_depth: float = rule(0.04, "number", "(0, 0.25]")

    def __post_init__(self):
        check_fields(self, "gripper field")

    def boxes(self, width):
        """Finger/finger/palm boxes at jaw opening `width`, as a [box, lo/hi,
        xyz] array; an array of widths puts its axes in front."""
        width = np.asarray(width, dtype=float)
        if not np.all((0.0 < width) & (width <= self.max_width)):
            raise ValueError("width must lie in (0, max_width]")
        ft, fl, hw = self.finger_thickness, self.finger_length, width / 2.0
        hx = ft / 2.0
        finger, palm = [[-hx, 0, -fl / 2], [hx, 0, fl / 2]], [[-hx, 0, fl / 2], [hx, 0, fl / 2 + self.palm_depth]]
        out = np.empty(hw.shape + (3, 2, 3))
        out[...] = [finger, finger, palm]  # fingers at +y and -y, then the palm
        out[..., 1] = np.stack([hw, hw + ft, -hw - ft, -hw, -hw - ft, hw + ft], axis=-1).reshape(hw.shape + (3, 2))
        return out

    def closing_region(self, width):
        """Between-finger volume (where grasped material lives), as a [lo/hi,
        xyz] array; an array of widths puts its axes in front."""
        ft, fl, hw = self.finger_thickness, self.finger_length, np.asarray(width, dtype=float) / 2.0
        out = np.empty(hw.shape + (2, 3))
        out[..., 0] = [-ft / 2, ft / 2]
        out[..., 0, 1], out[..., 1, 1] = -hw, hw
        out[..., 2] = [-fl / 2, fl / 2]
        return out

    def in_closing_region(self, rotation, translation, width, points) -> np.ndarray:
        """Boolean mask: which world points (xyz last) lie in the closing
        region (with a REGION_EPS boundary inflation so grasped-pair centers
        count as inside). A stack of R poses, as (R, 3, 3) rotations, (R, 1,
        3) or (R, 3, 1) translations and (R,) widths, gives an (R, points)
        mask. The local frame is rot^T @ (points^T - t^T), axes-first, so
        each pass runs over the points: the transpose of (points - t) @ rot,
        bit for bit where the BLAS rounds both products alike."""
        t = np.reshape(translation, np.shape(rotation)[:-1] + (1,))
        local = np.swapaxes(rotation, -1, -2) @ (np.atleast_2d(points).T - t)
        # the region is symmetric and fl(-hi - eps) == -fl(hi + eps): one abs, one bound
        inside = np.abs(local, out=local) <= self.closing_region(width)[..., 1, :, None] + REGION_EPS
        return inside[..., 0, :] & inside[..., 1, :] & inside[..., 2, :]  # faster than all() over 3

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


@dataclass(slots=True)
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


@dataclass(frozen=True, eq=False)
class GraspSet:
    """Grasp candidates as aligned read-only arrays, one row each: rotation
    (n, 3, 3), translation (n, 3), width, confidence and contact_pair (n, 2,
    3). An integer index builds that row's GraspCandidate; a slice or an
    index array gives a GraspSet of those rows."""

    rotation: np.ndarray
    translation: np.ndarray
    width: np.ndarray
    confidence: np.ndarray
    contact_pair: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            read_only(a)

    @classmethod
    def of(cls, candidates) -> GraspSet:
        """`candidates` itself if a GraspSet, else its GraspCandidates stacked once."""
        if isinstance(candidates, cls):
            return candidates
        return cls(*(np.array([getattr(c, f.name) for c in candidates]) for f in fields(cls)))  # GraspCandidate's names

    def __len__(self) -> int:
        return len(self.width)

    def __getitem__(self, k):
        if not isinstance(k, (int, np.integer)):
            return GraspSet(*(a[k] for a in vars(self).values()))
        (p, q), w, c = self.contact_pair[k].tolist(), float(self.width[k]), float(self.confidence[k])
        return GraspCandidate(self.rotation[k], self.translation[k], w, c, (tuple(p), tuple(q)))


@dataclass(slots=True)
class RankedGrasp:
    candidate: GraspCandidate
    occlusion: float
    score: float


# -- sampling ------------------------------------------------------------------


def _cross(a, b) -> np.ndarray:
    """np.cross of 3-vectors (same products, same order) without its call overhead."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


# cos and sin of each roll about the closing axis, taken with math.cos/math.sin
_ROLLS = np.radians(np.arange(0.0, 360.0, ROLL_STEP_DEG))
_ROLL_COS, _ROLL_SIN = (np.array([[f(theta)] for theta in _ROLLS]) for f in (math.cos, math.sin))
# surface voxels probed together. Under tracemalloc, sampling the bundled mug
# peaked at 1.7 MB with 64 and at 7.8 MB with its whole surface in one chunk.
SAMPLE_CHUNK = 64
# slack (m) of the collision cull's bounds, which need only keep every point _collisions finds. Expanded about the
# grid's middle, |o|^2 - 2 o . m + |m|^2 rounds by about 1e-15 R^2 m^2 for points R m from it (1.4e-11 at 125 m,
# 2e-17 on the bundled grids); the margin widens the squared bounds by finger_length / 2 * 1e-6 m^2 or more.
CULL_MARGIN = 1e-6


def sample_grasps(grid: VoxelGrid, gripper: GripperModel, max_candidates: int = 200, seed: int = 0):
    """Antipodal grasp sampling over the surface voxels of `grid`, with
    their normals in grid.normals; the candidates come back as one GraspSet.

    For each surface voxel p (in seeded random order) the sampler steps
    through the body along -normal(p) and pairs p with every surface voxel
    passed whose normal opposes within 30 degrees and whose center lies
    within max_width. Each pair spawns one candidate per 45-degree roll of
    the approach axis about the closing axis; candidates that collide with
    occupied voxels outside the closing region, or whose alignment
    confidence falls below 0.23, are dropped. At most `max_candidates`
    survive, highest confidence first (stable in generation order). Sampling
    stops after the pair that brings max_candidates free candidates to
    confidence 1.0, or after the voxel that fills the pool to
    max(8 * max_candidates, 64), whichever comes first. The first stop is
    exact: confidence is clipped to 1.0 and ties keep generation order, so no
    later candidate can enter the result. Every bundled scene stops there.

    So a pair below confidence 1.0 is queued, not collision-tested: it can
    enter the result only if the ceiling never fires. At a voxel's end where
    the pool could reach the cap with every queued pair free at all rolls,
    the queue is tested and the cap applied to the exact pool; without
    either stop it is tested last. The pick sees every pair in its place.

    The order is probed SAMPLE_CHUNK voxels at a time, as one array of
    probe cells and one grid.surface_rows lookup; their pairs are filtered
    and given their roll frames as arrays. A pair's frames are
    collision-tested only against the voxels in a finger band (width / 2 to
    width / 2 + finger_thickness along the axis) or the palm ring (at least
    finger_length / 2 off it), with every bound widened by CULL_MARGIN. The
    cull is one (2, 3) @ (3, N) product per pair, of its closing axis and
    midpoint m against the occupied centres o, held once per call centred on
    the grid's middle: o's distance along the axis, and |o - m|^2 expanded.
    """
    surface, nrm = grid.surface, grid.normals
    if not len(surface):
        return GraspSet.of([])
    vs = grid.voxel_size
    order = np.random.default_rng(seed).permutation(len(surface))
    occupied = np.ascontiguousarray(grid.occupied_centers.T)  # (3, N) rows; each pair's cull gathers columns
    middle = grid.origin + 0.5 * vs * np.array(grid.dims)
    centred = occupied - middle[:, None]  # the cull's points, and their squared norms
    sq_norms = np.einsum("ij,ij->j", centred, centred)
    cos_limit = math.cos(math.radians(MAX_NORMAL_OPPOSITION_DEG))
    centers = grid.centers(surface)
    centers_t, nrm_t = np.ascontiguousarray(centers.T), np.ascontiguousarray(nrm.T)
    pool_cap = max(8 * max_candidates, 64)
    step_lens = np.arange(0.5 * vs, gripper.max_width + 2 * vs, 0.5 * vs)
    ft, hfl = gripper.finger_thickness, gripper.finger_length / 2.0
    # over all rolls the gripper sweeps a disc this far from the closing axis
    radial_sq = (math.hypot(ft / 2, hfl + gripper.palm_depth) + CULL_MARGIN) ** 2
    ring_sq = max(hfl - CULL_MARGIN, 0.0) ** 2

    def test(job):
        """Collision-test the rolls of pair k of a chunk, fill in its row of free; returns its free count."""
        free, k, rots, mid, width, frame, offsets = job
        axis_m, m2 = offsets[k]
        along, r2 = frame[k] @ centred  # o . axis and -2 o . m of each centred point o
        np.abs(np.subtract(along, axis_m, out=along), out=along)  # |(o - m) . axis|
        r2 += sq_norms
        r2 -= along * along  # |o - m|^2 - along^2, less |m|^2
        lo, hi = width[k] / 2.0 - CULL_MARGIN, width[k] / 2.0 + ft + CULL_MARGIN
        # in reach, and in a finger band or the palm ring
        touch = (along <= hi) & (r2 <= radial_sq - m2)
        touch &= (along >= lo) | (r2 >= ring_sq - m2)
        free[k] = ~_collisions(gripper, rots[k], mid[k], width[k], np.compress(touch, occupied, axis=1).T)
        return int(np.count_nonzero(free[k]))

    # free candidates of the tested pairs: top at confidence 1.0, below under it
    top, below, chunks, queue = 0, 0, [], []
    for start in range(0, len(order), SAMPLE_CHUNK):
        block = order[start : start + SAMPLE_CHUNK]
        probe = centers_t[:, block, None] - step_lens * nrm_t[:, block, None]  # [xyz, voxel, step]
        passed = grid.surface_rows(np.moveaxis(np.floor((probe - grid.origin[:, None, None]) / vs).astype(int), 0, -1))
        hit = (passed >= 0) & (passed != block[:, None])
        hit[:, 1:] &= passed[:, 1:] != passed[:, :-1]  # a straight probe enters each cell once
        rows, cols = np.nonzero(hit)
        pi, qi = block[rows], passed[rows, cols]
        n_p, n_q = nrm[pi], nrm[qi]
        d = centers[qi] - centers[pi]
        width = np.sqrt(row_dots(d, d))
        axis = d / width[:, None]
        confidence = np.clip(0.5 * row_dots(n_p, -axis) + 0.5 * row_dots(n_q, axis), 0.0, 1.0)
        drop = (row_dots(n_p, -n_q) < cos_limit) | (width > gripper.max_width) | (width < 0.5 * vs)
        keep = ~(drop | (confidence < MIN_CONFIDENCE))
        rows, pi, qi, width, axis, confidence = (v[keep] for v in (rows, pi, qi, width, axis, confidence))
        mid = (centers[pi] + centers[qi]) / 2.0
        # per pair, project out the world axis least aligned with the closing axis
        b0 = np.eye(3)[np.argmin(np.abs(axis), axis=1)]
        b0 = b0 - row_dots(b0, axis)[:, None] * axis
        b0 = b0 / np.sqrt(row_dots(b0, b0))[:, None]
        b1 = _cross(axis, b0)
        z = -(_ROLL_COS * b0[:, None] + _ROLL_SIN * b1[:, None])  # minus the approach, per pair and roll
        rots = np.stack([_cross(axis[:, None], z), np.broadcast_to(axis[:, None], z.shape), z], axis=-1)
        free = np.zeros((len(rows), len(_ROLLS)), dtype=bool)
        m = mid - middle  # per pair: the rows of its cull's product, then m . axis and |m|^2
        frame, offsets = np.stack([axis, -2.0 * m], axis=1), np.stack([row_dots(axis, m), row_dots(m, m)], 1).tolist()
        chunks.append((pi, qi, width, confidence, mid, rots, free))
        for k, voxel_end in enumerate((np.diff(rows, append=-1) != 0).tolist()):  # pair k is its voxel's last
            job = (free, k, rots, mid, width, frame, offsets)
            if confidence[k] != 1.0:
                queue.append(job)
            elif (top := top + test(job)) >= max_candidates:
                break
            if voxel_end and top + below + len(_ROLLS) * len(queue) >= pool_cap:  # the queue could fill the pool
                below, queue = below + sum(map(test, queue)), []
                if top + below >= pool_cap:
                    break
        if top >= max_candidates or top + below >= pool_cap:
            break
    if top < max_candidates:  # no ceiling stop: every queued pair can enter the result
        sum(map(test, queue))
    pair, roll = np.nonzero(np.concatenate([chunk[-1] for chunk in chunks]))  # every free (pair, roll)
    pi, qi, width, confidence, mid, rots = (np.concatenate(v) for v in list(zip(*chunks))[:-1])
    best = np.argsort(-confidence[pair], kind="stable")[:max_candidates]
    pair, roll = pair[best], roll[best]
    return GraspSet(rots[pair, roll], mid[pair], width[pair], confidence[pair], surface[np.stack([pi, qi], 1)[pair]])


def _collisions(gripper, rotations, translation, width, points) -> np.ndarray:
    """Per rotation in the (R, 3, 3) stack: does any point (voxel center)
    fall inside a gripper box but outside the closing region? Fused form of
    the boxes()/closing_region() tests: every box spans |x| <= hx, and |y|,
    one value per point (column 1 of each frame is the closing axis), leaves
    it one colliding z range: a finger band's, the palm above the region's.
    The sampler's cull picks the points, as the (n, 3) view of (3, n) rows;
    x, y and z are blocks of one axes-first product (see in_closing_region)."""
    ft, hfl, hw = gripper.finger_thickness, gripper.finger_length / 2.0, width / 2.0
    x, y, z = local = np.empty((3, len(rotations), len(points)))  # [xyz, roll, point]: each axis one block
    np.matmul(np.swapaxes(rotations, -1, -2), points.T - translation[:, None], out=local.transpose(1, 0, 2))
    ay = np.abs(y[0])
    z_lo = np.where(ay <= hw + REGION_EPS, np.nextafter(hfl + REGION_EPS, np.inf), -hfl)
    z_lo[ay > hw + ft] = np.inf
    hit = (z >= z_lo) & (z <= hfl + gripper.palm_depth)
    hit &= np.abs(x, out=x) <= ft / 2.0
    return hit.any(axis=-1)


# -- occlusion + ranking ---------------------------------------------------------

# (candidate, cluster voxel) pairs per occlusion block, and pairs gathered for
# the box tests: rank_grasps on rodball peaks near 0.41 MB under tracemalloc,
# contenders near 0.45 MB.
OCCLUSION_BLOCK_PAIRS, OCCLUSION_FLUSH_PAIRS = 3072, 512
# cluster voxels each round of the contender scan counts for every live candidate
CONTENDER_CHUNK = 64


def occlusion_fraction(grasp: GraspCandidate, cluster: ContactCluster, gripper: GripperModel,
                       grid: VoxelGrid) -> float:
    """Fraction of cluster voxels the gripper hides.

    A voxel is blocked when a ray from its center (offset 1.5 voxel edges
    along its normal in grid.normals) hits a gripper box within 4 finger
    lengths, or when the center lies in the closing region. Counts stay
    integral until the single final division.
    """
    return _occlusions([grasp], cluster, gripper, grid)[0]


def _rays(cluster, grid):
    """(centers, ray origins, ray directions) of the cluster voxels, one row
    each, as (n, 3) views of (3, n) rows; every voxel must be a surface
    voxel of `grid`."""
    if cluster.size == 0:
        raise ValueError("empty contact map")
    members = cluster.member_indices
    rows = grid.surface_rows(members)
    if (rows < 0).any():
        raise ValueError(f"cluster voxel {tuple(members[np.argmin(rows)].tolist())} has no surface normal")
    centers, nrm = np.ascontiguousarray(grid.centers(members).T), np.ascontiguousarray(grid.normals[rows].T)
    return centers.T, (centers + AIM_OFFSET_VOXELS * grid.voxel_size * nrm).T, nrm.T


def _hits(candidates: GraspSet, rays, gripper, rows=None) -> np.ndarray:
    """How many of the `rays` (as _rays gives them) each candidate, or each
    of its `rows`, hides: the voxel center lies in its closing region, or the
    voxel's ray meets a gripper box within OCCLUSION_RAY_FACTOR finger
    lengths. Pairs are tested in blocks of at most OCCLUSION_BLOCK_PAIRS
    (candidate, ray) pairs. A segment that misses the union box of the three
    gripper boxes (each bound the boxes() expression that wins it) misses
    each of them, since (lo - o) / d rounds monotonically in lo. The pairs
    that hit it get the three box tests once about OCCLUSION_FLUSH_PAIRS
    have gathered. Local frames are axes-first (see in_closing_region),
    stored [xyz, candidate, ray] and read through [candidate, ray, xyz] views."""
    centers, origins, nrm = rays
    rows = np.arange(len(candidates)) if rows is None else rows
    ft, fl = gripper.finger_thickness, gripper.finger_length
    max_dist = OCCLUSION_RAY_FACTOR * fl
    hits, since, pending = np.zeros(len(rows), dtype=int), 0, []  # blocks as (widths, cand - since, o, d)
    block = max(1, OCCLUSION_BLOCK_PAIRS // len(centers))
    for start in range(0, len(rows), block):
        at = rows[start : start + block]
        rot, t, w = candidates.rotation[at], candidates.translation[at, :, None], candidates.width[at]
        covered = gripper.in_closing_region(rot, t, w, centers)
        hits[start : start + block] = np.count_nonzero(covered, axis=1)
        rot_t, shape = np.swapaxes(rot, 1, 2), (3, len(at), len(centers))
        o_loc = np.matmul(rot_t, origins.T - t, out=np.empty(shape).transpose(1, 0, 2)).transpose(0, 2, 1)
        d_loc = np.matmul(rot_t, nrm.T, out=np.empty(shape).transpose(1, 0, 2)).transpose(0, 2, 1)
        hw = w[:, None] / 2.0  # the union box, [candidate, 1, xyz]
        lo, hi = np.empty((2, len(at), 1, 3))
        lo[..., 0], lo[..., 1], lo[..., 2] = -ft / 2.0, -hw - ft, -fl / 2
        hi[..., 0], hi[..., 1], hi[..., 2] = ft / 2.0, hw + ft, fl / 2 + gripper.palm_depth
        c, v = np.nonzero(segments_hit_boxes(o_loc, d_loc, max_dist, lo, hi) & ~covered)
        pending.append((w, c + (start - since), o_loc[c, v], d_loc[c, v]))
        del covered, o_loc, d_loc, c, v  # before the next block's arrays
        if sum(len(p[1]) for p in pending) >= OCCLUSION_FLUSH_PAIRS or start + block >= len(rows):
            hits[since : start + block] += _box_hits(pending, gripper)
            since = start + block
    return hits


def _box_hits(pending, gripper) -> np.ndarray:
    """Per candidate of the blocks `pending` holds, how many of its gathered
    segments meet one of its three boxes; empties `pending`."""
    w, cand, o, d = (np.concatenate(v) for v in zip(*pending))
    pending.clear()
    boxes, max_dist = gripper.boxes(w), OCCLUSION_RAY_FACTOR * gripper.finger_length
    hit = np.any([segments_hit_boxes(o, d, max_dist, boxes[cand, b, 0], boxes[cand, b, 1])
                  for b in range(boxes.shape[1])], axis=0)
    return np.bincount(cand[hit], minlength=len(w))


def _occlusions(candidates, cluster, gripper, grid) -> list[float]:
    """occlusion_fraction of every candidate: its _hits over the whole cluster."""
    return (_hits(GraspSet.of(candidates), _rays(cluster, grid), gripper) / cluster.size).tolist()


def contenders(candidates, cluster, gripper, grid) -> list:
    """The candidates that can still rank first at some lam in [0, 1], in
    input order: rank_grasps(contenders(...), ...)[0] is rank_grasps(
    candidates, ...)[0] at every lam.

    contact_score does not fall with confidence nor rise with occlusion, so
    a candidate j with conf_j >= conf_i that hides no more cluster voxels
    than i scores at least as high at every lam and, unless the two tie in
    both and i comes first, wins each tie-break: i never ranks first. The
    scan counts hits (_hits, as rank_grasps does) over a fixed shuffle of
    the cluster voxels, CONTENDER_CHUNK voxels at a time, for every live
    candidate. After each chunk it completes the counts of the live
    candidates with the fewest hits so far, as many as one block of
    OCCLUSION_BLOCK_PAIRS holds, then drops every candidate that a completed
    one dominates by that rule. The scan reads a GraspSet's rows (a list is
    stacked once); only the kept candidates are GraspCandidates.
    """
    rays = _rays(cluster, grid)
    if not candidates:
        return []
    grasps = GraspSet.of(candidates)
    order = np.random.default_rng(0).permutation(cluster.size)  # neighbours tend to hit together
    rays, confidence = [r.T[:, order].T for r in rays], grasps.confidence  # still views of (3, n) rows
    hits = np.zeros(len(candidates), dtype=int)
    live, done = np.ones(len(candidates), dtype=bool), np.zeros(len(candidates), dtype=bool)
    for start in range(0, cluster.size, CONTENDER_CHUNK):
        scan, end = np.flatnonzero(live & ~done), start + CONTENDER_CHUNK
        if not scan.size:
            break
        hits[scan] += _hits(grasps, [r[start:end] for r in rays], gripper, scan)
        if end < cluster.size:
            fill = max(1, OCCLUSION_BLOCK_PAIRS // (cluster.size - end))  # as many as one block holds
            j = scan[np.argsort(hits[scan], kind="stable")[:fill]]
            hits[j] += _hits(grasps, [r[end:] for r in rays], gripper, j)
            done[j] = True
        else:
            done[scan] = True
        # the least key (hits * n + position) of the completed ones at higher, and at equal or higher, confidence
        ref = np.flatnonzero(done & live)
        ref = ref[np.argsort(-confidence[ref], kind="stable")]
        key = hits * len(hits) + np.arange(len(hits))
        least = np.minimum.accumulate(np.append((hits.max() + 1) * len(hits), key[ref]))  # least[m]: of the first m
        higher, at_least = (np.searchsorted(-confidence[ref], -confidence, side=s) for s in ("left", "right"))
        live &= (least[higher] >= (hits + 1) * len(hits)) & (least[at_least] >= key)
    return [candidates[k] for k in np.flatnonzero(live)]


def contact_score(confidence: float, occlusion: float, lam: float) -> float:
    """Ranking objective: lam * confidence - (1 - lam) * occlusion."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    return lam * confidence - (1.0 - lam) * occlusion


def rank_grasps(candidates, cluster: ContactCluster, lam: float, gripper: GripperModel, grid: VoxelGrid):
    """Score candidates and order them best-first.

    Ties break by higher confidence, then lower occlusion, then candidate
    position in the input. Occlusion is scored for blocks of candidates
    at once; a block holds at most OCCLUSION_BLOCK_PAIRS (candidate, cluster
    voxel) pairs, so memory stays bounded whatever the candidate count.
    Each ranked GraspCandidate of a GraspSet is built from its row.
    """
    if not candidates:
        raise ValueError("no grasp candidates")
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lam must lie in [0, 1]")
    occlusions = _occlusions(candidates, cluster, gripper, grid)
    return order_grasps(list(candidates), occlusions, lam)


def order_grasps(candidates, occlusions, lam: float) -> list[RankedGrasp]:
    """rank_grasps for occlusions already scored, one per candidate in input
    order: score each pair at `lam` and sort best-first with its tie-breaks,
    the last of which, input position, is the sort's stability."""
    ranked = [RankedGrasp(c, occ, contact_score(c.confidence, occ, lam)) for c, occ in zip(candidates, occlusions)]
    return sorted(ranked, key=lambda rg: (-rg.score, -rg.candidate.confidence, rg.occlusion))
