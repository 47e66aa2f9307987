"""Shared builders: tiny meshes, voxel grids, and the bundled scene set."""
import json
import math

import numpy as np
import pytest

from handover import harness, suite
from handover.delivery import (
    APPROACH_CONE_DEG,
    BODY_CAPSULE_RADIUS,
    MIN_OBJECT_HEIGHT,
    DeliveryContext,
)
from handover.ergonomics import (
    ELBOW_MID_DEG,
    ELBOW_RANGE_DEG,
    GRAVITY,
    SHOULDER_MID_DEG,
    SHOULDER_RANGE_DEG,
    UP,
)
from handover.contacts import EPS_VOXELS, ContactCluster, ContactMap
from handover.grasping import OCCLUSION_RAY_FACTOR, REGION_EPS, contenders
from handover.harness import Scene, SharedStages, load_scene
from handover.voxelgeom import _OFFSETS_26, Mesh, VoxelGrid, segments_hit_boxes


def make_grid(occ, voxel_size=0.01, origin=(0.0, 0.0, 0.0)) -> VoxelGrid:
    occ = np.asarray(occ, dtype=bool)
    return VoxelGrid(occ.shape, voxel_size, np.asarray(origin, dtype=float), occ)


def by_index(keys, rows) -> dict:
    """{voxel index tuple: row} over (n, 3) `keys` and their aligned `rows`,
    in key order: a contact map as by_index(cm.keys, cm.values.tolist()),
    the normals as by_index(grid.surface, grid.normals)."""
    return dict(zip(map(tuple, np.asarray(keys).tolist()), rows))


def contact_map(grid, values: dict) -> ContactMap:
    """The ContactMap of {voxel index: value}."""
    return ContactMap(grid, np.array(list(values), dtype=int).reshape(-1, 3), list(values.values()))


def set_normals(grid, normals: dict) -> None:
    """Replace the normals of the surface voxels `normals` lists ({voxel
    index: normal}) in grid.normals; the others keep theirs."""
    rows = grid.surface_rows(np.array(list(normals), dtype=int).reshape(-1, 3))
    assert (rows >= 0).all()
    new = grid.normals.copy()
    new[rows] = list(normals.values())
    new.setflags(write=False)
    grid.normals = new  # the cached value


def box_grid(dims, lo, hi, voxel_size=0.01, origin=(0.0, 0.0, 0.0)) -> VoxelGrid:
    """Grid with the inclusive index box [lo, hi] occupied."""
    occ = np.zeros(dims, dtype=bool)
    occ[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] = True
    return make_grid(occ, voxel_size, origin)


def cube_mesh(size=1.0, center=(0.0, 0.0, 0.0)) -> Mesh:
    h = size / 2.0
    c = np.asarray(center, dtype=float)
    corners = np.array(
        [[sx, sy, sz] for sx in (-h, h) for sy in (-h, h) for sz in (-h, h)]
    ) + c
    # two triangles per face, outward winding not required by the voxelizer
    faces = [
        (0, 1, 3), (0, 3, 2),  # -x
        (4, 6, 7), (4, 7, 5),  # +x
        (0, 4, 5), (0, 5, 1),  # -y
        (2, 3, 7), (2, 7, 6),  # +y
        (0, 2, 6), (0, 6, 4),  # -z
        (1, 5, 7), (1, 7, 3),  # +z
    ]
    return Mesh(corners, np.array(faces))


def icosphere_mesh(radius=0.5, subdivisions=3, center=(0.0, 0.0, 0.0)) -> Mesh:
    """Subdivided icosahedron with vertices projected onto the sphere."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.asarray(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts) * radius + np.asarray(center, dtype=float)
    return Mesh(v, np.array(faces))


def write_obj(mesh: Mesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]} {v[1]} {v[2]}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def segment_hits_aabb(origin, end, lo, hi) -> bool:
    """Exact slab test: does the open segment origin->end cross [lo, hi]?"""
    d = end - origin
    t0, t1 = 0.0, 1.0
    for a in range(3):
        if d[a] == 0.0:
            if origin[a] < lo[a] or origin[a] > hi[a]:
                return False
            continue
        ta = (lo[a] - origin[a]) / d[a]
        tb = (hi[a] - origin[a]) / d[a]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return t1 > 0.0 and t0 < 1.0


def _clip_to_box(origin, direction, lo, hi, t_max):
    """Scalar slab clip of [0, t_max] to [lo, hi); (t_enter, t_exit) or None.
    The box is half-open on its upper faces, like the grid cells it holds."""
    t0, t1 = 0.0, t_max
    for a in range(3):
        d = direction[a]
        if d == 0.0:
            if origin[a] < lo[a] or origin[a] >= hi[a]:
                return None
            continue
        ta = (lo[a] - origin[a]) / d
        tb = (hi[a] - origin[a]) / d
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return None
    return t0, t1


def traverse(grid: VoxelGrid, origin, direction, max_distance):
    """Scalar Amanatides & Woo walk: yield (index, entry_distance) for every
    cell the ray passes through, in order. The oracle for voxelgeom.ray_cast."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    vs = grid.voxel_size
    lo = grid.origin
    hi = grid.origin + np.asarray(grid.dims, dtype=float) * vs
    clipped = _clip_to_box(origin, direction, lo, hi, max_distance)
    if clipped is None:
        return
    t0, t1 = clipped
    p = origin + direction * t0
    idx = [0, 0, 0]
    step = [0, 0, 0]
    t_next = [math.inf] * 3
    t_delta = [math.inf] * 3
    for a in range(3):
        i = int(math.floor((p[a] - lo[a]) / vs))
        i = min(max(i, 0), grid.dims[a] - 1)
        idx[a] = i
        d = direction[a]
        if d > 0:
            step[a] = 1
            t_next[a] = ((i + 1) * vs + lo[a] - origin[a]) / d
            t_delta[a] = vs / d
        elif d < 0:
            step[a] = -1
            t_next[a] = (i * vs + lo[a] - origin[a]) / d
            t_delta[a] = -vs / d
    t = t0
    while t <= t1:
        yield (idx[0], idx[1], idx[2]), t
        a = 0
        if t_next[1] < t_next[a]:
            a = 1
        if t_next[2] < t_next[a]:
            a = 2
        t = t_next[a]
        idx[a] += step[a]
        if idx[a] < 0 or idx[a] >= grid.dims[a]:
            return
        t_next[a] += t_delta[a]


def oracle_ray_cast(grid: VoxelGrid, origin, direction, max_distance):
    """First occupied cell along the ray as (index, entry_distance), or None."""
    for idx, t in traverse(grid, origin, direction, max_distance):
        if grid.occupancy[idx]:
            return idx, t
    return None


def oracle_feasibility_reason(ctx: DeliveryContext, rotation) -> str | None:
    """The scalar feasibility check with no bound: every test on every point.
    The oracle for delivery.feasibility_reason."""

    def capsule_hit(points):
        rel = points - ctx.human.base_position
        z = np.clip(rel[:, 2], 0.0, ctx.human.height)
        d2 = rel[:, 0] ** 2 + rel[:, 1] ** 2 + (rel[:, 2] - z) ** 2
        return bool((d2 < BODY_CAPSULE_RADIUS * BODY_CAPSULE_RADIUS).any())

    obj_pts = ctx.ee_position + (ctx.grid.occupied_centers - ctx.held_point) @ rotation.T
    if float(obj_pts[:, 2].min()) < MIN_OBJECT_HEIGHT:
        return "object below clearance height"
    if capsule_hit(obj_pts):
        return "object penetrates receiver"
    if capsule_hit(ctx.gripper_points(rotation)):
        return "gripper penetrates receiver"
    cos_angle = float(np.dot(ctx.approach_axis(rotation), ctx.robot_to_human))
    if math.degrees(math.acos(min(max(cos_angle, -1.0), 1.0))) > APPROACH_CONE_DEG:
        return "approach axis outside delivery cone"
    return None


def _oracle_plane_dir(phi_deg, facing):
    phi = math.radians(phi_deg)
    return math.sin(phi) * facing - math.cos(phi) * UP


def oracle_forward_kinematics(shoulder_deg, elbow_deg, human):
    """Per-point (shoulder, elbow, hand) world points for one arm
    configuration. The oracle for ergonomics.forward_kinematics."""
    shoulder = human.shoulder_point
    elbow = shoulder + human.upper_arm_length * _oracle_plane_dir(shoulder_deg, human.facing)
    hand = elbow + human.forearm_length * _oracle_plane_dir(shoulder_deg + elbow_deg, human.facing)
    return shoulder, elbow, hand


def oracle_joint_torques(shoulder_deg, elbow_deg, object_mass, human):
    """Per-point |gravity torque| at (shoulder, elbow). The oracle for
    ergonomics.joint_torques."""
    shoulder, elbow, hand = oracle_forward_kinematics(shoulder_deg, elbow_deg, human)
    f = human.facing

    def x(p):
        return float(np.dot(p, f))

    m_upper = (human.upper_arm_mass, (shoulder + elbow) / 2.0)
    m_fore = (human.forearm_mass, (elbow + hand) / 2.0)
    m_hand = (human.hand_mass + object_mass, hand)
    tau_shoulder = sum(m * GRAVITY * (x(p) - x(shoulder)) for m, p in (m_upper, m_fore, m_hand))
    tau_elbow = sum(m * GRAVITY * (x(p) - x(elbow)) for m, p in (m_fore, m_hand))
    return abs(tau_shoulder), abs(tau_elbow)


def oracle_angle_grid(lo, hi, step):
    out, k = [], 0
    while lo + k * step <= hi + 1e-9:
        out.append(min(lo + k * step, hi))
        k += 1
    return out


def oracle_plan_position(human, object_mass, alpha, step):
    """The per-point arm sweep: (winner row, kept rows), each row a tuple
    (shoulder_deg, elbow_deg, hand, torque_raw, displacement_raw,
    effort_cost, displacement_cost, total_cost). The oracle for
    ergonomics.plan_handover_position."""
    kept = []
    for ts in oracle_angle_grid(*SHOULDER_RANGE_DEG, step):
        for te in oracle_angle_grid(*ELBOW_RANGE_DEG, step):
            _, _, hand = oracle_forward_kinematics(ts, te, human)
            if not (human.waist_height < hand[2] < human.shoulder_height):
                continue
            tau_s, tau_e = oracle_joint_torques(ts, te, object_mass, human)
            disp_raw = (SHOULDER_MID_DEG - ts) ** 2 + (ELBOW_MID_DEG - te) ** 2
            kept.append((ts, te, hand, tau_s * tau_s + tau_e * tau_e, disp_raw))
    t_max = max(row[3] for row in kept)
    d_max = max(row[4] for row in kept)
    rows = []
    for ts, te, hand, traw, draw in kept:
        ft = traw / t_max if t_max > 0 else 0.0
        fd = draw / d_max if d_max > 0 else 0.0
        rows.append((ts, te, hand, traw, draw, ft, fd, (1.0 - alpha) * ft + alpha * fd))
    winner = min(rows, key=lambda r: (r[7], r[5], r[0], r[1]))
    return winner, rows


def oracle_candidates_csv(rows) -> str:
    """The per-row ergonomics diagnostic table of oracle_plan_position rows."""
    out = ["shoulder_deg,elbow_deg,hand_x,hand_y,hand_z,effort_cost,displacement_cost,total_cost\n"]
    for ts, te, h, _, _, ft, fd, total in rows:
        out.append(f"{ts:.1f},{te:.1f},{h[0]:.6f},{h[1]:.6f},{h[2]:.6f},{ft:.9f},{fd:.9f},{total:.9f}\n")
    return "".join(out)


def oracle_collisions(gripper, rotations, translation, width, points) -> np.ndarray:
    """The (roll, point) mask form of the collision test: per rotation in the
    (R, 3, 3) stack, does any point fall inside a gripper box but outside the
    closing region? The oracle for grasping._collisions."""
    local = (points - translation) @ rotations
    ft, hfl, hw = gripper.finger_thickness, gripper.finger_length / 2.0, width / 2.0
    hx = ft / 2.0
    palm_z = (local[..., 2] >= hfl) & (local[..., 2] <= hfl + gripper.palm_depth)
    ax, ay, az = np.abs(local, out=local).transpose(2, 0, 1)
    in_x = ax <= hx
    finger = in_x & (ay >= hw) & (ay <= hw + ft) & (az <= hfl)
    palm = in_x & (ay <= hw + ft) & palm_z
    # a point in a box already has |x| <= hx, inside the region's x bound
    in_region = (ay <= hw + REGION_EPS) & (az <= hfl + REGION_EPS)
    return ((finger | palm) & ~in_region).any(axis=-1)


def oracle_block_occlusions(candidates, cluster, gripper, grid) -> list[float]:
    """Occlusion fractions scored in blocks of about 4096 pairs, with every
    (candidate, voxel) pair slab-tested against each of the three gripper
    boxes. The oracle for grasping._occlusions."""
    normals = by_index(grid.surface, grid.normals)
    members = list(map(tuple, cluster.member_indices.tolist()))
    centers = grid.centers(members)
    nrm = np.array([normals[i] for i in members])
    origins = centers + 1.5 * grid.voxel_size * nrm
    max_dist = OCCLUSION_RAY_FACTOR * gripper.finger_length
    block = max(1, 4096 // cluster.size)
    out: list[float] = []
    for start in range(0, len(candidates), block):
        chunk = candidates[start : start + block]
        rot = np.array([c.rotation for c in chunk])
        t = np.array([c.translation for c in chunk])[:, None, :]
        region = np.array([gripper.closing_region(c.width) for c in chunk])[:, :, None, :]
        boxes = np.array([gripper.boxes(c.width) for c in chunk])[:, :, :, None, :]
        local = (centers - t) @ rot
        hit = ((local >= region[:, 0] - REGION_EPS) & (local <= region[:, 1] + REGION_EPS)).all(axis=-1)
        o_loc = (origins - t) @ rot
        d_loc = nrm @ rot
        for b in range(boxes.shape[1]):
            hit |= segments_hit_boxes(o_loc, d_loc, max_dist, boxes[:, b, 0], boxes[:, b, 1])
        out.extend((np.count_nonzero(hit, axis=1) / cluster.size).tolist())
    return out


def oracle_cluster_contacts(cm, eps=None, min_pts=4) -> list[ContactCluster]:
    """DBSCAN with each neighbourhood found when the loop first needs it,
    from the 27 buckets (edge eps) around the point. The oracle for
    contacts.cluster_contacts."""
    grid = cm.grid
    if eps is None:
        eps = EPS_VOXELS * grid.voxel_size
    points = list(map(tuple, cm.contacts()[0].tolist()))
    centers = grid.centers(np.asarray(points, dtype=float))
    n = len(points)
    eps2 = eps * eps
    buckets: dict = {}
    keys = np.floor(centers / eps).astype(int)
    for i in range(n):
        buckets.setdefault((int(keys[i, 0]), int(keys[i, 1]), int(keys[i, 2])), []).append(i)

    def neighborhood(i: int) -> list[int]:
        kx, ky, kz = (int(v) for v in keys[i])
        found = np.array([
            j
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            for j in buckets.get((kx + dx, ky + dy, kz + dz), ())
        ])
        d = centers[found] - centers[i]
        near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= eps2
        return sorted(found[near].tolist())

    labels: list = [None] * n
    cid = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        seeds = neighborhood(i)
        if len(seeds) < min_pts:
            labels[i] = -1
            continue
        labels[i] = cid
        queue, qi = list(seeds), 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == -1:
                labels[j] = cid  # border point, reclaimed from noise
            if labels[j] is not None:
                continue
            labels[j] = cid
            nj = neighborhood(j)
            if len(nj) >= min_pts:
                queue.extend(nj)
        cid += 1
    members = [sorted(points[i] for i in range(n) if labels[i] == c) for c in range(cid)]
    members.sort(key=lambda m: (-len(m), m[0]))
    return [ContactCluster(m) for m in members]


def oracle_surface_voxels(grid) -> list:
    """Occupied cells with an unoccupied (or out-of-bounds) 6-neighbour, as
    index tuples in lexicographic order: one shifted slice per neighbour.
    The oracle for voxelgeom.surface_voxels."""
    occ = grid.occupancy
    padded = np.pad(occ, 1, mode="constant", constant_values=False)
    exposed = np.zeros_like(occ)
    for axis in range(3):
        for shift in (-1, 1):
            sl = [slice(1, -1)] * 3
            sl[axis] = slice(1 + shift, padded.shape[axis] - 1 + shift)
            exposed |= ~padded[tuple(sl)]
    return [tuple(int(v) for v in row) for row in np.argwhere(occ & exposed)]


def oracle_estimate_normals(grid) -> dict:
    """{surface voxel: outward normal}, the fallback taken one voxel at a
    time: the 26-neighbour gradient, else the direction from the occupied
    centroid, else +z. The oracle for voxelgeom.estimate_normals."""
    occ = grid.occupancy
    padded = np.pad(occ, 1, mode="constant", constant_values=False)
    surface = oracle_surface_voxels(grid)
    surf_arr = np.asarray(surface, dtype=int).reshape(-1, 3)
    acc = np.zeros((len(surf_arr), 3), dtype=float)
    base = surf_arr + 1  # padded coordinates
    for off in _OFFSETS_26:
        nb = base + off.astype(int)
        acc -= off * padded[nb[:, 0], nb[:, 1], nb[:, 2]][:, None]
    norms = np.linalg.norm(acc, axis=1)
    centroid = grid.occupied_centers.mean(axis=0) if grid.occupied_count else grid.origin
    out = {}
    for i, key in enumerate(surface):
        if norms[i] > 1e-12:
            out[key] = acc[i] / norms[i]
            continue
        v = grid.center(key) - centroid
        vn = float(np.linalg.norm(v))
        out[key] = v / vn if vn > 1e-12 else np.array([0.0, 0.0, 1.0])
    return out


def oracle_snap_to_surface(grid, idx):
    """Nearest surface voxel by center distance; ties break to the lowest
    (x, y, z) index. The per-voxel form of contacts._snap_to_surface."""
    surface = oracle_surface_voxels(grid)
    d2 = ((np.asarray(surface, dtype=float) - np.asarray(idx, dtype=float)) ** 2).sum(axis=1)
    return surface[int(np.argmin(d2))]  # the surface is sorted, argmin takes the first minimum


def oracle_register(grid, dense) -> dict:
    """{surface voxel: value} of a dense [x, y, z] contact array, one voxel at
    a time: each nonzero value moves to its nearest surface voxel when it is
    off the surface, and the max value wins a collision. The oracle for the
    registration step of contacts.load_contact_map."""
    surface_set = set(oracle_surface_voxels(grid))
    values = {}
    nonzero = dense != 0
    for idx, v in zip(map(tuple, np.argwhere(nonzero).tolist()), dense[nonzero].tolist()):
        key = idx if idx in surface_set else oracle_snap_to_surface(grid, idx)
        values[key] = max(values.get(key, 0.0), v)
    return values


def pipeline_context(scene: Scene, shared: SharedStages, lam: float) -> DeliveryContext:
    """The DeliveryContext run_pipeline plans on, for the top grasp at `lam`."""
    top = shared.ranking(lam)[0].candidate
    return DeliveryContext(
        grid=scene.grid, gripper=scene.gripper, grasp_rotation=top.rotation,
        held_point=top.translation, width=top.width, ee_position=shared.position()[0],
        human=scene.human, robot_base=scene.robot_base, body_proxy_dims=scene.body_proxy_dims,
    )


def absolutized_config(suite_dir, name):
    """A bundled scene's JSON with absolute data paths, to edit and write elsewhere."""
    cfg = json.loads((suite_dir / f"{name}.scene.json").read_text())
    cfg["object"]["vgrid"] = str(suite_dir / cfg["object"]["vgrid"])
    cfg["contact_maps"] = [str(suite_dir / p) for p in cfg["contact_maps"]]
    return cfg


@pytest.fixture(scope="session")
def suite_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("suite")
    suite.write_suite(d)
    return d


@pytest.fixture(scope="session")
def scenes(suite_dir) -> dict[str, Scene]:
    """Bundled scenes, loaded once per test run."""
    return {name: load_scene(suite_dir / f"{name}.scene.json") for name in suite.OBJECT_NAMES}


@pytest.fixture(scope="session")
def bundled_stages(scenes):
    """Per bundled scene and seed 0-4: a SharedStages ranked FULL-first (the
    scene's lam, then 1.0), one ranked A1-first (1.0, then the scene's lam),
    rank_grasps of the contenders (grasping.contenders) computed directly at
    each of the two lams, and the lam of every rank_grasps call the two
    SharedStages made."""
    out = {}
    real = harness.rank_grasps
    for name, scene in scenes.items():
        args = (scene.gripper, scene.grid)
        for seed in range(5):
            pair, calls = [], []

            def recording(candidates, cluster, lam, *rest):
                calls.append(lam)
                return real(candidates, cluster, lam, *rest)

            for lams in ((scene.params.lam, 1.0), (1.0, scene.params.lam)):
                shared = SharedStages(scene, seed)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(harness, "rank_grasps", recording)
                    for lam in lams:
                        shared.ranking(lam)
                pair.append(shared)
            shortlist = contenders(shared.candidates(), shared.cluster(), *args)
            fresh = {lam: real(shortlist, shared.cluster(), lam, *args) for lam in (scene.params.lam, 1.0)}
            out[name, seed] = (scene, *pair, fresh, calls)
    return out
