"""Contact maps: file ingestion, a thickness-based heuristic predictor, and
density clustering of contact voxels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voxelgeom import Index, VoxelGrid, read_grid_file, write_grid_file

CONTACT_THRESHOLD = 0.5  # a voxel whose value reaches this is a contact
DEFAULT_MIN_PTS = 4
EPS_VOXELS = 3.0  # default neighborhood radius, in voxel edge lengths


@dataclass
class ContactMap:
    """Per-voxel contact annotation over a grid.

    values holds only nonzero entries, keyed by voxel index; after ingestion
    every key is a surface voxel of the grid. CONTACT_THRESHOLD binarizes
    probabilistic maps for clustering and metric evaluation.
    """

    grid: VoxelGrid
    values: dict[Index, float]

    def __post_init__(self):
        for key, v in self.values.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"contact value at {key} must be finite and in [0, 1], got {v!r}")

    def contact_indices(self) -> list[Index]:
        """Voxels whose value reaches CONTACT_THRESHOLD, lexicographic order."""
        return sorted(i for i, v in self.values.items() if v >= CONTACT_THRESHOLD)


@dataclass
class ContactCluster:
    member_indices: list[Index]

    @property
    def size(self) -> int:
        return len(self.member_indices)


# -- ingestion ---------------------------------------------------------------


def _snap_to_surface(grid: VoxelGrid, idx: Index) -> Index:
    """Nearest surface voxel by center distance; ties break to the lowest
    (x, y, z) index."""
    surf = np.asarray(grid.surface, dtype=float)
    d2 = ((surf - np.asarray(idx, dtype=float)) ** 2).sum(axis=1)
    # grid.surface is lexicographically sorted and argmin returns the first minimum
    return grid.surface[int(np.argmin(d2))]


def load_contact_map(path, grid: VoxelGrid) -> ContactMap:
    """Read a 'VCONTACT 1' grid file (0/1 or float rows, values in [0, 1]) and
    register it to `grid`, whose dims, voxel_size and origin the header must
    repeat. Nonzero values landing off the surface are snapped to the nearest
    surface voxel (max value wins a collision).
    """
    dims, voxel_size, origin, dense = read_grid_file(path, "VCONTACT", floats=True)
    for key, got, want in (
        ("dims", dims, grid.dims),
        ("voxel_size", voxel_size, grid.voxel_size),
        ("origin", tuple(origin.tolist()), tuple(grid.origin.tolist())),
    ):
        if got != want:
            raise ValueError(f"{path}: {key} {got} does not match grid {key} {want}")
    nonzero = dense != 0
    if not nonzero.any():
        raise ValueError(f"{path}: empty contact map")
    surface_set = set(grid.surface)
    values: dict[Index, float] = {}
    # argwhere and the mask both walk cells in lexicographic (x, y, z) order
    for idx, v in zip(map(tuple, np.argwhere(nonzero).tolist()), dense[nonzero].tolist()):
        key = idx if idx in surface_set else _snap_to_surface(grid, idx)
        values[key] = max(values.get(key, 0.0), v)
    return ContactMap(grid, values)


def save_contact_map(cm: ContactMap, path) -> None:
    """Inverse of load_contact_map: 0/1 rows when every value is 0 or 1,
    float rows otherwise."""
    keys = np.array(list(cm.values), dtype=int).reshape(-1, 3)
    if ((keys < 0) | (keys >= cm.grid.dims)).any():
        raise ValueError("contact map key outside its grid")
    dense = np.zeros(cm.grid.dims)
    dense[tuple(keys.T)] = list(cm.values.values())
    write_grid_file(path, "VCONTACT", cm.grid, dense)


# -- heuristic predictor ------------------------------------------------------


def _run_lengths(occ: np.ndarray, axis: int) -> np.ndarray:
    """Length of the maximal consecutive occupied run containing each cell,
    along one axis. Zero on unoccupied cells."""
    moved = np.moveaxis(occ, axis, -1)
    rows = moved.reshape(-1, moved.shape[-1])
    starts = np.diff(np.pad(rows, ((0, 0), (1, 0))).view(np.int8), axis=1) == 1  # 0 -> 1 edges
    run_id = np.cumsum(starts, dtype=np.int32).reshape(rows.shape)  # runs never span two rows
    run_id[~rows] = 0  # id 0: unoccupied, length 0
    lengths = np.bincount(run_id.ravel())
    lengths[0] = 0
    return np.moveaxis(lengths[run_id].reshape(moved.shape), -1, axis)


def predict_contacts_heuristic(grid: VoxelGrid) -> ContactMap:
    """Grip-affordance stand-in: thin parts of an object attract contact.

    thickness(v) = min over the three axis directions of the occupied run
    length through v; probability(v) = clamp01((t_max - t) / (t_max - t_min))
    over the surface thickness distribution. Degenerate distributions
    (t_max == t_min, e.g. a bare rod or a single voxel) map to 1.0.
    """
    surface = grid.surface
    if not surface:
        raise ValueError("empty contact map")
    occ = grid.occupancy
    runs = np.minimum(
        np.minimum(_run_lengths(occ, 0), _run_lengths(occ, 1)), _run_lengths(occ, 2)
    )
    surf_arr = np.asarray(surface, dtype=int)
    thick = runs[surf_arr[:, 0], surf_arr[:, 1], surf_arr[:, 2]].astype(float)
    t_min = float(thick.min())
    t_max = float(thick.max())
    if t_max == t_min:
        return ContactMap(grid, dict.fromkeys(surface, 1.0))
    p = np.clip((t_max - thick) / (t_max - t_min), 0.0, 1.0)
    return ContactMap(grid, dict(zip(surface, p.tolist())))


# -- clustering ---------------------------------------------------------------


def cluster_contacts(cm: ContactMap, eps: float | None = None, min_pts: int = DEFAULT_MIN_PTS):
    """Density clustering (DBSCAN) of thresholded contact voxels.

    Neighborhoods are Euclidean over voxel centers, tested as squared
    distance <= eps**2; a point counts toward its own neighborhood. Seed and
    expansion order is lexicographic voxel-index order, which pins border
    point assignment. Noise is dropped. Clusters come back sorted by size
    descending, ties by lowest member index.
    """
    grid = cm.grid
    if eps is None:
        eps = EPS_VOXELS * grid.voxel_size
    points = cm.contact_indices()
    if not points:
        raise ValueError("empty contact map")
    centers = grid.centers(np.asarray(points, dtype=float))
    n = len(points)
    eps2 = eps * eps

    # bucket index at cell size eps: neighbor candidates come from the
    # 27 surrounding buckets
    buckets: dict[Index, list[int]] = {}
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
        # summed in the order of the scalar d0*d0 + d1*d1 + d2*d2
        near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= eps2
        return sorted(found[near].tolist())

    labels: list[int | None] = [None] * n
    NOISE = -1
    cid = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        seeds = neighborhood(i)
        if len(seeds) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cid
        queue = list(seeds)
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == NOISE:
                labels[j] = cid  # border point, reclaimed from noise
            if labels[j] is not None:
                continue
            labels[j] = cid
            nj = neighborhood(j)
            if len(nj) >= min_pts:
                queue.extend(nj)
        cid += 1

    clusters = []
    for c in range(cid):
        clusters.append(ContactCluster(sorted(points[i] for i in range(n) if labels[i] == c)))
    clusters.sort(key=lambda cl: (-cl.size, cl.member_indices[0]))
    return clusters


def largest_cluster(clusters) -> ContactCluster:
    """Biggest cluster; ties break to the one with the lowest member index."""
    if not clusters:
        raise ValueError("empty contact map")
    return min(clusters, key=lambda cl: (-cl.size, cl.member_indices[0]))
