"""Contact maps: file ingestion, a thickness-based heuristic predictor, and
density clustering of contact voxels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voxelgeom import VoxelGrid, _ranges, read_grid_rows, read_only, write_grid_file

CONTACT_THRESHOLD = 0.5  # a voxel whose value reaches this is a contact
DEFAULT_MIN_PTS = 4
EPS_VOXELS = 3.0  # default neighborhood radius, in voxel edge lengths


@dataclass(eq=False)
class ContactMap:
    """Per-voxel contact weights over a grid: `keys`, an (n, 3) integer array
    of voxel indices inside the grid, none repeated, and `values` in [0, 1],
    aligned; both held as read-only copies in lexicographic key order.
    Ingested keys are surface voxels with nonzero values (the heuristic map
    keeps zeros). CONTACT_THRESHOLD binarizes it for clustering and metrics.
    """

    grid: VoxelGrid
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        keys, values = np.asarray(self.keys), np.asarray(self.values, dtype=float)
        if values.ndim != 1 or keys.shape != (len(values), 3) or not np.issubdtype(keys.dtype, np.integer):
            raise ValueError(f"contact map needs (n, 3) integer keys for its n values, got {keys.dtype} keys "
                             f"of shape {keys.shape} for values of shape {values.shape}")
        bad = ~((values >= 0.0) & (values <= 1.0))
        if bad.any():
            raise ValueError(f"contact value at {tuple(keys[bad][0].tolist())} must be finite and in [0, 1], "
                             f"got {values[bad][0].item()!r}")
        outside = ((keys < 0) | (keys >= self.grid.dims)).any(axis=1)
        if outside.any():
            raise ValueError(f"contact map key {tuple(keys[outside][0].tolist())} lies outside its grid")
        order = np.argsort(np.ravel_multi_index(tuple(keys.T), self.grid.dims), kind="stable")
        self.keys, self.values = read_only(keys[order]), read_only(values[order])
        repeat = (self.keys[1:] == self.keys[:-1]).all(axis=1)
        if repeat.any():
            raise ValueError(f"contact map key {tuple(self.keys[1:][repeat][0].tolist())} repeats")

    def contacts(self):
        """(keys, values) of the voxels whose value reaches CONTACT_THRESHOLD, in key order."""
        hit = self.values >= CONTACT_THRESHOLD
        return self.keys[hit], self.values[hit]


@dataclass(eq=False)
class ContactCluster:
    """Member voxels, an (m, 3) integer array (lexicographic from cluster_contacts)."""

    member_indices: np.ndarray

    def __post_init__(self):
        self.member_indices = np.asarray(self.member_indices, dtype=int).reshape(-1, 3)

    @property
    def size(self) -> int:
        return len(self.member_indices)

    def rank(self) -> tuple:
        """Sort key of the clusters: size descending, then lowest member index."""
        return -self.size, *self.member_indices[0].tolist()


# -- ingestion ---------------------------------------------------------------

SNAP_CHUNK_PAIRS = 1 << 16  # (voxel, surface voxel) distances taken at a time


def _snap_to_surface(grid: VoxelGrid, cells: np.ndarray) -> np.ndarray:
    """grid.surface_rows of the (k, 3) cells, where each cell off the surface
    takes the row of the surface voxel nearest it by center distance. The
    squared distances are exact integers; a tie goes to the lowest row,
    which holds the lowest (x, y, z) index."""
    rows = grid.surface_rows(cells)
    off = np.flatnonzero(rows < 0)
    step = max(1, SNAP_CHUNK_PAIRS // max(len(grid.surface), 1))
    for a in range(0, len(off), step):
        k = off[a : a + step]
        rows[k] = np.argmin(np.square(grid.surface - cells[k, None]).sum(axis=-1), axis=1)  # first minimum
    return rows


def load_contact_map(path, grid: VoxelGrid) -> ContactMap:
    """Read a 'VCONTACT 1' grid file (0/1 or float rows, values in [0, 1]) and
    register it to `grid`, whose dims, voxel_size and origin the header must
    repeat. Each nonzero value lands on its surface row; one off the surface
    snaps to the nearest surface voxel, and the max value wins a collision.
    The nonzero surface rows are the map's keys, already in order.
    """
    dims, voxel_size, origin, rows = read_grid_rows(path, "VCONTACT", True)
    for key, got, want in (
        ("dims", dims, grid.dims),
        ("voxel_size", voxel_size, grid.voxel_size),
        ("origin", tuple(origin.tolist()), tuple(grid.origin.tolist())),
    ):
        if got != want:
            raise ValueError(f"{path}: {key} {got} does not match grid {key} {want}")
    nonzero = np.flatnonzero(rows != 0)  # the rows as read, 0/1 digits or floats; max is order-free
    if not len(nonzero):
        raise ValueError(f"{path}: empty contact map")
    if not len(grid.surface):
        raise ValueError(f"{path}: the grid has no surface voxel to register contacts to")
    cells = np.stack(np.unravel_index(nonzero, dims[::-1])[::-1], axis=1)
    top = np.zeros(len(grid.surface))
    np.maximum.at(top, _snap_to_surface(grid, cells), rows.reshape(-1)[nonzero].astype(float))
    kept = top != 0
    return ContactMap(grid, grid.surface[kept], top[kept])


def save_contact_map(cm: ContactMap, path) -> None:
    """Inverse of load_contact_map: 0/1 rows when every value is 0 or 1,
    float rows otherwise."""
    dense = np.zeros(cm.grid.dims)
    dense[tuple(cm.keys.T)] = cm.values
    write_grid_file(path, "VCONTACT", cm.grid, dense)


# -- heuristic predictor ------------------------------------------------------


def _surface_run_lengths(grid: VoxelGrid) -> np.ndarray:
    """(n, 3) lengths of the occupied runs along x, y and z through each surface
    voxel. Runs start and end on surface voxels, so with those ordered line by
    line along an axis, a run's length is its end key minus its start key plus 1."""
    surface, occ = grid.surface, grid.padded.reshape(-1)
    cells = np.ravel_multi_index(tuple(surface.T + 1), grid.padded.shape)
    runs = np.empty(surface.shape, dtype=int)
    for axis, stride in enumerate(grid.padded.strides):  # uint8 cells: byte strides are cell strides
        roll = np.roll(np.arange(3), 2 - axis)  # the axis last: one line's voxels have consecutive keys
        keys = np.ravel_multi_index(tuple(surface[:, roll].T), np.take(grid.dims, roll))
        order = np.argsort(keys)
        keys, at = keys[order], cells[order]
        starts = np.maximum.accumulate(np.where(occ[at - stride] != 1, keys, -1))
        ends = np.minimum.accumulate(np.where(occ[at + stride] != 1, keys, occ.size)[::-1])[::-1]
        runs[order, axis] = ends - starts + 1
    return runs


def predict_contacts_heuristic(grid: VoxelGrid) -> ContactMap:
    """Grip-affordance stand-in: thin parts of an object attract contact.

    thickness(v) = min over the three axis directions of the occupied run
    length through surface voxel v, read off the surface voxels alone;
    probability(v) = clamp01((t_max - t) / (t_max - t_min)) over the surface
    thickness distribution. Degenerate distributions (t_max == t_min, e.g. a
    bare rod or a single voxel) map to 1.0.
    """
    surface = grid.surface
    if not len(surface):
        raise ValueError("empty contact map")
    thick = _surface_run_lengths(grid).min(axis=1).astype(float)
    t_min, t_max = float(thick.min()), float(thick.max())
    if t_max == t_min:
        return ContactMap(grid, surface, np.ones(len(surface)))
    return ContactMap(grid, surface, np.clip((t_max - thick) / (t_max - t_min), 0.0, 1.0))


# -- clustering ---------------------------------------------------------------

STENCIL_CHUNK = 2048  # (point, stencil run) lookups per chunk; a chunk also stops at 4x as many candidate pairs


def cluster_contacts(cm: ContactMap, eps: float | None = None, min_pts: int = DEFAULT_MIN_PTS):
    """Density clustering (DBSCAN) of thresholded contact voxels.

    Neighborhoods are Euclidean over voxel centers, tested as squared
    distance <= eps**2; a point counts toward its own neighborhood. Seeds
    are core points in lexicographic voxel-index order, which pins border
    point assignment (to the first cluster that reaches it). Noise is
    dropped. Clusters come back sorted by size descending, ties by lowest
    member index. All neighborhoods are built first, as arrays, from a lattice
    stencil; a cluster then grows from its seed one ring of core points at a time."""
    grid = cm.grid
    eps = EPS_VOXELS * grid.voxel_size if eps is None else eps
    points = cm.contacts()[0]
    if not len(points):
        raise ValueError("empty contact map")
    start, nbr = _neighborhoods(grid, points, eps)
    core = np.diff(start) >= min_pts
    labels = np.full(len(points), -1)  # -1: in no cluster (yet)
    cid = 0
    for seed in np.flatnonzero(core).tolist():
        if labels[seed] < 0:
            ring = np.array([seed])  # the seed is its own neighbor, so the first ring labels it
            while len(ring):
                reached = nbr[_ranges(start[ring], start[ring + 1] - start[ring])]
                labels[reached[labels[reached] < 0]] = -2  # reached now: listed once below
                reached = np.flatnonzero(labels == -2)
                labels[reached] = cid
                ring = reached[core[reached]]
            cid += 1
    return sorted((ContactCluster(points[labels == c]) for c in range(cid)), key=ContactCluster.rank)


def _neighborhoods(grid: VoxelGrid, points, eps: float):
    """Every neighborhood as CSR arrays (start, nbr): point i's neighbors are
    the j in nbr[start[i]:start[i + 1]] with d0*d0 + d1*d1 + d2*d2 <= eps*eps
    for d = centers[j] - centers[i]. j is gathered only at the lattice offsets
    within eps / voxel_size plus 1e-12 of the centers' scale in voxels (the
    test rounds by under 1e-15 of it). A (dx, dy) column's z range, padded so
    it cannot wrap, is one run of the sorted keys, found by two searchsorted
    calls; the columns of a dx row that span the points' box in z are one."""
    centers, vs = grid.centers(points), grid.voxel_size
    low = points.min(axis=0)
    ext = points.max(axis=0) - low + 1
    scale = (np.abs(centers).max() + np.abs(grid.origin).max()) / vs + 1.0
    reach = min(eps / vs + 1e-12 * (eps / vs + scale), float(ext.sum()))  # the box holds no longer offset
    pad = np.minimum(int(reach), ext - 1)
    span = ext + 2 * pad
    dx, dy = np.ogrid[-pad[0] : pad[0] + 1, -pad[1] : pad[1] + 1]
    rem = reach * reach - dx * dx - dy * dy
    hz = np.minimum(np.sqrt(np.maximum(rem, 0.0)).astype(int), pad[2])
    full = (rem >= 0) & (hz == ext[2] - 1)  # symmetric in dy: the first full column's run reaches the last
    run = (rem >= 0) & (~full | (np.cumsum(full, axis=1) == 1))
    lo = (dx * (span[1] * span[2]) + dy * span[2] - hz)[run][:, None]
    hi = (dx * (span[1] * span[2]) + np.where(full, -dy, dy) * span[2] + hz)[run][:, None]
    keys = (points - low + pad) @ np.array([span[1] * span[2], span[2], 1])  # ascending, as points are
    step = max(1, STENCIL_CHUNK // len(lo))
    count, nbr, a = np.zeros(len(points), dtype=int), [], 0
    while a < len(points):
        at = keys[a : a + step]
        first = np.searchsorted(keys, lo + at)  # (run, point): each run's queries ascend
        size = np.searchsorted(keys, hi + at, side="right") - first
        per = size.sum(axis=0)  # >= 1: every point gathers itself
        k = max(1, int(np.searchsorted(np.cumsum(per), 4 * STENCIL_CHUNK, side="right")))
        j = _ranges(first[:, :k].T.ravel(), size[:, :k].T.ravel())
        d = np.square(centers.take(j, axis=0) - np.repeat(centers[a : a + k], per[:k], axis=0))
        near = d[:, 0] + d[:, 1] + d[:, 2] <= eps * eps
        nbr.append(j[near].astype(np.int32))  # 4 bytes a pair
        count[a : a + k] = np.add.reduceat(near, np.cumsum(per[:k]) - per[:k], dtype=int)
        a += k
    return np.concatenate([[0], np.cumsum(count)]), np.concatenate(nbr)


def largest_cluster(clusters) -> ContactCluster:
    """Biggest cluster; ties break to the one with the lowest member index."""
    if not clusters:
        raise ValueError("empty contact map")
    return min(clusters, key=ContactCluster.rank)
