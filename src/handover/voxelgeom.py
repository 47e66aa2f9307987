"""Voxel-grid substrate: solid voxelization, surface extraction, normals, ray casting.

Conventions used throughout the package:
  * world frame is z-up, units are meters, angles are degrees at API boundaries
  * a grid cell (x, y, z) owns the half-open world cube
    [origin + i*voxel_size, origin + (i+1)*voxel_size) per axis
  * cell centers sit at origin + (i + 0.5) * voxel_size
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

Index = tuple[int, int, int]

# 26-neighborhood offsets, fixed order (lexicographic, no zero vector: row 13 of the 27)
_OFFSETS_26 = np.delete(np.indices((3, 3, 3)).reshape(3, -1).T - 1, 13, axis=0).astype(float)
AIM_OFFSET_VOXELS = 1.5  # sight lines and occlusion rays meet a contact voxel this many edges off its face


@dataclass
class Mesh:
    """Triangle soup with shared vertices.

    vertices: (n, 3) float array in meters.
    faces: (m, 3) int array of vertex indices.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be (m, 3)")
        if ((self.faces < 0) | (self.faces >= len(self.vertices))).any():
            raise ValueError(f"faces must be vertex indices in [0, {len(self.vertices)})")


def load_obj(path) -> Mesh:
    """Parse the v/f subset of Wavefront OBJ. Indices are 1-based; 'f a/b/c'
    forms are accepted (only the vertex index is used). A face of n >= 3
    vertices becomes the n - 2 triangles of a fan from its first vertex,
    which assumes a convex planar face."""
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            tag = tokens[0]
            if tag == "v":
                if len(tokens) < 4:
                    raise ValueError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad vertex coordinate") from exc
            elif tag == "f":
                if len(tokens) < 4:
                    raise ValueError(f"{path}:{lineno}: face needs 3 indices")
                idx = []
                for tok in tokens[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: bad face index {tok!r}") from exc
                    if i < 0:
                        i = len(vertices) + 1 + i
                    idx.append(i - 1)
                faces += [(idx[0], idx[k], idx[k + 1]) for k in range(1, len(idx) - 1)]
            # other record types (vn, vt, o, g, s, usemtl, ...) are ignored
    if not faces:
        raise ValueError(f"{path}: empty mesh")
    try:
        return Mesh(np.asarray(vertices, dtype=float).reshape(-1, 3), faces)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(eq=False)
class VoxelGrid:
    """Dense boolean occupancy over a cubic-cell lattice.

    occupancy is indexed [x, y, z]; it and origin are held as read-only
    copies, so no caller's array can move the grid or its cached values.
    The derived surface and normal arrays are cached lazily, read-only too.
    """

    dims: tuple[int, int, int]
    voxel_size: float
    origin: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be >= 1 per axis")
        self.voxel_size = float(self.voxel_size)
        if not (0 < self.voxel_size < math.inf):
            raise ValueError("voxel_size must be positive and finite")
        self.origin = read_only(np.array(self.origin, dtype=float).reshape(3))
        if not np.isfinite(self.origin).all():
            raise ValueError("origin must be finite")
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != self.dims:
            raise ValueError(f"occupancy shape {occ.shape} != dims {self.dims}")
        self.occupancy = read_only(occ.copy())

    # -- geometry helpers -------------------------------------------------

    def center(self, idx) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.voxel_size

    def centers(self, indices) -> np.ndarray:
        arr = np.asarray(indices, dtype=float).reshape(-1, 3)
        return self.origin + (arr + 0.5) * self.voxel_size

    @property
    def occupied_count(self) -> int:
        return len(self.cells)

    @cached_property
    def occupied_centers(self) -> np.ndarray:
        return self.centers(self.indices(self.cells))

    @cached_property
    def surface(self) -> np.ndarray:
        return read_only(surface_voxels(self))

    @cached_property
    def normals(self) -> np.ndarray:
        return read_only(estimate_normals(self))

    @cached_property
    def padded(self) -> np.ndarray:
        """occupancy as read-only uint8 in a one-cell border: 0 empty, 1 occupied, 2 outside."""
        return read_only(np.pad(self.occupancy.view(np.uint8), 1, constant_values=2))

    @cached_property
    def cells(self) -> np.ndarray:
        """Flat indices into `padded` of the occupied cells, in (x, y, z) order."""
        return read_only(np.flatnonzero(self.padded.reshape(-1) == 1))

    @cached_property
    def surface_keys(self) -> np.ndarray:
        """The surface's linear keys, ascending, closed by a sentinel no cell reaches."""
        return read_only(np.append(np.ravel_multi_index(tuple(self.surface.T), self.dims), self.occupancy.size))

    def indices(self, cells) -> np.ndarray:  # the (n, 3) index of each flat index into `padded`
        return np.stack(np.unravel_index(cells, self.padded.shape), axis=-1) - 1

    def surface_rows(self, indices) -> np.ndarray:
        """Row in `surface` of each integer index (xyz on the last axis), -1
        off the surface: one sorted lookup of the cells' linear keys. Each
        axis is read as one row, fastest when the indices are the moveaxis
        view of axes-first (3, ...) rows."""
        idx = np.moveaxis(np.asarray(indices), -1, 0)
        keys = np.ravel_multi_index(tuple(idx), self.dims, mode="clip")
        keys[np.logical_or.reduce([(i < 0) | (i >= d) for i, d in zip(idx, self.dims)])] = -1  # off the grid
        rows = np.searchsorted(self.surface_keys, keys)
        return np.where(self.surface_keys[rows] == keys, rows, -1)


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, its buffer made read-only."""
    a.setflags(write=False)
    return a


def _ranges(first, lens) -> np.ndarray:
    """first[k], first[k] + 1, ..., first[k] + lens[k] - 1 for each k, in one array."""
    return np.repeat(first - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


# -- voxelization ----------------------------------------------------------

VOXELIZE_CHUNK_PAIRS = 2048  # (triangle, column) pairs tested at a time


def _edge(ax, ay, bx, by, px, py):
    """2D edge function: cross(b - a, p - a). Positive = p left of a->b."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def voxelize_mesh(mesh: Mesh, dims=(64, 64, 64), padding: float = 0.05) -> VoxelGrid:
    """Solid voxelization by even-odd parity of surface crossings along +z.

    `dims` are integers >= 1 and `padding` is a finite number >= 0; others
    are a ValueError naming the argument. The grid is sized so the mesh
    bounding box (expanded by `padding` as a fraction of its extent, per
    side) fits inside `dims` with cubic cells; the mesh is centered in the grid.

    A cell is occupied iff its center sees an odd number of triangle
    crossings at or below it along z. Shared triangle edges are resolved
    with a consistent perturbation rule so watertight meshes fill without
    seams. The (triangle, column) pairs are tested as arrays, in blocks of
    VOXELIZE_CHUNK_PAIRS; each crossing toggles the parity from the first
    cell center at or above it, and one running xor along z fills the grid.
    """
    dims = tuple(check_value("integer", d, "dims", "[1, inf)") for d in dims)
    padding = check_value("number", padding, "padding", "[0, inf)")
    if len(mesh.faces) == 0:
        raise ValueError("empty mesh")
    verts = mesh.vertices
    if not np.isfinite(verts).all():
        raise ValueError("mesh larger than representable extent: non-finite vertex")
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    extent = hi - lo
    if float(extent.max()) <= 0:
        raise ValueError("mesh larger than representable extent: zero-extent bounding box")
    padded = extent * (1.0 + 2.0 * padding)
    voxel_size = float(max(padded[a] / dims[a] for a in range(3)))
    if not (voxel_size > 0 and math.isfinite(voxel_size)):
        raise ValueError("mesh larger than representable extent")
    mid = (lo + hi) / 2.0
    origin = mid - np.asarray(dims, dtype=float) * voxel_size / 2.0

    nx, ny, nz = dims
    zc = origin[2] + (np.arange(nz) + 0.5) * voxel_size  # z of the cell centers, shared by every column
    c0 = origin[:2] + 0.5 * voxel_size  # xy of column (0, 0)
    tri = verts[mesh.faces]  # [triangle, vertex, xyz]
    area2 = _edge(tri[:, 0, 0], tri[:, 0, 1], tri[:, 1, 0], tri[:, 1, 1], tri[:, 2, 0], tri[:, 2, 1])
    tri[area2 < 0] = tri[area2 < 0][:, [0, 2, 1]]  # counter-clockwise in xy
    tri = tri[area2 != 0.0]  # zero xy area: a vertical wall, crossing no column
    # each triangle's columns: the centers in its xy bounding box, clamped to the grid
    first = np.maximum(np.ceil((tri[..., :2].min(axis=1) - c0) / voxel_size), 0).astype(int)
    last = np.minimum(np.floor((tri[..., :2].max(axis=1) - c0) / voxel_size), (nx - 1, ny - 1)).astype(int)
    size = np.maximum(last - first + 1, 0)
    count = size[:, 0] * size[:, 1]
    stop = np.cumsum(count)
    flips = np.zeros((nx, ny, nz + 1), dtype=bool)  # a crossing above every center flips index nz
    for start in range(0, int(count.sum()), VOXELIZE_CHUNK_PAIRS):
        pair = np.arange(start, min(start + VOXELIZE_CHUNK_PAIRS, stop[-1]))
        t = np.searchsorted(stop, pair, side="right")  # each pair's triangle
        rank = pair - stop[t] + count[t]  # its column among the triangle's, x-major
        col = first[t] + np.stack(np.divmod(rank, size[t, 1]), axis=1)
        p = c0 + col * voxel_size
        # [edge, pair]: edge k runs from a to b, the vertices after vertex k
        ax, ay, bx, by = (tri[t, k, i] for k in ([[1], [2], [0]], [[2], [0], [1]]) for i in (0, 1))
        w = _edge(ax, ay, bx, by, p[:, 0], p[:, 1])
        # tie rule: a center on an edge counts iff a +x-infinitesimal perturbation lands strictly inside
        hit = ((w > 0) | ((w == 0) & ((by < ay) | ((by == ay) & (bx > ax))))).all(axis=0)
        (w0, w1, w2), (z0, z1, z2), col = w[:, hit], tri[t[hit], :, 2].T, col[hit]
        zhit = (w0 * z0 + w1 * z1 + w2 * z2) / (w0 + w1 + w2)
        np.logical_xor.at(flips, (col[:, 0], col[:, 1], np.searchsorted(zc, zhit)), True)
    return VoxelGrid(dims, voxel_size, origin, np.logical_xor.accumulate(flips[..., :nz], axis=2))


# -- surface + normals -----------------------------------------------------


def surface_voxels(grid: VoxelGrid) -> np.ndarray:
    """Occupied cells with at least one unoccupied 6-neighbor (out-of-bounds
    counts as unoccupied), as an (n, 3) integer array in lexicographic
    (x, y, z) order: the grid.cells with a value other than 1 one stride away in `padded`."""
    occ, cells = grid.padded.reshape(-1), grid.cells  # uint8 cells: byte strides are cell strides
    exposed = np.logical_or.reduce([occ[cells + s] != 1 for d in grid.padded.strides for s in (-d, d)])
    return grid.indices(cells[exposed])


def estimate_normals(grid: VoxelGrid) -> np.ndarray:
    """Outward unit normals as an (n, 3) array: row i is the normal of
    surface voxel grid.surface[i].

    Primary estimate is the negative local occupancy gradient: the sum of
    directions from occupied 26-neighbors (gathered from `padded`) to the
    voxel. Where that sum vanishes, fall back to the direction from the
    occupied centroid to the voxel center; a lone voxel gets +z.
    """
    surf = grid.surface
    strides = np.array(grid.padded.strides)  # uint8 cells: byte strides are cell strides
    near = grid.padded.reshape(-1)[((surf + 1) @ strides)[:, None] + _OFFSETS_26.astype(int) @ strides] == 1
    acc = 0.0 - near @ _OFFSETS_26  # integer sums, so exact; "0.0 -" makes a vanishing sum +0.0, not -0.0
    norms = np.linalg.norm(acc, axis=1)
    centroid = grid.occupied_centers.mean(axis=0) if grid.occupied_count else grid.origin
    flat = norms <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        out = acc / norms[:, None]
        v = grid.centers(surf[flat]) - centroid
        vn = np.sqrt(row_dots(v, v))[:, None]  # np.linalg.norm per row
        out[flat] = np.where(vn > 1e-12, v / vn, [0.0, 0.0, 1.0])
    return out


# -- ray casting -----------------------------------------------------------


def cos_sin_deg(deg) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of angles in degrees, in their shape. Both come from math,
    once per distinct angle: np.cos and np.sin can round differently."""
    deg = np.asarray(deg, dtype=float)
    angles, inverse = np.unique(deg, return_inverse=True)
    rad = [math.radians(a) for a in angles.tolist()]
    return tuple(np.array([f(r) for r in rad])[inverse].reshape(deg.shape) for f in (math.cos, math.sin))


def row_dots(a, b) -> np.ndarray:
    """np.dot of each row pair of two (n, 3) stacks, rounded exactly as the
    per-row call (einsum and (a * b).sum can differ in the last bit)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _slab(origins, dirs, t_max, lo, hi):
    """Slab clip (Kay & Kajiya 1986) of o + t d, 0 <= t <= t_max (finite),
    against the closed box [lo, hi]; returns (t0, t1, ok) with [t0, t1] the
    clipped range. A direction component of exactly 0 gives (bound - o) / 0
    = +-inf, which bounds nothing from inside the slab and empties the range
    from outside it, or NaN from a bound plane, which fmax and fmin skip."""
    t0, t1 = 0.0, t_max  # each takes the broadcast shape from the first axis
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            ta = (lo[..., a] - origins[..., a]) / dirs[..., a]
            tb = (hi[..., a] - origins[..., a]) / dirs[..., a]
            t0 = np.fmax(t0, np.minimum(ta, tb))
            t1 = np.fmin(t1, np.maximum(ta, tb))
    # t0 only grows and t1 only shrinks, so one final check covers every axis
    return t0, t1, t0 <= t1


def segments_hit_boxes(origins, dirs, t_max, lo, hi, open_end=False) -> np.ndarray:
    """Batched slab test over the last axis: does the segment o + t d,
    0 <= t <= t_max (finite), meet the closed box [lo, hi]?

    All arguments broadcast against each other (xyz on the last axis; t_max
    without it). A segment parallel to a slab hits only from inside it. With
    `open_end` the segment must enter the box strictly before t_max, so one
    that only touches it at its end point misses.
    """
    t0, _, ok = _slab(origins, dirs, t_max, lo, hi)
    return ok & (t0 < t_max) if open_end else ok


def ray_cast(grid: VoxelGrid, origins, dirs, t_max) -> np.ndarray:
    """Blocked mask: does the segment o + t d, 0 <= t <= t_max, pass through
    an occupied cell of `grid`? One entry per segment.

    origins and dirs broadcast to (n, 3); t_max is a finite scalar or one
    length per segment. All segments step through the grid together, each by the
    incremental walk of Amanatides & Woo (1987): clip to the grid box, start
    in the cell holding the entry point (clamped into the grid), then move
    to the neighbour across the nearest cell face until an occupied cell
    (blocked), the clipped end or the grid's edge. A segment holds its
    cell's flat index into grid.padded and one flat jump per axis, so a step
    is one argmin, one jump and one gather, and the edge is a border cell.
    A line that stops is frozen in place (no jump, reading 2 each step), and
    the live lines are copied out only once half the held lines are frozen.
    Like the cells it holds, the grid box is half-open on its upper faces: a
    segment with a direction component of exactly 0 that lies on such a face
    misses it.
    """
    origins, dirs, t_max = np.broadcast_arrays(
        np.atleast_2d(origins), np.atleast_2d(dirs), np.asarray(t_max, dtype=float)[..., None]
    )
    vs = grid.voxel_size
    lo = grid.origin
    dims = np.asarray(grid.dims)
    hi = lo + dims * vs
    t0, t1, live = _slab(origins, dirs, t_max[:, 0], lo, hi)
    live &= ~((dirs == 0.0) & (origins >= hi)).any(axis=-1)
    blocked = np.zeros(len(live), dtype=bool)
    rows = np.flatnonzero(live)
    o, d, t1 = origins[rows], dirs[rows], t1[rows]
    p = o + d * t0[rows, None]
    cell = np.clip(np.floor((p - lo) / vs), 0, dims - 1).astype(int)
    strides = np.array([(dims[1] + 2) * (dims[2] + 2), dims[2] + 2, 1])
    flat = (cell + 1) @ strides
    jump = np.sign(d).astype(int) * strides
    with np.errstate(divide="ignore", invalid="ignore"):
        t_next = np.where(d == 0.0, np.inf, ((cell + (d > 0)) * vs + lo - o) / d)
        t_delta = np.where(d == 0.0, np.inf, np.abs(vs / d))
    occ = grid.padded.reshape(-1)
    state = occ[flat]  # the entry cell lies in the grid
    # line k's axis a sits at 3 k + a of the (n, 3) arrays read flat
    base, tn, td, jp = np.arange(0, 3 * len(rows), 3), t_next.reshape(-1), t_delta.reshape(-1), jump.reshape(-1)
    n_frozen = 0
    while len(rows):
        if (n_stopped := np.count_nonzero(state)) > n_frozen:  # about half the steps stop no line
            stop = (state != 0) & (t1 > -np.inf)  # a frozen line has t1 = -inf
            blocked[rows[stop]] = state[stop] == 1
            jump[stop], t1[stop], n_frozen = 0, -np.inf, n_stopped  # frozen: it stays put and reads 2
            if 2 * n_stopped >= len(rows):  # copy out the live lines
                go, n_frozen = state == 0, 0
                rows, flat, t1, t_next, t_delta, jump = (v[go] for v in (rows, flat, t1, t_next, t_delta, jump))
                base, tn, td, jp = base[: len(rows)], t_next.reshape(-1), t_delta.reshape(-1), jump.reshape(-1)
        at = np.argmin(t_next, axis=1) + base  # first minimum on ties
        t = tn[at]
        flat += jp[at]
        tn[at] = t + td[at]
        state = occ[flat]
        state[t > t1] = 2  # the next cell starts past the clipped end: clear
    return blocked


# -- value rules -----------------------------------------------------------
#
# A scene value states its rule once, on its dataclass field, as
# rule(default, kind, bound). check_fields applies the rules of one object,
# and check_value one rule to a value that no dataclass holds. Kinds:
# "number" (stored as float), "integer" (an integral number, stored as int),
# "vector" (3 numbers, stored as a tuple of floats), "string" and "paths" (a
# list of strings); a trailing "?" also allows null. bool is never a number.
# Each number must lie in the bound, an interval such as "(0, 1]".

_KIND_WANT = {"number": "a finite number", "integer": "an integer", "vector": "3 finite numbers",
              "string": "a string", "paths": "a list of file paths"}


def check_value(kind: str, value, label: str, bound: str = "(-inf, inf)"):
    """`value` as its kind stores it; a ValueError naming `label` when it is
    not of `kind` or one of its numbers lies outside `bound`."""
    base = kind.rstrip("?")
    if value is None and base != kind:
        return None
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if base == "string" and isinstance(value, str):
        return value
    if base == "paths" and isinstance(value, list) and all(isinstance(p, str) for p in value):
        return value
    if base == "vector":
        nums = list(value) if isinstance(value, (list, tuple)) and len(value) == 3 else []
    else:
        nums = [value] if base in ("number", "integer") else []
    lo, hi = (float(s) for s in bound[1:-1].split(","))
    if not nums or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        and (base != "integer" or v == int(v))
        and (lo < v if bound[0] == "(" else lo <= v) and (v < hi if bound[-1] == ")" else v <= hi)
        for v in nums
    ):
        want = _KIND_WANT[base] + ("" if bound == "(-inf, inf)" else f" in {bound}")
        raise ValueError(f"{label} must be {want}{', or null' if base != kind else ''}, got {value!r}")
    return tuple(map(float, nums)) if base == "vector" else int(value) if base == "integer" else float(value)


def rule(default, kind: str, bound: str = "(-inf, inf)", section: str | None = None):
    """A dataclass field that check_fields holds to `kind` and `bound`.
    `section` names it in messages where the object's section does not."""
    return field(default=default, metadata={"rule": (kind, bound, section)})


def check_fields(obj, section: str) -> None:
    """Check each rule field of dataclass `obj` and store its value as its
    kind stores it. Messages name a field as "<section> '<name>'"."""
    for f in fields(obj):
        if "rule" in f.metadata:
            kind, bound, own = f.metadata["rule"]
            value = check_value(kind, getattr(obj, f.name), f"{own or section} {f.name!r}", bound)
            setattr(obj, f.name, value)


# -- file format -----------------------------------------------------------
#
# .vgrid and .vcontact files share one text layout, described in
# docs/scene-format.md: a 'MAGIC 1' line, the dims / voxel_size / origin
# header, then dims.z * dims.y rows with x fastest and z slowest.

# (key, token parser, token count, per-token check, what the check means)
_HEADER_FIELDS = (
    ("dims", int, 3, lambda v: v >= 1, "3 integers >= 1"),
    ("voxel_size", float, 1, lambda v: 0 < v < math.inf, "a finite number > 0"),
    ("origin", float, 3, math.isfinite, "3 finite numbers"),
)


def write_grid_file(path, magic: str, grid: VoxelGrid, values) -> None:
    """Write `values`, a dense array indexed [x, y, z] over `grid`, as LF-ended
    rows of 0/1 characters when every value is 0 or 1, else of repr floats
    (one per bit pattern, so -0.0 and 0.0 stay apart), from one byte buffer."""
    nx, ny, nz = grid.dims
    values = np.asarray(values)
    if ((values == 0) | (values == 1)).all():
        chars = np.full((nz, ny, nx + 1), ord("\n"), dtype=np.uint8)
        np.add(values.T == 1, ord("0"), out=chars[..., :nx], dtype=np.uint8)  # [z, y, x]
        body = chars.tobytes()
    else:
        keys, inverse = np.unique(np.ascontiguousarray(values.T, dtype=float).view(np.uint64), return_inverse=True)
        reprs = [repr(v) for v in keys.view(float).tolist()]
        inverse.reshape(nz * ny, nx)[:, -1] += len(keys)  # a row's last value takes the repr ending its line
        tokens = np.array([r + " " for r in reprs] + [r + "\n" for r in reprs], dtype=object)
        body = "".join(tokens[inverse].ravel().tolist()).encode("ascii")
    header = f"{magic} 1\ndims {nx} {ny} {nz}\nvoxel_size {grid.voxel_size!r}\n"
    header += "origin " + " ".join(repr(v) for v in grid.origin.tolist()) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + body)


def _parse_header(lines, path, magic):
    if not lines or lines[0].strip() != f"{magic} 1":
        raise ValueError(f"{path}: expected '{magic} 1' header")
    parsed = []
    for lineno, (key, parse, count, ok, want) in enumerate(_HEADER_FIELDS, start=2):
        if lineno > len(lines):
            raise ValueError(f"{path}: truncated header")
        name, *tokens = lines[lineno - 1].split() or [""]
        if name != key:
            raise ValueError(f"{path}: line {lineno}: expected '{key}'")
        try:
            vals = [parse(t) for t in tokens]
        except ValueError:
            vals = []
        if len(vals) != count or not all(ok(v) for v in vals):
            raise ValueError(
                f"{path}: line {lineno}: {key} must be {want}, got {' '.join(tokens)!r}"
            )
        parsed.append(vals)
    dims, (voxel_size,), origin = parsed
    return tuple(dims), voxel_size, np.array(origin, dtype=float)


def read_grid_rows(path, magic: str, floats: bool):
    """Parse a grid file, split into lines as str.splitlines splits it, into
    (dims, voxel_size, origin, rows), rows the (nz * ny, nx) values: each row
    dims.x 0/1 characters or, with floats=True, dims.x space-separated numbers
    in [0, 1]. The file is read once, as bytes; one that is not ASCII, ends a
    line other than by LF or lacks a final LF is first rewritten as its lines,
    each ended by LF. Rows are uint8 digits without floats."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.endswith(b"\n") or not data.isascii() or any(c in data for c in b"\r\v\f\x1c\x1d\x1e"):
        try:
            data = "\n".join(data.decode("utf-8").splitlines()).encode("utf-8") + b"\n"
        except UnicodeDecodeError as exc:  # the byte's line, as str.splitlines counts: the text before it + 1 char
            line = len((data[: exc.start] + b".").decode("utf-8").splitlines())
            raise ValueError(f"{path}: line {line}: not UTF-8 text") from None
    *header, body = data.split(b"\n", 4)
    dims, voxel_size, origin = _parse_header([h.decode("utf-8") for h in header], path, magic)
    nx, ny, nz = dims
    buf = np.frombuffer(body, dtype=np.uint8)  # UTF-8, each row with its LF; uint8 wraps below "0"
    if len(buf) == nz * ny * (nx + 1):
        rows = buf.reshape(nz * ny, nx + 1)
        digits = rows[:, :nx] - ord("0")
        if (rows[:, nx] == ord("\n")).all() and digits.max() <= 1:
            return dims, voxel_size, origin, digits
    ends = np.flatnonzero(buf == ord("\n"))
    if len(ends) != nz * ny:
        raise ValueError(f"{path}: expected {nz * ny} data rows, found {len(ends)}")
    is_bits = (sizes := np.diff(ends, prepend=-1)) == nx + 1
    digits = (buf if is_bits.all() else buf[np.repeat(is_bits, sizes)]).reshape(-1, nx + 1)[:, :nx] - ord("0")
    is_bits[is_bits] = ok = (digits <= 1).all(axis=1)
    values = np.zeros((nz * ny, nx), dtype=float if floats else np.uint8)  # without floats, all rows are 0/1
    values[is_bits] = digits[ok]
    for r in np.flatnonzero(~is_bits).tolist():
        where = f"{path}: line {r + 5}"
        if not floats:
            raise ValueError(f"{where}: expected {nx} characters of 0/1")
        try:
            row = np.array(body[ends[r] + 1 - sizes[r] : ends[r]].decode("utf-8").split(), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if row.shape != (nx,):
            raise ValueError(f"{where}: expected {nx} values, found {row.size}")
        if not ((row >= 0) & (row <= 1)).all():
            raise ValueError(f"{where}: values must be finite and in [0, 1]")
        values[r] = row
    return dims, voxel_size, origin, values


def save_vgrid(grid: VoxelGrid, path) -> None:
    """Write the occupancy as a 'VGRID 1' grid file of 0/1 rows."""
    write_grid_file(path, "VGRID", grid, grid.occupancy)


def load_vgrid(path) -> VoxelGrid:
    """Read a 'VGRID 1' grid file; every row must be 0/1 characters, whose
    digits VoxelGrid copies as bool into [x, y, z] order."""
    dims, voxel_size, origin, digits = read_grid_rows(path, "VGRID", False)
    return VoxelGrid(dims, voxel_size, origin, digits.view(bool).reshape(dims[::-1]).T)
