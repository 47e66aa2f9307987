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

# 26-neighborhood offsets, fixed order (lexicographic, no zero vector)
_OFFSETS_26 = np.array(
    [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=float,
)


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


def load_obj(path) -> Mesh:
    """Parse the v/f subset of Wavefront OBJ. Indices are 1-based; 'f a/b/c'
    forms are accepted (only the vertex index is used)."""
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
                for tok in tokens[1:4]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: bad face index {tok!r}") from exc
                    if i < 0:
                        i = len(vertices) + 1 + i
                    idx.append(i - 1)
                faces.append(idx)
            # other record types (vn, vt, o, g, s, usemtl, ...) are ignored
    if not faces:
        raise ValueError(f"{path}: empty mesh")
    faces_arr = np.asarray(faces, dtype=int)
    if faces_arr.min() < 0 or faces_arr.max() >= len(vertices):
        raise ValueError(f"{path}: face index out of range")
    return Mesh(np.asarray(vertices, dtype=float), faces_arr)


@dataclass(eq=False)
class VoxelGrid:
    """Dense boolean occupancy over a cubic-cell lattice.

    occupancy is indexed [x, y, z] and is made read-only after construction;
    the derived surface and normal arrays are cached lazily, read-only too.
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
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
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
        return int(self.occupancy.sum())

    @cached_property
    def occupied_centers(self) -> np.ndarray:
        return self.centers(np.argwhere(self.occupancy))

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

    def surface_rows(self, indices) -> np.ndarray:
        """Row in `surface` of each integer index (xyz on the last axis), -1
        off the surface: one sorted lookup of the cells' linear keys."""
        idx = np.asarray(indices)
        keys = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), self.dims, mode="clip")
        keys[~((idx >= 0) & (idx < self.dims)).all(axis=-1)] = -1  # off the grid
        # ascending, as the surface is in lexicographic order; closed by a sentinel no cell reaches
        surface_keys = np.append(np.ravel_multi_index(tuple(self.surface.T), self.dims), self.occupancy.size)
        rows = np.searchsorted(surface_keys, keys)
        return np.where(surface_keys[rows] == keys, rows, -1)


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, its buffer made read-only."""
    a.setflags(write=False)
    return a


# -- voxelization ----------------------------------------------------------


def _edge(ax, ay, bx, by, px, py):
    """2D edge function: cross(b - a, p - a). Positive = p left of a->b."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def voxelize_mesh(mesh: Mesh, dims=(64, 64, 64), padding: float = 0.05) -> VoxelGrid:
    """Solid voxelization by even-odd parity of surface crossings along +z.

    The grid is sized so the mesh bounding box (expanded by `padding` as a
    fraction of its extent, per side) fits inside `dims` with cubic cells;
    the mesh is centered in the grid.

    A cell is occupied iff its center sees an odd number of triangle
    crossings below it along z. Shared triangle edges are resolved with a
    consistent perturbation rule so watertight meshes fill without seams.
    """
    dims = tuple(int(d) for d in dims)
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
    # z values of all cell centers, shared by every column
    zc = origin[2] + (np.arange(nz) + 0.5) * voxel_size
    crossings: dict[tuple[int, int], list[float]] = {}

    cx0 = origin[0] + 0.5 * voxel_size
    cy0 = origin[1] + 0.5 * voxel_size
    for tri in mesh.faces:
        v0, v1, v2 = verts[tri[0]], verts[tri[1]], verts[tri[2]]
        area2 = _edge(v0[0], v0[1], v1[0], v1[1], v2[0], v2[1])
        if area2 == 0.0:
            continue  # degenerate in projection; vertical wall, no z crossing
        if area2 < 0:
            v1, v2 = v2, v1
            area2 = -area2
        # candidate columns limited to the triangle's xy bounding box
        txlo = min(v0[0], v1[0], v2[0])
        txhi = max(v0[0], v1[0], v2[0])
        tylo = min(v0[1], v1[1], v2[1])
        tyhi = max(v0[1], v1[1], v2[1])
        ix0 = max(0, int(math.ceil((txlo - cx0) / voxel_size)))
        ix1 = min(nx - 1, int(math.floor((txhi - cx0) / voxel_size)))
        iy0 = max(0, int(math.ceil((tylo - cy0) / voxel_size)))
        iy1 = min(ny - 1, int(math.floor((tyhi - cy0) / voxel_size)))
        if ix0 > ix1 or iy0 > iy1:
            continue
        ixs = np.arange(ix0, ix1 + 1)
        iys = np.arange(iy0, iy1 + 1)
        px = (cx0 + ixs * voxel_size)[:, None]
        py = (cy0 + iys * voxel_size)[None, :]
        w0 = _edge(v1[0], v1[1], v2[0], v2[1], px, py)
        w1 = _edge(v2[0], v2[1], v0[0], v0[1], px, py)
        w2 = _edge(v0[0], v0[1], v1[0], v1[1], px, py)
        inside = np.ones(w0.shape, dtype=bool)
        for w, (a, b) in ((w0, (v1, v2)), (w1, (v2, v0)), (w2, (v0, v1))):
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            # tie rule: boundary counts iff a +x-infinitesimal perturbation
            # lands strictly inside (dy < 0, or dy == 0 and dx > 0)
            on_tie = dy < 0 or (dy == 0 and dx > 0)
            inside &= (w > 0) | ((w == 0) & on_tie)
        if not inside.any():
            continue
        zhit = (w0 * v0[2] + w1 * v1[2] + w2 * v2[2]) / (w0 + w1 + w2)
        for ii, jj in zip(*np.nonzero(inside)):
            crossings.setdefault((int(ixs[ii]), int(iys[jj])), []).append(float(zhit[ii, jj]))

    occ = np.zeros(dims, dtype=bool)
    for (ix, iy), zs in crossings.items():
        zs_arr = np.sort(np.asarray(zs))
        below = np.searchsorted(zs_arr, zc, side="right")
        occ[ix, iy, :] = (below % 2) == 1
    return VoxelGrid(dims, voxel_size, origin, occ)


# -- surface + normals -----------------------------------------------------


def surface_voxels(grid: VoxelGrid) -> np.ndarray:
    """Occupied cells with at least one unoccupied 6-neighbor (out-of-bounds
    counts as unoccupied), as an (n, 3) integer array in lexicographic
    (x, y, z) order."""
    p = np.pad(grid.occupancy, 1)
    buried = p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1] & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2]
    buried &= p[1:-1, 1:-1, 2:]  # all six neighbours occupied
    return np.argwhere(grid.occupancy & ~buried)


def estimate_normals(grid: VoxelGrid) -> np.ndarray:
    """Outward unit normals as an (n, 3) array: row i is the normal of
    surface voxel grid.surface[i].

    Primary estimate is the negative local occupancy gradient: the sum of
    directions from occupied 26-neighbors to the voxel. Where that sum
    vanishes, fall back to the direction from the occupied centroid to the
    voxel center; a lone voxel (centroid == center) gets +z.
    """
    padded = np.pad(grid.occupancy, 1)
    surf = grid.surface
    acc = np.zeros((len(surf), 3), dtype=float)
    base = surf + 1  # padded coordinates
    for off in _OFFSETS_26:
        nb = base + off.astype(int)
        acc -= off * padded[nb[:, 0], nb[:, 1], nb[:, 2]][:, None]
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
    """Slab clip (Kay & Kajiya 1986) of o + t d, 0 <= t <= t_max, against the
    closed box [lo, hi]; returns (t0, t1, ok) with [t0, t1] the clipped range.
    A direction component of exactly 0 keeps the segment only from inside
    that slab."""
    shape = np.broadcast_shapes(np.shape(origins), np.shape(dirs), np.shape(lo), np.shape(hi))[:-1]
    t0 = np.zeros(shape)
    t1 = np.full(shape, t_max, dtype=float)
    ok = np.ones(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            da = dirs[..., a]
            oa = origins[..., a]
            zero = da == 0.0
            ok &= ~zero | ((oa >= lo[..., a]) & (oa <= hi[..., a]))
            ta = (lo[..., a] - oa) / da
            tb = (hi[..., a] - oa) / da
            t0 = np.where(zero, t0, np.maximum(t0, np.minimum(ta, tb)))
            t1 = np.where(zero, t1, np.minimum(t1, np.maximum(ta, tb)))
    # t0 only grows and t1 only shrinks, so one final check covers every axis
    return t0, t1, ok & (t0 <= t1)


def segments_hit_boxes(origins, dirs, t_max, lo, hi, open_end=False) -> np.ndarray:
    """Batched slab test over the last axis: does the segment o + t d,
    0 <= t <= t_max, meet the closed box [lo, hi]?

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

    origins and dirs broadcast to (n, 3); t_max is a scalar or one length
    per segment. All segments step through the grid together, each by the
    incremental walk of Amanatides & Woo (1987): clip to the grid box, start
    in the cell holding the entry point (clamped into the grid), then move
    to the neighbour across the nearest cell face until an occupied cell
    (blocked), the clipped end or the grid's edge. A segment holds its
    cell's flat index into grid.padded and one flat jump per axis, so a step
    is one argmin, one jump and one gather, and the edge is a border cell.
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
    while len(rows):
        if np.count_nonzero(state):  # about half the steps stop no line
            blocked[rows] = state == 1
            go = state == 0
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
    """Write `values`, a dense array indexed [x, y, z] over `grid`, as rows of
    0/1 characters when every value is 0 or 1, else as rows of repr floats."""
    nx, ny, nz = grid.dims
    cells = np.asarray(values).transpose(2, 1, 0)  # [z, y, x], a view
    if np.isin(cells, (0, 1)).all():
        chars = (cells == 1).view(np.uint8) + ord("0")
        rows = [row.tobytes().decode("ascii") for plane in chars for row in plane]
    else:
        # one repr per distinct bit pattern, so -0.0 and 0.0 stay apart
        bits = np.ascontiguousarray(cells, dtype=float).view(np.uint64).ravel()
        keys, inverse = np.unique(bits, return_inverse=True)
        reprs = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
        rows = [" ".join(row) for row in reprs[inverse].reshape(nz * ny, nx).tolist()]
    header = [
        f"{magic} 1",
        f"dims {nx} {ny} {nz}",
        f"voxel_size {grid.voxel_size!r}",
        "origin " + " ".join(repr(v) for v in grid.origin.tolist()),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header + rows) + "\n")


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


def read_grid_file(path, magic: str, floats: bool = False):
    """Parse a grid file; returns (dims, voxel_size, origin, values) with
    values a float array indexed [x, y, z].

    Every row must be dims.x characters of 0/1. With floats=True a row may
    instead hold dims.x space-separated numbers, each finite and in [0, 1].
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dims, voxel_size, origin = _parse_header(lines, path, magic)
    nx, ny, nz = dims
    body = lines[4:]
    if len(body) != nz * ny:
        raise ValueError(f"{path}: expected {nz * ny} data rows, found {len(body)}")
    # the rows dims.x long, one byte a character ("?" if not ASCII); uint8 wraps below "0"
    is_bits = np.fromiter(map(len, body), dtype=int, count=len(body)) == nx
    rows = "".join(row for row, ok in zip(body, is_bits.tolist()) if ok).encode("ascii", "replace")
    digits = np.frombuffer(rows, dtype=np.uint8).reshape(-1, nx) - ord("0")
    is_bits[is_bits] = ok = (digits <= 1).all(axis=1)
    values = np.zeros((nz * ny, nx))
    values[is_bits] = digits[ok]
    for r in np.flatnonzero(~is_bits).tolist():
        where = f"{path}: line {r + 5}"
        if not floats:
            raise ValueError(f"{where}: expected {nx} characters of 0/1")
        try:
            row = np.array(body[r].split(), dtype=float)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if row.shape != (nx,):
            raise ValueError(f"{where}: expected {nx} values, found {row.size}")
        if not ((row >= 0) & (row <= 1)).all():
            raise ValueError(f"{where}: values must be finite and in [0, 1]")
        values[r] = row
    return dims, voxel_size, origin, values.reshape(nz, ny, nx).transpose(2, 1, 0)


def save_vgrid(grid: VoxelGrid, path) -> None:
    """Write the occupancy as a 'VGRID 1' grid file of 0/1 rows."""
    write_grid_file(path, "VGRID", grid, grid.occupancy)


def load_vgrid(path) -> VoxelGrid:
    """Read a 'VGRID 1' grid file; every row must be 0/1 characters."""
    dims, voxel_size, origin, values = read_grid_file(path, "VGRID")
    return VoxelGrid(dims, voxel_size, origin, values == 1)
