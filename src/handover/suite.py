"""Bundled synthetic benchmark objects with hand-authored contact regions.

Five desk-scale objects built directly in voxel space (3 mm cells, 64^3).
Each follows the same recipe: a small bare grip feature at the low-x end
(the robot side), and the rest of the surface marked in contact map 0. Any
grasp away from the grip feature closes directly on marked voxels, so it
always hides part of the region and ranks below a clean grip. Maps 1 and 2
mark bands at the far end of the handle, >= ~0.13 m from every clean grasp
midpoint; after the planner turns them toward the face they stay reachable
even when the wrist rolls the gripper body toward the receiver. Objects
stay within ~0.15 m extent so an unplanned tucked pose is provably out of
the receiver's reach.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .contacts import ContactMap, save_contact_map
from .voxelgeom import VoxelGrid, save_vgrid

VOXEL_SIZE = 0.003
DIMS = (64, 64, 64)
# nominal tabletop placement in front of the robot's starting spot
ORIGIN = np.array([2.35, -0.096, 0.72])

OBJECT_NAMES = ("hammer", "pan", "mug", "knife", "rodball")


def _empty() -> np.ndarray:
    return np.zeros(DIMS, dtype=bool)


def _box(occ, x0, x1, y0, y1, z0, z1):
    occ[x0 : x1 + 1, y0 : y1 + 1, z0 : z1 + 1] = True


def _cylinder_z(occ, cx, cy, radius, z0, z1):
    xs, ys = np.meshgrid(np.arange(DIMS[0]), np.arange(DIMS[1]), indexing="ij")
    disk = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    occ[:, :, z0 : z1 + 1] |= disk[:, :, None]


def _ball(occ, cx, cy, cz, radius):
    xs, ys, zs = np.meshgrid(
        np.arange(DIMS[0]), np.arange(DIMS[1]), np.arange(DIMS[2]), indexing="ij"
    )
    occ |= (xs - cx) ** 2 + (ys - cy) ** 2 + (zs - cz) ** 2 <= radius * radius


def _grid(occ) -> VoxelGrid:
    return VoxelGrid(DIMS, VOXEL_SIZE, ORIGIN.copy(), occ)


def _surface_map(grid: VoxelGrid, pred) -> ContactMap:
    values = {idx: 1.0 for idx in grid.surface if pred(*idx)}
    if not values:
        raise ValueError("empty contact map")
    return ContactMap(grid, values)


def build_hammer():
    """Flat-head hammer held by the head plate; the handle is marked."""
    occ = _empty()
    _box(occ, 8, 12, 30, 32, 24, 40)  # head plate (the grip zone)
    _box(occ, 13, 56, 30, 32, 30, 32)  # handle, 9 mm square
    grid = _grid(occ)
    preds = [
        lambda x, y, z: x >= 13,  # whole handle
        lambda x, y, z: x >= 54,  # handle end
        lambda x, y, z: 52 <= x <= 56 and z >= 31,  # top band at the end
    ]
    return grid, [_surface_map(grid, p) for p in preds]


def build_pan():
    """Shallow dish with a straight side handle; the dish is the grip zone."""
    occ = _empty()
    _cylinder_z(occ, 17, 32, 9, 29, 32)  # dish slab
    _box(occ, 27, 56, 30, 32, 29, 32)  # handle
    grid = _grid(occ)
    preds = [
        lambda x, y, z: x >= 13,  # dish far arc and whole handle
        lambda x, y, z: x >= 54,  # handle end
        lambda x, y, z: 50 <= x <= 56 and z >= 31,  # top band at the end
    ]
    return grid, [_surface_map(grid, p) for p in preds]


def build_mug():
    """Small cup with a straight side handle; the cup is the grip zone."""
    occ = _empty()
    _cylinder_z(occ, 15, 32, 7, 14, 32)  # body
    _box(occ, 20, 56, 30, 32, 22, 25)  # handle at mid-wall height
    grid = _grid(occ)
    preds = [
        lambda x, y, z: x >= 13,  # cup far arc and whole handle
        lambda x, y, z: x >= 54,  # handle end
        lambda x, y, z: 51 <= x <= 56 and z >= 24,  # top band at the end
    ]
    return grid, [_surface_map(grid, p) for p in preds]


def build_knife():
    """Flat blade (the grip zone for a tool-safe handover) plus marked handle."""
    occ = _empty()
    _box(occ, 8, 22, 30, 31, 26, 38)  # blade, 6 mm thick
    _box(occ, 23, 56, 29, 32, 29, 34)  # handle
    grid = _grid(occ)
    preds = [
        lambda x, y, z: x >= 13,  # blade outer half and whole handle
        lambda x, y, z: x >= 54,  # handle end
        lambda x, y, z: 52 <= x <= 56 and z >= 32,  # top band at the end
    ]
    return grid, [_surface_map(grid, p) for p in preds]


def build_rodball():
    """Thin rod ending in a ball; the rod is the grip zone."""
    occ = _empty()
    _box(occ, 8, 39, 30, 32, 30, 32)  # rod, 9 mm square
    _ball(occ, 47, 31, 31, 9)
    grid = _grid(occ)
    preds = [
        lambda x, y, z: x >= 13,  # rod far section and whole ball
        lambda x, y, z: x >= 52,  # far cap
        lambda x, y, z: x >= 50 and z >= 32,  # upper far cap
    ]
    return grid, [_surface_map(grid, p) for p in preds]


_BUILDERS = {
    "hammer": build_hammer,
    "pan": build_pan,
    "mug": build_mug,
    "knife": build_knife,
    "rodball": build_rodball,
}


def build_object(name: str):
    """(VoxelGrid, [ContactMap x3]) for a bundled object."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown bundled object {name!r}")
    return _BUILDERS[name]()


def default_scene_config(name: str) -> dict:
    return {
        "name": name,
        "object": {"vgrid": f"{name}.vgrid"},
        "contact_maps": [f"{name}_contacts_{i}.vcontact" for i in range(3)],
        "planning_map": 0,
        "human": {"height": 1.7, "base_position": [0.0, 0.0, 0.0], "facing": [1.0, 0.0, 0.0]},
        "robot": {
            "body_proxy_dims": [0.5, 0.5, 1.1],
            "gripper": {
                "finger_length": 0.05,
                "finger_thickness": 0.015,
                "max_width": 0.10,
                "palm_depth": 0.04,
            },
        },
        "layout": {"standoff": 1.2},
        "params": {
            "lam": 0.5,
            "alpha": 0.5,
            "k": 0.5,
            "eps": None,
            "min_pts": 4,
            "orientation_step": 45.0,
            "position_step": 5.0,
            "object_mass": 0.5,
            "max_grasps": 600,
            "seed": 0,
        },
    }


def write_suite(out_dir, names=None) -> list[str]:
    """Materialize the bundled scenes (grid + 3 contact maps + scene JSON per
    object). Returns the scene file paths."""
    if names is None:
        names = OBJECT_NAMES
    os.makedirs(out_dir, exist_ok=True)
    scene_paths = []
    for name in names:
        grid, maps = build_object(name)
        save_vgrid(grid, os.path.join(out_dir, f"{name}.vgrid"))
        for i, cm in enumerate(maps):
            save_contact_map(cm, os.path.join(out_dir, f"{name}_contacts_{i}.vcontact"))
        cfg = default_scene_config(name)
        path = os.path.join(out_dir, f"{name}.scene.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")
        scene_paths.append(path)
    return scene_paths
