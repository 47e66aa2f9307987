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
from dataclasses import fields

import numpy as np

from .contacts import ContactMap, save_contact_map
from .delivery import BODY_PROXY_DIMS
from .ergonomics import HumanModel
from .grasping import GripperModel
from .harness import PipelineParams, Scene
from .voxelgeom import VoxelGrid, save_vgrid

VOXEL_SIZE = 0.003
DIMS = (64, 64, 64)
# nominal tabletop placement in front of the robot's starting spot
ORIGIN = np.array([2.35, -0.096, 0.72])


def _box(x, y, z, x0, x1, y0, y1, z0, z1):
    return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1) & (z0 <= z) & (z <= z1)


def _cylinder_z(x, y, z, cx, cy, radius, z0, z1):
    return ((x - cx) ** 2 + (y - cy) ** 2 <= radius * radius) & (z0 <= z) & (z <= z1)


def _ball(x, y, z, cx, cy, cz, radius):
    return (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= radius * radius


# name: (shapes, map-1 x floor, map-2 (x, z) floor). Every handle or far cap
# ends at x = 56, so map 1 is the handle end and map 2 its top band.
OBJECTS = {
    # flat-head hammer held by the head plate (x 8-12); the 9 mm square handle is marked
    "hammer": ([(_box, 8, 12, 30, 32, 24, 40), (_box, 13, 56, 30, 32, 30, 32)], 54, (52, 31)),
    # shallow dish with a straight side handle; the dish is the grip zone
    "pan": ([(_cylinder_z, 17, 32, 9, 29, 32), (_box, 27, 56, 30, 32, 29, 32)], 54, (50, 31)),
    # small cup with a handle at mid-wall height; the cup is the grip zone
    "mug": ([(_cylinder_z, 15, 32, 7, 14, 32), (_box, 20, 56, 30, 32, 22, 25)], 54, (51, 24)),
    # 6 mm flat blade (the grip zone for a tool-safe handover) plus marked handle
    "knife": ([(_box, 8, 22, 30, 31, 26, 38), (_box, 23, 56, 29, 32, 29, 34)], 54, (52, 32)),
    # thin 9 mm square rod ending in a ball; the rod is the grip zone
    "rodball": ([(_box, 8, 39, 30, 32, 30, 32), (_ball, 47, 31, 31, 9)], 52, (50, 32)),
}
OBJECT_NAMES = tuple(OBJECTS)


def build_object(name: str):
    """(VoxelGrid, [ContactMap x3]) for a bundled object: the union of its
    shapes, and one map per floor, marking each surface voxel at or past it."""
    if name not in OBJECTS:
        raise ValueError(f"unknown bundled object {name!r}")
    shapes, map1_x, map2_floor = OBJECTS[name]
    x, y, z = np.ogrid[: DIMS[0], : DIMS[1], : DIMS[2]]
    occ = np.zeros(DIMS, dtype=bool)
    for shape, *args in shapes:
        occ |= shape(x, y, z, *args)
    grid = VoxelGrid(DIMS, VOXEL_SIZE, ORIGIN.copy(), occ)
    floors = ((13, 0), (map1_x, 0), map2_floor)  # map 0: all but the grip feature
    surface = grid.surface
    marked = [surface[(surface[:, 0] >= x_lo) & (surface[:, 2] >= z_lo)] for x_lo, z_lo in floors]
    return grid, [ContactMap(grid, keys, np.ones(len(keys))) for keys in marked]


def _defaults(cls, *names) -> dict:
    """{field: default} of dataclass `cls` in field order, for every field or those `names`."""
    return {f.name: f.default for f in fields(cls) if not names or f.name in names}


def default_scene_config(name: str) -> dict:
    """Bundled scene `name`'s JSON: each setting its field's default, but max_grasps."""
    return {
        "name": name,
        "object": {"vgrid": f"{name}.vgrid"},
        "contact_maps": [f"{name}_contacts_{i}.vcontact" for i in range(3)],
        "planning_map": 0,
        "human": _defaults(HumanModel, "height", "base_position", "facing"),
        "robot": {"body_proxy_dims": BODY_PROXY_DIMS, "gripper": _defaults(GripperModel)},
        "layout": _defaults(Scene, "standoff"),
        "params": _defaults(PipelineParams) | {"max_grasps": 600},
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
