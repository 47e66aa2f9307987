"""Properties: run_pipeline never raises for a loadable scene, and its report
either names the stage that failed or carries finite scores in [0, 1]; a
scene file with an odd value either loads or is rejected naming the file
and the field."""
import contextlib
import io
import json
import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from handover import cli
from handover.delivery import BODY_PROXY_DIMS
from handover.ergonomics import HumanModel
from handover.grasping import OCCLUSION_RAY_FACTOR, GripperModel
from handover.harness import SCENE_FIELDS, AblationMode, PipelineParams, Scene, SharedStages, run_pipeline
from handover.voxelgeom import segments_hit_boxes

from conftest import absolutized_config, contact_map, make_grid


@st.composite
def small_scenes(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    cells = draw(st.lists(st.booleans(), min_size=math.prod(dims), max_size=math.prod(dims)))
    occ = np.array(cells, dtype=bool).reshape(dims)
    occ[tuple(draw(st.integers(0, n - 1)) for n in dims)] = True  # never an empty object
    grid = make_grid(occ, voxel_size=draw(st.sampled_from([0.01, 0.02, 0.04])))
    surface = list(map(tuple, grid.surface.tolist()))
    # as after ingestion: nonzero values in (0, 1], keyed by surface voxels
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(st.sampled_from(surface), min_size=1, unique=True))
        # the first key holds a contact, as a scene requires of every map
        values = [draw(st.floats(0.5, 1.0))] + [draw(st.floats(0.0, 1.0, exclude_min=True)) for _ in keys[1:]]
        maps.append(contact_map(grid, dict(zip(keys, values))))
    params = PipelineParams(
        lam=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.floats(0.0, 1.0)),
        k=draw(st.floats(0.05, 0.95)),
        eps=draw(st.one_of(st.none(), st.floats(0.5, 3.0))),
        min_pts=draw(st.integers(1, 6)),
        orientation_step=draw(st.sampled_from([90.0, 120.0, 180.0])),
        position_step=draw(st.sampled_from([15.0, 30.0])),
        max_grasps=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 1000)),
    )
    return Scene(
        name="random",
        grid=grid,
        contact_maps=maps,
        planning_map=draw(st.one_of(st.just("heuristic"), st.integers(0, len(maps) - 1))),
        human=HumanModel(),
        gripper=GripperModel(),
        body_proxy_dims=draw(st.sampled_from([None, BODY_PROXY_DIMS])),
        params=params,
    )


def _unit(value) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_scenes())
def test_every_mode_reports_a_named_failure_or_unit_scores(scene):
    shared = SharedStages(scene)
    for mode in AblationMode:
        report = run_pipeline(scene, mode, shared=shared)
        json.dumps(report.to_dict(), allow_nan=False)
        if report.failure is not None:
            assert report.failure.startswith(report.stages[-1] + ": "), (mode, report.failure)
            assert report.metrics is None and not report.success
            continue
        m = report.metrics
        scores = [m["visibility_median"], m["reachability_median"]]
        scores += [v for row in m["per_map"] for v in row.values()]
        assert all(_unit(v) for v in scores), (mode, m)


# every key a scene file may hold, as (enclosing sections, key)
SCENE_KEYS = (
    [((), key) for key in sorted(SCENE_FIELDS["scene"])]
    + [((section,), key) for section in ("object", "robot", "layout", "human")
       for key in sorted(SCENE_FIELDS[section])]
    + [(("robot", "gripper"), key) for key in sorted(SCENE_FIELDS["gripper"])]
    + [(("params",), f.name) for f in fields(PipelineParams)]
)
ODD_VALUES = [None, True, "x", [], {}, 0, -1, 1e308]


def _mug_with(suite_dir, directory, sections, key, value):
    """The bundled mug scene, written to `directory` with one key set to `value`."""
    cfg = absolutized_config(suite_dir, "mug")
    target = cfg
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    path = directory / "odd.scene.json"
    path.write_text(json.dumps(cfg))
    return path


class _Loaded(Exception):
    """Raised in place of the run: the scene loaded."""


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SCENE_KEYS), st.sampled_from(ODD_VALUES))
def test_an_odd_scene_value_loads_or_is_rejected_by_name(suite_dir, tmp_path_factory, where, value):
    sections, key = where
    path = _mug_with(suite_dir, tmp_path_factory.mktemp("odd"), sections, key, value)
    err = io.StringIO()
    with mock.patch.object(cli, "run_pipeline", side_effect=_Loaded), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["plan", str(path), "--seed", "0"])
        except _Loaded:
            return
    message = err.getvalue()
    assert code == 1 and message.startswith(f"error: {path}: "), message
    assert any(name in message for name in (f"'{key}'", f"{key} field", f"{key} out of range")), message


@pytest.mark.parametrize("sections, key, value", [
    (("robot",), "body_proxy_dims", None), (("human",), "arm_plane_offset", -1),
    (("params",), "eps", 1e308), (("params",), "max_grasps", 1e308), (("params",), "seed", 1e308),
])
def test_an_odd_value_that_loads_plans_to_a_finite_report(suite_dir, tmp_path, sections, key, value):
    path = _mug_with(suite_dir, tmp_path, sections, key, value)
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["plan", str(path), "--out", str(out)])
    assert code in (0, 2)
    json.dumps(json.loads(out.read_text()), allow_nan=False)


@st.composite
def gripper_segments(draw):
    """A gripper at a random opening, its three boxes, and 64 segments. Each
    coordinate is random, exactly zero, or on (or one ulp off) a box face."""
    gripper = GripperModel(**{f.name: draw(st.floats(0.005, 0.25)) for f in fields(GripperModel)})
    boxes = np.array(gripper.boxes(draw(st.floats(0.001, 1.0)) * gripper.max_width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    faces = rng.choice(boxes.ravel(), size=(64, 2, 3))
    faces = np.nextafter(faces, faces + rng.choice([-1.0, 0.0, 1.0], size=faces.shape))
    kind = rng.integers(0, 3, size=faces.shape)
    segs = np.where(kind == 0, rng.uniform(-0.6, 0.6, size=faces.shape), np.where(kind == 1, 0.0, faces))
    return gripper, boxes, segs[:, 0], segs[:, 1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(gripper_segments())
def test_a_segment_that_misses_the_union_box_misses_every_gripper_box(case):
    """The occlusion kernel's exact cull: the union box's slab bounds are
    bounds of each box's, so a miss there is a miss on all three."""
    gripper, boxes, origins, dirs = case
    t_max = OCCLUSION_RAY_FACTOR * gripper.finger_length
    union = segments_hit_boxes(origins, dirs, t_max, boxes[:, 0].min(axis=0), boxes[:, 1].max(axis=0))
    for lo, hi in boxes:
        assert not (segments_hit_boxes(origins, dirs, t_max, lo, hi) & ~union).any()
