"""Property: run_pipeline never raises for a loadable scene, and its report
either names the stage that failed or carries finite scores in [0, 1]."""
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from handover.contacts import ContactMap
from handover.delivery import BODY_PROXY_DIMS
from handover.ergonomics import HumanModel
from handover.grasping import GripperModel
from handover.harness import AblationMode, PipelineParams, Scene, SharedStages, run_pipeline

from conftest import make_grid


@st.composite
def small_scenes(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    cells = draw(st.lists(st.booleans(), min_size=math.prod(dims), max_size=math.prod(dims)))
    occ = np.array(cells, dtype=bool).reshape(dims)
    occ[tuple(draw(st.integers(0, n - 1)) for n in dims)] = True  # never an empty object
    grid = make_grid(occ, voxel_size=draw(st.sampled_from([0.01, 0.02, 0.04])))
    surface = grid.surface
    # as after ingestion: nonzero values in (0, 1], keyed by surface voxels
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(st.sampled_from(surface), min_size=1, unique=True))
        values = [draw(st.floats(0.0, 1.0, exclude_min=True)) for _ in keys]
        maps.append(ContactMap(grid, dict(zip(keys, values))))
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
