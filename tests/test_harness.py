"""Scene loading, the end-to-end pipeline, ablation modes, and aggregation."""
import gc
import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from handover import delivery, grasping, harness, metrics
from handover.contacts import ContactMap, cluster_contacts, largest_cluster, predict_contacts_heuristic
from handover.delivery import DeliveryContext, feasible, sample_orientations
from handover.grasping import rank_grasps
from handover.voxelgeom import VoxelGrid, save_vgrid
from handover.harness import (
    AblationMode,
    HandoverReport,
    PipelineParams,
    SharedStages,
    aggregate,
    load_report,
    load_scene,
    run_pipeline,
    save_report,
    summary_csv,
)

from conftest import absolutized_config


def scene_with(scene, **overrides):
    """Copy of a bundled scene with tweaked params."""
    params = PipelineParams.from_dict({**asdict(scene.params), **overrides})
    return replace(scene, params=params)


# ------------------------------------------------------------- scene loading

def test_load_scene_roundtrip(suite_dir, scenes):
    scene = scenes["hammer"]
    assert scene.name == "hammer"
    assert scene.grid.dims == (64, 64, 64)
    assert len(scene.contact_maps) == 3
    assert scene.planning_map == 0
    assert scene.human.height == pytest.approx(1.70)
    # robot base derives from the receiver's pose and the standoff
    expect = scene.human.base_position + scene.standoff * scene.human.facing
    assert np.allclose(scene.robot_base, expect)


def test_load_scene_missing_field(tmp_path):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"contact_maps": []}))
    with pytest.raises(ValueError, match="missing scene field"):
        load_scene(cfg)


def test_load_scene_requires_contact_map(suite_dir, tmp_path):
    cfg = absolutized_config(suite_dir, "hammer")
    cfg["contact_maps"] = []
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="at least one contact map"):
        load_scene(bad)


def test_load_scene_planning_map_range(suite_dir, tmp_path):
    cfg = absolutized_config(suite_dir, "hammer")
    cfg["planning_map"] = 7
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="planning_map out of range"):
        load_scene(bad)


def test_null_body_proxy_loads_and_plans(suite_dir, tmp_path):
    cfg = absolutized_config(suite_dir, "hammer")
    cfg["robot"]["body_proxy_dims"] = None
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    scene = load_scene(path)
    assert scene.body_proxy_dims is None
    report = run_pipeline(scene, "FULL", seed=0)
    assert report.failure is None
    assert report.metrics["visibility_median"] >= 0.0


@pytest.mark.parametrize("dims", [[0.5, 0.5], [0.5, 0.5, 0.0], [0.5, -1.0, 1.1], "box", 3])
def test_bad_body_proxy_rejected(suite_dir, tmp_path, dims):
    cfg = absolutized_config(suite_dir, "hammer")
    cfg["robot"]["body_proxy_dims"] = dims
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="body_proxy_dims"):
        load_scene(path)


def test_an_object_grid_with_no_occupied_voxel_is_rejected(suite_dir, scenes, tmp_path):
    """Its nonzero contact maps would have no surface voxel to land on."""
    grid = scenes["hammer"].grid
    save_vgrid(VoxelGrid(grid.dims, grid.voxel_size, grid.origin, np.zeros(grid.dims, dtype=bool)),
               tmp_path / "empty.vgrid")
    cfg = absolutized_config(suite_dir, "hammer")
    cfg["object"]["vgrid"] = "empty.vgrid"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="object field 'vgrid': empty.vgrid has no occupied voxel"):
        load_scene(path)


def test_a_scene_rejects_a_contact_map_off_its_grid(scenes):
    """A map registered to another grid would send ranking to voxels with no surface normal."""
    with pytest.raises(ValueError, match=r"^scene field 'contact_maps': map 0 is not on the scene's grid$"):
        replace(scenes["mug"], contact_maps=scenes["hammer"].contact_maps)


def test_a_scene_rejects_a_contact_map_without_a_contact(scenes):
    """A map with no value at CONTACT_THRESHOLD has nothing to score, built in code as when loaded."""
    maps = scenes["mug"].contact_maps
    low = ContactMap(maps[2].grid, maps[2].keys, np.full(len(maps[2].values), 0.3))
    with pytest.raises(ValueError, match=r"^scene field 'contact_maps': map 2 has no value of at least 0\.5$"):
        replace(scenes["mug"], contact_maps=[*maps[:2], low])


def test_heuristic_planning_map(scenes):
    scene = replace(scenes["mug"], planning_map="heuristic")
    p = scene.params
    want = largest_cluster(cluster_contacts(predict_contacts_heuristic(scene.grid), p.eps, p.min_pts))
    assert SharedStages(scene).cluster().member_indices.tolist() == want.member_indices.tolist()
    assert SharedStages(scenes["mug"]).cluster().member_indices.tolist() != want.member_indices.tolist()


# ------------------------------------------------------------- full pipeline

def test_full_pipeline_succeeds_on_hammer(scenes):
    report = run_pipeline(scenes["hammer"], "FULL", seed=0)
    assert report.failure is None
    assert report.success is True
    assert report.stages == ["grasp", "contacts", "ranking", "position", "orientation", "metrics"]
    assert report.metrics["visibility_median"] > 0.5
    assert report.metrics["reachability_median"] > 0.5
    assert len(report.metrics["per_map"]) == 3
    for entry in report.metrics["per_map"]:
        assert 0.0 <= entry["visibility"] <= 1.0
        assert 0.0 <= entry["reachability"] <= 1.0


def test_hand_height_strictly_inside_window(scenes):
    scene = scenes["hammer"]
    report = run_pipeline(scene, "FULL", seed=1)
    hand_z = report.position["hand_position"][2]
    assert scene.human.waist_height < hand_z < scene.human.shoulder_height


def test_report_roundtrip_lossless(scenes, tmp_path):
    report = run_pipeline(scenes["hammer"], "FULL", seed=0)
    path = tmp_path / "report.json"
    save_report(report, path)
    again = load_report(path)
    assert again.to_dict() == report.to_dict()


def test_load_report_reads_an_older_report_with_its_duration(scenes, tmp_path):
    """Reports once carried `duration_seconds`, the run's wall time. A report
    that still has it loads, without it, as the fresh run's report."""
    report = run_pipeline(scenes["hammer"], "FULL", seed=0)
    path = tmp_path / "older.json"
    harness.write_json(report.to_dict() | {"duration_seconds": 0.25}, path)
    assert load_report(path).to_dict() == report.to_dict()


def test_load_report_names_the_file_and_the_field(scenes, tmp_path):
    """A report without one of its fields, whose top level is not a JSON
    object, that breaks off mid-JSON or that is not UTF-8 is a ValueError
    naming the file (and the field), not a KeyError or a bare decode error."""
    data = run_pipeline(scenes["hammer"], "A4", seed=0).to_dict()
    del data["stages"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as missing:
        load_report(path)
    assert str(missing.value) == f"{path}: missing report field 'stages'"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError) as listed:
        load_report(path)
    assert str(listed.value) == f"{path}: a report must be a JSON object, got a list"
    for text, reason in ((b'{"object": ', "Expecting value: line 1 column 12 (char 11)"),
                         (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")):
        path.write_bytes(text)
        with pytest.raises(ValueError) as broken:
            load_report(path)
        assert type(broken.value) is ValueError and str(broken.value) == f"{path}: {reason}"


def test_pipeline_deterministic(scenes):
    a = run_pipeline(scenes["hammer"], "FULL", seed=2).to_dict()
    b = run_pipeline(scenes["hammer"], "FULL", seed=2).to_dict()
    assert a == b


def test_stage_failure_recorded_not_raised(scenes):
    scene = scene_with(scenes["hammer"], min_pts=100000)
    report = run_pipeline(scene, "FULL", seed=0)
    assert report.failure == "contacts: no contact cluster: all 353 contact voxels are noise at eps=0.009, min_pts=100000"
    assert report.success is False
    assert report.metrics is None
    assert report.stages == ["grasp", "contacts"]


def test_diagnostics_payload(scenes):
    report = run_pipeline(scenes["hammer"], "FULL", seed=0, emit_diagnostics=True)
    assert "visibility_bitmaps" in report.metrics
    assert "reachability_bitmaps" in report.metrics
    assert report.metrics["diagnostics"]["ergonomics_csv"].startswith("shoulder_deg")
    rejected = report.delivery["rejected_candidates"]
    assert rejected and all(isinstance(r["reason"], str) for r in rejected)
    # bitmaps mirror the per-map scores
    for entry, bitmap in zip(report.metrics["per_map"], report.metrics["visibility_bitmaps"]):
        assert entry["visibility"] == pytest.approx(
            sum(bitmap.values()) / len(bitmap)
        )


def test_diagnostics_and_the_random_draw_build_no_orientation_candidate(scenes, monkeypatch):
    """The report's rejected rotations and A2's draw read the search's
    arrays: a FULL run with diagnostics and an A2 run of one (scene, seed)
    build no OrientationCandidate until the pose's candidates are read."""
    built, real = [], delivery.OrientationCandidate
    monkeypatch.setattr(delivery, "OrientationCandidate", lambda *args: built.append(args) or real(*args))
    scene = scenes["mug"]
    shared = SharedStages(scene)
    full, a2 = (run_pipeline(scene, mode, 0, emit_diagnostics=True, shared=shared) for mode in ("FULL", "A2"))
    assert full.failure is None and a2.failure is None and full.delivery["rejected_candidates"]
    assert built == []
    pose = shared.delivery(0, shared.ranking(0, scene.params.lam)[0].candidate, "planned")[3]
    assert len(pose.candidates) == len(built) == len(pose.rotations) == len(sample_orientations(45.0))


def test_a_full_plan_builds_grasp_candidates_only_for_the_contenders(scenes, monkeypatch):
    """Sampling and the contender scan read the GraspSet's rows: one FULL
    plan of mug (seed 0) builds one GraspCandidate per contender, the ones
    rank_grasps returns, and none for the other sampled candidates."""
    built, real = [], grasping.GraspCandidate
    monkeypatch.setattr(grasping, "GraspCandidate", lambda *args: built.append(args) or real(*args))
    scene = scenes["mug"]
    shared = SharedStages(scene)
    assert run_pipeline(scene, "FULL", 0, shared=shared).failure is None
    ranked = shared.ranking(0, scene.params.lam)
    assert len(built) == len(ranked) < len(shared.candidates(0))
    assert sorted(args[4] for args in built) == sorted(rg.candidate.contact_pair for rg in ranked)


def test_diagnostics_reuse_the_scoring_pass(scenes, monkeypatch):
    # the bitmaps come from the flags evaluate_maps already computed: one
    # visibility call for the delivery, on the union of the maps' contacts,
    # and the same bitmaps a per-map pass gives
    scene = scenes["hammer"]
    calls = []
    real = metrics.visibility

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "visibility", counting)
    report = run_pipeline(scene, "FULL", seed=0, emit_diagnostics=True)
    assert len(calls) == 1 and len(scene.contact_maps) == 3
    monkeypatch.undo()
    pose = np.array(report.grasp["pose"])
    ctx = DeliveryContext(
        grid=scene.grid, gripper=scene.gripper, grasp_rotation=pose[:3, :3],
        held_point=pose[:3, 3], width=report.grasp["width"],
        ee_position=np.array(report.delivery["ee_position"]), human=scene.human,
        robot_base=scene.robot_base, body_proxy_dims=scene.body_proxy_dims,
    )
    rotation = np.array(report.delivery["object_rotation"])
    for name, fn in (("visibility", metrics.visibility), ("reachability", metrics.reachability)):
        expect = [
            {",".join(map(str, idx)): v
             for idx, v in zip(cm.contacts()[0].tolist(), fn(ctx, rotation, cm)[1].tolist())}
            for cm in scene.contact_maps
        ]
        assert report.metrics[f"{name}_bitmaps"] == expect


def test_ergonomics_csv_is_rendered_once_per_scene_seed(scenes, monkeypatch):
    # every mode with diagnostics and a planned position carries the one
    # rendering of the arm plan's kept poses
    scene = scenes["hammer"]
    real = harness.candidates_csv
    calls = []
    monkeypatch.setattr(harness, "candidates_csv", lambda kept: calls.append(kept) or real(kept))
    shared = SharedStages(scene)
    reports = [run_pipeline(scene, mode, 0, emit_diagnostics=True, shared=shared) for mode in AblationMode]
    assert len(calls) == 1 and calls[0] is shared.position()[2]
    got = [r.metrics.get("diagnostics", {}).get("ergonomics_csv") for r in reports]
    assert got == [real(shared.position()[2])] * 4 + [None]


def test_bitmap_keys_are_rendered_once_per_scene_seed(scenes, monkeypatch):
    # each map's "x,y,z" keys are rendered once for every mode's bitmaps;
    # they key the map's contact voxels in order, and each report's metrics
    # encode as those of a run that shares nothing
    scene = scenes["hammer"]
    real = harness._bitmap_keys
    calls = []
    monkeypatch.setattr(harness, "_bitmap_keys", lambda cm: calls.append(cm) or real(cm))
    shared = SharedStages(scene)
    reports = [run_pipeline(scene, mode, 0, emit_diagnostics=True, shared=shared) for mode in AblationMode]
    assert calls == list(scene.contact_maps)
    monkeypatch.undo()
    keys = [[",".join(map(str, idx)) for idx in cm.contacts()[0].tolist()] for cm in scene.contact_maps]
    for mode, report in zip(AblationMode, reports):
        for name in ("visibility", "reachability"):
            assert [list(bitmap) for bitmap in report.metrics[f"{name}_bitmaps"]] == keys
        alone = run_pipeline(scene, mode, 0, emit_diagnostics=True)
        assert json.dumps(report.metrics, sort_keys=True) == json.dumps(alone.metrics, sort_keys=True)


def _json_oracle(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-2**80, 2**80), _FINITE,
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
    _FINITE.map(np.float64),
    st.text(st.characters(), max_size=6), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\U0001f600"]),
)
_JSON_DATA = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.lists(_FINITE | st.sampled_from([-0.0, 5e-324, 1e16]) | _FINITE.map(np.float64), max_size=5),
        st.dictionaries(st.text(max_size=4), _SCALARS, max_size=40),  # flat dicts of every size
        st.lists(st.fixed_dictionaries({  # rejected rotations, as the diagnostics list them
            "reason": st.text(max_size=4),
            "rotation": st.lists(st.lists(_FINITE | st.sampled_from([-0.0, 0.0]), min_size=3, max_size=3),
                                 min_size=3, max_size=3),
        }), min_size=1, max_size=4),
    ),
    max_leaves=30,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON_DATA)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}], "d": [[[]]]})
@example([[1.0, 2.5], [True, 1, 0.0], (3, "x")])
@example([{"reason": 'a "quoted" r\u00e9ason \U0001f600',
           "rotation": [[-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [5e-324, -0.0, 0.5]]},
          {"rotation": [[0.0, 0.0, -0.0], [1e16, np.float64(-0.0), 0.1], [0.0, 0.0, 0.0]], "reason": ""}])
@example({"d": [{"reason": "r", "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "x": None}]})
@example([{"reason": "r", "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}])
@example([{"reason": "r", "rotation": [[1.0, 0.0, 0.0], [0.0, 1, 0.0], [0.0, 0.0, 1.0]]}])
@example([{"reason": "r", "rotation": [[1.0, 0.0, 0.0], (0.0, 1.0, 0.0), [0.0, 0.0, 1.0]]}])
@example([{"reason": None, "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}])
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, data):
    harness.write_json(data, tmp_path / "d.json")
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == _json_oracle(data)


@pytest.mark.parametrize("data", [
    float("nan"), [1.0, float("inf")], (0.5, float("-inf")), [np.float64("nan")], {"a": 1, "b": float("nan")},
    {"a": [1, {"b": -float("inf")}]}, [[0.0], [float("nan")]], {"c": [1.0, 2.0], "d": {"e": float("inf")}},
    [{"reason": "r", "rotation": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]}],
    {"d": [{"reason": "r", "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -float("inf")]]}]},
])
def test_write_json_refuses_nan_and_inf_before_opening_the_file(data, tmp_path):
    with pytest.raises(ValueError):
        harness.write_json(data, tmp_path / "d.json")
    assert not (tmp_path / "d.json").exists()


def test_bundled_reports_and_summary_are_written_as_json_dumps(scenes, tmp_path):
    """Every mode's report on every bundled scene, with and without
    diagnostics, and their summary: write_json's bytes are json.dumps'."""
    reports = []
    for scene in scenes.values():
        shared = SharedStages(scene)
        reports += [run_pipeline(scene, mode, 0, emit_diagnostics=emit, shared=shared)
                    for emit in (True, False) for mode in AblationMode]
    for data in [r.to_dict() for r in reports] + [aggregate(reports)]:
        harness.write_json(data, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text(encoding="utf-8") == _json_oracle(data)


def test_a_report_at_the_finest_orientation_step_is_written_as_json_dumps(scenes, tmp_path):
    """FULL on the bundled mug at 15 degrees, with diagnostics: 1,732
    rejected rotations, written as json.dumps writes them."""
    report = run_pipeline(scene_with(scenes["mug"], orientation_step=15.0), "FULL", 0, emit_diagnostics=True)
    assert report.failure is None and len(report.delivery["rejected_candidates"]) == 1732
    save_report(report, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == _json_oracle(report.to_dict())


def test_save_report_refuses_nan(scenes, tmp_path):
    # the report is encoded before the file is opened: a refused report
    # creates no file and leaves one already at its path as it was
    report = run_pipeline(scenes["hammer"], "A4", seed=0)
    report.metrics["visibility_median"] = float("nan")
    with pytest.raises(ValueError):
        save_report(report, tmp_path / "r.json")
    assert not (tmp_path / "r.json").exists()
    (tmp_path / "good.json").write_bytes(b'{"kept": true}\n')
    with pytest.raises(ValueError):
        save_report(report, tmp_path / "good.json")
    assert (tmp_path / "good.json").read_bytes() == b'{"kept": true}\n'


# ----------------------------------------------------------------- ablations

def test_a1_equals_full_with_confidence_only_weight(scenes):
    full = run_pipeline(scene_with(scenes["hammer"], lam=1.0), "FULL", seed=0)
    a1 = run_pipeline(scenes["hammer"], "A1", seed=0)
    assert full.grasp == a1.grasp
    assert full.position == a1.position
    assert full.delivery == a1.delivery
    assert full.metrics == a1.metrics


@pytest.mark.parametrize("mode", ["A2", "A3"])
def test_random_orientation_sampled_feasible_deterministic(scenes, mode):
    scene = scenes["hammer"]
    report = run_pipeline(scene, mode, seed=3)
    assert report.failure is None
    rotation = np.array(report.delivery["object_rotation"])
    rotations = sample_orientations(45.0)
    assert any(np.abs(rotation - r).max() < 1e-12 for r in rotations)
    pose = np.array(report.grasp["pose"])
    ctx = DeliveryContext(
        grid=scene.grid,
        gripper=scene.gripper,
        grasp_rotation=pose[:3, :3],
        held_point=pose[:3, 3],
        width=report.grasp["width"],
        ee_position=np.array(report.delivery["ee_position"]),
        human=scene.human,
        robot_base=scene.robot_base,
        body_proxy_dims=scene.body_proxy_dims,
    )
    assert feasible(ctx, rotation)
    again = run_pipeline(scene, mode, seed=3)
    assert report.delivery["object_rotation"] == again.delivery["object_rotation"]


def test_random_orientation_varies_with_seed(scenes):
    scene = scenes["hammer"]
    picks = {
        json.dumps(run_pipeline(scene, "A2", seed=s).delivery["object_rotation"])
        for s in range(5)
    }
    assert len(picks) >= 2


def test_a4_skips_planning_stages(scenes):
    scene = scenes["hammer"]
    report = run_pipeline(scene, "A4", seed=0)
    assert report.stages == ["grasp", "contacts", "ranking", "metrics"]
    assert report.position is None
    assert np.array_equal(np.array(report.delivery["object_rotation"]), np.eye(3))
    # tucked pose parks the held point in front of the robot base
    ee = np.array(report.delivery["ee_position"])
    expect = scene.robot_base + 0.6 * (-scene.human.facing) + np.array([0, 0, 0.8])
    assert np.allclose(ee, expect)
    assert report.metrics["reachability_median"] == 0.0
    assert report.success is False


def test_mode_accepts_enum_and_string(scenes):
    a = run_pipeline(scenes["hammer"], "A4", seed=0).to_dict()
    from handover.harness import AblationMode
    b = run_pipeline(scenes["hammer"], AblationMode.A4, seed=0).to_dict()
    assert a == b


# ------------------------------------------------------------- shared stages

MODES = [m.value for m in AblationMode]


def report_bytes(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def test_shared_stages_reports_equal_fresh_runs(scenes):
    # the mode order rotates per scene, so each mode is once the one that
    # fills the shared stages, A2 and A3 once before any planned search
    for emit in (False, True):
        for i, scene in enumerate(scenes.values()):
            shared = SharedStages(scene)
            for mode in MODES[i:] + MODES[:i]:
                fresh = run_pipeline(scene, mode, 0, emit_diagnostics=emit)
                via_shared = run_pipeline(scene, mode, 0, emit_diagnostics=emit, shared=shared)
                assert report_bytes(via_shared) == report_bytes(fresh), (scene.name, mode, emit)


def test_shared_stages_over_seeds_0_1_0_report_as_fresh_runs(scenes):
    """One SharedStages per bundled scene, asked for every mode of seed 0,
    then 1, then 0 again, with diagnostics: each report equals a fresh run's.
    Seed 1 drops seed 0's entries, so the second seed 0 computes them anew."""
    for scene in scenes.values():
        fresh = {(seed, mode): report_bytes(run_pipeline(scene, mode, seed, emit_diagnostics=True))
                 for seed in (0, 1) for mode in MODES}
        shared = SharedStages(scene)
        for seed in (0, 1, 0):
            for mode in MODES:
                report = run_pipeline(scene, mode, seed, emit_diagnostics=True, shared=shared)
                assert report_bytes(report) == fresh[seed, mode], (scene.name, seed, mode)


def retained_bytes(scene, seeds) -> int:
    """The traced bytes a SharedStages of `scene` still holds after every
    mode of each of `seeds`, in order: what deleting it frees."""
    gc.collect()
    tracemalloc.start()
    try:
        shared = SharedStages(scene)
        for seed in seeds:
            for mode in MODES:
                run_pipeline(scene, mode, seed, shared=shared)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del shared
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("min_pts", [4, 100000], ids=["bundled", "no-cluster"])
def test_shared_stages_hold_one_seed_at_a_time(scenes, min_pts):
    """After seeds 0-4, a SharedStages of mug holds no more than after seed
    0 alone, plus 10%: each new seed drops the last one's entries. Bundled,
    both hold about 0.37 MB (numpy 2.4, x86_64); keeping every seed's held
    1.7 MB. With no cluster, every run raises the one kept clustering
    failure, which must not keep the frames of the runs that raised it."""
    scene = scene_with(scenes["mug"], min_pts=min_pts)
    one = retained_bytes(scene, [0])
    assert 0 < retained_bytes(scene, range(5)) <= 1.1 * one


def lower_confidences(monkeypatch):
    """Scale each sampled candidate's confidence down by its place in the
    list, so it no longer saturates at 1.0: FULL and A1 then rank different
    candidates first on the bundled scenes."""
    real = harness.sample_grasps

    def lowered(*args, **kwargs):
        found = real(*args, **kwargs)
        return [replace(c, confidence=c.confidence * (1.0 - 0.25 * i / len(found))) for i, c in enumerate(found)]

    monkeypatch.setattr(harness, "sample_grasps", lowered)


def record_contexts(monkeypatch, name, raises=None):
    """The DeliveryContexts harness.<name> is called on, in call order; each
    call raises `raises` when it is given."""
    contexts = []
    real = getattr(harness, name)

    def recording(ctx, *args, **kwargs):
        contexts.append(ctx)
        if raises is not None:
            raise raises
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(harness, name, recording)
    return contexts


def test_modes_with_different_tops_each_deliver_their_own(scenes, monkeypatch):
    """Nothing is reused between two top candidates: each is searched and
    scored, and every report still equals a fresh run's, byte for byte."""
    lower_confidences(monkeypatch)
    scene = scenes["hammer"]
    fresh = {mode: report_bytes(run_pipeline(scene, mode, 0, emit_diagnostics=True)) for mode in MODES}
    searched, scored, scanned = (record_contexts(monkeypatch, name)
                                 for name in ("plan_handover_orientation", "evaluate_maps", "feasible"))
    shared = SharedStages(scene)
    for mode in MODES:
        report = run_pipeline(scene, mode, 0, emit_diagnostics=True, shared=shared)
        assert report_bytes(report) == fresh[mode], mode
    tops = [shared.ranking(0, lam)[0].candidate for lam in (scene.params.lam, 1.0)]
    assert tops[0] is not tops[1]
    held = [top.translation.tobytes() for top in tops]
    assert [ctx.held_point.tobytes() for ctx in searched] == held
    # FULL, A1, then A2 and A3 on the same two tops, then A4 on A1's
    assert [ctx.held_point.tobytes() for ctx in scored] == held + held + held[1:]
    assert scanned == []  # A2 and A3 took the feasible rotations their top's search found


_KEPT_FAILURES = [
    ("plan_handover_orientation", "orientation", False, 1, 2),
    ("plan_handover_orientation", "orientation", True, 2, 4),
    ("evaluate_maps", "metrics", False, 3, 3),
    ("evaluate_maps", "metrics", True, 5, 5),
]


@pytest.mark.parametrize("name, stage, lower, runs, kinds", _KEPT_FAILURES,
                         ids=["-".join(map(str, row[:4])) for row in _KEPT_FAILURES])  # name, stage, lower, runs
def test_kept_delivery_failure_reports_as_a_fresh_run(scenes, monkeypatch, name, stage, lower, runs, kinds):
    """A broken orientation search or metrics stage: each mode reports what
    a fresh run reports. The stage runs `runs` times: the search once per top
    candidate, the metrics once per (top candidate, delivery kind). `kinds`
    (top candidate, delivery kind) pairs report the failure: a broken search
    fails the random kind (A2, A3) of its top too, as that kind draws from it."""
    if lower:
        lower_confidences(monkeypatch)
    scene = scenes["hammer"]
    calls = record_contexts(monkeypatch, name, RuntimeError("stage broken"))
    fresh = {mode: run_pipeline(scene, mode, 0) for mode in MODES}
    calls.clear()
    shared = SharedStages(scene)
    reached = set()
    for mode in AblationMode:
        report = run_pipeline(scene, mode, 0, shared=shared)
        assert report_bytes(report) == report_bytes(fresh[mode.value]), mode
        if report.failure == f"{stage}: RuntimeError: stage broken":
            lam, kind = harness.MODE_PLANS[mode]
            reached.add((id(shared.ranking(0, scene.params.lam if lam is None else lam)[0].candidate), kind))
    assert (len(calls), len(reached)) == (runs, kinds)


@pytest.mark.parametrize("mode", ["A2", "A3"])
def test_lone_random_delivery_searches_once(scenes, monkeypatch, mode):
    """A2 or A3 on its own draws from its top's planned search, run once,
    and checks no rotation again."""
    searched, scanned = (record_contexts(monkeypatch, name) for name in ("plan_handover_orientation", "feasible"))
    report = run_pipeline(scenes["hammer"], mode, 0)
    assert report.failure is None
    assert (len(searched), scanned) == (1, [])


def test_random_delivery_draws_on_the_planned_context(scenes):
    """The random kind adds no context: it delivers on its top's planned one,
    for the FULL top and the A1 top of every bundled scene."""
    for scene in scenes.values():
        shared = SharedStages(scene)
        for lam in (scene.params.lam, 1.0):
            top = shared.ranking(0, lam)[0].candidate
            assert shared.delivery(0, top, "random")[0] is shared.delivery(0, top, "planned")[0], scene.name


def test_shared_position_failure_spares_a4(scenes, monkeypatch):
    scene = scenes["hammer"]
    a4 = report_bytes(run_pipeline(scene, "A4", 0))
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise ValueError("arm model broken")

    monkeypatch.setattr(harness, "plan_handover_position", broken)
    shared = SharedStages(scene)
    for mode in MODES:
        report = run_pipeline(scene, mode, 0, shared=shared)
        if mode == "A4":
            assert report_bytes(report) == a4
        else:
            assert report.failure == "position: arm model broken"
            assert report.stages == ["grasp", "contacts", "ranking", "position"]
            assert report.grasp is not None and report.metrics is None
    assert len(calls) == 1


def test_any_stage_exception_names_the_stage(scenes, monkeypatch):
    scene = scenes["hammer"]
    a4 = report_bytes(run_pipeline(scene, "A4", 0))

    def broken(*args, **kwargs):
        raise RuntimeError("solver diverged")

    monkeypatch.setattr(harness, "plan_handover_position", broken)
    shared = SharedStages(scene)
    for mode in MODES:
        for report in (run_pipeline(scene, mode, 0), run_pipeline(scene, mode, 0, shared=shared)):
            if mode == "A4":
                assert report_bytes(report) == a4
            else:
                assert report.failure == "position: RuntimeError: solver diverged"
                assert report.stages == ["grasp", "contacts", "ranking", "position"]
                assert not report.success and report.metrics is None


def test_failure_after_ranking_is_labelled_with_the_last_stage(scenes, monkeypatch):
    # A4 scores its tucked pose inside the metrics stage; A2 and A3 draw
    # their rotation inside the orientation stage
    def broken(*args, **kwargs):
        raise RuntimeError("objective broken")

    monkeypatch.setattr(harness, "exposure_objective", broken)
    for mode, last in (("A4", "metrics"), ("A2", "orientation"), ("A3", "orientation")):
        report = run_pipeline(scenes["hammer"], mode, 0)
        assert report.stages[-1] == last, mode
        assert report.failure == f"{last}: RuntimeError: objective broken", mode
        assert report.delivery is None and report.metrics is None


def ranking_bits(ranking) -> list:
    return [(rg.candidate.pose.tobytes(), rg.candidate.contact_pair, rg.candidate.confidence,
             rg.occlusion, rg.score) for rg in ranking]


@pytest.fixture(scope="module")
def full_tops(bundled_stages):
    """Per bundled scene and seed 0-4, by lam in {0, 0.5, 1}: the top of
    rank_grasps over every sampled candidate, as ranking_bits."""
    out = {}
    for key, (scene, shared, *_) in bundled_stages.items():
        grid = scene.grid
        out[key] = {lam: ranking_bits(rank_grasps(shared.candidates(key[1]), shared.cluster(), lam,
                                                  scene.gripper, grid)[:1]) for lam in (0.0, 0.5, 1.0)}
    return out


def test_shared_ranking_equals_fresh_rank_grasps_bitwise(bundled_stages, full_tops):
    # rank_grasps runs once per SharedStages, at the scene's lam whichever lam
    # is asked first; every lam re-sorts its ranking, and must agree bitwise
    # with rank_grasps of the contenders at that lam, whose top is the top of
    # the ranking of every candidate
    for (name, seed), (scene, full_first, a1_first, fresh, calls) in bundled_stages.items():
        assert calls == [scene.params.lam] * 2, (name, seed)
        for lam in fresh:
            expect = ranking_bits(fresh[lam])
            assert ranking_bits(full_first.ranking(seed, lam)) == expect, (name, seed, lam)
            assert ranking_bits(a1_first.ranking(seed, lam)) == expect, (name, seed, lam)
            assert expect[:1] == full_tops[name, seed][lam], (name, seed, lam)


def test_shared_ranking_keeps_every_tie_break_on_constructed_contenders(scenes, monkeypatch):
    """Contenders with (confidence, occlusion) repeated at non-adjacent
    positions, scores that tie between different pairs at lam 0.5 and 0.75,
    and confidences below 1.0: ranking(lam) is rank_grasps of them at `lam`,
    bitwise, for five lams asked in either order."""
    scene = scenes["hammer"]
    assert scene.params.lam == 0.5
    pairs = [(0.9, 0.25), (1.0, 0.5), (0.5, 0.0), (0.9, 0.25), (0.75, 0.25), (1.0, 0.75), (1.0, 0.5),
             (0.9, 0.5), (0.75, 0.0), (0.5, 0.0), (0.625, 0.0), (0.9, 0.25)]
    base = SharedStages(scene).candidates(0)
    built = [replace(c, confidence=conf) for c, (conf, _) in zip(base, pairs)]
    occlusion = {id(c): occ for c, (_, occ) in zip(built, pairs)}
    monkeypatch.setattr(grasping, "_occlusions", lambda cands, *args: [occlusion[id(c)] for c in cands])
    monkeypatch.setattr(harness, "contenders", lambda *args: built)
    lams = (0.5, 0.0, 0.25, 0.75, 1.0)
    fresh = {lam: ranking_bits(rank_grasps(built, None, lam, scene.gripper, scene.grid)) for lam in lams}
    calls = []
    real = harness.rank_grasps
    monkeypatch.setattr(harness, "rank_grasps", lambda *args: calls.append(args[2]) or real(*args))
    for order in (lams, lams[::-1]):
        shared = SharedStages(scene)
        for lam in order:
            assert ranking_bits(shared.ranking(0, lam)) == fresh[lam], (order, lam)
    assert calls == [0.5, 0.5]


def test_shared_top_is_the_top_of_every_candidate_bitwise(bundled_stages, full_tops):
    """run_pipeline reads only ranking(lam)[0]: ranking the contenders keeps
    it bitwise (pose bytes, contact pair, confidence, occlusion, score) on
    every bundled scene and seed, at lam 0, 0.5 and 1, whichever lam a
    SharedStages was asked first."""
    for (name, seed), (scene, full_first, a1_first, *_) in bundled_stages.items():
        for lam, expect in full_tops[name, seed].items():
            for shared in (full_first, a1_first):
                assert ranking_bits(shared.ranking(seed, lam)[:1]) == expect, (name, seed, lam)
            assert len(full_first.ranking(seed, lam)) < len(full_first.candidates(seed)), (name, seed)


def test_shared_ranking_failure_is_raised_for_every_lam(scenes, monkeypatch):
    calls = []

    def broken(*args, **kwargs):
        calls.append(args[2])
        raise RuntimeError("occlusion kernel broken")

    monkeypatch.setattr(harness, "rank_grasps", broken)
    shared = SharedStages(scenes["hammer"])
    for mode in ("FULL", "A1", "A4"):
        report = run_pipeline(scenes["hammer"], mode, 0, shared=shared)
        assert report.failure == "ranking: RuntimeError: occlusion kernel broken", mode
    assert calls == [scenes["hammer"].params.lam]


def test_shared_empty_cluster_fails_every_mode_alike(scenes):
    scene = scene_with(scenes["hammer"], min_pts=100000)
    shared = SharedStages(scene)
    for mode in MODES:
        fresh = run_pipeline(scene, mode, 0)
        report = run_pipeline(scene, mode, 0, shared=shared)
        assert (report.stages, report.failure) == (fresh.stages, fresh.failure) == (
            ["grasp", "contacts"], "contacts: no contact cluster: all 353 contact voxels are noise at eps=0.009, min_pts=100000"
        )


def test_shared_stages_bound_to_scene_and_params(scenes):
    scene = scenes["hammer"]
    with pytest.raises(ValueError, match="shared stages of scene 'mug' passed to a run of scene 'hammer'"):
        run_pipeline(scene, "A4", 0, shared=SharedStages(scenes["mug"]))
    twin = scene_with(scene)
    shared = SharedStages(twin)
    twin.params = PipelineParams.from_dict(asdict(twin.params))
    with pytest.raises(ValueError, match="shared stages"):
        run_pipeline(twin, "A4", shared=shared)


@pytest.mark.parametrize("seed", [2.5, True, -1])
def test_seed_outside_its_rule_is_a_caller_error(scenes, seed):
    """A seed argument keeps the scene's `seed` rule, in run_pipeline and in
    every seeded SharedStages method alike: 2.5 is not truncated to 2, nor
    True read as 1."""
    message = r"parameter 'seed' must be an integer in \[0, inf\)"
    with pytest.raises(ValueError, match=message):
        run_pipeline(scenes["hammer"], "A4", seed)
    shared = SharedStages(scenes["hammer"])
    top = shared.ranking(0, 0.5)[0].candidate
    for ask in (lambda: shared.candidates(seed), lambda: shared.ranking(seed, 0.5),
                lambda: shared.delivery(seed, top, "planned"), lambda: shared.scores(seed, top, "tucked")):
        with pytest.raises(ValueError, match=message):
            ask()


# --------------------------------------------------------------- aggregation

def mk_report(obj, mode, seed, vis=0.9, reach=0.8, succ=True, k=0.5, lam=0.5, failed=False):
    return HandoverReport(
        object_name=obj,
        mode=mode,
        seed=seed,
        params={"k": k, "lam": lam},
        stages=[],
        grasp=None,
        position=None,
        delivery=None,
        metrics=None if failed else {
            "visibility_median": vis, "reachability_median": reach, "k": k,
        },
        success=succ,
        failure="contacts: empty contact map" if failed else None,
    )


def test_aggregate_success_rate_counts():
    reports = [mk_report("hammer", "FULL", s, succ=(s != 4)) for s in range(5)]
    summary = aggregate(reports)
    row = summary["modes"]["FULL"]
    assert row["success_rate"] == pytest.approx(0.8)
    assert row["n_runs"] == 5
    assert row["success_rate_by_object"] == {"hammer": pytest.approx(0.8)}


def test_aggregate_single_report_identity():
    summary = aggregate([mk_report("mug", "A2", 0, vis=0.7, reach=0.6)])
    row = summary["modes"]["A2"]
    assert row["visibility_mean"] == pytest.approx(0.7)
    assert row["reachability_mean"] == pytest.approx(0.6)
    assert row["success_rate"] == 1.0


def test_aggregate_failed_runs_contribute_zero():
    reports = [
        mk_report("pan", "FULL", 0, vis=1.0, reach=1.0),
        mk_report("pan", "FULL", 1, succ=False, failed=True),
    ]
    row = aggregate(reports)["modes"]["FULL"]
    assert row["visibility_mean"] == pytest.approx(0.5)
    assert row["reachability_mean"] == pytest.approx(0.5)
    assert row["success_rate"] == pytest.approx(0.5)


def test_aggregate_rejects_mixed_settings():
    reports = [mk_report("a", "FULL", 0, k=0.5), mk_report("b", "FULL", 0, k=0.6)]
    with pytest.raises(ValueError, match="mode FULL: mixed k or lam across aggregated reports"):
        aggregate(reports)
    with pytest.raises(ValueError, match="no reports to aggregate"):
        aggregate([])


def test_aggregate_runs_sorted():
    reports = [
        mk_report("mug", "A1", 1),
        mk_report("hammer", "FULL", 0),
        mk_report("hammer", "A1", 2),
    ]
    runs = aggregate(reports)["runs"]
    keys = [(r["object"], r["mode"], r["seed"]) for r in runs]
    assert keys == sorted(keys)


def test_summary_csv_order_and_format():
    reports = []
    for mode in ("A3", "FULL", "A4", "A1", "A2"):  # scrambled on purpose
        reports.append(mk_report("hammer", mode, 0, vis=0.5, reach=0.25))
    text = summary_csv(aggregate(reports))
    lines = text.strip().split("\n")
    assert lines[0] == "Mode,Visibility,Reachability,SuccessRate"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["FULL", "A1", "A2", "A3", "A4"]
    assert lines[1] == "FULL,0.500000,0.250000,1.000000"
