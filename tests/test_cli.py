"""Command line behavior: exit codes, output contracts, file side effects."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from handover import cli, harness
from handover.contacts import ContactMap, load_contact_map, save_contact_map
from handover.voxelgeom import load_vgrid

from conftest import absolutized_config, cube_mesh, write_obj


def run_cli(argv, capsys):
    """Invoke the entry point in-process; argparse errors surface as SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------ voxelize

def test_voxelize_cube(tmp_path, capsys):
    mesh = tmp_path / "cube.obj"
    write_obj(cube_mesh(1.0), mesh)
    out = tmp_path / "cube.vgrid"
    code, stdout, _ = run_cli(["voxelize", str(mesh), str(out), "--dims", "32"], capsys)
    assert code == 0
    grid = load_vgrid(out)
    assert grid.dims == (32, 32, 32)
    assert grid.occupied_count > 0
    assert f"{grid.occupied_count} occupied" in stdout


def test_voxelize_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.obj"
    code, _, stderr = run_cli(["voxelize", str(missing), str(tmp_path / "o.vgrid")], capsys)
    assert code == 1
    assert stderr.startswith("error:")
    assert str(missing) in stderr


@pytest.mark.parametrize("flag,value,field", [
    ("--dims", "0", "dims"), ("--dims", "-4", "dims"),
    ("--padding", "-0.6", "padding"), ("--padding", "nan", "padding"),
])
def test_voxelize_rejects_bad_dims_and_padding_naming_the_field(flag, value, field, tmp_path, capsys):
    mesh = tmp_path / "cube.obj"
    write_obj(cube_mesh(1.0), mesh)
    out = tmp_path / "o.vgrid"
    code, _, stderr = run_cli(["voxelize", str(mesh), str(out), flag, value], capsys)
    assert code == 1
    assert stderr.startswith(f"error: {field} must be ")
    assert not out.exists()


# ---------------------------------------------------------------------- plan

def test_plan_success_output_and_report(suite_dir, tmp_path, capsys):
    scene = suite_dir / "hammer.scene.json"
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        ["plan", str(scene), "--mode", "FULL", "--seed", "0", "--out", str(out)], capsys
    )
    assert code == 0
    m = re.fullmatch(
        r"mode=FULL seed=0 vis=(\d\.\d{6}) reach=(\d\.\d{6}) success=(true|false)\n",
        stdout,
    )
    assert m, stdout
    report = json.loads(out.read_text())
    assert f"{report['metrics']['visibility_median']:.6f}" == m.group(1)
    assert f"{report['metrics']['reachability_median']:.6f}" == m.group(2)
    assert (report["success"] and m.group(3) == "true") or (
        not report["success"] and m.group(3) == "false"
    )


def test_plan_invalid_mode(suite_dir, capsys):
    code, _, stderr = run_cli(
        ["plan", str(suite_dir / "hammer.scene.json"), "--mode", "TURBO"], capsys
    )
    assert code == 1
    assert "invalid choice" in stderr


def test_plan_unwritable_out(suite_dir, tmp_path, capsys):
    code, _, stderr = run_cli(
        ["plan", str(suite_dir / "mug.scene.json"), "--seed", "0",
         "--out", str(tmp_path)], capsys  # a directory, not a file
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_plan_set_overrides(suite_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["plan", str(suite_dir / "mug.scene.json"), "--seed", "0",
         "--set", "alpha=0.25", "--set", "max_grasps=50", "--out", str(out)], capsys
    )
    assert code == 0
    params = json.loads(out.read_text())["params"]
    assert params["alpha"] == 0.25
    assert params["max_grasps"] == 50


def test_two_calls_in_one_process_parse_independently(suite_dir, tmp_path, capsys):
    """main reuses one parser: flags of one call do not carry into the next."""
    scene, first, second = str(suite_dir / "hammer.scene.json"), tmp_path / "a.json", tmp_path / "b.json"
    argv = ["plan", scene, "--seed", "0", "--out"]
    assert run_cli([*argv, str(first), "--set", "alpha=0.25", "--emit-diagnostics"], capsys)[0] == 0
    assert run_cli([*argv, str(second)], capsys)[0] == 0
    a, b = (json.loads(p.read_text()) for p in (first, second))
    assert (a["params"]["alpha"], b["params"]["alpha"]) == (0.25, harness.PipelineParams().alpha)
    assert "visibility_bitmaps" in a["metrics"] and "visibility_bitmaps" not in b["metrics"]


def test_plan_set_rejects_unknown_key(suite_dir, capsys):
    code, _, stderr = run_cli(
        ["plan", str(suite_dir / "mug.scene.json"), "--set", "bogus=1"], capsys
    )
    assert code == 1
    assert "unknown parameter" in stderr


def test_plan_set_rejects_malformed_pair(suite_dir, capsys):
    code, _, stderr = run_cli(
        ["plan", str(suite_dir / "mug.scene.json"), "--set", "lam0.7"], capsys
    )
    assert code == 1
    assert "not key=value" in stderr


@pytest.mark.parametrize("key, value", [
    ("eps", "-0.009"), ("eps", "0"), ("eps", "nan"), ("eps", "inf"),
    ("k", "0"), ("k", "1"), ("k", "1.5"),
    ("lam", "-0.1"), ("lam", "1.01"), ("lam", "nan"), ("lam", "null"), ("alpha", "2"),
    ("orientation_step", "7"), ("orientation_step", "0"), ("orientation_step", "-45"),
    ("position_step", "0"), ("position_step", "0.001"), ("object_mass", "inf"), ("object_mass", "-0.5"),
    ("max_grasps", "0"), ("min_pts", "0"), ("min_pts", "inf"), ("min_pts", "four"),
    ("seed", "-1"),
])
def test_invalid_parameter_rejected_at_load_naming_the_field(suite_dir, capsys, key, value):
    raw = None if value == "null" else value
    with pytest.raises(ValueError, match=f"parameter '{key}'"):
        harness.PipelineParams.from_dict({key: raw})
    code, stdout, stderr = run_cli(
        ["plan", str(suite_dir / "mug.scene.json"), "--set", f"{key}={value}"], capsys
    )
    assert code == 1
    assert f"parameter '{key}'" in stderr
    assert stdout == ""


def low_contact_maps(cfg, tmp_path):
    """The scene's map paths, map 2 rewritten to 0.3 wherever it is nonzero:
    the file parses, but the map holds no contact, so every run would fail."""
    grid = load_vgrid(cfg["object"]["vgrid"])
    cm = load_contact_map(cfg["contact_maps"][2], grid)
    save_contact_map(ContactMap(grid, cm.keys, np.full(len(cm.values), 0.3)), tmp_path / "low.vcontact")
    return cfg["contact_maps"][:2] + [str(tmp_path / "low.vcontact")]


@pytest.mark.parametrize("section, key, value", [
    ("layout", "standoff", -1.2), ("layout", "standoff", 0.0), ("layout", "standoff", float("nan")),
    ("layout", "standoff", "far"), ("layout", "start_distance", -0.5),
    ("layout", "start_distance", float("inf")),
    ("gripper", "max_width", float("inf")), ("gripper", "finger_length", 0.0),
    ("gripper", "palm_depth", None),
    ("human", "upper_arm_mass", -5.0), ("human", "hand_mass", float("nan")),
    ("human", "arm_plane_offset", float("inf")), ("human", "forearm_length", -0.3),
    ("human", "height", float("inf")), ("human", "base_position", [0.0, float("nan"), 0.0]),
    ("human", "facing", "north"),
    (None, "planning_map", 1.7), (None, "planning_map", None), (None, "planning_map", "abc"),
    (None, "planning_map", True), (None, "planning_map", -1),
    # unknown keys, one per section; start_distance is no longer a layout key
    ("layout", "standof", 3.0), ("robot", "body_proxy_dim", [0.5, 0.5, 1.1]),
    ("object", "grid", "mug.vgrid"), ("human", "heigth", 1.8), ("gripper", "finger_len", 0.05),
    ("scene", "planing_map", 0),
    # wrong JSON types: a non-object params, one path string for the list, bool for a number
    ("scene", "params", [["lam", 0.5]]), ("scene", "contact_maps", "mug_contacts_0.vcontact"),
    ("scene", "contact_maps", None), ("human", "height", True), ("human", "base_position", [0.0, True, 0.0]),
    ("params", "lam", True),
    # loads as a number, but asks the arm sweep for ~1.9e10 configurations; never run
    ("params", "position_step", 0.001),
    # a grid path that is not a string; bool for a number; a non-integral
    # integer; a name that is not a string; a number given as a string
    ("object", "vgrid", 5), ("object", "vgrid", None), ("gripper", "max_width", True),
    ("layout", "standoff", True), ("robot", "body_proxy_dims", [True, 1, 1]),
    ("params", "max_grasps", 2.7), ("scene", "name", 5), ("params", "lam", "0.3"),
    # past the bounds that keep a run finite and short; never run
    ("params", "orientation_step", 0.5), ("human", "height", 1e308), ("params", "object_mass", 1e308),
    ("human", "arm_plane_offset", 1e308), ("gripper", "max_width", 1e308),
    # a file map that loads but has no value at CONTACT_THRESHOLD, so no contact to plan or score on
    ("scene", "contact_maps", low_contact_maps),
])
def test_invalid_scene_field_rejected_at_load_naming_the_field(suite_dir, tmp_path, capsys,
                                                               section, key, value):
    cfg = absolutized_config(suite_dir, "mug")
    if section in (None, "scene"):
        target = cfg
    elif section == "gripper":
        target = cfg["robot"].setdefault("gripper", {})
    else:
        target = cfg.setdefault(section, {})
    target[key] = value(cfg, tmp_path) if callable(value) else value
    path = tmp_path / "bad.scene.json"
    path.write_text(json.dumps(cfg))
    code, stdout, stderr = run_cli(["plan", str(path), "--seed", "0"], capsys)
    assert code == 1
    assert stderr.startswith("error:")
    if section == "params":  # PipelineParams names its fields as parameters
        assert f"parameter '{key}'" in stderr
    else:
        assert (f"{section} field '{key}'" if section else f"{key} out of range") in stderr
        if key not in harness.SCENE_FIELDS[section or "scene"]:
            assert f"unknown {section} field '{key}'" in stderr
    if value is low_contact_maps:
        assert "scene field 'contact_maps': map 2 has no value of at least 0.5" in stderr
    assert stdout == ""


def test_set_reads_a_json_scalar(suite_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        ["plan", str(suite_dir / "mug.scene.json"), "--seed", "0", "--set", "eps=none",
         "--set", "max_grasps=50.0", "--set", "lam=1", "--out", str(out)], capsys
    )
    assert code == 0
    params = json.loads(out.read_text())["params"]
    assert (params["eps"], params["max_grasps"], params["lam"]) == (None, 50, 1.0)
    assert isinstance(params["lam"], float)


def test_parameter_range_edges_accepted():
    p = harness.PipelineParams.from_dict(
        {"eps": None, "lam": 0, "alpha": 1, "object_mass": 0, "min_pts": 1, "max_grasps": 1,
         "orientation_step": 360, "k": 0.999}
    )
    assert (p.eps, p.lam, p.alpha, p.object_mass, p.orientation_step) == (None, 0.0, 1.0, 0.0, 360.0)


def test_plan_stage_failure_exits_2(suite_dir, capsys):
    code, stdout, _ = run_cli(
        ["plan", str(suite_dir / "hammer.scene.json"), "--seed", "0",
         "--set", "min_pts=100000"], capsys
    )
    assert code == 2
    assert "failure=contacts: no contact cluster: all 353 contact voxels are noise at eps=0.009, min_pts=100000" in stdout


def test_plan_emit_diagnostics(suite_dir, tmp_path, capsys):
    out = tmp_path / "diag.json"
    code, _, _ = run_cli(
        ["plan", str(suite_dir / "knife.scene.json"), "--seed", "0",
         "--emit-diagnostics", "--out", str(out)], capsys
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert "visibility_bitmaps" in report["metrics"]
    assert "rejected_candidates" in report["delivery"]


def test_plan_out_rewrites_the_same_bytes(suite_dir, tmp_path, capsys):
    runs = []
    for name in ("a.json", "b.json"):
        code, _, _ = run_cli(["plan", str(suite_dir / "knife.scene.json"), "--seed", "0",
                              "--emit-diagnostics", "--out", str(tmp_path / name)], capsys)
        assert code == 0
        runs.append((tmp_path / name).read_bytes())
    assert runs[0] == runs[1]


def test_plan_negative_seed_is_a_usage_error(suite_dir, capsys):
    code, stdout, stderr = run_cli(["plan", str(suite_dir / "mug.scene.json"), "--seed", "-1"], capsys)
    assert code == 1
    assert stdout == ""
    assert "parameter 'seed' must be an integer in [0, inf), got -1" in stderr


# --------------------------------------------------------------------- bench

BENCH_ARGS = ["--modes", "FULL,A4", "--seeds", "0,1"]


def test_bench_grid_and_summary(suite_dir, tmp_path, capsys):
    out = tmp_path / "bench"
    code, stdout, _ = run_cli(
        ["bench", str(suite_dir / "hammer.scene.json"), str(suite_dir / "knife.scene.json"),
         "--out", str(out), *BENCH_ARGS], capsys
    )
    assert code == 0
    for stem in ("hammer", "knife"):
        for mode in ("FULL", "A4"):
            for seed in (0, 1):
                assert (out / f"{stem}_{mode}_{seed}.json").exists()
    csv_text = (out / "summary.csv").read_text()
    assert csv_text.startswith("Mode,Visibility,Reachability,SuccessRate\n")
    assert stdout == csv_text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["modes"]["FULL"]["n_runs"] == 4
    assert len(summary["runs"]) == 8


def test_bench_summary_is_aggregate_in_scene_mode_seed_order(suite_dir, tmp_path, capsys):
    stems, modes, seeds = ("hammer", "knife"), ("FULL", "A2", "A4"), (0, 1)
    out = tmp_path / "bench"
    code, _, _ = run_cli(
        ["bench", *(str(suite_dir / f"{stem}.scene.json") for stem in stems), "--out", str(out),
         "--modes", ",".join(modes), "--seeds", ",".join(map(str, seeds))], capsys
    )
    assert code == 0
    reports = [harness.load_report(out / f"{stem}_{mode}_{seed}.json")
               for stem in stems for mode in modes for seed in seeds]
    summary = harness.aggregate(reports)
    want = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert (out / "summary.json").read_bytes() == want.encode()
    assert (out / "summary.csv").read_bytes() == harness.summary_csv(summary).encode()


def test_bench_glob_rerun_and_parallel_identical(suite_dir, tmp_path, capsys):
    """A rerun and --jobs 3 write every file of --jobs 1 byte for byte: the
    8 per-run reports and both summaries."""
    paths = [str(suite_dir / "hammer.scene.json"), str(suite_dir / "knife.scene.json")]
    outputs = []
    for i, jobs in enumerate(("1", "1", "3")):
        out = tmp_path / f"run{i}"
        code, _, _ = run_cli(["bench", *paths, "--out", str(out), "--jobs", jobs,
                              *BENCH_ARGS], capsys)
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 10
    assert outputs[0] == outputs[1] == outputs[2]


def test_bench_parallel_samples_each_scene_seed_once(suite_dir, tmp_path, capsys, monkeypatch):
    """Bench runs every (seed, mode) of one scene as one group that shares its
    stages, whatever --jobs is: one clustering of the planning map and one arm
    plan per scene, and per seed one sampling and one rank_grasps call, on the
    contenders at the scene's lam. FULL/A2 rank at the scene's lam and
    A1/A3/A4 at 1.0; each lam re-sorts that one ranking. FULL and A1 rank one
    candidate first, so it is searched once and scored once per delivery kind
    (planned, random, tucked), and A2/A3 draw from that search's feasible
    rotations."""
    names = ("sample_grasps", "cluster_contacts", "rank_grasps", "plan_handover_position",
             "predict_contacts_heuristic", "plan_handover_orientation", "evaluate_maps", "feasible")
    calls = {}

    def counting(name):
        real = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    for name in names:
        counting(name)
    cfg = absolutized_config(suite_dir, "hammer")
    cfg["planning_map"] = "heuristic"
    heuristic = tmp_path / "heuristic.scene.json"
    heuristic.write_text(json.dumps(cfg))
    once = {"sample_grasps": 1, "cluster_contacts": 1, "rank_grasps": 1, "plan_handover_position": 1,
            "predict_contacts_heuristic": 0, "plan_handover_orientation": 1, "evaluate_maps": 3, "feasible": 0}
    for scene, stem, expect in (
        (suite_dir / "hammer.scene.json", "hammer", once),
        (heuristic, "heuristic", {**once, "predict_contacts_heuristic": 1}),
    ):
        calls.update(dict.fromkeys(names, 0))
        out = tmp_path / stem
        code, _, _ = run_cli(["bench", str(scene), "--seeds", "0", "--jobs", "3",
                              "--out", str(out)], capsys)
        assert code == 0
        assert len(list(out.glob(f"{stem}_*_0.json"))) == 5
        assert calls == expect
    calls.update(dict.fromkeys(names, 0))
    code, _, _ = run_cli(["bench", str(heuristic), "--seeds", "0,1", "--jobs", "3",
                          "--out", str(tmp_path / "seeds")], capsys)
    assert code == 0
    per_seed = ("sample_grasps", "rank_grasps", "plan_handover_orientation", "evaluate_maps")
    assert calls == {**once, "predict_contacts_heuristic": 1} | {name: 2 * once[name] for name in per_seed}


def test_bench_accepts_glob(suite_dir, tmp_path, capsys):
    out = tmp_path / "glob"
    code, _, _ = run_cli(
        ["bench", str(suite_dir / "mug*.json"), "--out", str(out),
         "--modes", "A4", "--seeds", "0"], capsys
    )
    assert code == 0
    assert (out / "mug_A4_0.json").exists()


def test_bench_empty_glob(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["bench", str(tmp_path / "nothing*.json"), "--out", str(tmp_path / "x")], capsys
    )
    assert code == 1
    assert "no scenes matched" in stderr


def test_bench_pattern_matching_nothing_is_an_error(suite_dir, tmp_path, capsys):
    """A misspelt scene among good ones exits 1 naming it, before any run."""
    scene, typo, out = str(suite_dir / "hammer.scene.json"), str(suite_dir / "hamer.scene.json"), tmp_path / "x"
    code, stdout, stderr = run_cli(["bench", scene, typo, "--seeds", "0", "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (1, "", f"error: no scenes matched {typo}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seeds=-1"], "parameter 'seed' must be an integer in [0, inf), got -1"),
    (["--seeds", "0,x"], "--seeds: invalid literal"),
    (["--seeds", "0,0", "--modes", "FULL"], "--seeds repeats an entry: 0,0"),
    (["--seeds", "0", "--modes", "FULL,A4,FULL"], "--modes repeats an entry: FULL,A4,FULL"),
    (["--modes", "FULL,B1"], "--modes: 'B1' is not a valid AblationMode"),
    (["--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["--jobs", "-3"], "--jobs must be at least 1, got -3"),
], ids=["negative-seed", "non-integer-seed", "repeated-seed", "repeated-mode", "unknown-mode", "jobs-0",
        "jobs-negative"])
def test_bench_bad_flag_exits_1_naming_it(suite_dir, tmp_path, capsys, flags, message):
    out = tmp_path / "bench"
    code, stdout, stderr = run_cli(["bench", str(suite_dir / "mug.scene.json"), "--out", str(out), *flags],
                                   capsys)
    assert code == 1
    assert stdout == ""
    assert message in stderr
    assert not out.exists()


def test_bench_runs_a_file_several_patterns_match_once(suite_dir, tmp_path, capsys):
    out = tmp_path / "bench"
    mug = str(suite_dir / "mug.scene.json")
    code, _, _ = run_cli(["bench", mug, str(suite_dir / "mug*.json"), str(suite_dir / "*.scene.json"),
                          "--modes", "A4", "--seeds", "0", "--out", str(out)], capsys)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["modes"]["A4"]["n_runs"] == 5
    assert [run["object"] for run in summary["runs"]] == ["hammer", "knife", "mug", "pan", "rodball"]


def test_bench_rejects_two_scenes_that_share_a_stem(suite_dir, tmp_path, capsys):
    """Reports are named {stem}_{mode}_{seed}.json, so two scene files named
    alike in different directories would overwrite each other's reports:
    bench refuses them before any run, naming both."""
    paths = []
    for sub, name in (("a", "mug"), ("b", "hammer")):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "x.scene.json"
        path.write_text(json.dumps(absolutized_config(suite_dir, name)))
        paths.append(str(path))
    out = tmp_path / "bench"
    code, stdout, stderr = run_cli(["bench", *paths, "--modes", "A4", "--seeds", "0", "--out", str(out)],
                                   capsys)
    assert code == 1
    assert stdout == ""
    assert f"scenes {paths[0]} and {paths[1]} share the report name 'x'" in stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["k", "lam"])
def test_bench_rejects_mixed_k_or_lam_before_any_run(suite_dir, tmp_path, capsys, monkeypatch, key):
    """One summary row cannot fold reports of different k or lam (aggregate
    refuses them), so bench refuses such scenes before it makes --out or
    runs anything, naming both files."""
    cfg = absolutized_config(suite_dir, "mug")
    cfg["params"][key] = 0.4
    mug = tmp_path / "mug.scene.json"
    mug.write_text(json.dumps(cfg))
    hammer = str(suite_dir / "hammer.scene.json")
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *a, **k: runs.append(a))
    out = tmp_path / "bench"
    code, stdout, stderr = run_cli(["bench", hammer, str(mug), "--seeds", "0", "--out", str(out)], capsys)
    assert (code, stdout, runs) == (1, "", [])
    assert stderr.startswith("error: scenes ") and "differ; one summary cannot mix them" in stderr
    assert hammer in stderr and str(mug) in stderr
    assert "(0.5, 0.5)" in stderr and ("(0.4, 0.5)" if key == "k" else "(0.5, 0.4)") in stderr
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
def test_bench_out_that_cannot_be_a_directory_exits_1_before_any_run(suite_dir, tmp_path, capsys, monkeypatch,
                                                                    sub):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *a, **k: runs.append(a))
    code, stdout, stderr = run_cli(["bench", str(suite_dir / "mug.scene.json"), "--seeds", "0",
                                    "--out", str(afile / sub)], capsys)
    assert (code, stdout, runs) == (1, "", [])
    assert stderr.startswith("error:")
    assert afile.read_text() == "kept"


# --------------------------------------------------------------------- suite

def test_suite_writes_all_objects(tmp_path, capsys):
    out = tmp_path / "assets"
    code, stdout, _ = run_cli(["suite", str(out)], capsys)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        assert json.loads(Path(line).read_text())["object"]["vgrid"]


def test_suite_subset(tmp_path, capsys):
    out = tmp_path / "two"
    code, stdout, _ = run_cli(["suite", str(out), "--objects", "hammer,mug"], capsys)
    assert code == 0
    assert len(stdout.strip().split("\n")) == 2
    assert (out / "hammer.vgrid").exists()
    assert (out / "mug_contacts_2.vcontact").exists()


def test_suite_repeated_object_is_an_error(tmp_path, capsys):
    out = tmp_path / "two"
    code, stdout, stderr = run_cli(["suite", str(out), "--objects", "hammer,mug,hammer"], capsys)
    assert (code, stdout, stderr) == (1, "", "error: --objects repeats an entry: hammer,mug,hammer\n")
    assert not out.exists()


def test_missing_subcommand_usage_error(capsys):
    code, _, stderr = run_cli([], capsys)
    assert code == 1
    assert "usage" in stderr.lower()
