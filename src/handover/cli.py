"""Command line front end.

Exit codes: 0 success, 1 usage or runtime error, 2 pipeline stage failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import glob
import json
import os
import sys

from . import harness, suite
from .harness import AblationMode, HandoverReport, aggregate, load_scene, run_pipeline, save_report, summary_csv
from .voxelgeom import load_obj, save_vgrid, voxelize_mesh


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _apply_overrides(scene, pairs):
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, _, raw = pair.partition("=")
        raw = raw.strip()
        try:  # a JSON scalar; anything else stays a string, which no parameter accepts
            value = None if raw.lower() in ("none", "null") else json.loads(raw)
        except ValueError:
            value = raw
        scene.params = harness.PipelineParams.from_dict(
            {**dataclasses.asdict(scene.params), key.strip(): value}
        )


def _cmd_voxelize(args) -> int:
    mesh = load_obj(args.mesh)
    grid = voxelize_mesh(mesh, dims=(args.dims,) * 3, padding=args.padding)
    save_vgrid(grid, args.out)
    print(f"voxelized {args.mesh}: {grid.occupied_count} occupied of {args.dims}^3 -> {args.out}")
    return 0


def _cmd_plan(args) -> int:
    scene = load_scene(args.scene)
    _apply_overrides(scene, args.set or [])
    report = run_pipeline(scene, args.mode, args.seed, emit_diagnostics=args.emit_diagnostics)
    if args.out:
        save_report(report, args.out)
    if report.failure is not None:
        print(f"mode={report.mode} seed={report.seed} failure={report.failure}")
        return 2
    vis = report.metrics["visibility_median"]
    reach = report.metrics["reachability_median"]
    print(
        f"mode={report.mode} seed={report.seed} vis={vis:.6f} reach={reach:.6f} "
        f"success={str(report.success).lower()}"
    )
    return 0


def _run_group(job):
    """Every (seed, mode) run of one scene, in that order, on one SharedStages."""
    scene, seeds, modes, emit = job
    shared = harness.SharedStages(scene)
    return [run_pipeline(scene, mode, seed, emit_diagnostics=emit, shared=shared) for seed in seeds for mode in modes]


def _entries(flag: str, text: str, parse) -> list:
    """The comma separated entries of `flag`, each parsed. A bad or repeated
    entry is a ValueError naming the flag."""
    try:
        entries = [parse(s) for s in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    if len(set(entries)) < len(entries):
        raise ValueError(f"{flag} repeats an entry: {text}")
    return entries


def _cmd_bench(args) -> int:
    modes = _entries("--modes", args.modes, AblationMode)
    seeds = _entries("--seeds", args.seeds, lambda s: harness.resolve_seed(int(s)))
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    found = {pattern: glob.glob(pattern) for pattern in args.scenes}
    if missing := [pattern for pattern, paths in found.items() if not paths]:
        raise ValueError(f"no scenes matched {', '.join(missing)}")
    # a file that several patterns match runs once
    matched = {os.path.realpath(p): p for paths in found.values() for p in paths}
    scene_paths = sorted(matched.values())
    # reports are named by stem, so two files with one stem would overwrite each other's
    stems: dict[str, str] = {}
    for path in scene_paths:
        stem = os.path.splitext(os.path.basename(path))[0].removesuffix(".scene")
        if stem in stems:
            raise ValueError(f"scenes {stems[stem]} and {path} share the report name {stem!r}")
        stems[stem] = path
    scenes = [load_scene(path) for path in scene_paths]
    # the summary cannot mix k or lam settings (aggregate): refuse them before any run
    settings = [(scene.params.k, scene.params.lam) for scene in scenes]
    for path, setting in zip(scene_paths, settings):
        if setting != settings[0]:
            raise ValueError(f"scenes {scene_paths[0]} (k, lam) = {settings[0]} and {path} (k, lam) = {setting} "
                             "differ; one summary cannot mix them")
    os.makedirs(args.out, exist_ok=True)
    groups = [(scene, seeds, modes, args.emit_diagnostics) for scene in scenes]
    if args.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            runs = list(pool.map(_run_group, groups))
    else:
        runs = [_run_group(group) for group in groups]
    # run order is (scene, seed, mode): each mode's reports come in (scene,
    # seed) order, which fixes the summary's float sums
    reports = []
    for stem, group in zip(stems, runs):
        for report in group:
            save_report(report, os.path.join(args.out, f"{stem}_{report.mode}_{report.seed}.json"))
        reports += group
    summary = aggregate(reports)
    harness.write_json(summary, os.path.join(args.out, "summary.json"))
    csv_text = summary_csv(summary)
    with open(os.path.join(args.out, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    print(csv_text, end="")
    return 0


def _cmd_suite(args) -> int:
    paths = suite.write_suite(args.out, _entries("--objects", args.objects, str) if args.objects else None)
    for path in paths:
        print(path)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="handover", description="Handover planning and evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_vox = sub.add_parser("voxelize", help="voxelize a watertight OBJ mesh into a .vgrid file, filled by "
                                            "z-parity; polygon faces are fanned into triangles")
    p_vox.add_argument("mesh")
    p_vox.add_argument("out")
    p_vox.add_argument("--dims", type=int, default=64, help="cells per axis, an integer >= 1")
    p_vox.add_argument("--padding", type=float, default=0.05,
                       help="margin per side as a fraction of the mesh extent, a finite number >= 0")
    p_vox.set_defaults(func=_cmd_voxelize)

    p_plan = sub.add_parser("plan", help="run the pipeline once on a scene")
    p_plan.add_argument("scene")
    p_plan.add_argument("--mode", default="FULL", choices=[m.value for m in AblationMode])
    p_plan.add_argument("--seed", type=int, default=None)
    p_plan.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scene parameter (repeatable)")
    p_plan.add_argument("--out", help="write the run report JSON here")
    p_plan.add_argument("--emit-diagnostics", action="store_true")
    p_plan.set_defaults(func=_cmd_plan)

    p_bench = sub.add_parser("bench", help="run the mode x seed grid over many scenes")
    p_bench.add_argument("scenes", nargs="+", help="scene JSON paths or globs")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--modes", default=",".join(m.value for m in AblationMode),
                         help="comma separated subset, default all")
    p_bench.add_argument("--seeds", default="0,1,2,3,4", help="comma separated seeds, default 0-4")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--emit-diagnostics", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_suite = sub.add_parser("suite", help="write the bundled benchmark objects and scenes")
    p_suite.add_argument("out", help="output directory")
    p_suite.add_argument("--objects", help="comma separated subset of bundled names")
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_PARSER = build_parser()  # built once; each parse_args call fills a fresh namespace
if __name__ == "__main__":
    sys.exit(main())
