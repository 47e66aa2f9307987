"""Benchmark of the handover pipeline through its command line entry point.

    python3 perfbench/run.py --workload ablation_grid --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven only through ``handover.cli.main`` (``bench`` and ``plan``) and
``handover.suite.write_suite``. Every input is generated here from the
workload seed, into a scratch directory under the checkout that is removed
at exit. Every report, ``summary.csv`` and ``summary.json`` is checked
against digests recorded at the seed commit (``reference_digests.json``)
and against cheap invariants.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` a separate traced
run wraps each layer's entry point (see ``spans.py``) and reports the
per-layer metrics instead. Workloads and metrics are described in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference_digests.json")

ALL_MODES = ("FULL", "A1", "A2", "A3", "A4")
SCENES = ("hammer", "pan", "mug", "knife", "rodball")
# pipeline seeds of the ROADMAP acceptance grid; references exist for each
PIPELINE_SEEDS = (0, 1, 2, 3, 4)
SETUP_REPEATS = 3
WARMUP_SCENE = "hammer"
DENSE_REWRITE = {
    "planning_map": "heuristic",
    "params": {"orientation_step": 30.0, "position_step": 2.5, "max_grasps": 100},
}


@dataclass(frozen=True)
class Workload:
    command: str  # "bench" or "plan"
    reference: str  # section of reference_digests.json
    round_s: float  # wall time of one round at the commit that added the benchmark
    modes: tuple[str, ...] = ALL_MODES
    jobs: int = 1
    diagnostics: bool = False
    rewrite: dict | None = None  # applied to every bundled scene JSON


WORKLOADS = {
    "ablation_grid": Workload("bench", "grid", 24.0),
    "ablation_grid_jobs2": Workload("bench", "grid", 34.0, jobs=2),
    "plan_requests": Workload("plan", "plan", 9.5, modes=("FULL",)),
    "dense_search": Workload(
        "bench", "dense", 10.0, modes=("FULL", "A2"), diagnostics=True, rewrite=DENSE_REWRITE
    ),
}


# -- inputs ---------------------------------------------------------------------


def make_inputs(suite, workload: Workload, out_dir: str) -> dict[str, str]:
    """Write the bundled scenes (rewritten for the workload) into out_dir.
    Returns scene name -> scene JSON path."""
    paths = {}
    for path in suite.write_suite(out_dir, list(SCENES)):
        name = os.path.basename(path)[: -len(".scene.json")]
        if workload.rewrite is not None:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            cfg["planning_map"] = workload.rewrite["planning_map"]
            cfg["params"].update(workload.rewrite["params"])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)
                fh.write("\n")
        paths[name] = path
    return paths


def round_cells(rng: random.Random, round_index: int) -> list[tuple[str, int]]:
    """Round r pairs the i-th scene with pipeline seed (i + r) mod 5, so no
    cell repeats within five rounds and every workload seed measures the
    same work. The workload seed sets the order of the calls."""
    cells = [
        (scene, PIPELINE_SEEDS[(i + round_index) % len(PIPELINE_SEEDS)])
        for i, scene in enumerate(SCENES)
    ]
    rng.shuffle(cells)
    return cells


# -- one CLI call and its checks ------------------------------------------------


def argv_for(workload: Workload, scene_path: str, seed: int, out: str) -> list[str]:
    if workload.command == "plan":
        return ["plan", scene_path, "--mode", "FULL", "--seed", str(seed), "--out", out]
    argv = ["bench", scene_path, "--modes", ",".join(workload.modes), "--seeds", str(seed),
            "--jobs", str(workload.jobs), "--out", out]
    if workload.diagnostics:
        argv.append("--emit-diagnostics")
    return argv


def fresh_output(workload: Workload, work: str, scene: str, seed: int) -> tuple[str, str]:
    """(output directory, --out target) for one call, the directory emptied
    so that a file left by an earlier call cannot pass for this one's."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if workload.command == "plan":
        return out, os.path.join(out, f"{scene}_FULL_{seed}.json")
    return out, out


def call_cli(cli, argv) -> tuple[int | None, str, str]:
    """Run the CLI in-process. Returns (exit code or None if it raised,
    stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed run
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def payload_digest(raw: bytes) -> str:
    """Digest of a report with `duration_seconds`, the one field that differs
    between reruns, dropped. A report without the field digests the same."""
    data = json.loads(raw)
    data.pop("duration_seconds", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _unit_score(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def report_problems(report: dict) -> list[str]:
    """Invariants every report must hold, whatever the reference says."""
    problems = []
    if report.get("failure") is not None:
        problems.append(f"stage failure {report['failure']!r}")
    metrics = report.get("metrics") or {}
    scores = [metrics.get("visibility_median"), metrics.get("reachability_median")]
    for row in metrics.get("per_map", []):
        scores += [row.get("visibility"), row.get("reachability")]
    grasp = report.get("grasp") or {}
    scores += [grasp.get("confidence"), grasp.get("occlusion")]
    if not all(_unit_score(s) for s in scores):
        problems.append("a score is missing, not finite or outside [0, 1]")
    if report.get("mode") == "A4":
        if report.get("success") is not False:
            problems.append("A4 succeeded")
        if metrics.get("reachability_median") != 0.0:
            problems.append("A4 reachability_median is not 0.0")
    return problems


def expected_outputs(workload: Workload, scene: str, seed: int) -> tuple[list[str], list[str]]:
    """(report file names, summary file names) one call must write."""
    reports = [f"{scene}_{mode}_{seed}.json" for mode in workload.modes]
    summaries = [] if workload.command == "plan" else ["summary.csv", "summary.json"]
    return reports, summaries


def check_call(workload, scene, seed, code, stdout, err, out_dir, reference) -> list[str]:
    """Names of the runs this call got wrong, each with its reason."""
    reports, summaries = expected_outputs(workload, scene, seed)
    if code != 0:
        return [f"{name}: exit code {code} {err.strip()}" for name in reports]
    whole_call = []
    for name in summaries:
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest = file_digest(fh.read())
        except OSError as exc:
            whole_call.append(f"{name} unreadable: {exc}")
            continue
        if digest != reference.get(f"{scene}_{seed}/{name}"):
            whole_call.append(f"{name} digest differs from the reference")
    failed = []
    for name in reports:
        problems = list(whole_call)
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
        except (OSError, ValueError) as exc:
            failed.append(f"{name}: unreadable report: {exc}")
            continue
        if payload_digest(raw) != reference.get(name):
            problems.append("payload digest differs from the reference")
        problems += report_problems(report)
        if workload.command == "plan":
            m = report.get("metrics") or {}
            line = (f"mode=FULL seed={seed} vis={m.get('visibility_median', 0.0):.6f} "
                    f"reach={m.get('reachability_median', 0.0):.6f} "
                    f"success={str(report.get('success')).lower()}")
            if stdout.strip() != line:
                problems.append(f"plan printed {stdout.strip()!r}, expected {line!r}")
        if problems:
            failed.append(f"{name}: " + "; ".join(problems))
    return failed


# -- tracing --------------------------------------------------------------------


def _count_sample(t, name, a, result):
    t.add(name + ".candidates", len(result))
    key = (id(a["grid"]), id(a["gripper"]), a["max_candidates"], a["seed"])
    t.repeat(name, key, (a["grid"], a["gripper"]))


def _count_rank(t, name, a, result):
    t.add(name + ".pairs", len(a["candidates"]) * a["cluster"].size)


def _count_cluster(t, name, a, result):
    t.repeat(name, (id(a["cm"]), a["eps"], a["min_pts"]), a["cm"])


def _count_position(t, name, a, result):
    t.add(name + ".configs", len(result[2]))


def _count_orientation(t, name, a, result):
    t.add(name + ".rotations", len(result.candidates))
    t.add(name + ".feasible", sum(1 for c in result.candidates if c.feasible))


def _count_save(t, name, a, result):
    t.add(name + ".bytes", os.path.getsize(a["path"]))


# (span name, sites its callers look it up under, counter); the first two
# open a run, and every span below shares that run's id
LAYERS = [
    ("cli.main", [("handover.cli", "main")], None),
    ("harness.run_pipeline", [("handover.cli", "run_pipeline")], None),
    ("voxelgeom.load_vgrid", [("handover.harness", "load_vgrid")], None),
    ("contacts.load_contact_map", [("handover.harness", "load_contact_map")], None),
    ("grasping.sample_grasps", [("handover.harness", "sample_grasps")], _count_sample),
    ("contacts.predict_contacts_heuristic",
     [("handover.harness", "predict_contacts_heuristic")], None),
    ("contacts.cluster_contacts", [("handover.harness", "cluster_contacts")], _count_cluster),
    ("grasping.rank_grasps", [("handover.harness", "rank_grasps")], _count_rank),
    ("ergonomics.plan_handover_position",
     [("handover.harness", "plan_handover_position")], _count_position),
    ("delivery.plan_handover_orientation",
     [("handover.harness", "plan_handover_orientation")], _count_orientation),
    ("delivery.feasible", [("handover.harness", "feasible")], None),
    ("delivery.feasibility_reason", [("handover.delivery", "feasibility_reason")], None),
    ("metrics.evaluate_maps", [("handover.harness", "evaluate_maps")], None),
    ("metrics.visibility", [("handover.metrics", "visibility"), ("handover.harness", "visibility")],
     None),
    ("metrics.reachability",
     [("handover.metrics", "reachability"), ("handover.harness", "reachability")], None),
    ("voxelgeom.ray_cast", [("handover.metrics", "ray_cast")], None),
    ("harness.save_report", [("handover.cli", "save_report")], _count_save),
]
RUN_ROOTS = ("cli.main", "harness.run_pipeline")


def install_tracer():
    tracer = spans.Tracer()
    for name, sites, count in LAYERS:
        tracer.install(name, sites, count, starts_run=name in RUN_ROOTS)
    return tracer


def layer_metrics(tracer, own_s, calls, rounds, runs_ok, timed_s) -> dict[str, float]:
    """Per-layer values, totals divided by the rounds run, so that a value
    describes one round: every scene once."""
    counts = tracer.counts
    out = {}
    for name, _, _ in LAYERS:
        n = calls.get(name, 0)
        out[f"{name}.self_s"] = own_s.get(name, 0.0) / rounds
        out[f"{name}.calls"] = n / rounds
        for stat in ("candidates", "pairs", "configs", "rotations", "bytes"):
            if f"{name}.{stat}" in counts:
                out[f"{name}.{stat}"] = counts[f"{name}.{stat}"] / rounds
        out[f"{name}.repeat_frac"] = counts.get(f"{name}.repeats", 0.0) / n if n else 0.0
    rotations = counts.get("delivery.plan_handover_orientation.rotations", 0.0)
    out["delivery.plan_handover_orientation.feasible_frac"] = (
        counts.get("delivery.plan_handover_orientation.feasible", 0.0) / rotations
        if rotations else 0.0
    )
    total, union = spans.busy_time(tracer.spans, "harness.run_pipeline")
    out["cli.bench.overlap"] = total / union if union else 0.0
    out["traced.runs_per_s"] = runs_ok / timed_s
    return out


# -- machine speed ----------------------------------------------------------------

# mean calibration kernel time on a quiet 2-core x86_64 VM; scaled times equal
# wall times on a machine that runs the kernel this fast
CAL_REF_S = 0.001
CAL_INTERVAL_S = 0.2
CAL_TRIM = 0.9  # the slowest tenth of the kernel samples is dropped


class ScaledClock:
    """Times calls in seconds at a reference machine speed.

    The host this benchmark was tuned on slows down by up to half, in
    episodes of seconds to minutes, under load from other tenants. Process
    CPU time slows down as much as wall time. So while a call runs, a timer
    signal runs a 1 ms kernel every 0.2 s: dict and tuple work, vectorized
    geometry and small numpy calls like the pipeline's (the program is not
    involved), timed in thread CPU time so that a wait for the interpreter
    lock does not count. The call's wall time is scaled by CAL_REF_S over
    the trimmed mean kernel time. The kernel costs about 0.6% of each call.
    """

    def __init__(self, np):
        self._np = np
        rng = np.random.default_rng(0)
        self._pts = rng.random((300, 3))
        self._rot = np.linalg.qr(rng.random((3, 3)))[0]
        self._samples: list[float] = []

    def _kernel(self):
        np = self._np
        seen = {}
        for i in range(400):
            key = (i & 63, i % 5)
            seen[key] = seen.get(key, 0) + i
        pts, rot = self._pts, self._rot
        for k in range(6):
            local = (pts - pts[k]) @ rot
            int((np.abs(local) <= 0.5).all(axis=1).sum())
        for k in range(12):
            np.cross(pts[k], pts[k + 1])

    def _sample(self, *_):
        t0 = time.thread_time()
        self._kernel()
        self._samples.append(time.thread_time() - t0)

    def time(self, fn, *args):
        """(result, wall seconds, scale factor) of fn(*args)."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S / 2, CAL_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()  # at least one sample, however short the call
        kept = sorted(self._samples)[: max(1, int(len(self._samples) * CAL_TRIM))]
        return result, wall, CAL_REF_S / statistics.fmean(kept)


# -- the run --------------------------------------------------------------------


def setup(suite, cli, workload, work, index) -> dict[str, str]:
    """Generate the inputs and run one warm-up call that is not measured."""
    scenes = make_inputs(suite, workload, os.path.join(work, f"inputs{index}"))
    warm_out = os.path.join(work, f"warmup{index}.json")
    code, _, err = call_cli(cli, ["plan", scenes[WARMUP_SCENE], "--seed", "0", "--out", warm_out])
    if code != 0:
        raise RuntimeError(f"warm-up plan call exited {code}: {err.strip()}")
    return scenes


def run(workload_name: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    import numpy
    from handover import cli, suite

    workload = WORKLOADS[workload_name]
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)[workload.reference]
    clock = ScaledClock(numpy)

    setup_wall, setup_scaled = [], []
    for index in range(1 if traced else SETUP_REPEATS):
        scenes, wall, factor = clock.time(setup, suite, cli, workload, work, index)
        setup_wall.append(wall)
        setup_scaled.append(wall * factor)

    tracer = install_tracer() if traced else None
    own_s: dict[str, float] = defaultdict(float)  # scaled self time per layer
    own_calls: dict[str, int] = defaultdict(int)
    rng = random.Random(seed)
    walls: list[float] = []
    scaled: list[float] = []
    failures: list[str] = []
    attempted = runs_ok = 0
    # a fixed amount of work, so that machine speed cannot change which
    # cells are measured: the whole rounds that fit in `seconds` at the
    # speed of the commit that added the benchmark
    rounds = max(1, int(seconds // workload.round_s))
    try:
        # closed loop, one client
        for round_index in range(rounds):
            for scene, pseed in round_cells(rng, round_index):
                out, target = fresh_output(workload, work, scene, pseed)
                argv = argv_for(workload, scenes[scene], pseed, target)
                first_span = 0
                if tracer is not None:
                    tracer.new_call()
                    first_span = len(tracer.spans)
                (code, stdout, err), wall, factor = clock.time(call_cli, cli, argv)
                walls.append(wall)
                scaled.append(wall * factor)
                if tracer is not None:
                    for name, (own, n) in spans.self_times(tracer.spans[first_span:]).items():
                        own_s[name] += own * factor
                        own_calls[name] += n
                bad = check_call(workload, scene, pseed, code, stdout, err, out, reference)
                attempted += len(workload.modes)
                runs_ok += len(workload.modes) - len(bad)
                failures += bad
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "workload": workload_name,
        "seed": seed,
        "rounds": rounds,
        "calls": len(walls),
        "attempted": attempted,
        "failed": attempted - runs_ok,
        "failures": failures,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "wall": {
            "runs_per_s": runs_ok / sum(walls),
            "latency_p50_s": statistics.median(walls),
            "setup_s": statistics.median(setup_wall),
        },
        "speed": statistics.median(w / s for w, s in zip(walls, scaled)),
    }
    if tracer is None:
        result["metrics"] = {
            "runs_per_s": runs_ok / sum(scaled),
            "latency_p50_s": statistics.median(scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["setup_samples_s"] = setup_scaled
        return result

    span_problems = spans.check(tracer.spans)
    self_total = sum(own for own, _ in spans.self_times(tracer.spans).values())
    if workload.jobs == 1 and abs(self_total - sum(walls)) > 0.01 * sum(walls):
        span_problems.append(
            f"self times sum to {self_total:.3f} s, but the calls took {sum(walls):.3f} s"
        )
    result["metrics"] = layer_metrics(tracer, own_s, own_calls, rounds, runs_ok, sum(scaled))
    result["span_problems"] = span_problems
    result["untraced"] = tracer.untraced
    result["self_total_s"] = self_total
    result["calls_wall_s"] = sum(walls)
    return result


def declared_metrics(traced: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if traced else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "handover", "cli.py")):
        print(f"perfbench: no handover sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    traced = bool(args.trace)
    declared = declared_metrics(traced)

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        result = run(args.workload, args.seed, args.seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))

    m = result["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"arch={m['machine']}")
    print(f"workload={result['workload']} seed={result['seed']} rounds={result['rounds']} "
          f"calls={result['calls']} attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4f}")
    for line in result["failures"]:
        print(f"FAILED {line}")
    problems = result.get("span_problems", [])
    for line in problems:
        print(f"SPAN CHECK {line}")
    for name in result.get("untraced", []):
        print(f"untraced: {name}")
    wall = result["wall"]
    print(f"machine speed: calibration took {result['speed']:.3f} x {CAL_REF_S} s (median); "
          f"unscaled wall: runs_per_s={wall['runs_per_s']:.6g} "
          f"latency_p50_s={wall['latency_p50_s']:.6g} setup_s={wall['setup_s']:.6g}")
    if traced:
        print(f"accounting: self times sum to {result['self_total_s']:.4f} s over "
              f"{result['calls_wall_s']:.4f} s of CLI calls")
    else:
        samples = ", ".join(f"{s:.4f}" for s in result["setup_samples_s"])
        print(f"latency_p50_s over n={result['calls']} calls; latency_p90_s not reported "
              f"(needs at least 100 calls); setup_s samples: {samples}")

    metrics = {}
    for spec in declared:
        value = result["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']}: {value:.6g} {spec['unit']}")
    correct = result["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
