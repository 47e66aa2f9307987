"""End-to-end pipeline: grasp -> contacts -> ranking -> position ->
orientation -> metrics, plus the ablation ladder and result aggregation.

Modes:
  FULL  contact-aware ranking, planned position, planned orientation
  A1    confidence-only ranking (occlusion ignored), planned position/orientation
  A2    contact-aware ranking, planned position, random feasible orientation
  A3    confidence-only ranking, planned position, random feasible orientation
  A4    confidence-only grasp, no position/orientation planning: the gripper
        keeps a tucked table-grasp posture in front of the robot base
"""
from __future__ import annotations

import enum
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import chain
from operator import itemgetter

import numpy as np

from .contacts import (
    EPS_VOXELS,
    ContactCluster,
    ContactMap,
    cluster_contacts,
    largest_cluster,
    load_contact_map,
    predict_contacts_heuristic,
)
from .delivery import (
    BODY_PROXY_DIMS,
    MIN_ORIENTATION_STEP,
    DeliveryContext,
    HandoverPose,
    exposure_objective,
    feasible,  # unused here, but perfbench/run.py traces delivery.feasible under this name
    plan_handover_orientation,
)
from .ergonomics import MIN_POSITION_STEP, HumanModel, candidates_csv, plan_handover_position
from .grasping import GraspCandidate, GraspSet, GripperModel, contenders, order_grasps, rank_grasps, sample_grasps
from .metrics import MetricScores, evaluate_maps
from .voxelgeom import VoxelGrid, check_fields, check_value, load_vgrid, rule

A4_FORWARD = 0.6  # tucked gripper: meters in front of the robot base
A4_HEIGHT = 0.8  # meters above the robot base
_SCALAR = json.JSONEncoder(allow_nan=False).encode  # write_json's text of a str, number, bool or None
_RECORD_KEYS = frozenset({"reason", "rotation"})  # a rejected rotation's keys, which _records_text renders


class AblationMode(enum.Enum):
    FULL = "FULL"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"


CONFIDENCE_ONLY_MODES = (AblationMode.A1, AblationMode.A3, AblationMode.A4)
# how each mode delivers its top grasp; modes of one kind deliver one grasp alike
DELIVERY_KINDS = {AblationMode.FULL: "planned", AblationMode.A1: "planned", AblationMode.A2: "random",
                  AblationMode.A3: "random", AblationMode.A4: "tucked"}


@dataclass
class PipelineParams:
    lam: float = rule(0.5, "number", "[0, 1]")
    alpha: float = rule(0.5, "number", "[0, 1]")
    k: float = rule(0.5, "number", "(0, 1)")
    eps: float | None = rule(None, "number?", "(0, inf)")
    min_pts: int = rule(4, "integer", "[1, inf)")
    orientation_step: float = rule(45.0, "number", f"[{MIN_ORIENTATION_STEP}, 360]")
    position_step: float = rule(5.0, "number", f"[{MIN_POSITION_STEP}, inf)")
    object_mass: float = rule(0.5, "number", "[0, 100]")
    max_grasps: int = rule(200, "integer", "[1, inf)")
    seed: int = rule(0, "integer", "[0, inf)")

    def __post_init__(self):
        """Reject a value that would fail, or silently mislead, mid-run."""
        check_fields(self, "parameter")
        if 360.0 % self.orientation_step != 0:
            raise ValueError(f"parameter 'orientation_step' must divide 360, got {self.orientation_step!r}")

    @classmethod
    def from_dict(cls, data) -> "PipelineParams":
        if not isinstance(data, dict):
            raise ValueError(f"scene field 'params' must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown parameter {unknown[0]!r}")
        return cls(**data)


@dataclass
class Scene:
    name: str = rule(MISSING, "string")
    grid: VoxelGrid
    contact_maps: list[ContactMap]
    planning_map: int | str  # index into contact_maps, or "heuristic"
    human: HumanModel
    gripper: GripperModel
    # width, depth, height of the robot body box; None drops the robot body
    body_proxy_dims: tuple[float, float, float] | None = rule(MISSING, "vector?", "(0, 10]", "robot field")
    standoff: float = rule(1.2, "number", "(0, 10]", "layout field")  # robot parks this far in front
    params: PipelineParams = field(default_factory=PipelineParams)

    def __post_init__(self):
        check_fields(self, "scene field")
        if not self.contact_maps:
            raise ValueError("scene field 'contact_maps' needs at least one contact map")
        planning = self.planning_map
        is_index = isinstance(planning, int) and not isinstance(planning, bool)
        if planning != "heuristic" and not (is_index and 0 <= planning < len(self.contact_maps)):
            raise ValueError(
                f'planning_map out of range: must be "heuristic" or an integer '
                f"index below {len(self.contact_maps)}, got {planning!r}"
            )

    @property
    def robot_base(self) -> np.ndarray:
        """Robot base at delivery time."""
        return self.human.base_position + self.standoff * self.human.facing


# the keys each scene section may hold; params checks its own
SCENE_FIELDS = {
    "scene": {"name", "object", "contact_maps", "planning_map", "human", "robot", "layout", "params"},
    "object": {"vgrid"},
    "robot": {"body_proxy_dims", "gripper"},
    "layout": {"standoff"},
    "human": {f.name for f in fields(HumanModel)},
    "gripper": {f.name for f in fields(GripperModel)},
}


def _section(data, name: str, label: str | None = None) -> dict:
    """`data`, once it is a JSON object holding only SCENE_FIELDS[name] keys.
    `label` names it in messages, by default as a scene field."""
    if not isinstance(data, dict):
        raise ValueError(f"{label or f'scene field {name!r}'} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - SCENE_FIELDS[name])
    if unknown:
        raise ValueError(f"unknown {name} field {unknown[0]!r}")
    return data


def _read(label: str, load, *args):
    """load(*args); a file it cannot read or parse is a ValueError naming `label`."""
    try:
        return load(*args)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{label}: {exc}") from exc


def load_scene(path) -> Scene:
    """The scene in JSON file `path`. A value that breaks its rule is a
    ValueError naming the file and the field."""
    base = os.path.dirname(os.path.abspath(path))

    def resolve(rel):
        return rel if os.path.isabs(rel) else os.path.join(base, rel)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _section(json.load(fh), "scene", "a scene")
        robot = _section(cfg.get("robot", {}), "robot")
        # the cheap checks first, then the grid files
        human = HumanModel(**_section(cfg.get("human", {}), "human"))
        gripper = GripperModel(**_section(robot.get("gripper", {}), "gripper", "robot field 'gripper'"))
        params = PipelineParams.from_dict(cfg.get("params", {}))
        vgrid = check_value("string", _section(cfg["object"], "object").get("vgrid"), "object field 'vgrid'")
        paths = check_value("paths", cfg["contact_maps"], "scene field 'contact_maps'")
        grid = _read("object field 'vgrid'", load_vgrid, resolve(vgrid))
        if not grid.occupancy.any():
            raise ValueError(f"object field 'vgrid': {vgrid} has no occupied voxel")
        maps = [_read("scene field 'contact_maps'", load_contact_map, resolve(p), grid) for p in paths]
        return Scene(
            name=cfg.get("name", os.path.splitext(os.path.basename(path))[0]),
            grid=grid,
            contact_maps=maps,
            planning_map=cfg.get("planning_map", 0),
            human=human,
            gripper=gripper,
            body_proxy_dims=robot.get("body_proxy_dims", BODY_PROXY_DIMS),
            params=params,
            **_section(cfg.get("layout", {}), "layout"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing scene field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass
class HandoverReport:
    object_name: str
    mode: str
    seed: int
    params: dict
    stages: list[str]
    grasp: dict | None
    position: dict | None
    delivery: dict | None
    metrics: dict | None
    success: bool
    failure: str | None
    duration_seconds: float

    # serialized under "object"; every other key is the field name
    def to_dict(self) -> dict:
        return {_report_key(f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "HandoverReport":
        return cls(**{f.name: data[_report_key(f.name)] for f in fields(cls)})


def _report_key(name: str) -> str:
    return "object" if name == "object_name" else name


def write_json(data, path) -> None:
    """`data` as json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    and a newline; NaN or inf is a ValueError, raised before the file is opened."""
    text = _json_text(data) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_text(data, indent: str = "") -> str:
    """json.dumps(data, indent=2, sort_keys=True, allow_nan=False) nested at `indent`. A scalar, a float list,
    a flat dict (json's C encoder) and a list of rejected-rotation records (_records_text) skip json's
    pure-Python walk; other nonempty containers recurse."""
    inner, sep = indent + "  ", ",\n" + indent + "  "
    if isinstance(data, (list, tuple)) and data:
        if not all(map(float.__instancecheck__, data)):
            if (body := _records_text(data, inner)) is None:
                body = sep.join([_json_text(v, inner) for v in data])
            return f"[\n{inner}{body}\n{indent}]"
        if "n" not in (body := sep.join(map(float.__repr__, data))):  # "nan" or "inf": json raises below
            return f"[\n{inner}{body}\n{indent}]"
    elif isinstance(data, dict) and data and all(map(str.__instancecheck__, data)):
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, data.values()))):  # one check per type
            body = sep.join([f"{_SCALAR(k)}: {_json_text(data[k], inner)}" for k in sorted(data)])
        else:  # json's C encoder, its separators carrying the indent
            body = json.dumps(data, sort_keys=True, allow_nan=False, separators=(sep, ": "))[1:-1]
        return f"{{\n{inner}{body}\n{indent}}}"
    elif not isinstance(data, (dict, list, tuple)):
        return _SCALAR(data)
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n" + indent)


def _records_text(data, indent: str) -> str | None:
    """The entries of _json_text(data) joined at `indent`, when each is a
    {"reason": str, "rotation": 3x3 list of finite floats} record, else None.
    Every record fills one text template, and each distinct float is rendered
    once, told apart by its bits: np.unique on the values would merge -0.0
    with 0.0."""
    if set(map(type, data)) != {dict} or set(map(frozenset, data)) != {_RECORD_KEYS}:
        return None
    reasons, mats = list(map(itemgetter("reason"), data)), list(map(itemgetter("rotation"), data))
    if not all(map(str.__instancecheck__, reasons)) or not _lists_of_three(mats):
        return None
    rows = list(chain.from_iterable(mats))
    if not _lists_of_three(rows):
        return None
    values = list(chain.from_iterable(rows))
    if not all(map(float.__instancecheck__, values)):
        return None  # json's walk renders an int as one
    values = np.array(values)
    if not np.isfinite(values).all():
        return None  # json's walk refuses NaN and inf
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    cells = np.empty((len(data), 10), dtype=object)
    cells[:, 0] = list(map({r: _SCALAR(r) for r in set(reasons)}.__getitem__, reasons))
    cells[:, 1:] = texts[inverse].reshape(-1, 9)
    i1, i2, i3 = (indent + "  " * n for n in (1, 2, 3))
    row = f"[\n{i3}%s,\n{i3}%s,\n{i3}%s\n{i2}]"
    record = f'{{\n{i1}"reason": %s,\n{i1}"rotation": [\n{i2}{row},\n{i2}{row},\n{i2}{row}\n{i1}]\n{indent}}}'
    return f",\n{indent}".join([record] * len(data)) % tuple(cells.ravel().tolist())


def _lists_of_three(items: list) -> bool:
    return set(map(type, items)) == {list} and set(map(len, items)) == {3}


def save_report(report: HandoverReport, path) -> None:
    write_json(report.to_dict(), path)


def load_report(path) -> HandoverReport:
    """The report in JSON file `path`. Bytes that are not UTF-8 JSON, a top level that is not
    a JSON object, or a missing field, is a ValueError naming the file (and the field)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)  # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        if not isinstance(data, dict):
            raise ValueError(f"a report must be a JSON object, got a {type(data).__name__}")
        return HandoverReport.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing report field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _grasp_record(rg) -> dict:
    c = rg.candidate
    return {
        "pose": c.pose.tolist(),
        "width": c.width,
        "confidence": c.confidence,
        "occlusion": rg.occlusion,
        "score": rg.score,
        "contact_pair": [list(c.contact_pair[0]), list(c.contact_pair[1])],
    }


def _delivery_record(ctx: DeliveryContext, rotation: np.ndarray, objective: float,
                     searched: HandoverPose | None = None) -> dict:
    """The delivered pose: `rotation` about the held point of `ctx`. The
    object pose is the 4x4 world-from-grid transform [R | ee - R held].
    With `searched`, it lists every rotation that search rejected."""
    object_pose, gripper_pose = np.eye(4), np.eye(4)
    object_pose[:3, :3] = rotation
    object_pose[:3, 3] = ctx.ee_position - rotation @ ctx.held_point
    gripper_pose[:3, :3], gripper_pose[:3, 3] = ctx.gripper_pose(rotation)
    rec = {
        "object_rotation": rotation.tolist(),
        "object_pose": object_pose.tolist(),
        "gripper_pose": gripper_pose.tolist(),
        "ee_position": ctx.ee_position.tolist(),
        "objective": objective,
    }
    if searched is not None:
        rejected = [k for k, reason in enumerate(searched.reasons) if reason is not None]
        rec["rejected_candidates"] = [{"rotation": r, "reason": searched.reasons[k]}
                                      for k, r in zip(rejected, searched.rotations[rejected].tolist())]
    return rec


def _bitmap_keys(cm: ContactMap) -> list[str]:
    """cm's contact voxels as the diagnostics bitmaps key them, "x,y,z"."""
    return [",".join(map(str, idx)) for idx in cm.contacts()[0].tolist()]


def resolve_seed(seed, params: PipelineParams | None = None) -> int:
    """The run's seed: `seed`, or params.seed when it is None. A seed that
    breaks the `seed` rule is a caller error (ValueError)."""
    if seed is None:
        return params.seed
    return check_value("integer", seed, "parameter 'seed'", "[0, inf)")


class SharedStages:
    """The stage results of one (scene, seed) that several modes share.

    Grasp sampling, the largest cluster of the planning contact map, the arm
    plan, and the contenders and their occlusion scores behind every ranking
    do not depend on the ablation mode. The delivery of a top grasp and its
    metric scores depend only on that candidate object and the delivery kind
    (DELIVERY_KINDS), so FULL and A1 share them whenever the same candidate
    ranks first for both, and so do A2 and A3. Each is computed the first
    time a mode asks for it and kept here, together with any exception it
    raised, so every later mode reports what a run of its own would report.
    The object is bound to one scene object, that scene's params object and
    one seed. The caller creates it and passes it to the run_pipeline calls
    of one (scene, seed), all from one thread.
    """

    def __init__(self, scene: Scene, seed: int | None = None):
        self.scene = scene
        self.params = scene.params
        self.seed = resolve_seed(seed, self.params)
        self._results: dict = {}

    def _once(self, key, compute):
        if key not in self._results:
            try:
                self._results[key] = (compute(), None)
            except Exception as exc:
                self._results[key] = (None, exc)
        value, exc = self._results[key]
        if exc is not None:
            raise exc
        return value

    def candidates(self) -> GraspSet:
        def sample():
            found = sample_grasps(self.scene.grid, self.scene.gripper, self.params.max_grasps, self.seed)
            if not found:
                raise ValueError("no grasp candidates")
            return found

        return self._once("grasp", sample)

    def cluster(self) -> ContactCluster:
        def largest(scene=self.scene, p=self.params):
            heuristic = scene.planning_map == "heuristic"
            cm = predict_contacts_heuristic(scene.grid) if heuristic else scene.contact_maps[scene.planning_map]
            if clusters := cluster_contacts(cm, p.eps, p.min_pts):
                return largest_cluster(clusters)
            eps = EPS_VOXELS * cm.grid.voxel_size if p.eps is None else p.eps
            raise ValueError(f"no contact cluster: all {len(cm.contacts()[0])} contact voxels are noise "
                             f"at eps={eps:g}, min_pts={p.min_pts}")

        return self._once("contacts", largest)

    def ranking(self, lam: float) -> list:
        """The contenders (grasping.contenders) ranked at `lam`: their one
        rank_grasps ranking, at the scene's lam, re-sorted by order_grasps.
        That is rank_grasps at `lam` bit for bit: order_grasps breaks a tie by
        input position only between equal confidence and occlusion, which
        score alike at every lam and which rank_grasps left in contender order."""
        def rank(args=(self.scene.gripper, self.scene.grid)):
            shortlist = contenders(self.candidates(), self.cluster(), *args)
            return rank_grasps(shortlist, self.cluster(), self.params.lam, *args)

        ranked = self._once("ranking", rank)
        return order_grasps([rg.candidate for rg in ranked], [rg.occlusion for rg in ranked], lam)

    def position(self):
        """plan_handover_position's (hand_position, winner, kept)."""
        p = self.params
        return self._once("position", lambda: plan_handover_position(
            self.scene.human, p.object_mass, p.alpha, p.position_step
        ))

    def ergonomics_csv(self) -> str:  # candidates_csv of the arm plan's kept poses
        return self._once("ergonomics_csv", lambda: candidates_csv(self.position()[2]))

    def bitmap_keys(self) -> list:  # _bitmap_keys of each contact map
        return self._once("bitmap_keys", lambda: [_bitmap_keys(cm) for cm in self.scene.contact_maps])

    def delivery(self, top: GraspCandidate, kind: str):
        """(ctx, rotation, objective, pose): `top`, a candidate of ranking(),
        delivered the `kind` way. "planned" searches the orientations at the
        planned hand position, and pose is that search's HandoverPose; the
        other kinds have none. "random" draws, with the [seed, 7] generator, one
        of the feasible rotations that delivery(top, "planned") found, and fails
        as that search fails. "tucked" (A4) keeps the grasp rotation, held in
        front of the robot."""
        def deliver(scene=self.scene, p=self.params):
            if kind == "tucked":
                ee = scene.robot_base + A4_FORWARD * -scene.human.facing + np.array([0.0, 0.0, A4_HEIGHT])
            else:
                ee = self.position()[0]
            ctx = DeliveryContext(grid=scene.grid, gripper=scene.gripper, grasp_rotation=top.rotation,
                                  held_point=top.translation, width=top.width, ee_position=ee, human=scene.human,
                                  robot_base=scene.robot_base, body_proxy_dims=scene.body_proxy_dims)
            if kind == "planned":
                pose = plan_handover_orientation(ctx, self.cluster(), p.orientation_step)
                return ctx, pose.object_rotation, pose.objective, pose
            rotation = np.eye(3)
            if kind == "random":  # the planned search scored this same context; it raises when none is feasible
                pose = self.delivery(top, "planned")[3]
                feas = [k for k, reason in enumerate(pose.reasons) if reason is None]
                rotation = pose.rotations[feas[int(np.random.default_rng([self.seed, 7]).integers(len(feas)))]]
            return ctx, rotation, exposure_objective(ctx, rotation, self.cluster()), None

        return self._once(("delivery", id(top), kind), deliver)

    def scores(self, top: GraspCandidate, kind: str) -> MetricScores:
        """evaluate_maps on every contact map at delivery(top, kind)."""
        ctx, rotation = self.delivery(top, kind)[:2]
        return self._once(("scores", id(top), kind),
                          lambda: evaluate_maps(ctx, rotation, self.scene.contact_maps, self.params.k))


def run_pipeline(scene: Scene, mode: AblationMode | str = AblationMode.FULL, seed: int | None = None,
                 emit_diagnostics: bool = False, shared: SharedStages | None = None) -> HandoverReport:
    """Execute one handover attempt. Never raises on a stage failure: the
    report carries the failing stage and message instead.

    `shared` carries the stages this run can share with the other modes of
    this (scene, seed); a fresh one is made when it is None. A seed that
    breaks the `seed` rule, or shared stages bound to another scene, params
    object or seed, is a caller error (ValueError).
    """
    mode = AblationMode(mode) if not isinstance(mode, AblationMode) else mode
    params = scene.params
    seed = resolve_seed(seed, params)
    if shared is None:
        shared = SharedStages(scene, seed)
    elif shared.scene is not scene or shared.params is not params or shared.seed != seed:
        raise ValueError(
            f"shared stages of scene {shared.scene.name!r} seed {shared.seed} "
            f"passed to a run of scene {scene.name!r} seed {seed}"
        )
    t_start = time.perf_counter()
    stages: list[str] = []  # each stage is appended as it starts
    grasp_rec = position_rec = delivery_rec = metrics_rec = None
    failure = None
    ok = False
    try:
        stages.append("grasp")
        shared.candidates()  # ranking reads them; here only a failure matters

        stages.append("contacts")
        shared.cluster()

        stages.append("ranking")
        lam = 1.0 if mode in CONFIDENCE_ONLY_MODES else params.lam
        top = shared.ranking(lam)[0]
        grasp_rec = _grasp_record(top)

        if mode is AblationMode.A4:
            # position/orientation planners intentionally skipped, so the
            # rest of the run is the metrics stage
            stages.append("metrics")
        else:
            stages.append("position")
            ee, winner, _ = shared.position()
            position_rec = {"hand_position": ee.tolist()} | {
                key: float(getattr(winner, key))
                for key in ("shoulder_deg", "elbow_deg", "effort_cost", "displacement_cost", "total_cost")
            }
            stages.append("orientation")

        ctx, rotation, objective, pose = shared.delivery(top.candidate, DELIVERY_KINDS[mode])
        delivery_rec = _delivery_record(ctx, rotation, objective, pose if emit_diagnostics else None)

        if stages[-1] != "metrics":
            stages.append("metrics")
        scores = shared.scores(top.candidate, DELIVERY_KINDS[mode])
        per_map = zip(scores.visibility, scores.reachability)
        metrics_rec = {
            "per_map": [{"visibility": v, "reachability": r} for v, r in per_map],
            "visibility_median": scores.visibility_median,
            "reachability_median": scores.reachability_median,
            "k": params.k,
        }
        if emit_diagnostics:
            keys = shared.bitmap_keys()  # each bitmap: the flags of one map's contact voxels, keyed "x,y,z"
            for name, flags in (("visibility", scores.visibility_flags), ("reachability", scores.reachability_flags)):
                metrics_rec[f"{name}_bitmaps"] = [dict(zip(k, f.tolist())) for k, f in zip(keys, flags)]
        if emit_diagnostics and position_rec is not None:
            metrics_rec["diagnostics"] = {"ergonomics_csv": shared.ergonomics_csv()}
        ok = scores.success
    except ValueError as exc:
        failure = f"{stages[-1]}: {exc}"
    except Exception as exc:  # any other fault still names its stage
        failure = f"{stages[-1]}: {type(exc).__name__}: {exc}"
    return HandoverReport(object_name=scene.name, mode=mode.value, seed=seed, params={**asdict(params), "seed": seed},
                          stages=stages, grasp=grasp_rec, position=position_rec, delivery=delivery_rec,
                          metrics=metrics_rec, success=ok, failure=failure,
                          duration_seconds=time.perf_counter() - t_start)


# -- aggregation ----------------------------------------------------------------


def aggregate(reports) -> dict:
    """Fold per-run reports into per-mode rows (Table-style summary).

    Failed runs count: success=false in the rate, 0.0 toward the metric
    means. Mixing different k or lam settings inside one mode group is an
    error.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    by_mode: dict[str, list[HandoverReport]] = {}
    for rep in reports:
        by_mode.setdefault(rep.mode, []).append(rep)
    modes_order = [m.value for m in AblationMode if m.value in by_mode]
    summary = {"modes": {}, "runs": []}
    for mode in modes_order:
        group = by_mode[mode]
        ks = {rep.params.get("k") for rep in group}
        lams = {rep.params.get("lam") for rep in group}
        if len(ks) > 1 or len(lams) > 1:
            raise ValueError(f"mode {mode}: mixed k or lam across aggregated reports")
        vis, reach = zip(*map(_medians, group))
        by_object: dict[str, list[bool]] = {}
        for rep in group:
            by_object.setdefault(rep.object_name, []).append(rep.success)
        summary["modes"][mode] = {
            "visibility_mean": float(np.mean(vis)),
            "reachability_mean": float(np.mean(reach)),
            "success_rate": float(np.mean([rep.success for rep in group])),
            "success_rate_by_object": {
                name: float(np.mean(vals)) for name, vals in sorted(by_object.items())
            },
            "n_runs": len(group),
        }
    for rep in sorted(reports, key=lambda r: (r.object_name, r.mode, r.seed)):
        vis, reach = _medians(rep)
        summary["runs"].append({"object": rep.object_name, "mode": rep.mode, "seed": rep.seed,
                                "visibility_median": vis, "reachability_median": reach,
                                "success": rep.success, "failure": rep.failure})
    return summary


def _medians(rep: HandoverReport) -> tuple[float, float]:
    """A report's (visibility, reachability) medians; 0.0 each for a run without metrics."""
    m = rep.metrics
    return (m["visibility_median"], m["reachability_median"]) if m else (0.0, 0.0)


def summary_csv(summary: dict) -> str:
    rows = [(m.value, summary["modes"][m.value]) for m in AblationMode if m.value in summary["modes"]]
    body = "".join(f"{m},{r['visibility_mean']:.6f},{r['reachability_mean']:.6f},{r['success_rate']:.6f}\n"
                   for m, r in rows)
    return "Mode,Visibility,Reachability,SuccessRate\n" + body
