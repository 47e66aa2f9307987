"""Receiver-side comfort model: a 2-link planar arm in the sagittal plane.

The arm lives in the vertical plane spanned by the facing direction and +z,
offset laterally from the body center by arm_plane_offset along the
receiver's right. Shoulder angle 0 hangs the arm straight down, positive
raises it forward; elbow angle 0 is a straight arm, positive flexes the
forearm forward/up. All angles in degrees.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .voxelgeom import check_fields, cos_sin_deg, row_dots, rule

GRAVITY = 9.81

SHOULDER_RANGE_DEG = (0.0, 135.0)
ELBOW_RANGE_DEG = (0.0, 140.0)
SHOULDER_MID_DEG = 67.5  # rest posture used by the displacement cost
ELBOW_MID_DEG = 62.5
MIN_POSITION_STEP = 0.5  # degrees; the sweep holds the whole grid, ~1/step^2 points

UP = np.array([0.0, 0.0, 1.0])


@dataclass
class HumanModel:
    """Standing receiver. Segment lengths default to stature fractions;
    masses are point masses at segment midpoints (hand mass at the hand).
    Lengths and positions in meters, masses in kilograms."""

    height: float = rule(1.70, "number", "(0, 3]")
    base_position: tuple[float, float, float] = rule((0.0, 0.0, 0.0), "vector", "[-1000, 1000]")
    facing: tuple[float, float, float] = rule((1.0, 0.0, 0.0), "vector", "[-1000, 1000]")
    shoulder_height_fraction: float = rule(0.82, "number", "(0, 1)")
    waist_height_fraction: float = rule(0.60, "number", "(0, 1)")
    head_height_fraction: float = rule(0.13, "number", "[0, 1]")
    upper_arm_length: float | None = rule(None, "number?", "(0, 3]")
    forearm_length: float | None = rule(None, "number?", "(0, 3]")
    upper_arm_mass: float = rule(2.1, "number", "[0, 100]")
    forearm_mass: float = rule(1.2, "number", "[0, 100]")
    hand_mass: float = rule(0.5, "number", "[0, 100]")
    arm_plane_offset: float = rule(0.18, "number", "[-3, 3]")

    def __post_init__(self):
        check_fields(self, "human field")
        if not self.waist_height_fraction < self.shoulder_height_fraction:
            raise ValueError(f"human field 'waist_height_fraction' must lie below shoulder_height_fraction "
                             f"{self.shoulder_height_fraction!r}, got {self.waist_height_fraction!r}")
        self.base_position = np.array(self.base_position)
        f = np.array([*self.facing[:2], 0.0])
        n = float(np.linalg.norm(f))
        if n < 1e-9:
            raise ValueError(f"human field 'facing' must have a horizontal component, got {self.facing!r}")
        self.facing = f / n
        if self.upper_arm_length is None:
            self.upper_arm_length = 0.176 * self.height
        if self.forearm_length is None:
            self.forearm_length = 0.206 * self.height

    @property
    def right(self) -> np.ndarray:
        return np.cross(self.facing, UP)

    @property
    def arm_length(self) -> float:
        return self.upper_arm_length + self.forearm_length

    @property
    def shoulder_height(self) -> float:
        return float(self.base_position[2] + self.shoulder_height_fraction * self.height)

    @property
    def waist_height(self) -> float:
        return float(self.base_position[2] + self.waist_height_fraction * self.height)

    @property
    def eye_height(self) -> float:
        # eye sits half a head below the crown
        return float(
            self.base_position[2] + self.height - 0.5 * self.head_height_fraction * self.height
        )

    @property
    def shoulder_point(self) -> np.ndarray:
        return (
            self.base_position
            + (self.shoulder_height - self.base_position[2]) * UP
            + self.arm_plane_offset * self.right
        )

    @property
    def eye_point(self) -> np.ndarray:
        return self.base_position + (self.eye_height - self.base_position[2]) * UP


@dataclass(frozen=True)
class ArmPoses:
    """Arm configurations and their costs, one array per field, in sweep
    order (shoulder angle major). `poses[i]` is the i-th configuration alone,
    with a scalar in each field and hand_position a 3-vector."""

    shoulder_deg: np.ndarray
    elbow_deg: np.ndarray
    hand_position: np.ndarray  # (n, 3)
    torque_raw: np.ndarray  # sum of squared joint torques, N^2 m^2
    displacement_raw: np.ndarray  # squared angular distance from rest posture, deg^2
    effort_cost: np.ndarray  # torque_raw normalized over the kept set
    displacement_cost: np.ndarray
    total_cost: np.ndarray

    def __len__(self) -> int:
        return len(self.total_cost)

    def __getitem__(self, i) -> "ArmPoses":
        return ArmPoses(*(getattr(self, f.name)[i] for f in fields(self)))


def _plane_dirs(deg: np.ndarray, facing: np.ndarray) -> np.ndarray:
    """In-plane directions at angles `deg` from straight down toward facing,
    shape deg.shape + (3,)."""
    cos, sin = cos_sin_deg(deg)
    return sin[..., None] * facing - cos[..., None] * UP


def forward_kinematics(shoulder_deg, elbow_deg, human: HumanModel):
    """(shoulder, elbow, hand) world points for arm angles in degrees. The
    angles broadcast together; elbow and hand have their shape plus a last
    axis of 3, and shoulder is one point."""
    ts, te = np.broadcast_arrays(np.asarray(shoulder_deg, dtype=float), np.asarray(elbow_deg, dtype=float))
    for name, deg, (lo, hi) in (("shoulder", ts, SHOULDER_RANGE_DEG), ("elbow", te, ELBOW_RANGE_DEG)):
        if not ((lo <= deg) & (deg <= hi)).all():
            raise ValueError(f"{name} angle outside {(lo, hi)}")
    shoulder = human.shoulder_point
    elbow = shoulder + human.upper_arm_length * _plane_dirs(ts, human.facing)
    hand = elbow + human.forearm_length * _plane_dirs(ts + te, human.facing)
    return shoulder, elbow, hand


def joint_torques(shoulder_deg, elbow_deg, object_mass: float, human: HumanModel):
    """Static gravity torque magnitudes (shoulder, elbow) in N m, one per
    broadcast pair of arm angles.

    Each distal point mass contributes m * g * (signed horizontal offset from
    the joint, measured along the facing axis); the net sum is returned as an
    absolute value per joint.
    """
    if object_mass < 0:
        raise ValueError("object_mass must be nonnegative")
    shoulder, elbow, hand = forward_kinematics(shoulder_deg, elbow_deg, human)

    def x(p):  # np.dot(p, facing) per point, rounded as the per-point call
        rows = p.reshape(-1, 3)
        return row_dots(rows, np.broadcast_to(human.facing, rows.shape)).reshape(p.shape[:-1])

    x_shoulder, x_elbow, x_hand = x(shoulder), x(elbow), x(hand)
    x_upper, x_fore = x((shoulder + elbow) / 2.0), x((elbow + hand) / 2.0)
    m_upper, m_fore = human.upper_arm_mass * GRAVITY, human.forearm_mass * GRAVITY
    m_hand = (human.hand_mass + object_mass) * GRAVITY
    # upper arm, forearm, hand: this order rounds as the per-point sum() does
    tau_shoulder = (m_upper * (x_upper - x_shoulder) + m_fore * (x_fore - x_shoulder)
                    + m_hand * (x_hand - x_shoulder))
    tau_elbow = m_fore * (x_fore - x_elbow) + m_hand * (x_hand - x_elbow)
    return np.abs(tau_shoulder), np.abs(tau_elbow)


def _angle_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (clamped to it within 1e-9)."""
    v = lo + np.arange(int((hi - lo) / step) + 2) * step
    return np.minimum(v[v <= hi + 1e-9], hi)


def plan_handover_position(human: HumanModel, object_mass: float = 0.5, alpha: float = 0.5, step: float = 5.0):
    """Pick the hand placement minimizing blended effort and posture costs.

    Evaluates the joint grid at `step` degrees as arrays, keeps
    configurations whose hand height lies strictly between waist and
    shoulder, normalizes both raw costs by their maxima over the kept set,
    and minimizes (1 - alpha) * effort + alpha * displacement. Ties break by
    lower effort cost, then lower shoulder angle, then lower elbow angle.

    Returns (hand_position, winner, kept): kept is an ArmPoses table and
    winner its winning row.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if not (step >= MIN_POSITION_STEP):
        raise ValueError(f"step must be at least {MIN_POSITION_STEP} degrees, got {step!r}")
    ts, te = np.meshgrid(_angle_grid(*SHOULDER_RANGE_DEG, step), _angle_grid(*ELBOW_RANGE_DEG, step),
                         indexing="ij")
    hand = forward_kinematics(ts, te, human)[2]
    keep = (human.waist_height < hand[..., 2]) & (hand[..., 2] < human.shoulder_height)
    if not keep.any():
        raise ValueError("empty ergonomic candidate set")
    ts, te, hand = ts[keep], te[keep], hand[keep]
    tau_s, tau_e = joint_torques(ts, te, object_mass, human)
    torque_raw = tau_s * tau_s + tau_e * tau_e
    disp_raw = (SHOULDER_MID_DEG - ts) ** 2 + (ELBOW_MID_DEG - te) ** 2
    t_max, d_max = torque_raw.max(), disp_raw.max()
    effort = torque_raw / t_max if t_max > 0 else np.zeros_like(torque_raw)
    posture = disp_raw / d_max if d_max > 0 else np.zeros_like(disp_raw)
    total = (1.0 - alpha) * effort + alpha * posture
    kept = ArmPoses(ts, te, hand, torque_raw, disp_raw, effort, posture, total)
    winner = kept[np.lexsort((te, ts, effort, total))[0]]
    return winner.hand_position, winner, kept


def candidates_csv(kept: ArmPoses) -> str:
    """Diagnostic table of the kept grid, one row per configuration, formatted by one % operation."""
    table = np.column_stack((kept.shoulder_deg, kept.elbow_deg, kept.hand_position,
                             kept.effort_cost, kept.displacement_cost, kept.total_cost))
    rows = "%.1f,%.1f,%.6f,%.6f,%.6f,%.9f,%.9f,%.9f\n" * len(table) % tuple(table.ravel().tolist())
    return "shoulder_deg,elbow_deg,hand_x,hand_y,hand_z,effort_cost,displacement_cost,total_cost\n" + rows
