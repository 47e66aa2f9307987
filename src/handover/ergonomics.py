"""Receiver-side comfort model: a 2-link planar arm in the sagittal plane.

The arm lives in the vertical plane spanned by the facing direction and +z,
offset laterally from the body center by arm_plane_offset along the
receiver's right. Shoulder angle 0 hangs the arm straight down, positive
raises it forward; elbow angle 0 is a straight arm, positive flexes the
forearm forward/up. All angles in degrees.
"""
from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

GRAVITY = 9.81

SHOULDER_RANGE_DEG = (0.0, 135.0)
ELBOW_RANGE_DEG = (0.0, 140.0)
SHOULDER_MID_DEG = 67.5  # rest posture used by the displacement cost
ELBOW_MID_DEG = 62.5

UP = np.array([0.0, 0.0, 1.0])


@dataclass
class HumanModel:
    """Standing receiver. Segment lengths default to stature fractions;
    masses are point masses at segment midpoints (hand mass at the hand)."""

    height: float = 1.70
    base_position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    facing: tuple[float, float, float] = (1.0, 0.0, 0.0)
    shoulder_height_fraction: float = 0.82
    waist_height_fraction: float = 0.60
    head_height_fraction: float = 0.13
    upper_arm_length: float | None = None
    forearm_length: float | None = None
    upper_arm_mass: float = 2.1
    forearm_mass: float = 1.2
    hand_mass: float = 0.5
    arm_plane_offset: float = 0.18

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("base_position", "facing"):
                try:
                    vec = np.asarray(value, dtype=float).reshape(3)
                except (TypeError, ValueError):
                    vec = np.full(3, np.nan)
                if not np.isfinite(vec).all():
                    raise ValueError(f"human field {spec.name!r} must be 3 finite numbers, got {value!r}")
                setattr(self, spec.name, vec)
            elif not (value is None and spec.default is None) and not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise ValueError(f"human field {spec.name!r} must be finite, got {value!r}")
        checks = [
            ("height", self.height > 0, "be positive"),
            ("upper_arm_length", self.upper_arm_length is None or self.upper_arm_length > 0, "be positive"),
            ("forearm_length", self.forearm_length is None or self.forearm_length > 0, "be positive"),
            ("upper_arm_mass", self.upper_arm_mass >= 0, "be non-negative"),
            ("forearm_mass", self.forearm_mass >= 0, "be non-negative"),
            ("hand_mass", self.hand_mass >= 0, "be non-negative"),
        ]
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"human field {name!r} must {rule}, got {getattr(self, name)!r}")
        f = self.facing.copy()
        f[2] = 0.0
        n = float(np.linalg.norm(f))
        if n < 1e-9:
            raise ValueError("facing must have a horizontal component")
        self.facing = f / n
        if self.upper_arm_length is None:
            self.upper_arm_length = 0.176 * self.height
        if self.forearm_length is None:
            self.forearm_length = 0.206 * self.height
        if not (0 < self.waist_height_fraction < self.shoulder_height_fraction < 1):
            raise ValueError("need 0 < waist fraction < shoulder fraction < 1")

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


@dataclass
class ArmConfig:
    shoulder_deg: float
    elbow_deg: float

    def __post_init__(self):
        if not (SHOULDER_RANGE_DEG[0] <= self.shoulder_deg <= SHOULDER_RANGE_DEG[1]):
            raise ValueError(f"shoulder angle outside {SHOULDER_RANGE_DEG}")
        if not (ELBOW_RANGE_DEG[0] <= self.elbow_deg <= ELBOW_RANGE_DEG[1]):
            raise ValueError(f"elbow angle outside {ELBOW_RANGE_DEG}")


@dataclass
class ErgonomicCandidate:
    config: ArmConfig
    hand_position: np.ndarray
    torque_raw: float  # sum of squared joint torques, N^2 m^2
    displacement_raw: float  # squared angular distance from rest posture, deg^2
    effort_cost: float  # torque_raw normalized over the kept set
    displacement_cost: float
    total_cost: float


def _plane_dir(phi_deg: float, facing: np.ndarray) -> np.ndarray:
    """In-plane direction at angle phi from straight-down toward facing."""
    phi = math.radians(phi_deg)
    return math.sin(phi) * facing - math.cos(phi) * UP


def forward_kinematics(config: ArmConfig, human: HumanModel):
    """Return (shoulder, elbow, hand) world points for an arm configuration."""
    shoulder = human.shoulder_point
    elbow = shoulder + human.upper_arm_length * _plane_dir(config.shoulder_deg, human.facing)
    hand = elbow + human.forearm_length * _plane_dir(
        config.shoulder_deg + config.elbow_deg, human.facing
    )
    return shoulder, elbow, hand


def joint_torques(config: ArmConfig, object_mass: float, human: HumanModel):
    """Static gravity torque magnitudes (shoulder, elbow) in N m.

    Each distal point mass contributes m * g * (signed horizontal offset from
    the joint, measured along the facing axis); the net sum is returned as an
    absolute value per joint.
    """
    if object_mass < 0:
        raise ValueError("object_mass must be nonnegative")
    shoulder, elbow, hand = forward_kinematics(config, human)
    f = human.facing

    def x(p):
        return float(np.dot(p, f))

    m_upper = (human.upper_arm_mass, (shoulder + elbow) / 2.0)
    m_fore = (human.forearm_mass, (elbow + hand) / 2.0)
    m_hand = (human.hand_mass + object_mass, hand)
    tau_shoulder = sum(m * GRAVITY * (x(p) - x(shoulder)) for m, p in (m_upper, m_fore, m_hand))
    tau_elbow = sum(m * GRAVITY * (x(p) - x(elbow)) for m, p in (m_fore, m_hand))
    return abs(tau_shoulder), abs(tau_elbow)


def _angle_grid(lo: float, hi: float, step: float) -> list[float]:
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9:
            break
        out.append(min(v, hi))
        k += 1
    return out


def plan_handover_position(
    human: HumanModel,
    object_mass: float = 0.5,
    alpha: float = 0.5,
    step: float = 5.0,
):
    """Pick the hand placement minimizing blended effort and posture costs.

    Sweeps the joint grid at `step` degrees, keeps configurations whose hand
    height lies strictly between waist and shoulder, normalizes both raw
    costs by their maxima over the kept set, and minimizes
    (1 - alpha) * effort + alpha * displacement. Ties break by lower effort
    cost, then lower shoulder angle, then lower elbow angle.

    Returns (hand_position, winner, kept_candidates).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if not (step > 0):
        raise ValueError("step must be positive")
    kept = []
    for ts in _angle_grid(*SHOULDER_RANGE_DEG, step):
        for te in _angle_grid(*ELBOW_RANGE_DEG, step):
            cfg = ArmConfig(ts, te)
            _, _, hand = forward_kinematics(cfg, human)
            if not (human.waist_height < hand[2] < human.shoulder_height):
                continue
            tau_s, tau_e = joint_torques(cfg, object_mass, human)
            torque_raw = tau_s * tau_s + tau_e * tau_e
            disp_raw = (SHOULDER_MID_DEG - ts) ** 2 + (ELBOW_MID_DEG - te) ** 2
            kept.append((cfg, hand, torque_raw, disp_raw))
    if not kept:
        raise ValueError("empty ergonomic candidate set")
    t_max = max(item[2] for item in kept)
    d_max = max(item[3] for item in kept)
    candidates = []
    for cfg, hand, traw, draw in kept:
        ft = traw / t_max if t_max > 0 else 0.0
        fd = draw / d_max if d_max > 0 else 0.0
        total = (1.0 - alpha) * ft + alpha * fd
        candidates.append(ErgonomicCandidate(cfg, hand, traw, draw, ft, fd, total))
    winner = min(
        candidates,
        key=lambda c: (c.total_cost, c.effort_cost, c.config.shoulder_deg, c.config.elbow_deg),
    )
    return winner.hand_position, winner, candidates


def candidates_csv(candidates) -> str:
    """Diagnostic table of the kept grid (one row per configuration)."""
    buf = io.StringIO()
    buf.write("shoulder_deg,elbow_deg,hand_x,hand_y,hand_z,effort_cost,displacement_cost,total_cost\n")
    for c in candidates:
        h = c.hand_position
        buf.write(
            f"{c.config.shoulder_deg:.1f},{c.config.elbow_deg:.1f},"
            f"{h[0]:.6f},{h[1]:.6f},{h[2]:.6f},"
            f"{c.effort_cost:.9f},{c.displacement_cost:.9f},{c.total_cost:.9f}\n"
        )
    return buf.getvalue()
