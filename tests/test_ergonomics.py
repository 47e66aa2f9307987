"""Arm model tests: kinematics, torques, and the handover position planner."""
import math

import numpy as np
import pytest
import sympy as sp

from handover.ergonomics import (
    ELBOW_MID_DEG,
    ELBOW_RANGE_DEG,
    GRAVITY,
    SHOULDER_MID_DEG,
    SHOULDER_RANGE_DEG,
    MIN_POSITION_STEP,
    HumanModel,
    candidates_csv,
    forward_kinematics,
    joint_torques,
    plan_handover_position,
)

from conftest import (
    oracle_angle_grid,
    oracle_candidates_csv,
    oracle_forward_kinematics,
    oracle_joint_torques,
    oracle_plan_position,
)

H = HumanModel()


# ---------------------------------------------------------------- kinematics

def test_fk_arm_hanging_straight_down():
    shoulder, elbow, hand = forward_kinematics(0.0, 0.0, H)
    assert np.allclose(shoulder, H.shoulder_point)
    assert np.allclose(elbow, shoulder - np.array([0, 0, H.upper_arm_length]))
    assert np.allclose(hand, shoulder - np.array([0, 0, H.arm_length]))


def test_fk_arm_horizontal_forward():
    shoulder, elbow, hand = forward_kinematics(90.0, 0.0, H)
    assert np.allclose(elbow, shoulder + H.upper_arm_length * H.facing)
    assert np.allclose(hand, shoulder + H.arm_length * H.facing)


def test_fk_elbow_bent_straight_up():
    # upper arm forward, forearm at 90+90=180 from down, i.e. straight up
    shoulder, elbow, hand = forward_kinematics(90.0, 90.0, H)
    assert np.allclose(hand, elbow + np.array([0, 0, H.forearm_length]))


def test_fk_respects_facing_direction():
    h = HumanModel(facing=(0.0, 1.0, 0.0))
    shoulder, _, hand = forward_kinematics(90.0, 0.0, h)
    assert np.allclose(hand - shoulder, np.array([0.0, h.arm_length, 0.0]))


def test_arm_config_range_validation():
    with pytest.raises(ValueError, match="shoulder"):
        forward_kinematics(-1.0, 0.0, H)
    with pytest.raises(ValueError, match="elbow"):
        forward_kinematics(0.0, 141.0, H)
    # one bad angle anywhere in an array rejects the call, in torques too
    with pytest.raises(ValueError, match="elbow"):
        joint_torques([0.0, 10.0], [10.0, float("nan")], 0.5, H)
    forward_kinematics(*map(float, (SHOULDER_RANGE_DEG[1], ELBOW_RANGE_DEG[1])), H)  # endpoints legal


# ------------------------------------------------------------------- torques

def test_torques_vanish_with_arm_hanging():
    tau_s, tau_e = joint_torques(0.0, 0.0, object_mass=3.0, human=H)
    assert tau_s == pytest.approx(0.0, abs=1e-12)
    assert tau_e == pytest.approx(0.0, abs=1e-12)


def test_torques_horizontal_lever_single_mass():
    # massless arm holding 1 kg straight out: plain lever arms
    h = HumanModel(upper_arm_mass=0.0, forearm_mass=0.0, hand_mass=0.0)
    tau_s, tau_e = joint_torques(90.0, 0.0, object_mass=1.0, human=h)
    assert tau_s == pytest.approx(GRAVITY * h.arm_length, rel=1e-12)
    assert tau_e == pytest.approx(GRAVITY * h.forearm_length, rel=1e-12)


def test_torques_match_symbolic_model():
    # full defaults at the rest posture, rebuilt symbolically from scratch
    ts, te = sp.Rational(135, 2), sp.Rational(125, 2)
    ua = sp.Float("0.176", 30) * sp.Float("1.70", 30)
    fa = sp.Float("0.206", 30) * sp.Float("1.70", 30)
    g = sp.Float("9.81", 30)
    deg = sp.pi / 180
    x_elbow = ua * sp.sin(ts * deg)
    x_hand = x_elbow + fa * sp.sin((ts + te) * deg)
    m_ua, m_fa, m_h, m_obj = (sp.Float(v, 30) for v in ("2.1", "1.2", "0.5", "0.5"))
    tau_s = g * (m_ua * x_elbow / 2 + m_fa * (x_elbow + x_hand) / 2 + (m_h + m_obj) * x_hand)
    tau_e = g * (m_fa * (x_hand - x_elbow) / 2 + (m_h + m_obj) * (x_hand - x_elbow))
    got_s, got_e = joint_torques(67.5, 62.5, object_mass=0.5, human=H)
    assert got_s == pytest.approx(float(sp.N(tau_s, 30)), rel=1e-9)
    assert got_e == pytest.approx(float(sp.N(tau_e, 30)), rel=1e-9)


def test_torques_reject_negative_object_mass():
    with pytest.raises(ValueError):
        joint_torques(45.0, 45.0, object_mass=-0.1, human=H)


# ------------------------------------------------------------------- planner

def plan_reference(human, object_mass, alpha, step=5.0):
    """Independent restatement of the planner for cross-checking winners,
    on the per-point kinematics and torques."""
    rows = []
    for ts in oracle_angle_grid(*SHOULDER_RANGE_DEG, step):
        for te in oracle_angle_grid(*ELBOW_RANGE_DEG, step):
            _, _, hand = oracle_forward_kinematics(ts, te, human)
            if not (human.waist_height < hand[2] < human.shoulder_height):
                continue
            tau_s, tau_e = oracle_joint_torques(ts, te, object_mass, human)
            traw = tau_s**2 + tau_e**2
            draw = (SHOULDER_MID_DEG - ts) ** 2 + (ELBOW_MID_DEG - te) ** 2
            rows.append((ts, te, traw, draw))
    t_max = max(r[2] for r in rows)
    d_max = max(r[3] for r in rows)
    best = None
    for ts, te, traw, draw in rows:
        ft = traw / t_max if t_max > 0 else 0.0
        fd = draw / d_max if d_max > 0 else 0.0
        key = ((1 - alpha) * ft + alpha * fd, ft, ts, te)
        if best is None or key < best[0]:
            best = (key, ts, te)
    return best[1], best[2]


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_planner_matches_exhaustive_reference(alpha):
    _, winner, _ = plan_handover_position(H, object_mass=0.5, alpha=alpha)
    assert (winner.shoulder_deg, winner.elbow_deg) == plan_reference(
        H, 0.5, alpha
    )


@pytest.mark.parametrize("step", [5.0, 2.5])
def test_pure_posture_winner_nearest_kept_to_rest(step):
    # the rest posture itself raises the hand above the shoulder, so it is
    # filtered out; alpha=1 picks the kept grid point nearest (67.5, 62.5)
    _, _, rest_hand = forward_kinematics(SHOULDER_MID_DEG, ELBOW_MID_DEG, H)
    assert rest_hand[2] >= H.shoulder_height
    _, winner, kept = plan_handover_position(H, alpha=1.0, step=step)
    configs = set(zip(kept.shoulder_deg.tolist(), kept.elbow_deg.tolist()))
    assert (SHOULDER_MID_DEG, ELBOW_MID_DEG) not in configs
    assert winner.displacement_raw == kept.displacement_raw.min()
    assert winner.displacement_cost > 0.0


def test_costs_normalized_to_unit_interval():
    _, _, kept = plan_handover_position(H, alpha=0.5)
    ft = kept.effort_cost.tolist()
    fd = kept.displacement_cost.tolist()
    assert all(0.0 <= v <= 1.0 for v in ft + fd)
    assert max(ft) == pytest.approx(1.0)
    assert max(fd) == pytest.approx(1.0)


def test_kept_hands_strictly_between_waist_and_shoulder():
    for alpha in (0.0, 0.5, 1.0):
        _, winner, kept = plan_handover_position(H, alpha=alpha)
        for z in kept.hand_position[:, 2].tolist():
            assert H.waist_height < z < H.shoulder_height
        assert H.waist_height < winner.hand_position[2] < H.shoulder_height


def test_mass_rescaling_does_not_move_pure_posture_winner():
    heavy = HumanModel(upper_arm_mass=6.3, forearm_mass=3.6, hand_mass=1.5)
    _, w1, _ = plan_handover_position(H, object_mass=0.5, alpha=1.0)
    _, w2, _ = plan_handover_position(heavy, object_mass=1.5, alpha=1.0)
    assert (w1.shoulder_deg, w1.elbow_deg) == (w2.shoulder_deg, w2.elbow_deg)


def test_planner_equivariant_under_base_transform():
    moved = HumanModel(base_position=(3.0, -2.0, 0.5), facing=(0.0, -1.0, 0.0))
    hand0, w0, _ = plan_handover_position(H, alpha=0.5)
    hand1, w1, _ = plan_handover_position(moved, alpha=0.5)
    assert (w0.shoulder_deg, w0.elbow_deg) == (w1.shoulder_deg, w1.elbow_deg)
    assert w0.total_cost == pytest.approx(w1.total_cost, rel=1e-12)
    # shoulder-relative components agree after rotating facing +x -> -y
    rel0 = hand0 - H.shoulder_point
    rel1 = hand1 - moved.shoulder_point
    assert rel1[1] == pytest.approx(-rel0[0], abs=1e-12)
    assert rel1[2] == pytest.approx(rel0[2], abs=1e-12)


def test_empty_height_window_raises():
    pinched = HumanModel(waist_height_fraction=0.8099, shoulder_height_fraction=0.81)
    with pytest.raises(ValueError, match="empty ergonomic candidate set"):
        plan_handover_position(pinched)


def test_planner_validates_alpha_and_step():
    with pytest.raises(ValueError, match="alpha"):
        plan_handover_position(H, alpha=1.5)
    with pytest.raises(ValueError, match="step"):
        plan_handover_position(H, step=0.0)
    with pytest.raises(ValueError, match="step must be at least"):
        plan_handover_position(H, step=MIN_POSITION_STEP / 2)


def _sweep_cases():
    """(human, object_mass, alpha, step): varied receivers, mostly at 5 deg."""
    rng = np.random.default_rng(11)
    mass_alpha = [(0.5, 0.5), (0.0, 0.0), (2.0, 1.0), (0.3, 0.25), (0.5, 0.0), (0.5, 1.0)]
    cases = [(H, 0.5, 0.5, 5.0), (H, 0.5, 0.5, 2.5), (HumanModel(forearm_length=0.15), 0.5, 1.0, 2.5),
             # massless arm, empty hand: every torque is 0, so t_max == 0
             (HumanModel(upper_arm_mass=0.0, forearm_mass=0.0, hand_mass=0.0), 0.0, 0.5, 5.0),
             (HumanModel(upper_arm_mass=0.0, forearm_mass=0.0, hand_mass=0.0), 0.0, 0.0, 5.0)]
    for i in range(14):
        yaw = rng.uniform(0.0, 2.0 * math.pi)
        human = HumanModel(
            height=float(rng.uniform(1.4, 2.0)),
            base_position=(*rng.uniform(-3.0, 3.0, 2), float(rng.uniform(-0.3, 0.6))),
            facing=(math.cos(yaw), math.sin(yaw), float(rng.uniform(-0.5, 0.5))) if i else (0.0, -1.0, 0.0),
            upper_arm_length=float(rng.uniform(0.2, 0.4)) if i % 2 else None,
            forearm_length=float(rng.uniform(0.2, 0.4)) if i % 3 else None,
            upper_arm_mass=float(rng.uniform(0.0, 4.0)),
            forearm_mass=float(rng.uniform(0.0, 3.0)),
            hand_mass=float(rng.uniform(0.0, 1.0)),
            arm_plane_offset=float(rng.uniform(-0.3, 0.3)),
        )
        cases.append((human, *mass_alpha[i % len(mass_alpha)], 2.5 if i < 2 else 5.0))
    return cases


@pytest.mark.parametrize("human, object_mass, alpha, step", _sweep_cases())
def test_sweep_bitwise_equals_per_point_oracle(human, object_mass, alpha, step):
    hand, winner, kept = plan_handover_position(human, object_mass, alpha, step)
    want_winner, rows = oracle_plan_position(human, object_mass, alpha, step)
    assert len(kept) == len(rows)
    names = ("shoulder_deg", "elbow_deg", "hand_position", "torque_raw", "displacement_raw",
             "effort_cost", "displacement_cost", "total_cost")
    for j, name in enumerate(names):
        want = np.array([row[j] for row in rows], dtype=float)
        assert getattr(kept, name).tobytes() == want.tobytes(), name
        assert np.asarray(getattr(winner, name)).tobytes() == np.asarray(want_winner[j]).tobytes(), name
    assert hand.tobytes() == want_winner[2].tobytes()
    assert candidates_csv(kept) == oracle_candidates_csv(rows)


def test_candidates_csv_shape():
    _, _, kept = plan_handover_position(H, alpha=0.5)
    lines = candidates_csv(kept).strip().split("\n")
    assert lines[0].startswith("shoulder_deg,elbow_deg,hand_x")
    assert len(lines) == len(kept) + 1
    assert all(len(line.split(",")) == 8 for line in lines[1:])
