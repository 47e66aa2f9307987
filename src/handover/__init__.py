"""Occlusion-aware robot-to-human handover planning on voxel grids.

The pipeline stages live in separate modules:

  voxelgeom   meshes, voxel grids, ray casting, .vgrid and .vcontact files
  contacts    contact maps, heuristic prediction, density clustering
  grasping    antipodal grasp sampling and contact-aware re-ranking
  ergonomics  receiver arm model and handover position planning
  delivery    handover orientation search around the held point
  metrics     visibility / reachability scoring and the success rule
  harness     end-to-end pipeline, ablation modes, aggregation
  suite       bundled benchmark objects and scene files
"""
from .contacts import (
    ContactCluster,
    ContactMap,
    cluster_contacts,
    largest_cluster,
    load_contact_map,
    predict_contacts_heuristic,
    save_contact_map,
)
from .delivery import (
    DeliveryContext,
    HandoverPose,
    OrientationCandidate,
    exposure_objective,
    feasibility_reason,
    feasible,
    plan_handover_orientation,
    sample_orientations,
)
from .ergonomics import (
    ArmPoses,
    HumanModel,
    forward_kinematics,
    joint_torques,
    plan_handover_position,
)
from .grasping import (
    GraspCandidate,
    GraspSet,
    GripperModel,
    RankedGrasp,
    contact_score,
    occlusion_fraction,
    rank_grasps,
    sample_grasps,
)
from .harness import (
    AblationMode,
    HandoverReport,
    PipelineParams,
    Scene,
    aggregate,
    load_report,
    load_scene,
    run_pipeline,
    save_report,
    summary_csv,
)
from .metrics import MetricScores, evaluate_maps, lower_median, reachability, success, visibility
from .voxelgeom import (
    Mesh,
    VoxelGrid,
    estimate_normals,
    load_obj,
    load_vgrid,
    ray_cast,
    save_vgrid,
    surface_voxels,
    voxelize_mesh,
)

__version__ = "0.1.0"
