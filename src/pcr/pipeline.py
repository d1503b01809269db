"""End-to-end registration: files in, report and transformed cloud out.

Stage order: scale detection, then (when a scale gap is detected and matches
are available) relative pose + closed-form scale estimation, source scaling,
filtration of both clouds, trimmed ICP, covariance and information matrix on
the final correspondence set. Any stage failure is wrapped in a StageError
carrying the stage name and its CLI exit code. An ICP run that stops at its
iteration cap unconverged is not a failure: it is logged as a WARNING on the
``pcr`` logger, and the run goes on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from . import cloudio, filters, icp, icpcov, relpose, scale
from .errors import RegistrationError, StageError
from .geom import RigidTransform, SimilarityTransform

# Exit code 2 is left to argparse: it means a usage or flag error.
EXIT_CODES = {"io": 1, "scale": 6, "relpose": 3, "icp": 4, "covariance": 5}

log = logging.getLogger("pcr")


@dataclass(frozen=True)
class PipelineConfig:
    source: str
    target: str
    matches: str | None = None
    intrinsics_source: str | None = None
    intrinsics_target: str | None = None
    report_path: str | None = None
    transformed_path: str | None = None
    ransac: relpose.RansacConfig = field(default_factory=relpose.RansacConfig)
    filter_cfg: filters.FilterConfig = field(default_factory=filters.FilterConfig)
    icp_cfg: icp.IcpConfig = field(default_factory=icp.IcpConfig)
    sigma_z: float = 0.01
    apply_filters: bool = True
    use_scale: bool = True

    def __post_init__(self):
        if not 0.0 < self.sigma_z < math.inf:
            raise ValueError("sigma_z must be positive and finite")


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except StageError:
        raise
    except (RegistrationError, ValueError, OSError) as exc:
        raise StageError(name, EXIT_CODES[name], exc) from exc


def run_pipeline(cfg: PipelineConfig) -> cloudio.PipelineReport:
    """Run the whole registration and return (and optionally write) the report."""
    source = _stage("io", cloudio.read_ply, cfg.source)
    target = _stage("io", cloudio.read_ply, cfg.target)
    matches = _stage("io", cloudio.read_matches, cfg.matches) if cfg.matches else None

    detection = _stage("scale", scale.detect_scale, source, target)

    scale_factor = 1.0
    rel_pose = None
    estimate = None
    if detection.differs and cfg.use_scale:
        if matches is None:
            raise StageError("scale", EXIT_CODES["scale"],
                             "scale estimation requires matches")
        if not cfg.intrinsics_source or not cfg.intrinsics_target:
            raise StageError("scale", EXIT_CODES["scale"],
                             "scale estimation requires intrinsics for both sides")
        k_source = _stage("io", cloudio.read_intrinsics, cfg.intrinsics_source)
        k_target = _stage("io", cloudio.read_intrinsics, cfg.intrinsics_target)
        rel_pose = _stage("relpose", relpose.ransac_relative_pose,
                          matches, k_source, k_target, cfg.ransac)
        inlier_matches = matches[rel_pose.inliers]
        # Epipolar inliers can still carry inconsistent depths; keep only
        # matches whose backprojected pair fits the common pairwise-ratio.
        consistent = _stage("scale", scale.depth_consistent_indices,
                            inlier_matches, k_source, k_target)
        good_matches = inlier_matches[consistent]
        estimate = _stage("scale", scale.estimate_scale_kalman,
                          good_matches, k_source, k_target, rel_pose)
        scale_factor = estimate.scale

    scaling = SimilarityTransform(scale_factor, RigidTransform.identity()) \
        if scale_factor != 1.0 else SimilarityTransform.identity()
    scaled_source = cloudio.Cloud(points=scaling.apply(source.points),
                                  label=source.label) \
        if scale_factor != 1.0 else source

    if cfg.apply_filters:
        icp_source = _stage("icp", filters.crop_lower, scaled_source, cfg.filter_cfg)
        icp_source = _stage("icp", filters.remove_remote, icp_source)
        icp_target = _stage("icp", filters.crop_lower, target, cfg.filter_cfg)
        icp_target = _stage("icp", filters.remove_remote, icp_target)
    else:
        icp_source = scaled_source
        icp_target = target

    # The keyframe relative pose is the coarse alignment of the two sessions;
    # seeding ICP with it keeps the refinement inside its convergence basin.
    init = None
    if rel_pose is not None and estimate is not None:
        init = RigidTransform(rel_pose.rotation, estimate.translation)
    result = _stage("icp", icp.icp_register, icp_source, icp_target,
                    cfg.icp_cfg, init)
    if not result.converged:
        log.warning("stage icp: ICP stopped unconverged after %d iterations",
                    result.iterations)

    pairs_p = icp_source.points[result.source_indices]
    pairs_q = icp_target.points[result.theta]
    pose = _stage("covariance", icpcov.PoseParam.from_rigid, result.transform)
    cov_result = _stage("covariance", icpcov.covariance, pairs_p, pairs_q, pose,
                        cfg.sigma_z)

    final = SimilarityTransform(scale_factor, result.transform)
    rel_rigid = RigidTransform(rel_pose.rotation, rel_pose.translation) \
        if rel_pose is not None else RigidTransform.identity()
    report = cloudio.PipelineReport(
        scale_detected=detection.differs,
        scale=scale_factor,
        relative_pose=rel_rigid,
        icp_transform=result.transform,
        final_transform=final,
        rms=result.rms,
        iterations=result.iterations,
        covariance=cov_result.cov_x,
        information=cov_result.information,
    )

    if cfg.report_path:
        _stage("io", cloudio.write_report, report, cfg.report_path)
    if cfg.transformed_path:
        moved = cloudio.Cloud(points=final.apply(source.points), label=source.label)
        _stage("io", cloudio.write_ply, moved, cfg.transformed_path)
    return report
