"""End-to-end registration: files in, report and transformed cloud out.

Stage order: scale detection, then (when a scale gap is detected and matches
are available) relative pose, the lift of its inliers with both depths to 3D
points, the depth gate and the closed-form scale estimate, which together
make one Sim(3) seed; source scaling by the seed's scale, trimmed ICP from
the seed's rigid part on the scaled source and the target as read, and
covariance and information matrix on the final correspondence set, at the
noise level those pairs' residuals give (``icpcov.pair_sigma``). Any
stage failure is wrapped in a StageError carrying the stage name, which
gives its CLI exit code. An ICP run that stops at its iteration cap
unconverged is not a failure: it is logged as a WARNING on the ``pcr``
logger, and the run goes on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import cloudio, icp, icpcov, relpose, scale
from .errors import RegistrationError, StageError
from .geom import RigidTransform, SimilarityTransform

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
    use_scale: bool = True
    # Kept only because perfbench/workloads.py passes apply_filters=False.
    apply_filters: bool = False

    def __post_init__(self):
        if self.apply_filters:
            raise ValueError("the cloud filters were removed; apply_filters must be False")


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except (RegistrationError, ValueError, OSError) as exc:
        raise StageError(name, exc) from exc


def run_pipeline(cfg: PipelineConfig) -> cloudio.PipelineReport:
    """Run the whole registration and return (and optionally write) the report."""
    source = _stage("io", cloudio.read_ply, cfg.source)
    target = _stage("io", cloudio.read_ply, cfg.target)
    matches = _stage("io", cloudio.read_matches, cfg.matches) if cfg.matches else None

    detection = _stage("scale", scale.detect_scale, source.points, target.points)

    # The keyframe relative pose and the session scale coarsely align the
    # two sessions; seeding ICP with them keeps the refinement inside its
    # convergence basin. The seed is the identity when no scale gap is
    # detected or the scale stage is off.
    seed = SimilarityTransform.identity()
    relative = RigidTransform.identity()
    if detection.differs and cfg.use_scale:
        if matches is None:
            raise StageError("scale", "scale estimation requires matches")
        if not cfg.intrinsics_source or not cfg.intrinsics_target:
            raise StageError("scale", "scale estimation requires intrinsics for both sides")
        k_source = _stage("io", cloudio.read_intrinsics, cfg.intrinsics_source)
        k_target = _stage("io", cloudio.read_intrinsics, cfg.intrinsics_target)
        rel_pose = _stage("relpose", relpose.ransac_relative_pose,
                          matches, k_source, k_target)
        relative = rel_pose.transform
        # The inliers with both depths, lifted to 3D once.
        inliers = matches[rel_pose.inliers]
        src, tgt = inliers[inliers.has_depths].points(k_source, k_target)
        # Epipolar inliers can still carry inconsistent depths; keep only
        # pairs that fit the common pairwise-distance ratio.
        consistent = _stage("scale", scale.depth_consistent_indices, src, tgt)
        estimate = _stage("scale", scale.estimate_scale_kalman,
                          src[consistent], tgt[consistent], relative.rotation)
        seed = SimilarityTransform(
            estimate.scale, RigidTransform(relative.rotation, estimate.translation))

    # The cloud refuses a scaled coordinate past its magnitude limit.
    scaled_source = source if seed.scale == 1.0 else _stage(
        "scale", cloudio.Cloud, points=seed.scale * source.points, label=source.label)

    result = _stage("icp", icp.icp_register, scaled_source.points, target.points,
                    seed.rigid)
    if not result.converged:
        log.warning("stage icp: ICP stopped unconverged after %d iterations",
                    result.iterations)

    pairs_p = scaled_source.points[result.source_indices]
    pairs_q = target.points[result.theta]
    sigma = _stage("covariance", icpcov.pair_sigma, pairs_p, pairs_q, result.transform)
    log.debug("stage covariance: pair noise %.6g from %d pairs", sigma, len(pairs_p))
    cov_result = _stage("covariance", icpcov.covariance, pairs_p, pairs_q,
                        result.transform, sigma)

    # The report refuses an information matrix that does not invert the
    # covariance within 1e-6, as one just above the singularity floor may not.
    report = _stage(
        "covariance", cloudio.PipelineReport,
        scale_detected=detection.differs,
        scale=seed.scale,
        relative_pose=relative,
        icp_transform=result.transform,
        rms=result.rms,
        iterations=result.iterations,
        covariance=cov_result.cov_x,
        information=cov_result.information,
    )

    if cfg.report_path:
        _stage("io", cloudio.write_report, report, cfg.report_path)
    if cfg.transformed_path:
        moved = _stage("io", cloudio.Cloud, label=source.label,
                       points=report.final_transform.apply(source.points))
        _stage("io", cloudio.write_ply, moved, cfg.transformed_path)
    return report
