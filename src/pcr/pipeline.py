"""End-to-end registration: ``register`` on arrays, ``run_pipeline`` on files.

``register`` runs the stages on (n, 3) point arrays: scale detection, then
(when a scale gap is detected and matches are given) relative pose, the
lift of its inliers with both depths to 3D points, the depth gate and the
closed-form scale estimate, which together make one Sim(3) seed; source
scaling by the seed's scale, trimmed ICP from the seed's rigid part, and
covariance and information matrix on the final correspondence set, at the
noise level those pairs' residuals give (``icpcov.pair_sigma``).
``run_pipeline`` reads every file its config names, calls ``register`` and
writes the outputs. The io stage is its own, but for ``register`` refusing
an array that ``cloudio.Cloud`` refuses. Any stage failure is a StageError
carrying the stage name, which gives its CLI exit code. An ICP run that
stops at its iteration cap unconverged is not a failure: it is logged as a
WARNING on the ``pcr`` logger, and the run goes on.
"""

from __future__ import annotations

import contextlib
import logging
import os
from dataclasses import dataclass

from . import cloudio, icp, icpcov, relpose, scale
from .errors import RegistrationError, StageError
from .geom import RigidTransform, SimilarityTransform, as_points

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
        # An output may not overwrite an input or the other output.
        named = {_file_key(path): path for path in filter(None, (
            self.source, self.target, self.matches, self.intrinsics_source,
            self.intrinsics_target))}
        for path in filter(None, (self.report_path, self.transformed_path)):
            key = _file_key(path)
            if key in named:
                raise ValueError(f"output {path} names the same file as {named[key]}")
            named[key] = path


def _file_key(path: str):
    # One key per file however the path spells it: its device and inode
    # (hard links included) where it exists, else its resolved path.
    try:
        info = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return info.st_dev, info.st_ino


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except (RegistrationError, ValueError, OSError) as exc:
        raise StageError(name, exc) from exc


def register(source, target, matches: cloudio.Matches | None = None,
             intrinsics: tuple[cloudio.CameraIntrinsics, ...] | None = None,
             use_scale: bool = True) -> cloudio.PipelineReport:
    """Register the (n, 3) ``source`` points onto the ``target`` points;
    ``intrinsics`` is the (source, target) camera pair of the matches."""
    # Refuse, in stage io, what a cloud file may not hold.
    for points in (source, target):
        _stage("io", cloudio.Cloud, points=points)
    source, target = as_points(source), as_points(target)

    detection = _stage("scale", scale.detect_scale, source, target)

    # The keyframe relative pose and the session scale coarsely align the
    # two sessions; seeding ICP with them keeps the refinement inside its
    # convergence basin. The seed is the identity when no scale gap is
    # detected or the scale stage is off.
    seed = SimilarityTransform.identity()
    relative = RigidTransform.identity()
    if detection.differs and use_scale:
        if matches is None:
            raise StageError("scale", "scale estimation requires matches")
        if intrinsics is None or None in intrinsics:
            raise StageError("scale", "scale estimation requires intrinsics for both sides")
        k_source, k_target = intrinsics
        rel_pose = _stage("relpose", relpose.ransac_relative_pose,
                          matches, k_source, k_target)
        relative = rel_pose.transform
        # The inliers with both depths, lifted to 3D.
        inliers = matches[rel_pose.inliers]
        src, tgt = inliers[inliers.has_depths].points(k_source, k_target)
        # Epipolar inliers can still carry inconsistent depths; the gate
        # keeps the pairs the seed's scale is fitted to.
        consistent = _stage("scale", scale.depth_consistent_indices,
                            src, tgt, relative.rotation)
        estimate = _stage("scale", scale.estimate_scale_kalman,
                          src[consistent], tgt[consistent], relative.rotation)
        seed = SimilarityTransform(
            estimate.scale, RigidTransform(relative.rotation, estimate.translation))

    # A scaled coordinate past the clouds' magnitude limit is refused.
    scaled_source = source if seed.scale == 1.0 else _stage(
        "scale", as_points, seed.scale * source)

    result = _stage("icp", icp.icp_register, scaled_source, target, seed.rigid)
    if not result.converged:
        log.warning("stage icp: ICP stopped unconverged after %d iterations",
                    result.iterations)

    pairs_p = scaled_source[result.source_indices]
    pairs_q = target[result.theta]
    sigma = _stage("covariance", icpcov.pair_sigma, pairs_p, pairs_q, result.transform)
    log.debug("stage covariance: pair noise %.6g from %d pairs", sigma, len(pairs_p))
    cov_result = _stage("covariance", icpcov.covariance, pairs_p, pairs_q,
                        result.transform, sigma)

    # The report refuses an information matrix that does not invert the
    # covariance within 1e-6, as one just above the singularity floor may not.
    return _stage(
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


def run_pipeline(cfg: PipelineConfig) -> cloudio.PipelineReport:
    """Read every file ``cfg`` names, ``register`` the clouds, write the
    moved source cloud and then the report where asked, and return the
    report. The report is written last, so a report on disk means every
    output was written, and a report that cannot be written takes the moved
    cloud with it: a run that fails leaves neither output."""
    source = _stage("io", cloudio.read_ply, cfg.source)
    target = _stage("io", cloudio.read_ply, cfg.target)
    matches, k_source, k_target = (
        _stage("io", read, path) if path else None
        for read, path in ((cloudio.read_matches, cfg.matches),
                           (cloudio.read_intrinsics, cfg.intrinsics_source),
                           (cloudio.read_intrinsics, cfg.intrinsics_target)))

    report = register(source.points, target.points, matches, (k_source, k_target),
                      cfg.use_scale)

    if cfg.transformed_path:
        moved = _stage("io", cloudio.Cloud, label=source.label,
                       points=report.final_transform.apply(source.points))
        _stage("io", cloudio.write_ply, moved, cfg.transformed_path)
    if cfg.report_path:
        try:
            _stage("io", cloudio.write_report, report, cfg.report_path)
        except StageError:
            if cfg.transformed_path:
                with contextlib.suppress(OSError):
                    os.remove(cfg.transformed_path)
            raise
    return report
