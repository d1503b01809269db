"""Scale difference detection and estimation between two capture sessions.

Detection compares bounding-diagonal lengths of the two clouds. Estimation
backprojects matched keypoints to 3D using per-pixel depths and returns, in
closed form, the fixed point of the paper's scalar Kalman filter over the
scale: the least-squares scale and translation of the matched points under
the known relative rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudio import CameraIntrinsics, Cloud
from .errors import DegenerateGeometryError, InsufficientMatchesError
from .geom import bounds, freeze

# Depth-consistency gate: a match is kept when its median pairwise distance
# ratio lies within GATE_MADS robust scatters of the global median, with a
# band of at least GATE_MIN_BAND times that median.
GATE_MADS = 6.0
GATE_MIN_BAND = 0.05


@dataclass(frozen=True)
class ScaleDetection:
    """Diagonal-length ratio (target / source) and whether it flags a scale gap."""

    ratio: float
    differs: bool


@dataclass(frozen=True)
class ScaleEstimate:
    """Session scale with the translation that goes with it.

    Together with the relative rotation, ``translation`` coarsely aligns the
    backprojected keyframe points: q ~ scale * R @ p + translation.
    """

    scale: float
    translation: np.ndarray

    # One closed-form solve lands on the filter's fixed point; the benchmark
    # tracer still reads these two filter counters off every estimate.
    iterations = 1
    converged = True

    def __post_init__(self):
        trans = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "translation", freeze(trans))


def detect_scale(source: Cloud, target: Cloud, tolerance: float = 0.1) -> ScaleDetection:
    """Compare the bounding-diagonal lengths of the two clouds."""
    diag_s = bounds(source.points).diagonal_length()
    diag_t = bounds(target.points).diagonal_length()
    if diag_s == 0.0 or diag_t == 0.0:
        raise DegenerateGeometryError("cloud has zero spatial extent")
    ratio = diag_t / diag_s
    return ScaleDetection(ratio=ratio, differs=abs(ratio - 1.0) > tolerance)


def backproject(pixel, depth, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Lift pixels with known depth to 3D camera-frame points.

    The unit-depth ray ((X - cx)/fx, (Y - cy)/fy, 1) is scaled by the depth.
    Takes one pixel (2,) with a scalar depth, or pixels (n, 2) with depths
    (n,), and returns (3,) or (n, 3) accordingly.
    """
    px = np.asarray(pixel, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if not (np.isfinite(depth).all() and (depth > 0.0).all()):
        raise ValueError("depth must be positive and finite")
    x, y = px[..., 0], px[..., 1]
    rays = np.stack([(x - intrinsics.cx) / intrinsics.fx,
                     (y - intrinsics.cy) / intrinsics.fy,
                     np.ones_like(x)], axis=-1)
    return depth[..., None] * rays


def project_pinhole(point, intrinsics: CameraIntrinsics) -> tuple[float, float]:
    """Pinhole projection of a camera-frame point with positive depth."""
    p = np.asarray(point, dtype=np.float64).reshape(3)
    if p[2] <= 0.0:
        raise ValueError("point must lie in front of the camera")
    return (intrinsics.fx * p[0] / p[2] + intrinsics.cx,
            intrinsics.fy * p[1] / p[2] + intrinsics.cy)


def scale_least_squares(source_pts, target_pts, rel_rot, t_dir) -> tuple[float, float]:
    """Closed-form (scale, translation magnitude) along a fixed direction.

    Minimizes sum_i |s * R @ p_i + alpha * t_dir - q_i|^2 via the 2x2 normal
    equations in (s, alpha). ``t_dir`` must be unit length.
    """
    src = np.asarray(source_pts, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target_pts, dtype=np.float64).reshape(-1, 3)
    if src.shape != tgt.shape or src.shape[0] < 2:
        raise ValueError("need at least 2 matching point pairs")
    rot = np.asarray(rel_rot, dtype=np.float64).reshape(3, 3)
    tdir = np.asarray(t_dir, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(tdir) - 1.0) > 1e-9:
        raise ValueError("t_dir must be a unit vector")
    # The normal matrix is a Gram matrix, so its condition number is
    # lambda_max^2 / det.
    rotated = src @ rot.T
    n = src.shape[0]
    sq = float((rotated * rotated).sum())
    cross = float((rotated * tgt).sum())
    a12 = float(rotated.sum(axis=0) @ tdir)
    b2 = float(tgt.sum(axis=0) @ tdir)
    det = sq * n - a12 * a12
    lam_max = 0.5 * (sq + n) + math.hypot(0.5 * (sq - n), a12)
    if not (math.isfinite(lam_max) and det * 1e12 >= lam_max * lam_max):
        raise DegenerateGeometryError("scale normal equations are singular")
    scale = (n * cross - a12 * b2) / det
    if scale <= 0.0:
        raise DegenerateGeometryError("least-squares scale is nonpositive")
    return scale, (sq * b2 - a12 * cross) / det


def _match_points(matches, intrinsics_source: CameraIntrinsics,
                  intrinsics_target: CameraIntrinsics):
    # Backprojected (source, target) 3D points of matches with both depths.
    rows = np.array([(m.us, m.vs, m.ds, m.ut, m.vt, m.dt) for m in matches],
                    dtype=np.float64).reshape(-1, 6)
    return (backproject(rows[:, 0:2], rows[:, 2], intrinsics_source),
            backproject(rows[:, 3:5], rows[:, 5], intrinsics_target))


def depth_consistent_indices(matches, intrinsics_source: CameraIntrinsics,
                             intrinsics_target: CameraIntrinsics) -> np.ndarray:
    """Indices of matches whose backprojected pair is 3D-consistent.

    The epipolar test cannot constrain depth, so a match can pass it with an
    arbitrary depth. For each match the median of pairwise distance ratios
    |q_i - q_j| / |p_i - p_j| over the other matches is rigid-invariant and
    clusters at the session scale; rows whose median deviates from the global
    one by more than ``GATE_MADS`` robust scatters (with a ``GATE_MIN_BAND``
    relative floor) are rejected. Matches without both depths are rejected
    as well.
    """
    have = np.array([m.has_depths() for m in matches], dtype=bool)
    idx = np.flatnonzero(have)
    if idx.size < 3:
        return idx
    src, tgt = _match_points([matches[i] for i in idx], intrinsics_source,
                             intrinsics_target)

    cols = np.arange(src.shape[0])
    if cols.size > 500:
        cols = cols[:: (cols.size + 499) // 500]
    ds = np.linalg.norm(src[:, None, :] - src[None, cols, :], axis=2)
    dt = np.linalg.norm(tgt[:, None, :] - tgt[None, cols, :], axis=2)
    ratios = np.where(ds > 1e-12, dt / np.maximum(ds, 1e-12), np.nan)
    ratios[cols, np.arange(cols.size)] = np.nan
    row_med = np.nanmedian(ratios, axis=1)
    finite = np.isfinite(row_med)
    if finite.sum() < 3:
        return idx
    center = float(np.median(row_med[finite]))
    scatter = 1.4826 * float(np.median(np.abs(row_med[finite] - center)))
    band = max(GATE_MADS * scatter, GATE_MIN_BAND * abs(center))
    keep = finite & (np.abs(row_med - center) <= band)
    if keep.sum() < 3:
        return idx
    return idx[keep]


def estimate_scale_kalman(matches, intrinsics_source: CameraIntrinsics,
                          intrinsics_target: CameraIntrinsics, rel_pose) -> ScaleEstimate:
    """Session scale and translation of the matches under the relative rotation.

    The paper estimates the scale with a scalar Kalman filter whose
    measurement is the joint (scale, alpha) least squares along the
    relative-pose translation direction, with the direction re-aimed from
    each measurement's own result. That measurement never reads the filter
    state, so the filter only smooths a sequence with a known limit, the
    known-rotation Umeyama scale

        s* = sum_i (R p_i - mean R p) . (q_i - mean q) / sum_i |R p_i - mean R p|^2,
        t  = mean q - s* mean R p,

    which is returned here directly. Only ``rel_pose.rotation`` is read.
    Fewer than 3 matches with both depths, coincident source points or a
    nonpositive s* raise.
    """
    usable = [m for m in matches if m.has_depths()]
    if len(usable) < 3:
        raise InsufficientMatchesError(
            f"scale estimation needs at least 3 matches with both depths, got {len(usable)}")

    src, tgt = _match_points(usable, intrinsics_source, intrinsics_target)
    rotated = src @ np.asarray(rel_pose.rotation, dtype=np.float64).T
    mean_rp, mean_q = rotated.mean(axis=0), tgt.mean(axis=0)
    # Centred sums: the raw moments sum |R p|^2 - n |mean R p|^2 cancel when
    # the points lie far from the camera compared with their spread. Points
    # that agree to about 12 significant digits count as coincident.
    centred = rotated - mean_rp
    spread = float((centred * centred).sum())
    if spread <= 1e-24 * float((rotated * rotated).sum()):
        raise DegenerateGeometryError("source match points coincide")
    scale = float((centred * (tgt - mean_q)).sum()) / spread
    if scale <= 0.0:
        raise DegenerateGeometryError("least-squares scale is nonpositive")
    return ScaleEstimate(scale=scale, translation=mean_q - scale * mean_rp)
