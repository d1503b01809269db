"""Scale difference detection and estimation between two capture sessions.

Detection compares bounding-diagonal lengths of the two clouds. Estimation
backprojects matched keypoints to 3D using per-pixel depths, then runs a
scalar Kalman filter whose measurement is the closed-form joint solve for
(scale, translation magnitude) along the relative-pose translation direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudio import CameraIntrinsics, Cloud
from .errors import DegenerateGeometryError, InsufficientMatchesError
from .geom import bounds, freeze

# Kalman filter noise model: prior variance of the scale state, process
# noise added per step, and variance of one least-squares measurement.
INITIAL_VARIANCE = 1.0
PROCESS_NOISE = 1e-6
MEASUREMENT_NOISE = 1e-2

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
    """Filtered scale with its posterior variance.

    translation is the co-estimated displacement vector (magnitude along the
    re-linearized relative-pose translation direction) from the final
    measurement solve; together with the relative rotation it coarsely aligns
    the backprojected keyframe points.
    """

    scale: float
    variance: float
    iterations: int
    converged: bool
    translation: np.ndarray | None = None

    def __post_init__(self):
        trans = np.zeros(3) if self.translation is None \
            else np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "translation", freeze(trans))


@dataclass(frozen=True)
class KalmanConfig:
    """The defaults run the filter to its fixed point: with the steady-state
    gain near 0.01, a 1e-6 delta stop leaves a state gap around 1e-4, and
    100 iterations cannot wash out a bounding-box warm start, which the
    noiseless end-to-end contract cannot afford (each extra iteration is one
    2x2 solve, so the cost is microseconds)."""

    initial_scale: float = 1.0
    tolerance: float = 1e-9
    max_iterations: int = 1000

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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


def _moments(src: np.ndarray, tgt: np.ndarray, rot: np.ndarray):
    # The sums the (scale, alpha) normal equations need for any direction:
    # sum |R p|^2, sum R p . q, sum R p, sum q and the pair count.
    rotated = src @ rot.T
    return (float((rotated * rotated).sum()), float((rotated * tgt).sum()),
            rotated.sum(axis=0), tgt.sum(axis=0), src.shape[0])


def _solve_scale(moments, tdir: np.ndarray) -> tuple[float, float]:
    # 2x2 normal equations in (s, alpha) along the unit direction tdir,
    # solved in closed form. The matrix is a Gram matrix, so its condition
    # number is lambda_max^2 / det.
    if abs(np.linalg.norm(tdir) - 1.0) > 1e-9:
        raise ValueError("t_dir must be a unit vector")
    sq, cross, sum_rp, sum_q, n = moments
    a12 = float(sum_rp @ tdir)
    b2 = float(sum_q @ tdir)
    det = sq * n - a12 * a12
    lam_max = 0.5 * (sq + n) + math.hypot(0.5 * (sq - n), a12)
    if not (math.isfinite(lam_max) and det * 1e12 >= lam_max * lam_max):
        raise DegenerateGeometryError("scale normal equations are singular")
    scale = (n * cross - a12 * b2) / det
    if scale <= 0.0:
        raise DegenerateGeometryError("least-squares scale is nonpositive")
    return scale, (sq * b2 - a12 * cross) / det


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
    return _solve_scale(_moments(src, tgt, rot), tdir)


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


def _median_pairwise_ratio(src: np.ndarray, tgt: np.ndarray) -> float | None:
    # Ratio of pairwise distances is invariant to the rigid part, so its
    # median is a robust standalone scale reading.
    n = src.shape[0]
    if n > 250:
        step = (n + 249) // 250
        src = src[::step]
        tgt = tgt[::step]
        n = src.shape[0]
    if n < 2:
        return None
    iu = np.triu_indices(n, k=1)
    ds = np.linalg.norm(src[iu[0]] - src[iu[1]], axis=1)
    dt = np.linalg.norm(tgt[iu[0]] - tgt[iu[1]], axis=1)
    keep = ds > 1e-12
    if not keep.any():
        return None
    return float(np.median(dt[keep] / ds[keep]))


def estimate_scale_kalman(matches, intrinsics_source: CameraIntrinsics,
                          intrinsics_target: CameraIntrinsics, rel_pose,
                          cfg: KalmanConfig = KalmanConfig()) -> ScaleEstimate:
    """Scalar Kalman filter over the session scale.

    Every iteration solves the joint (scale, alpha) least squares over all
    backprojected match pairs at the current linearization and feeds the
    scale as the measurement into a constant-state predict/update step. The
    translation direction is re-linearized each iteration from the mean
    residual at the current state, so the fixed point is the joint optimum
    over (scale, full translation). Convergence is declared when the state
    moves less than ``cfg.tolerance`` between iterations; running out of
    iterations is reported through ``converged=False``, not an error.
    """
    usable = [m for m in matches if m.has_depths()]
    if len(usable) < 3:
        raise InsufficientMatchesError(
            f"scale estimation needs at least 3 matches with both depths, got {len(usable)}")

    src, tgt = _match_points(usable, intrinsics_source, intrinsics_target)
    rot = np.asarray(rel_pose.rotation, dtype=np.float64)
    tdir = np.asarray(rel_pose.translation, dtype=np.float64)
    # The pairs enter each iteration only through these sums, so an
    # iteration costs the same whatever the match count.
    moments = _moments(src, tgt, rot)
    _, _, sum_rp, sum_q, n = moments
    mean_rp, mean_q = sum_rp / n, sum_q / n

    state = float(cfg.initial_scale)
    median_ratio = _median_pairwise_ratio(src, tgt)
    if median_ratio is not None and median_ratio > 0.0 \
            and abs(median_ratio - state) > 0.5 * abs(state):
        state = median_ratio

    variance = INITIAL_VARIANCE
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        measurement, _ = _solve_scale(moments, tdir)
        # Re-linearize the translation direction at the measurement's own
        # optimum, so later measurements are free of direction-coupling bias.
        residual = mean_q - measurement * mean_rp
        res_norm = np.linalg.norm(residual)
        if res_norm > 1e-12:
            tdir = residual / res_norm
        predicted_var = variance + PROCESS_NOISE
        gain = predicted_var / (predicted_var + MEASUREMENT_NOISE)
        new_state = state + gain * (measurement - state)
        variance = (1.0 - gain) * predicted_var
        delta = abs(new_state - state)
        state = new_state
        if delta < cfg.tolerance:
            converged = True
            break
    if state <= 0.0:
        raise DegenerateGeometryError("filtered scale is nonpositive")
    translation = mean_q - state * mean_rp
    return ScaleEstimate(scale=state, variance=variance, iterations=iterations,
                         converged=converged, translation=translation)
