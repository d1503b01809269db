"""Central relative pose between two keyframes from pixel correspondences.

Eight-point essential matrix estimation on calibrated bearing vectors inside
a RANSAC loop. Candidate models are scored by the angular residual
1 - cos(angle between the target ray and the epipolar plane), thresholded at
1 - cos(arctan(psi / l)) so the pixel threshold psi maps onto ray space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .cloudio import CameraIntrinsics
from .errors import (AmbiguousDecompositionError, DegenerateGeometryError,
                     InsufficientMatchesError, NoConsensusError)
from .geom import (ORTHOGONALITY_TOL, RigidTransform, freeze,
                   rotation_about_axis, rotation_from_vector, skew)

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class RelativePose:
    """Rotation plus unit translation direction mapping source-camera points
    into the target camera frame, with the supporting inlier indices."""

    rotation: np.ndarray
    translation: np.ndarray
    inliers: np.ndarray

    def __post_init__(self):
        rigid = RigidTransform(self.rotation, self.translation)
        if abs(np.linalg.norm(rigid.translation) - 1.0) > ORTHOGONALITY_TOL:
            raise ValueError("translation direction must be unit length")
        object.__setattr__(self, "rotation", rigid.rotation)
        object.__setattr__(self, "translation", rigid.translation)
        object.__setattr__(self, "inliers",
                           freeze(np.asarray(self.inliers, dtype=np.int64)))


@dataclass(frozen=True)
class RansacConfig:
    """pixel_threshold is the classical reprojection threshold in pixels; the
    target camera's fx converts it to the angular form."""

    pixel_threshold: float = 1.0
    max_iterations: int = 1000
    seed: int = 42

    def __post_init__(self):
        if self.pixel_threshold <= 0.0:
            raise ValueError("pixel_threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def angular_threshold(psi: float, focal: float) -> float:
    """1 - cos(arctan(psi / focal)): pixel threshold mapped to ray space."""
    if psi <= 0.0 or focal <= 0.0:
        raise ValueError("psi and focal length must be positive")
    return 1.0 - np.cos(np.arctan(psi / focal))


def bearing_rays(pixels_u, pixels_v, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Unit bearing vectors for pixel coordinates under a pinhole camera."""
    u = np.asarray(pixels_u, dtype=np.float64)
    v = np.asarray(pixels_v, dtype=np.float64)
    rays = np.stack([(u - intrinsics.cx) / intrinsics.fx,
                     (v - intrinsics.cy) / intrinsics.fy,
                     np.ones_like(u)], axis=-1)
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


def _bundle_rotation(rays: np.ndarray) -> np.ndarray:
    # Rotation taking the bundle's mean direction onto +z, so narrow cones
    # of rays become well-centered plane coordinates.
    mean = rays.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        return np.eye(3)
    z = mean / norm
    axis = np.cross(z, np.array([0.0, 0.0, 1.0]))
    s = np.linalg.norm(axis)
    c = float(z[2])
    if s < 1e-12:
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    return rotation_about_axis(axis, np.arctan2(s, c))


def _normalized_plane(rays: np.ndarray):
    # Hartley conditioning: plane coordinates centered and scaled to RMS
    # radius sqrt(2); returns homogeneous coordinates and the 3x3 normalizer.
    if np.abs(rays[:, 2]).min() < 1e-9:
        raise DegenerateGeometryError("ray bundle spans a >= 90 degree cone")
    plane = rays[:, :2] / rays[:, 2:3]
    centroid = plane.mean(axis=0)
    spread = np.sqrt(((plane - centroid) ** 2).sum(axis=1).mean())
    if spread < 1e-12:
        raise DegenerateGeometryError("all rays in the bundle coincide")
    factor = np.sqrt(2.0) / spread
    tmat = np.array([[factor, 0.0, -factor * centroid[0]],
                     [0.0, factor, -factor * centroid[1]],
                     [0.0, 0.0, 1.0]])
    homog = np.column_stack([(plane - centroid) * factor, np.ones(len(plane))])
    return homog, tmat


def essential_from_rays(rays_s, rays_t) -> np.ndarray:
    """Normalized eight-point essential matrix from >= 8 bearing-vector pairs.

    Each bundle is rotated onto its mean direction and Hartley-normalized in
    plane coordinates before the linear solve of q_t^T E q_s = 0, which keeps
    the system conditioned for narrow fields of view. The result is projected
    onto the essential manifold (singular values (sigma, sigma, 0))."""
    qs = np.asarray(rays_s, dtype=np.float64).reshape(-1, 3)
    qt = np.asarray(rays_t, dtype=np.float64).reshape(-1, 3)
    if qs.shape != qt.shape or qs.shape[0] < 8:
        raise InsufficientMatchesError("essential matrix needs at least 8 ray pairs")

    rot_s = _bundle_rotation(qs)
    rot_t = _bundle_rotation(qt)
    hs, tmat_s = _normalized_plane(qs @ rot_s.T)
    ht, tmat_t = _normalized_plane(qt @ rot_t.T)

    # Row i is the row-major flattening of outer(h_t, h_s).
    data = (ht[:, :, None] * hs[:, None, :]).reshape(-1, 9)
    sv = np.linalg.svd(data, compute_uv=False)
    if sv[7] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateGeometryError("ray configuration is degenerate (rank < 8)")
    _, _, vt = np.linalg.svd(data)
    e_norm = vt[-1].reshape(3, 3)

    e_raw = rot_t.T @ (tmat_t.T @ e_norm @ tmat_s) @ rot_s
    u, s, vt3 = np.linalg.svd(e_raw)
    sigma = 0.5 * (s[0] + s[1])
    return u @ np.diag([sigma, sigma, 0.0]) @ vt3


def epipolar_residuals(ematrix, rays_s, rays_t) -> np.ndarray:
    """Per-pair angular residual 1 - cos(angle of ray_t to the epipolar plane).

    The plane's normal is E @ ray_s. A source ray through the epipole has no
    plane (E @ ray_s = 0); any target direction is consistent, so it scores 0.
    """
    normals = np.asarray(rays_s, dtype=np.float64) @ np.asarray(ematrix, dtype=np.float64).T
    norms = np.linalg.norm(normals, axis=1)
    through_epipole = norms < 1e-300
    sines = np.einsum("ij,ij->i", np.asarray(rays_t, dtype=np.float64), normals) \
        / np.where(through_epipole, 1.0, norms)
    cosines = np.sqrt(1.0 - np.minimum(sines * sines, 1.0))
    return np.where(through_epipole, 0.0, 1.0 - cosines)


def _triangulate_depths(rays_s, rays_t, rot, tdir):
    # lambda_t * q_t = R (lambda_s * q_s) + t per pair, solved in least
    # squares as lambda_s * a + lambda_t * q_t = t with a = -R q_s. The
    # cross-product form keeps a zero-parallax pair exactly singular (the
    # 2x2 normal equations lose it to cancellation); such pairs get NaN
    # depths, so no depth test counts them.
    a = -(rays_s @ rot.T)
    axb = np.cross(a, rays_t)
    sq = (axb * axb).sum(axis=1)
    parallax = np.sqrt(sq) > 4.0 * np.finfo(np.float64).eps \
        * np.linalg.norm(a, axis=1) * np.linalg.norm(rays_t, axis=1)
    sq = np.where(parallax, sq, np.nan)
    depth_s = (np.cross(tdir, rays_t) * axb).sum(axis=1) / sq
    depth_t = (np.cross(a, tdir) * axb).sum(axis=1) / sq
    return depth_s, depth_t


def decompose_and_disambiguate(ematrix, rays_s, rays_t) -> RelativePose:
    """Pick the (R, t) candidate from the four-way decomposition that
    triangulates the most correspondences with positive depth in both views."""
    qs = np.asarray(rays_s, dtype=np.float64).reshape(-1, 3)
    qt = np.asarray(rays_t, dtype=np.float64).reshape(-1, 3)
    if qs.shape[0] < 1:
        raise InsufficientMatchesError("need at least one correspondence")

    u, _, vt = np.linalg.svd(np.asarray(ematrix, dtype=np.float64))
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt) < 0.0:
        vt = -vt
    tvec = u[:, 2]
    candidates = []
    for rot in (u @ _W @ vt, u @ _W.T @ vt):
        for tdir in (tvec, -tvec):
            candidates.append((rot, tdir))

    counts = []
    for rot, tdir in candidates:
        ds, dt = _triangulate_depths(qs, qt, rot, tdir)
        counts.append(int(((ds > 0.0) & (dt > 0.0)).sum()))

    order = np.argsort(counts)[::-1]
    if counts[order[0]] == counts[order[1]]:
        raise AmbiguousDecompositionError(
            "two pose candidates tie on cheirality count "
            f"({counts[order[0]]} of {qs.shape[0]})")
    rot, tdir = candidates[order[0]]
    return RelativePose(rotation=rot, translation=tdir,
                        inliers=np.arange(qs.shape[0], dtype=np.int64))


def _refine_pose(rot0, tdir0, rays_s, rays_t):
    # Polish (R, t_dir) by minimizing the signed sine of the angle between
    # each target ray and its epipolar plane; 3 rotation + 2 direction DOF.
    ref = np.array([1.0, 0.0, 0.0]) if abs(tdir0[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(tdir0, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(tdir0, e1)

    def residuals(x):
        rot = rotation_from_vector(x[:3]) @ rot0
        tdir = tdir0 + x[3] * e1 + x[4] * e2
        tdir = tdir / np.linalg.norm(tdir)
        normals = rays_s @ (skew(tdir) @ rot).T
        norms = np.maximum(np.linalg.norm(normals, axis=1), 1e-300)
        return (rays_t * normals).sum(axis=1) / norms

    sol = least_squares(residuals, np.zeros(5), method="lm", xtol=1e-14, ftol=1e-14)
    rot = rotation_from_vector(sol.x[:3]) @ rot0
    tdir = tdir0 + sol.x[3] * e1 + sol.x[4] * e2
    return rot, tdir / np.linalg.norm(tdir)


# Widening-then-tightening refit schedule, in multiples of the threshold.
_REFIT_LADDER = (64.0, 16.0, 4.0, 1.0, 1.0)


def ransac_relative_pose(matches, intrinsics_source: CameraIntrinsics,
                         intrinsics_target: CameraIntrinsics,
                         cfg: RansacConfig = RansacConfig()) -> RelativePose:
    """Relative pose by eight-point RANSAC over keypoint matches.

    Runs exactly ``cfg.max_iterations`` minimal samples (deterministic given
    the seed) and keeps the model with the most inliers, ties broken by lower
    total residual (an exact tie is an error). The winner is refit on its
    inliers through a widening-then-tightening threshold ladder (a minimal
    sample's inlier set is correlated with its own noise, so a direct tight
    refit can collapse), the best refit is decomposed via cheirality, and the
    pose is polished by angular least squares over the inliers. Reported
    inliers are re-scored against the polished pose, so every one satisfies
    the threshold."""
    n = len(matches)
    if n < 8:
        raise InsufficientMatchesError(f"RANSAC needs at least 8 matches, got {n}")

    us = np.array([m.us for m in matches])
    vs = np.array([m.vs for m in matches])
    ut = np.array([m.ut for m in matches])
    vt = np.array([m.vt for m in matches])
    rays_s = bearing_rays(us, vs, intrinsics_source)
    rays_t = bearing_rays(ut, vt, intrinsics_target)

    threshold = angular_threshold(cfg.pixel_threshold, intrinsics_target.fx)

    rng = np.random.default_rng(cfg.seed)
    best_count = -1
    best_total = np.inf
    best_model = None
    best_mask = None
    tied = False
    for _ in range(cfg.max_iterations):
        sample = rng.choice(n, size=8, replace=False)
        try:
            model = essential_from_rays(rays_s[sample], rays_t[sample])
        except DegenerateGeometryError:
            continue
        residuals = epipolar_residuals(model, rays_s, rays_t)
        mask = residuals <= threshold
        count = int(mask.sum())
        total = float(residuals[mask].sum())
        if count > best_count or (count == best_count and total < best_total):
            best_count, best_total, best_model, best_mask = count, total, model, mask
            tied = False
        elif count == best_count and total == best_total \
                and best_mask is not None and not np.array_equal(mask, best_mask):
            tied = True

    if best_count < 8:
        raise NoConsensusError(
            f"best consensus has {max(best_count, 0)} inliers, need at least 8")
    if tied:
        raise AmbiguousDecompositionError("two RANSAC models tie exactly on score")

    win_model, win_mask, win_count = best_model, best_mask, best_count
    # Enter the ladder on a widened band around the best minimal model: its
    # tight inlier set is small and correlated with the sample's own noise,
    # and refitting on it directly can collapse.
    residuals = epipolar_residuals(best_model, rays_s, rays_t)
    mask = residuals <= _REFIT_LADDER[0] * threshold
    for factor in _REFIT_LADDER[1:] + (1.0,):
        if int(mask.sum()) < 8:
            break
        try:
            model = essential_from_rays(rays_s[mask], rays_t[mask])
        except DegenerateGeometryError:
            break
        residuals = epipolar_residuals(model, rays_s, rays_t)
        tight = residuals <= threshold
        if int(tight.sum()) > win_count:
            win_model, win_mask, win_count = model, tight, int(tight.sum())
        mask = residuals <= factor * threshold

    pose = decompose_and_disambiguate(win_model, rays_s[win_mask], rays_t[win_mask])
    rot, tdir = _refine_pose(pose.rotation, pose.translation,
                             rays_s[win_mask], rays_t[win_mask])
    final_res = epipolar_residuals(skew(tdir) @ rot, rays_s, rays_t)
    final_mask = final_res <= threshold
    if int(final_mask.sum()) < 8:
        raise NoConsensusError("refined model keeps fewer than 8 inliers")
    return RelativePose(rotation=rot, translation=tdir,
                        inliers=np.flatnonzero(final_mask).astype(np.int64))
