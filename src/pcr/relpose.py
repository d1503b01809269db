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
                   rotation_about_axis, rotation_from_vector, skew, vector_norm)

# Hypotheses that RANSAC draws, solves and scores together. Scoring holds a
# few (chunk, matches[, 3]) float64 arrays, about 1 MB at 200 matches, so
# memory stays flat for any iteration count; 256 is 10% faster on 200
# matches but peaks 3 MB higher.
_CHUNK = 64

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
    # For each bundle of a (k, m, 3) stack, the rotation taking its mean
    # direction onto +z, so narrow cones of rays become well-centered plane
    # coordinates. A bundle whose mean vanishes keeps the identity.
    mean = rays.mean(axis=-2)
    norm = vector_norm(mean)
    rot = np.broadcast_to(np.eye(3), mean.shape[:-1] + (3, 3)).copy()
    live = norm >= 1e-12
    z = mean[live] / norm[live, None]
    axis = np.cross(z, np.array([0.0, 0.0, 1.0]))
    s = vector_norm(axis)
    c = z[:, 2]
    turn = s >= 1e-12
    rot_live = np.where((c > 0.0)[:, None, None], np.eye(3), np.diag([1.0, -1.0, -1.0]))
    rot_live[turn] = rotation_about_axis(axis[turn], np.arctan2(s[turn], c[turn]))
    rot[live] = rot_live
    return rot


def _normalized_plane(rays: np.ndarray):
    # Hartley conditioning of each bundle of a (k, m, 3) stack: plane
    # coordinates centered and scaled to RMS radius sqrt(2). Returns the
    # homogeneous coordinates, the 3x3 normalizers, and a mask of the bundles
    # that allow it: a cone under 90 degrees whose rays do not all coincide.
    z = rays[..., 2]
    ok = np.abs(z).min(axis=-1) >= 1e-9
    plane = rays[..., :2] / np.where(ok[..., None], z, 1.0)[..., None]
    centroid = plane.mean(axis=-2)
    centered = plane - centroid[..., None, :]
    spread = np.sqrt((centered ** 2).sum(axis=-1).mean(axis=-1))
    ok &= spread >= 1e-12
    factor = np.sqrt(2.0) / np.where(ok, spread, 1.0)
    tmat = np.zeros(ok.shape + (3, 3))
    tmat[..., 0, 0] = tmat[..., 1, 1] = factor
    tmat[..., :2, 2] = -factor[..., None] * centroid
    tmat[..., 2, 2] = 1.0
    homog = np.concatenate([centered * factor[..., None, None],
                            np.ones(plane.shape[:-1] + (1,))], axis=-1)
    return homog, tmat, ok


def _essentials(rays_s: np.ndarray, rays_t: np.ndarray):
    # Normalized eight-point solve for each pair of bundles in (k, m, 3)
    # stacks, m >= 8: the (k, 3, 3) essentials and a mask of the
    # non-degenerate systems (entries outside the mask are meaningless).
    rot_s = _bundle_rotation(rays_s)
    rot_t = _bundle_rotation(rays_t)
    hs, tmat_s, ok_s = _normalized_plane(rays_s @ rot_s.swapaxes(-1, -2))
    ht, tmat_t, ok_t = _normalized_plane(rays_t @ rot_t.swapaxes(-1, -2))

    # Row i is the row-major flattening of outer(h_t, h_s). One SVD per
    # system; the reduced form drops the null vector of an 8-row system.
    data = (ht[..., :, None] * hs[..., None, :]).reshape(ht.shape[:-1] + (9,))
    _, sv, vt = np.linalg.svd(data, full_matrices=data.shape[-2] <= 8)
    ok = ok_s & ok_t & (sv[..., 7] > 1e-9 * np.maximum(sv[..., 0], 1e-300))
    e_norm = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))

    e_raw = rot_t.swapaxes(-1, -2) @ (tmat_t.swapaxes(-1, -2) @ e_norm @ tmat_s) @ rot_s
    u, s, vt3 = np.linalg.svd(e_raw)
    diag = np.zeros(e_raw.shape)
    diag[..., 0, 0] = diag[..., 1, 1] = 0.5 * (s[..., 0] + s[..., 1])
    return u @ diag @ vt3, ok


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
    ematrix, ok = _essentials(qs[None], qt[None])
    if not ok[0]:
        raise DegenerateGeometryError(
            "ray configuration is degenerate (a cone of 90 degrees or more, "
            "coincident rays, or rank < 8)")
    return ematrix[0]


def _residuals(ematrices: np.ndarray, rays_s: np.ndarray, rays_t: np.ndarray) -> np.ndarray:
    # Angular residuals of every ray pair under each of (..., 3, 3) essentials.
    normals = rays_s @ ematrices.swapaxes(-1, -2)
    norms = np.sqrt((normals * normals).sum(axis=-1))
    through_epipole = norms < 1e-300
    sines = np.einsum("...ij,...ij->...i", rays_t, normals) \
        / np.where(through_epipole, 1.0, norms)
    cosines = np.sqrt(1.0 - np.minimum(sines * sines, 1.0))
    return np.where(through_epipole, 0.0, 1.0 - cosines)


def epipolar_residuals(ematrix, rays_s, rays_t) -> np.ndarray:
    """Per-pair angular residual 1 - cos(angle of ray_t to the epipolar plane).

    The plane's normal is E @ ray_s. A source ray through the epipole has no
    plane (E @ ray_s = 0); any target direction is consistent, so it scores 0.
    """
    return _residuals(np.asarray(ematrix, dtype=np.float64),
                      np.asarray(rays_s, dtype=np.float64),
                      np.asarray(rays_t, dtype=np.float64))


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


def _consensus(rays_s, rays_t, threshold, cfg: RansacConfig):
    # Best minimal-sample model over cfg.max_iterations hypotheses, drawn,
    # solved and scored _CHUNK at a time: (model, inlier mask, count).
    n = rays_s.shape[0]
    rng = np.random.default_rng(cfg.seed)
    best_count = -1
    best_total = np.inf
    best_model = None
    best_mask = None
    tied = False
    for start in range(0, cfg.max_iterations, _CHUNK):
        # One choice() per hypothesis, in order, so the stream of minimal
        # samples is the sequential one cut into chunks.
        samples = np.array([rng.choice(n, size=8, replace=False)
                            for _ in range(min(_CHUNK, cfg.max_iterations - start))])
        models, ok = _essentials(rays_s[samples], rays_t[samples])
        models = models[ok]
        residuals = _residuals(models, rays_s, rays_t)
        masks = residuals <= threshold
        counts = masks.sum(axis=1)
        if not counts.size or counts.max() < best_count:
            continue
        top = int(counts.max())
        if top > best_count:
            best_count, best_total, tied = top, np.inf, False
        # Only hypotheses at the top count can win or tie. Walking them in
        # draw order with the compressed-sum total applies the sequential
        # rule: first maximum count, then least total, an exact tie between
        # different inlier sets is an error.
        for j in np.flatnonzero(counts == best_count):
            total = float(residuals[j][masks[j]].sum())
            if total < best_total:
                best_total, best_model, best_mask, tied = total, models[j], masks[j], False
            elif total == best_total and not np.array_equal(masks[j], best_mask):
                tied = True

    if best_count < 8:
        raise NoConsensusError(
            f"best consensus has {max(best_count, 0)} inliers, need at least 8")
    if tied:
        raise AmbiguousDecompositionError("two RANSAC models tie exactly on score")
    return best_model, best_mask, best_count


def ransac_relative_pose(matches, intrinsics_source: CameraIntrinsics,
                         intrinsics_target: CameraIntrinsics,
                         cfg: RansacConfig = RansacConfig()) -> RelativePose:
    """Relative pose by eight-point RANSAC over keypoint matches.

    Runs exactly ``cfg.max_iterations`` minimal samples (deterministic given
    the seed), solved and scored in stacked batches, and keeps the first
    model with the most inliers, ties broken by lower total residual (an
    exact tie between different inlier sets is an error). The winner is
    refit on its inliers through a widening-then-tightening threshold ladder
    (a minimal sample's inlier set is correlated with its own noise, so a
    direct tight refit can collapse), the best refit is decomposed via
    cheirality, and the pose is polished by angular least squares over the
    inliers. Reported inliers are re-scored against the polished pose, so
    every one satisfies the threshold."""
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

    best_model, best_mask, best_count = _consensus(rays_s, rays_t, threshold, cfg)
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
