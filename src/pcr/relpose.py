"""Central relative pose between two keyframes from pixel correspondences.

Eight-point essential matrix estimation on calibrated bearing vectors inside
an adaptive LO-RANSAC loop. Candidate models are scored by the angular
residual 1 - cos(angle between the target ray and the epipolar plane),
thresholded at 1 - cos(arctan(psi / l)) so the pixel threshold psi
(``PIXEL_THRESHOLD``) maps onto ray space. Minimal samples come from one
stream seeded by ``SEED``, at most ``MAX_HYPOTHESES`` of them. The local
optimisation's refits, stacked per chunk, and the final polish share one
nonlinear solver: Gauss-Newton on the essential manifold with an analytic
Jacobian (Helmke et al. 2007), run on a (k, 3, 3) stack of models at once. Of all minimal models and refits, the winner has the most
inliers, then the least total residual, then was drawn first (a
hypothesis's refits follow it, rung by rung); an exact tie between
different inlier sets is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudio import CameraIntrinsics, Matches
from .errors import (AmbiguousDecompositionError, DegenerateGeometryError,
                     InsufficientMatchesError, NoConsensusError)
from .geom import ORTHOGONALITY_TOL, RigidTransform, as_pairs, freeze, skew

# The classical reprojection threshold in pixels; the target camera's fx
# converts it to the angular form.
PIXEL_THRESHOLD = 1.0
# Most hypotheses drawn; the adaptive stop usually ends far sooner.
MAX_HYPOTHESES = 1000
# Seed of the minimal-sample stream, so a registration is repeatable.
SEED = 42

# Hypotheses that RANSAC draws, solves and scores together. Scoring holds a
# few (chunk, matches[, 3]) float64 arrays, about 1 MB at 200 matches, and
# the local optimisation of the chunk's records holds (records, matches, 5)
# Jacobians, no more, so memory stays flat for any hypothesis count. The
# stop is checked between chunks, and the last chunk holds only the
# hypotheses still needed.
_CHUNK = 64

# Confidence of the adaptive stop that one drawn minimal sample was
# outlier-free. On 119 edge-small scenes (2000 points, 200 matches, 30%
# outliers) 0.99 draws 88 hypotheses in the median; 0.95 stops at the floor
# with a 2% larger median rotation error, and 0.999 draws 131 for none
# smaller. Criterion 06 holds 50/50 at all three.
_CONFIDENCE = 0.99
# Fewest hypotheses drawn, whatever the inlier share: one chunk. On the same
# scenes and on criterion 06, floors of 8 to 32 drew as many in the median
# (88 and 78) with the same rotation errors, and 128 only added draws.
_MIN_HYPOTHESES = 64

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
# Singular values of an essential matrix.
_FLAT = np.diag([1.0, 1.0, 0.0])


@dataclass(frozen=True)
class RelativePose:
    """The transform (rotation plus unit translation direction) mapping
    source-camera points into the target camera frame, with the supporting
    inlier indices."""

    transform: RigidTransform
    inliers: np.ndarray

    def __post_init__(self):
        if abs(np.linalg.norm(self.transform.translation) - 1.0) > ORTHOGONALITY_TOL:
            raise ValueError("translation direction must be unit length")
        object.__setattr__(self, "inliers",
                           freeze(np.asarray(self.inliers, dtype=np.int64)))


def angular_threshold(psi: float, focal: float) -> float:
    """1 - cos(arctan(psi / focal)): pixel threshold mapped to ray space."""
    if not (0.0 < psi < math.inf and 0.0 < focal < math.inf):
        raise ValueError("psi and focal length must be positive and finite")
    return 1.0 - np.cos(np.arctan(psi / focal))


def _essentials(rays_s: np.ndarray, rays_t: np.ndarray):
    # Eight-point solve for each pair of bundles in (k, m, 3) stacks, m >= 8:
    # the (k, 3, 3) essentials, projected onto the manifold with unit
    # singular values, and a mask of the non-degenerate systems (entries
    # outside the mask are meaningless). Each bundle is whitened first: with
    # M = sum q q^T and T = M^(-1/2), the rays q T have second moment I
    # (Hartley's isotropic condition taken on the homogeneous rays), and
    # E = T_t E' T_s maps the conditioned solution back. A bundle whose M is
    # singular to working precision (its rays span at most a plane through
    # the centre) is degenerate. The cut is an eigenvalue ratio of 1e-12:
    # past it, whitening would scale rounding noise by more than 1e6, to
    # within a factor of five of the rank test's 1e-9 margin.
    stacked = np.concatenate([rays_s, rays_t])
    lam, vec = np.linalg.eigh(stacked.swapaxes(-1, -2) @ stacked)
    full = lam[..., 0] > 1e-12 * lam[..., 2]
    whiten = (vec / np.sqrt(np.where(full[..., None], lam, 1.0))[..., None, :]) \
        @ vec.swapaxes(-1, -2)
    half = rays_s.shape[0]
    hs = rays_s @ whiten[:half]
    ht = rays_t @ whiten[half:]

    # Row i is the row-major flattening of outer(h_t, h_s). One SVD per
    # system; the reduced form drops the null vector of an 8-row system.
    data = (ht[..., :, None] * hs[..., None, :]).reshape(ht.shape[:-1] + (9,))
    _, sv, vt = np.linalg.svd(data, full_matrices=data.shape[-2] <= 8)
    ok = full[:half] & full[half:] & (sv[..., 7] > 1e-9 * np.maximum(sv[..., 0], 1e-300))
    e_white = vt[..., -1, :].reshape(vt.shape[:-2] + (3, 3))
    u, _, vt3 = np.linalg.svd(whiten[half:] @ e_white @ whiten[:half])
    return u @ _FLAT @ vt3, ok


def essential_from_rays(rays_s, rays_t) -> np.ndarray:
    """Eight-point essential matrix from >= 8 bearing-vector pairs.

    Each bundle is whitened (its rays' second moment taken to the identity)
    before the linear solve of q_t^T E q_s = 0, which keeps the system
    conditioned for narrow fields of view and for rays at any angle to the
    bundle's mean. The result is projected onto the essential manifold
    (singular values (1, 1, 0)). The rays are (n, 3) arrays of equal shape
    (``geom.as_pairs``)."""
    qs, qt = as_pairs(rays_s, rays_t)
    if qs.shape[0] < 8:
        raise InsufficientMatchesError("essential matrix needs at least 8 ray pairs")
    ematrix, ok = _essentials(qs[None], qt[None])
    if not ok[0]:
        raise DegenerateGeometryError(
            "ray configuration is degenerate (a bundle's rays lie in one plane "
            "through the centre, or rank < 8)")
    return ematrix[0]


def _residuals(ematrices: np.ndarray, rays_s: np.ndarray, rays_t: np.ndarray) -> np.ndarray:
    # Angular residuals of every ray pair under each of (..., 3, 3)
    # essentials, from the signed sine of each target ray to its epipolar
    # plane, whose normal is E @ ray_s. A source ray through the epipole has
    # no plane (E @ ray_s = 0); any target direction is consistent, so its
    # sine is 0: it counts as fitted, and _jacobian lets it steer no refit.
    normals = rays_s @ ematrices.swapaxes(-1, -2)
    norms = np.sqrt(np.einsum("...ij,...ij->...i", normals, normals))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= 1e-300)
    sines = np.einsum("...ij,...ij->...i", rays_t, normals) * inv
    return 1.0 - np.sqrt(1.0 - np.minimum(sines * sines, 1.0))


def epipolar_residuals(ematrix, rays_s, rays_t) -> np.ndarray:
    """Per-pair angular residual 1 - cos(angle of ray_t to the epipolar plane).

    The plane's normal is E @ ray_s. A source ray through the epipole has no
    plane (E @ ray_s = 0); any target direction is consistent, so it scores 0.
    The rays are (n, 3) arrays of equal shape (``geom.as_pairs``).
    """
    return _residuals(np.asarray(ematrix, dtype=np.float64), *as_pairs(rays_s, rays_t))


def _triangulate_depths(rays_s, rays_t, rot, tdir):
    # lambda_t * q_t = R (lambda_s * q_s) + t per pair, solved in least
    # squares as lambda_s * a + lambda_t * q_t = t with a = -R q_s, for each
    # of (..., 3, 3) rotations with its (..., 3) direction: (..., n) depths.
    # The cross-product form keeps a zero-parallax pair exactly singular (the
    # 2x2 normal equations lose it to cancellation); such pairs get NaN
    # depths, so no depth test counts them.
    tdir = np.asarray(tdir)[..., None, :]
    a = -(rays_s @ np.swapaxes(rot, -1, -2))
    axb = np.cross(a, rays_t)
    sq = (axb * axb).sum(axis=-1)
    parallax = np.sqrt(sq) > 4.0 * np.finfo(np.float64).eps \
        * np.linalg.norm(a, axis=-1) * np.linalg.norm(rays_t, axis=-1)
    sq = np.where(parallax, sq, np.nan)
    depth_s = (np.cross(tdir, rays_t) * axb).sum(axis=-1) / sq
    depth_t = (np.cross(a, tdir) * axb).sum(axis=-1) / sq
    return depth_s, depth_t


def decompose_and_disambiguate(ematrix, rays_s, rays_t) -> RigidTransform:
    """Pick the (R, t) candidate from the four-way decomposition that
    triangulates the most correspondences with positive depth in both views;
    t is the unit translation direction. The rays are (n, 3) arrays of equal
    shape (``geom.as_pairs``)."""
    qs, qt = as_pairs(rays_s, rays_t)
    if qs.shape[0] < 1:
        raise InsufficientMatchesError("need at least one correspondence")

    u, _, vt = np.linalg.svd(np.asarray(ematrix, dtype=np.float64))
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt) < 0.0:
        vt = -vt
    # The candidates (R1, t), (R1, -t), (R2, t), (R2, -t), scored in one call.
    rots = np.repeat(u @ np.stack([_W, _W.T]) @ vt, 2, axis=0)
    tdirs = np.array([1.0, -1.0, 1.0, -1.0])[:, None] * u[:, 2]
    ds, dt = _triangulate_depths(qs, qt, rots, tdirs)
    counts = ((ds > 0.0) & (dt > 0.0)).sum(axis=-1)

    order = np.argsort(counts)[::-1]
    if counts[order[0]] == counts[order[1]]:
        raise AmbiguousDecompositionError(
            "two pose candidates tie on cheirality count "
            f"({counts[order[0]]} of {qs.shape[0]})")
    return RigidTransform(rots[order[0]], tdirs[order[0]])


# Local optimisation schedule: bands in multiples of the threshold, each
# fitted with _REFIT_STEPS Gauss-Newton steps from the previous model. The
# first band is wide because a minimal sample's tight inlier set is small
# and correlated with the sample's own noise. On the 112 edge-small scenes
# of tune seeds 1-10 and heldout seeds 1-6 (seven each), refits by the
# linear eight-point solve over bands (64, 16, 4, 1, 1) stalled near 60-100
# of about 138 inliers, so 12 scenes drew all 1000 hypotheses (11 when the
# tight refit was repeated while its count grew). This schedule drew at most
# 448, 88 in the median.
_REFIT_LADDER = (8.0, 2.0, 1.0)
_REFIT_STEPS = 3

# The polish of the RANSAC winner: Gauss-Newton to convergence, ending after
# the first step shorter than _POLISH_TOL or after _POLISH_STEPS. On the
# edge-small scenes of seeds 500-559, 1000-1039 and 2000-2039 it kept the
# inlier set of a Levenberg-Marquardt polish on all 140, with cost within
# 2.5e-14 (relative), in 1 to 20 steps (4 in the median).
_POLISH_STEPS = 30
_POLISH_TOL = 1e-13


def _jacobian(u, vt, rays_s, rays_t):
    # Signed sine of each target ray to its epipolar plane under each of the
    # (k, 3, 3) essentials E = U diag(1, 1, 0) V^T, and its (k, 5, n)
    # Jacobian in the step (a, b1, b2) that moves U by exp([a]x) and V by
    # exp([b1, b2, 0]x). In the frames p = V^T q_s and r = U^T q_t the
    # plane's unit normal is U m with m = (p1, p2, 0) / |(p1, p2)|, and with
    # the lever l = r - sine m (U^T of the target ray less its part along
    # the unit normal), d sine = l . d(U^T normal) / |normal|:
    # (m2 l3, -m1 l3, m1 l2 - m2 l1) for a and (p3 l2, -p3 l1) / |(p1, p2)|
    # for b. The epipole rule of _residuals holds: a ray with no plane has
    # sine 0 and a zero Jacobian column. The frames are taken as (k, 3, n)
    # coordinate rows, so each product below runs along contiguous rays.
    p1, p2, p3 = (vt @ rays_s.T).swapaxes(0, 1)
    r1, r2, r3 = (u.swapaxes(-1, -2) @ rays_t.T).swapaxes(0, 1)
    norms = np.sqrt(p1 * p1 + p2 * p2)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= 1e-300)
    m1, m2, m3 = p1 * inv, p2 * inv, p3 * inv
    sines = r1 * m1 + r2 * m2
    l1, l2 = r1 - sines * m1, r2 - sines * m2
    return sines, np.stack([m2 * r3, -(m1 * r3), m1 * l2 - m2 * l1, m3 * l2, -(m3 * l1)],
                           axis=-2)


def _manifold_step(u, vt, rays_s, rays_t, weights):
    # One Gauss-Newton step on the essential manifold for each of the
    # (k, 3, 3) essentials U diag(1, 1, 0) V^T, over the signed sines of the
    # rays that its row of the (k, n) 0/1 weights holds: the (k, 5) steps
    # (a, b1, b2) of _jacobian. The 5x5 normal equations are solved through
    # their eigenvectors, dropping eigenvalues below 1e-12 of the largest, so
    # a rank-deficient system (a band with fewer than five rays off the
    # epipole, say) gets the minimum-norm step that lstsq gives.
    sines, jac = _jacobian(u, vt, rays_s, rays_t)
    held = jac * weights[..., None, :]
    lam, vec = np.linalg.eigh(held @ jac.swapaxes(-1, -2))
    along = -(vec.swapaxes(-1, -2) @ (held @ sines[..., None]))[..., 0]
    kept = lam > 1e-12 * lam[..., -1:]
    along = np.where(kept, along / np.where(kept, lam, 1.0), 0.0)
    return (vec @ along[..., None])[..., 0]


def _refit(ematrices, rays_s, rays_t, weights, steps: int, tol: float = 0.0) -> np.ndarray:
    # At most `steps` _manifold_steps on each of the (k, 3, 3) essentials over
    # the rays its row of the (k, n) 0/1 weights holds, each step projected
    # back onto the manifold by an SVD; ends after the first step that moved
    # every member less than tol. A step moves E to
    # U (F + [a]x F - F [b1, b2, 0]x) V^T with F = diag(1, 1, 0), written out
    # below. A linear eight-point refit has eight degrees of freedom, and on
    # near-planar structure its noise can drop most of the inliers it was
    # fitted to.
    u, _, vt = np.linalg.svd(ematrices)
    moved = np.repeat(_FLAT[None], len(ematrices), axis=0)
    for _ in range(steps):
        step = _manifold_step(u, vt, rays_s, rays_t, weights)
        a1, a2, a3, b1, b2 = step.T
        moved[:, 0, 1], moved[:, 0, 2] = -a3, -b2
        moved[:, 1, 0], moved[:, 1, 2] = a3, b1
        moved[:, 2, 0], moved[:, 2, 1] = -a2, a1
        u, _, vt = np.linalg.svd(u @ moved @ vt)
        if (np.linalg.norm(step, axis=-1) < tol).all():
            break
    return u @ _FLAT @ vt


def _draw_samples(rng, n: int, count: int) -> np.ndarray:
    # count minimal samples of 8 distinct indices below n, by Floyd's
    # algorithm on every row at once: one draw of (count, 8) integers, column
    # k uniform below n - 7 + k, and a value already in its row replaced by
    # n - 8 + k. Memory is (count, 8) whatever n is.
    picks = rng.integers(0, np.arange(n - 7, n + 1), size=(count, 8))
    for k in range(1, 8):
        taken = (picks[:, :k] == picks[:, k:k + 1]).any(axis=1)
        picks[taken, k] = n - 8 + k
    return picks


def _hypotheses_needed(inliers: int, n: int, cap: int) -> int:
    # Hypotheses to draw so that, with _CONFIDENCE, one minimal sample was
    # outlier-free at inlier share w = inliers / n:
    # N = ceil(log(1 - p) / log(1 - w^8)), kept within [_MIN_HYPOTHESES, cap].
    # w = 1 needs none; a w^8 too small for the float needs more than cap.
    good = (max(inliers, 0) / n) ** 8
    if good >= 1.0:
        needed = 0
    else:
        miss = math.log1p(-good)
        if cap * miss >= math.log1p(-_CONFIDENCE):
            return cap
        needed = math.ceil(math.log1p(-_CONFIDENCE) / miss)
    return min(cap, max(_MIN_HYPOTHESES, needed))


def _score(residuals, threshold):
    # Inlier count, total inlier residual and inlier mask under each row of
    # the (..., n) residuals: (...,), (...,) and (..., n) arrays.
    mask = residuals <= threshold
    return mask.sum(axis=-1), np.where(mask, residuals, 0.0).sum(axis=-1), mask


def _local_optimisation(models, residuals, rays_s, rays_t, threshold):
    # Refit each of (k, 3, 3) minimal models, given its row of the (k, n)
    # residuals, through _REFIT_LADDER: each rung refits over the band of the
    # previous model's residuals, as 0/1 weights. A member leaves the stack at
    # the first rung whose band holds fewer than 8 rays. Yields, for each
    # rung that keeps a member, the indices of its live members, their
    # (live, 3, 3) refits and their (live, n) residuals.
    live = np.arange(len(models))
    for factor in _REFIT_LADDER:
        band = residuals <= factor * threshold
        stay = band.sum(axis=-1) >= 8
        live, models, band = live[stay], models[stay], band[stay]
        if not live.size:
            break
        models = _refit(models, rays_s, rays_t, band, _REFIT_STEPS)
        residuals = _residuals(models, rays_s, rays_t)
        yield live, models, residuals


def _consensus(rays_s, rays_t, threshold):
    # Adaptive LO-RANSAC. Hypotheses are drawn, solved and scored _CHUNK at
    # a time; those that raise the best minimal inlier count (records) are
    # found by one running maximum and locally optimised in one stack. The
    # chunk's minimal models and refits, behind the best carried from
    # earlier chunks, form one table, and the module's rule picks its
    # winner. After each chunk the stop count is re-derived from the best
    # count. Returns (model, inlier mask, count, hypotheses drawn).
    n = rays_s.shape[0]
    rng = np.random.default_rng(SEED)
    slots = len(_REFIT_LADDER) + 1  # draw-order slots of a hypothesis
    # (count, total, mask, model, draw order) of the best so far, as a
    # one-row table that any scored model beats
    best = (np.array([-1]), np.array([np.inf]), np.zeros((1, n), dtype=bool),
            np.zeros((1, 3, 3)), np.array([-1]))
    tied, top_minimal, drawn = False, -1, 0
    stop = min(_MIN_HYPOTHESES, MAX_HYPOTHESES)
    while drawn < stop:
        samples = _draw_samples(rng, n, min(_CHUNK, stop - drawn))
        models, ok = _essentials(rays_s[samples], rays_t[samples])
        order = (drawn + np.flatnonzero(ok)) * slots
        drawn += samples.shape[0]
        models = models[ok]
        residuals = _residuals(models, rays_s, rays_t)
        count, total, mask = _score(residuals, threshold)
        running = np.maximum.accumulate(np.concatenate([[top_minimal], count]))
        records = np.flatnonzero(count > running[:-1])
        top_minimal = int(running[-1])
        table = [best, (count, total, mask, models, order)]
        for rung, (live, refits, refit_residuals) in enumerate(_local_optimisation(
                models[records], residuals[records], rays_s, rays_t, threshold), 1):
            table.append((*_score(refit_residuals, threshold), refits,
                          order[records[live]] + rung))
        table = [np.concatenate(column) for column in zip(*table)]
        counts, totals, masks, _, order = table
        win = np.lexsort((order, totals, -counts))[0]  # most, least, first
        same = (counts == counts[win]) & (totals == totals[win])
        # a tie carried from earlier chunks stands while its best does
        tied = (tied and win == 0) or bool((masks[same] != masks[win]).any())
        best = tuple(column[win:win + 1] for column in table)
        stop = _hypotheses_needed(int(counts[win]), n, MAX_HYPOTHESES)

    count, _, mask, model, _ = (column[0] for column in best)
    if count < 8:
        raise NoConsensusError(
            f"best consensus has {max(int(count), 0)} inliers, need at least 8")
    if tied:
        raise AmbiguousDecompositionError("two RANSAC models tie exactly on score")
    return model, mask, int(count), drawn


def ransac_relative_pose(matches: Matches, intrinsics_source: CameraIntrinsics,
                         intrinsics_target: CameraIntrinsics) -> RelativePose:
    """Relative pose by adaptive LO-RANSAC over keypoint matches.

    Minimal samples are drawn (deterministic given ``SEED``), solved and
    scored in stacked batches. Each sample that raises the best minimal
    inlier count is locally optimised: refit by Gauss-Newton on the
    essential manifold over a widening-then-tightening band of its inliers
    (a minimal sample's tight inlier set is correlated with its own noise).
    Of all minimal models and refits, the winner has the most inliers, then
    the least total residual, then was drawn first (an exact tie between
    different inlier sets is an error). Drawing stops once, with 99%
    confidence, one sample was outlier-free at the best inlier share, and
    never before a floor of hypotheses; ``MAX_HYPOTHESES`` caps it. The
    winner is polished over its inliers by the same manifold Gauss-Newton,
    run to convergence, and then decomposed once via cheirality. Reported
    inliers are re-scored against the polished pose, so every one satisfies
    the threshold."""
    n = len(matches)
    if n < 8:
        raise InsufficientMatchesError(f"RANSAC needs at least 8 matches, got {n}")

    rays_s = intrinsics_source.bearings(matches.source_pixels)
    rays_t = intrinsics_target.bearings(matches.target_pixels)

    threshold = angular_threshold(PIXEL_THRESHOLD, intrinsics_target.fx)

    win_model, win_mask, _, _ = _consensus(rays_s, rays_t, threshold)
    polished = _refit(win_model[None], rays_s, rays_t, win_mask[None],
                      _POLISH_STEPS, _POLISH_TOL)[0]
    pose = decompose_and_disambiguate(polished, rays_s[win_mask], rays_t[win_mask])
    final_res = epipolar_residuals(skew(pose.translation) @ pose.rotation, rays_s, rays_t)
    final_mask = final_res <= threshold
    if int(final_mask.sum()) < 8:
        raise NoConsensusError("refined model keeps fewer than 8 inliers")
    return RelativePose(pose, np.flatnonzero(final_mask))
