"""Closed-form covariance of a converged point-to-point alignment.

With the final correspondences frozen, the squared-distance objective J is a
smooth function of a perturbation x = (dt, dtheta) of the pose (R, t) that
ICP returned: the perturbed pose maps p to R exp([dtheta]x) p + t + dt, and
every derivative is taken at x = 0. These are local tangent coordinates
(Barfoot & Furgale 2014; Sola, Deray & Atchuthan 2018), ordered
(tx, ty, tz, thx, thy, thz): dt is in the caller's frame and units, dtheta a
body-frame rotation vector in radians. They are regular at every rotation.
The pose covariance follows from the sensitivity of the minimizer to noise
in the stacked pair coordinates z_i = (P_i, Q_i):

    cov(x) = H^-1 * (d2J/dz dx) * cov(z) * (d2J/dz dx)^T * H^-1,
    H = d2J/dx2.

cov(z) is isotropic sigma_z^2 * I and is never materialized; the product
collapses to sigma_z^2 * H^-1 * (sum_i B_i B_i^T) * H^-1, where B_i is pair
i's 6x6 block of d2J/dz dx. Both H and that sum are taken over every pair
through the 7x7 moment matrix of the pairs (see ``_moments``). The pipeline
takes sigma_z from the fit itself (``pair_sigma``); ``covariance`` is the
closed form at any given noise level. The information matrix is the exact
inverse of the covariance and is the edge weight a pose graph consumes; a
covariance too close to singular to invert is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .geom import _GENERATORS, RigidTransform, as_pairs, check_symmetric

# d2/dthj dthk exp([theta]x) at theta = 0: (G_j G_k + G_k G_j) / 2.
_SECOND_DERIVATIVES = 0.5 * (_GENERATORS[:, None] @ _GENERATORS[None, :]
                             + _GENERATORS[None, :] @ _GENERATORS[:, None])


@dataclass(frozen=True)
class CovarianceResult:
    d2j_dx2: np.ndarray       # 6x6
    cov_x: np.ndarray         # 6x6
    information: np.ndarray   # 6x6


def _pair_terms(p, q, pose: RigidTransform):
    """Per-pair factors of J_i = |R exp([dtheta]x) p_i + t + dt - q_i|^2 at
    dt = dtheta = 0, for k pairs at once.

    Returns the residual g (k, 3), its pose Jacobian dg (k, 3, 6), the second
    angle derivatives of R exp([dtheta]x) p (k, 3, 3, 3), indexed [pair,
    angle, angle, axis], and the mixed block d2J_i/dx d(P_i, Q_i) (k, 6, 6).
    Each is affine in (p_i, q_i). The rotation derivatives R G_j and
    R (G_j G_k + G_k G_j) / 2 hold no angle.
    """
    rot = pose.rotation
    drot = rot @ _GENERATORS
    ddrot = rot @ _SECOND_DERIVATIVES
    g = p @ rot.T + pose.translation - q
    dg = np.zeros((len(p), 3, 6))
    dg[:, :, :3] = np.eye(3)
    dg[:, :, 3:] = np.einsum("jcm,km->kcj", drot, p)
    ddg = np.einsum("jlcm,km->kjlc", ddrot, p)
    mixed = np.empty((len(p), 6, 6))
    mixed[:, :, :3] = 2.0 * np.einsum("kca,cm->kam", dg, rot)
    mixed[:, 3:, :3] += 2.0 * np.einsum("kc,jcm->kjm", g, drot)
    mixed[:, :, 3:] = -2.0 * dg.transpose(0, 2, 1)
    return g, dg, ddg, mixed


def _moments(p, q, pose: RigidTransform):
    """Moment matrix of the pairs and the affine coefficients of the factors.

    With z_i = (P_i - P_mean, Q_i - Q_mean, 1), every factor f of
    ``_pair_terms`` is f(pair_i) = sum_k z_ik * c_k, so any sum over pairs of
    f f'^T contracts the 7x7 moment matrix sum_i z_i z_i^T with the
    coefficients. c_k for k < 6 is f at the k-th unit pair minus f at the
    zero pair; c_6 is f at the mean pair. Centering keeps the moments free of
    cancellation when the clouds sit far from the origin.
    """
    if len(p) < 1:
        raise ValueError("the moments need at least one pair")
    # z as one (7, n) array of contiguous coordinate rows.
    z = np.empty((7, len(p)))
    z[:3] = p.T
    z[3:6] = q.T
    mean = z[:6].mean(axis=1)
    z[:6] -= mean[:, None]
    z[6] = 1.0
    basis = np.vstack([np.eye(6), np.zeros(6), mean])
    coefs = tuple(np.concatenate([f[:6] - f[6], f[7:]])
                  for f in _pair_terms(basis[:, :3], basis[:, 3:], pose))
    return z @ z.T, coefs


def hessian_xx(pairs_p, pairs_q, pose: RigidTransform) -> np.ndarray:
    """Sum over pairs of the exact 6x6 second derivative of J_i, in the
    tangent coordinates about ``pose``, the transform ICP returned.

    The translation block is 2n * I for any pose; the rotation blocks use the
    first and second derivatives of R exp([dtheta]x) at dtheta = 0. The sum
    is taken through the pairs' 7x7 moment matrix.
    """
    moments, (g, dg, ddg, _) = _moments(*as_pairs(pairs_p, pairs_q), pose)
    out = 2.0 * np.einsum("kl,kca,lcb->ab", moments, dg, dg)
    out[3:, 3:] += 2.0 * np.einsum("kl,kc,ljmc->jm", moments, g, ddg)
    return out


def hessian_zx(pairs_p, pairs_q, pose: RigidTransform) -> np.ndarray:
    """Mixed derivative d2J/dz dx as a 6 x 6n matrix.

    Column block i holds d2J_i/d(P_i, Q_i) dx; only pair i's own block is
    nonzero, so blocks are laid out side by side.
    """
    mixed = _pair_terms(*as_pairs(pairs_p, pairs_q), pose)[3]
    return mixed.transpose(1, 0, 2).reshape(6, -1)


def pair_sigma(pairs_p, pairs_q, pose: RigidTransform) -> float:
    """Noise level of the pairs, read off the fit: the residual standard
    deviation sqrt(RSS / (3N - 6)), with RSS = sum_i |R p_i + t - q_i|^2 over
    the N frozen pairs and 6 the pose's degrees of freedom (Hartley &
    Zisserman 2004; Censi 2007). An exact fit (RSS 0) leaves the noise level
    unknown and raises DegenerateGeometryError.

    Noise sigma_z on every coordinate of P and Q would put 2 sigma_z^2 on each
    residual coordinate, so the model on paper implies RSS / (2 (3N - 6)).
    Measured on s = 1, 5 degree, 2000-point synthetic scenes (30 seeds, ICP
    from the truth), that halved form gave NEES medians of 5.94, 6.17 and
    8.80 at scene noise 0.0025, 0.005 and 0.01, and 14.0 on 20 000-point
    scenes: more than twice the chi-square(6) median of 5.35. The full form
    used here gave 2.97, 3.08, 4.40 and 7.00, within a factor of 2 at each.
    """
    p, q = as_pairs(pairs_p, pairs_q)
    if p.shape[0] < 3:
        raise DegenerateGeometryError("covariance needs at least 3 pairs")
    # The residuals as (3, n) coordinate rows: the 3 x n product runs several
    # times faster than the n x 3 one.
    residual = pose.rotation @ p.T
    residual += pose.translation[:, None]
    residual -= q.T
    rss = float(np.einsum("ij,ij->", residual, residual))
    if rss == 0.0:
        raise DegenerateGeometryError(
            "the pairs fit exactly (residual sum of squares 0), so they give no noise level")
    return float(np.sqrt(rss / (3 * p.shape[0] - 6)))


def covariance(pairs_p, pairs_q, pose: RigidTransform, sigma_z: float) -> CovarianceResult:
    """Closed-form pose covariance at a converged alignment, in the tangent
    coordinates (tx, ty, tz, thx, thy, thz) about ``pose``.

    ``pose`` must be the minimizer for the given (frozen) correspondence
    pairs, as ``icp_register`` returns it; ``sigma_z`` is the isotropic
    standard deviation of every point coordinate, such as ``pair_sigma``
    gives. A sigma_z that is not positive, or whose square overflows or
    underflows to 0, raises ValueError. Every pair is used: the sum over
    pairs of B_i B_i^T, with B_i = d2J_i/d(P_i, Q_i) dx, comes from the 7x7
    moment matrix, so the 6 x 6n matrix d2J/dz dx is never built.
    """
    if not (sigma_z > 0.0 and 0.0 < sigma_z * sigma_z < np.inf):
        raise ValueError("sigma_z must be positive, with a positive finite square")
    p, q = as_pairs(pairs_p, pairs_q)
    if p.shape[0] < 3:
        raise DegenerateGeometryError("covariance needs at least 3 pairs")

    hxx = hessian_xx(p, q, pose)
    cond = np.linalg.cond(hxx)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateGeometryError(
            f"objective Hessian is numerically singular (cond {cond:.3e})")
    moments, (*_, mixed) = _moments(p, q, pose)
    spread = np.einsum("kl,kam,lbm->ab", moments, mixed, mixed)

    half = np.linalg.solve(hxx, spread)
    cov = (sigma_z * sigma_z) * np.linalg.solve(hxx, half.T)
    cov = 0.5 * (cov + cov.T)
    info = information_matrix(cov)
    return CovarianceResult(d2j_dx2=hxx, cov_x=cov, information=info)


def information_matrix(cov) -> np.ndarray:
    """Exact inverse of a symmetric positive-definite matrix.

    One rule refuses a matrix: a smallest eigenvalue at most 1e-12 times the
    trace, or at most 4 / float max, raises DegenerateGeometryError. The
    first floor marks a direction the data leaves nearly unobservable (a
    negative eigenvalue is below it too); the second keeps the inverse and
    the sum that symmetrises it finite. The output is exactly symmetric.
    """
    mat = np.asarray(cov, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("information_matrix expects a square matrix")
    check_symmetric(mat, "input matrix")
    trace = float(np.trace(mat))
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    if not eigenvalues[0] > max(1e-12 * trace, 4.0 / np.finfo(np.float64).max):
        raise DegenerateGeometryError(
            f"covariance is singular: smallest eigenvalue {eigenvalues[0]:.3e}, "
            f"trace {trace:.3e}")
    inv = eigenvectors @ np.diag(1.0 / eigenvalues) @ eigenvectors.T
    return 0.5 * (inv + inv.T)
