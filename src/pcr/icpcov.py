"""Closed-form covariance of a converged point-to-point alignment.

With the final correspondences frozen, the squared-distance objective J is a
smooth function of the 6-DOF pose x = (tx, ty, tz, roll, pitch, yaw) and of
the stacked pair coordinates z_i = (P_i, Q_i). The pose covariance follows
from the sensitivity of the minimizer to measurement noise:

    cov(x) = H^-1 * (d2J/dz dx) * cov(z) * (d2J/dz dx)^T * H^-1,
    H = d2J/dx2.

cov(z) is isotropic sigma_z^2 * I and is never materialized; the product
collapses to sigma_z^2 * H^-1 * (sum_i B_i B_i^T) * H^-1, where B_i is pair
i's 6x6 block of d2J/dz dx. Both H and that sum are taken over every pair
through the 7x7 moment matrix of the pairs (see ``_moments``). The information
matrix is the exact inverse of the covariance and is the edge weight a pose
graph consumes; a covariance too close to singular to invert is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, GimbalLockError
from .geom import (_GENERATORS, RigidTransform, as_pairs, euler_zyx, freeze, rot_x,
                   rot_y, rot_z)

GIMBAL_MARGIN = 1e-6


@dataclass(frozen=True)
class PoseParam:
    """Pose as (tx, ty, tz, roll, pitch, yaw); ZYX Euler angles in radians."""

    values: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if vec.shape != (6,):
            raise ValueError("pose parameter vector must have 6 entries")
        if not np.isfinite(vec).all():
            raise ValueError("pose parameters must be finite")
        if abs(vec[4]) >= np.pi / 2.0 - GIMBAL_MARGIN:
            raise GimbalLockError(f"pitch {vec[4]:.6f} rad is too close to +/-90 deg")
        object.__setattr__(self, "values", freeze(vec))

    @property
    def translation(self) -> np.ndarray:
        return self.values[:3]

    @property
    def angles(self) -> np.ndarray:
        return self.values[3:]

    @classmethod
    def from_rigid(cls, transform: RigidTransform) -> "PoseParam":
        roll, pitch, yaw = euler_zyx(transform.rotation)
        return cls(np.concatenate([transform.translation, [roll, pitch, yaw]]))


@dataclass(frozen=True)
class CovarianceResult:
    d2j_dx2: np.ndarray       # 6x6
    cov_x: np.ndarray         # 6x6
    information: np.ndarray   # 6x6


def rotation_derivatives(roll: float, pitch: float, yaw: float):
    """R, dR/dangle (3,3,3), d2R/dangle2 (3,3,3,3) for the ZYX composition.

    Each factor of R = Rz Ry Rx is exp(angle [e_k]x), so differentiating by
    angle k swaps factor R_k for R_k [e_k]x (twice over for a second
    derivative by the same angle)."""
    factors = [(r, r @ g, r @ g @ g) for r, g in
               zip((rot_x(roll), rot_y(pitch), rot_z(yaw)), _GENERATORS)]

    def term(*angles):
        x, y, z = (factors[k][angles.count(k)] for k in range(3))
        return z @ y @ x

    rot = term()
    drot = np.array([term(j) for j in range(3)])
    ddrot = np.array([[term(j, k) for k in range(3)] for j in range(3)])
    return rot, drot, ddrot


def _pair_terms(p, q, pose: PoseParam):
    """Per-pair factors of J_i = |R p_i + t - q_i|^2 for k pairs at once.

    Returns the residual g (k, 3), its pose Jacobian dg (k, 3, 6), the second
    angle derivatives of R p (k, 3, 3, 3), indexed [pair, angle, angle, axis],
    and the mixed block d2J_i/dx d(P_i, Q_i) (k, 6, 6). Each is affine in
    (p_i, q_i).
    """
    rot, drot, ddrot = rotation_derivatives(*pose.angles)
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


def _moments(p, q, pose: PoseParam):
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


def hessian_xx(pairs_p, pairs_q, pose: PoseParam) -> np.ndarray:
    """Sum over pairs of the exact 6x6 second derivative of J_i.

    The translation block is 2n * I for any pose; rotation blocks use the
    analytic first and second derivatives of the Euler-parameterized
    rotation. The sum is taken through the pairs' 7x7 moment matrix.
    """
    moments, (g, dg, ddg, _) = _moments(*as_pairs(pairs_p, pairs_q), pose)
    out = 2.0 * np.einsum("kl,kca,lcb->ab", moments, dg, dg)
    out[3:, 3:] += 2.0 * np.einsum("kl,kc,ljmc->jm", moments, g, ddg)
    return out


def hessian_zx(pairs_p, pairs_q, pose: PoseParam) -> np.ndarray:
    """Mixed derivative d2J/dz dx as a 6 x 6n matrix.

    Column block i holds d2J_i/d(P_i, Q_i) dx; only pair i's own block is
    nonzero, so blocks are laid out side by side.
    """
    mixed = _pair_terms(*as_pairs(pairs_p, pairs_q), pose)[3]
    return mixed.transpose(1, 0, 2).reshape(6, -1)


def check_sigma_z(sigma_z: float) -> None:
    """Refuse a noise level unless sigma_z > 0 and sigma_z * sigma_z is
    positive and finite: no overflow, no underflow to 0, no nan or inf."""
    if not (sigma_z > 0.0 and 0.0 < sigma_z * sigma_z < np.inf):
        raise ValueError("sigma_z must be positive, with a positive finite square")


def covariance(pairs_p, pairs_q, pose: PoseParam, sigma_z: float) -> CovarianceResult:
    """Closed-form pose covariance at a converged alignment.

    ``pose`` must be the minimizer for the given (frozen) correspondence
    pairs; ``sigma_z`` is the isotropic standard deviation of every point
    coordinate (see ``check_sigma_z``). Every pair is used: the sum over
    pairs of B_i B_i^T, with B_i = d2J_i/d(P_i, Q_i) dx, comes from the 7x7
    moment matrix, so the 6 x 6n matrix d2J/dz dx is never built.
    """
    check_sigma_z(sigma_z)
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
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > 1e-9 * scale:
        raise ValueError("input matrix is not symmetric")
    trace = float(np.trace(mat))
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    if not eigenvalues[0] > max(1e-12 * trace, 4.0 / np.finfo(np.float64).max):
        raise DegenerateGeometryError(
            f"covariance is singular: smallest eigenvalue {eigenvalues[0]:.3e}, "
            f"trace {trace:.3e}")
    inv = eigenvectors @ np.diag(1.0 / eigenvalues) @ eigenvectors.T
    return 0.5 * (inv + inv.T)
