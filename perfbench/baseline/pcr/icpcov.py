"""Closed-form covariance of a converged point-to-point alignment.

With the final correspondences frozen, the squared-distance objective J is a
smooth function of the 6-DOF pose x = (tx, ty, tz, roll, pitch, yaw) and of
the stacked pair coordinates z_i = (P_i, Q_i). The pose covariance follows
from the sensitivity of the minimizer to measurement noise:

    cov(x) = H^-1 * (d2J/dz dx) * cov(z) * (d2J/dz dx)^T * H^-1,
    H = d2J/dx2.

cov(z) is isotropic sigma_z^2 * I and is never materialized; the product
collapses to sigma_z^2 * A @ A.T with A = H^-1 * (d2J/dz dx). The information
matrix is the clamped inverse of the covariance and is the edge weight a
pose graph consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, GimbalLockError
from .geom import RigidTransform, euler_zyx, rot_x, rot_y, rot_z, rotation_zyx

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
        vec = np.array(vec)
        vec.flags.writeable = False
        object.__setattr__(self, "values", vec)

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

    def to_rigid(self) -> RigidTransform:
        roll, pitch, yaw = self.values[3], self.values[4], self.values[5]
        return RigidTransform(rotation_zyx(roll, pitch, yaw), self.values[:3])


@dataclass(frozen=True)
class CovarianceResult:
    d2j_dx2: np.ndarray       # 6x6
    d2j_dzdx: np.ndarray      # 6x(6n)
    noise_variance: float     # sigma_z^2
    cov_x: np.ndarray         # 6x6
    information: np.ndarray   # 6x6

    def __post_init__(self):
        cov = np.asarray(self.cov_x, dtype=np.float64)
        eigenvalues = np.linalg.eigvalsh(cov)
        if eigenvalues.min() < -1e-12 * max(np.trace(cov), 1e-300):
            raise ValueError("covariance is not positive semi-definite")


def _axis_derivatives(angle: float, builder):
    # Rotation about one axis with its first and second angle derivatives.
    base = builder(angle)
    first = builder(angle + np.pi / 2.0)
    # d/da of the sin/cos block equals a quarter-turn shift, but the constant
    # row/column must be zeroed out.
    mask = np.ones((3, 3))
    axis = {rot_x: 0, rot_y: 1, rot_z: 2}[builder]
    mask[axis, :] = 0.0
    mask[:, axis] = 0.0
    first = first * mask
    second = builder(angle + np.pi) * mask
    return base, first, second


def rotation_derivatives(roll: float, pitch: float, yaw: float):
    """R, dR/dangle (3,3,3), d2R/dangle2 (3,3,3,3) for the ZYX composition."""
    rx, drx, ddrx = _axis_derivatives(roll, rot_x)
    ry, dry, ddry = _axis_derivatives(pitch, rot_y)
    rz, drz, ddrz = _axis_derivatives(yaw, rot_z)

    rot = rz @ ry @ rx
    drot = np.empty((3, 3, 3))
    drot[0] = rz @ ry @ drx
    drot[1] = rz @ dry @ rx
    drot[2] = drz @ ry @ rx

    ddrot = np.empty((3, 3, 3, 3))
    ddrot[0, 0] = rz @ ry @ ddrx
    ddrot[1, 1] = rz @ ddry @ rx
    ddrot[2, 2] = ddrz @ ry @ rx
    ddrot[0, 1] = ddrot[1, 0] = rz @ dry @ drx
    ddrot[0, 2] = ddrot[2, 0] = drz @ ry @ drx
    ddrot[1, 2] = ddrot[2, 1] = drz @ dry @ rx
    return rot, drot, ddrot


def _check_pose(pose: PoseParam) -> PoseParam:
    if not isinstance(pose, PoseParam):
        pose = PoseParam(np.asarray(pose, dtype=np.float64))
    return pose


def _pair_arrays(pairs_p, pairs_q):
    p = np.ascontiguousarray(pairs_p, dtype=np.float64)
    q = np.ascontiguousarray(pairs_q, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape != q.shape or p.shape[0] < 1:
        raise ValueError("pairs must be matching (n, 3) arrays")
    return p, q


def hessian_xx(pairs_p, pairs_q, pose) -> np.ndarray:
    """Sum over pairs of the exact 6x6 second derivative of J_i.

    The translation block is 2n * I for any pose; rotation blocks use the
    analytic first and second derivatives of the Euler-parameterized
    rotation.
    """
    pose = _check_pose(pose)
    p, q = _pair_arrays(pairs_p, pairs_q)
    roll, pitch, yaw = pose.angles
    rot, drot, ddrot = rotation_derivatives(roll, pitch, yaw)
    return kernels.hessian_xx_accum(p, q, rot, np.ascontiguousarray(pose.translation),
                                    drot, ddrot)


def hessian_zx(pairs_p, pairs_q, pose) -> np.ndarray:
    """Mixed derivative d2J/dz dx as a 6 x 6n matrix.

    Column block i holds d2J_i/d(P_i, Q_i) dx; only pair i's own block is
    nonzero, so blocks are laid out side by side.
    """
    pose = _check_pose(pose)
    p, q = _pair_arrays(pairs_p, pairs_q)
    roll, pitch, yaw = pose.angles
    rot, drot, _ = rotation_derivatives(roll, pitch, yaw)
    return kernels.hessian_zx_accum(p, q, rot, np.ascontiguousarray(pose.translation),
                                    drot)


def covariance(pairs_p, pairs_q, pose, sigma_z: float = 0.01,
               max_pairs: int = 2000, seed: int = 42) -> CovarianceResult:
    """Closed-form pose covariance at a converged alignment.

    ``pose`` must be the minimizer for the given (frozen) correspondence
    pairs; ``sigma_z`` is the isotropic standard deviation of every point
    coordinate. Above ``max_pairs`` correspondences a seeded uniform
    subsample bounds the computation.
    """
    if sigma_z <= 0.0:
        raise ValueError("sigma_z must be positive")
    pose = _check_pose(pose)
    p, q = _pair_arrays(pairs_p, pairs_q)
    if p.shape[0] < 3:
        raise DegenerateGeometryError("covariance needs at least 3 pairs")
    if p.shape[0] > max_pairs:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(p.shape[0], size=max_pairs, replace=False))
        p = p[keep]
        q = q[keep]

    hxx = hessian_xx(p, q, pose)
    cond = np.linalg.cond(hxx)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateGeometryError(
            f"objective Hessian is numerically singular (cond {cond:.3e})")
    hzx = hessian_zx(p, q, pose)

    amat = np.linalg.solve(hxx, hzx)
    cov = (sigma_z**2) * (amat @ amat.T)
    cov = 0.5 * (cov + cov.T)
    info = information_matrix(cov)
    return CovarianceResult(d2j_dx2=hxx, d2j_dzdx=hzx,
                            noise_variance=float(sigma_z**2),
                            cov_x=cov, information=info)


def information_matrix(cov) -> np.ndarray:
    """Inverse of a symmetric PSD matrix, safe near singularity.

    Eigenvalues below 1e-12 times the trace are clamped to that floor before
    inverting, so a nearly unobservable direction yields a large but finite
    information weight. The output is exactly symmetric.
    """
    mat = np.asarray(cov, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("information_matrix expects a square matrix")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > 1e-9 * scale:
        raise ValueError("input matrix is not symmetric")
    trace = float(np.trace(mat))
    if trace <= 0.0:
        raise DegenerateGeometryError("matrix trace must be positive")
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    floor = 1e-12 * trace
    clamped = np.maximum(eigenvalues, floor)
    inv = eigenvectors @ np.diag(1.0 / clamped) @ eigenvectors.T
    return 0.5 * (inv + inv.T)
