"""Rigid and similarity transform algebra shared by every other module.

All value types are immutable after construction (backing arrays are made
read-only), so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

ORTHOGONALITY_TOL = 1e-9
# umeyama_align rejects a source whose second singular value is at most
# this share of the first: a line, give or take rounding, or one point.
COLLINEAR_RATIO = 1e-6
# Largest coordinate magnitude a point array may hold. The squared distance
# of two such points, at most 3 * (2e150)^2 = 1.2e301, stays finite, so every
# nearest-neighbour and alignment sum does too; at 1e154 they overflow.
COORDINATE_LIMIT = 1e150


def freeze(arr) -> np.ndarray:
    """Read-only copy of ``arr``, for the backing arrays of value types."""
    out = np.array(arr)
    out.flags.writeable = False
    return out


def as_points(points) -> np.ndarray:
    """(n, 3) float64 view of a point array, the one rule for every stage's
    points: another shape, or a coordinate not finite or past
    ``COORDINATE_LIMIT`` in magnitude, raises ValueError. (0, 3) passes."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    # max and min return NaN when any entry is NaN, and NaN fails both tests.
    if pts.size and not (pts.max() <= COORDINATE_LIMIT and pts.min() >= -COORDINATE_LIMIT):
        raise ValueError("coordinates must be finite and at most "
                         f"{COORDINATE_LIMIT:g} in magnitude")
    return pts


def project_rotation(mat: np.ndarray) -> np.ndarray:
    """Nearest proper rotation to ``mat`` (SVD projection, det forced to +1)."""
    u, _, vt = np.linalg.svd(mat)
    d = np.sign(np.linalg.det(u) * np.linalg.det(vt)) or 1.0
    return u @ np.diag([1.0, 1.0, d]) @ vt


def orthogonality_residual(rot: np.ndarray) -> float:
    return float(np.abs(rot.T @ rot - np.eye(3)).max())


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) element: y = R @ x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if rot.shape != (3, 3) or trans.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
            raise ValueError("transform entries must be finite")
        if orthogonality_residual(rot) > ORTHOGONALITY_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > ORTHOGONALITY_TOL:
            raise ValueError("rotation determinant must be +1 within 1e-9")
        object.__setattr__(self, "rotation", freeze(rot))
        object.__setattr__(self, "translation", freeze(trans))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying ``other`` first, then ``self``."""
        rot = self.rotation @ other.rotation
        if orthogonality_residual(rot) > ORTHOGONALITY_TOL:
            rot = project_rotation(rot)
        return RigidTransform(rot, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


@dataclass(frozen=True)
class SimilarityTransform:
    """Sim(3) element: y = s * R @ x + t."""

    scale: float
    rigid: RigidTransform

    def __post_init__(self):
        scale = float(self.scale)
        if not np.isfinite(scale) or scale <= 0.0:
            raise ValueError("scale must be a positive finite real")
        object.__setattr__(self, "scale", scale)

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, RigidTransform.identity())

    @property
    def rotation(self) -> np.ndarray:
        return self.rigid.rotation

    @property
    def translation(self) -> np.ndarray:
        return self.rigid.translation

    def apply(self, points) -> np.ndarray:
        return self.scale * (np.asarray(points, dtype=np.float64) @ self.rotation.T) \
            + self.translation

    def compose(self, other: "SimilarityTransform") -> "SimilarityTransform":
        """Transform equal to applying ``other`` first, then ``self``.

        Exactly s_a * R_a @ (s_b * R_b @ p + t_b) + t_a.
        """
        rot = self.rotation @ other.rotation
        if orthogonality_residual(rot) > ORTHOGONALITY_TOL:
            rot = project_rotation(rot)
        trans = self.scale * (self.rotation @ other.translation) + self.translation
        return SimilarityTransform(self.scale * other.scale, RigidTransform(rot, trans))

    def inverse(self) -> "SimilarityTransform":
        inv_scale = 1.0 / self.scale
        rot = self.rotation.T
        return SimilarityTransform(inv_scale, RigidTransform(rot, -inv_scale * (rot @ self.translation)))


@dataclass(frozen=True)
class Bounds3:
    """Axis-aligned bounds, min corner <= max corner componentwise."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.maximum, dtype=np.float64).reshape(-1)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("bounds corners must be 3-vectors")
        if np.any(lo > hi):
            raise ValueError("minimum corner exceeds maximum corner")
        object.__setattr__(self, "minimum", freeze(lo))
        object.__setattr__(self, "maximum", freeze(hi))

    def diagonal_length(self) -> float:
        return float(np.linalg.norm(self.maximum - self.minimum))


def bounds(points) -> Bounds3:
    """Tight axis-aligned bounds of a nonempty point set."""
    pts = as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("bounds of an empty point set are undefined")
    # Along contiguous coordinate rows; min and max are exact in any order.
    rows = np.ascontiguousarray(pts.T)
    return Bounds3(rows.min(axis=1), rows.max(axis=1))


def umeyama_align(source, target) -> RigidTransform:
    """Least-squares rigid alignment of paired point sets.

    Returns the transform minimizing sum_i |R @ p_i + t - q_i|^2 via the SVD
    closed form with determinant-sign correction (Umeyama 1991, scale fixed
    to 1).
    """
    src = as_points(source)
    tgt = as_points(target)
    if src.shape != tgt.shape:
        raise ValueError("source and target must have matching shapes")
    n = src.shape[0]
    if n < 3:
        raise DegenerateGeometryError("alignment needs at least 3 point pairs")
    # Centred (3, n) coordinate rows: the means, the centring and the 3x3
    # products run along contiguous memory whatever the inputs' layout (a
    # transposed view of contiguous rows is taken without a copy).
    cs = np.ascontiguousarray(src.T)
    ct = np.ascontiguousarray(tgt.T)
    mu_s = cs.mean(axis=1)
    mu_t = ct.mean(axis=1)
    cs = cs - mu_s[:, None]
    ct = ct - mu_t[:, None]

    # The 3x3 scatter's eigenvalues are the squared singular values of cs.
    # eigvalsh finds them to about 1e-16 of the largest, so the squared
    # ratio, 1e-12, is well clear of its rounding.
    ev = np.linalg.eigvalsh(cs @ cs.T)
    if ev[1] <= COLLINEAR_RATIO**2 * max(ev[2], 1e-300):
        raise DegenerateGeometryError("source points are collinear or coincident")

    rot = project_rotation(ct @ cs.T / n)
    return RigidTransform(rot, mu_t - rot @ mu_s)


# ---------------------------------------------------------------------------
# Rotation helpers (ZYX Euler convention: R = Rz(yaw) @ Ry(pitch) @ Rx(roll))
# ---------------------------------------------------------------------------


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def euler_zyx(rot: np.ndarray) -> tuple[float, float, float]:
    """(roll, pitch, yaw) with pitch in [-pi/2, pi/2] for a ZYX rotation."""
    pitch = np.arctan2(-rot[2, 0], float(np.hypot(rot[0, 0], rot[1, 0])))
    if np.isclose(abs(pitch), np.pi / 2.0, atol=1e-12):
        # Roll and yaw are coupled here; report yaw = 0 and fold into roll.
        yaw = 0.0
        roll = np.arctan2(-rot[1, 2], rot[1, 1])
    else:
        yaw = np.arctan2(rot[1, 0], rot[0, 0])
        roll = np.arctan2(rot[2, 1], rot[2, 2])
    return float(roll), float(pitch), float(yaw)


def vector_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis. Each value equals ``np.linalg.norm``
    of that one vector bit for bit (both take a BLAS dot), so a stacked
    computation gives the same numbers as a per-vector one."""
    v = np.asarray(v, dtype=np.float64)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def column_lengths(rows: np.ndarray) -> np.ndarray:
    """Norms of the columns of (3, ...) coordinate rows, summed x^2 + y^2,
    then + z^2: cKDTree's order, and ``np.linalg.norm``'s over a last axis of
    three, so the values come out bit-equal to both."""
    x, y, z = rows
    out = x * x
    out += y * y
    out += z * z
    return np.sqrt(out, out=out)


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == np.cross(v, w); (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


# Rotation generators [e_k]x: d/da exp(a [e_k]x) = exp(a [e_k]x) [e_k]x.
_GENERATORS = skew(np.eye(3))


def rotation_about_axis(axis, angle) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis. Stacked axes
    (..., 3) with angles (...) give stacked rotations (..., 3, 3)."""
    ax = np.asarray(axis, dtype=np.float64)
    if ax.shape[-1:] != (3,):
        raise ValueError("rotation axis must have 3 components")
    norm = vector_norm(ax)
    if (norm == 0.0).any():
        raise ValueError("rotation axis must be nonzero")
    k = skew(ax / norm[..., None])
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_angle(rot: np.ndarray) -> float:
    """Absolute rotation angle of a rotation matrix, in radians."""
    return float(np.arccos(np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)))
