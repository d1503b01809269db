import numpy as np
import pytest

from pcr.cloudio import Cloud, write_ply
from pcr.pipeline import PipelineConfig


def random_rotation(rng):
    """Uniform-ish random proper rotation via QR with sign fix."""
    mat = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(mat)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rodrigues(axis, angle):
    """Independent axis-angle rotation builder for use as a test oracle."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_angle_between(ra, rb):
    """Angle in radians separating two rotation matrices.

    Uses |dR - I|_F = 2*sqrt(2)*|sin(theta/2)|, which stays accurate for
    tiny angles where the arccos-of-trace form loses half the digits.
    """
    delta = ra.T @ rb
    s = np.linalg.norm(delta - np.eye(3)) / (2.0 * np.sqrt(2.0))
    return float(2.0 * np.arcsin(min(1.0, s)))


def config_for(paths, matches=True, **kw):
    """A pipeline config for a scene that ``generate_synthetic`` wrote: with
    its matches and intrinsics, or with the clouds alone and no scale stage
    (``matches=False``), as ``pcr register --no-scale`` runs it."""
    if matches:
        kw.update(matches=paths["matches"],
                  intrinsics_source=paths["intrinsics_source"],
                  intrinsics_target=paths["intrinsics_target"])
    else:
        kw.update(use_scale=False)
    return PipelineConfig(source=paths["source"], target=paths["target"], **kw)


def write_thin_pair(directory):
    """A source 1e-5 thick across two axes and its copy shifted by 0.01 in x,
    with 1e-6 noise: its Hessian (cond about 4e9) passes the covariance gate,
    but the covariance's smallest eigenvalue is below 1e-12 times its trace,
    so the information matrix refuses it. The fitted pair noise sets both
    numbers of the refusal, not their ratio."""
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(2000, 3)) * [1.0, 1e-5, 1e-5]
    write_ply(Cloud(points=pts), directory / "s.ply")
    write_ply(Cloud(points=pts + [0.01, 0.0, 0.0] + rng.normal(scale=1e-6, size=pts.shape)),
              directory / "t.ply")
    return directory / "s.ply", directory / "t.ply"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
