"""Reproducible synthetic scenes: clouds, keypoint matches, ground truth.

The scene is a room-like surface cloud (box shell plus partition walls)
placed ahead of the source camera, so every matched point has positive
depth in both views. The target cloud is a scaled, rotated (about the source
centroid), translated, optionally noised copy. Matches are pinhole
projections of a point subset into both cameras, with sub-pixel keypoint
noise, depth noise relative to the depth, and a chosen fraction of rows
replaced by uniform garbage on the target side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloudio import (CameraIntrinsics, Cloud, Matches, write_intrinsics,
                      write_matches, write_ply)
from .geom import RigidTransform, SimilarityTransform, bounds, rotation_about_axis

# 640x480 session camera used for every generated scene.
_INTRINSICS = CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5)
_IMAGE_W = 640.0
_IMAGE_H = 480.0
_PIXEL_SIGMA = 0.3  # keypoint localization noise, independent of scene noise


@dataclass(frozen=True)
class SynthSpec:
    scale: float = 2.5
    rotation_deg: float = 15.0
    points: int = 2000
    noise: float = 0.005  # RMS 3D noise as a fraction of the base diagonal
    outlier_fraction: float = 0.0
    match_count: int = 200
    seed: int = 7

    def __post_init__(self):
        if not np.isfinite([self.scale, self.rotation_deg, self.noise]).all():
            raise ValueError("scale, rotation and noise must be finite")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.points < 8 or self.match_count < 8:
            raise ValueError("need at least 8 points and 8 matches")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        if self.noise < 0.0:
            raise ValueError("noise must be nonnegative")
        if self.match_count > self.points:
            raise ValueError("cannot pick more matches than points")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SynthScene:
    source: Cloud
    target: Cloud
    matches: Matches
    ground_truth: SimilarityTransform
    outlier_indices: np.ndarray
    intrinsics_source: CameraIntrinsics
    intrinsics_target: CameraIntrinsics


# The room's surface kinds as the axis each holds fixed and its value there:
# the six faces of the unit-half-size box, then the partitions x = 0 and y = 0.
_SURFACE_AXIS = np.array([0, 1, 2, 0, 1, 2, 0, 1])
_SURFACE_VALUE = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 0.0, 0.0])
# the two free axes, in order, of a surface that holds axis a fixed
_FREE_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def _sample_shell(rng: np.random.Generator, count: int) -> np.ndarray:
    # Surface samples of a room-like scene: a unit-half-size box shell plus
    # two interior partition walls. Sparse SLAM keyframe clouds are surface
    # samples, and a mis-scaled copy of a surface floats in free space, which
    # is exactly what makes plain ICP fail; the partitions break the corner
    # cone symmetry a mis-scaled box could still nestle into.
    kind = rng.integers(0, len(_SURFACE_AXIS), size=count)
    uv = rng.uniform(-1.0, 1.0, size=(count, 2))
    axis, rows = _SURFACE_AXIS[kind], np.arange(count)
    pts = np.empty((count, 3))
    pts[rows, axis] = _SURFACE_VALUE[kind]
    pts[rows[:, None], _FREE_AXES[axis]] = uv
    # slight thickness jitter so faces are not perfectly coplanar
    return pts + rng.normal(scale=0.01, size=pts.shape)


def build_scene(spec: SynthSpec) -> SynthScene:
    rng = np.random.default_rng(spec.seed)

    src_pts = _sample_shell(rng, spec.points)
    src_pts[:, 2] += 4.0  # put the box in front of the camera

    centroid = src_pts.mean(axis=0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = rotation_about_axis(axis, np.deg2rad(spec.rotation_deg))
    diag_src = bounds(src_pts).diagonal_length()
    t_dir = rng.normal(size=3)
    t_dir /= np.linalg.norm(t_dir)
    shift = 0.5 * diag_src * t_dir

    # noise = RMS 3D perturbation of the target points, as a fraction of the
    # base cloud's bounding diagonal (per-axis std is that over sqrt(3))
    sigma_axis = spec.noise * diag_src / np.sqrt(3.0)
    noise = rng.normal(scale=sigma_axis, size=src_pts.shape) \
        if sigma_axis > 0.0 else None
    order = rng.permutation(spec.points)

    match_idx = rng.choice(spec.points, size=spec.match_count, replace=False)
    n_out = int(np.floor(spec.outlier_fraction * spec.match_count + 0.5))
    outlier_rows = np.sort(rng.choice(spec.match_count, size=n_out, replace=False)) \
        if n_out else np.empty(0, dtype=np.int64)

    # q = s * (R @ (p - mu) + mu) + shift, folded into one Sim(3).
    pivot = spec.scale * (centroid - rot @ centroid)
    truth = SimilarityTransform(spec.scale, RigidTransform(rot, pivot + shift))
    tgt_clean = truth.apply(src_pts)
    # A shrunk target (s < 1) shifted toward the camera can put matched
    # points behind it; then the shift's depth is mirrored. The rotated,
    # shrunk box keeps positive depth (its points lie within about 2 of mu,
    # at depth about 4), and a shift away from the camera only adds to it.
    if (tgt_clean[match_idx, 2] <= 0.0).any():
        shift[2] = -shift[2]
        truth = SimilarityTransform(spec.scale, RigidTransform(rot, pivot + shift))
        tgt_clean = truth.apply(src_pts)
    tgt_pts = (tgt_clean if noise is None else tgt_clean + noise)[order]

    outlier_set = set(int(i) for i in outlier_rows)

    depth_lo = float(tgt_clean[:, 2].min())
    depth_hi = float(tgt_clean[:, 2].max())

    # Noise is drawn row by row: every generated scene depends on that order.
    src_m, tgt_m = src_pts[match_idx], tgt_clean[match_idx]
    rows = zip(_INTRINSICS.project(src_m), _INTRINSICS.project(tgt_m),
               src_m[:, 2], tgt_m[:, 2])
    table = []
    for row, ((us, vs), (ut, vt), ds, dt) in enumerate(rows):
        if spec.noise > 0.0:
            us += rng.normal(scale=_PIXEL_SIGMA)
            vs += rng.normal(scale=_PIXEL_SIGMA)
            ut += rng.normal(scale=_PIXEL_SIGMA)
            vt += rng.normal(scale=_PIXEL_SIGMA)
            ds *= 1.0 + spec.noise * rng.normal()
            dt *= 1.0 + spec.noise * rng.normal()
        if row in outlier_set:
            ut = rng.uniform(0.0, _IMAGE_W)
            vt = rng.uniform(0.0, _IMAGE_H)
            dt = rng.uniform(depth_lo, depth_hi)
            # a shrunk target can reach behind the camera (depth_lo <= 0):
            # redraw there, so a scene that never draws there keeps its stream
            while dt <= 0.0:
                dt = rng.uniform(depth_lo, depth_hi)
        table.append((us, vs, ds, ut, vt, dt))

    return SynthScene(source=Cloud(points=src_pts, label="synthetic-source"),
                      target=Cloud(points=tgt_pts, label="synthetic-target"),
                      matches=Matches(table),
                      ground_truth=truth,
                      outlier_indices=outlier_rows.astype(np.int64),
                      intrinsics_source=_INTRINSICS,
                      intrinsics_target=_INTRINSICS)


def generate_synthetic(spec: SynthSpec, out_dir) -> dict:
    """Write a scene to disk; returns the path of every artifact.

    Files: source.ply, target.ply (binary), matches.csv, intrinsics_source
    / intrinsics_target JSON, ground_truth.json. Byte-identical for the same
    spec and seed. The scene is built before ``out_dir`` is made, so a spec
    whose scene the clouds refuse (ValueError) leaves no directory behind.
    """
    scene = build_scene(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {
        "source": out / "source.ply",
        "target": out / "target.ply",
        "matches": out / "matches.csv",
        "intrinsics_source": out / "intrinsics_source.json",
        "intrinsics_target": out / "intrinsics_target.json",
        "ground_truth": out / "ground_truth.json",
    }
    write_ply(scene.source, paths["source"])
    write_ply(scene.target, paths["target"])
    write_matches(scene.matches, paths["matches"])
    write_intrinsics(scene.intrinsics_source, paths["intrinsics_source"])
    write_intrinsics(scene.intrinsics_target, paths["intrinsics_target"])

    truth = scene.ground_truth
    payload = {
        "scale": truth.scale,
        "rotation": [float(v) for v in truth.rotation.ravel()],
        "translation": [float(v) for v in truth.translation.ravel()],
        "outlier_indices": [int(i) for i in scene.outlier_indices],
        "noise": spec.noise,
        "match_count": spec.match_count,
        "seed": spec.seed,
    }
    paths["ground_truth"].write_text(json.dumps(payload, indent=2) + "\n",
                                     encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def read_ground_truth(path) -> SimilarityTransform:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return SimilarityTransform(
        float(data["scale"]),
        RigidTransform(np.asarray(data["rotation"], dtype=np.float64).reshape(3, 3),
                       np.asarray(data["translation"], dtype=np.float64)))
