"""Scale difference detection and estimation between two capture sessions.

Detection compares bounding-diagonal lengths of the two clouds. The depth
gate and the estimate take the matches' backprojected 3D points as paired
(n, 3) source and target arrays, lifted once by the caller, and the known
relative rotation. The gate picks the pairs the scale is fitted to: those
whose pairwise distance ratios agree, less those far off the closed-form fit
through them. The estimate is, in closed form, the fixed point of the
paper's scalar Kalman filter over the scale: the least-squares scale and
translation of the pairs under the rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InsufficientMatchesError
from .geom import as_pairs, bounds, column_lengths, freeze, vector_norm

# Detection flags a scale gap when the diagonal ratio is off 1 by more.
DETECT_TOLERANCE = 0.1

# Depth-consistency gate: a match is kept when its median pairwise distance
# ratio lies within GATE_MADS robust scatters of the global median, with a
# band of at least GATE_MIN_BAND times that median.
GATE_MADS = 6.0
GATE_MIN_BAND = 0.05

# The depth gate drops every match whose residual |q - (s R p + t)| under the
# fit through the ratio-consistent matches exceeds RESIDUAL_TRIM times the
# median residual. On 162 edge-small scenes (2000 points, 200 matches, 30%
# outliers) the correct matches' residuals reached at most 6.9 times the
# median, while outliers that passed both the epipolar test and the
# distance-ratio rule stood at 35 to 85 times it and moved the scale by up
# to 1.8%.
RESIDUAL_TRIM = 12.0


@dataclass(frozen=True)
class ScaleDetection:
    """Diagonal-length ratio (target / source) and whether it flags a scale gap."""

    ratio: float
    differs: bool


@dataclass(frozen=True)
class ScaleEstimate:
    """Session scale with the translation that goes with it.

    Together with the relative rotation, ``translation`` coarsely aligns the
    backprojected keyframe points: q ~ scale * R @ p + translation.
    """

    scale: float
    translation: np.ndarray

    # One closed-form solve lands on the filter's fixed point; the benchmark
    # tracer still reads these two filter counters off every estimate.
    iterations = 1
    converged = True

    def __post_init__(self):
        trans = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "translation", freeze(trans))


def detect_scale(source, target) -> ScaleDetection:
    """Compare the bounding-diagonal lengths of two (n, 3) point arrays."""
    diag_s = bounds(source).diagonal_length()
    diag_t = bounds(target).diagonal_length()
    if diag_s == 0.0 or diag_t == 0.0:
        raise DegenerateGeometryError("cloud has zero spatial extent")
    ratio = diag_t / diag_s
    return ScaleDetection(ratio=ratio, differs=abs(ratio - 1.0) > DETECT_TOLERANCE)


def _row_nanmedian(values: np.ndarray) -> np.ndarray:
    # np.nanmedian(values, axis=1) bit for bit, without numpy's masked-array
    # path for short rows. NaNs sort last, so a row's median is the mean of
    # its two middle non-NaN entries (the same entry twice for an odd
    # count); an all-NaN row indexes its last entry, a NaN.
    ordered = np.sort(values, axis=1)
    count = np.count_nonzero(~np.isnan(values), axis=1)
    rows = np.arange(values.shape[0])
    return (ordered[rows, (count - 1) // 2] + ordered[rows, count // 2]) / 2.0


def _pair_distances(points: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # |p_i - p_c| for every point i and every c in cols, from the
    # differences of each coordinate row: bit-equal to np.linalg.norm over
    # the (n, m, 3) differences, without its strided reduction.
    rows = np.ascontiguousarray(points.T)
    return column_lengths(rows[:, :, None] - rows[:, None, cols])


def depth_consistent_indices(src: np.ndarray, tgt: np.ndarray, rotation) -> np.ndarray:
    """Indices of the pairs of (n, 3) ``geom.as_pairs`` arrays that the scale
    is fitted to, under the relative ``rotation``.

    The epipolar test cannot constrain depth, so a match can pass it with an
    arbitrary depth. Two rules drop such pairs, in turn:

    - distance ratios: each pair's median ratio |q_i - q_j| / |p_i - p_j|
      over the other pairs is rigid-invariant and clusters at the session
      scale; rows whose median lies more than ``GATE_MADS`` robust scatters
      (at least ``GATE_MIN_BAND`` of it) off the global median go, unless
      fewer than 3 row medians are finite or fewer than 3 rows stay;
    - residuals: pairs whose residual |q_i - (s* R p_i + t)| under the
      closed form of ``estimate_scale_kalman`` through the pairs left
      exceeds ``RESIDUAL_TRIM`` times the median go, unless fewer than 3
      stay.

    Fewer than 3 pairs are all kept; coincident source points or a
    nonpositive s* raise as in the estimate.
    """
    src, tgt = as_pairs(src, tgt)
    if len(src) < 3:
        return np.arange(len(src))
    kept = _ratio_consistent(src, tgt)
    rotated = src[kept] @ np.asarray(rotation, dtype=np.float64).T
    scale, translation = _similarity_fit(rotated, tgt[kept])
    residuals = vector_norm(tgt[kept] - scale * rotated - translation)
    fits = residuals <= RESIDUAL_TRIM * np.median(residuals)
    return kept[fits] if fits.sum() >= 3 else kept


def _ratio_consistent(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    # The pairs the distance-ratio rule keeps, of at least 3 pairs.
    every = np.arange(len(src))
    # Past 500 pairs, the ratios are taken against every k-th pair only.
    cols = every[:: (every.size + 499) // 500]
    ds = _pair_distances(src, cols)
    dt = _pair_distances(tgt, cols)
    ratios = np.where(ds > 1e-12, dt / np.maximum(ds, 1e-12), np.nan)
    ratios[cols, np.arange(cols.size)] = np.nan
    row_med = _row_nanmedian(ratios)
    finite = np.isfinite(row_med)
    if finite.sum() < 3:
        return every
    center = float(np.median(row_med[finite]))
    scatter = 1.4826 * float(np.median(np.abs(row_med[finite] - center)))
    band = max(GATE_MADS * scatter, GATE_MIN_BAND * abs(center))
    keep = finite & (np.abs(row_med - center) <= band)
    return np.flatnonzero(keep) if keep.sum() >= 3 else every


def estimate_scale_kalman(src: np.ndarray, tgt: np.ndarray, rotation) -> ScaleEstimate:
    """Session scale and translation of (n, 3) ``geom.as_pairs`` pairs under
    a rotation.

    The paper estimates the scale with a scalar Kalman filter whose
    measurement is the joint (scale, alpha) least squares along the
    relative-pose translation direction, with the direction re-aimed from
    each measurement's own result. That measurement never reads the filter
    state, so the filter only smooths a sequence with a known limit, the
    known-rotation Umeyama scale

        s* = sum_i (R p_i - mean R p) . (q_i - mean q) / sum_i |R p_i - mean R p|^2,
        t  = mean q - s* mean R p,

    which is returned here directly, for the relative pose's ``rotation``,
    over every given pair: ``depth_consistent_indices`` picks them.
    Fewer than 3 pairs, coincident source points or a nonpositive s* raise.
    """
    src, tgt = as_pairs(src, tgt)
    if len(src) < 3:
        raise InsufficientMatchesError(
            f"scale estimation needs at least 3 matches with both depths, got {len(src)}")
    rotated = src @ np.asarray(rotation, dtype=np.float64).T
    scale, translation = _similarity_fit(rotated, tgt)
    return ScaleEstimate(scale=scale, translation=translation)


def _similarity_fit(rotated: np.ndarray, tgt: np.ndarray):
    # s* and t for rotated source points R p and target points q.
    mean_rp, mean_q = rotated.mean(axis=0), tgt.mean(axis=0)
    # Centred sums: the raw moments sum |R p|^2 - n |mean R p|^2 cancel when
    # the points lie far from the camera compared with their spread. Points
    # that agree to about 12 significant digits count as coincident.
    centred = rotated - mean_rp
    spread = float((centred * centred).sum())
    if spread <= 1e-24 * float((rotated * rotated).sum()):
        raise DegenerateGeometryError("source match points coincide")
    scale = float((centred * (tgt - mean_q)).sum()) / spread
    if scale <= 0.0:
        raise DegenerateGeometryError("least-squares scale is nonpositive")
    return scale, mean_q - scale * mean_rp
