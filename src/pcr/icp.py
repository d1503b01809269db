"""Trimmed point-to-point ICP with exact nearest neighbors.

Each iteration pairs every transformed source point with its exact nearest
target point, rejects pairs beyond ``TRIM_MULTIPLIER`` times the median pair
distance, and solves the rigid alignment in closed form, so the objective
cannot increase within an iteration. A transformation checker (pose change,
error change, or iteration cap) ends the loop. A dense source is first
registered on ever finer subsamples, each converged pose seeding the next
level and finally the full-resolution loop.
Each loop keeps a neighbour cache, so a point's tree walk is repeated only when
its step since the last walk could have changed its nearest target point.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import TooFewPairsError
from .geom import (RigidTransform, as_points, bounds, column_lengths,
                   rotation_angle, umeyama_align)

# Convergence: the pose step is below ROTATION_TOL radians and
# TRANSLATION_TOL times the target cloud diagonal, or the RMS changes by less
# than ERROR_CHANGE_TOL relative.
ROTATION_TOL = 1e-6
TRANSLATION_TOL = 1e-6
ERROR_CHANGE_TOL = 1e-9
TRIM_MULTIPLIER = 3.0

# Coarse-to-fine schedule of icp_register (Rusinkiewicz & Levoy, "Efficient
# variants of the ICP algorithm", 2001), as a pyramid of strides (Jost &
# Hugli, "A multi-resolution scheme ICP algorithm for fast shape
# registration", 2002): see coarse_strides. Measured on sixteen 20 000-point
# s = 1, 5 deg scenes (2 vCPUs), ICP alone with the neighbour cache on
# coordinate rows, median:
# - single stage: 320 ms, 20-31 iterations (13.5 ms each);
# - one stride-8 level: 112 ms; 19.3 iterations there on average (3.4 ms
#   each), 7-10 at full size;
# - strides 64 and 8: 72 ms; 20.4 iterations at stride 64 (0.86 ms each),
#   5.6 at stride 8 (1.8 ms each), 6-10 at full size (4.7 ms each, the first
#   walk of every point included).
# All three: rotation error 0.0094-0.0095 deg, translation 1.4e-4 of the
# diagonal (medians against truth).
# With the levels' stop at the final tolerances, two levels hit the cap, one
# full-resolution stage ran 31 iterations, and ICP took 131 ms against 95
# (both on (n, 3) arrays, before the row layout). Keeping unconverged level
# poses left 9 of 24 far-offset scenes off or unconverged, against 5. A
# dropped level costs its cap: 26 ms at stride 64, about five
# full-resolution iterations.
COARSE_MIN_POINTS = 8192
COARSE_STRIDE = 8
COARSE_MIN_LEVEL_POINTS = 256
COARSE_MAX_ITERATIONS = 30
COARSE_TOL_FACTOR = 100.0

log = logging.getLogger("pcr")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# Threads per nearest-neighbour query: at most every CPU the process may run
# on, so ``taskset`` limits it, and one per MIN_QUERIES_PER_WORKER query
# points, since a thread start outweighs a short walk (2000 points on two
# threads ran 4% slower end to end than on one, on a 2-vCPU host). Each
# query point takes the same tree walk whatever the thread count, so results
# do not depend on it.
QUERY_WORKERS = _usable_cpus()
MIN_QUERIES_PER_WORKER = 4096

# Rounding allowance of NeighbourCache's reuse test, relative to the largest
# coordinate magnitude seen. Each distance in the test is computed to within
# a few ulps of itself and is below four times that magnitude, so the test's
# summed rounding stays below about 2e-14 of it.
CACHE_ROUNDING = 1e-12


def coarse_strides(n: int) -> list[int]:
    """Strides of the coarse levels for an ``n``-point source, coarsest
    first: the powers of ``COARSE_STRIDE`` whose subsample keeps at least
    ``COARSE_MIN_LEVEL_POINTS`` points, or none below ``COARSE_MIN_POINTS``."""
    strides: list[int] = []
    if n >= COARSE_MIN_POINTS:
        stride = COARSE_STRIDE
        while len(range(0, n, stride)) >= COARSE_MIN_LEVEL_POINTS:
            strides.insert(0, stride)
            stride *= COARSE_STRIDE
    return strides


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class NNIndex:
    """Exact nearest-neighbor index over a fixed target point set.

    Immutable after construction; queries are safe from multiple threads.
    A large query is split over up to ``QUERY_WORKERS`` threads.
    """

    def __init__(self, points):
        pts = as_points(points)
        if pts.shape[0] < 1:
            raise ValueError("cannot index an empty cloud")
        self._rows = np.ascontiguousarray(pts.T)
        self._tree = cKDTree(pts)

    @property
    def rows(self) -> np.ndarray:
        """The target as contiguous (3, m) coordinate rows."""
        return self._rows

    def query(self, queries, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Distances and target indices of the true closest points to (n, 3) queries.

        With ``k`` > 1 each row holds the ``k`` closest, nearest first. Among
        equidistant points, ``k`` = 1 and ``k`` = 2 may choose differently.
        """
        workers = min(QUERY_WORKERS, max(1, len(queries) // MIN_QUERIES_PER_WORKER))
        return self._tree.query(queries, k, workers=workers)


def _transform_rows(pose: RigidTransform, rows: np.ndarray) -> np.ndarray:
    """``pose.apply`` on (3, n) coordinate rows: one 3x3 BLAS product and a
    per-row add."""
    moved = pose.rotation @ rows
    moved += pose.translation[:, None]
    return moved


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array, bit for bit, from one partition: the
    upper middle element, averaged for an even count with the largest
    element below it."""
    k = values.size // 2
    part = np.partition(values, k)
    if values.size % 2:
        return float(part[k])
    return float((part[:k].max() + part[k]) / 2.0)


class NeighbourCache:
    """Exact nearest neighbours of a query set that moves a little per call.

    Each query point keeps the position it was last walked at (its anchor),
    the nearest target found there and the gap between the second-nearest
    and the nearest distance. A point that has moved by delta since then
    keeps its neighbour when 2 delta is below the gap (triangle inequality:
    no other target can have come closer), with ``CACHE_ROUNDING`` to spare.
    Other points are walked again through ``NNIndex.query``. A tie (zero
    gap, as at duplicate targets) is settled by the tree's single-neighbour
    walk, which may break it differently from the two-neighbour walk, and
    the point takes only that walk on every later call. So every answer
    equals ``index.query(moved)``.

    Query points are the same source points from call to call; a call with
    another point count starts afresh. The arithmetic runs on (3, n)
    coordinate rows, so ``moved`` is cheapest as the transposed view of
    contiguous rows, and ``paired`` holds the rows of the last answer's
    nearest targets. Mutable: one cache per ICP loop, not shared between
    threads.
    """

    def __init__(self, index: NNIndex):
        self._index = index
        self._extent = float(np.abs(index.rows).max())
        self._anchor = np.empty((3, 0))
        self._nearest = np.empty(0, dtype=np.intp)
        self._gap = np.empty(0)
        self.paired = np.empty((3, 0))

    def query(self, moved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and target indices of the true closest points."""
        rows = np.ascontiguousarray(moved.T)  # no copy for a view of rows
        self._extent = max(self._extent, float(np.abs(rows).max()))
        if rows.shape != self._anchor.shape:
            self._anchor = np.empty_like(rows)
            self._nearest = np.empty(rows.shape[1], dtype=np.intp)
            self._gap = np.empty(rows.shape[1])
            self._walk(rows, np.arange(rows.shape[1]))
        else:
            step = column_lengths(rows - self._anchor)
            kept = 2.0 * step + CACHE_ROUNDING * self._extent < self._gap
            tied = self._gap == 0.0
            self._settle_ties(rows, np.flatnonzero(tied))
            stale = np.flatnonzero(~(kept | tied))
            if stale.size:
                self._walk(rows, stale)
        nearest = self._nearest.copy()
        self.paired = np.take(self._index.rows, nearest, axis=1)
        return column_lengths(rows - self.paired), nearest

    def _walk(self, rows: np.ndarray, which: np.ndarray) -> None:
        """Walk the tree for columns ``which`` of ``rows`` and store what it
        finds."""
        points = np.take(rows, which, axis=1)
        dist, idx = self._index.query(points.T, 2)
        self._anchor[:, which] = points
        self._nearest[which] = idx[:, 0]
        self._gap[which] = dist[:, 1] - dist[:, 0]
        self._settle_ties(rows, which[dist[:, 1] == dist[:, 0]])

    def _settle_ties(self, rows: np.ndarray, which: np.ndarray) -> None:
        """Take the single-neighbour walk's choice for columns with a zero
        gap."""
        if which.size:
            self._nearest[which] = self._index.query(np.take(rows, which, axis=1).T)[1]


@dataclass(frozen=True)
class Correspondences:
    """Surviving source/target index pairs."""

    source_indices: np.ndarray
    target_indices: np.ndarray

    def __len__(self) -> int:
        return self.source_indices.shape[0]


def correspond(moved, index: NNIndex | NeighbourCache) -> Correspondences:
    """Nearest-neighbor pairs of the transformed (n, 3) source ``moved``,
    median-trimmed: pairs farther than ``TRIM_MULTIPLIER`` times the median
    pair distance are rejected, and at least 3 pairs must survive."""
    dist, tgt_idx = index.query(moved)
    keep = dist <= TRIM_MULTIPLIER * _median(dist)
    if int(keep.sum()) < 3:
        raise TooFewPairsError(
            f"only {int(keep.sum())} pairs survive trimming, need at least 3")
    return Correspondences(source_indices=np.flatnonzero(keep),
                           target_indices=tgt_idx[keep])


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    source_indices: np.ndarray   # source side of the final pair set
    theta: np.ndarray            # matching target indices
    rms_trace: np.ndarray        # per-iteration RMS over the surviving pairs
    iterations: int
    converged: bool

    @property
    def rms(self) -> float:
        return float(self.rms_trace[-1])


def _icp_loop(src: np.ndarray, cache: NeighbourCache, current: RigidTransform,
              max_iterations: int, rotation_tol: float, translation_tol: float
              ) -> tuple[RigidTransform, np.ndarray, list[float], int, bool]:
    """The trimmed ICP iteration from ``current`` on contiguous (3, n) source
    coordinate rows: (pose, source rows moved by the pose, RMS trace,
    iterations, converged). The pairs' target rows are the cache's."""
    trace: list[float] = []
    converged = False
    iterations = 0
    prev_rms = None
    moved = _transform_rows(current, src)
    for iterations in range(1, max_iterations + 1):
        corr = correspond(moved.T, cache)
        pairs_p = np.take(src, corr.source_indices, axis=1)
        pairs_q = np.take(cache.paired, corr.source_indices, axis=1)
        new = umeyama_align(pairs_p.T, pairs_q.T)

        # The next query's points; the kept columns give the RMS under ``new``.
        moved = _transform_rows(new, src)
        diff = np.take(moved, corr.source_indices, axis=1)
        diff -= pairs_q
        sq = float((diff * diff).sum())
        rms = float(np.sqrt(sq / len(corr)))
        trace.append(rms)

        delta = new.compose(current.inverse())
        pose_small = (rotation_angle(delta.rotation) < rotation_tol
                      and float(np.linalg.norm(delta.translation)) < translation_tol)
        error_small = (prev_rms is not None
                       and abs(prev_rms - rms) < ERROR_CHANGE_TOL * max(prev_rms, 1e-300))
        current = new
        prev_rms = rms
        if pose_small or error_small:
            converged = True
            break
    return current, moved, trace, iterations, converged


def icp_register(source, target, cfg: IcpConfig = IcpConfig(),
                 init: RigidTransform | None = None) -> IcpResult:
    """Register source onto target by trimmed point-to-point ICP.

    ``init`` seeds only the first correspondence search; every iteration
    solves the absolute transform in closed form, so the result does not
    depend on composing increments. Deterministic for identical inputs.

    A source of at least ``COARSE_MIN_POINTS`` points is first registered
    on every stride-th point, for each stride of ``coarse_strides``,
    coarsest first, with a looser stop and at most ``COARSE_MAX_ITERATIONS``
    iterations; a converged level's pose seeds the next level, an
    unconverged one is dropped. The result's ``iterations``, ``rms_trace``
    and ``converged`` describe the full-resolution stage only. Each level
    keeps its own ``NeighbourCache``; the full-resolution one also serves
    the final pairs.
    """
    src = as_points(source)
    tgt = as_points(target)
    if src.shape[0] < 3 or tgt.shape[0] < 3:
        raise TooFewPairsError("both clouds need at least 3 points")

    index = NNIndex(tgt)
    trans_tol = TRANSLATION_TOL * bounds(tgt).diagonal_length()
    if trans_tol == 0.0:
        trans_tol = TRANSLATION_TOL

    # Every per-point step runs on contiguous coordinate rows.
    src_rows = np.ascontiguousarray(src.T)
    current = init if init is not None else RigidTransform.identity()
    for stride in coarse_strides(len(src)):
        level = np.ascontiguousarray(src_rows[:, ::stride])
        pose, _, _, iterations, converged = _icp_loop(
            level, NeighbourCache(index), current,
            min(COARSE_MAX_ITERATIONS, cfg.max_iterations),
            COARSE_TOL_FACTOR * ROTATION_TOL, COARSE_TOL_FACTOR * trans_tol)
        # An unconverged level may have walked away from a good seed.
        if converged:
            current = pose
        log.debug("icp level stride %d: %d iterations on %d of %d points, pose %s",
                  stride, iterations, level.shape[1], len(src),
                  "kept" if converged else "dropped")

    cache = NeighbourCache(index)
    current, moved, trace, iterations, converged = _icp_loop(
        src_rows, cache, current, cfg.max_iterations, ROTATION_TOL, trans_tol)

    # Refresh the pair set so theta describes the returned transform.
    final_corr = correspond(moved.T, cache)
    return IcpResult(transform=current,
                     source_indices=final_corr.source_indices,
                     theta=final_corr.target_indices,
                     rms_trace=np.asarray(trace),
                     iterations=iterations,
                     converged=converged)
