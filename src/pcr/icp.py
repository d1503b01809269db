"""Trimmed point-to-point ICP with exact nearest neighbors.

Each iteration pairs every transformed source point with its exact nearest
target point, rejects pairs beyond ``TRIM_MULTIPLIER`` times the median pair
distance, and solves the rigid alignment in closed form, so the objective
cannot increase within an iteration. The loop has one stop rule: it
converges at the first iteration whose pose step is below the rotation and
translation tolerances, and stops unconverged at the ``MAX_ITERATIONS`` cap.
A source with enough points is registered by the same loop on ever finer
subsamples, each level's pose seeding the next, down to the full-resolution
level of stride 1.
One neighbour cache serves every level of a registration, so a point's tree
walk is repeated only when its step since its last walk, at any level, could
have changed its nearest target point.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import TooFewPairsError
from .geom import (RigidTransform, as_points, bounds, column_lengths,
                   rotation_angle, umeyama_align)

# Convergence: the pose step is below ROTATION_TOL radians and
# TRANSLATION_TOL times the target cloud diagonal.
ROTATION_TOL = 1e-6
TRANSLATION_TOL = 1e-6
TRIM_MULTIPLIER = 3.0
# Most iterations of each level, full resolution included; a level that
# reaches it stops unconverged.
MAX_ITERATIONS = 100

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
# diagonal (medians against truth). With the levels' stop at the final
# tolerances, two levels hit a 30-iteration cap and ICP took 131 ms against
# 95 (before the row layout).
# Every level has the full-resolution cap and seeds the next level, even
# unconverged. Against levels only from 8192 points, capped at 30 iterations
# and dropped when unconverged (2-vCPU Xeon, end to end, medians): a
# 100 000-point scene took 0.60 s, not 3.4 s (both levels had been dropped);
# 3000, 5000 and 8000 points from a 0.1 offset 11, 17 and 28 ms, not 23, 47
# and 103; 21 of 24 far-offset scenes were right, not 19.
COARSE_STRIDE = 8
COARSE_MIN_LEVEL_POINTS = 256
COARSE_TOL_FACTOR = 100.0

log = logging.getLogger("pcr")

# Rounding allowance of NeighbourCache's reuse test and walk bounds, relative
# to the largest coordinate magnitude seen. Each distance in the test is
# computed to within a few ulps of itself and is below four times that
# magnitude, so the test's summed rounding stays below about 2e-14 of it.
# The same allowance widens a bounded walk's radius; it is added, not scaled
# with the radius, because a distance's rounding follows the coordinates'
# magnitude, however short the distance.
CACHE_ROUNDING = 1e-12


def coarse_strides(n: int) -> list[int]:
    """Strides of the coarse levels for an ``n``-point source, coarsest
    first: the powers of ``COARSE_STRIDE`` whose subsample keeps at least
    ``COARSE_MIN_LEVEL_POINTS`` points (stride 8 from 2041 points on)."""
    strides: list[int] = []
    stride = COARSE_STRIDE
    while len(range(0, n, stride)) >= COARSE_MIN_LEVEL_POINTS:
        strides.insert(0, stride)
        stride *= COARSE_STRIDE
    return strides


class NNIndex:
    """Exact nearest-neighbor index over a fixed target point set.

    Immutable after construction; queries are safe from multiple threads.
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

    def query(self, queries, k: int = 1, bound: float = np.inf
              ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and target indices of the true closest points to (n, 3) queries.

        With ``k`` > 1 each row holds the ``k`` closest, nearest first. Among
        equidistant points, ``k`` = 1 and ``k`` = 2 may choose differently.
        Only targets closer than ``bound`` are searched for: a closest point
        not found within it has distance inf and the target count as index.
        """
        return self._tree.query(queries, k, distance_upper_bound=bound)


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
    """Exact nearest neighbours of a registration's source rows, which move a
    little per call.

    The cache covers ``size`` source rows; ``every(stride)`` is the cache of
    every stride-th row and shares this one's state, so a row walked at a
    coarse level is reused at a finer one. Each row keeps the position it
    was last walked at (its anchor), the nearest target found there, that
    target's distance d1 and the gap to the second-nearest distance d2. A
    row that has moved by delta since then keeps its neighbour when 2 delta
    is below the gap (triangle inequality: no other target can have come
    closer), with ``CACHE_ROUNDING`` to spare. Other rows are walked again
    through ``NNIndex.query`` for their two nearest targets, within a bound
    taken from the distances the cache holds:

    - a row walked before has both its anchor's neighbours within d2 +
      delta, so the batch takes its largest d2 + delta;
    - a row never walked takes ``TRIM_MULTIPLIER`` times the median d1 the
      cache holds, and no bound while it holds none.

    Both bounds get ``CACHE_ROUNDING`` to spare, which also keeps a median
    of 0 (a source on its target) from missing every row.

    A row that finds no target within its bound is walked again without
    one. A row that finds only one keeps the bound as its d2, a lower bound
    of the true one, so the reuse test stays a proof. A tie (zero gap, as at
    duplicate targets) is settled by the tree's unbounded single-neighbour
    walk, which may break it differently from the two-neighbour walk, and
    the row takes only that walk on every later call. So every answer equals
    ``index.query(moved)``.

    The arithmetic runs on (3, n) coordinate rows, so ``moved`` is cheapest
    as the transposed view of contiguous rows, and ``paired`` holds the rows
    of the last answer's nearest targets. Mutable and not shared between
    threads.
    """

    def __init__(self, index: NNIndex, size: int):
        self._index = index
        self._root = None  # the cache this one is a strided view of
        self._extent = float(np.abs(index.rows).max())
        self._anchor = np.zeros((3, size))
        self._nearest = np.zeros(size, dtype=np.intp)
        self._d1 = np.zeros(size)
        self._gap = np.full(size, -np.inf)  # never walked
        self.paired = np.empty((3, 0))

    def every(self, stride: int) -> NeighbourCache:
        """The cache of every ``stride``-th row: its state is a view of this
        cache's, so a row walked through either is cached for both."""
        level = copy.copy(self)
        level._root = self._root or self
        level._anchor = self._anchor[:, ::stride]
        level._nearest = self._nearest[::stride]
        level._d1 = self._d1[::stride]
        level._gap = self._gap[::stride]
        return level

    def query(self, moved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and target indices of the true closest points."""
        rows = np.ascontiguousarray(moved.T)  # no copy for a view of rows
        root = self._root or self
        root._extent = max(root._extent, float(np.abs(rows).max()))
        slack = CACHE_ROUNDING * root._extent
        step = column_lengths(rows - self._anchor)
        kept = 2.0 * step + slack < self._gap
        tied = self._gap == 0.0
        self._settle_ties(rows, np.flatnonzero(tied))
        stale = ~(kept | tied)
        fresh = np.flatnonzero(stale & (self._gap < 0.0))  # never walked
        drifted = np.flatnonzero(stale & (self._gap > 0.0))
        if fresh.size:
            held = root._d1[root._gap >= 0.0]
            self._walk(rows, fresh, TRIM_MULTIPLIER * _median(held) + slack
                       if held.size else np.inf)
        if drifted.size:
            reach = self._d1[drifted] + self._gap[drifted] + step[drifted]
            self._walk(rows, drifted, float(reach.max()) + slack)
        nearest = self._nearest.copy()
        self.paired = np.take(self._index.rows, nearest, axis=1)
        return column_lengths(rows - self.paired), nearest

    def _walk(self, rows: np.ndarray, which: np.ndarray, bound: float) -> None:
        """Walk the tree within ``bound`` for columns ``which`` of ``rows``
        and store what it finds."""
        points = np.take(rows, which, axis=1)
        dist, idx = self._index.query(points.T, 2, bound)
        # a second target not found lies at least the bound away
        np.minimum(dist[:, 1], bound, out=dist[:, 1])
        missed = np.flatnonzero(dist[:, 0] == np.inf)
        if missed.size:
            dist[missed], idx[missed] = self._index.query(
                np.take(points, missed, axis=1).T, 2)
        self._anchor[:, which] = points
        self._nearest[which] = idx[:, 0]
        self._d1[which] = dist[:, 0]
        self._gap[which] = dist[:, 1] - dist[:, 0]
        self._settle_ties(rows, which[dist[:, 1] == dist[:, 0]])

    def _settle_ties(self, rows: np.ndarray, which: np.ndarray) -> None:
        """Take the single-neighbour walk's choice for columns with a zero
        gap."""
        if which.size:
            self._nearest[which] = self._index.query(np.take(rows, which, axis=1).T)[1]


def correspond(moved, index: NNIndex | NeighbourCache) -> tuple[np.ndarray, np.ndarray]:
    """Source and target indices of the nearest-neighbor pairs of the
    transformed (n, 3) source ``moved``, median-trimmed: pairs farther than
    ``TRIM_MULTIPLIER`` times the median pair distance are rejected, and at
    least 3 pairs must survive."""
    dist, tgt_idx = index.query(moved)
    keep = dist <= TRIM_MULTIPLIER * _median(dist)
    if int(keep.sum()) < 3:
        raise TooFewPairsError(
            f"only {int(keep.sum())} pairs survive trimming, need at least 3")
    return np.flatnonzero(keep), tgt_idx[keep]


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
              rotation_tol: float, translation_tol: float
              ) -> tuple[RigidTransform, np.ndarray, list[float], int, bool]:
    """The trimmed ICP iteration from ``current`` on contiguous (3, n) source
    coordinate rows: (pose, source rows moved by the pose, RMS trace,
    iterations, converged). The pairs' target rows are the cache's."""
    trace: list[float] = []
    converged = False
    iterations = 0
    moved = _transform_rows(current, src)
    for iterations in range(1, MAX_ITERATIONS + 1):
        kept, _ = correspond(moved.T, cache)
        pairs_p = np.take(src, kept, axis=1)
        pairs_q = np.take(cache.paired, kept, axis=1)
        new = umeyama_align(pairs_p.T, pairs_q.T)

        # The next query's points; the kept columns give the RMS under ``new``.
        moved = _transform_rows(new, src)
        diff = np.take(moved, kept, axis=1)
        diff -= pairs_q
        sq = float((diff * diff).sum())
        rms = float(np.sqrt(sq / kept.size))
        trace.append(rms)

        # The pose step from ``current`` to ``new``: new.compose(current.inverse())
        # up to rounding, without building the transforms.
        step = new.rotation @ current.rotation.T
        shift = float(np.linalg.norm(new.translation - step @ current.translation))
        current = new
        if rotation_angle(step) < rotation_tol and shift < translation_tol:
            converged = True
            break
    return current, moved, trace, iterations, converged


def icp_register(source, target, init: RigidTransform | None = None) -> IcpResult:
    """Register the (n, 3) source points onto the (m, 3) target points by
    trimmed point-to-point ICP.

    ``init`` seeds only the first correspondence search; every iteration
    solves the absolute transform in closed form, so the result does not
    depend on composing increments. Deterministic for identical inputs.

    The source is registered on every stride-th point, for each stride of
    ``coarse_strides`` and then stride 1, coarsest first, by one loop with
    the ``MAX_ITERATIONS`` cap; the coarse levels' pose stop is
    ``COARSE_TOL_FACTOR`` times looser. Each level's pose, converged or not,
    seeds the next level, and each level logs one DEBUG line. The result's
    ``iterations``, ``rms_trace`` and ``converged`` describe the stride-1
    level only. One ``NeighbourCache`` over every source row serves all
    levels, each through its own strided rows, and the final pairs.
    """
    src = as_points(source)
    tgt = as_points(target)
    if src.shape[0] < 3 or tgt.shape[0] < 3:
        raise TooFewPairsError("both clouds need at least 3 points")

    index = NNIndex(tgt)
    trans_tol = TRANSLATION_TOL * (bounds(tgt).diagonal_length() or 1.0)

    # Every per-point step runs on contiguous coordinate rows.
    src_rows = np.ascontiguousarray(src.T)
    current = init if init is not None else RigidTransform.identity()
    cache = NeighbourCache(index, len(src))
    for stride in [*coarse_strides(len(src)), 1]:
        level = np.ascontiguousarray(src_rows[:, ::stride])
        loose = 1.0 if stride == 1 else COARSE_TOL_FACTOR
        current, moved, trace, iterations, converged = _icp_loop(
            level, cache.every(stride), current, loose * ROTATION_TOL, loose * trans_tol)
        log.debug("icp level stride %d: %d iterations on %d of %d points, %s",
                  stride, iterations, level.shape[1], len(src),
                  "converged" if converged else "unconverged")

    # Refresh the pair set so theta describes the returned transform.
    source_indices, theta = correspond(moved.T, cache)
    return IcpResult(transform=current,
                     source_indices=source_indices,
                     theta=theta,
                     rms_trace=np.asarray(trace),
                     iterations=iterations,
                     converged=converged)
