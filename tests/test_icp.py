import gc
import logging
import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pcr import cli, icp
from pcr.cloudio import Cloud, write_ply
from pcr.errors import TooFewPairsError
from pcr.geom import RigidTransform, bounds, rotation_angle, umeyama_align
from pcr.icp import NNIndex, NeighbourCache, correspond, icp_register
from pcr.synth import SynthSpec, build_scene

from conftest import rodrigues, rotation_angle_between


def box_cloud(rng, n=500):
    return rng.uniform(-1.0, 1.0, size=(n, 3))


def dense_scene(rng, n=20000):
    pts = box_cloud(rng, n)
    rot = rodrigues([0.3, 1.0, -0.2], np.deg2rad(5.0))
    tgt = pts @ rot.T + np.array([0.05, -0.02, 0.03])
    return pts, tgt + rng.normal(scale=0.005, size=tgt.shape)


def layouts(pts):
    """The same points as C-ordered, Fortran-ordered and strided-view arrays."""
    wide = np.zeros((2 * len(pts), 6))
    wide[::2, ::2] = pts
    return [np.ascontiguousarray(pts), np.asfortranarray(pts), wide[::2, ::2]]


def single_stage_icp(src, tgt, max_iterations=100, init=None, tol_factor=1.0):
    """The trimmed ICP loop without a coarse stage or neighbour cache, as a
    reference; ``tol_factor`` loosens the pose stop as the coarse stage's."""
    index = NNIndex(tgt)
    rotation_tol = tol_factor * icp.ROTATION_TOL
    trans_tol = tol_factor * (icp.TRANSLATION_TOL * bounds(tgt).diagonal_length())
    current = RigidTransform.identity() if init is None else init
    trace = []
    converged = False
    for iterations in range(1, max_iterations + 1):
        kept, paired = correspond(current.apply(src), index)
        pairs_p = src[kept]
        pairs_q = tgt[paired]
        new = umeyama_align(pairs_p, pairs_q)
        # summed over (3, k) coordinate rows, in the loop's order
        diff = np.ascontiguousarray((new.apply(pairs_p) - pairs_q).T)
        rms = float(np.sqrt(float((diff * diff).sum()) / len(kept)))
        trace.append(rms)
        delta = new.compose(current.inverse())
        current = new
        if (rotation_angle(delta.rotation) < rotation_tol
                and float(np.linalg.norm(delta.translation)) < trans_tol):
            converged = True
            break
    source_indices, theta = correspond(current.apply(src), index)
    return icp.IcpResult(transform=current, source_indices=source_indices,
                         theta=theta, rms_trace=np.asarray(trace),
                         iterations=iterations, converged=converged)


def assert_same_result(a, b):
    assert np.array_equal(a.transform.rotation, b.transform.rotation)
    assert np.array_equal(a.transform.translation, b.transform.translation)
    assert np.array_equal(a.rms_trace, b.rms_trace)
    assert np.array_equal(a.source_indices, b.source_indices)
    assert np.array_equal(a.theta, b.theta)
    assert (a.iterations, a.converged) == (b.iterations, b.converged)


class TestNNIndex:
    def test_query_own_point(self, rng):
        pts = box_cloud(rng, 100)
        index = NNIndex(pts)
        dist, idx = index.query(pts[17:18])
        assert dist[0] == 0.0
        assert idx[0] == 17

    def test_matches_brute_force(self, rng):
        pts = box_cloud(rng, 300)
        queries = box_cloud(rng, 1000) * 1.5
        index = NNIndex(pts)
        dist, idx = index.query(queries)
        diffs = queries[:, None, :] - pts[None, :, :]
        table = np.linalg.norm(diffs, axis=2)
        brute_idx = table.argmin(axis=1)
        brute_dist = table.min(axis=1)
        assert np.array_equal(idx, brute_idx)
        assert np.allclose(dist, brute_dist, rtol=1e-12)

    def test_single_point_cloud(self, rng):
        index = NNIndex(np.array([[1.0, 2.0, 3.0]]))
        dist, idx = index.query(box_cloud(rng, 20))
        assert (idx == 0).all()

    def test_query_equals_ckdtree(self, rng):
        pts = box_cloud(rng, 20000)
        queries = pts + rng.normal(scale=0.01, size=pts.shape)
        far = rng.random(len(pts)) < 0.3
        queries[far] = rng.uniform(-50.0, 50.0, size=(int(far.sum()), 3))
        dist, idx = NNIndex(pts).query(queries)
        ref_dist, ref_idx = cKDTree(pts).query(queries, workers=1)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(idx, ref_idx)


def pose_walk(rng, steps, angle, shift):
    """Poses from identity by random steps of ``angle`` rad and ``shift``."""
    rot, trans = np.eye(3), np.zeros(3)
    poses = []
    for _ in range(steps):
        rot = rodrigues(rng.normal(size=3), angle) @ rot
        direction = rng.normal(size=3)
        trans = trans + shift * direction / np.linalg.norm(direction)
        poses.append(RigidTransform(rot, trans))
    return poses


class TestNeighbourCache:
    @staticmethod
    def walk(src, tgt, poses, strides=None, walks=None):
        """Query one cache along ``poses``, the i-th through every
        ``strides[i]``-th row (every row by default), checking each answer
        against a single-threaded cKDTree; returns the rows walked per query.
        ``walks``, if given, collects each tree walk's (k, bound, distances)."""
        index = NNIndex(tgt)
        cache = NeighbourCache(index, len(src))
        walked = []
        tree_query = index.query

        def counted(rows, k=1, bound=np.inf):
            walked[-1] += len(rows)
            dist, idx = tree_query(rows, k, bound)
            if walks is not None:
                walks.append((k, bound, dist.copy()))
            return dist, idx

        index.query = counted
        tree = cKDTree(tgt)
        centre = src.mean(axis=0)
        for pose, stride in zip(poses, strides or [1] * len(poses)):
            moved = ((src - centre) @ pose.rotation.T + centre + pose.translation)[::stride]
            walked.append(0)
            dist, idx = cache.every(stride).query(moved)
            ref_dist, ref_idx = tree.query(moved, workers=1)
            assert np.array_equal(dist, ref_dist)
            assert np.array_equal(idx, ref_idx)
        return walked

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_zero_step_walks_nothing(self, rng, offset):
        tgt = box_cloud(rng, 2000) + offset
        src = tgt + rng.normal(scale=0.02, size=tgt.shape)
        walked = self.walk(src, tgt, [RigidTransform.identity()] * 4)
        assert walked == [2000, 0, 0, 0]

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    @pytest.mark.parametrize("angle, shift", [(1e-7, 1e-7), (1e-4, 1e-4),
                                              (1e-2, 2e-2)])
    def test_small_steps_exact(self, rng, offset, angle, shift):
        tgt = box_cloud(rng, 2000) + offset
        src = tgt + rng.normal(scale=0.02, size=tgt.shape)
        walked = self.walk(src, tgt, pose_walk(rng, 12, angle, shift))
        assert walked[0] == 2000
        assert sum(walked[1:]) < 11 * 2000
        if angle <= 1e-4:
            assert max(walked[1:]) < 200

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_steps_beyond_cloud_walk_every_row(self, rng, offset):
        # a step longer than the target's diameter exceeds every gap
        tgt = box_cloud(rng, 500) + offset
        src = tgt + rng.normal(scale=0.02, size=tgt.shape)
        walked = self.walk(src, tgt, pose_walk(rng, 6, 0.0, 4.0))
        assert walked == [500] * 6

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_near_ties_at_rounding_level(self, rng, offset):
        # targets mirrored across the plane x = offset, queries on it moved
        # by a few ulps: the nearest side flips on gaps at rounding level
        n = 400
        half = rng.uniform(0.01, 0.5, n)
        yz = rng.uniform(-1.0, 1.0, size=(n, 2))
        tgt = np.vstack([np.c_[offset + half, yz], np.c_[offset - half, yz]])
        src = np.c_[np.full(n, offset), yz + rng.normal(scale=1e-3, size=(n, 2))]
        ulp = np.spacing(max(offset, 1.0))
        poses = [RigidTransform(np.eye(3), np.array([k * ulp, 0.0, 0.0]))
                 for k in rng.integers(-3, 4, 60)]
        self.walk(src, tgt, poses)

    def test_duplicate_targets_walked_again(self, rng):
        base = box_cloud(rng, 1000)
        tgt = np.vstack([base, base[:300], base[:100]])
        src = base + rng.normal(scale=0.01, size=base.shape)
        poses = [RigidTransform.identity()] * 2 + pose_walk(rng, 8, 1e-4, 1e-4)
        walked = self.walk(src, tgt, poses)
        # rows nearest a duplicated point have a zero gap: at a zero step
        # they alone are walked, once each, by the single-neighbour walk
        tied = int((cKDTree(base).query(src)[1] < 300).sum())
        assert walked[1] == tied > 0

    def test_new_row_count_starts_afresh(self, rng):
        # every 4th row after all of them, each query at new random points
        tgt = box_cloud(rng, 300)
        cache = NeighbourCache(NNIndex(tgt), 200)
        tree = cKDTree(tgt)
        for stride in (1, 1, 4):
            moved = box_cloud(rng, 200)[::stride]
            dist, idx = cache.every(stride).query(moved)
            assert np.array_equal(idx, tree.query(moved, workers=1)[1])

    def test_freed_without_cycle_collector(self, rng):
        # a registration's cache holds a row's worth of state per source
        # point; a reference cycle would keep it until a collection
        cache = NeighbourCache(NNIndex(box_cloud(rng, 50)), 100)
        level = cache.every(8)
        level.query(box_cloud(rng, 13))
        freed = weakref.ref(cache)
        gc.disable()
        try:
            del cache, level
            assert freed() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_coarse_to_fine_levels_share_rows(self, rng, offset):
        # strides 64, 8 and 1, three small pose steps per level: each finer
        # level's first query finds the coarser level's rows cached
        tgt = box_cloud(rng, 20000) + offset
        src = tgt + rng.normal(scale=0.005, size=tgt.shape)
        strides = [64] * 3 + [8] * 3 + [1] * 3
        walked = self.walk(src, tgt, pose_walk(rng, 9, 1e-5, 1e-5), strides)
        assert walked[0] == len(src[::64])
        assert len(src[::8]) - len(src[::64]) <= walked[3] < len(src[::8])
        assert len(src) - len(src[::8]) <= walked[6] < len(src)
        assert max(walked[1:3] + walked[4:6] + walked[7:]) < 100

    def test_rows_on_their_targets_walked_once(self, rng):
        # every pair distance is 0, and so is the median that bounds the
        # full level's fresh rows: the allowance keeps them inside it
        pts = box_cloud(rng, 2000)
        walked = self.walk(pts, pts, [RigidTransform.identity()] * 2, [8, 1])
        assert walked == [len(pts[::8]), len(pts) - len(pts[::8])]

    def test_rows_far_outside_walked_without_bound(self, rng):
        # rows 100 diagonals away have no target within any bound: their
        # bounded walk finds nothing, and they are walked again without one
        tgt = box_cloud(rng, 2000)
        src = tgt + rng.normal(scale=0.01, size=tgt.shape)
        far = np.flatnonzero(rng.random(len(src)) < 0.1)
        direction = rng.normal(size=(len(far), 3))
        src[far] += 100.0 * bounds(tgt).diagonal_length() * direction \
            / np.linalg.norm(direction, axis=1)[:, None]
        walks = []
        poses = pose_walk(rng, 6, 1e-3, 1e-3)
        self.walk(src, tgt, poses, [8, 8, 1, 1, 1, 1], walks)
        empty = [int(np.isinf(dist[:, 0]).sum()) for k, bound, dist in walks
                 if k == 2 and bound < np.inf]
        # the far rows of the full level's first query, among others
        assert max(empty) >= np.setdiff1d(far, np.arange(0, len(src), 8)).size

    def test_rows_with_one_target_in_bound(self, rng):
        # lone targets 2 apart, far from the cloud, each with a source row
        # beside it: a fresh row's bound, three median pair distances, holds
        # that one; the last step, 1.2 along the line, brings the next one
        # nearer, which the bound as d2 must not hide
        tgt = box_cloud(rng, 2000)
        lone = np.c_[np.arange(5.0, 45.0, 2.0), np.zeros(20), np.zeros(20)]
        tgt = np.vstack([tgt, lone])
        src = tgt + rng.normal(scale=0.01, size=tgt.shape)
        src[-20:] = lone + [0.0, 0.004, 0.0]
        walks = []
        poses = pose_walk(rng, 9, 1e-4, 2e-3)
        poses.append(RigidTransform(poses[-1].rotation,
                                    poses[-1].translation + [1.2, 0.0, 0.0]))
        strides = [7] * 2 + [1] * 8
        self.walk(src, tgt, poses, strides, walks)
        single = sum(int((np.isfinite(dist[:, 0]) & np.isinf(dist[:, 1])).sum())
                     for k, bound, dist in walks if k == 2 and bound < np.inf)
        assert single >= 20 - len(range(len(src) - 20, len(src), 7))

    def test_duplicate_targets_through_bounded_walks(self, rng):
        # ties met by fresh rows at a finer level and by rows walked again
        base = box_cloud(rng, 4000)
        tgt = np.vstack([base, base[:1500]])
        src = base + rng.normal(scale=0.01, size=base.shape)
        walks = []
        strides = [8] * 3 + [1] * 6
        self.walk(src, tgt, pose_walk(rng, 9, 1e-3, 3e-3), strides, walks)
        bounded_ties = sum(int((dist[:, 0] == dist[:, 1]).sum())
                           for k, bound, dist in walks if k == 2 and bound < np.inf)
        assert bounded_ties > 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 101, 1000, 20000])
def test_trim_median_is_np_median(rng, n):
    # continuous, spread over ten decades, and with ties
    for values in (rng.random(n), 10.0 ** rng.uniform(-6.0, 4.0, n),
                   np.round(rng.random(n), 1)):
        assert icp._median(values) == np.median(values)


class TestCorrespond:
    def test_identity_on_identical_clouds(self, rng):
        pts = box_cloud(rng, 200)
        source_indices, target_indices = correspond(pts, NNIndex(pts))
        assert len(source_indices) == 200
        assert np.array_equal(source_indices, np.arange(200))
        assert np.array_equal(target_indices, np.arange(200))

    def test_far_outlier_rejected(self, rng):
        tgt = box_cloud(rng, 200)
        src = np.vstack([tgt, [[50.0, 50.0, 50.0]]])
        source_indices, _ = correspond(src, NNIndex(tgt))
        # brute-force check of the trim rule
        moved = src
        diffs = np.linalg.norm(moved[:, None, :] - tgt[None, :, :], axis=2)
        dist = diffs.min(axis=1)
        keep = dist <= icp.TRIM_MULTIPLIER * np.median(dist)
        assert np.array_equal(source_indices, np.flatnonzero(keep))
        assert 200 not in source_indices

    def test_too_few_pairs(self):
        # pair distances 0.1, 0.1 and 10: the third is beyond 3 x median,
        # so two pairs survive the trim
        src = np.array([[0.1, 0, 0], [1.1, 0, 0], [0, 11, 0]])
        tgt = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(TooFewPairsError):
            correspond(src, NNIndex(tgt))


class TestIcpRegister:
    def test_identical_clouds_one_iteration(self, rng):
        pts = box_cloud(rng, 300)
        res = icp_register(pts, pts)
        assert res.iterations == 1
        assert res.converged
        assert res.rms < 1e-12
        assert np.abs(res.transform.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(res.transform.translation).max() < 1e-12

    def test_recovers_small_rigid_motion(self, rng):
        pts = box_cloud(rng, 600)
        rot = rodrigues([0.0, 0.0, 1.0], np.deg2rad(10.0))
        shift = np.array([0.3, 0.0, 0.0])
        tgt = pts @ rot.T + shift
        res = icp_register(pts, tgt)
        assert res.converged
        assert rotation_angle_between(res.transform.rotation, rot) < 1e-6
        assert np.abs(res.transform.translation - shift).max() < 1e-6
        assert res.rms < 1e-9

    def test_noise_floor_band(self):
        # gaussian per-axis sigma on the target copy: final RMS within
        # [0.8, 1.5] x sigma * sqrt(3) for 2000 points, 20 seeds
        sigma = 0.01
        for seed in range(20):
            rng = np.random.default_rng(seed + 77)
            pts = rng.uniform(-1, 1, size=(2000, 3))
            tgt = pts + rng.normal(scale=sigma, size=pts.shape)
            res = icp_register(pts, tgt)
            floor = sigma * np.sqrt(3.0)
            assert 0.8 * floor <= res.rms <= 1.5 * floor, (seed, res.rms / floor)

    def test_scale_mismatch_leaves_large_residual(self, rng):
        # the motivating failure: 2.5x scale gap is not a rigid motion
        pts = box_cloud(rng, 800)
        sigma = 0.002
        tgt = 2.5 * pts + rng.normal(scale=sigma, size=pts.shape)
        res = icp_register(pts, tgt)
        assert res.rms > 10.0 * sigma * np.sqrt(3.0)

    def test_deterministic(self, rng):
        pts = box_cloud(rng, 400)
        tgt = pts @ rodrigues([1, 1, 0], 0.1).T + 0.05
        a = icp_register(pts, tgt)
        b = icp_register(pts, tgt)
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert np.array_equal(a.rms_trace, b.rms_trace)
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("seed, points", [(3, 3000), (5, 2000), (7, 5000)])
    def test_duplicated_target_same_result(self, seed, points):
        # every target point stored twice: which copy a tied walk picks
        # must never reach the result
        scene = build_scene(SynthSpec(scale=1.0, rotation_deg=5.0, points=points,
                                      seed=seed))
        src, tgt = scene.source.points, scene.target.points
        doubled = np.vstack([tgt, tgt])
        once = icp_register(src, tgt)
        twice = icp_register(src, doubled)
        assert np.array_equal(once.transform.rotation, twice.transform.rotation)
        assert np.array_equal(once.transform.translation, twice.transform.translation)
        assert np.array_equal(once.rms_trace, twice.rms_trace)
        assert (once.iterations, once.converged) == (twice.iterations, twice.converged)
        assert np.array_equal(once.source_indices, twice.source_indices)
        assert np.array_equal(tgt[once.theta], doubled[twice.theta])

    def test_theta_indices_valid(self, rng):
        src = box_cloud(rng, 200)
        tgt = box_cloud(rng, 150)
        res = icp_register(src, tgt)
        assert res.theta.min() >= 0
        assert res.theta.max() < 150
        assert res.source_indices.shape == res.theta.shape

    def test_tiny_clouds_rejected(self):
        with pytest.raises(TooFewPairsError):
            icp_register(np.zeros((2, 3)), np.zeros((5, 3)))

    def test_init_changes_first_correspondences_only(self, rng):
        # with a perfect init the solver stays at the optimum
        pts = box_cloud(rng, 300)
        rot = rodrigues([0.2, 1.0, 0.1], np.deg2rad(25.0))
        shift = np.array([0.5, -0.2, 0.1])
        tgt = pts @ rot.T + shift
        init = RigidTransform(rot, shift)
        res = icp_register(pts, tgt, init=init)
        assert res.converged
        assert rotation_angle_between(res.transform.rotation, rot) < 1e-9

    def test_pose_step_is_the_only_stop(self, monkeypatch):
        # with no pose step small enough, a flat RMS must not stop the loop
        monkeypatch.setattr(icp, "ROTATION_TOL", 0.0)
        monkeypatch.setattr(icp, "TRANSLATION_TOL", 0.0)
        scene = build_scene(SynthSpec(scale=1.0, rotation_deg=5.0, seed=3))
        res = icp_register(scene.source.points, scene.target.points)
        assert res.iterations == icp.MAX_ITERATIONS
        assert res.converged is False


def layout_scene(rng, kind):
    if kind == "box":
        pts = box_cloud(rng, 500)
        return pts, pts @ rodrigues([1.0, 1.0, 0.0], 0.1).T + 0.05
    return dense_scene(rng)


class TestLayouts:
    @pytest.mark.parametrize("kind", ["box", "dense"])
    def test_icp_register_same_for_any_layout(self, rng, kind):
        pts, tgt = layout_scene(rng, kind)
        ref = icp_register(pts, tgt)
        for src_view, tgt_view in zip(layouts(pts), layouts(tgt)):
            assert_same_result(icp_register(src_view, tgt_view), ref)

    @pytest.mark.parametrize("kind", ["box", "dense"])
    def test_umeyama_align_same_for_any_layout(self, rng, kind):
        pts, tgt = layout_scene(rng, kind)
        ref = umeyama_align(pts, tgt)
        for src_view, tgt_view in zip(layouts(pts), layouts(tgt)):
            out = umeyama_align(src_view, tgt_view)
            assert np.array_equal(out.rotation, ref.rotation)
            assert np.array_equal(out.translation, ref.translation)


def pyramid_icp(src, tgt):
    """The coarse levels and the full-resolution stage chained through the
    uncached ``single_stage_icp``: each level, capped at the same 100
    iterations as full resolution, seeds the next, converged or not."""
    current = None
    for stride in icp.coarse_strides(len(src)):
        current = single_stage_icp(src[::stride], tgt, init=current,
                                   tol_factor=icp.COARSE_TOL_FACTOR).transform
    return single_stage_icp(src, tgt, init=current)


class TestCoarseStage:
    def test_below_threshold_is_single_stage(self, rng, caplog):
        pts, tgt = dense_scene(rng, 2040)
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(pts, tgt)
        plain = single_stage_icp(pts, tgt)
        assert_same_result(res, plain)
        assert [r.getMessage() for r in caplog.records] == [
            f"icp level stride 1: {plain.iterations} iterations on 2040 of 2040 "
            "points, converged"]

    @pytest.mark.parametrize("n, strides", [
        (8191, [8]), (8192, [8]),
        (64 * 255, [8]), (64 * 255 + 1, [64, 8]), (20000, [64, 8]),
        (50000, [64, 8]), (512 * 256, [512, 64, 8]), (5000, [8]),
        (2040, []), (2041, [8])])
    def test_schedule_by_size(self, n, strides):
        # a level keeps at least COARSE_MIN_LEVEL_POINTS points
        assert icp.coarse_strides(n) == strides
        assert all(len(range(0, n, s)) >= icp.COARSE_MIN_LEVEL_POINTS
                   for s in strides)

    def test_capped_levels_chain_their_poses(self, rng, monkeypatch, caplog):
        # every pyramid level is capped at one iteration
        pts, tgt = dense_scene(rng)
        loop, cap = icp._icp_loop, icp.MAX_ITERATIONS

        def capped_levels(src, *args):
            monkeypatch.setattr(icp, "MAX_ITERATIONS", 1 if src.shape[1] < len(pts) else cap)
            return loop(src, *args)

        monkeypatch.setattr(icp, "_icp_loop", capped_levels)
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(pts, tgt)
        current = None
        for stride in (64, 8):
            current = single_stage_icp(pts[::stride], tgt, init=current,
                                       max_iterations=1,
                                       tol_factor=icp.COARSE_TOL_FACTOR).transform
        full = single_stage_icp(pts, tgt, init=current)
        assert_same_result(res, full)
        assert [r.getMessage() for r in caplog.records] == [
            "icp level stride 64: 1 iterations on 313 of 20000 points, unconverged",
            "icp level stride 8: 1 iterations on 2500 of 20000 points, unconverged",
            f"icp level stride 1: {full.iterations} iterations on 20000 of 20000 "
            "points, converged"]

    def test_unconverged_level_seeds_next(self, rng, monkeypatch, caplog):
        # only the stride-64 level is capped at one iteration
        pts, tgt = dense_scene(rng)
        init = RigidTransform(rodrigues([1.0, 0.0, 0.0], np.deg2rad(2.0)),
                              np.array([0.03, 0.0, 0.0]))
        loop, cap = icp._icp_loop, icp.MAX_ITERATIONS
        seeds, poses = {}, {}

        def capped_top(src, cache, current, *tols):
            seeds[src.shape[1]] = current
            monkeypatch.setattr(icp, "MAX_ITERATIONS",
                                1 if src.shape[1] == len(pts[::64]) else cap)
            out = loop(src, cache, current, *tols)
            poses[src.shape[1]] = out[0]
            return out

        monkeypatch.setattr(icp, "_icp_loop", capped_top)
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(pts, tgt, init=init)
        messages = [r.getMessage() for r in caplog.records]
        assert messages[0] == ("icp level stride 64: 1 iterations on 313 of "
                               "20000 points, unconverged")
        assert messages[1].startswith("icp level stride 8:")
        assert messages[1].endswith("on 2500 of 20000 points, converged")
        assert messages[2].startswith("icp level stride 1:")
        assert messages[2].endswith("on 20000 of 20000 points, converged")
        assert seeds[313] is init
        assert seeds[2500] is poses[313]
        assert not np.array_equal(poses[313].rotation, init.rotation)
        top = single_stage_icp(pts[::64], tgt, init=init, max_iterations=1,
                               tol_factor=icp.COARSE_TOL_FACTOR)
        assert not top.converged
        level = single_stage_icp(pts[::8], tgt, init=top.transform,
                                 tol_factor=icp.COARSE_TOL_FACTOR)
        assert_same_result(res, single_stage_icp(pts, tgt, init=level.transform))

    def test_coarse_pose_seeds_full_resolution(self, rng, caplog):
        pts, tgt = dense_scene(rng)
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(pts, tgt)
        plain = single_stage_icp(pts, tgt)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 3
        top, middle, last = (r.getMessage() for r in caplog.records)
        assert top.startswith("icp level stride 64: ")
        assert top.endswith(" on 313 of 20000 points, converged")
        assert middle.startswith("icp level stride 8: ")
        assert middle.endswith(" on 2500 of 20000 points, converged")
        assert last == (f"icp level stride 1: {res.iterations} iterations on "
                        "20000 of 20000 points, converged")
        assert res.converged
        assert len(res.rms_trace) == res.iterations < plain.iterations
        assert np.abs(res.transform.rotation - plain.transform.rotation).max() < 1e-4
        assert np.abs(res.transform.translation
                      - plain.transform.translation).max() < 1e-4

    def test_kept_coarse_pose_same_as_uncached_loops(self, rng, caplog):
        pts, tgt = dense_scene(rng)
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(pts, tgt)
        assert all(r.getMessage().endswith(", converged") for r in caplog.records)
        assert_same_result(res, pyramid_icp(pts, tgt))

    def test_mid_size_source_takes_one_level(self, rng, caplog):
        # 5000 points: one stride-8 level of 625 points, then the stride-1 level
        pts, tgt = dense_scene(rng, 5000)
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(pts, tgt)
        level, last = (r.getMessage() for r in caplog.records)
        assert level.startswith("icp level stride 8: ")
        assert level.endswith(" on 625 of 5000 points, converged")
        assert last == (f"icp level stride 1: {res.iterations} iterations on "
                        "5000 of 5000 points, converged")
        assert_same_result(res, pyramid_icp(pts, tgt))

    def test_large_source_levels_converge(self, caplog):
        # a 100 000-point rigid scene, its target offset cut to a tenth as in
        # the rigid-dense benchmark: levels capped at 30 iterations both
        # stopped unconverged and were dropped, and full resolution then ran
        # 58 iterations from the identity
        scene = build_scene(SynthSpec(scale=1.0, rotation_deg=5.0, points=100000,
                                      outlier_fraction=0.3, seed=1000))
        truth = scene.ground_truth
        mu = scene.source.points.mean(axis=0)
        offset = truth.translation - truth.scale * (mu - truth.rotation @ mu)
        tgt = scene.target.points - 0.9 * offset
        with caplog.at_level(logging.DEBUG, logger="pcr"):
            res = icp_register(scene.source.points, tgt)
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split(":")[0] for m in messages] == [
            "icp level stride 64", "icp level stride 8", "icp level stride 1"]
        assert all(m.endswith(", converged") for m in messages)
        assert res.converged and res.iterations < 40
        assert rotation_angle_between(res.transform.rotation, truth.rotation) < np.deg2rad(0.5)

    def test_full_resolution_rows_mostly_cached(self, rng, monkeypatch):
        pts, tgt = dense_scene(rng)
        n = len(pts)
        walked = []   # rows walked per cache query
        starts = []   # the first cache query of each level
        query, cached, loop = NNIndex.query, NeighbourCache.query, icp._icp_loop

        def counted(self, queries, k=1, bound=np.inf):
            walked[-1] += len(queries)
            return query(self, queries, k, bound)

        def counted_cache(self, moved):
            walked.append(0)
            return cached(self, moved)

        def level(src, *args):
            starts.append(len(walked))
            return loop(src, *args)

        monkeypatch.setattr(NNIndex, "query", counted)
        monkeypatch.setattr(NeighbourCache, "query", counted_cache)
        monkeypatch.setattr(icp, "_icp_loop", level)
        res = icp_register(pts, tgt)
        full = walked[starts[-1]:]
        assert res.iterations >= 2
        assert sum(full) <= 2 * n
        # the stride-8 level's rows arrive cached
        assert full[0] < n

    def test_one_iteration_cap_warns_and_exits_0(self, tmp_path, rng, capsys,
                                                 caplog, monkeypatch):
        # each coarse level's cap becomes 1 too; its unconverged pose is
        # kept and seeds the next level, and only full resolution warns
        monkeypatch.setattr(icp, "MAX_ITERATIONS", 1)
        pts, tgt = dense_scene(rng, 8292)
        write_ply(Cloud(points=pts), tmp_path / "a.ply")
        write_ply(Cloud(points=tgt), tmp_path / "b.ply")
        report = tmp_path / "r.json"
        with caplog.at_level(logging.WARNING, logger="pcr"):
            code = cli.main(["register", "--source", str(tmp_path / "a.ply"),
                             "--target", str(tmp_path / "b.ply"),
                             "--out", str(report), "--no-scale"])
        assert code == 0
        assert report.exists()
        assert "iterations: 1" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records] == [
            "stage icp: ICP stopped unconverged after 1 iterations"]
