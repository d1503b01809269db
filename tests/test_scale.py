import warnings

import numpy as np
import pytest

from pcr.cloudio import CameraIntrinsics, Matches
from pcr.errors import DegenerateGeometryError, InsufficientMatchesError
from pcr.scale import (DETECT_TOLERANCE, depth_consistent_indices, detect_scale,
                       estimate_scale_kalman)

from conftest import rodrigues

K = CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5)


def bounded_rotation(rng, max_deg=20.0):
    """Rotation small enough to keep scene points in front of both cameras."""
    axis = rng.normal(size=3)
    return rodrigues(axis, np.deg2rad(rng.uniform(2.0, max_deg)))


def make_matches(rng, rot, tvec, scale, n=60, intrinsics=K, depth_noise=0.0,
                 pixel_noise=0.0):
    """Matches generated from a known similarity map between camera frames."""
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    pts[:, 2] += 4.0
    qts = scale * (pts @ rot.T) + tvec
    assert (qts[:, 2] > 0).all(), "scene construction left points behind the camera"
    rows = []
    for (us, vs), (ut, vt), ds, dt in zip(intrinsics.project(pts), intrinsics.project(qts),
                                          pts[:, 2], qts[:, 2]):
        if pixel_noise:
            us += rng.normal(scale=pixel_noise)
            vs += rng.normal(scale=pixel_noise)
            ut += rng.normal(scale=pixel_noise)
            vt += rng.normal(scale=pixel_noise)
        if depth_noise:
            ds *= 1.0 + depth_noise * rng.normal()
            dt *= 1.0 + depth_noise * rng.normal()
        rows.append((us, vs, ds, ut, vt, dt))
    return Matches(rows)


def with_target_depths(matches, depths):
    """``matches`` with its target depths replaced by ``depths``."""
    return Matches(np.column_stack([matches.source_pixels, matches.source_depths,
                                    matches.target_pixels, depths]))


def scale_least_squares(source_pts, target_pts, rel_rot, t_dir) -> tuple[float, float]:
    """Closed-form (scale, translation magnitude) along a fixed direction: the
    paper's Kalman measurement, kept as the oracle of the scale stage.

    Minimizes sum_i |s * R @ p_i + alpha * t_dir - q_i|^2 via the 2x2 normal
    equations in (s, alpha), for (n, 3) point arrays and a unit ``t_dir``.
    """
    rotated = source_pts @ rel_rot.T
    n = source_pts.shape[0]
    sq = float((rotated * rotated).sum())
    cross = float((rotated * target_pts).sum())
    a12 = float(rotated.sum(axis=0) @ t_dir)
    b2 = float(target_pts.sum(axis=0) @ t_dir)
    det = sq * n - a12 * a12
    return (n * cross - a12 * b2) / det, (sq * b2 - a12 * cross) / det


class TestDetectScale:
    def test_identical_clouds(self, rng):
        pts = rng.normal(size=(100, 3))
        det = detect_scale(pts, pts)
        assert det.ratio == 1.0
        assert not det.differs

    def test_scaled_cloud(self, rng):
        pts = rng.normal(size=(100, 3))
        det = detect_scale(pts, 2.5 * pts)
        assert det.ratio == pytest.approx(2.5, rel=1e-12)
        assert det.differs

    def test_single_point_source(self):
        one = np.array([[1.0, 2.0, 3.0]])
        other = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(DegenerateGeometryError):
            detect_scale(one, other)

    def test_tolerance_boundary(self, rng, monkeypatch):
        pts = rng.normal(size=(50, 3))
        near = 1.05 * pts
        assert DETECT_TOLERANCE == 0.1
        det = detect_scale(pts, near)
        assert not det.differs
        monkeypatch.setattr("pcr.scale.DETECT_TOLERANCE", 0.01)
        det = detect_scale(pts, near)
        assert det.differs


class TestBackproject:
    def test_principal_point_unit_depth(self):
        out = K.backproject([[K.cx, K.cy]], [1.0])
        assert np.allclose(out, [[0.0, 0.0, 1.0]], atol=0.0)

    def test_hand_computed_point(self):
        k = CameraIntrinsics(fx=500.0, fy=500.0, cx=250.0, cy=250.0)
        out = k.backproject([[750.0, 250.0]], [2.0])
        assert np.allclose(out, [[2.0, 0.0, 2.0]], atol=0.0)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            K.backproject([[10.0, 10.0]], [0.0])

    def test_projection_inverts_backprojection(self, rng):
        px = np.column_stack([rng.uniform(0, 640, 100), rng.uniform(0, 480, 100)])
        d = rng.uniform(0.3, 20.0, 100)
        assert np.abs(K.project(K.backproject(px, d)) - px).max() < 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_batch_with_one_bad_depth_rejected(self, rng, bad):
        px = rng.uniform(0, 480, size=(20, 2))
        d = rng.uniform(0.3, 20.0, 20)
        d[7] = bad
        with pytest.raises(ValueError, match="depth"):
            K.backproject(px, d)

    @pytest.mark.parametrize("depth", [0.0, -2.0])
    def test_batch_with_one_point_behind_rejected(self, rng, depth):
        pts = rng.uniform(-1.0, 1.0, size=(20, 3))
        pts[:, 2] += 4.0
        pts[11, 2] = depth
        with pytest.raises(ValueError, match="in front"):
            K.project(pts)

    def test_one_depth_per_pixel(self, rng):
        # one depth is not broadcast to five pixels
        px = rng.uniform(0, 480, size=(5, 2))
        with pytest.raises(ValueError, match="one depth per pixel"):
            K.backproject(px, [2.0])
        with pytest.raises(ValueError, match="one depth per pixel"):
            K.backproject(px, np.ones((5, 1)))

    @pytest.mark.parametrize("pixels", [np.ones((3, 3)), np.ones(2), np.ones((2, 1)),
                                        [[np.nan, 1.0]], [[1.0, np.inf]]])
    def test_malformed_pixels_rejected(self, pixels):
        with pytest.raises(ValueError, match="pixels"):
            K.bearings(pixels)
        with pytest.raises(ValueError, match="pixels"):
            K.backproject(pixels, np.ones(len(pixels)))

    @pytest.mark.parametrize("points", [np.ones((4, 2)), np.ones(3), [[0.0, np.nan, 1.0]]])
    def test_project_takes_points_rule(self, points):
        with pytest.raises(ValueError, match=r"\(n, 3\)|finite"):
            K.project(points)

    def test_bearings_are_unit_depth_rays_normalised(self, rng):
        px = rng.uniform(-200.0, 900.0, size=(50, 2))
        rays = K.bearings(px)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(rays / rays[:, 2:], K.backproject(px, np.ones(50)),
                           rtol=0, atol=1e-12)


class TestScaleLeastSquares:
    def test_pure_rotation_gives_unit_scale(self, rng):
        rot = bounded_rotation(rng)
        pts = rng.normal(size=(20, 3))
        tdir = rng.normal(size=3)
        tdir /= np.linalg.norm(tdir)
        s, alpha = scale_least_squares(pts, pts @ rot.T, rot, tdir)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_scale_and_alpha(self, rng):
        rot = bounded_rotation(rng)
        tdir = rng.normal(size=3)
        tdir /= np.linalg.norm(tdir)
        pts = rng.normal(size=(30, 3))
        tgt = 2.5 * (pts @ rot.T) + 0.7 * tdir
        s, alpha = scale_least_squares(pts, tgt, rot, tdir)
        assert s == pytest.approx(2.5, abs=1e-9)
        assert alpha == pytest.approx(0.7, abs=1e-9)


def noisy_scene(seed):
    """Backprojected matches of a noisy s = 2.5 scene, with its rotation and
    translation."""
    local = np.random.default_rng(seed)
    rot = bounded_rotation(local)
    tvec = local.normal(size=3)
    matches = make_matches(local, rot, tvec, 2.5, n=100,
                           depth_noise=0.01, pixel_noise=0.5)
    src, tgt = matches.points(K, K)
    return matches, src, tgt, rot, tvec


def reference_filter_loop(src, tgt, rot, tdir, state, tolerance=1e-12,
                          max_iterations=50_000):
    """The scalar Kalman filter the closed form replaces, run to ``tolerance``.

    Each step measures the (scale, alpha) least squares along ``tdir``,
    re-aims ``tdir`` from that measurement's own residual, and feeds the
    measurement to a constant-state predict/update step (prior variance 1,
    process noise 1e-6, measurement noise 1e-2).
    """
    variance = 1.0
    for _ in range(max_iterations):
        measurement, _ = scale_least_squares(src, tgt, rot, tdir)
        residual = (tgt - measurement * (src @ rot.T)).mean(axis=0)
        tdir = residual / np.linalg.norm(residual)
        predicted = variance + 1e-6
        gain = predicted / (predicted + 1e-2)
        new_state = state + gain * (measurement - state)
        variance = (1.0 - gain) * predicted
        done = abs(new_state - state) < tolerance
        state = new_state
        if done:
            return state, (tgt - state * (src @ rot.T)).mean(axis=0)
    raise AssertionError("reference filter did not converge")


def far_depth_pairs(factor):
    """``noisy_scene(5)``'s clean pairs, its pairs with match 17's target
    depth scaled by ``factor`` (its pixels kept), and its rotation."""
    matches, src, tgt, rot, _ = noisy_scene(5)
    depths = matches.target_depths.copy()
    depths[17] *= factor
    return (src, tgt), with_target_depths(matches, depths).points(K, K), rot


def joint_least_squares(src, tgt, rot):
    """(s, t) minimizing sum |s R p_i + t - q_i|^2, as one 3n x 4 system."""
    n = src.shape[0]
    design = np.zeros((3 * n, 4))
    design[:, 0] = (src @ rot.T).reshape(-1)
    design[:, 1:] = np.tile(np.eye(3), (n, 1))
    (s, *t), *_ = np.linalg.lstsq(design, tgt.reshape(-1), rcond=None)
    return s, np.array(t)


class TestKalman:
    def test_noiseless_scale_recovery(self, rng):
        rot = bounded_rotation(rng)
        tvec = np.array([0.8, -0.2, 0.5])
        matches = make_matches(rng, rot, tvec, 2.5)
        est = estimate_scale_kalman(*matches.points(K, K), rot)
        assert est.converged
        assert est.scale == pytest.approx(2.5, abs=1e-6)
        assert np.allclose(est.translation, tvec, atol=1e-6)

    def test_unit_scale_case(self, rng):
        rot = bounded_rotation(rng)
        tvec = np.array([0.3, 0.1, -0.4])
        matches = make_matches(rng, rot, tvec, 1.0)
        est = estimate_scale_kalman(*matches.points(K, K), rot)
        assert est.scale == pytest.approx(1.0, abs=1e-6)

    def test_scale_equivariance_in_target_depths(self, rng):
        rot = bounded_rotation(rng)
        tvec = np.array([0.4, 0.4, -0.1])
        matches = make_matches(rng, rot, tvec, 2.0)
        lam = 1.7
        scaled = with_target_depths(matches, matches.target_depths * lam)
        est_a = estimate_scale_kalman(*matches.points(K, K), rot)
        est_b = estimate_scale_kalman(*scaled.points(K, K), rot)
        assert est_b.scale == pytest.approx(lam * est_a.scale, abs=1e-6 * lam * est_a.scale)

    def test_noisy_recovery_within_two_percent(self, rng):
        # pixel/depth noise at 1 percent of depth scale, 100 matches, 50 seeds
        hits = 0
        for seed in range(50):
            local = np.random.default_rng(seed)
            rot = bounded_rotation(local)
            tvec = local.normal(size=3)
            tvec /= np.linalg.norm(tvec)
            matches = make_matches(local, rot, tvec, 2.5, n=100,
                                   depth_noise=0.01, pixel_noise=0.5)
            est = estimate_scale_kalman(*matches.points(K, K), rot)
            if abs(est.scale / 2.5 - 1.0) < 0.02:
                hits += 1
        assert hits >= 48  # 95% of 50 seeds, with one seed of slack

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_iteration_least_squares_loop(self, seed):
        # the closed form is the limit of the filter it replaces
        matches, src, tgt, rot, tvec = noisy_scene(seed)
        state, translation = reference_filter_loop(
            src, tgt, rot, tvec / np.linalg.norm(tvec), state=2.0)
        est = estimate_scale_kalman(src, tgt, rot)
        assert est.scale == pytest.approx(state, rel=1e-9)
        assert np.allclose(est.translation, translation, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_joint_least_squares_oracle(self, seed):
        matches, src, tgt, rot, tvec = noisy_scene(seed)
        s, t = joint_least_squares(src, tgt, rot)
        est = estimate_scale_kalman(src, tgt, rot)
        assert est.scale == pytest.approx(s, rel=1e-12)
        assert np.allclose(est.translation, t, rtol=1e-12, atol=0)

    def test_estimate_alone_does_not_trim(self):
        # the estimate fits every pair it is given, the far one included
        _, (src, tgt), rot = far_depth_pairs(1.5)
        s, t = joint_least_squares(src, tgt, rot)
        est = estimate_scale_kalman(src, tgt, rot)
        assert est.scale == pytest.approx(s, rel=1e-12)
        assert np.allclose(est.translation, t, rtol=1e-12, atol=0)

    def test_requires_three_matches_with_depths(self, rng):
        rot = np.eye(3)
        records = Matches(np.tile([1.0, 2.0, np.nan, 3.0, 4.0, np.nan], (5, 1)))
        with pytest.raises(InsufficientMatchesError):
            estimate_scale_kalman(*records[records.has_depths].points(K, K), rot)

    def test_coincident_source_points_rejected(self):
        # one source pixel and depth seen at three target positions: the
        # source spread is zero, so no scale is observable
        records = Matches([(100.0, 120.0, 3.0, 200.0 + 10 * i, 140.0, 4.0 + i)
                           for i in range(3)])
        with pytest.raises(DegenerateGeometryError, match="coincide"):
            estimate_scale_kalman(*records.points(K, K), np.eye(3))

    def test_reflected_target_rejected(self, rng):
        # the source reflected through its centroid: s* = -1
        src = rng.uniform(-1.0, 1.0, size=(20, 3)) + [0.0, 0.0, 4.0]
        tgt = 2.0 * src.mean(axis=0) - src
        with pytest.raises(DegenerateGeometryError, match="scale is nonpositive"):
            estimate_scale_kalman(src, tgt, np.eye(3))


class TestDepthConsistency:
    def test_keeps_clean_matches(self, rng):
        rot = bounded_rotation(rng)
        matches = make_matches(rng, rot, [0.5, 0.1, 0.2], 2.5, n=40)
        kept = depth_consistent_indices(*matches.points(K, K), rot)
        assert len(kept) == 40

    def test_rejects_depth_corrupted_rows(self, rng):
        rot = bounded_rotation(rng)
        matches = make_matches(rng, rot, [0.5, 0.1, 0.2], 2.5, n=40)
        depths = matches.target_depths.copy()
        depths[3] *= 3.0
        matches = with_target_depths(matches, depths)
        kept = depth_consistent_indices(*matches.points(K, K), rot)
        assert 3 not in kept
        assert len(kept) == 39

    @pytest.mark.parametrize("factor", [0.6, 1.5])
    def test_far_residual_match_is_trimmed(self, factor):
        # the gate drops the far pair, and the estimate over the gate's
        # pairs equals the joint least squares over the other 99
        (src, tgt), (src_bad, tgt_bad), rot = far_depth_pairs(factor)
        kept = depth_consistent_indices(src_bad, tgt_bad, rot)
        others = np.delete(np.arange(100), 17)
        assert np.array_equal(kept, others)
        s, t = joint_least_squares(src[others], tgt[others], rot)
        est = estimate_scale_kalman(src_bad[kept], tgt_bad[kept], rot)
        assert est.scale == pytest.approx(s, rel=1e-12)
        assert np.allclose(est.translation, t, rtol=1e-12, atol=0)

    def test_residual_rule_trims_what_the_ratio_rule_keeps(self, monkeypatch):
        # with the distance-ratio rule keeping every pair, the residual rule
        # alone drops the far pair
        from pcr import scale
        _, (src, tgt), rot = far_depth_pairs(1.5)
        monkeypatch.setattr(scale, "_ratio_consistent", lambda p, q: np.arange(len(p)))
        kept = depth_consistent_indices(src, tgt, rot)
        assert np.array_equal(kept, np.delete(np.arange(100), 17))

    @pytest.mark.parametrize("n", [0, 2])
    def test_fewer_than_three_pairs_all_kept(self, rng, n):
        src = rng.uniform(-1.0, 1.0, size=(n, 3))
        assert np.array_equal(depth_consistent_indices(src, 3.0 * src, np.eye(3)),
                              np.arange(n))

    def test_coincident_source_points_refused(self, rng):
        # every distance ratio divides by zero, so no row median is finite
        # and every pair reaches the residual fit, which has no scale to see
        src = np.tile([0.5, -0.2, 4.0], (6, 1))
        tgt = rng.uniform(-1.0, 1.0, size=(6, 3))
        with pytest.raises(DegenerateGeometryError, match="source match points coincide"):
            depth_consistent_indices(src, tgt, np.eye(3))

    def test_fewer_than_three_in_band_keep_every_pair(self):
        # ratios 1 (pairs 0-1 and 0-2) and sqrt 2 (pairs 1-2): row medians
        # 1, 1.207 and 1.207, so the band about 1.207 (scatter 0, width
        # GATE_MIN_BAND x 1.207) holds only rows 1 and 2
        src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        tgt = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.array_equal(depth_consistent_indices(src, tgt, np.eye(3)), [0, 1, 2])

    def test_row_median_matches_numpy_nanmedian(self, rng):
        from pcr.scale import _row_nanmedian
        for rows, cols in ((140, 140), (7, 1), (30, 2), (25, 61)):
            values = rng.uniform(2.0, 3.0, size=(rows, cols))
            values[rng.random((rows, cols)) < 0.2] = np.nan
            values[rows // 2] = np.nan
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = np.nanmedian(values, axis=1)
            assert np.array_equal(_row_nanmedian(values), expected, equal_nan=True)

    @pytest.mark.parametrize("n", [139, 1200])
    def test_pair_distances_bit_equal_to_norm_form(self, rng, monkeypatch, n):
        # 139 matches take every column; past 500 the gate subsamples them
        from pcr import scale
        rot = bounded_rotation(rng)
        matches = make_matches(rng, rot, [0.5, 0.1, 0.2], 2.5, n=n, depth_noise=0.02)
        cols = np.arange(n)
        if n > 500:
            cols = cols[:: (n + 499) // 500]
        for pts in matches.points(K, K):
            expected = np.linalg.norm(pts[:, None, :] - pts[None, cols, :], axis=2)
            assert np.array_equal(scale._pair_distances(pts, cols), expected)
        kept = depth_consistent_indices(*matches.points(K, K), rot)
        monkeypatch.setattr(scale, "_pair_distances", lambda pts, cols: np.linalg.norm(
            pts[:, None, :] - pts[None, cols, :], axis=2))
        assert np.array_equal(depth_consistent_indices(*matches.points(K, K), rot), kept)
