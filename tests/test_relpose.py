import math

import numpy as np
import pytest

from pcr.cloudio import CameraIntrinsics, Matches
from pcr import relpose
from pcr.errors import (AmbiguousDecompositionError, DegenerateGeometryError,
                        InsufficientMatchesError, NoConsensusError, RegistrationError)
from pcr.geom import RigidTransform, bounds
from pcr.relpose import (RelativePose, angular_threshold, decompose_and_disambiguate,
                         epipolar_residuals, essential_from_rays, ransac_relative_pose)
from pcr.synth import SynthSpec, build_scene

from conftest import register_scene, rodrigues, rotation_angle_between

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


def skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def pixel_matches(source_pixels, target_pixels):
    """Matches of (n, 2) pixel arrays, without depths."""
    unknown = np.full((len(source_pixels), 1), np.nan)
    return Matches(np.hstack([source_pixels, unknown, target_pixels, unknown]))


def two_view_scene(rng, n=200, rot_deg=12.0, pixel_noise=0.0, outliers=0.0,
                   baseline=1.0):
    """Synthetic calibrated two-view geometry with known relative pose."""
    pts = rng.uniform([-2.5, -2.0, 3.0], [2.5, 2.0, 7.0], size=(n, 3))
    axis = rng.normal(size=3)
    rot = rodrigues(axis, np.deg2rad(rot_deg))
    tvec = rng.normal(size=3)
    tvec = baseline * tvec / np.linalg.norm(tvec)
    qts = pts @ rot.T + tvec
    assert (qts[:, 2] > 0.1).all()

    pixels = []
    n_out = int(np.floor(outliers * n + 0.5))
    out_rows = set(rng.choice(n, size=n_out, replace=False).tolist()) if n_out else set()
    for i, ((us, vs), (ut, vt)) in enumerate(zip(K.project(pts), K.project(qts))):
        if pixel_noise:
            us += rng.normal(scale=pixel_noise)
            vs += rng.normal(scale=pixel_noise)
            ut += rng.normal(scale=pixel_noise)
            vt += rng.normal(scale=pixel_noise)
        if i in out_rows:
            ut = rng.uniform(0.0, 640.0)
            vt = rng.uniform(0.0, 480.0)
        pixels.append((us, vs, ut, vt))
    pixels = np.array(pixels)
    return pixel_matches(pixels[:, :2], pixels[:, 2:]), rot, tvec / np.linalg.norm(tvec), sorted(out_rows)


def rays_of(matches):
    return K.bearings(matches.source_pixels), K.bearings(matches.target_pixels)


class TestAngularThreshold:
    def test_hand_value_one_pixel(self):
        # 1 - cos(arctan(1/500)) evaluated numerically
        assert angular_threshold(1.0, 500.0) == pytest.approx(2.0e-6, rel=1e-3)

    def test_forty_five_degrees(self):
        assert angular_threshold(7.0, 7.0) == pytest.approx(1.0 - np.cos(np.pi / 4))

    def test_monotone_in_psi_and_focal(self):
        psis = np.linspace(0.1, 50.0, 40)
        values = [angular_threshold(p, 400.0) for p in psis]
        assert (np.diff(values) > 0).all()
        focals = np.linspace(100.0, 2000.0, 40)
        values = [angular_threshold(2.0, f) for f in focals]
        assert (np.diff(values) < 0).all()

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            angular_threshold(0.0, 100.0)
        with pytest.raises(ValueError):
            angular_threshold(1.0, 0.0)
        for psi, focal in ((math.nan, 500.0), (math.inf, 500.0),
                           (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                angular_threshold(psi, focal)


class TestEpipolarResiduals:
    def test_epipolar_residual_formula(self, rng):
        # residual is 1 - cos(angle between ray_t and the epipolar plane)
        e = rng.normal(size=(3, 3))
        rays_s = rng.normal(size=(30, 3))
        rays_s /= np.linalg.norm(rays_s, axis=1, keepdims=True)
        rays_t = rng.normal(size=(30, 3))
        rays_t /= np.linalg.norm(rays_t, axis=1, keepdims=True)
        got = epipolar_residuals(e, rays_s, rays_t)
        for i in range(30):
            normal = e @ rays_s[i]
            normal = normal / np.linalg.norm(normal)
            sin_to_plane = abs(rays_t[i] @ normal)
            expected = 1.0 - np.sqrt(1.0 - min(1.0, sin_to_plane**2))
            assert got[i] == pytest.approx(expected, abs=1e-15)

    def test_ray_through_epipole_scores_zero(self):
        e = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        null_ray = np.array([[0.0, 0.0, 1.0]])  # E @ ray = 0
        other = np.array([[0.6, 0.0, 0.8]])
        out = epipolar_residuals(e, null_ray, other)
        assert out[0] == 0.0

    def test_unpaired_rays_rejected(self, rng):
        rays = rng.normal(size=(5, 3))
        with pytest.raises(ValueError, match="equal shapes"):
            epipolar_residuals(np.eye(3), rays, rays[:4])
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            epipolar_residuals(np.eye(3), rays[:, :2], rays[:, :2])


class TestEssential:
    def test_noiseless_epipolar_residuals_vanish(self, rng):
        matches, rot, tdir, _ = two_view_scene(rng, n=60)
        rays_s, rays_t = rays_of(matches)
        e = essential_from_rays(rays_s, rays_t)
        alg = np.abs(np.einsum("ij,jk,ik->i", rays_t, e, rays_s))
        assert alg.max() < 1e-10

    def test_identical_source_rays_degenerate(self, rng):
        ray = np.array([0.1, 0.2, 1.0])
        ray = ray / np.linalg.norm(ray)
        rays_s = np.tile(ray, (10, 1))
        rays_t = rng.normal(size=(10, 3))
        rays_t /= np.linalg.norm(rays_t, axis=1, keepdims=True)
        rays_t[:, 2] = np.abs(rays_t[:, 2]) + 0.5
        rays_t /= np.linalg.norm(rays_t, axis=1, keepdims=True)
        with pytest.raises(DegenerateGeometryError):
            essential_from_rays(rays_s, rays_t)

    def test_projected_singular_values(self, rng):
        matches, *_ = two_view_scene(rng, n=40, pixel_noise=0.5)
        rays_s, rays_t = rays_of(matches)
        e = essential_from_rays(rays_s, rays_t)
        sv = np.linalg.svd(e, compute_uv=False)
        assert sv[0] == pytest.approx(sv[1], rel=1e-12)
        assert sv[2] == pytest.approx(0.0, abs=1e-15 * sv[0])

    def test_rays_ninety_degrees_off_the_mean(self, rng):
        # the mean of this source bundle is exactly +z, so its last two rays
        # lie 90 degrees off it; whitening needs no division by z
        rays_s = np.array([[0.1, 0.0, 1.0], [-0.1, 0.0, 1.0], [0.0, 0.1, 1.0],
                           [0.0, -0.1, 1.0], [0.05, 0.05, 1.0], [-0.05, -0.05, 1.0],
                           [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        rays_s /= np.linalg.norm(rays_s, axis=1, keepdims=True)
        pts = rays_s * rng.uniform(3.0, 7.0, size=(8, 1))
        qts = pts @ rodrigues([0.3, 1.0, -0.2], 0.2).T + np.array([0.6, -0.2, 0.3])
        rays_t = qts / np.linalg.norm(qts, axis=1, keepdims=True)
        e = essential_from_rays(rays_s, rays_t)
        alg = np.abs(np.einsum("ij,jk,ik->i", rays_t, e, rays_s))
        assert alg.max() < 1e-12

    def test_too_few_pairs(self, rng):
        rays = rng.normal(size=(7, 3))
        with pytest.raises(InsufficientMatchesError):
            essential_from_rays(rays, rays)


    def test_malformed_rays_rejected(self, rng):
        # a (12, 2) pair is not eight rays, and ten rays do not pair with nine
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            essential_from_rays(rng.normal(size=(12, 2)), rng.normal(size=(12, 2)))
        with pytest.raises(ValueError, match="equal shapes"):
            essential_from_rays(rng.normal(size=(10, 3)), rng.normal(size=(9, 3)))


class TestDecompose:
    def test_recovers_synthetic_pose(self, rng):
        for _ in range(10):
            matches, rot, tdir, _ = two_view_scene(rng, n=50)
            rays_s, rays_t = rays_of(matches)
            e = essential_from_rays(rays_s, rays_t)
            pose = decompose_and_disambiguate(e, rays_s, rays_t)
            assert rotation_angle_between(pose.rotation, rot) < 1e-6
            assert np.abs(pose.translation - tdir).max() < 1e-6

    def test_pure_rotation_is_ambiguous(self, rng):
        # rays from a zero-baseline pair tie every candidate's cheirality
        pts = rng.uniform([-2, -2, 3], [2, 2, 7], size=(30, 3))
        rot = rodrigues([0.3, 1.0, -0.2], 0.3)
        rays_s = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        qts = pts @ rot.T
        rays_t = qts / np.linalg.norm(qts, axis=1, keepdims=True)
        e = skew(np.array([0.6, -0.2, 0.75])) @ rot
        with pytest.raises(AmbiguousDecompositionError):
            decompose_and_disambiguate(e, rays_s, rays_t)

    def test_malformed_rays_rejected(self, rng):
        matches, rot, tdir, _ = two_view_scene(rng, n=8)
        e = skew(tdir) @ rot
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            decompose_and_disambiguate(e, rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
        rays_s, rays_t = rays_of(matches)
        with pytest.raises(ValueError, match="equal shapes"):
            decompose_and_disambiguate(e, rays_s, rays_t[:7])

    def test_no_rays_refused(self, rng):
        _, rot, tdir, _ = two_view_scene(rng, n=8)
        with pytest.raises(InsufficientMatchesError, match="^need at least one correspondence$"):
            decompose_and_disambiguate(skew(tdir) @ rot, np.empty((0, 3)), np.empty((0, 3)))

    @pytest.mark.parametrize("translation", [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                             [0.6, 0.8, 1e-4]])
    def test_relative_pose_needs_unit_direction(self, translation):
        with pytest.raises(ValueError, match="^translation direction must be unit length$"):
            RelativePose(RigidTransform(np.eye(3), translation), [0, 1, 2])

    def test_negative_depth_pairs_not_counted(self, rng):
        # under the sign-flipped translation candidate the same pairs
        # triangulate behind the cameras and must not vote for it
        from pcr.relpose import _triangulate_depths
        matches, rot, tdir, _ = two_view_scene(rng, n=30)
        rays_s, rays_t = rays_of(matches)
        ds, dt = _triangulate_depths(rays_s, rays_t, rot, tdir)
        assert ((ds > 0) & (dt > 0)).sum() == 30
        ds, dt = _triangulate_depths(rays_s, rays_t, rot, -tdir)
        assert ((ds > 0) & (dt > 0)).sum() < 30
        e = skew(tdir) @ rot
        pose = decompose_and_disambiguate(e, rays_s, rays_t)
        assert np.abs(pose.translation - tdir).max() < 1e-9

    def test_depths_match_per_pair_least_squares(self, rng):
        from pcr.relpose import _triangulate_depths
        rays_s = rng.normal(size=(200, 3))
        rays_t = rng.normal(size=(200, 3))
        rays_s /= np.linalg.norm(rays_s, axis=1, keepdims=True)
        rays_t /= np.linalg.norm(rays_t, axis=1, keepdims=True)
        rot = rodrigues(rng.normal(size=3), 0.4)
        tdir = rng.normal(size=3)
        tdir /= np.linalg.norm(tdir)
        ds, dt = _triangulate_depths(rays_s, rays_t, rot, tdir)
        for i in range(200):
            a = np.column_stack([-(rot @ rays_s[i]), rays_t[i]])
            sol, *_ = np.linalg.lstsq(a, tdir, rcond=None)
            assert ds[i] == pytest.approx(sol[0], rel=1e-9)
            assert dt[i] == pytest.approx(sol[1], rel=1e-9)

    def test_zero_parallax_pair_has_no_depth(self):
        from pcr.relpose import _triangulate_depths
        ray = np.array([[0.0, 0.6, 0.8]])
        ds, dt = _triangulate_depths(ray, -ray, np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert np.isnan(ds).all() and np.isnan(dt).all()

    def test_stacked_candidates_match_per_candidate_loop(self, rng):
        # four (R, t) candidates in one call give each candidate's own depths
        # and counts; the last pair has zero parallax under the identity
        from pcr.relpose import _triangulate_depths
        matches, rot, tdir, _ = two_view_scene(rng, n=40, pixel_noise=0.5)
        rays_s, rays_t = rays_of(matches)
        rays_s, rays_t = np.vstack([rays_s, rays_s[:1]]), np.vstack([rays_t, rays_s[:1]])
        rots = np.stack([rot, np.eye(3), rot.T, rodrigues([1.0, -0.5, 0.2], 2.0)])
        tdirs = np.stack([tdir, [1.0, 0.0, 0.0], -tdir, [0.0, 0.6, -0.8]])
        ds, dt = _triangulate_depths(rays_s, rays_t, rots, tdirs)
        assert np.isnan(ds[1, -1]) and np.isnan(dt[1, -1])
        counts = ((ds > 0.0) & (dt > 0.0)).sum(axis=-1)
        for i in range(4):
            one_s, one_t = _triangulate_depths(rays_s, rays_t, rots[i], tdirs[i])
            assert np.array_equal(ds[i], one_s, equal_nan=True)
            assert np.array_equal(dt[i], one_t, equal_nan=True)
            assert counts[i] == ((one_s > 0.0) & (one_t > 0.0)).sum()
        assert ((ds[0, :40] > 0.0) & (dt[0, :40] > 0.0)).all()


def random_samples(rng, count, rows, pixel_noise=0.5):
    # count (rows, 3) ray bundles drawn from one noisy two-view scene
    matches, *_ = two_view_scene(rng, n=200, pixel_noise=pixel_noise)
    rays_s, rays_t = rays_of(matches)
    idx = np.array([rng.choice(200, size=rows, replace=False) for _ in range(count)])
    return rays_s[idx], rays_t[idx]


class TestBatchedEssential:
    @pytest.mark.parametrize("rows", [8, 20])
    def test_stack_matches_single_solves(self, rng, rows):
        from pcr.relpose import _essentials
        stack_s, stack_t = random_samples(rng, 30, rows)
        batch, ok = _essentials(stack_s, stack_t)
        assert ok.all()
        for e, qs, qt in zip(batch, stack_s, stack_t):
            single = essential_from_rays(qs, qt)
            sign = np.sign(e.ravel() @ single.ravel())
            np.testing.assert_allclose(sign * e, single, rtol=1e-9, atol=1e-12)

    def test_degenerate_members_flagged(self, rng):
        from pcr.relpose import _essentials
        good_s, good_t = random_samples(rng, 2, 8)
        coincident_s = np.tile(good_s[0, :1], (8, 1))
        # eight rays in one plane through the centre: image points on a line
        x = np.linspace(-0.6, 0.6, 8)
        planar_s = np.column_stack([x, 0.3 + 0.7 * x, np.ones(8)])
        planar_s /= np.linalg.norm(planar_s, axis=1, keepdims=True)
        # zero baseline: every E = [v]x R fits, so the system has rank 6
        pts = rng.uniform([-2, -2, 3], [2, 2, 7], size=(8, 3))
        rot = rodrigues([0.3, 1.0, -0.2], 0.3)
        flat_s = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        flat_t = pts @ rot.T / np.linalg.norm(pts, axis=1, keepdims=True)
        stack_s = np.stack([good_s[0], coincident_s, good_s[1], planar_s, flat_s])
        stack_t = np.stack([good_t[0], good_t[1], good_t[1], good_t[0], flat_t])
        batch, ok = _essentials(stack_s, stack_t)
        assert ok.tolist() == [True, False, True, False, False]
        alone, _ = _essentials(good_s, good_t)
        np.testing.assert_allclose(batch[ok], alone, rtol=1e-12, atol=1e-15)
        for qs, qt in zip(stack_s[~ok], stack_t[~ok]):
            with pytest.raises(DegenerateGeometryError):
                essential_from_rays(qs, qt)


def lm_polish(rot0, tdir0, rays_s, rays_t):
    """Levenberg-Marquardt polish of (R, t_dir) over the signed sine of each
    target ray to its epipolar plane, with a numeric Jacobian in a rotation
    vector and a tangent-plane direction step: an independent solver of the
    objective that RANSAC's polish minimises, used only as an oracle."""
    from scipy.optimize import least_squares

    def rotation(w):
        angle = np.linalg.norm(w)
        return rodrigues(w, angle) @ rot0 if angle > 0.0 else rot0

    ref = np.array([1.0, 0.0, 0.0]) if abs(tdir0[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(tdir0, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(tdir0, e1)

    def direction(x):
        tdir = tdir0 + x[3] * e1 + x[4] * e2
        return tdir / np.linalg.norm(tdir)

    def sines(x):
        return signed_sines(rotation(x[:3]), direction(x), rays_s, rays_t)

    sol = least_squares(sines, np.zeros(5), method="lm", xtol=1e-14, ftol=1e-14)
    return rotation(sol.x[:3]), direction(sol.x)


def signed_sines(rot, tdir, rays_s, rays_t):
    normals = rays_s @ (skew(tdir) @ rot).T
    return (rays_t * normals).sum(axis=1) / np.linalg.norm(normals, axis=1)


def stop_formula(count, n, cap):
    """Hypotheses the adaptive stop asks for at best inlier count ``count``."""
    share = count / n
    if share >= 1.0:
        needed = 0
    else:
        needed = math.ceil(math.log(1.0 - relpose._CONFIDENCE) / math.log(1.0 - share ** 8))
    return min(cap, max(relpose._MIN_HYPOTHESES[8], needed))


def reference_consensus(rays_s, rays_t, threshold):
    """The adaptive LO-RANSAC loop one hypothesis at a time: each sample of
    the module's stream is solved and scored on its own, each sample that
    raises the best minimal count is locally optimised alone (the stacked
    kernel with k = 1), and each minimal model, then each of its refits rung
    by rung, meets the best so far: more inliers, or as many at a lower
    total residual, replace it, and as many at the same total with another
    inlier set tie. The stop count is re-derived after every chunk of the
    stream. The seed and the cap are the module's ``SEED`` and
    eight-point ``MAX_HYPOTHESES``."""
    n = len(rays_s)
    rng = np.random.default_rng(relpose.SEED)
    best_count, best_total, best_model, best_mask = -1, np.inf, None, None
    top_minimal, tied, drawn, stop = -1, False, 0, relpose.MAX_HYPOTHESES[8]
    while drawn < stop:
        samples = relpose._draw_samples(rng, n, min(relpose._CHUNK, stop - drawn), 8)
        drawn += len(samples)
        for sample in samples:
            try:
                model = essential_from_rays(rays_s[sample], rays_t[sample])
            except DegenerateGeometryError:
                continue
            residuals = epipolar_residuals(model, rays_s, rays_t)
            candidates = [(model, residuals)]
            minimal = int((residuals <= threshold).sum())
            if minimal > top_minimal:
                top_minimal = minimal
                candidates += [(refits[0], res[0]) for _, refits, res in
                               relpose._local_optimisation(model[None], residuals[None],
                                                           rays_s, rays_t, threshold)]
            for model, residuals in candidates:
                mask = residuals <= threshold
                # summed as the module sums, so that near-ties fall alike
                count, total = int(mask.sum()), float(np.where(mask, residuals, 0.0).sum())
                if count > best_count or (count == best_count and total < best_total):
                    best_count, best_total, best_model, best_mask = count, total, model, mask
                    tied = False
                elif count == best_count and total == best_total \
                        and not np.array_equal(mask, best_mask):
                    tied = True
        stop = stop_formula(max(best_count, 0), n, relpose.MAX_HYPOTHESES[8])
    assert best_count >= 8 and not tied
    return best_model, best_mask, best_count, drawn


class TestRansac:
    def test_clean_scene_all_inliers(self, rng):
        matches, rot, tdir, _ = two_view_scene(rng, n=200)
        pose = ransac_relative_pose(matches, K, K)
        assert len(pose.inliers) == 200
        assert np.degrees(rotation_angle_between(pose.transform.rotation, rot)) < 0.1

    def test_seven_matches_rejected(self, rng):
        matches, *_ = two_view_scene(rng, n=60)
        with pytest.raises(InsufficientMatchesError):
            ransac_relative_pose(matches[:7], K, K)

    def test_deterministic_given_seed(self, rng, monkeypatch):
        matches, *_ = two_view_scene(rng, n=100, pixel_noise=0.3, outliers=0.2)
        monkeypatch.setattr(relpose, "SEED", 11)
        a = ransac_relative_pose(matches, K, K)
        b = ransac_relative_pose(matches, K, K)
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert np.array_equal(a.inliers, b.inliers)

    def test_reported_inliers_satisfy_threshold(self, rng, monkeypatch):
        matches, *_ = two_view_scene(rng, n=150, pixel_noise=0.3, outliers=0.25)
        monkeypatch.setattr(relpose, "PIXEL_THRESHOLD", 1.0)
        monkeypatch.setattr(relpose, "SEED", 3)
        pose = ransac_relative_pose(matches, K, K)
        rays_s, rays_t = rays_of(matches)
        e = skew(pose.transform.translation) @ pose.transform.rotation
        res = epipolar_residuals(e, rays_s, rays_t)
        threshold = angular_threshold(1.0, K.fx)
        assert (res[pose.inliers] <= threshold).all()

    def test_relabeling_views_inverts_pose(self, rng, monkeypatch):
        matches, rot, tdir, _ = two_view_scene(rng, n=120)
        swapped = pixel_matches(matches.target_pixels, matches.source_pixels)
        monkeypatch.setattr(relpose, "SEED", 5)
        fwd = ransac_relative_pose(matches, K, K)
        rev = ransac_relative_pose(swapped, K, K)
        assert rotation_angle_between(rev.transform.rotation, fwd.transform.rotation.T) < 1e-6
        expected_dir = -(fwd.transform.rotation.T @ fwd.transform.translation)
        assert np.abs(rev.transform.translation - expected_dir).max() < 1e-6

    @pytest.mark.parametrize("iterations", [1, 255, 256, 257, 1000])
    def test_samples_are_distinct_and_repeat_for_seed(self, rng, monkeypatch, iterations):
        matches, *_ = two_view_scene(rng, n=60, pixel_noise=0.3, outliers=0.4)
        draw = relpose._draw_samples
        monkeypatch.setitem(relpose.MAX_HYPOTHESES, 8, iterations)
        monkeypatch.setattr(relpose, "SEED", 9)

        def run():
            drawn = []

            def recording(*args):
                drawn.append(draw(*args))
                return drawn[-1]

            monkeypatch.setattr(relpose, "_draw_samples", recording)
            try:
                ransac_relative_pose(matches, K, K)
            except NoConsensusError:
                pass  # a single sample may well hold an outlier
            return np.concatenate(drawn)

        first = run()
        assert 1 <= len(first) <= iterations
        assert first.shape[1] == 8
        assert first.min() >= 0 and first.max() < 60
        assert (np.diff(np.sort(first, axis=1), axis=1) > 0).all()
        assert np.array_equal(run(), first)

    @pytest.mark.parametrize("seed, pixel_noise, outliers, cap", [
        pytest.param(0, 0.3, 0.3, 600, id="0"),
        pytest.param(1, 0.3, 0.3, 600, id="1"),
        pytest.param(2, 0.3, 0.3, 600, id="2"),
        # exact residuals: many models tie at a total of 0, so draw order
        # picks among them
        pytest.param(3, 0.0, 0.3, 600, id="noiseless"),
        # 40% outliers: the stop asks for more than the cap, three chunks
        pytest.param(4, 0.3, 0.4, 150, id="three-chunks"),
    ])
    def test_same_winner_as_per_hypothesis_loop(self, monkeypatch, seed, pixel_noise,
                                                 outliers, cap):
        rng = np.random.default_rng(seed + 300)
        matches, *_ = two_view_scene(rng, n=150, pixel_noise=pixel_noise, outliers=outliers)
        rays_s, rays_t = rays_of(matches)
        monkeypatch.setitem(relpose.MAX_HYPOTHESES, 8, cap)
        monkeypatch.setattr(relpose, "SEED", seed)
        threshold = angular_threshold(relpose.PIXEL_THRESHOLD, K.fx)
        ref_model, ref_mask, ref_count, ref_drawn = reference_consensus(
            rays_s, rays_t, threshold)
        model, mask, count, drawn = relpose._consensus(rays_s, rays_t, threshold)
        assert count == ref_count
        assert np.array_equal(mask, ref_mask)
        assert drawn == ref_drawn
        if cap == 150:
            assert drawn == cap > 2 * relpose._CHUNK
        # the oracle solves each sample alone, whose null vector may take the
        # other sign; every later step is the module's own kernel
        sign = np.sign(model.ravel() @ ref_model.ravel())
        assert np.array_equal(sign * model, ref_model)
        batched = ransac_relative_pose(matches, K, K)
        monkeypatch.setattr(relpose, "_consensus",
                            lambda *args: (ref_model, ref_mask, ref_count, ref_drawn))
        looped = ransac_relative_pose(matches, K, K)
        assert np.array_equal(batched.inliers, looped.inliers)

    def test_clean_scene_stops_at_floor(self, rng):
        # every outlier-free sample explains all 200 rays: w = 1
        matches, *_ = two_view_scene(rng, n=200)
        rays_s, rays_t = rays_of(matches)
        threshold = angular_threshold(1.0, K.fx)
        *_, count, drawn = relpose._consensus(rays_s, rays_t, threshold)
        assert count == 200
        assert drawn == relpose._MIN_HYPOTHESES[8]

    @pytest.mark.parametrize("cap", [1000, 70, 40])
    def test_hypotheses_drawn_follow_stop_formula(self, monkeypatch, cap):
        # noise-free inliers, 30% outliers: the first chunk finds w near 0.7
        # and the stop asks for about 78 hypotheses, within the floor and cap
        rng = np.random.default_rng(17)
        matches, *_ = two_view_scene(rng, n=200, outliers=0.3)
        rays_s, rays_t = rays_of(matches)
        threshold = angular_threshold(1.0, K.fx)
        monkeypatch.setitem(relpose.MAX_HYPOTHESES, 8, cap)
        *_, count, drawn = relpose._consensus(rays_s, rays_t, threshold)
        assert 140 <= count <= 145
        assert drawn == stop_formula(count, 200, cap)
        assert drawn == min(cap, 78)

    def test_local_optimisation_reaches_full_consensus(self):
        # An edge-small scene on which linear eight-point refits stalled at
        # 63 of about 138 inliers, so the stop drew all 1000 hypotheses.
        scene = build_scene(SynthSpec(seed=1006, scale=2.5, rotation_deg=15.0,
                                      noise=0.005, outlier_fraction=0.3,
                                      points=2000, match_count=200))
        cam = scene.intrinsics_source
        rays_s = cam.bearings(scene.matches.source_pixels)
        rays_t = cam.bearings(scene.matches.target_pixels)
        threshold = angular_threshold(1.0, cam.fx)
        *_, count, drawn = relpose._consensus(rays_s, rays_t, threshold)
        assert count >= 130
        assert drawn <= 200

    def test_stop_count_at_extreme_inlier_shares(self):
        needed = relpose._hypotheses_needed
        for size in (3, 8):
            floor = relpose._MIN_HYPOTHESES[size]
            assert needed(200, 200, 1000, size) == floor  # w = 1
            assert needed(0, 200, 1000, size) == 1000  # w = 0
            assert needed(-1, 200, 1000, size) == 1000
            # w^size too small for the float, or a count past the cap
            assert needed(1, 10 ** 6, 1000, size) == 1000
            assert needed(20, 200, 1000, size) == 1000
            assert needed(200, 200, 10, size) == 10
        assert needed(140, 200, 1000, 8) == 78
        # w = 0.7 asks for 11 three-point draws, below the floor; w = 0.3
        # asks for 169, above it
        assert needed(140, 200, 1000, 3) == max(11, relpose._MIN_HYPOTHESES[3])
        assert needed(60, 200, 1000, 3) == 169

    def test_exact_tie_between_two_motions_is_error(self, monkeypatch):
        # Two noise-free groups under different motions: a minimal sample
        # from either group scores its own 40 rays with residual exactly 0
        # and none of the other group's, so both models reach 40 inliers at
        # total 0 with different inlier sets.
        rng = np.random.default_rng(0)
        first, rot_a, dir_a, _ = two_view_scene(rng, n=40)
        second, rot_b, dir_b, _ = two_view_scene(rng, n=40)
        threshold = angular_threshold(1.0, K.fx)
        for (rot, tdir), group in (((rot_a, dir_a), second), ((rot_b, dir_b), first)):
            assert (epipolar_residuals(skew(tdir) @ rot, *rays_of(group)) > threshold).all()
        both = Matches(np.vstack([first.table, second.table]))
        monkeypatch.setattr(relpose, "SEED", 0)
        monkeypatch.setitem(relpose.MAX_HYPOTHESES, 8, 2000)
        with pytest.raises(AmbiguousDecompositionError):
            ransac_relative_pose(both, K, K)

    def test_fewer_than_eight_inliers_is_no_consensus(self, rng, monkeypatch):
        # unrelated pixel pairs: no model explains 8 of them at 0.01 px
        px = rng.uniform([0, 0, 0, 0], [640, 480, 640, 480], size=(30, 4))
        matches = pixel_matches(px[:, :2], px[:, 2:])
        monkeypatch.setattr(relpose, "PIXEL_THRESHOLD", 0.01)
        with pytest.raises(NoConsensusError, match="need at least 8"):
            ransac_relative_pose(matches, K, K)

    def test_all_hypotheses_degenerate_is_no_consensus(self, rng, monkeypatch):
        # every source ray coincides, so no minimal sample can be solved
        targets = rng.uniform(0.0, 400.0, size=(20, 2))
        matches = pixel_matches(np.tile([100.0, 200.0], (20, 1)), targets)
        rays_s, rays_t = rays_of(matches)
        with pytest.raises(DegenerateGeometryError):
            essential_from_rays(rays_s[:8], rays_t[:8])
        monkeypatch.setitem(relpose.MAX_HYPOTHESES, 8, 300)
        with pytest.raises(NoConsensusError, match="has 0 inliers"):
            ransac_relative_pose(matches, K, K)


def edge_scene(outliers, seed=1000):
    """An edge-small scene: every match has both depths."""
    return build_scene(SynthSpec(seed=seed, scale=2.5, rotation_deg=15.0, noise=0.005,
                                 outlier_fraction=outliers, points=2000, match_count=200))


def sim3_triples(rng, count):
    """(count, 3, 3) source triples ahead of the camera, their images under
    random similarities q = s R p + t, and each similarity's E = [t / |t|]x R."""
    points_s = rng.uniform([-2.0, -2.0, 3.0], [2.0, 2.0, 7.0], size=(count, 3, 3))
    rots = np.stack([rodrigues(rng.normal(size=3), rng.uniform(0.0, np.pi))
                     for _ in range(count)])
    scales = rng.uniform(0.2, 5.0, size=count)
    tvecs = rng.normal(size=(count, 3))
    points_t = scales[:, None, None] * points_s @ rots.swapaxes(1, 2) + tvecs[:, None, :]
    truth = np.stack([skew(t / np.linalg.norm(t)) @ r for r, t in zip(rots, tvecs)])
    return points_s, points_t, truth


def spy_consensus(monkeypatch):
    """A list that each later _consensus call appends (its arguments after
    the threshold, its result) to."""
    consensus, seen = relpose._consensus, []

    def recording(*args):
        seen.append((args[3:], consensus(*args)))
        return seen[-1][1]

    monkeypatch.setattr(relpose, "_consensus", recording)
    return seen


class TestThreePointDraw:
    def test_noise_free_triples_give_true_essential(self, rng):
        points_s, points_t, truth = sim3_triples(rng, 50)
        models, ok = relpose._lifted_essentials(points_s, points_t)
        assert ok.all()
        assert np.abs(models - truth).max() < 1e-9

    def test_degenerate_triples_flagged(self, rng):
        points_s, points_t, _ = sim3_triples(rng, 5)
        line = np.array([[0.0, 0.0, 4.0], [1.0, 0.5, 5.0], [3.0, 1.5, 7.0]])
        points_s[0] = line  # collinear source
        points_t[1] = line  # collinear target
        points_s[2] = [1.0, 2.0, 5.0]  # one point three times
        # no translation: target = R source, with a valid rotation and scale
        rot = rodrigues([1.0, 2.0, 3.0], 0.4)
        points_t[3] = points_s[3] @ rot.T
        _, ok = relpose._lifted_essentials(points_s, points_t)
        assert ok.tolist() == [False, False, False, False, True]

    def test_mirrored_triple_fits_a_rotation(self, rng):
        # a triple and its mirror image are related by a reflection; the
        # fit still returns a proper rotation, so E stays an essential
        points_s, _, _ = sim3_triples(rng, 1)
        points_t = points_s * [-1.0, 1.0, 1.0] + [0.0, 0.0, 10.0]
        models, ok = relpose._lifted_essentials(points_s, points_t)
        assert ok.all()
        np.testing.assert_allclose(np.linalg.svd(models[0])[1], [1.0, 1.0, 0.0], atol=1e-12)

    def test_triples_are_distinct_and_in_range(self):
        picks = relpose._draw_samples(np.random.default_rng(1), 12, 500, 3)
        assert picks.shape == (500, 3)
        assert picks.min() >= 0 and picks.max() < 12
        assert (np.diff(np.sort(picks, axis=1), axis=1) > 0).all()

    def test_depth_rows_below_eight_keep_eight_point_draw(self, monkeypatch):
        # Seven rows with both depths are one short of the three-point
        # draw's minimum, so the table gets the eight-point draw, bit for bit
        # the consensus of the same table without depths: 97 inliers after
        # 149 hypotheses (three chunks, the stop checked after each).
        matches, *_ = two_view_scene(np.random.default_rng(23), n=150, pixel_noise=0.3,
                                     outliers=0.35)
        table = matches.table.copy()
        table[:7, 2], table[:7, 5] = 4.0, 6.0
        seen = spy_consensus(monkeypatch)
        poses = [ransac_relative_pose(m, K, K) for m in (matches, Matches(table))]
        assert [lifted for lifted, _ in seen] == [(None,), (None,)]
        (model, mask, count, drawn), again = (result for _, result in seen)
        assert (count, drawn) == (97, 149)
        assert np.array_equal(model, again[0]) and np.array_equal(mask, again[1])
        assert np.array_equal(poses[0].transform.rotation, poses[1].transform.rotation)
        assert np.array_equal(poses[0].inliers, poses[1].inliers)

    @pytest.mark.parametrize("outliers, drawn", [(0.3, 16), (0.5, 39), (0.7, 169)])
    def test_lifted_table_draws_three_points(self, outliers, drawn, caplog):
        # At 30% outliers the best share, about 0.7, asks for 11 draws, and
        # the floor holds; at 50% and 70% it is about 0.49 and 0.3, which ask
        # for 39 and 169. Eight-point draws would need 1177 and about 70 000.
        scene = edge_scene(outliers)
        cam = scene.intrinsics_source
        with caplog.at_level("DEBUG", logger="pcr"):
            pose = ransac_relative_pose(scene.matches, cam, cam)
        [line] = [r.getMessage() for r in caplog.records]
        assert line.startswith(f"relpose: three-point draw, {drawn} hypotheses in ")
        assert np.degrees(rotation_angle_between(pose.transform.rotation,
                                                 scene.ground_truth.rotation)) < 1.0

    def test_ninety_percent_outliers_within_criterion_01(self):
        # 20 inliers among 200 matches: 99% confidence of a clean triple at
        # w = 0.1 asks for 4603 draws, within the three-point cap. At a cap
        # of 1000 these 30 edges gave 16 right, 4 wrong and 10 refused.
        right = wrong = 0
        for seed in range(1000, 1030):
            scene = edge_scene(0.9, seed)
            try:
                report = register_scene(scene)
            except RegistrationError:
                continue
            truth = scene.ground_truth
            final = report.final_transform
            ok = (abs(final.scale / truth.scale - 1.0) < 0.01
                  and np.degrees(rotation_angle_between(final.rotation, truth.rotation)) < 0.5
                  and np.linalg.norm(final.translation - truth.translation)
                  < 0.01 * bounds(scene.target.points).diagonal_length())
            right += ok
            wrong += not ok
        assert right >= 28 and wrong == 0, (right, wrong)

    def test_stop_takes_share_among_depth_rows(self, monkeypatch):
        # 60 true inliers lose their depths: they are scored but cannot be
        # drawn, so the share that sets the stop is the inliers' among the
        # 140 depth-complete rows, about 0.57, not about 0.7 among all 200.
        scene = edge_scene(0.3)
        cam = scene.intrinsics_source
        table = scene.matches.table.copy()
        table[np.setdiff1d(np.arange(200), scene.outlier_indices)[:60], 2] = np.nan
        seen = spy_consensus(monkeypatch)
        ransac_relative_pose(Matches(table), cam, cam)
        [(((rows, *_),), (_, mask, _, drawn))] = seen
        assert len(rows) == 140
        needed = relpose._hypotheses_needed
        assert drawn == needed(int(mask[rows].sum()), 140, relpose.MAX_HYPOTHESES[3], 3) > 16
        assert needed(int(mask.sum()), 200, relpose.MAX_HYPOTHESES[3], 3) == 16

    def test_run_logs_sampler_draws_batches_and_inliers(self, caplog):
        matches, *_ = two_view_scene(np.random.default_rng(23), n=150, pixel_noise=0.3,
                                     outliers=0.35)
        with caplog.at_level("DEBUG", logger="pcr"):
            ransac_relative_pose(matches, K, K)
        assert [r.getMessage() for r in caplog.records] == [
            "relpose: eight-point draw, 149 hypotheses in 3 batches, "
            "97 of 150 matches inliers"]
        assert caplog.records[0].levelname == "DEBUG"


def tangent_jacobian(u, vt, rays_s, rays_t):
    """Signed sines and their (n, 5) Jacobian built from the five tangent
    directions of E = U diag(1, 1, 0) V^T, one (n, 3) product each: the
    construction the closed form replaced, kept as an oracle."""
    from pcr.geom import GENERATORS
    flat = np.diag([1.0, 1.0, 0.0])
    ess = u @ flat @ vt
    normals = rays_s @ ess.T
    norms = np.linalg.norm(normals, axis=1)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= 1e-300)
    sines = (rays_t * normals).sum(axis=1) * inv
    d_ess = np.concatenate([u @ GENERATORS @ flat @ vt, -(u @ flat @ GENERATORS[:2] @ vt)])
    d_normals = rays_s @ d_ess.swapaxes(-1, -2)
    lever = rays_t - (sines * inv)[:, None] * normals
    return sines, ((lever * d_normals).sum(axis=-1) * inv).T


class TestManifoldStep:
    def test_closed_form_jacobian_matches_tangent_stack(self, rng):
        matches, *_ = two_view_scene(rng, n=60, pixel_noise=0.5, outliers=0.3)
        rays_s, rays_t = rays_of(matches)
        ematrices = np.stack([essential_from_rays(rays_s[i:i + 8], rays_t[i:i + 8])
                              for i in (0, 20, 40)])
        u, _, vt = np.linalg.svd(ematrices)
        sines, jac = relpose._jacobian(u, vt, rays_s, rays_t)
        assert jac.shape == (3, 5, 60)
        for k in range(3):
            want_sines, want_jac = tangent_jacobian(u[k], vt[k], rays_s, rays_t)
            np.testing.assert_allclose(sines[k], want_sines, rtol=0, atol=1e-14)
            np.testing.assert_allclose(jac[k].T, want_jac, rtol=0, atol=1e-13)

    def test_rank_deficient_band_gets_lstsq_step(self, rng):
        # E = [z]x: four of the eight source rays lie on its epipole +z and
        # have no epipolar plane, so only four rows constrain five unknowns
        start = skew(np.array([0.0, 0.0, 1.0]))
        others = rng.normal(size=(4, 3)) + [0.0, 0.0, 4.0]
        rays_s = np.vstack([np.tile([0.0, 0.0, 1.0], (4, 1)), others])
        rays_s /= np.linalg.norm(rays_s, axis=1, keepdims=True)
        rays_t = rays_s @ rodrigues([0.3, 1.0, -0.2], 0.1).T + rng.normal(scale=0.05, size=(8, 3))
        rays_t /= np.linalg.norm(rays_t, axis=1, keepdims=True)
        u, _, vt = np.linalg.svd(start)
        sines, jac = tangent_jacobian(u, vt, rays_s, rays_t)
        assert np.linalg.matrix_rank(jac) == 4
        want = np.linalg.lstsq(jac, -sines, rcond=None)[0]
        step = relpose._manifold_step(u[None], vt[None], rays_s, rays_t, np.ones((1, 8)))[0]
        assert np.linalg.norm(want) > 1e-3
        np.testing.assert_allclose(step, want, rtol=0, atol=1e-12)

    def test_stacked_local_optimisation_matches_each_member_alone(self):
        # the four best of 256 minimal models on an edge-small scene, and two
        # with no band of 8 rays, which leave the stack at its first rung
        scene = build_scene(SynthSpec(seed=1003, scale=2.5, rotation_deg=15.0,
                                      noise=0.005, outlier_fraction=0.3,
                                      points=2000, match_count=200))
        cam = scene.intrinsics_source
        rays_s = cam.bearings(scene.matches.source_pixels)
        rays_t = cam.bearings(scene.matches.target_pixels)
        threshold = angular_threshold(1.0, cam.fx)
        samples = relpose._draw_samples(np.random.default_rng(5), 200, 256, 8)
        models, ok = relpose._essentials(rays_s[samples], rays_t[samples])
        residuals = relpose._residuals(models[ok], rays_s, rays_t)
        counts = (residuals <= threshold).sum(axis=1)
        pick = np.concatenate([np.argsort(counts)[-4:], np.argsort(counts)[:2]])
        stacked = list(relpose._local_optimisation(models[ok][pick], residuals[pick],
                                                   rays_s, rays_t, threshold))
        assert len(stacked) == len(relpose._REFIT_LADDER)
        assert all(np.array_equal(live, np.arange(4)) for live, _, _ in stacked)
        assert ((stacked[-1][2] <= threshold).sum(axis=1) >= 130).all()
        assert ((residuals[pick[4:]] <= 8.0 * threshold).sum(axis=1) < 8).all()
        for k, j in enumerate(pick):
            alone = list(relpose._local_optimisation(models[ok][j][None], residuals[j][None],
                                                     rays_s, rays_t, threshold))
            rungs = [(refits[live == k], res[live == k]) for live, refits, res in stacked
                     if k in live]
            assert len(rungs) == len(alone)
            for (refit, res), (live, want_refit, want_res) in zip(rungs, alone):
                assert np.array_equal(live, [0])
                assert np.array_equal(refit, want_refit)
                assert np.array_equal(res, want_res)


class TestPolish:
    # scenes whose RANSAC winner is off the minimum over its inliers by 0.2%
    # to 41% in cost, so the polish has work to do
    @pytest.mark.parametrize("seed", [3, 10, 13, 18])
    def test_same_minimum_as_levenberg_marquardt(self, monkeypatch, seed):
        rng = np.random.default_rng(seed + 700)
        matches, *_ = two_view_scene(rng, n=200, pixel_noise=0.3, outliers=0.3)
        rays_s, rays_t = rays_of(matches)
        monkeypatch.setattr(relpose, "SEED", seed)
        threshold = angular_threshold(relpose.PIXEL_THRESHOLD, K.fx)
        model, mask, *_ = relpose._consensus(rays_s, rays_t, threshold)
        fit_s, fit_t = rays_s[mask], rays_t[mask]
        start = decompose_and_disambiguate(model, fit_s, fit_t)
        rot_lm, dir_lm = lm_polish(start.rotation, start.translation, fit_s, fit_t)
        lm_res = epipolar_residuals(skew(dir_lm) @ rot_lm, rays_s, rays_t)

        pose = ransac_relative_pose(matches, K, K)
        assert np.array_equal(pose.inliers, np.flatnonzero(lm_res <= threshold))
        cost_lm = (signed_sines(rot_lm, dir_lm, fit_s, fit_t) ** 2).sum()
        cost = (signed_sines(pose.transform.rotation, pose.transform.translation, fit_s, fit_t) ** 2).sum()
        cost_start = (signed_sines(start.rotation, start.translation, fit_s, fit_t) ** 2).sum()
        assert cost_start > (1.0 + 1e-3) * cost_lm
        assert abs(cost - cost_lm) <= 1e-12 * cost_lm
        # the polished pose is a fixed point of the Gauss-Newton step
        u, _, vt = np.linalg.svd(skew(pose.transform.translation) @ pose.transform.rotation)
        step = relpose._manifold_step(u[None], vt[None], fit_s, fit_t,
                                      np.ones((1, len(fit_s))))[0]
        assert np.linalg.norm(step) < relpose._POLISH_TOL

    def test_source_ray_at_epipole_steers_nothing(self, rng):
        # E = [z]x has its source epipole exactly at +z, so E @ +z is exactly
        # 0 and the ray there has no epipolar plane. One step is compared:
        # the step moves the epipole off that ray.
        pts = rng.uniform([-2.0, -2.0, 3.0], [2.0, 2.0, 7.0], size=(40, 3))
        qts = pts @ rodrigues([0.3, 1.0, -0.2], 0.05).T + np.array([0.05, 0.02, 1.0])
        qts += rng.normal(scale=0.01, size=qts.shape)
        rays_s = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        rays_t = qts / np.linalg.norm(qts, axis=1, keepdims=True)
        start = skew(np.array([0.0, 0.0, 1.0]))
        alone = relpose._refit(start[None], rays_s, rays_t, np.ones((1, 40)), 1)[0]
        with_epipole = relpose._refit(start[None], np.vstack([rays_s, [0.0, 0.0, 1.0]]),
                                      np.vstack([rays_t, [0.6, 0.0, 0.8]]),
                                      np.ones((1, 41)), 1)[0]
        assert np.abs(alone - start).max() > 1e-2
        np.testing.assert_allclose(with_epipole, alone, rtol=0, atol=1e-14)
