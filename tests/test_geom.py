import numpy as np
import pytest

from pcr import icp, icpcov, scale
from pcr.errors import DegenerateGeometryError
from pcr.geom import (COORDINATE_LIMIT, Bounds3, RigidTransform,
                      SimilarityTransform, as_points, bounds,
                      rotation_about_axis, skew, transform_rows, umeyama_align)

from conftest import align, random_rotation, rodrigues, rotation_angle_between


def rand_similarity(rng):
    rot = random_rotation(rng)
    return SimilarityTransform(
        float(rng.uniform(0.2, 5.0)),
        RigidTransform(rot, rng.normal(size=3)))


class TestCompose:
    def test_identity_compose_identity(self):
        ident = SimilarityTransform.identity()
        out = ident.compose(ident)
        assert out.scale == 1.0
        assert np.array_equal(out.rotation, np.eye(3))
        assert np.array_equal(out.translation, np.zeros(3))

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(20):
            x = rand_similarity(rng)
            out = x.compose(x.inverse())
            assert abs(out.scale - 1.0) < 1e-9
            assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(out.translation).max() < 1e-9

    def test_hand_expanded_scale_composition(self):
        a = SimilarityTransform(2.0, RigidTransform(np.eye(3), np.zeros(3)))
        b = SimilarityTransform(3.0, RigidTransform(np.eye(3), [1.0, 0.0, 0.0]))
        out = a.compose(b)
        # s_a * R_a @ (s_b * R_b @ p + t_b) + t_a with these values:
        # scale 6, translation 2 * I @ (1,0,0) = (2,0,0)
        assert out.scale == pytest.approx(6.0, abs=0.0)
        assert np.allclose(out.rotation, np.eye(3))
        assert np.allclose(out.translation, [2.0, 0.0, 0.0], atol=1e-15)

    def test_associativity(self, rng):
        for _ in range(30):
            a, b, c = (rand_similarity(rng) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert abs(left.scale - right.scale) < 1e-12 * left.scale
            assert np.abs(left.rotation - right.rotation).max() < 1e-12
            scale = max(1.0, np.abs(left.translation).max())
            assert np.abs(left.translation - right.translation).max() < 1e-12 * scale

    def test_rotation_stays_orthonormal_over_long_chains(self, rng):
        x = rand_similarity(rng)
        acc = SimilarityTransform.identity()
        step = SimilarityTransform(1.0, RigidTransform(rodrigues([1, 2, 3], 1e-3), np.zeros(3)))
        for _ in range(10_000):
            acc = acc.compose(step)
        rot = acc.rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        del x


class TestApply:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(SimilarityTransform.identity().apply(p), p)

    def test_pure_scale(self):
        t = SimilarityTransform(2.0, RigidTransform(np.eye(3), np.zeros(3)))
        assert np.allclose(t.apply([1.0, 1.0, 1.0]), [2.0, 2.0, 2.0])

    def test_rot_z_quarter_turn_plus_lift(self):
        # a quarter turn about z takes (1,0,0) to (0,1,0); plus (0,0,1) lift
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = SimilarityTransform(1.0, RigidTransform(rot, [0.0, 0.0, 1.0]))
        assert np.allclose(t.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 1.0], atol=1e-15)

    def test_round_trip_through_inverse(self, rng):
        for _ in range(50):
            x = rand_similarity(rng)
            p = rng.normal(size=3) * 10
            back = x.inverse().apply(x.apply(p))
            assert np.abs(back - p).max() < 1e-9

    def test_batch_matches_single(self, rng):
        x = rand_similarity(rng)
        pts = rng.normal(size=(17, 3))
        batch = x.apply(pts)
        for i in range(17):
            assert np.allclose(batch[i], x.apply(pts[i]), atol=1e-12)


class TestUmeyama:
    def test_identity_when_target_equals_source(self, rng):
        pts = rng.normal(size=(40, 3))
        out = align(pts, pts)
        assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(out.translation).max() < 1e-9

    def test_recovers_generating_transform(self, rng):
        for _ in range(20):
            x = rand_similarity(rng).rigid
            src = rng.normal(size=(25, 3))
            tgt = x.apply(src)
            out = align(src, tgt)
            assert isinstance(out, RigidTransform)
            assert rotation_angle_between(out.rotation, x.rotation) < 1e-9
            assert np.abs(out.translation - x.translation).max() < 1e-8

    def test_two_pairs_refused(self, rng):
        pts = rng.normal(size=(2, 3))
        with pytest.raises(DegenerateGeometryError,
                           match="^alignment needs at least 3 point pairs$"):
            align(pts, pts + 1.0)

    def test_collinear_points_raise(self):
        src = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateGeometryError):
            align(src, src)

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_near_collinear_points_raise(self, rng, offset):
        # jitter at rounding level is below what the scatter can resolve
        src = np.outer(np.arange(50.0), [1.0, 2.0, 3.0]) + offset
        src += rng.normal(scale=1e-13, size=src.shape)
        with pytest.raises(DegenerateGeometryError):
            align(src, src)

    @pytest.mark.parametrize("point", [[0.0, 0.0, 0.0], [1.5, -2.0, 3e3]])
    def test_coincident_points_raise(self, point):
        src = np.tile(point, (10, 1))
        with pytest.raises(DegenerateGeometryError):
            align(src, src)

    def test_thin_points_are_fine(self, rng):
        # second singular value 1e-4 of the first, above COLLINEAR_RATIO
        src = np.outer(rng.uniform(-1.0, 1.0, 40), [1.0, 2.0, 3.0])
        src += rng.normal(scale=1e-4, size=src.shape)
        rot = random_rotation(rng)
        out = align(src, src @ rot.T + 0.5)
        assert rotation_angle_between(out.rotation, rot) < 1e-6

    def test_rows_are_consumed(self, rng):
        # contiguous float64 rows are centred where they lie; others are
        # copied and left as they were
        src = rng.normal(size=(3, 40))
        rot = random_rotation(rng)
        tgt = rot @ src + 0.5
        ref = align(src.T, tgt.T)
        keep_src, keep_tgt = src.copy(), np.asfortranarray(tgt)
        out = umeyama_align(src, keep_tgt)
        assert np.array_equal(out.rotation, ref.rotation)
        assert np.array_equal(out.translation, ref.translation)
        assert np.array_equal(src, keep_src - keep_src.mean(axis=1)[:, None])
        assert np.array_equal(keep_tgt, tgt)
        keep_src.flags.writeable = False
        out = umeyama_align(keep_src, tgt)
        assert np.array_equal(out.rotation, ref.rotation)

    def test_one_array_for_both_sides(self, rng):
        # centring the source must not centre the target a second time:
        # the scatter of the twice-moved points would pass a line
        rows = rng.normal(size=(3, 30)) + 5.0
        out = umeyama_align(rows, rows)
        assert np.abs(out.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(out.translation).max() < 1e-9
        line = np.outer([1.0, 2.0, 3.0], np.arange(5.0)) + [[1.0], [0.0], [0.0]]
        with pytest.raises(DegenerateGeometryError):
            umeyama_align(line, line)

    def test_planar_points_are_fine(self, rng):
        src = rng.normal(size=(30, 3))
        src[:, 2] = 0.0
        rot = random_rotation(rng)
        out = align(src, src @ rot.T)
        assert rotation_angle_between(out.rotation, rot) < 1e-9


class TestBounds:
    def test_two_points(self):
        box = bounds([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert np.array_equal(box.minimum, [0.0, 0.0, 0.0])
        assert np.array_equal(box.maximum, [1.0, 2.0, 3.0])

    def test_single_point(self):
        box = bounds([[4.0, 5.0, 6.0]])
        assert np.array_equal(box.minimum, box.maximum)

    def test_matches_exhaustive_scan(self, rng):
        pts = rng.normal(size=(100, 3)) * 7
        box = bounds(pts)
        lo = np.array([min(p[k] for p in pts) for k in range(3)])
        hi = np.array([max(p[k] for p in pts) for k in range(3)])
        assert np.array_equal(box.minimum, lo)
        assert np.array_equal(box.maximum, hi)

    def test_any_layout_matches_axis_reductions(self, rng):
        pts = rng.normal(size=(1000, 3)) * 7
        wide = np.zeros((2000, 6))
        wide[::2, ::2] = pts
        for view in (pts, np.asfortranarray(pts), wide[::2, ::2]):
            box = bounds(view)
            assert np.array_equal(box.minimum, pts.min(axis=0))
            assert np.array_equal(box.maximum, pts.max(axis=0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bounds(np.empty((0, 3)))

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValueError, match="^minimum corner exceeds maximum corner$"):
            Bounds3([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("lo, hi", [
        (np.zeros(2), np.ones(3)), (np.zeros(3), np.ones(4)),
        (np.zeros((2, 3)), np.ones((2, 3)))], ids=["two", "four", "two-corners"])
    def test_corners_must_be_3_vectors(self, lo, hi):
        with pytest.raises(ValueError, match="^bounds corners must be 3-vectors$"):
            Bounds3(lo, hi)


PAST_LIMIT = "at most 1e\\+150 in magnitude"

# Every stage function that takes point arrays, called on (source, target).
POINT_STAGES = {
    "detect_scale": scale.detect_scale,
    "depth_consistent_indices": lambda p, q: scale.depth_consistent_indices(p, q, np.eye(3)),
    "estimate_scale_kalman": lambda p, q: scale.estimate_scale_kalman(p, q, np.eye(3)),
    "icp_register": icp.icp_register,
    "umeyama_align": lambda p, q: umeyama_align(p.T, q.T),
    "covariance": lambda p, q: icpcov.covariance(p, q, RigidTransform.identity(), 0.01),
    "pair_sigma": lambda p, q: icpcov.pair_sigma(p, q, RigidTransform.identity()),
}


# Every stage function that takes paired points, called on (source, target).
PAIR_STAGES = {name: POINT_STAGES[name] for name in (
    "depth_consistent_indices", "estimate_scale_kalman", "umeyama_align", "covariance",
    "pair_sigma")}


class TestPointContract:
    @pytest.mark.parametrize("value", [np.inf, -1e151, np.nan])
    def test_coordinate_past_limit_refused(self, value):
        pts = np.zeros((4, 3))
        pts[2, 1] = value
        with pytest.raises(ValueError, match=PAST_LIMIT):
            as_points(pts)

    def test_limit_itself_accepted(self):
        pts = np.array([[COORDINATE_LIMIT, -COORDINATE_LIMIT, 0.0]])
        assert as_points(pts) is pts

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("bad", ["1e154", "nan"])
    @pytest.mark.parametrize("stage", POINT_STAGES)
    def test_every_stage_refuses_points_past_limit(self, rng, stage, bad, side):
        # squares of 1e154 overflow, and a NaN poisons every sum
        good = rng.random((2000, 3))
        if bad == "nan":
            wrong = good.copy()
            wrong[1000, 1] = np.nan
        else:
            wrong = good * 1e154
        pair = (wrong, good) if side == "source" else (good, wrong)
        with pytest.raises(ValueError, match=PAST_LIMIT):
            POINT_STAGES[stage](*pair)

    @pytest.mark.parametrize("stage", PAIR_STAGES)
    def test_unequal_pair_counts_refused(self, rng, stage):
        with pytest.raises(ValueError, match=r"paired point arrays must have equal "
                                             r"shapes, got \(50, 3\) and \(40, 3\)"):
            PAIR_STAGES[stage](rng.random((50, 3)), rng.random((40, 3)))

    def test_stages_run_at_the_limit(self, rng):
        # coordinates up to half the limit, so that a rotation keeps them in
        src = (rng.random((2000, 3)) - 0.5) * COORDINATE_LIMIT
        rot = rotation_about_axis([0.01, -0.02, 0.03], 0.0374)
        tgt = src @ rot.T
        detection = scale.detect_scale(2.0 * src, src)
        assert detection.differs and detection.ratio == pytest.approx(0.5)
        assert rotation_angle_between(align(src, tgt).rotation, rot) < 1e-9
        result = icp.icp_register(src, tgt)
        assert rotation_angle_between(result.transform.rotation, rot) < 1e-9


class TestValidation:
    def test_non_orthonormal_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.parametrize("rotation, translation, message", [
        (np.eye(2), np.zeros(3), "rotation must be 3x3 and translation length 3"),
        (np.eye(4)[:3], np.zeros(3), "rotation must be 3x3 and translation length 3"),
        (np.eye(3), np.zeros(4), "rotation must be 3x3 and translation length 3"),
        (np.eye(3), [0.0, np.nan, 0.0], "transform entries must be finite"),
        (np.diag([1.0, np.inf, 1.0]), np.zeros(3), "transform entries must be finite"),
    ], ids=["rotation-2x2", "rotation-3x4", "translation-4", "translation-nan",
            "rotation-inf"])
    def test_malformed_transform_rejected(self, rotation, translation, message):
        with pytest.raises(ValueError) as err:
            RigidTransform(rotation, translation)
        assert str(err.value) == message

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, RigidTransform.identity())

    def test_arrays_frozen(self):
        t = RigidTransform.identity()
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 2.0


class TestRotationHelpers:
    def test_axis_angle_matches_independent_builder(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3) * rng.uniform(0.1, 10.0)
            angle = rng.uniform(-np.pi, np.pi)
            got = rotation_about_axis(axis, angle)
            assert np.abs(got - rodrigues(axis, angle)).max() < 1e-15

    def test_cross_product_matrix(self, rng):
        for _ in range(10):
            v, w = rng.normal(size=(2, 3))
            assert np.allclose(skew(v) @ w, np.cross(v, w), rtol=0, atol=1e-15)

    def test_stacked_forms_equal_single_ones(self, rng):
        axes = rng.normal(size=(50, 3)) * rng.uniform(1e-3, 1e3, size=(50, 1))
        skews = skew(axes)
        assert skews.shape == (50, 3, 3)
        for i in range(50):
            assert np.array_equal(skews[i], skew(axes[i]))

    @pytest.mark.parametrize("axis, message", [
        (np.zeros(3), "rotation axis must be nonzero"),
        (np.ones((2, 3)), r"rotation axis must have shape \(3,\), got \(2, 3\)"),
        (np.ones(4), r"rotation axis must have shape \(3,\), got \(4,\)"),
    ], ids=["zero", "stacked", "four-components"])
    def test_axis_refused(self, axis, message):
        with pytest.raises(ValueError, match=message):
            rotation_about_axis(axis, 0.3)

    def test_transform_rows_equals_apply(self, rng):
        pose = RigidTransform(random_rotation(rng), rng.normal(size=3))
        rows = np.ascontiguousarray(rng.normal(size=(3, 500)))
        assert np.array_equal(transform_rows(pose, rows), pose.apply(rows.T).T)
