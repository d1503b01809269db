import numpy as np
import pytest

from pcr.cloudio import Cloud
from pcr.filters import FilterConfig, crop_lower, remove_remote

from conftest import rodrigues


def cloud_from(pts):
    return Cloud(points=np.asarray(pts, dtype=float))


class TestCropLower:
    def test_full_fraction_is_identity(self, rng):
        cloud = cloud_from(rng.normal(size=(50, 3)))
        out = crop_lower(cloud, FilterConfig(crop_fraction=1.0))
        assert np.array_equal(out.points, cloud.points)

    def test_quarter_on_integer_heights(self):
        # heights 0..99: boundary = 24.75, so exactly 0..24 are retained
        pts = np.zeros((100, 3))
        pts[:, 1] = np.arange(100.0)
        out = crop_lower(cloud_from(pts), FilterConfig(crop_fraction=0.25))
        assert sorted(out.points[:, 1]) == list(np.arange(25.0))

    def test_boundary_point_retained(self):
        pts = np.zeros((101, 3))
        pts[:100, 1] = np.arange(100.0)
        pts[100, 1] = 24.75  # exactly on the boundary
        out = crop_lower(cloud_from(pts), FilterConfig(crop_fraction=0.25))
        assert 24.75 in out.points[:, 1]

    def test_matches_exhaustive_scan(self, rng):
        pts = rng.normal(size=(200, 3)) * 5
        cfg = FilterConfig(crop_fraction=0.25)
        out = crop_lower(cloud_from(pts), cfg)
        lo = pts[:, 1].min()
        hi = pts[:, 1].max()
        boundary = lo + 0.25 * (hi - lo)
        expected = pts[pts[:, 1] <= boundary]
        assert np.array_equal(out.points, expected)

    def test_flat_cloud_fully_retained(self):
        pts = np.zeros((10, 3))
        pts[:, 0] = np.arange(10.0)
        out = crop_lower(cloud_from(pts), FilterConfig(crop_fraction=0.25))
        assert len(out) == 10

    def test_idempotent(self, rng):
        cfg = FilterConfig(crop_fraction=0.25)
        cloud = cloud_from(rng.normal(size=(300, 3)))
        once = crop_lower(cloud, cfg)
        twice = crop_lower(once, cfg)
        assert np.array_equal(once.points, twice.points)

    def test_order_preserving_subset(self, rng):
        pts = rng.normal(size=(100, 3))
        out = crop_lower(cloud_from(pts), FilterConfig(crop_fraction=0.4))
        rows = [tuple(r) for r in pts]
        kept = [tuple(r) for r in out.points]
        positions = [rows.index(k) for k in kept]
        assert positions == sorted(positions)

    def test_commutes_with_vertical_axis_rigid_motion(self, rng):
        # rotation about the default vertical axis y plus horizontal shift
        cfg = FilterConfig(crop_fraction=0.25)
        rot = rodrigues([0.0, 1.0, 0.0], 0.7)
        shift = np.array([2.0, 0.0, -1.0])
        pts = rng.normal(size=(250, 3))
        moved_then_cropped = crop_lower(cloud_from(pts @ rot.T + shift), cfg)
        cropped_then_moved = crop_lower(cloud_from(pts), cfg).points @ rot.T + shift
        assert np.allclose(moved_then_cropped.points, cropped_then_moved, atol=1e-12)

    def test_axis_selector(self):
        # the crop reads y only: heights in x or z are never cropped
        pts = np.zeros((10, 3))
        pts[:, 0] = np.arange(10.0)
        pts[:, 2] = np.arange(10.0)
        out = crop_lower(cloud_from(pts), FilterConfig(crop_fraction=0.25))
        assert np.array_equal(out.points, pts)
        pts[:, 1] = np.arange(10.0)
        out = crop_lower(cloud_from(pts), FilterConfig(crop_fraction=0.25))
        assert out.points[:, 1].max() <= 0.25 * 9.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(crop_fraction=0.0)
        with pytest.raises(ValueError):
            FilterConfig(crop_fraction=1.5)


class TestRemoveRemote:
    def test_uniform_cube_untouched(self, rng):
        cloud = cloud_from(rng.uniform(-1, 1, size=(200, 3)))
        out = remove_remote(cloud)
        assert np.array_equal(out.points, cloud.points)

    def test_single_far_point_removed(self, rng):
        pts = rng.uniform(-1, 1, size=(200, 3))
        far = np.array([[100.0, 0.0, 0.0]])
        cloud = cloud_from(np.vstack([pts, far]))
        out = remove_remote(cloud, multiplier=5.0)
        # brute-force check of the rule
        centroid = cloud.points.mean(axis=0)
        dist = np.linalg.norm(cloud.points - centroid, axis=1)
        expected = cloud.points[dist <= 5.0 * np.median(dist)]
        assert np.array_equal(out.points, expected)
        assert len(out) == 200
        assert not any(np.array_equal(row, far[0]) for row in out.points)

    def test_huge_multiplier_is_identity(self, rng):
        cloud = cloud_from(rng.normal(size=(50, 3)))
        out = remove_remote(cloud, multiplier=1e12)
        assert np.array_equal(out.points, cloud.points)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            remove_remote(cloud_from([[0.0, 0.0, 0.0]]))

    def test_order_preserved(self, rng):
        pts = rng.normal(size=(100, 3))
        pts[7] *= 50
        out = remove_remote(cloud_from(pts), multiplier=3.0)
        rows = [tuple(r) for r in pts]
        positions = [rows.index(tuple(k)) for k in out.points]
        assert positions == sorted(positions)
