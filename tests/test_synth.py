from pathlib import Path

import numpy as np
import pytest

from pcr.cloudio import read_matches, read_ply
from pcr.geom import bounds
from pcr.synth import SynthSpec, build_scene, generate_synthetic, read_ground_truth


class TestBuildScene:
    def test_noiseless_scene_is_exact(self):
        spec = SynthSpec(noise=0.0, outlier_fraction=0.0, points=500,
                         match_count=60, seed=3)
        scene = build_scene(spec)
        # target cloud is exactly the transformed source (up to reordering)
        mapped = scene.ground_truth.apply(scene.source.points)
        a = np.sort(mapped.round(9), axis=0)
        b = np.sort(scene.target.points.round(9), axis=0)
        assert np.allclose(a, b, atol=1e-9)
        # matches backproject onto the exact geometry
        p, q = scene.matches.points(scene.intrinsics_source, scene.intrinsics_target)
        assert np.allclose(scene.ground_truth.apply(p), q, atol=1e-9)

    def test_outlier_count_exact(self):
        spec = SynthSpec(outlier_fraction=0.3, match_count=200, seed=5)
        scene = build_scene(spec)
        assert len(scene.outlier_indices) == round(0.3 * 200)

    def test_outlier_rows_inconsistent_with_ground_truth(self):
        spec = SynthSpec(noise=0.0, outlier_fraction=0.25, match_count=80, seed=9)
        scene = build_scene(spec)
        p, q = scene.matches.points(scene.intrinsics_source, scene.intrinsics_target)
        err = np.linalg.norm(scene.ground_truth.apply(p) - q, axis=1)
        assert np.array_equal(np.flatnonzero(err > 1e-6), scene.outlier_indices)

    @pytest.mark.parametrize("scale, seed", [(0.2, 2), (0.4, 7), (0.6, 26)])
    def test_shrunk_target_stays_in_front(self, scale, seed):
        # seeds whose shift once put matched target points behind the camera
        spec = SynthSpec(scale=scale, noise=0.0, points=300, match_count=40,
                         rotation_deg=40.0, seed=seed)
        scene = build_scene(spec)
        assert (scene.target.points[:, 2] > 0.0).all()
        assert (scene.matches.target_depths > 0.0).all()
        mapped = scene.ground_truth.apply(scene.source.points)
        assert np.allclose(np.sort(mapped, axis=0),
                           np.sort(scene.target.points, axis=0), atol=1e-12)

    def test_noise_level_matches_definition(self):
        spec = SynthSpec(noise=0.01, outlier_fraction=0.0, points=20000,
                         match_count=50, seed=11)
        scene = build_scene(spec)
        diag = bounds(scene.source.points).diagonal_length()
        mapped = scene.ground_truth.apply(scene.source.points)
        order_a = np.lexsort(mapped.T)
        # displacement rms as a fraction of the source diagonal: compare
        # against the sorted target through the nearest-point pairing
        from scipy.spatial import cKDTree
        d, _ = cKDTree(scene.target.points).query(mapped)
        rms = np.sqrt((d**2).mean())
        assert rms == pytest.approx(0.01 * diag, rel=0.1)
        del order_a


class TestGenerateSynthetic:
    def test_files_written_and_consistent(self, tmp_path):
        spec = SynthSpec(points=300, match_count=40, seed=21)
        paths = generate_synthetic(spec, tmp_path)
        source = read_ply(paths["source"])
        target = read_ply(paths["target"])
        matches = read_matches(paths["matches"])
        truth = read_ground_truth(paths["ground_truth"])
        assert len(source) == 300 and len(target) == 300
        assert len(matches) == 40
        assert truth.scale == spec.scale

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(points=200, match_count=30, seed=13)
        a = generate_synthetic(spec, tmp_path / "a")
        b = generate_synthetic(spec, tmp_path / "b")
        for key in a:
            bytes_a = Path(a[key]).read_bytes()
            bytes_b = Path(b[key]).read_bytes()
            assert bytes_a == bytes_b, key

    def test_different_seed_differs(self, tmp_path):
        a = generate_synthetic(SynthSpec(points=200, match_count=30, seed=1),
                               tmp_path / "a")
        b = generate_synthetic(SynthSpec(points=200, match_count=30, seed=2),
                               tmp_path / "b")
        assert Path(a["source"]).read_bytes() != Path(b["source"]).read_bytes()
