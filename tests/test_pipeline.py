import os
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

import pcr
from pcr import relpose, scale, synth
from pcr.cloudio import Cloud, read_ply, read_report, write_ply, write_report
from pcr.errors import StageError
from pcr.geom import bounds, rotation_about_axis
from pcr.pipeline import PipelineConfig, register, run_pipeline
from pcr.synth import SynthSpec, build_scene, generate_synthetic, read_ground_truth

from conftest import config_for, register_scene, rotation_angle_between, write_thin_pair


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """One standard noisy scene with outliers, shared across tests."""
    out = tmp_path_factory.mktemp("scene")
    spec = SynthSpec(points=1200, match_count=150, outlier_fraction=0.3, seed=7)
    return generate_synthetic(spec, out)


def assert_within_criterion_01(report, scene):
    """Scale within 1%, rotation within 0.5 deg, translation within 1% of
    the target diagonal of a ``build_scene`` scene."""
    truth = scene.ground_truth
    assert abs(report.scale / truth.scale - 1.0) < 0.01
    assert np.degrees(rotation_angle_between(
        report.final_transform.rotation, truth.rotation)) < 0.5
    diag = bounds(scene.target.points).diagonal_length()
    err = np.linalg.norm(report.final_transform.translation - truth.translation)
    assert err < 0.01 * diag


class TestRunPipeline:
    def test_identical_clouds_no_matches(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(400, 3))
        path = tmp_path / "c.ply"
        write_ply(Cloud(points=pts, label="c"), path)
        report = run_pipeline(PipelineConfig(source=str(path), target=str(path)))
        assert not report.scale_detected
        assert report.scale == 1.0
        assert rotation_angle_between(report.final_transform.rotation, np.eye(3)) < 1e-6
        assert np.abs(report.final_transform.translation).max() < 1e-6
        assert report.rms < 1e-9

    def test_recovers_ground_truth(self, scene_dir):
        report = run_pipeline(config_for(scene_dir))
        truth = read_ground_truth(scene_dir["ground_truth"])
        assert report.scale_detected
        assert abs(report.scale / truth.scale - 1.0) < 0.01
        assert np.degrees(rotation_angle_between(
            report.final_transform.rotation, truth.rotation)) < 0.5
        diag = bounds(read_ply(scene_dir["target"]).points).diagonal_length()
        err = np.linalg.norm(report.final_transform.translation - truth.translation)
        assert err < 0.01 * diag

    def test_edge_scene_4002_within_criterion_01_tolerances(self):
        # An edge-small scene that a fixed count of 1000 minimal samples,
        # refit only from the best one, registered 1.08% off in scale.
        spec = SynthSpec(seed=4002, scale=2.5, rotation_deg=15.0, noise=0.005,
                         outlier_fraction=0.3, points=2000, match_count=200)
        scene = build_scene(spec)
        assert_within_criterion_01(register_scene(scene), scene)

    @pytest.mark.parametrize("scale, seed", [(0.4, 0), (0.4, 5), (0.5, 10), (0.6, 0)])
    def test_shrinking_edge_within_criterion_01_tolerances(self, scale, seed):
        # scenes whose shifted target once left matched points behind the camera
        spec = SynthSpec(seed=seed, scale=scale, rotation_deg=15.0, noise=0.005,
                         outlier_fraction=0.3, points=2000, match_count=200)
        scene = build_scene(spec)
        report = register_scene(scene)
        assert report.scale_detected
        assert_within_criterion_01(report, scene)

    def test_scale_gap_without_matches_is_stage2(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(300, 3))
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        write_ply(Cloud(points=pts), a)
        write_ply(Cloud(points=2.5 * pts), b)
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig(source=str(a), target=str(b)))
        assert err.value.stage == "scale"
        assert err.value.exit_code == 6
        assert "matches" in str(err.value)

    def test_scaled_source_past_coordinate_limit_is_scale_stage(self, scene_dir, tmp_path):
        # a source at 5e149 is readable, but the scale of 2.5 takes it past
        # the 1e150 that a cloud may hold
        source = read_ply(scene_dir["source"])
        far = tmp_path / "far.ply"
        write_ply(Cloud(points=source.points * (5e149 / np.abs(source.points).max())), far)
        report = tmp_path / "r.json"
        with pytest.raises(StageError) as err:
            run_pipeline(config_for({**scene_dir, "source": str(far)},
                                    report_path=str(report)))
        assert (err.value.stage, err.value.exit_code) == ("scale", 6)
        assert "at most 1e+150 in magnitude" in str(err.value)
        assert not report.exists()

    @pytest.mark.parametrize("stage, code", [
        ("io", 1), ("relpose", 3), ("icp", 4), ("covariance", 5), ("scale", 6)])
    def test_exit_code_follows_the_stage(self, stage, code):
        # the README's table of exit codes
        assert StageError(stage, "x").exit_code == code

    def test_index_error_in_a_stage_propagates(self, scene_dir, monkeypatch):
        # no stage raises IndexError on purpose: one is a bug, not a stage
        # failure with an exit code
        def broken(*args):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr(pcr.pipeline.scale, "detect_scale", broken)
        with pytest.raises(IndexError):
            run_pipeline(config_for(scene_dir))

    def test_report_that_fails_its_check_is_covariance_stage(self, tmp_path):
        source, target = write_thin_pair(tmp_path)
        report = tmp_path / "r.json"
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig(source=str(source), target=str(target),
                                        report_path=str(report)))
        assert err.value.stage == "covariance"
        assert err.value.exit_code == 5
        assert str(err.value) == ("covariance: covariance is singular: smallest "
                                  "eigenvalue 2.229e-10, trace 9.176e+02")
        assert not report.exists()

    def test_exact_fit_is_covariance_stage(self, tmp_path):
        # a 3x3x3 grid registered on itself: ICP returns the identity
        # exactly, so the pairs leave no noise level to scale the covariance
        grid = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3), axis=-1).reshape(-1, 3)
        path = tmp_path / "grid.ply"
        write_ply(Cloud(points=grid), path)
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig(source=str(path), target=str(path)))
        assert (err.value.stage, err.value.exit_code) == ("covariance", 5)
        assert "fit exactly" in str(err.value)

    def test_removed_filters_refused(self):
        with pytest.raises(ValueError, match="filters were removed"):
            PipelineConfig(source="a.ply", target="b.ply", apply_filters=True)

    @pytest.mark.parametrize("outputs, named", [
        (dict(report_path="scene/source.ply"), "{root}/scene/source.ply"),
        (dict(report_path="r.json", transformed_path="./r.json"), "r.json"),
        (dict(report_path="r.json", transformed_path="{root}/scene/m.csv"), "scene/m.csv"),
    ], ids=["report-is-source", "outputs-alike", "transformed-is-matches"])
    def test_output_naming_an_input_or_the_other_output_refused(
            self, tmp_path, monkeypatch, outputs, named):
        # each pair spells one file differently: relative and absolute, or
        # through "."
        monkeypatch.chdir(tmp_path)
        outputs = {key: path.format(root=tmp_path) for key, path in outputs.items()}
        named = re.escape(named.format(root=tmp_path))
        with pytest.raises(ValueError, match=f"names the same file as {named}$"):
            PipelineConfig(source=str(tmp_path / "scene" / "source.ply"), target="t.ply",
                           matches="scene/m.csv", **outputs)

    def test_output_hard_linked_to_an_input_refused(self, tmp_path):
        source = tmp_path / "source.ply"
        source.write_bytes(b"ply\n")
        os.link(source, tmp_path / "link.ply")
        with pytest.raises(ValueError, match="names the same file as"):
            PipelineConfig(source=str(source), target="t.ply",
                           report_path=str(tmp_path / "link.ply"))

    def test_missing_file_is_stage1(self, tmp_path):
        with pytest.raises(StageError) as err:
            run_pipeline(PipelineConfig(source=str(tmp_path / "nope.ply"),
                                        target=str(tmp_path / "nope.ply")))
        assert err.value.exit_code == 1

    def test_report_and_transformed_cloud_written(self, scene_dir, tmp_path):
        report_path = tmp_path / "report.json"
        moved_path = tmp_path / "moved.ply"
        report = run_pipeline(config_for(
            scene_dir, report_path=str(report_path), transformed_path=str(moved_path)))
        disk = read_report(report_path)
        assert disk.scale == report.scale
        assert np.array_equal(disk.covariance, report.covariance)
        moved = read_ply(moved_path)
        source = read_ply(scene_dir["source"])
        assert np.allclose(
            moved.points, report.final_transform.apply(source.points), atol=1e-12)

    def test_unwritable_transformed_cloud_leaves_no_report(self, scene_dir, tmp_path):
        # the report is written last, so a run that fails leaves none
        report_path = tmp_path / "report.json"
        with pytest.raises(StageError) as err:
            run_pipeline(config_for(scene_dir, report_path=str(report_path),
                                    transformed_path=str(tmp_path / "nodir" / "m.ply")))
        assert err.value.stage == "io"
        assert not report_path.exists()

    def test_unwritable_report_removes_the_transformed_cloud(self, scene_dir, tmp_path):
        # a run that fails writing its report leaves neither output
        report_path = tmp_path / "nodir" / "r.json"
        moved_path = tmp_path / "m.ply"
        with pytest.raises(StageError) as err:
            run_pipeline(config_for(scene_dir, report_path=str(report_path),
                                    transformed_path=str(moved_path)))
        assert err.value.stage == "io"
        assert isinstance(err.value.cause, FileNotFoundError)
        assert not report_path.exists()
        assert not moved_path.exists()

    def test_final_transform_consistent_with_rms(self, scene_dir):
        report = run_pipeline(config_for(scene_dir))
        source = read_ply(scene_dir["source"]).points
        target = read_ply(scene_dir["target"]).points
        moved = report.final_transform.apply(source)
        dist, _ = cKDTree(target).query(moved)
        assert dist.mean() <= report.rms + 1e-9

    def test_no_scale_flag_matches_default_on_equal_pair(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(500, 3))
        shifted = pts + np.array([0.05, 0.02, -0.04])
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        write_ply(Cloud(points=pts), a)
        write_ply(Cloud(points=shifted), b)
        base = PipelineConfig(source=str(a), target=str(b))
        flagged = PipelineConfig(source=str(a), target=str(b), use_scale=False)
        r1 = run_pipeline(base)
        r2 = run_pipeline(flagged)
        assert abs(r1.scale - r2.scale) < 1e-12
        assert np.abs(r1.final_transform.rotation
                      - r2.final_transform.rotation).max() < 1e-6
        assert np.abs(r1.final_transform.translation
                      - r2.final_transform.translation).max() < 1e-6

    def test_fitted_pair_noise_logged_once(self, scene_dir, caplog):
        with caplog.at_level("DEBUG", logger="pcr"):
            report = run_pipeline(config_for(scene_dir))
        lines = [r.getMessage() for r in caplog.records if "pair noise" in r.getMessage()]
        assert len(lines) == 1
        assert lines[0].startswith("stage covariance: pair noise ")
        # ICP's rms is sqrt(RSS / N) over the same final pairs, and the
        # fitted noise sqrt(RSS / (3N - 6))
        words = lines[0].split()
        sigma, n = float(words[4]), int(words[6])
        assert sigma == pytest.approx(report.rms * np.sqrt(n / (3 * n - 6)), rel=1e-5)

    def test_relative_pose_draw_logged_once(self, scene_dir, caplog):
        with caplog.at_level("DEBUG", logger="pcr"):
            run_pipeline(config_for(scene_dir))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("relpose:")]
        assert len(lines) == 1
        assert lines[0].startswith("relpose: three-point draw, ")
        assert lines[0].endswith(" of 150 matches inliers")

    @pytest.mark.parametrize("outliers", [0.5, 0.7])
    def test_majority_outlier_edges_register(self, outliers):
        # edge-small-shaped edges (2000 points, 200 matches, s = 2.5, 15 deg)
        # with half or more of the matches wrong: at least 19 of 20 within
        # criterion 01's tolerances. Eight-point samples got 15 and 5.
        right = 0
        for seed in range(1000, 1020):
            spec = SynthSpec(scale=2.5, rotation_deg=15.0, points=2000, noise=0.005,
                             outlier_fraction=outliers, match_count=200, seed=seed)
            scene = build_scene(spec)
            try:
                assert_within_criterion_01(register_scene(scene), scene)
            except (AssertionError, StageError):
                continue
            right += 1
        assert right >= 19

    def test_covariance_fields_consistent(self, scene_dir):
        report = run_pipeline(config_for(scene_dir))
        assert np.abs(report.covariance - report.covariance.T).max() <= 1e-9
        assert np.abs(report.information @ report.covariance - np.eye(6)).max() < 1e-6

    def test_noiseless_scene_recovered_to_1e4(self):
        spec = SynthSpec(points=900, match_count=100, noise=0.0,
                         outlier_fraction=0.0, seed=17)
        scene = build_scene(spec)
        report = register_scene(scene)
        truth = scene.ground_truth
        assert abs(report.scale / truth.scale - 1.0) < 1e-4
        assert rotation_angle_between(report.final_transform.rotation,
                                      truth.rotation) < 1e-4
        assert np.abs(report.final_transform.translation
                      - truth.translation).max() < 1e-4

    @pytest.mark.parametrize("noise", [0.0, 0.0005, 0.005])
    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_quarter_turn_about_y_registers(self, monkeypatch, seed, noise):
        # y is the cameras' vertical axis, so a quarter turn about it is the
        # commonest offset between two sessions; it is where ZYX Euler
        # angles lock. The edge must register, and its rotation standard
        # deviations (body-frame tangent coordinates) must match the same
        # scene turned 15 degrees within 10%. The covariance scales with the
        # noise fitted to each edge's own pairs, which follows the scale
        # seed's error and so differs between the two scenes; each standard
        # deviation is taken per unit of its report's rms.
        monkeypatch.setattr(synth, "rotation_about_axis",
                            lambda axis, angle: rotation_about_axis([0.0, 1.0, 0.0], angle))
        rotation_std = {}
        for degrees in (15.0, 90.0):
            spec = SynthSpec(rotation_deg=degrees, noise=noise, seed=seed)
            scene = build_scene(spec)
            report = register_scene(scene)
            assert_within_criterion_01(report, scene)
            rotation_std[degrees] = np.sqrt(np.diag(report.covariance)[3:]) / report.rms
        assert np.abs(rotation_std[90.0] / rotation_std[15.0] - 1.0).max() < 0.1


class TestRegister:
    @pytest.mark.parametrize("spec, matches", [
        (SynthSpec(), True),
        (SynthSpec(scale=1.0, rotation_deg=5.0, outlier_fraction=0.3, seed=3), False),
    ], ids=["edge", "rigid"])
    def test_register_writes_the_bytes_run_pipeline_writes(self, tmp_path, spec, matches):
        # the scene's files hold its arrays bit for bit, so the array entry
        # and the file entry run one registration
        paths = generate_synthetic(spec, tmp_path / "scene")
        by_arrays, by_files = tmp_path / "arrays.json", tmp_path / "files.json"
        report = register_scene(build_scene(spec), matches=matches)
        assert report.scale_detected == matches
        write_report(report, by_arrays)
        run_pipeline(config_for(paths, matches=matches, report_path=str(by_files)))
        assert by_arrays.read_bytes() == by_files.read_bytes()

    @pytest.mark.parametrize("spec", [SynthSpec(), SynthSpec(outlier_fraction=0.3, seed=1011)],
                             ids=["default", "residual-trimmed"])
    def test_seed_scale_is_the_estimate_over_the_gate_pairs(self, spec):
        # the gate's pairs are the ones the seed's scale is fitted to; on
        # the second scene the residual rule drops one pair the distance
        # ratios keep
        scene = build_scene(spec)
        k_source, k_target = scene.intrinsics_source, scene.intrinsics_target
        pose = relpose.ransac_relative_pose(scene.matches, k_source, k_target)
        inliers = scene.matches[pose.inliers]
        src, tgt = inliers[inliers.has_depths].points(k_source, k_target)
        rotation = pose.transform.rotation
        kept = scale.depth_consistent_indices(src, tgt, rotation)
        estimate = scale.estimate_scale_kalman(src[kept], tgt[kept], rotation)
        assert register_scene(scene).scale == estimate.scale

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("bad", [
        [[0.0, np.nan, 1.0]], np.zeros((4, 2)), np.empty((0, 3))],
        ids=["nan", "wrong-shape", "empty"])
    def test_cloud_the_reader_refuses_is_io_stage(self, rng, side, bad):
        # register refuses in stage io what cloudio.Cloud refuses, as
        # run_pipeline does when reading the cloud
        clouds = {"source": rng.uniform(-1, 1, size=(50, 3)),
                  "target": rng.uniform(-1, 1, size=(50, 3)), side: bad}
        with pytest.raises(ValueError) as refused:
            Cloud(points=bad)
        with pytest.raises(StageError) as err:
            register(**clouds)
        assert (err.value.stage, err.value.exit_code) == ("io", 1)
        assert str(err.value.cause) == str(refused.value)
