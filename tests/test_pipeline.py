import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import pcr
from pcr import cli, synth
from pcr.cloudio import Cloud, read_ply, read_report, write_ply
from pcr.errors import StageError
from pcr.geom import bounds, rotation_about_axis
from pcr.pipeline import PipelineConfig, run_pipeline
from pcr.synth import SynthSpec, generate_synthetic, read_ground_truth

from conftest import rodrigues, rotation_angle_between


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """One standard noisy scene with outliers, shared across tests."""
    out = tmp_path_factory.mktemp("scene")
    spec = SynthSpec(points=1200, match_count=150, outlier_fraction=0.3, seed=7)
    return generate_synthetic(spec, out)


def config_for(paths, **kw):
    return PipelineConfig(
        source=paths["source"], target=paths["target"],
        matches=paths["matches"],
        intrinsics_source=paths["intrinsics_source"],
        intrinsics_target=paths["intrinsics_target"], **kw)


def assert_within_criterion_01(report, paths):
    """Scale within 1%, rotation within 0.5 deg, translation within 1% of
    the target diagonal."""
    truth = read_ground_truth(paths["ground_truth"])
    assert abs(report.scale / truth.scale - 1.0) < 0.01
    assert np.degrees(rotation_angle_between(
        report.final_transform.rotation, truth.rotation)) < 0.5
    diag = bounds(read_ply(paths["target"]).points).diagonal_length()
    err = np.linalg.norm(report.final_transform.translation - truth.translation)
    assert err < 0.01 * diag


def write_thin_pair(directory):
    """A source 1e-5 thick across two axes and its copy shifted by 0.01 in x,
    with 1e-6 noise: its Hessian (cond about 4e9) passes the covariance gate,
    but the covariance's smallest eigenvalue is below 1e-12 times its trace,
    so the information matrix refuses it. The fitted pair noise sets both
    numbers of the refusal, not their ratio."""
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(2000, 3)) * [1.0, 1e-5, 1e-5]
    write_ply(Cloud(points=pts), directory / "s.ply")
    write_ply(Cloud(points=pts + [0.01, 0.0, 0.0] + rng.normal(scale=1e-6, size=pts.shape)),
              directory / "t.ply")
    return directory / "s.ply", directory / "t.ply"


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

    def test_edge_scene_4002_within_criterion_01_tolerances(self, tmp_path):
        # An edge-small scene that a fixed count of 1000 minimal samples,
        # refit only from the best one, registered 1.08% off in scale.
        spec = SynthSpec(seed=4002, scale=2.5, rotation_deg=15.0, noise=0.005,
                         outlier_fraction=0.3, points=2000, match_count=200)
        paths = generate_synthetic(spec, tmp_path)
        assert_within_criterion_01(run_pipeline(config_for(paths)),
                                   paths)

    @pytest.mark.parametrize("scale, seed", [(0.4, 0), (0.4, 5), (0.5, 10), (0.6, 0)])
    def test_shrinking_edge_within_criterion_01_tolerances(self, tmp_path, scale, seed):
        # scenes whose shifted target once left matched points behind the camera
        spec = SynthSpec(seed=seed, scale=scale, rotation_deg=15.0, noise=0.005,
                         outlier_fraction=0.3, points=2000, match_count=200)
        paths = generate_synthetic(spec, tmp_path)
        report = run_pipeline(config_for(paths))
        assert report.scale_detected
        assert_within_criterion_01(report, paths)

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

    def test_covariance_fields_consistent(self, scene_dir):
        report = run_pipeline(config_for(scene_dir))
        assert np.abs(report.covariance - report.covariance.T).max() <= 1e-9
        assert np.abs(report.information @ report.covariance - np.eye(6)).max() < 1e-6

    def test_noiseless_scene_recovered_to_1e4(self, tmp_path):
        spec = SynthSpec(points=900, match_count=100, noise=0.0,
                         outlier_fraction=0.0, seed=17)
        paths = generate_synthetic(spec, tmp_path)
        report = run_pipeline(config_for(paths))
        truth = read_ground_truth(paths["ground_truth"])
        assert abs(report.scale / truth.scale - 1.0) < 1e-4
        assert rotation_angle_between(report.final_transform.rotation,
                                      truth.rotation) < 1e-4
        assert np.abs(report.final_transform.translation
                      - truth.translation).max() < 1e-4

    @pytest.mark.parametrize("noise", [0.0, 0.0005, 0.005])
    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_quarter_turn_about_y_registers(self, tmp_path, monkeypatch, seed, noise):
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
            paths = generate_synthetic(spec, tmp_path / str(degrees))
            report = run_pipeline(config_for(paths))
            assert_within_criterion_01(report, paths)
            rotation_std[degrees] = np.sqrt(np.diag(report.covariance)[3:]) / report.rms
        assert np.abs(rotation_std[90.0] / rotation_std[15.0] - 1.0).max() < 0.1


class TestCli:
    def test_synth_then_register_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "scene"
        rc = cli.main(["synth", "--scale", "2.5", "--rot-deg", "15",
                       "--points", "600", "--noise", "0.005",
                       "--outliers", "0.3", "--matches", "80",
                       "--seed", "7", "--out-dir", str(out_dir)])
        assert rc == 0
        report_path = tmp_path / "report.json"
        rc = cli.main([
            "register",
            "--source", str(out_dir / "source.ply"),
            "--target", str(out_dir / "target.ply"),
            "--matches", str(out_dir / "matches.csv"),
            "--intrinsics-source", str(out_dir / "intrinsics_source.json"),
            "--intrinsics-target", str(out_dir / "intrinsics_target.json"),
            "--out", str(report_path),
        ])
        assert rc == 0
        report = read_report(report_path)
        truth = read_ground_truth(out_dir / "ground_truth.json")
        assert abs(report.scale / truth.scale - 1.0) < 0.01

    def test_exit_code_io_error(self, tmp_path, capsys):
        rc = cli.main(["register", "--source", str(tmp_path / "x.ply"),
                       "--target", str(tmp_path / "y.ply"),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "stage io" in capsys.readouterr().err

    def test_bad_match_depth_reports_its_line(self, tmp_path, rng, capsys):
        pts = rng.uniform(-1, 1, size=(200, 3))
        write_ply(Cloud(points=pts), tmp_path / "a.ply")
        write_ply(Cloud(points=pts), tmp_path / "b.ply")
        matches = tmp_path / "m.csv"
        # the blank line 3 still counts toward the reported line
        matches.write_text("us,vs,ds,ut,vt,dt\n1,2,3,4,5,6\n\n1,2,-3,4,5,6\n7,8,9,10,11,12\n")
        report = tmp_path / "r.json"
        rc = cli.main(["register", "--source", str(tmp_path / "a.ply"),
                       "--target", str(tmp_path / "b.ply"), "--matches", str(matches),
                       "--out", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"pcr: error in stage io: {matches}:4: ds must be a positive depth"]
        assert not report.exists()

    def test_exit_code_covariance_stage(self, tmp_path, capsys):
        source, target = write_thin_pair(tmp_path)
        report = tmp_path / "r.json"
        rc = cli.main(["register", "--source", str(source), "--target", str(target),
                       "--out", str(report)])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.splitlines() == ["pcr: error in stage covariance: covariance is "
                                    "singular: smallest eigenvalue 2.229e-10, "
                                    "trace 9.176e+02"]
        assert not report.exists()

    def test_exit_code_scale_stage(self, tmp_path, rng, capsys):
        pts = rng.uniform(-1, 1, size=(200, 3))
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        write_ply(Cloud(points=pts), a)
        write_ply(Cloud(points=3.0 * pts), b)
        rc = cli.main(["register", "--source", str(a), "--target", str(b),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 6
        assert "scale estimation requires matches" in capsys.readouterr().err

    def test_exit_code_relpose_stage(self, tmp_path, rng, capsys):
        pts = rng.uniform(-1, 1, size=(200, 3))
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        write_ply(Cloud(points=pts), a)
        write_ply(Cloud(points=3.0 * pts), b)
        matches = tmp_path / "m.csv"
        rows = ["us,vs,ds,ut,vt,dt"]
        rows += [f"{100 + i},{120 + i},2.0,{300 + i},{200 + i},5.0" for i in range(9)]
        matches.write_text("\n".join(rows) + "\n")
        k = tmp_path / "k.json"
        k.write_text('{"fx":525,"fy":525,"cx":319.5,"cy":239.5}')
        rc = cli.main(["register", "--source", str(a), "--target", str(b),
                       "--matches", str(matches),
                       "--intrinsics-source", str(k),
                       "--intrinsics-target", str(k),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "stage relpose" in capsys.readouterr().err

    def test_unconverged_icp_warns_and_exits_0(self, tmp_path, rng):
        # a separate interpreter with no logging set up, as a shell user
        # runs it, with ICP's cap cut to one iteration
        pts = rng.uniform(-1, 1, size=(300, 3))
        write_ply(Cloud(points=pts), tmp_path / "a.ply")
        write_ply(Cloud(points=pts @ rodrigues([0, 1, 0], 0.2).T + 0.1),
                  tmp_path / "b.ply")
        report = tmp_path / "r.json"
        src_dir = str(Path(pcr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        run_capped = ("import sys, pcr.cli, pcr.icp; pcr.icp.MAX_ITERATIONS = 1; "
                      "sys.exit(pcr.cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", run_capped, "register",
             "--source", str(tmp_path / "a.ply"),
             "--target", str(tmp_path / "b.ply"), "--out", str(report),
             "--no-scale"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "stage icp: ICP stopped unconverged after 1 iterations" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert read_report(report).iterations == 1

    def test_register_deterministic_bytes(self, tmp_path):
        out_dir = tmp_path / "scene"
        cli.main(["synth", "--points", "500", "--matches", "60",
                  "--outliers", "0.2", "--seed", "3", "--out-dir", str(out_dir)])
        args = ["register",
                "--source", str(out_dir / "source.ply"),
                "--target", str(out_dir / "target.ply"),
                "--matches", str(out_dir / "matches.csv"),
                "--intrinsics-source", str(out_dir / "intrinsics_source.json"),
                "--intrinsics-target", str(out_dir / "intrinsics_target.json")]
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert cli.main(args + ["--out", str(r1)]) == 0
        assert cli.main(args + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_default_report_equals_library_default(self, tmp_path):
        # one path from the clouds to ICP: the CLI with no optional flag and
        # run_pipeline with a default config write the same bytes
        paths = generate_synthetic(SynthSpec(), tmp_path / "scene")
        by_cli = tmp_path / "cli.json"
        by_library = tmp_path / "library.json"
        assert cli.main(["register", "--source", paths["source"],
                         "--target", paths["target"], "--matches", paths["matches"],
                         "--intrinsics-source", paths["intrinsics_source"],
                         "--intrinsics-target", paths["intrinsics_target"],
                         "--out", str(by_cli)]) == 0
        run_pipeline(config_for(paths, report_path=str(by_library)))
        assert by_cli.read_bytes() == by_library.read_bytes()
