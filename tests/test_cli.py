import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcr
from pcr import cli
from pcr.cloudio import Cloud, read_ply, read_report, write_ply
from pcr.pipeline import run_pipeline
from pcr.synth import SynthSpec, generate_synthetic, read_ground_truth

from conftest import config_for, rodrigues, write_thin_pair


@pytest.mark.parametrize("flag, value", [
    # removed flags, with any value: the RANSAC and ICP settings (module
    # constants now, so a registration is set by its files alone), out of
    # their old range and in it
    ("--ransac-psi", "-1"),
    ("--ransac-psi", "abc"),
    ("--ransac-psi", "nan"),
    ("--ransac-psi", "inf"),
    ("--max-icp-iters", "0"),
    ("--ransac-iters", "0"),
    ("--seed", "-1"),
    ("--seed", "1"),
    ("--ransac-psi", "1"),
    ("--ransac-iters", "10"),
    ("--max-icp-iters", "5"),
    # the cloud filters and the noise level (the covariance takes it from
    # the fit)
    pytest.param("--no-filter", None, id="--no-filter"),
    ("--crop-fraction", "0.25"),
    ("--sigma-z", "0"),
    ("--sigma-z", "nan"),
    ("--sigma-z", "inf"),
    ("--sigma-z", "1e200"),
    ("--sigma-z", "1e-200"),
])
def test_bad_flag_value_is_usage_error(tmp_path, rng, capsys, flag, value):
    # valid clouds, so that only the flag value can stop the run
    pts = rng.uniform(-1.0, 1.0, size=(200, 3))
    write_ply(Cloud(points=pts), tmp_path / "a.ply")
    write_ply(Cloud(points=pts + 0.01), tmp_path / "b.ply")
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["register", "--source", str(tmp_path / "a.ply"),
                  "--target", str(tmp_path / "b.ply"), "--out", str(report),
                  "--no-scale", flag] + ([value] if value else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # every value prints the same sub-command usage
    assert "usage: pcr register" in err
    assert "pcr register: error:" in err
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("outputs", [
    ["--out", "{source}"],
    ["--out", "x.json", "--transformed", "x.json"],
    ["--out", "x.json", "--transformed", "{matches}"],
], ids=["out-is-source", "out-is-transformed", "transformed-is-matches"])
def test_output_naming_an_input_or_the_other_output_is_usage_error(
        tmp_path, capsys, monkeypatch, outputs):
    paths = generate_synthetic(SynthSpec(), tmp_path / "scene")
    monkeypatch.chdir(tmp_path)
    before = {path: Path(path).read_bytes() for path in paths.values()}
    with pytest.raises(SystemExit) as exc:
        cli.main(["register", "--source", paths["source"], "--target", paths["target"],
                  "--matches", paths["matches"],
                  "--intrinsics-source", paths["intrinsics_source"],
                  "--intrinsics-target", paths["intrinsics_target"]]
                 + [arg.format(**paths) for arg in outputs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: pcr register" in err
    assert "names the same file as" in err
    assert "Traceback" not in err
    assert {path: Path(path).read_bytes() for path in paths.values()} == before
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("args", [
    ["--scale", "-1"],
    ["--points", "3"],
    ["--outliers", "1"],
    ["--points", "100", "--matches", "101"],
    ["--noise", "-0.1"],
    ["--seed", "-1"],
    ["--rot-deg", "nan"],
    # finite values that take the scene's points past the coordinate limit
    ["--scale", "1e200"],
    ["--noise", "1e200"],
], ids=["scale", "points", "outliers", "matches", "noise", "seed", "rotation",
        "scale-past-limit", "noise-past-limit"])
def test_bad_synth_value_is_usage_error(tmp_path, capsys, args):
    # no scene directory is made for a refused spec
    out = tmp_path / "scene"
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out-dir", str(out)] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: pcr synth" in err
    assert "pcr synth: error:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_out_dir_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert cli.main(["synth", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pcr: error:")
    assert len(err.splitlines()) == 1
    assert out.read_text(encoding="utf-8") == "not a directory\n"



def test_coordinates_past_limit_end_in_io_stage(tmp_path, capsys):
    # at 1e160 the squared distances of ICP's nearest-neighbour search
    # overflow; the reader refuses the clouds first
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--scale", "1", "--rot-deg", "5", "--seed", "3",
                     "--out-dir", str(scene)]) == 0
    for name in ("source", "target"):
        points = read_ply(scene / f"{name}.ply").points * 1e160
        header = ("ply\nformat binary_little_endian 1.0\n"
                  f"element vertex {len(points)}\nproperty double x\n"
                  "property double y\nproperty double z\nend_header\n")
        (tmp_path / f"{name}.ply").write_bytes(header.encode() + points.astype("<f8").tobytes())
    capsys.readouterr()
    report = tmp_path / "r.json"
    code = cli.main(["register", "--source", str(tmp_path / "source.ply"),
                     "--target", str(tmp_path / "target.ply"), "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("pcr: error in stage io: ")
    assert "at most 1e+150 in magnitude" in err
    assert not report.exists()


def test_one_intrinsics_file_ends_in_scale_stage(tmp_path, capsys):
    # matches and a scale gap, but no target intrinsics to lift them with
    paths = generate_synthetic(SynthSpec(), tmp_path / "scene")
    report = tmp_path / "r.json"
    code = cli.main(["register", "--source", paths["source"], "--target", paths["target"],
                     "--matches", paths["matches"],
                     "--intrinsics-source", paths["intrinsics_source"], "--out", str(report)])
    assert code == 6
    assert capsys.readouterr().err.splitlines() == [
        "pcr: error in stage scale: scale estimation requires intrinsics for both sides"]
    assert not report.exists()


@pytest.mark.parametrize("flags", [["--matches"],
                                   ["--intrinsics-source", "--intrinsics-target"]],
                         ids=["matches", "intrinsics"])
def test_malformed_file_ends_in_io_stage_without_a_scale_gap(tmp_path, capsys, flags):
    # every given file is read before the stages run, also one that an
    # edge with no scale gap never uses
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--scale", "1", "--rot-deg", "5", "--seed", "3",
                     "--out-dir", str(scene)]) == 0
    bad = tmp_path / "bad"
    bad.write_text("{not json\n", encoding="utf-8")
    capsys.readouterr()
    report = tmp_path / "r.json"
    code = cli.main(["register", "--source", str(scene / "source.ply"),
                     "--target", str(scene / "target.ply"), "--out", str(report)]
                    + [arg for flag in flags for arg in (flag, str(bad))])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"pcr: error in stage io: {bad}")
    assert not report.exists()


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
