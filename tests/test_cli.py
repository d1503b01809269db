import pytest

from pcr import cli
from pcr.cloudio import Cloud, read_ply, write_ply


@pytest.mark.parametrize("flag, value", [
    ("--ransac-psi", "-1"),
    ("--ransac-psi", "abc"),
    ("--ransac-psi", "nan"),
    ("--ransac-psi", "inf"),
    ("--max-icp-iters", "0"),
    ("--ransac-iters", "0"),
    ("--seed", "-1"),
    # flags of the removed cloud filters and of the removed noise level (the
    # covariance takes it from the fit), with any value
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
    # out-of-range and malformed values print the same sub-command usage
    assert "usage: pcr register" in err
    assert "pcr register: error:" in err
    assert "Traceback" not in err
    assert not report.exists()


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
