import dataclasses
import json

import numpy as np
import pytest

from pcr.cloudio import (CameraIntrinsics, Cloud, Matches, PipelineReport,
                         read_intrinsics, read_matches, read_ply, read_report,
                         write_intrinsics, write_matches, write_ply,
                         write_report)
from pcr.errors import ParseError
from pcr.geom import RigidTransform, rotation_about_axis
from pcr.icpcov import information_matrix


def make_cloud(rng, n=100, label="test"):
    return Cloud(points=rng.normal(size=(n, 3)) * 4.0, label=label)


class TestPly:
    def test_ascii_three_vertices_literal(self, tmp_path):
        text = (
            "ply\n"
            "format ascii 1.0\n"
            "element vertex 3\n"
            "property float x\n"
            "property float y\n"
            "property float z\n"
            "end_header\n"
            "0 0 0\n"
            "1 2.5 3\n"
            "-1 -2 7.25\n"
        )
        path = tmp_path / "tri.ply"
        path.write_text(text)
        cloud = read_ply(path)
        assert np.array_equal(
            cloud.points, [[0, 0, 0], [1, 2.5, 3], [-1, -2, 7.25]])

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        cloud = make_cloud(rng)
        path = tmp_path / "c.ply"
        write_ply(cloud, path, fmt="binary-le")
        back = read_ply(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.label == cloud.label

    def test_ascii_round_trip_9_digits(self, tmp_path, rng):
        cloud = make_cloud(rng)
        path = tmp_path / "c.ply"
        write_ply(cloud, path, fmt="ascii")
        back = read_ply(path)
        assert np.allclose(back.points, cloud.points, rtol=1e-7, atol=0)

    def test_label_in_comment_line(self, tmp_path, rng):
        cloud = make_cloud(rng, label="session-a")
        path = tmp_path / "c.ply"
        write_ply(cloud, path, fmt="ascii")
        header = path.read_bytes().split(b"end_header")[0].decode()
        assert "comment label session-a" in header

    @pytest.mark.parametrize("fmt", ["ascii", "binary-le"])
    @pytest.mark.parametrize("label", ["scan end_header v2", "trailing ", " ", "\ttab"])
    def test_label_round_trips(self, tmp_path, rng, fmt, label):
        # the header ends at the end_header line, not at the word in a
        # comment, and the label keeps its spaces
        cloud = make_cloud(rng, n=5, label=label)
        path = tmp_path / "c.ply"
        write_ply(cloud, path, fmt=fmt)
        back = read_ply(path)
        assert back.label == cloud.label
        assert np.allclose(back.points, cloud.points, rtol=1e-7, atol=0)

    @pytest.mark.parametrize("fmt", ["ascii", "binary-le"])
    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb", "trailing\n"])
    def test_label_with_line_break_not_writable(self, tmp_path, rng, fmt, label):
        path = tmp_path / "never.ply"
        with pytest.raises(ValueError, match="line break"):
            write_ply(make_cloud(rng, n=5, label=label), path, fmt=fmt)
        assert not path.exists()

    def test_repeated_property_rejected_at_its_line(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property double x\nproperty double x\n"
                "property double y\nproperty double z\n"
                "end_header\n1 1 2 3\n")
        path = tmp_path / "twice.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match="repeated property 'x'") as err:
            read_ply(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("first, second, line", [
        ("format binary_little_endian 1.0", "format ascii 1.0", 3),
        ("element vertex 2", "element vertex 1", 4),
    ], ids=["format", "element"])
    def test_repeated_header_line_rejected_at_its_line(self, tmp_path, first, second, line):
        # the last line would win: an ASCII or a one-point cloud
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property double x\nproperty double y\nproperty double z\n"
                "end_header\n1 2 3\n").replace(second, f"{first}\n{second}")
        path = tmp_path / "twice.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"repeated {second.split()[0]} line") as err:
            read_ply(path)
        assert err.value.line == line

    @pytest.mark.parametrize("value", ["1.0000000000000001e150", "-1e151", "1e160"])
    def test_coordinate_past_limit_rejected(self, tmp_path, value):
        # squared distances of such coordinates would overflow in ICP
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property double x\nproperty double y\nproperty double z\n"
                f"end_header\n1e150 -1e150 0\n1 {value} 3\n")
        path = tmp_path / "far.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match="at most 1e\\+150 in magnitude") as err:
            read_ply(path)
        assert err.value.path == path
        path.write_text(text.replace(value, "2"))
        assert np.abs(read_ply(path).points).max() == 1e150

    def test_header_lines_end_at_newlines(self, tmp_path):
        # CRLF line ends are read; the header stops at its end_header line
        text = ("ply\r\nformat ascii 1.0\r\ncomment label crlf\r\nelement vertex 1\r\n"
                "property float x\r\nproperty float y\r\nproperty float z\r\n"
                "end_header\r\n1 2 3\r\n")
        path = tmp_path / "crlf.ply"
        path.write_bytes(text.encode())
        cloud = read_ply(path)
        assert cloud.label == "crlf"
        assert np.array_equal(cloud.points, [[1, 2, 3]])

    def test_carriage_return_inside_header_line_rejected(self, tmp_path):
        # such a label could not be written back by write_ply
        text = ("ply\nformat ascii 1.0\ncomment label a\rb\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n1 2 3\n")
        path = tmp_path / "cr.ply"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError, match="carriage return") as err:
            read_ply(path)
        assert err.value.line == 3

    def test_header_without_end_header_line(self, tmp_path):
        path = tmp_path / "open.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\ncomment end_header\n")
        with pytest.raises(ParseError, match="missing end_header"):
            read_ply(path)
        path.write_bytes(b"ply\nformat ascii 1.0\nend_header")
        with pytest.raises(ParseError, match="not terminated by newline"):
            read_ply(path)

    def test_vertex_count_mismatch(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 0 0\n1 1 1\n")
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_ply(path)

    def test_big_endian_rejected(self, tmp_path):
        text = ("ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
        path = tmp_path / "be.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_ply(path)

    def test_zero_vertices_rejected(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 0\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
        path = tmp_path / "empty.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_ply(path)

    def test_float32_binary_accepted(self, tmp_path):
        pts = np.array([[1.5, 2.5, 3.5], [0.25, 0.5, 0.75]], dtype="<f4")
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  "end_header\n").encode()
        path = tmp_path / "f32.ply"
        path.write_bytes(header + pts.tobytes())
        cloud = read_ply(path)
        assert np.array_equal(cloud.points, pts.astype(np.float64))

    def test_extra_scalar_property_skipped(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property float intensity\n"
                "end_header\n1 2 3 9\n4 5 6 9\n")
        path = tmp_path / "extra.ply"
        path.write_text(text)
        cloud = read_ply(path)
        assert np.array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("fmt", ["ascii", "binary-le"])
    def test_coloured_cloud_reads_like_colourless(self, tmp_path, rng, fmt):
        # an RGB-D keyframe cloud: uchar colour after the double coordinates
        cloud = make_cloud(rng, n=20, label="")
        plain = tmp_path / "plain.ply"
        write_ply(cloud, plain, fmt=fmt)
        head, body = plain.read_bytes().split(b"end_header\n")
        head += b"property uchar red\nproperty uint8 green\nproperty uchar blue\nend_header\n"
        colours = rng.integers(0, 256, size=(20, 3)).astype(np.uint8)
        if fmt == "ascii":
            rows = zip(body.decode().splitlines(), colours.tolist())
            body = "".join(f"{xyz} {r} {g} {b}\n" for xyz, (r, g, b) in rows).encode()
        else:
            table = np.empty(20, dtype=[("xyz", "<f8", 3), ("rgb", "u1", 3)])
            table["xyz"], table["rgb"] = cloud.points, colours
            body = table.tobytes()
        coloured = tmp_path / "coloured.ply"
        coloured.write_bytes(head + body)
        assert np.array_equal(read_ply(coloured).points, read_ply(plain).points)

    def test_integer_coordinate_rejected_at_its_line(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property int x\nproperty float y\nproperty float z\n"
                "end_header\n1 2 3\n")
        path = tmp_path / "intx.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match="'x' must be float or double") as err:
            read_ply(path)
        assert err.value.line == 4

    def test_truncated_binary_body(self, tmp_path, rng):
        cloud = make_cloud(rng, n=10)
        path = tmp_path / "t.ply"
        write_ply(cloud, path, fmt="binary-le")
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(ParseError):
            read_ply(path)

    def test_cloud_type_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Cloud(points=np.empty((0, 3)))
        with pytest.raises(ValueError):
            Cloud(points=np.array([[np.nan, 0.0, 0.0]]))

    def test_fuzz_bytes_never_escape_parse_error(self, tmp_path, rng):
        path = tmp_path / "fuzz.ply"
        for i in range(60):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 400))).astype(np.uint8)
            if i % 3 == 0:
                blob = b"ply\n" + blob.tobytes()
            else:
                blob = blob.tobytes()
            path.write_bytes(blob)
            try:
                read_ply(path)
            except ParseError:
                pass


class TestMatches:
    def test_full_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("us,vs,ds,ut,vt,dt\n10,20,1.5,30,40,3.0\n")
        matches = read_matches(path)
        assert len(matches) == 1
        assert np.array_equal(matches.table, [[10.0, 20.0, 1.5, 30.0, 40.0, 3.0]])
        assert np.array_equal(matches.source_pixels, [[10.0, 20.0]])
        assert np.array_equal(matches.target_pixels, [[30.0, 40.0]])
        assert matches.source_depths[0] == 1.5 and matches.target_depths[0] == 3.0
        assert matches.has_depths.tolist() == [True]
        assert not matches.table.flags.writeable

    def test_absent_depths(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("us,vs,ds,ut,vt,dt\n10,20,,30,40,\n10,20,1.0,30,40,\n")
        matches = read_matches(path)
        assert np.isnan(matches.source_depths[0]) and np.isnan(matches.target_depths[0])
        assert matches.has_depths.tolist() == [False, False]

    def test_negative_depth_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("us,vs,ds,ut,vt,dt\n10,20,-1,30,40,3.0\n")
        with pytest.raises(ParseError):
            read_matches(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("us,vs,ut,vt\n1,2,3,4\n")
        with pytest.raises(ParseError):
            read_matches(path)

    @pytest.mark.parametrize("body, line, message", [
        ("10,abc,1.5,30,40,3.0", 3, "vs is not a number"),
        ("inf,20,1.5,30,40,3.0", 3, "us must be finite"),
        ("10,20,1.5,nan,40,3.0", 3, "ut must be finite"),
        ("10,20,-1,30,40,3.0", 3, "ds must be a positive depth"),
        ("10,20,1.5,30,40,0", 3, "dt must be a positive depth"),
        ("10,20,nan,30,40,3.0", 3, "ds must be a positive depth"),
        ("10,20,1.5,30,40,inf", 3, "dt must be a positive depth"),
        ("10,20,1.5,30,40", 3, "expected 6 fields, got 5"),
        ("10,20,1.5,30,40,3.0,7", 3, "expected 6 fields, got 7"),
        ("\n10,20,1.5,30,-inf,", 4, "vt must be finite"),
        ("\n10,20,-2,30,40,3.0", 4, "ds must be a positive depth"),
    ], ids=["word-pixel", "inf-pixel", "nan-pixel", "negative-depth", "zero-depth",
            "nan-depth", "inf-depth", "5-fields", "7-fields", "blank-line-pixel",
            "blank-line-depth"])
    def test_single_error_rejected_at_its_line(self, tmp_path, body, line, message):
        path = tmp_path / "m.csv"
        path.write_text(f"us,vs,ds,ut,vt,dt\n1,2,,3,4,\n{body}\n5,6,7,8,9,10\n")
        with pytest.raises(ParseError) as err:
            read_matches(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_round_trip(self, tmp_path):
        matches = Matches(np.array([
            [1.25, 2.5, 3.75, 4.0, 5.0, 6.0],
            [7.0, 8.0, np.nan, 9.0, 10.0, np.nan],
            [0.1, -1e-300, 1e300, np.pi, -0.0, 5e-324],
        ]))
        path = tmp_path / "m.csv"
        write_matches(matches, path)
        assert path.read_text().splitlines()[2] == "7,8,,9,10,"
        back = read_matches(path)
        assert np.array_equal(back.table, matches.table, equal_nan=True)

    def test_subsets_stay_matches(self):
        matches = Matches(np.arange(1.0, 25.0).reshape(4, 6))
        picked = matches[np.array([3, 1])]
        assert isinstance(picked, Matches)
        assert np.array_equal(picked.table, matches.table[[3, 1]])
        masked = matches[np.array([True, False, False, True])]
        assert np.array_equal(masked.table, matches.table[[0, 3]])
        assert len(matches[np.zeros(4, dtype=bool)]) == 0

    @pytest.mark.parametrize("row", [
        [np.nan, 2, 3, 4, 5, 6], [1, 2, 0, 4, 5, 6], [1, 2, 3, 4, 5, np.inf],
    ])
    def test_invalid_values_rejected(self, row):
        with pytest.raises(ValueError, match="match row 1"):
            Matches(np.array([[1, 2, 3, 4, 5, 6], row], dtype=float))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(n, 6\)"):
            Matches(np.ones((3, 5)))

    def test_fuzz_bytes(self, tmp_path, rng):
        path = tmp_path / "fuzz.csv"
        for _ in range(40):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8)
            path.write_bytes(blob.tobytes())
            try:
                read_matches(path)
            except ParseError:
                pass


class TestIntrinsics:
    def test_nominal(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"fx":525,"fy":525,"cx":319.5,"cy":239.5}')
        k = read_intrinsics(path)
        assert k == CameraIntrinsics(525.0, 525.0, 319.5, 239.5)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"fy":525,"cx":319.5,"cy":239.5}')
        with pytest.raises(ParseError):
            read_intrinsics(path)

    def test_zero_focal(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"fx":0,"fy":525,"cx":319.5,"cy":239.5}')
        with pytest.raises(ParseError):
            read_intrinsics(path)

    def test_write_read_round_trip(self, tmp_path):
        k = CameraIntrinsics(500.0, 510.0, 320.0, 240.0)
        path = tmp_path / "k.json"
        write_intrinsics(k, path)
        assert read_intrinsics(path) == k


def make_report(rng):
    cov = np.diag(rng.uniform(0.5, 2.0, size=6))
    return PipelineReport(
        scale_detected=True,
        scale=2.5,
        relative_pose=RigidTransform.identity(),
        icp_transform=RigidTransform.identity(),
        rms=0.01,
        iterations=7,
        covariance=cov,
        information=np.diag(1.0 / np.diag(cov)),
    )


def edited_report(tmp_path, rng, edit):
    """A report that write_report wrote, with ``edit`` applied to its JSON."""
    path = tmp_path / "r.json"
    write_report(make_report(rng), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


class TestReport:
    def test_round_trip_all_fields(self, tmp_path, rng):
        report = make_report(rng)
        path = tmp_path / "r.json"
        write_report(report, path)
        back = read_report(path)
        assert back.scale_detected == report.scale_detected
        assert back.scale == report.scale
        assert back.iterations == report.iterations
        assert back.rms == report.rms
        assert np.array_equal(back.covariance, report.covariance)
        assert np.array_equal(back.information, report.information)
        assert np.array_equal(back.final_transform.rotation,
                              report.final_transform.rotation)

    def test_seventeen_digit_floats_lossless(self, tmp_path, rng):
        # an awkward value that needs all 17 significant digits
        cov = np.diag([1.0 / 3.0 + 1e-16, 1, 1, 1, 1, 1])
        report = PipelineReport(
            scale_detected=False, scale=1.0,
            relative_pose=RigidTransform.identity(),
            icp_transform=RigidTransform.identity(),
            rms=0.1 + 0.2, iterations=1,
            covariance=cov, information=np.diag(1.0 / np.diag(cov)))
        path = tmp_path / "r.json"
        write_report(report, path)
        back = read_report(path)
        assert back.rms == report.rms
        assert np.array_equal(back.covariance, report.covariance)

    def test_schema_with_independent_checker(self, tmp_path, rng):
        path = tmp_path / "r.json"
        write_report(make_report(rng), path)
        data = json.loads(path.read_text())

        expected = {
            "scale_detected": bool,
            "scale": float,
            "relative_pose": dict,
            "icp_transform": dict,
            "final_transform": dict,
            "rms": float,
            "iterations": int,
            "covariance": list,
            "information": list,
        }
        assert list(data.keys()) == list(expected.keys())
        for key, kind in expected.items():
            assert isinstance(data[key], kind), key
        for key in ("relative_pose", "icp_transform"):
            block = data[key]
            assert sorted(block.keys()) == ["rotation", "translation"]
            assert len(block["rotation"]) == 9
            assert len(block["translation"]) == 3
        final = data["final_transform"]
        assert sorted(final.keys()) == ["rotation", "scale", "translation"]
        assert len(final["rotation"]) == 9
        assert len(final["translation"]) == 3
        assert len(data["covariance"]) == 36
        assert len(data["information"]) == 36

    def test_asymmetric_covariance_rejected(self, rng):
        cov = np.eye(6)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            PipelineReport(
                scale_detected=False, scale=1.0,
                relative_pose=RigidTransform.identity(),
                icp_transform=RigidTransform.identity(),
                rms=0.0, iterations=1,
                covariance=cov, information=np.eye(6))

    def test_small_covariance_asymmetric_by_8_percent_refused(self, tmp_path, rng):
        # every real covariance has entries far below 1, so symmetry is
        # judged against the largest entry, not against 1: 8e-10 off a 1e-8
        # diagonal is 8%, and M and M^T would give different information
        cov = 1e-8 * np.eye(6)
        cov[0, 1] = 8e-10
        # an information matrix that inverts it, so only symmetry is at issue
        info = np.linalg.inv(cov)
        with pytest.raises(ValueError, match="input matrix must be symmetric"):
            information_matrix(cov)
        with pytest.raises(ValueError, match="covariance must be symmetric"):
            PipelineReport(
                scale_detected=False, scale=1.0,
                relative_pose=RigidTransform.identity(),
                icp_transform=RigidTransform.identity(),
                rms=0.0, iterations=1, covariance=cov, information=info)
        path = edited_report(tmp_path, rng, lambda data: data.update(
            covariance=cov.ravel().tolist(), information=info.ravel().tolist()))
        with pytest.raises(ParseError, match="covariance must be symmetric"):
            read_report(path)
        # rounding-sized asymmetry at the same scale passes
        cov[0, 1] = 1e-24
        assert np.isfinite(information_matrix(cov)).all()

    def test_inconsistent_information_rejected(self, rng):
        with pytest.raises(ValueError):
            PipelineReport(
                scale_detected=False, scale=1.0,
                relative_pose=RigidTransform.identity(),
                icp_transform=RigidTransform.identity(),
                rms=0.0, iterations=1,
                covariance=np.eye(6) * 2.0, information=np.eye(6))

    def test_round_trip_reads_back_equal(self, tmp_path, rng):
        cov = np.diag(rng.uniform(0.5, 2.0, size=6))
        report = PipelineReport(
            scale_detected=True, scale=0.7,
            relative_pose=RigidTransform(rotation_about_axis([0, 0, 1], 0.3), [1.0, 2.0, 3.0]),
            icp_transform=RigidTransform(rotation_about_axis([0, 0, 1], -1.1), [0.1, -0.2, 1.0 / 3.0]),
            rms=0.02, iterations=12,
            covariance=cov, information=np.diag(1.0 / np.diag(cov)))
        path, again = tmp_path / "r.json", tmp_path / "again.json"
        write_report(report, path)
        write_report(read_report(path), again)
        assert again.read_bytes() == path.read_bytes()
        final = json.loads(path.read_text())["final_transform"]
        assert final["scale"] == 0.7
        assert final["rotation"] == report.icp_transform.rotation.ravel().tolist()
        assert final["translation"] == report.icp_transform.translation.tolist()

    @pytest.mark.parametrize("edit", [
        {"scale": 3.0, "translation": [5.0, 5.0, 5.0]},
        {"scale": 2.5000000000000004},
        {"translation": [0.0, 0.0, 1e-300]},
        {"rotation": rotation_about_axis([0, 0, 1], 0.1).ravel().tolist()},
    ])
    def test_disagreeing_final_transform_refused(self, tmp_path, rng, edit):
        path = edited_report(tmp_path, rng, lambda data: data["final_transform"].update(edit))
        with pytest.raises(ParseError, match="final_transform must equal scale "
                                             "times icp_transform") as err:
            read_report(path)
        assert err.value.path == path

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_scale_detected_must_be_bool(self, tmp_path, rng, value):
        path = edited_report(tmp_path, rng, lambda data: data.update(scale_detected=value))
        with pytest.raises(ParseError, match="'scale_detected' must be true or false") as err:
            read_report(path)
        assert err.value.path == path

    @pytest.mark.parametrize("value", [7.9, 7.0, True, "7"])
    def test_iterations_must_be_integer(self, tmp_path, rng, value):
        path = edited_report(tmp_path, rng, lambda data: data.update(iterations=value))
        with pytest.raises(ParseError, match="'iterations' must be an integer") as err:
            read_report(path)
        assert err.value.path == path

    @pytest.mark.parametrize("key, value", [
        ("rms", float("nan")), ("rms", float("inf")), ("rms", -1.0),
        ("iterations", 0), ("iterations", -3)])
    def test_values_out_of_range_refused(self, tmp_path, rng, key, value):
        # json writes the literals NaN and Infinity, and reads them back
        path = edited_report(tmp_path, rng, lambda data: data.update({key: value}))
        with pytest.raises(ParseError, match=f"'{key}' must be .* at least") as err:
            read_report(path)
        assert err.value.path == path

    @pytest.mark.parametrize("field, value", [
        ("iterations", 7.9), ("iterations", np.int64(7)), ("scale_detected", "false"),
        ("scale_detected", 1), ("rms", float("nan")), ("rms", 1), ("scale", 2),
        ("icp_transform", None)])
    def test_report_type_coerces_nothing(self, rng, field, value):
        with pytest.raises(ValueError, match=f"'{field}' must be"):
            dataclasses.replace(make_report(rng), **{field: value})

    @pytest.mark.parametrize("key, value", [
        ("rms", True), ("rms", "0.01"), ("scale", "2.5"), ("scale", False)])
    def test_scalars_must_be_numbers(self, tmp_path, rng, key, value):
        path = edited_report(tmp_path, rng, lambda data: data.update({key: value}))
        with pytest.raises(ParseError, match=f"'{key}' must be numeric") as err:
            read_report(path)
        assert err.value.path == path

    @pytest.mark.parametrize("key, inner", [
        ("covariance", None), ("information", None),
        ("icp_transform", "translation"), ("relative_pose", "rotation"),
        ("final_transform", "translation")])
    @pytest.mark.parametrize("entry", [True, "0", None])
    def test_matrix_entries_must_be_numbers(self, tmp_path, rng, key, inner, entry):
        def edit(data):
            values = data[key] if inner is None else data[key][inner]
            values[1] = entry

        path = edited_report(tmp_path, rng, edit)
        name = key if inner is None else f"{key}.{inner}"
        with pytest.raises(ParseError, match=f"'{name}' must be numeric") as err:
            read_report(path)
        assert err.value.path == path

    def test_integer_numbers_accepted(self, tmp_path, rng):
        # a JSON integer is a number: 1 reads as 1.0 wherever a float goes
        def edit(data):
            data["scale"] = data["final_transform"]["scale"] = 2
            data["rms"] = 0

        report = read_report(edited_report(tmp_path, rng, edit))
        assert report.scale == 2.0 and report.rms == 0.0
