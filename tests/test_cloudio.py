import json

import numpy as np
import pytest

from pcr.cloudio import (CameraIntrinsics, Cloud, Matches, PipelineReport,
                         read_intrinsics, read_matches, read_ply, read_report,
                         write_intrinsics, write_matches, write_ply,
                         write_report)
from pcr.errors import ParseError
from pcr.geom import RigidTransform, SimilarityTransform


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
        final_transform=SimilarityTransform(2.5, RigidTransform.identity()),
        rms=0.01,
        iterations=7,
        covariance=cov,
        information=np.diag(1.0 / np.diag(cov)),
    )


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
            final_transform=SimilarityTransform.identity(),
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
                final_transform=SimilarityTransform.identity(),
                rms=0.0, iterations=1,
                covariance=cov, information=np.eye(6))

    def test_inconsistent_information_rejected(self, rng):
        with pytest.raises(ValueError):
            PipelineReport(
                scale_detected=False, scale=1.0,
                relative_pose=RigidTransform.identity(),
                icp_transform=RigidTransform.identity(),
                final_transform=SimilarityTransform.identity(),
                rms=0.0, iterations=1,
                covariance=np.eye(6) * 2.0, information=np.eye(6))
