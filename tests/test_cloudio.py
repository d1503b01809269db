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

    def test_write_ply_writes_binary_le_only(self, tmp_path, rng):
        cloud = make_cloud(rng, n=5)
        default, named = tmp_path / "default.ply", tmp_path / "named.ply"
        write_ply(cloud, default)
        write_ply(cloud, named, fmt="binary-le")
        assert default.read_bytes() == named.read_bytes()
        assert b"\nformat binary_little_endian 1.0\n" in default.read_bytes()
        with pytest.raises(ValueError, match="binary-le only, not 'ascii'"):
            write_ply(cloud, tmp_path / "never.ply", fmt="ascii")
        assert not (tmp_path / "never.ply").exists()

    def test_label_in_comment_line(self, tmp_path, rng):
        # write_ply keeps the label in a header comment, where an ASCII
        # file's label is read too
        path = tmp_path / "c.ply"
        write_ply(make_cloud(rng, label="session-a"), path)
        assert b"\ncomment label session-a\n" in path.read_bytes().split(b"end_header")[0]
        path.write_bytes(one_vertex_ply([(2, "format ascii 1.0\ncomment label session-a")]))
        assert read_ply(path).label == "session-a"

    @pytest.mark.parametrize("fmt", ["ascii", "binary-le"])
    @pytest.mark.parametrize("label", ["scan end_header v2", "trailing ", " ", "\ttab"])
    def test_label_round_trips(self, tmp_path, rng, fmt, label):
        # the header ends at the end_header line, not at the word in a
        # comment, and the label keeps its spaces; the ASCII file is literal
        path = tmp_path / "c.ply"
        if fmt == "ascii":
            cloud = Cloud(points=[[1.0, 2.0, 3.0]], label=label)
            path.write_bytes(one_vertex_ply([(2, f"format ascii 1.0\ncomment label {label}")]))
        else:
            cloud = make_cloud(rng, n=5, label=label)
            write_ply(cloud, path)
        back = read_ply(path)
        assert back.label == cloud.label
        assert np.array_equal(back.points, cloud.points)

    @pytest.mark.parametrize("fmt", ["binary-le"])
    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb", "trailing\n"])
    def test_label_with_line_break_not_writable(self, tmp_path, rng, fmt, label):
        path = tmp_path / "never.ply"
        with pytest.raises(ValueError, match="line break"):
            write_ply(make_cloud(rng, n=5, label=label), path, fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["binary-le"])
    @pytest.mark.parametrize("label", ["café", "scan \u2013 a", "\x80"],
                             ids=["accent", "en-dash", "x80"])
    def test_non_ascii_label_not_writable(self, tmp_path, rng, fmt, label):
        path = tmp_path / "never.ply"
        with pytest.raises(ValueError, match="must be ASCII"):
            write_ply(make_cloud(rng, n=5, label=label), path, fmt=fmt)
        assert not path.exists()

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

    @pytest.mark.parametrize("count", [0, -5])
    def test_empty_cloud_refusal_names_declared_count(self, tmp_path, count):
        text = (f"ply\nformat ascii 1.0\nelement vertex {count}\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
        path = tmp_path / "empty.ply"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_ply(path)
        assert str(err.value) == f"{path}: cloud is empty (vertex count {count})"

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
        points = make_cloud(rng, n=20).points
        colours = rng.integers(0, 256, size=(20, 3)).astype(np.uint8)
        ply_format = {"ascii": "ascii", "binary-le": "binary_little_endian"}[fmt]
        head = (f"ply\nformat {ply_format} 1.0\n"
                "element vertex 20\nproperty double x\nproperty double y\n"
                "property double z\nproperty uchar red\nproperty uint8 green\n"
                "property uchar blue\nend_header\n").encode()
        if fmt == "ascii":
            # repr keeps every bit of a double
            body = "".join(f"{x!r} {y!r} {z!r} {r} {g} {b}\n" for (x, y, z), (r, g, b)
                           in zip(points.tolist(), colours.tolist())).encode()
        else:
            table = np.empty(20, dtype=[("xyz", "<f8", 3), ("rgb", "u1", 3)])
            table["xyz"], table["rgb"] = points, colours
            body = table.tobytes()
        coloured = tmp_path / "coloured.ply"
        coloured.write_bytes(head + body)
        assert np.array_equal(read_ply(coloured).points, points)

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

    def test_write_read_round_trip(self, tmp_path):
        k = CameraIntrinsics(500.0, 510.0, 320.0, 240.0)
        path = tmp_path / "k.json"
        write_intrinsics(k, path)
        assert read_intrinsics(path) == k


def one_vertex_ply(lines=(), body=b"1 2 3\n", fmt="ascii"):
    """A one-vertex PLY file with each (line number, text) of ``lines`` in
    place of that header line, or deleting it for None: 1 ply, 2 format,
    3 element, 4-6 properties x, y, z, 7 end_header; the body's first row
    is line 8."""
    header = ["ply", f"format {fmt} 1.0", "element vertex 1", "property double x",
              "property double y", "property double z", "end_header"]
    for lineno, text in lines:
        header[lineno - 1] = text
    return "".join(line + "\n" for line in header if line is not None).encode() + body


@pytest.mark.parametrize("reader, content, message, line, offset", [
    pytest.param(read_ply, one_vertex_ply([(1, "plx")]),
                 "not a PLY file (magic line missing)", 1, None, id="ply-magic"),
    pytest.param(read_ply, one_vertex_ply([(2, "format ascii")]),
                 "malformed format line", 2, None, id="ply-format-malformed"),
    pytest.param(read_ply, one_vertex_ply([(2, "format utf8 1.0")]),
                 "unknown PLY format 'utf8'", 2, None, id="ply-format-unknown"),
    pytest.param(read_ply, one_vertex_ply([(2, "format binary_big_endian 1.0")]),
                 "big-endian PLY is not supported", 2, None, id="ply-big-endian"),
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex")]),
                 "malformed element line", 3, None, id="ply-element-malformed"),
    pytest.param(read_ply, one_vertex_ply([(3, "element face 1")]),
                 "unsupported element 'face'", 3, None, id="ply-element-face"),
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex one")]),
                 "vertex count is not an integer", 3, None, id="ply-count-word"),
    pytest.param(read_ply, one_vertex_ply([(3, "property double x"), (4, "element vertex 1")]),
                 "property outside the vertex element", 3, None, id="ply-property-first"),
    pytest.param(read_ply, one_vertex_ply([(4, "property int x")]),
                 "property 'x' must be float or double", 4, None, id="ply-integer-x"),
    pytest.param(read_ply, one_vertex_ply([(4, "property double x\nproperty double x")]),
                 "repeated property 'x'", 5, None, id="ply-property-repeated"),
    pytest.param(read_ply, one_vertex_ply([(6, "property list uchar int z")]),
                 "unsupported property declaration", 6, None, id="ply-property-list"),
    pytest.param(read_ply, one_vertex_ply([(6, "property quad z")]),
                 "unsupported property type 'quad'", 6, None, id="ply-property-type"),
    pytest.param(read_ply, one_vertex_ply([(5, "vertex 1")]),
                 "unknown header keyword 'vertex'", 5, None, id="ply-keyword"),
    # such a label could not be written back by write_ply
    pytest.param(read_ply, one_vertex_ply([(2, "format ascii 1.0\ncomment label a\rb")]),
                 "carriage return inside a header line", 3, None, id="ply-cr-in-header"),
    pytest.param(read_ply, b"ply\nformat ascii 1.0\ncomment end_header\n",
                 "missing end_header", None, None, id="ply-no-end-header"),
    pytest.param(read_ply, b"ply\nformat ascii 1.0\nend_header",
                 "header not terminated by newline", None, None, id="ply-end-header-open"),
    pytest.param(read_ply, b"\xef\xbb\xbf" + one_vertex_ply(),
                 "header is not ASCII", None, None, id="ply-byte-order-mark"),
    pytest.param(read_ply, one_vertex_ply([(2, None)]),
                 "missing format line", None, None, id="ply-no-format"),
    pytest.param(read_ply, one_vertex_ply([(n, None) for n in (3, 4, 5, 6)]),
                 "missing vertex element", None, None, id="ply-no-element"),
    pytest.param(read_ply, one_vertex_ply([(6, None)], body=b"1 2\n"),
                 "vertex element lacks property 'z'", None, None, id="ply-no-z"),
    pytest.param(read_ply, one_vertex_ply([(1, "ply\ncomment café")]),
                 "header is not ASCII", None, None, id="ply-header-not-ascii"),
    pytest.param(read_ply, one_vertex_ply(body="1 2 3é\n".encode()),
                 "ASCII body contains non-ASCII bytes", None, None, id="ply-body-not-ascii"),
    pytest.param(read_ply, one_vertex_ply(body=b"1 2\n"),
                 "expected 3 values per vertex, got 2", 8, None, id="ply-short-row"),
    pytest.param(read_ply, one_vertex_ply(body=b"1 2 z\n"),
                 "vertex value is not a number", 8, None, id="ply-word-value"),
    # float() reads digit-group underscores, which a mistyped field may hold
    pytest.param(read_ply, one_vertex_ply(body=b"1_000 2 3\n"),
                 "vertex value is not a number", 8, None, id="ply-underscore"),
    # a coordinate out of bounds is refused at its row's line
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 2")], body=b"1 2 3\n4 5 nan\n"),
                 "coordinates must be finite and at most 1e+150 in magnitude", 9, None,
                 id="ply-nan-coordinate"),
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 2")], body=b"1 2 3\n2e150 5 6\n"),
                 "coordinates must be finite and at most 1e+150 in magnitude", 9, None,
                 id="ply-coordinate-past-limit"),
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 3")], body=b"0 0 0\n1 1 1\n"),
                 "header declares 3 vertices but body has 2", None, None,
                 id="ply-count-mismatch"),
    # a body line ends at LF only: FF, VT and a lone CR are whitespace
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 2")], body=b"1 2 3\f\n4 5 z\n"),
                 "vertex value is not a number", 9, None, id="ply-form-feed-row"),
    pytest.param(read_ply, one_vertex_ply(body=b"1 2\v3 4\n"),
                 "expected 3 values per vertex, got 4", 8, None, id="ply-vertical-tab-row"),
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 2")], body=b"1 2 3\r4 5 6\r"),
                 "expected 3 values per vertex, got 6", 8, None, id="ply-cr-only-body"),
    pytest.param(read_ply, one_vertex_ply(body=bytes(25), fmt="binary_little_endian"),
                 "trailing bytes after vertex data", None, 24, id="ply-trailing-byte"),
    # ten vertices of three doubles: 240 body bytes; the offset counts from
    # the body's first byte
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 10")], body=bytes(233),
                                          fmt="binary_little_endian"),
                 "binary body too short: expected 240 bytes, have 233", None, 233,
                 id="ply-binary-short"),
    # a binary coordinate out of bounds is refused at its record's offset:
    # the second vertex of three doubles starts at byte 24
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 2")],
                                          body=np.array([1, 2, 3, 4, 5, np.nan], "<f8").tobytes(),
                                          fmt="binary_little_endian"),
                 "coordinates must be finite and at most 1e+150 in magnitude", None, 24,
                 id="ply-binary-nan-coordinate"),
    pytest.param(read_ply, one_vertex_ply([(3, "element vertex 2")],
                                          body=np.array([1, 2, 3, 4, 5, 2e150], "<f8").tobytes(),
                                          fmt="binary_little_endian"),
                 "coordinates must be finite and at most 1e+150 in magnitude", None, 24,
                 id="ply-binary-coordinate-past-limit"),
    pytest.param(read_matches, b"us,vs,ut,vt\n1,2,3,4\n",
                 "header must be exactly 'us,vs,ds,ut,vt,dt'", 1, None, id="csv-header"),
    # a CSV line ends at LF only, whatever else str.splitlines breaks at
    pytest.param(read_matches, b"us,vs,ds,ut,vt,dt\n1,2,,3,4,\f\n10,20,1.5,30,40,x\n",
                 "dt is not a number", 3, None, id="csv-form-feed-row"),
    pytest.param(read_matches, b"us,vs,ds,ut,vt,dt\n1,2,,3,4,\v5,6,,7,8,\n",
                 "expected 6 fields, got 11", 2, None, id="csv-vertical-tab-row"),
    pytest.param(read_matches, "us,vs,ds,ut,vt,dt\n1,2,,3,4,\x855,6,,7,8,\n".encode(),
                 "expected 6 fields, got 11", 2, None, id="csv-next-line-row"),
    pytest.param(read_matches, "us,vs,ds,ut,vt,dt\n1,2,,3,4,\u20285,6,,7,8,\n".encode(),
                 "expected 6 fields, got 11", 2, None, id="csv-line-separator-row"),
    # float() reads digit-group underscores and non-ASCII digits
    pytest.param(read_matches, b"us,vs,ds,ut,vt,dt\n1_0,20,1.5,30,40,3.0\n",
                 "us is not a number", 2, None, id="csv-underscore"),
    pytest.param(read_matches, "us,vs,ds,ut,vt,dt\n\uff11\uff12,20,1.5,30,40,3.0\n".encode(),
                 "us is not a number", 2, None, id="csv-full-width-digits"),
    pytest.param(read_matches, "us,vs,ds,ut,vt,dt\n1,2,\u3000,3,4,\n".encode(),
                 "ds is not a number", 2, None, id="csv-non-ascii-blank-depth"),
    pytest.param(read_matches, b"us,vs,ds,ut,vt,dt\r1,2,,3,4,\r",
                 "header must be exactly 'us,vs,ds,ut,vt,dt'", 1, None, id="csv-cr-only"),
    pytest.param(read_intrinsics, b"nope",
                 "not valid JSON: Expecting value: line 1 column 1 (char 0)", None, None,
                 id="intrinsics-not-json"),
    pytest.param(read_intrinsics, b"[525, 525, 319.5, 239.5]",
                 "intrinsics JSON must be an object", None, None, id="intrinsics-array"),
    pytest.param(read_intrinsics, b'{"fy": 525, "cx": 319.5, "cy": 239.5}',
                 "missing key 'fx'", None, None, id="intrinsics-missing-key"),
    pytest.param(read_intrinsics, b'{"fx": 0, "fy": 525, "cx": 319.5, "cy": 239.5}',
                 "focal lengths must be positive", None, None, id="intrinsics-zero-focal"),
    pytest.param(read_intrinsics, b'{"fx": 1e999, "fy": 525, "cx": 319.5, "cy": 239.5}',
                 "intrinsics must be finite", None, None, id="intrinsics-infinite"),
    # json reads a long integer exactly; float() of it overflows
    pytest.param(read_intrinsics,
                 b'{"fx": 1' + b"0" * 399 + b', "fy": 525, "cx": 319.5, "cy": 239.5}',
                 "key 'fx' is too large for a float", None, None,
                 id="intrinsics-integer-past-float"),
])
def test_input_refusals_name_message_and_place(tmp_path, reader, content, message,
                                               line, offset):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert (err.value.path, err.value.line, err.value.offset) == (path, line, offset)
    place = "" if line is None else f":{line}"
    place += "" if offset is None else f" (byte {offset})"
    assert str(err.value) == f"{path}{place}: {message}"


def test_byte_order_mark_read_like_plain_text(tmp_path, rng):
    # a UTF-8 BOM may start the CSV and the JSON inputs (a PLY file must
    # start with "ply"); every writer is lossless, so writing back compares
    inputs = [
        (write_matches, read_matches, Matches(np.array([[10, 20, 1.5, 30, 40, np.nan]]))),
        (write_intrinsics, read_intrinsics, CameraIntrinsics(525.0, 525.0, 319.5, 239.5)),
        (write_report, read_report, make_report(rng)),
    ]
    plain, marked, again = tmp_path / "plain", tmp_path / "marked", tmp_path / "again"
    for write, read, value in inputs:
        write(value, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        write(read(marked), again)
        assert again.read_bytes() == plain.read_bytes()


def test_obj_info_header_line_accepted(tmp_path):
    path = tmp_path / "input.ply"
    path.write_bytes(one_vertex_ply([(2, "format ascii 1.0\nobj_info scanner 3")]))
    assert np.array_equal(read_ply(path).points, [[1.0, 2.0, 3.0]])


def test_nan_in_ignored_property_reads(tmp_path):
    # only x, y and z must be finite and within bounds
    path = tmp_path / "input.ply"
    path.write_bytes(one_vertex_ply([(6, "property double z\nproperty float w")],
                                    body=b"1 2 3 nan\n"))
    assert np.array_equal(read_ply(path).points, [[1.0, 2.0, 3.0]])


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


def without(data, key, inner):
    """The report JSON with ``inner`` deleted from its ``key`` object."""
    del data[key][inner]
    return data


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

    @pytest.mark.parametrize("field, value, message", [
        ("covariance", np.eye(5), "covariance and information must be 6x6"),
        ("information", np.eye(6).ravel(), "covariance and information must be 6x6"),
        ("covariance", np.full((6, 6), np.inf), "covariance and information must be finite"),
        ("information", np.diag([1.0, 1.0, 1.0, 1.0, 1.0, np.nan]),
         "covariance and information must be finite"),
    ], ids=["covariance-5x5", "information-flat", "covariance-inf", "information-nan"])
    def test_report_matrices_must_be_finite_6x6(self, rng, field, value, message):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(make_report(rng), **{field: value})
        assert str(err.value) == message

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

    @pytest.mark.parametrize("edit, message", [
        (lambda data: [data], "report JSON must be an object"),
        (lambda data: {**data, "relative_pose": [1.0]}, "'relative_pose' must be an object"),
        (lambda data: {**data, "icp_transform": None}, "'icp_transform' must be an object"),
        (lambda data: {**data, "final_transform": []}, "'final_transform' must be an object"),
        (lambda data: {k: v for k, v in data.items() if k != "scale"}, "missing key 'scale'"),
        (lambda data: {k: v for k, v in data.items() if k != "information"},
         "missing key 'information'"),
        (lambda data: without(data, "relative_pose", "rotation"),
         "missing key 'relative_pose.rotation'"),
        (lambda data: without(data, "icp_transform", "translation"),
         "missing key 'icp_transform.translation'"),
        (lambda data: without(data, "final_transform", "rotation"),
         "missing key 'final_transform.rotation'"),
        (lambda data: without(data, "final_transform", "scale"),
         "missing key 'final_transform.scale'"),
        (lambda data: {**data, "covariance": 1.0}, "key 'covariance' must be a list of numbers"),
        (lambda data: {**data, "information": {}},
         "key 'information' must be a list of numbers"),
        (lambda data: {**data, "rms": 10 ** 400}, "key 'rms' is too large for a float"),
        (lambda data: {**data, "covariance": [float("nan")] * 36},
         "bad report structure: covariance and information must be finite"),
    ], ids=["array", "pose-list", "icp-null", "final-list", "no-scale", "no-information",
            "no-pose-rotation", "no-icp-translation", "no-final-rotation", "no-final-scale",
            "covariance-number", "information-object", "rms-past-float", "covariance-nan"])
    def test_structure_refusals_name_the_input(self, tmp_path, rng, edit, message):
        path = tmp_path / "r.json"
        write_report(make_report(rng), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ParseError) as err:
            read_report(path)
        assert str(err.value) == f"{path}: {message}"

    def test_integer_numbers_accepted(self, tmp_path, rng):
        # a JSON integer is a number: 1 reads as 1.0 wherever a float goes
        def edit(data):
            data["scale"] = data["final_transform"]["scale"] = 2
            data["rms"] = 0

        report = read_report(edited_report(tmp_path, rng, edit))
        assert report.scale == 2.0 and report.rms == 0.0
