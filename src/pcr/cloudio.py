"""Point cloud, correspondence, intrinsics, and report file formats.

``CameraIntrinsics`` also carries the pinhole camera model: backprojection
of pixels with depth, projection of camera-frame points and bearing rays.

Formats handled here:
  * PLY clouds, read as ASCII or binary little-endian, written as binary
    little-endian doubles only: vertex element with float or double x/y/z
    properties, other properties of any scalar type ignored (big-endian
    deliberately rejected), coordinates within ``geom.COORDINATE_LIMIT``.
  * Matches CSV with header exactly ``us,vs,ds,ut,vt,dt``; an empty depth
    field means the depth is unknown, NaN in :class:`Matches`.
  * Intrinsics JSON ``{"fx":..., "fy":..., "cx":..., "cy":...}``.
  * Pipeline report JSON (schema documented on :func:`write_report`).

A line of the CSV and of a PLY header or ASCII body ends at LF, and a CR
before the LF is dropped; no other character ends a line, so a refusal's line
number counts LFs. A number of the CSV or of an ASCII PLY body is ASCII text
without ``_``. A PLY coordinate out of bounds is refused at its vertex's line
in an ASCII body, or at its byte offset (row times record size, from the
body's start) in a binary one. The CSV and JSON inputs may start with a UTF-8
byte-order mark; a PLY file must start with ``ply``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .geom import (COORDINATE_LIMIT, RigidTransform, SimilarityTransform, as_points,
                   check_symmetric, freeze)

# Every PLY scalar type under both of its names, as little-endian numpy codes.
_PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
}


@dataclass(frozen=True)
class Cloud:
    """Ordered 3D point set with a source label: at least one point, checked
    by ``geom.as_points``."""

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = as_points(self.points)
        if pts.shape[0] < 1:
            raise ValueError("a cloud needs at least one point")
        object.__setattr__(self, "points", freeze(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")

    def _unit_depth_rays(self, pixels) -> np.ndarray:
        # ((X - cx)/fx, (Y - cy)/fy, 1) for each (X, Y) in (n, 2) pixels,
        # which must be finite.
        px = np.asarray(pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[1] != 2:
            raise ValueError(f"expected (n, 2) pixels, got shape {px.shape}")
        if not np.isfinite(px).all():
            raise ValueError("pixels must be finite")
        x, y = px[:, 0], px[:, 1]
        return np.stack([(x - self.cx) / self.fx, (y - self.cy) / self.fy,
                         np.ones_like(x)], axis=-1)

    def backproject(self, pixels, depths) -> np.ndarray:
        """(n, 3) camera-frame points of finite (n, 2) pixels at (n,) depths:
        each unit-depth ray scaled by its depth. Every depth must be positive
        and finite."""
        rays = self._unit_depth_rays(pixels)
        depths = np.asarray(depths, dtype=np.float64)
        if depths.shape != rays.shape[:1]:
            raise ValueError(f"expected one depth per pixel, shape ({len(rays)},), "
                             f"got shape {depths.shape}")
        if not (np.isfinite(depths).all() and (depths > 0.0).all()):
            raise ValueError("depth must be positive and finite")
        return depths[:, None] * rays

    def project(self, points) -> np.ndarray:
        """(n, 2) pixels of (n, 3) camera-frame points (``geom.as_points``),
        every one of which must lie in front of the camera."""
        pts = as_points(points)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        if (z <= 0.0).any():
            raise ValueError("point must lie in front of the camera")
        return np.stack([self.fx * x / z + self.cx, self.fy * y / z + self.cy], axis=-1)

    def bearings(self, pixels) -> np.ndarray:
        """(n, 3) unit bearing vectors of finite (n, 2) pixels."""
        rays = self._unit_depth_rays(pixels)
        return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


_MATCH_HEADER = "us,vs,ds,ut,vt,dt"
_MATCH_COLUMNS = _MATCH_HEADER.split(",")
_DEPTH_COLUMNS = [2, 5]


def _first_invalid_match(table: np.ndarray):
    """(row, message) of the first entry breaking the Matches rule, or None."""
    bad = ~np.isfinite(table)
    depths = table[:, _DEPTH_COLUMNS]
    bad[:, _DEPTH_COLUMNS] = (depths <= 0.0) | (depths == np.inf)
    if not bad.any():
        return None
    row, col = divmod(int(bad.argmax()), 6)
    rule = "a positive depth" if col in _DEPTH_COLUMNS else "finite"
    return row, f"{_MATCH_COLUMNS[col]} must be {rule}"


@dataclass(frozen=True, eq=False)
class Matches:
    """Keypoint correspondences as one read-only float64 (n, 6) table in the
    matches CSV's column order ``us, vs, ds, ut, vt, dt``: source pixel and
    depth, then target pixel and depth. NaN marks an unknown depth; pixels
    are finite and known depths positive and finite. An index array, boolean
    mask or slice selects a subset, again as ``Matches``."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != 6:
            raise ValueError(f"expected an (n, 6) match table, got shape {table.shape}")
        if (invalid := _first_invalid_match(table)) is not None:
            raise ValueError("match row %d: %s" % invalid)
        object.__setattr__(self, "table", freeze(table))

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getitem__(self, key) -> "Matches":
        return Matches(self.table[key])

    @property
    def source_pixels(self) -> np.ndarray:
        return self.table[:, 0:2]

    @property
    def target_pixels(self) -> np.ndarray:
        return self.table[:, 3:5]

    @property
    def source_depths(self) -> np.ndarray:
        return self.table[:, 2]

    @property
    def target_depths(self) -> np.ndarray:
        return self.table[:, 5]

    @property
    def has_depths(self) -> np.ndarray:
        """Mask of the matches whose source and target depths are both known."""
        return ~np.isnan(self.table[:, _DEPTH_COLUMNS]).any(axis=1)

    def points(self, k_source: CameraIntrinsics, k_target: CameraIntrinsics):
        """Backprojected (source, target) (n, 3) camera-frame points; every
        match must have both depths."""
        return (k_source.backproject(self.source_pixels, self.source_depths),
                k_target.backproject(self.target_pixels, self.target_depths))


def _read_bytes(path: Path) -> bytes:
    """The file's bytes; a file that cannot be read is a ParseError."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc


def _read_json(path: Path):
    """The file's UTF-8 JSON value, after a byte-order mark if it has one; a
    file that is not one is a ParseError."""
    try:
        return json.loads(_read_bytes(path).decode("utf-8-sig"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"not valid JSON: {exc}", path=path) from exc


def _float(token: str) -> float:
    """``float`` of a text token, refusing with ValueError one that holds
    ``_`` or a non-ASCII character: ``float`` reads digit-group underscores
    and non-ASCII digits, so ``1_0`` or ``１２`` would pass as a number."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not an ASCII number: {token!r}")
    return float(token)


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------


def read_ply(path) -> Cloud:
    """Read an ASCII or binary little-endian PLY vertex cloud: x, y and z
    float or double, other properties of any scalar type ignored."""
    path = Path(path)
    raw = _read_bytes(path)

    # The header ends at the first line that reads end_header; a comment
    # line may hold the word too.
    start = 0
    while (newline := raw.find(b"\n", start)) >= 0 \
            and raw[start:newline].strip() != b"end_header":
        start = newline + 1
    if newline < 0:
        if raw[start:].strip() == b"end_header":
            raise ParseError("header not terminated by newline", path=path)
        raise ParseError("missing end_header", path=path)
    body = raw[newline + 1:]

    try:
        header_lines = raw[:start].decode("ascii").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise ParseError("header is not ASCII", path=path) from exc

    fmt = None
    vertex_count = None
    properties: list[tuple[str, str]] = []
    label = ""
    in_vertex = False
    for lineno, line in enumerate(header_lines, start=1):
        # A CR ends a line only before its LF; elsewhere write_ply could not
        # write it back.
        line = line.removesuffix("\r")
        if "\r" in line:
            raise ParseError("carriage return inside a header line", path=path, line=lineno)
        tokens = line.strip().split()
        if not tokens:
            continue
        if lineno == 1:
            if tokens != ["ply"]:
                raise ParseError("not a PLY file (magic line missing)", path=path, line=1)
            continue
        keyword = tokens[0]
        if keyword == "format":
            if len(tokens) != 3:
                raise ParseError("malformed format line", path=path, line=lineno)
            if fmt is not None:
                raise ParseError("repeated format line", path=path, line=lineno)
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary-le"
            elif tokens[1] == "binary_big_endian":
                raise ParseError("big-endian PLY is not supported", path=path, line=lineno)
            else:
                raise ParseError(f"unknown PLY format {tokens[1]!r}", path=path, line=lineno)
        elif keyword == "comment":
            # Only the line end is cut, so a label keeps its own spaces.
            rest = line.lstrip()[len("comment"):].lstrip()
            if rest.startswith("label ") and not label:
                label = rest[len("label "):]
        elif keyword == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element line", path=path, line=lineno)
            if tokens[1] != "vertex":
                raise ParseError(f"unsupported element {tokens[1]!r}", path=path, line=lineno)
            if vertex_count is not None:
                raise ParseError("repeated element line", path=path, line=lineno)
            try:
                vertex_count = int(tokens[2])
            except ValueError as exc:
                raise ParseError("vertex count is not an integer", path=path, line=lineno) from exc
            in_vertex = True
        elif keyword == "property":
            if not in_vertex:
                raise ParseError("property outside the vertex element", path=path, line=lineno)
            if len(tokens) != 3:
                raise ParseError("unsupported property declaration", path=path, line=lineno)
            if tokens[1] not in _PLY_TYPES:
                raise ParseError(f"unsupported property type {tokens[1]!r}", path=path, line=lineno)
            if tokens[2] in ("x", "y", "z") and np.dtype(_PLY_TYPES[tokens[1]]).kind != "f":
                raise ParseError(f"property {tokens[2]!r} must be float or double",
                                 path=path, line=lineno)
            if any(name == tokens[2] for name, _ in properties):
                raise ParseError(f"repeated property {tokens[2]!r}", path=path, line=lineno)
            properties.append((tokens[2], _PLY_TYPES[tokens[1]]))
        elif keyword == "obj_info":
            continue
        else:
            raise ParseError(f"unknown header keyword {keyword!r}", path=path, line=lineno)

    if fmt is None:
        raise ParseError("missing format line", path=path)
    if vertex_count is None:
        raise ParseError("missing vertex element", path=path)
    if vertex_count < 1:
        raise ParseError(f"cloud is empty (vertex count {vertex_count})", path=path)
    names = [name for name, _ in properties]
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise ParseError(f"vertex element lacks property {coord!r}", path=path)

    if fmt == "ascii":
        pts, place = _read_ply_ascii(body, vertex_count, names, path, len(header_lines) + 1)
    else:
        pts, place = _read_ply_binary(body, vertex_count, properties, path)

    try:
        return Cloud(points=pts, label=label)
    except ValueError as exc:
        # Only a coordinate can fail: the first row with one out of bounds
        # (NaN fails the test too) is named at its place in the body.
        row = int((~(np.abs(pts) <= COORDINATE_LIMIT)).any(axis=1).argmax())
        key, places = place
        raise ParseError(str(exc), path=path, **{key: places[row]}) from None


def _read_ply_ascii(body, count, names, path, header_len):
    # The (n, 3) coordinates and ("line", each row's line number).
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("ASCII body contains non-ASCII bytes", path=path) from exc
    rows, linenos = [], []
    # A CR before the LF is whitespace to split(), as are FF and VT.
    for lineno, line in enumerate(text.split("\n"), start=header_len + 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != len(names):
            raise ParseError(
                f"expected {len(names)} values per vertex, got {len(tokens)}",
                path=path, line=lineno)
        try:
            rows.append([_float(tok) for tok in tokens])
        except ValueError as exc:
            raise ParseError("vertex value is not a number", path=path, line=lineno) from exc
        linenos.append(lineno)
    if len(rows) != count:
        raise ParseError(
            f"header declares {count} vertices but body has {len(rows)}", path=path)
    data = np.asarray(rows, dtype=np.float64)
    return data[:, [names.index(coord) for coord in ("x", "y", "z")]], ("line", linenos)


def _read_ply_binary(body, count, properties, path):
    # The (n, 3) coordinates and ("offset", each row's byte offset in the body).
    dtype = np.dtype([(name, code) for name, code in properties])
    expected = dtype.itemsize * count
    if len(body) < expected:
        raise ParseError(
            f"binary body too short: expected {expected} bytes, have {len(body)}",
            path=path, offset=len(body))
    if len(body) > expected:
        raise ParseError("trailing bytes after vertex data", path=path, offset=expected)
    table = np.frombuffer(body, dtype=dtype, count=count)
    pts = np.empty((count, 3), dtype=np.float64)
    for k, coord in enumerate(("x", "y", "z")):
        pts[:, k] = table[coord].astype(np.float64)
    return pts, ("offset", range(0, expected, dtype.itemsize))


def write_ply(cloud: Cloud, path, fmt: str = "binary-le") -> None:
    """Write a cloud as binary little-endian PLY of doubles, so a write/read
    round trip is bit exact. The label is preserved in a header comment
    line, so it must be ASCII and may not hold a line break."""
    # fmt is kept only because perfbench/workloads.py passes fmt="binary-le".
    if fmt != "binary-le":
        raise ValueError(f"write_ply writes binary-le only, not {fmt!r}")
    pts = cloud.points
    label = cloud.label
    if "\r" in label or "\n" in label:
        raise ValueError("a PLY label must not hold a line break")
    if not label.isascii():
        raise ValueError("a PLY label must be ASCII")

    header = ["ply", "format binary_little_endian 1.0"]
    if label:
        header.append(f"comment label {label}")
    header.append(f"element vertex {pts.shape[0]}")
    header.extend(f"property double {c}" for c in ("x", "y", "z"))
    header.append("end_header")
    head = ("\n".join(header) + "\n").encode("ascii")
    Path(path).write_bytes(head + np.ascontiguousarray(pts, dtype="<f8").tobytes())


# ---------------------------------------------------------------------------
# Matches CSV
# ---------------------------------------------------------------------------

def read_matches(path) -> Matches:
    """Read keypoint correspondences from CSV; an empty depth is unknown. A
    wrong field count or a non-number is reported where it is met, else the
    first value, a literal ``nan`` too, that breaks the ``Matches`` rule. A
    line ends at LF; a leading byte-order mark is skipped."""
    path = Path(path)
    try:
        text = _read_bytes(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError("file is not UTF-8 text", path=path) from exc

    # A CR before the LF is whitespace to strip() and float().
    lines = text.split("\n")
    if lines[0].strip() != _MATCH_HEADER:
        raise ParseError(f"header must be exactly {_MATCH_HEADER!r}", path=path, line=1)

    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", path=path, line=lineno)
        for col, token in enumerate(fields):
            # A blank of non-ASCII spaces is a mistyped field, not an unknown depth.
            if col in _DEPTH_COLUMNS and not token.strip() and token.isascii():
                values.append(math.nan)
                continue
            try:
                value = _float(token)
            except ValueError as exc:
                raise ParseError(f"{_MATCH_COLUMNS[col]} is not a number",
                                 path=path, line=lineno) from exc
            # NaN marks an unknown depth: a literal one reads as inf, so
            # that it breaks its column's rule like any non-finite value.
            values.append(math.inf if value != value else value)

    table = np.array(values, dtype=np.float64).reshape(-1, 6)
    try:
        return Matches(table)
    except ValueError:
        row, message = _first_invalid_match(table)
        lineno = [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]
        raise ParseError(message, path=path, line=lineno) from None


def write_matches(matches: Matches, path) -> None:
    """Write matches as CSV, 17 significant digits, unknown depths empty."""
    rows = (",".join("" if v != v else format(v, ".17g") for v in row)
            for row in matches.table.tolist())
    Path(path).write_text("\n".join([_MATCH_HEADER, *rows]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Intrinsics JSON
# ---------------------------------------------------------------------------


def _number(value, key, path) -> float:
    """A JSON number as a float; a bool or a string is no number, nor is an
    integer too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"key {key!r} must be numeric", path=path)
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"key {key!r} is too large for a float", path=path) from None


def _numbers(value, key, path) -> np.ndarray:
    """A JSON list of numbers as a float64 array."""
    if not isinstance(value, list):
        raise ParseError(f"key {key!r} must be a list of numbers", path=path)
    return np.array([_number(v, key, path) for v in value], dtype=np.float64)


def read_intrinsics(path) -> CameraIntrinsics:
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError("intrinsics JSON must be an object", path=path)
    values = {}
    for key in ("fx", "fy", "cx", "cy"):
        if key not in data:
            raise ParseError(f"missing key {key!r}", path=path)
        values[key] = _number(data[key], key, path)
    try:
        return CameraIntrinsics(**values)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


def write_intrinsics(intrinsics: CameraIntrinsics, path) -> None:
    payload = {
        "fx": intrinsics.fx, "fy": intrinsics.fy,
        "cx": intrinsics.cx, "cy": intrinsics.cy,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Pipeline report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """End-to-end registration result written to the report JSON.

    The one keeper of the report's rules: each field is checked and stored as
    given, apart from the matrices' read-only copies, so every report that
    exists can be written and read back."""

    scale_detected: bool
    scale: float
    relative_pose: RigidTransform
    icp_transform: RigidTransform
    rms: float
    iterations: int
    covariance: np.ndarray
    information: np.ndarray

    def __post_init__(self):
        if not isinstance(self.scale_detected, bool):
            raise ValueError("'scale_detected' must be true or false")
        if not (isinstance(self.scale, float) and 0.0 < self.scale < math.inf):
            raise ValueError("'scale' must be a positive finite float")
        for name in ("relative_pose", "icp_transform"):
            if not isinstance(getattr(self, name), RigidTransform):
                raise ValueError(f"'{name}' must be a RigidTransform")
        if not (isinstance(self.rms, float) and 0.0 <= self.rms < math.inf):
            raise ValueError("'rms' must be a finite float of at least 0")
        # ICP always runs at least one iteration.
        if not isinstance(self.iterations, int) or isinstance(self.iterations, bool) \
                or self.iterations < 1:
            raise ValueError("'iterations' must be an integer of at least 1")
        cov, info = freeze(self.covariance), freeze(self.information)
        if cov.shape != (6, 6) or info.shape != (6, 6):
            raise ValueError("covariance and information must be 6x6")
        if not (np.isfinite(cov).all() and np.isfinite(info).all()):
            raise ValueError("covariance and information must be finite")
        check_symmetric(cov, "covariance")
        product = info @ cov
        if np.abs(product - np.eye(6)).max() > 1e-6:
            raise ValueError("information must invert the covariance within 1e-6")
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "information", info)

    @property
    def final_transform(self) -> SimilarityTransform:
        """The source-to-target transform: ``scale`` times ``icp_transform``."""
        return SimilarityTransform(self.scale, self.icp_transform)


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_array(arr) -> str:
    return "[" + ", ".join(_fmt_float(v) for v in np.asarray(arr).ravel()) + "]"


def _fmt_rigid(rt: RigidTransform) -> str:
    return ("{" + f'"rotation": {_fmt_array(rt.rotation)}, '
            + f'"translation": {_fmt_array(rt.translation)}' + "}")


def write_report(report: PipelineReport, path) -> None:
    """Write the report JSON.

    Top-level keys, in order: scale_detected, scale, relative_pose,
    icp_transform, final_transform (scale + rotation + translation), rms,
    iterations, covariance, information. Matrices are row-major flat lists;
    floats carry 17 significant digits so 64-bit values survive a round trip.
    """
    final = report.final_transform
    parts = [
        f'"scale_detected": {"true" if report.scale_detected else "false"}',
        f'"scale": {_fmt_float(report.scale)}',
        f'"relative_pose": {_fmt_rigid(report.relative_pose)}',
        f'"icp_transform": {_fmt_rigid(report.icp_transform)}',
        ('"final_transform": {'
         + f'"scale": {_fmt_float(final.scale)}, '
         + f'"rotation": {_fmt_array(final.rotation)}, '
         + f'"translation": {_fmt_array(final.translation)}' + "}"),
        f'"rms": {_fmt_float(report.rms)}',
        f'"iterations": {report.iterations}',
        f'"covariance": {_fmt_array(report.covariance)}',
        f'"information": {_fmt_array(report.information)}',
    ]
    text = "{\n  " + ",\n  ".join(parts) + "\n}\n"
    Path(path).write_text(text, encoding="utf-8")


def _rigid_from_json(obj, key, path) -> RigidTransform:
    if not isinstance(obj, dict):
        raise ParseError(f"{key!r} must be an object", path=path)
    try:
        rotation, translation = obj["rotation"], obj["translation"]
    except KeyError as exc:
        raise KeyError(f"{key}.{exc.args[0]}") from None
    return RigidTransform(_numbers(rotation, f"{key}.rotation", path).reshape(3, 3),
                          _numbers(translation, f"{key}.translation", path))


def read_report(path) -> PipelineReport:
    """Read a report JSON: every value except ``scale_detected`` and
    ``iterations`` must be a number, the values must meet the rules of
    ``PipelineReport``, and ``final_transform`` must equal ``scale`` times
    ``icp_transform`` exactly, as ``write_report`` writes it."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError("report JSON must be an object", path=path)
    try:
        report = PipelineReport(
            scale_detected=data["scale_detected"],
            scale=_number(data["scale"], "scale", path),
            relative_pose=_rigid_from_json(data["relative_pose"], "relative_pose", path),
            icp_transform=_rigid_from_json(data["icp_transform"], "icp_transform", path),
            rms=_number(data["rms"], "rms", path),
            iterations=data["iterations"],
            covariance=_numbers(data["covariance"], "covariance", path).reshape(6, 6),
            information=_numbers(data["information"], "information", path).reshape(6, 6),
        )
        final = data["final_transform"]
        # the transform first: it refuses a final_transform that is no object
        rigid = _rigid_from_json(final, "final_transform", path)
        try:
            scale = final["scale"]
        except KeyError:
            raise KeyError("final_transform.scale") from None
        stored = SimilarityTransform(_number(scale, "final_transform.scale", path), rigid)
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}", path=path) from None
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad report structure: {exc}", path=path) from exc
    expected = report.final_transform
    if not (stored.scale == expected.scale
            and np.array_equal(stored.rotation, expected.rotation)
            and np.array_equal(stored.translation, expected.translation)):
        raise ParseError("final_transform must equal scale times icp_transform",
                         path=path)
    return report
