"""Spans around the public functions of each pcr layer, recorded from outside.

The tracer replaces module (or class) attributes at the place where the
caller looks them up, so ``pipeline.run_pipeline`` reaches the wrapper
without any change to the package. Each span keeps its name, start, end,
parent and the registration (request) it belongs to, plus a few counts read
from the call's arguments and result outside the span's own interval. Spans stay in
memory; ``layer_metrics`` folds them into per-registration numbers.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np


class Span:
    __slots__ = ("sid", "parent", "request", "name", "start", "end", "error",
                 "counts")

    def __init__(self, sid, parent, request, name, start):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.error = None
        self.counts = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self, self_ms: float) -> dict:
        return {"id": self.sid, "parent": self.parent, "request": self.request,
                "name": self.name, "start": self.start, "end": self.end,
                "self_ms": self_ms, "error": self.error, "counts": self.counts}


class Tracer:
    """Installs span-recording wrappers and restores the originals on close."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> bool:
        """Wrap ``owner.attr``. ``before(span, args)`` runs ahead of the call
        and ``after(span, args, result)`` once it has returned, both outside
        the span's own interval. Returns False when the attribute is gone."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                        tracer.request, name, 0.0)
            tracer.spans.append(span)
            if before is not None:
                before(span, args)
            tracer._stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
            finally:
                tracer._stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)
        return True

    def install(self, pcr) -> None:
        """Wrap every traced function of the package. Names that no longer
        exist are kept in ``missing``, so a refactor that removes one shows
        instead of its metric silently reading 0."""
        self.missing = [f"{owner.__name__}.{attr}"
                        for owner, attr, name, before, after in _traced_functions(pcr)
                        if not self.wrap(owner, attr, name, before, after)]

    def close(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span run one after another, so they never overlap)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.ms
        return [span.ms - covered for span, covered in zip(self.spans, child)]


def _rows(arr) -> int:
    return int(np.shape(arr)[0])


def _count_essential(span, args):
    if _rows(args[0]) == 8:
        span.counts["hypothesis"] = 1


def _count_epipolar(span, args):
    span.counts["rays"] = _rows(args[1])


def _count_ransac(span, args, result):
    span.counts["matches"] = len(args[0])
    span.counts["inliers"] = _rows(result.inliers)


def _count_covariance(span, args, result):
    span.counts["pairs_available"] = _rows(args[0])
    span.counts["cond_h"] = float(np.linalg.cond(result.d2j_dx2))


def _count_hessian_xx(span, args, result):
    span.counts["pairs"] = _rows(args[0])


def _count_information(span, args, result):
    # Same floor as icpcov.information_matrix: 1e-12 times the trace.
    cov = np.asarray(args[0], dtype=np.float64)
    span.counts["clamped"] = int((np.linalg.eigvalsh(cov) < 1e-12 * np.trace(cov)).sum())


def _count_icp(span, args, result):
    source = getattr(args[0], "points", args[0])
    span.counts["iterations"] = int(result.iterations)
    span.counts["converged"] = int(bool(result.converged))
    span.counts["pairs_kept"] = _rows(result.source_indices)
    span.counts["source_points"] = _rows(source)


def _count_query(span, args):
    span.counts["queries"] = _rows(args[1])


def _count_detect(span, args, result):
    span.counts["detected"] = int(bool(result.differs))


def _count_gate(span, args, result):
    span.counts["gate_in"] = len(args[0])
    span.counts["gate_kept"] = _rows(result)


def _count_kalman(span, args, result):
    span.counts["iterations"] = int(result.iterations)
    span.counts["converged"] = int(bool(result.converged))


def _count_read(span, args):
    span.counts["bytes"] = os.path.getsize(args[0])


def _count_write(span, args, result):
    span.counts["bytes"] = os.path.getsize(args[1])


def _traced_functions(pcr) -> list[tuple]:
    cloudio, scale, relpose = pcr.cloudio, pcr.scale, pcr.relpose
    icp, icpcov = pcr.icp, pcr.icpcov
    # (owner, attribute, span name, before hook, after hook)
    return [
        (pcr.pipeline, "run_pipeline", "pipeline.run_pipeline", None, None),
        (cloudio, "read_ply", "cloudio.read", _count_read, None),
        (cloudio, "read_matches", "cloudio.read", _count_read, None),
        (cloudio, "read_intrinsics", "cloudio.read", _count_read, None),
        (cloudio, "write_report", "cloudio.write", None, _count_write),
        (cloudio, "write_ply", "cloudio.write", None, _count_write),
        (scale, "detect_scale", "scale.detect", None, _count_detect),
        (scale, "depth_consistent_indices", "scale.gate", None, _count_gate),
        (scale, "estimate_scale_kalman", "scale.kalman", None, _count_kalman),
        (relpose, "ransac_relative_pose", "relpose.ransac", None, _count_ransac),
        (relpose, "essential_from_rays", "relpose.essential", _count_essential, None),
        (relpose, "epipolar_residuals", "relpose.epipolar", _count_epipolar, None),
        (relpose, "decompose_and_disambiguate", "relpose.decompose", None, None),
        (icp, "icp_register", "icp.register", None, _count_icp),
        (icp, "correspond", "icp.correspond", None, None),
        (icp.NNIndex, "__init__", "icp.nn_build", None, None),
        (icp.NNIndex, "query", "icp.nn_query", _count_query, None),
        (icp, "umeyama_align", "geom.umeyama", None, None),
        (icpcov, "covariance", "icpcov.covariance", None, _count_covariance),
        (icpcov, "hessian_xx", "icpcov.hessian_xx", None, _count_hessian_xx),
        (icpcov, "hessian_zx", "icpcov.hessian_zx", None, None),
        (icpcov, "information_matrix", "icpcov.info", None, _count_information),
    ]


# Per-layer time metrics: metric name -> span name whose durations are summed
# per registration.
TIME_METRICS = {
    "relpose.ransac_ms": "relpose.ransac",
    "relpose.essential_ms": "relpose.essential",
    "relpose.epipolar_ms": "relpose.epipolar",
    "relpose.decompose_ms": "relpose.decompose",
    "icpcov.covariance_ms": "icpcov.covariance",
    "icpcov.hessian_xx_ms": "icpcov.hessian_xx",
    "icpcov.hessian_zx_ms": "icpcov.hessian_zx",
    "icpcov.info_ms": "icpcov.info",
    "icp.register_ms": "icp.register",
    "icp.correspond_ms": "icp.correspond",
    "icp.nn_build_ms": "icp.nn_build",
    "geom.umeyama_ms": "geom.umeyama",
    "scale.detect_ms": "scale.detect",
    "scale.gate_ms": "scale.gate",
    "scale.kalman_ms": "scale.kalman",
    "cloudio.read_ms": "cloudio.read",
    "cloudio.write_ms": "cloudio.write",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, timed: list, counted: list) -> dict:
    """Per-layer (value, unit) pairs. Times are medians over the ``timed``
    requests; counts, ratios and rates come from the ``counted`` requests, a
    fixed set, so that they repeat exactly for a given seed."""
    self_ms = tracer.self_ms()
    by_request: dict = {}
    for span, own in zip(tracer.spans, self_ms):
        by_request.setdefault(span.request, []).append((span, own))

    out = {}
    for metric, span_name in TIME_METRICS.items():
        out[metric] = (statistics.median(
            sum(s.ms for s, _ in by_request.get(r, []) if s.name == span_name)
            for r in timed), "ms")
    out["pipeline.self_ms"] = (statistics.median(
        sum(own for s, own in by_request.get(r, []) if s.name == "pipeline.run_pipeline")
        for r in timed), "ms")

    spans = [s for r in counted for s, _ in by_request.get(r, [])]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    n = len(counted)
    hypotheses = total("relpose.essential", "hypothesis")
    degenerate = sum(1 for s in spans if s.name == "relpose.essential"
                     and s.counts.get("hypothesis")
                     and s.error == "DegenerateGeometryError")
    cond = [s.counts["cond_h"] for s in spans if "cond_h" in s.counts]
    counts = {
        "relpose.hypotheses": hypotheses / n,
        "relpose.residual_evals": total("relpose.epipolar", "rays") / n,
        "icpcov.pairs_used": total("icpcov.hessian_xx", "pairs") / n,
        "icpcov.pairs_available": total("icpcov.covariance", "pairs_available") / n,
        "icpcov.clamped_eigs": total("icpcov.info", "clamped") / n,
        "icp.iterations": total("icp.register", "iterations") / n,
        "icp.nn_queries": total("icp.nn_query", "queries") / n,
        "scale.kalman_iters": total("scale.kalman", "iterations") / n,
    }
    ratios = {
        "relpose.degenerate_ratio": _ratio(degenerate, hypotheses),
        "relpose.inlier_ratio": _ratio(total("relpose.ransac", "inliers"),
                                       total("relpose.ransac", "matches")),
        "icpcov.cond_h": statistics.median(cond) if cond else 0.0,
        "icp.converged_rate": _ratio(total("icp.register", "converged"),
                                     calls("icp.register")),
        "icp.pairs_kept_ratio": _ratio(total("icp.register", "pairs_kept"),
                                       total("icp.register", "source_points")),
        "scale.detected_rate": _ratio(total("scale.detect", "detected"),
                                      calls("scale.detect")),
        "scale.gate_kept_ratio": _ratio(total("scale.gate", "gate_kept"),
                                        total("scale.gate", "gate_in")),
        "scale.kalman_converged_rate": _ratio(total("scale.kalman", "converged"),
                                              calls("scale.kalman")),
    }
    out.update((name, (value, "count")) for name, value in counts.items())
    out.update((name, (value, "ratio")) for name, value in ratios.items())
    out["cloudio.bytes_read"] = (total("cloudio.read", "bytes") / n, "bytes")
    out["cloudio.bytes_written"] = (total("cloudio.write", "bytes") / n, "bytes")
    return out


def stage_table(tracer: Tracer, timed: list) -> list[tuple[str, float, float, int]]:
    """(span name, median total ms, median self ms, calls per registration)
    for every span name seen in the ``timed`` requests."""
    self_ms = tracer.self_ms()
    wanted = set(timed)
    rows: dict = {}
    for span, own in zip(tracer.spans, self_ms):
        if span.request in wanted:
            per = rows.setdefault(span.name, {}).setdefault(span.request, [0.0, 0.0, 0])
            per[0] += span.ms
            per[1] += own
            per[2] += 1
    table = []
    for name, per in rows.items():
        vals = [per.get(r, [0.0, 0.0, 0]) for r in timed]
        table.append((name, statistics.median(v[0] for v in vals),
                      statistics.median(v[1] for v in vals),
                      round(statistics.mean(v[2] for v in vals))))
    return sorted(table, key=lambda row: -row[1])


def stage_sum_within_total(tracer: Tracer) -> bool:
    """True when, for every traced registration, the direct child spans of
    ``pipeline.run_pipeline`` add up to no more than its own duration."""
    return all(own >= 0.0 for span, own in zip(tracer.spans, tracer.self_ms())
               if span.name == "pipeline.run_pipeline")
