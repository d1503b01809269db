"""The benchmark's view of pcr.

``perfbench/`` is frozen with the benchmark: its tracer wraps pcr functions
by name and its workloads build ``PipelineConfig`` with the fields they
pass. A refactor that drops a traced name or such a field fails here, not
only in ``perfbench/run.py --smoke``. The modules are read from
``perfbench/`` as its own scripts import them; nothing there is changed.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

import pcr
from pcr.synth import SynthSpec, generate_synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_name_exists(perfbench):
    tracer_module, _ = perfbench
    tracer = tracer_module.Tracer()
    try:
        tracer.install(pcr)
        assert tracer.missing == []
    finally:
        tracer.close()


def default_scene(workloads, out):
    # the default ``pcr synth`` scene
    return generate_synthetic(SynthSpec(), out)


def rigid_scene(workloads, out):
    # an s = 1, 5 deg scene at 2000 points, its offset cut as rigid-dense cuts it
    small = dataclasses.replace(workloads.WORKLOADS["rigid-dense"],
                                spec=dict(workloads.WORKLOADS["rigid-dense"].spec,
                                          points=2000))
    [scene] = workloads.make_scenes(pcr, small, [1000], out)
    return scene["paths"]


@pytest.mark.parametrize("name, build", [("edge-small", default_scene),
                                         ("rigid-dense", rigid_scene)])
def test_traced_pipeline_returns_a_report(perfbench, tmp_path, name, build):
    tracer_module, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    paths = build(workloads, tmp_path / "scene")
    cfg = workload.config(pcr, paths, str(tmp_path / "report.json"),
                          str(tmp_path / "moved.ply"))
    tracer = tracer_module.Tracer()
    tracer.request = 0
    try:
        tracer.install(pcr)
        report = pcr.pipeline.run_pipeline(cfg)
    finally:
        tracer.close()
    assert isinstance(report, pcr.PipelineReport)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "moved.ply").exists() == workload.write_cloud
    assert [s.name for s in tracer.spans].count("pipeline.run_pipeline") == 1
    assert tracer_module.stage_sum_within_total(tracer)


def test_every_workload_builds_a_config(perfbench):
    _, workloads = perfbench
    paths = {key: f"{key}.file" for key in ("source", "target", "matches",
                                            "intrinsics_source", "intrinsics_target")}
    for workload in workloads.WORKLOADS.values():
        cfg = workload.config(pcr, paths, "report.json", "moved.ply")
        assert isinstance(cfg, pcr.pipeline.PipelineConfig)
        assert cfg.use_scale == workload.with_scale
