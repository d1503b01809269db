"""An edge's report weights a pose graph, so it must be the same bytes however
the process that writes it is launched: a fresh interpreter, one pinned to a
single CPU (nothing in the stack may read the affinity mask to change its
answer) and one whose BLAS runs on one thread (the stacked LAPACK calls of
RANSAC and ICP's 3 x n products go through BLAS, whose thread pool the
affinity mask does not limit)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pcr
from pcr.cloudio import read_report, write_report
from pcr.pipeline import run_pipeline
from pcr.synth import SynthSpec, generate_synthetic

from conftest import config_for

# name: (scene, registered with its matches and the scale stage)
SCENES = {
    # RANSAC's local optimisation runs stacked LAPACK and BLAS calls
    "default": (SynthSpec(), True),
    # a shrunk target whose cloud reaches behind the camera
    "shrunk": (SynthSpec(scale=0.5, outlier_fraction=0.3, seed=370), True),
    # the pyramid and the neighbour cache
    "dense": (SynthSpec(points=20000), True),
    # every pyramid level from the identity, with no scale stage
    "rigid": (SynthSpec(points=20000, scale=1.0, rotation_deg=5.0), False),
    # one stride-8 level of 625 points
    "mid": (SynthSpec(points=5000, scale=1.0, rotation_deg=5.0, seed=3), False),
}

# Registers each config of argv[2] (a JSON list of PipelineConfig fields) in
# one interpreter; argv[1] names the launch. The CPU pin comes before the
# package, and so numpy and its BLAS, is imported.
CHILD = """
import os, sys
if sys.argv[1] == "cpu0":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import json
from pcr.pipeline import PipelineConfig, run_pipeline
for fields in json.loads(sys.argv[2]):
    run_pipeline(PipelineConfig(**fields))
"""


def test_bytes_independent_of_process_cpus_and_blas_threads(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pcr.__file__).resolve().parents[1]))
    launches = {"plain": env, "blas1": dict(env, OPENBLAS_NUM_THREADS="1")}
    if hasattr(os, "sched_setaffinity"):
        launches["cpu0"] = env
    paths = {name: generate_synthetic(spec, tmp_path / name)
             for name, (spec, _) in SCENES.items()}

    def configs(run):
        return {name: config_for(paths[name], matches=matches,
                                 report_path=str(tmp_path / name / f"{run}.json"),
                                 transformed_path=str(tmp_path / name / f"{run}.ply"))
                for name, (_, matches) in SCENES.items()}

    for cfg in configs("here").values():
        run_pipeline(cfg)
    for launch, launch_env in launches.items():
        fields = [dataclasses.asdict(cfg) for cfg in configs(launch).values()]
        subprocess.run([sys.executable, "-c", CHILD, launch, json.dumps(fields)],
                       env=launch_env, check=True, timeout=120)

    differ = []
    for name in SCENES:
        scene = tmp_path / name
        for run in ("here", *launches):
            report = scene / f"{run}.json"
            write_report(read_report(report), scene / "again.json")
            if (scene / "again.json").read_bytes() != report.read_bytes():
                differ.append((name, run, "reread"))
            if run == "here":
                continue
            for kind in ("json", "ply"):
                if (scene / f"{run}.{kind}").read_bytes() != (scene / f"here.{kind}").read_bytes():
                    differ.append((name, run, kind))
    assert not differ, f"bytes differ from the in-process run: {differ}"
