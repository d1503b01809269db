"""Worker that times the reference copy of pcr, next to the program under test.

``baseline/pcr`` is a verbatim copy of ``src/pcr`` as it stood when the
benchmark was written, and stays frozen. ``run.py`` starts this worker with
``baseline`` on its path and sends it one JSON request per line on standard
input; the worker answers each with one JSON line on standard output and
exits at end of input:

    {"op": "setup", "workload": ..., "seeds": [...], "dir": ...}
        -> {"s": import time in a fresh interpreter + time to write the scenes}
    {"op": "register", "workload": ..., "paths": {...}, "dir": ...}
        -> {"ms": wall time of one run_pipeline call, "error": null or text}

Only one side runs at a time, so the two never compete for the CPUs; the
ratio of the program's time to the reference's, taken at the same moment on
the same scene, cancels the host's changes of speed.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_seconds, make_scenes

BASELINE = Path(__file__).resolve().parent / "baseline"


def setup(pcr, request: dict) -> dict:
    out = Path(request["dir"])
    try:
        import_s = import_seconds(BASELINE)
        start = time.perf_counter()
        make_scenes(pcr, WORKLOADS[request["workload"]], request["seeds"], out)
        return {"s": import_s + time.perf_counter() - start}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def register(pcr, request: dict) -> dict:
    scene = Path(request["dir"])
    cfg = WORKLOADS[request["workload"]].config(
        pcr, request["paths"], str(scene / "reference_report.json"),
        str(scene / "reference_transformed.ply"))
    start = time.perf_counter()
    try:
        pcr.pipeline.run_pipeline(cfg)
        error = None
    except pcr.errors.RegistrationError as exc:
        error = str(exc)
    return {"ms": (time.perf_counter() - start) * 1e3, "error": error}


def main() -> int:
    import pcr

    if Path(pcr.__file__).resolve().parent != BASELINE / "pcr":
        raise SystemExit(f"reference worker imported {pcr.__file__}, not the baseline")
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        handler = {"setup": setup, "register": register}[request["op"]]
        print(json.dumps(handler(pcr, request)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
