#!/usr/bin/env python3
"""End-to-end benchmark of the pcr registration pipeline.

Run from the root of a pcr checkout:

    python3 perfbench/run.py --workload edge-small --seed 3 --seconds 40 --trace 0

The run builds its scenes from ``--seed`` (and ``--seed-list``), measures
set-up, then calls ``pcr.pipeline.run_pipeline`` serially on a fixed number
of scenes, sized so the timed loop lasts about ``--seconds``, and checks
every report against the scene's ground truth. With ``--trace 0`` each
registration is paired with one of the same scene by a frozen reference copy
of pcr (``baseline/``, timed in a worker process, see ``reference.py``), and
times are reported as the program's share of the reference's time, in ms at
the reference speed. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``). Full
results, including raw wall times, the environment record and the spans of
a traced run, go to ``perfbench/results/``.

``--smoke`` runs every workload once per trace mode on a single scene and
checks the output schema against BENCHMARK.json and the span arithmetic.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
RESULTS = HERE / "results"
WORK = HERE / "work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from workloads import SEED_LISTS, WORKLOADS, import_seconds, make_scenes  # noqa: E402


def cap_threads() -> int:
    """Limit BLAS/OpenMP pools to the CPUs this process may use; must run
    before numpy is imported. Returns that CPU count."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas = {}
    return {
        "commit": commit,
        "source_sha256": source_digest(SRC / "pcr"),
        "reference_sha256": source_digest(BASELINE / "pcr"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
    }


class Reference:
    """The worker that times the frozen reference copy (``reference.py``).

    Use as a context manager: leaving it ends the worker's input, waits for
    it to exit and kills it if it does not."""

    def __init__(self, workload):
        self.workload = workload
        self.proc = None

    def __enter__(self):
        env = dict(os.environ, PYTHONPATH=str(BASELINE))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)
        try:
            self._answer()  # the worker has imported the reference package
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited with {self.proc.wait()}")
        return json.loads(line)

    def _ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(dict(request, workload=self.workload.name),
                                         default=str) + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def setup_s(self, seeds: list[int], out: Path) -> float:
        return self._ask(op="setup", seeds=seeds, dir=out)["s"]

    def register_ms(self, scene: dict) -> float:
        answer = self._ask(op="register", paths=scene["paths"], dir=scene["dir"])
        if answer["error"] is not None:
            raise RuntimeError(f"reference copy failed on scene {scene['seed']}: "
                               f"{answer['error']}")
        return answer["ms"]


def setup_round(pcr, build, workload, seeds, out: Path) -> tuple[list[dict], float]:
    """One set-up: package import in a fresh interpreter, then every scene
    written to disk. ``build`` records the synth.build_scene spans."""
    build.wrap(pcr.synth, "build_scene", "synth.build")
    try:
        import_s = import_seconds(SRC)
        start = time.perf_counter()
        scenes = make_scenes(pcr, workload, seeds, out)
        return scenes, import_s + time.perf_counter() - start
    finally:
        build.close()


def setup_rounds(pcr, build, workload, seeds, work: Path, reference, repeats: int):
    """The program's set-up rounds, each paired with one of the reference's,
    alternating which side goes first. Returns the first round's scenes and
    the (program, reference) seconds of every round."""
    rounds, scenes = [], None
    for rep in range(repeats):
        ref_first = rep % 2 == 1
        ref_s = reference.setup_s(seeds, work / f"ref-setup{rep}") \
            if reference and ref_first else None
        made, prog_s = setup_round(pcr, build, workload, seeds, work / f"setup{rep}")
        if reference and not ref_first:
            ref_s = reference.setup_s(seeds, work / f"ref-setup{rep}")
        if scenes is None:
            scenes = made
        else:
            shutil.rmtree(work / f"setup{rep}")
        rounds.append((prog_s, ref_s))
    return scenes, rounds


def load_truth(pcr, scenes: list[dict]) -> None:
    for scene in scenes:
        target = pcr.cloudio.read_ply(scene["paths"]["target"])
        scene["truth"] = pcr.synth.read_ground_truth(scene["paths"]["ground_truth"])
        scene["target_diag"] = pcr.geom.bounds(target.points).diagonal_length()


def rotation_error_deg(ra, rb) -> float:
    # |dR - I|_F = 2 sqrt(2) |sin(theta / 2)| keeps its digits at tiny angles,
    # where the arccos-of-trace form loses half of them.
    import numpy as np

    s = np.linalg.norm(ra.T @ rb - np.eye(3)) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(min(1.0, s))))


# Criterion-01 tolerances (scale, degrees, share of the target diagonal). A
# report within them is "ok"; one beyond GROSS times them is wrong, not just
# inaccurate: criterion 01 itself accepts a few misses in 50 scenes.
TOLERANCE = (0.01, 0.5, 0.01)
GROSS = 5.0


def check(report, scene) -> dict:
    """Errors of one report against the scene's ground truth."""
    import numpy as np

    truth = scene["truth"]
    final = report.final_transform
    scale_err = abs(final.scale / truth.scale - 1.0)
    rot_err = rotation_error_deg(final.rotation, truth.rotation)
    trans_err = float(np.linalg.norm(final.translation - truth.translation)) \
        / scene["target_diag"]
    errors = (scale_err, rot_err, trans_err)
    return {"scale_err_rel": scale_err, "rot_err_deg": rot_err,
            "trans_err_rel": trans_err,
            "ok": all(e < tol for e, tol in zip(errors, TOLERANCE)),
            "gross": any(e >= GROSS * tol for e, tol in zip(errors, TOLERANCE))}


def register(pcr, workload, scene, index: int, tracer=None) -> dict:
    """One timed run_pipeline call, then its check against ground truth.

    The first two registrations of a run write their own report files so the
    determinism check can compare them; later ones overwrite one file."""
    name = f"report{index}.json" if index < 2 else "report.json"
    report_path = scene["dir"] / name
    cfg = workload.config(pcr, scene["paths"], str(report_path),
                          str(scene["dir"] / "transformed.ply"))
    if tracer is not None:
        tracer.request = index
        tracer.install(pcr)
    try:
        start = time.perf_counter()
        try:
            report, error = pcr.pipeline.run_pipeline(cfg), None
        except pcr.errors.RegistrationError as exc:
            report, error = None, str(exc)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close()
    sample = {"index": index, "scene": scene["seed"], "ms": elapsed * 1e3,
              "traced": tracer is not None, "error": error, "ok": False}
    if report is not None:
        sample.update(check(report, scene))
        sample["report"] = report_path
    return sample


def tail(values: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, samples, samples beyond): the highest order
    statistic with at least ten samples above it, never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    pct = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return ordered[rank], pct, n, n - 1 - rank


def accuracy(samples: list[dict]) -> dict:
    """Median errors over each scene's first registration that returned."""
    first = {}
    for s in samples:
        if s["error"] is None:
            first.setdefault(s["scene"], s)
    out = {}
    for key, unit in (("rot_err_deg", "deg"), ("trans_err_rel", "ratio"),
                      ("scale_err_rel", "ratio")):
        values = [s[key] for s in first.values()]
        out[f"{key}.p50"] = (statistics.median(values) if values else 0.0, unit)
    return out


def end_to_end(workload, samples: list[dict], rounds: list[tuple[float, float]]):
    """Times as the program's share of the reference's, paired registration
    by registration (set-up round by round), scaled by the reference's
    nominal time on the workload. Throughput charges every registration the
    median time: a mean would follow the few pairs the host disturbed."""
    ratios = [s["ms"] / s["ref_ms"] for s in samples]
    ok = sum(s["ok"] for s in samples)
    median_ms = statistics.median(ratios) * workload.ref_ms
    tail_ratio, tail_pct, n, beyond = tail(ratios)
    metrics = {
        "register_ms.p50": (median_ms, "ms"),
        "register_ms.tail": (tail_ratio * workload.ref_ms, "ms"),
        "edges_per_s": (ok / (len(samples) * median_ms / 1e3), "1/s"),
        "ok_rate": (ok / len(samples), "ratio"),
        "setup_s": (statistics.median(p / r for p, r in rounds) * workload.ref_setup_s,
                    "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"register_ms.p50": statistics.median(s["ms"] for s in samples),
           "reference_ms.p50": statistics.median(s["ref_ms"] for s in samples),
           "setup_s": statistics.median(p for p, _ in rounds),
           "reference_setup_s": statistics.median(r for _, r in rounds)}
    return metrics, {"percentile": tail_pct, "samples": n, "beyond": beyond}, raw


def per_layer(tracer_mod, tracer, samples: list[dict], scenes: int, build_ms: float,
              errors: dict):
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    timed = [s["index"] for s in traced]
    metrics = tracer_mod.layer_metrics(tracer, timed, timed[:scenes])
    metrics["synth.build_ms"] = (build_ms, "ms")
    metrics["trace_overhead_ms"] = (statistics.median(s["ms"] for s in traced)
                                    - statistics.median(s["ms"] for s in untraced), "ms")
    metrics.update(errors)
    return metrics, timed


def same_bytes(a: dict, b: dict) -> bool:
    if a["error"] is not None or b["error"] is not None:
        return False
    return a["report"].read_bytes() == b["report"].read_bytes()


def timed_loop(pcr, workload, scenes: list[dict], tracer, reference) -> list[dict]:
    """The registrations of a run; their number depends on the scene count
    only, so a seed always gives the same ones."""
    samples = []
    if tracer is not None:
        # Each scene untraced, then traced; the first pair is also the
        # determinism check (tracing must not change the report).
        for scene in scenes:
            for step_tracer in (None, tracer):
                samples.append(register(pcr, workload, scene, len(samples), step_tracer))
        return samples
    # Scene 0 twice (determinism check), then every other scene once; each
    # registration is paired with the reference's on the same scene,
    # alternating which side goes first.
    for i, scene in enumerate([scenes[0]] + scenes):
        if i % 2 == 0:
            ref_ms = reference.register_ms(scene)
            sample = register(pcr, workload, scene, i)
        else:
            sample = register(pcr, workload, scene, i)
            ref_ms = reference.register_ms(scene)
        sample["ref_ms"] = ref_ms
        samples.append(sample)
    return samples


def run_workload(workload, seed: int, seconds: float, trace: bool, seed_list: str,
                 scenes_override: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 nproc: int = 1) -> dict:
    import pcr
    import tracer as tracer_mod

    env = environment(nproc)
    k = scenes_override or workload.scene_count(seconds)
    seeds = workload.scene_seeds(seed, seed_list, k)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    tracer = tracer_mod.Tracer() if trace else None
    build = tracer_mod.Tracer()
    try:
        with contextlib.nullcontext() if trace else Reference(workload) as reference:
            scenes, rounds = setup_rounds(pcr, build, workload, seeds, work, reference,
                                          1 if trace else setup_repeats)
            load_truth(pcr, scenes)
            samples = timed_loop(pcr, workload, scenes, tracer, reference)
        build_ms = statistics.median(span.ms for span in build.spans)

        deterministic = same_bytes(samples[0], samples[1])
        errors = accuracy(samples)
        result = {"workload": workload.name, "seed": seed, "seed_list": seed_list,
                  "scene_seeds": seeds, "seconds": seconds, "trace": int(trace),
                  "env": env, "setup_rounds_s": rounds,
                  "deterministic": deterministic,
                  "accuracy": {k2: v for k2, (v, _) in errors.items()},
                  "samples": [{k2: (str(v) if isinstance(v, Path) else v)
                               for k2, v in s.items()} for s in samples]}
        # Misses and stage errors count as failed; a grossly wrong report or
        # two different reports for one scene make the run incorrect.
        correct = deterministic and not any(s.get("gross") for s in samples)
        if trace:
            metrics, timed = per_layer(tracer_mod, tracer, samples, k, build_ms, errors)
            result["spans_within_total"] = tracer_mod.stage_sum_within_total(tracer)
            result["missing_wrappers"] = tracer.missing
            result["stages"] = tracer_mod.stage_table(tracer, timed)
            result["spans"] = [s.as_dict(own)
                               for s, own in zip(tracer.spans, tracer.self_ms())]
            correct = correct and result["spans_within_total"]
        else:
            metrics, result["tail"], result["raw"] = end_to_end(workload, samples, rounds)
        result["metrics"] = {name: {"value": float(value), "unit": unit}
                             for name, (value, unit) in metrics.items()}
        result["summary"] = {"correct": bool(correct), "attempted": len(samples),
                             "failed": sum(not s["ok"] for s in samples)}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def final_line(result: dict) -> str:
    return json.dumps({**result["summary"], "metrics": result["metrics"]})


def save(result: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / (f"{result['workload']}-{result['seed_list']}{result['seed']}"
                      f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def show(result: dict) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {result['workload']} seed {result['seed']} ({result['seed_list']}) "
          f"scenes {result['scene_seeds']}")
    print(f"deterministic report: {result['deterministic']}")
    for name, stage_ms, own_ms, calls in result.get("stages", []):
        print(f"  span {name:24s} {stage_ms:10.3f} ms  self {own_ms:10.3f} ms  "
              f"calls {calls}")
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "register_ms.tail":
            t = result["tail"]
            extra = (f"  (p{t['percentile']:.1f} of {t['samples']} samples, "
                     f"{t['beyond']} beyond)")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{extra}")
    if not result["trace"]:
        print("raw wall time (medians) "
              + ", ".join(f"{k} = {v:.6g}" for k, v in result["raw"].items()))
        print("accuracy (medians over scenes) "
              + ", ".join(f"{k} = {v:.3g}" for k, v in result["accuracy"].items()))


def smoke(args, nproc: int) -> int:
    """One short run per workload and trace mode: schema and span checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(WORKLOADS[name], args.seed, 0.0, trace, args.seed_list,
                                  scenes_override=1, setup_repeats=1, nproc=nproc)
            line = json.loads(final_line(result))
            problems = []
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(line)}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected:
                problems.append(f"metrics differ: {sorted(set(got) ^ set(expected))} "
                                f"or units {[k for k in got if got[k] != expected.get(k)]}")
            if not line["correct"]:
                problems.append("correct is false")
            if trace and not result["spans_within_total"]:
                problems.append("stage spans exceed the register time")
            if result.get("missing_wrappers"):
                problems.append(f"missing {result['missing_wrappers']}")
            failures += bool(problems)
            print(f"smoke {name} trace {int(trace)}: "
                  + ("ok" if not problems else "; ".join(problems)))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pcr pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-list", choices=sorted(SEED_LISTS), default="tune")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "pcr" / "pipeline.py").is_file():
        print(f"perfbench: no pcr sources under {SRC}; run from a pcr checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # Turn a termination request into SystemExit, so scene files are removed
    # and the reference worker and a running import probe end on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args, nproc)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), args.seed_list, nproc=nproc)
    path = save(result)
    show(result)
    print(f"results written to {path.relative_to(ROOT)}")
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
