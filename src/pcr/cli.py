"""Command line front end: ``pcr register`` and ``pcr synth``."""

from __future__ import annotations

import argparse
import sys

from . import synth
from .errors import StageError
from .pipeline import PipelineConfig, run_pipeline


def _build_parser() -> tuple[argparse.ArgumentParser, ...]:
    # The top-level parser and its "register" and "synth" sub-parsers, whose
    # usage lines a rejected flag value of that sub-command should print.
    parser = argparse.ArgumentParser(
        prog="pcr",
        description="Register two sparse 3D point clouds that may differ by "
                    "an unknown scale; emits a report with the transform and "
                    "the pose information matrix.")
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="run the registration pipeline")
    reg.add_argument("--source", required=True, help="source cloud (PLY)")
    reg.add_argument("--target", required=True, help="target cloud (PLY)")
    reg.add_argument("--matches", help="keypoint matches CSV (us,vs,ds,ut,vt,dt)")
    reg.add_argument("--intrinsics-source", help="source camera intrinsics JSON")
    reg.add_argument("--intrinsics-target", help="target camera intrinsics JSON")
    reg.add_argument("--out", required=True, help="report JSON output path")
    reg.add_argument("--transformed", help="write the transformed source cloud here")
    reg.add_argument("--no-scale", action="store_true",
                     help="skip scale estimation even when a gap is detected")

    syn = sub.add_parser("synth", help="generate a synthetic test scene")
    spec = synth.SynthSpec
    syn.add_argument("--scale", type=float, default=spec.scale)
    syn.add_argument("--rot-deg", type=float, default=spec.rotation_deg)
    syn.add_argument("--points", type=int, default=spec.points)
    syn.add_argument("--noise", type=float, default=spec.noise)
    syn.add_argument("--outliers", type=float, default=spec.outlier_fraction)
    syn.add_argument("--matches", type=int, default=spec.match_count)
    syn.add_argument("--seed", type=int, default=spec.seed)
    syn.add_argument("--out-dir", required=True)
    return parser, reg, syn


def _register(reg: argparse.ArgumentParser, args) -> int:
    try:
        cfg = PipelineConfig(
            source=args.source,
            target=args.target,
            matches=args.matches,
            intrinsics_source=args.intrinsics_source,
            intrinsics_target=args.intrinsics_target,
            report_path=args.out,
            transformed_path=args.transformed,
            use_scale=not args.no_scale,
        )
    except ValueError as exc:
        # An output that names an input or the other output.
        reg.error(str(exc))
    try:
        report = run_pipeline(cfg)
    except StageError as exc:
        print(f"pcr: error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return exc.exit_code
    detected = "yes" if report.scale_detected else "no"
    print(f"scale detected: {detected}  scale: {report.scale:.6g}  "
          f"rms: {report.rms:.6g}  iterations: {report.iterations}")
    print(f"report written to {args.out}")
    return 0


def _synth(syn: argparse.ArgumentParser, args) -> int:
    try:
        spec = synth.SynthSpec(scale=args.scale, rotation_deg=args.rot_deg,
                               points=args.points, noise=args.noise,
                               outlier_fraction=args.outliers,
                               match_count=args.matches, seed=args.seed)
        paths = synth.generate_synthetic(spec, args.out_dir)
    except ValueError as exc:
        # Out-of-range values, and a scale or noise that takes the scene's
        # points past the coordinate limit, end like argparse's type errors.
        syn.error(str(exc))
    except OSError as exc:
        print(f"pcr: error: {exc}", file=sys.stderr)
        return 1
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def main(argv=None) -> int:
    parser, reg, syn = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    registering = args.command == "register"
    if unknown:
        # A removed or misspelt flag prints its sub-command's usage.
        (reg if registering else syn).error("unrecognized arguments: " + " ".join(unknown))
    return _register(reg, args) if registering else _synth(syn, args)


if __name__ == "__main__":
    sys.exit(main())
