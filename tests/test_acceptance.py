"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pcr import cli, relpose
from pcr.geom import bounds
from pcr.icp import icp_register
from pcr.icpcov import covariance, hessian_xx, hessian_zx, information_matrix
from pcr.pipeline import register
from pcr.relpose import ransac_relative_pose
from pcr.scale import estimate_scale_kalman
from pcr.synth import SynthSpec, build_scene, generate_synthetic

from conftest import register_scene, rodrigues, rotation_angle_between
from test_icpcov import fd_hessian_xx, fd_hessian_zx, random_instance
from test_relpose import two_view_scene
from test_scale import (bounded_rotation, make_matches,
                        scale_least_squares, K as K_CAM)


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_end_to_end_sim3_recovery():
    # 2000 points, s=2.5, 15 deg, noise 0.5% of the base diagonal, 30% match
    # outliers, 200 matches; >= 95% of 50 seeds within 1% scale, 0.5 deg,
    # 1% of the target diagonal; each run < 10 s.
    successes = 0
    worst_time = 0.0
    for seed in range(50):
        spec = SynthSpec(scale=2.5, rotation_deg=15.0, points=2000,
                         noise=0.005, outlier_fraction=0.3, match_count=200,
                         seed=seed)
        scene = build_scene(spec)
        start = time.perf_counter()
        try:
            report = register_scene(scene)
        except Exception:
            continue
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        truth = scene.ground_truth
        target_diag = bounds(scene.target.points).diagonal_length()
        scale_ok = abs(report.scale / truth.scale - 1.0) < 0.01
        rot_ok = np.degrees(rotation_angle_between(
            report.final_transform.rotation, truth.rotation)) < 0.5
        trans_ok = np.linalg.norm(
            report.final_transform.translation - truth.translation) < 0.01 * target_diag
        successes += scale_ok and rot_ok and trans_ok and elapsed < 10.0
    verdict(1, "end-to-end Sim(3) recovery", successes >= 48,
            f"{successes}/50 seeds, slowest run {worst_time:.2f}s")


def test_criterion_02_plain_icp_failure_reproduced():
    # the same scene registered without the scale stage leaves RMS more than
    # 10x the with-scale pipeline's RMS
    spec = SynthSpec(scale=2.5, rotation_deg=15.0, points=2000, noise=0.005,
                     outlier_fraction=0.3, match_count=200, seed=7)
    scene = build_scene(spec)
    with_scale = register_scene(scene)
    plain = register_scene(scene, use_scale=False)
    ratio = plain.rms / with_scale.rms
    verdict(2, "plain ICP fails on scale gap", ratio > 10.0,
            f"rms {plain.rms:.4f} vs {with_scale.rms:.4f}, ratio {ratio:.1f}")


def test_criterion_03_kalman_matches_closed_form(rng):
    # filter run to its fixed point equals the one-shot joint least squares
    worst = 0.0
    for trial in range(5):
        local = np.random.default_rng(trial + 50)
        rot = bounded_rotation(local)
        tvec = local.normal(size=3) * 0.5
        tvec[2] = abs(tvec[2])
        matches = make_matches(local, rot, tvec, 2.5, n=80)
        src, tgt = matches.points(K_CAM, K_CAM)
        oracle, _ = scale_least_squares(src, tgt, rot, tvec / np.linalg.norm(tvec))
        est = estimate_scale_kalman(src, tgt, rot)
        worst = max(worst, abs(est.scale - oracle))
    verdict(3, "Kalman fixed point equals closed form", worst < 1e-6,
            f"max |SC - s_ls| = {worst:.2e}")


def test_criterion_04_derivatives_match_finite_differences(rng):
    worst_xx = 0.0
    worst_zx = 0.0
    for _ in range(20):
        # finite differences of J over the tangent perturbation
        # (R exp([dtheta]x), t + dt) of a random pose, at dt = dtheta = 0
        pts_p, pts_q, pose = random_instance(rng, n=8)
        hxx = hessian_xx(pts_p, pts_q, pose)
        worst_xx = max(worst_xx, np.abs(hxx - fd_hessian_xx(pts_p, pts_q, pose)).max()
                       / np.abs(hxx).max())
        hzx = hessian_zx(pts_p, pts_q, pose)
        worst_zx = max(worst_zx, np.abs(hzx - fd_hessian_zx(pts_p, pts_q, pose)).max()
                       / np.abs(hzx).max())
        # pairwise accumulation: the sum over disjoint halves is the total
        half = hessian_xx(pts_p[:4], pts_q[:4], pose) \
            + hessian_xx(pts_p[4:], pts_q[4:], pose)
        assert np.allclose(half, hxx, rtol=1e-12, atol=1e-12)
    ok = worst_xx < 1e-4 and worst_zx < 1e-4
    verdict(4, "analytic derivatives vs finite differences", ok,
            f"max rel err xx {worst_xx:.2e}, zx {worst_zx:.2e}")


def test_criterion_05_covariance_calibration():
    # closed-form per-axis std within factor 3 of 200 Monte-Carlo ICP re-runs
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    base = rng.uniform(-1.0, 1.0, size=(500, 3))
    rot = rodrigues([0.2, 1.0, -0.5], np.deg2rad(5.0))
    shift = np.array([0.08, -0.05, 0.06])
    target = base @ rot.T + shift
    sigma_z = 0.01

    clean = icp_register(base, target)
    closed = covariance(base[clean.source_indices], target[clean.theta],
                        clean.transform, sigma_z=sigma_z)
    closed_std = np.sqrt(np.diag(closed.cov_x))

    # each re-run in tangent coordinates about the clean pose:
    # (t_k, log(R_clean^T R_k))
    samples = np.empty((200, 6))
    for k in range(200):
        local = np.random.default_rng(5000 + k)
        noisy_src = base + local.normal(scale=sigma_z, size=base.shape)
        noisy_tgt = target + local.normal(scale=sigma_z, size=target.shape)
        res = icp_register(noisy_src, noisy_tgt)
        samples[k, :3] = res.transform.translation
        samples[k, 3:] = Rotation.from_matrix(
            clean.transform.rotation.T @ res.transform.rotation).as_rotvec()
    mc_std = samples.std(axis=0, ddof=1)
    elapsed = time.perf_counter() - start

    ratios = closed_std / mc_std
    ok = bool((ratios > 1.0 / 3.0).all() and (ratios < 3.0).all() and elapsed < 60.0)
    verdict(5, "covariance calibrated against Monte-Carlo", ok,
            "ratios " + np.array2string(ratios, precision=2) + f", {elapsed:.1f}s")


def test_criterion_06_ransac_robustness(monkeypatch):
    from pcr.cloudio import CameraIntrinsics
    cam = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
    monkeypatch.setattr(relpose, "PIXEL_THRESHOLD", 1.0)
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed + 1000)
        matches, rot, tdir, _ = two_view_scene(rng, n=200, pixel_noise=0.25,
                                               outliers=0.3)
        monkeypatch.setattr(relpose, "SEED", seed)
        try:
            pose = ransac_relative_pose(matches, cam, cam)
        except Exception:
            continue
        rot_err = np.degrees(rotation_angle_between(pose.transform.rotation, rot))
        dir_err = np.degrees(np.arccos(np.clip(abs(pose.transform.translation @ tdir), -1, 1)))
        hits += rot_err < 1.0 and dir_err < 2.0
    verdict(6, "RANSAC with 30% outliers at 1 px threshold", hits >= 48,
            f"{hits}/50 seeds")


def test_criterion_07_icp_exactness():
    hits = 0
    monotone_all = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(500, 3))
        axis = rng.normal(size=3)
        rot = rodrigues(axis, np.deg2rad(rng.uniform(1.0, 20.0)))
        diag = bounds(pts).diagonal_length()
        tdir = rng.normal(size=3)
        tdir /= np.linalg.norm(tdir)
        shift = rng.uniform(0.0, 0.1) * diag * tdir
        res = icp_register(pts, pts @ rot.T + shift)
        rot_ok = rotation_angle_between(res.transform.rotation, rot) < 1e-6
        trans_ok = np.abs(res.transform.translation - shift).max() < 1e-6
        monotone = bool((np.diff(res.rms_trace) <= 1e-12).all())
        monotone_all &= monotone
        hits += rot_ok and trans_ok and monotone
    verdict(7, "ICP exact recovery and monotone RMS trace",
            hits == 50 and monotone_all, f"{hits}/50 seeds")


def add_strays(points, rng, share=0.02):
    """A copy of ``points`` with ``share`` of them moved 30-50 m away from
    where they were, each in a random direction: far outdoor returns in a
    keyframe map."""
    points = points.copy()
    idx = rng.choice(len(points), size=round(share * len(points)), replace=False)
    directions = rng.normal(size=(idx.size, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points[idx] += rng.uniform(30.0, 50.0, size=(idx.size, 1)) * directions
    return points


def test_criterion_08_stray_points():
    # 2% of each cloud 30-50 m away: ICP's median trim drops the stray pairs,
    # so every scene stays within criterion 01's rotation and translation
    # tolerances (the clean target's diagonal)
    hits = 0
    worst_rot = worst_trans = 0.0
    for seed in range(20):
        spec = SynthSpec(scale=1.0, rotation_deg=5.0, points=2000,
                         outlier_fraction=0.3, seed=seed)
        scene = build_scene(spec)
        target_diag = bounds(scene.target.points).diagonal_length()
        rng = np.random.default_rng(seed)
        source = add_strays(scene.source.points, rng)
        target = add_strays(scene.target.points, rng)
        report = register(source, target, use_scale=False)
        truth = scene.ground_truth
        rot = np.degrees(rotation_angle_between(report.final_transform.rotation,
                                                truth.rotation))
        trans = np.linalg.norm(report.final_transform.translation
                               - truth.translation) / target_diag
        worst_rot, worst_trans = max(worst_rot, rot), max(worst_trans, trans)
        hits += rot < 0.5 and trans < 0.01
    verdict(8, "registration with 2% stray points", hits == 20,
            f"{hits}/20 seeds, worst rotation {worst_rot:.3f} deg, "
            f"translation {worst_trans:.1e} of the diagonal")


def test_criterion_09_pipeline_determinism(tmp_path):
    spec = SynthSpec(scale=2.5, rotation_deg=15.0, points=2000, noise=0.005,
                     outlier_fraction=0.3, match_count=200, seed=7)
    scene = tmp_path / "scene"
    paths = generate_synthetic(spec, scene)
    args = ["register",
            "--source", paths["source"], "--target", paths["target"],
            "--matches", paths["matches"],
            "--intrinsics-source", paths["intrinsics_source"],
            "--intrinsics-target", paths["intrinsics_target"]]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert cli.main(args + ["--out", str(r1)]) == 0
    assert cli.main(args + ["--out", str(r2)]) == 0
    identical = r1.read_bytes() == r2.read_bytes()
    verdict(9, "byte-identical reports for identical inputs", identical)


def test_criterion_10_information_matrix_consistency(rng):
    ok = True
    # random well-conditioned SPD covariances, none near the singularity floor
    for _ in range(20):
        m = rng.normal(size=(6, 6))
        cov = m @ m.T + 0.1 * np.eye(6)
        floor = 1e-12 * np.trace(cov)
        assert np.linalg.eigvalsh(cov).min() > floor  # above the floor
        info = information_matrix(cov)
        ok &= np.abs(info @ cov - np.eye(6)).max() < 1e-6
    # and the pipeline's own output
    spec = SynthSpec(points=800, match_count=100, outlier_fraction=0.2, seed=4)
    report = register_scene(build_scene(spec))
    floor = 1e-12 * np.trace(report.covariance)
    assert np.linalg.eigvalsh(report.covariance).min() > floor
    ok &= np.abs(report.information @ report.covariance - np.eye(6)).max() < 1e-6
    verdict(10, "information x covariance = identity", bool(ok))
