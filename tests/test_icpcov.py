import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pcr.errors import DegenerateGeometryError
from pcr.geom import RigidTransform, rotation_about_axis, umeyama_align
from pcr.icp import icp_register
from pcr.icpcov import (CovarianceResult, covariance, hessian_xx, hessian_zx,
                        information_matrix, pair_sigma)
from pcr.synth import SynthSpec, build_scene

from conftest import random_rotation, rodrigues

# [e_k]x, built from the cross product: [e_k]x @ w == np.cross(e_k, w).
GENERATORS = np.array([np.cross(axis, np.eye(3)).T for axis in np.eye(3)])


def objective_value(delta, pts_p, pts_q, pose):
    """Independent evaluation of J at the perturbation delta = (dt, dtheta)
    of ``pose``, (R exp([dtheta]x), t + dt), for the finite-difference
    oracles."""
    rot = pose.rotation @ Rotation.from_rotvec(delta[3:]).as_matrix()
    diff = pts_p @ rot.T + pose.translation + delta[:3] - pts_q
    return float((diff * diff).sum())


def fd_hessian_xx(pts_p, pts_q, pose, step=1e-5):
    out = np.empty((6, 6))
    for a in range(6):
        for b in range(6):
            xa = np.zeros(6)
            xa[a] = step
            xb = np.zeros(6)
            xb[b] = step
            out[a, b] = (
                objective_value(xa + xb, pts_p, pts_q, pose)
                - objective_value(xa - xb, pts_p, pts_q, pose)
                - objective_value(-xa + xb, pts_p, pts_q, pose)
                + objective_value(-xa - xb, pts_p, pts_q, pose)
            ) / (4.0 * step * step)
    return out


def fd_hessian_zx(pts_p, pts_q, pose, step_x=1e-5, step_z=1e-6):
    n = pts_p.shape[0]
    out = np.empty((6, 6 * n))
    for i in range(n):
        for m in range(6):
            pp = pts_p[i:i + 1].copy()
            qq = pts_q[i:i + 1].copy()
            for a in range(6):
                xa = np.zeros(6)
                xa[a] = step_x
                vals = []
                for sx, sz in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    p2 = pp.copy()
                    q2 = qq.copy()
                    if m < 3:
                        p2[0, m] += sz * step_z
                    else:
                        q2[0, m - 3] += sz * step_z
                    vals.append(objective_value(sx * xa, p2, q2, pose))
                out[a, 6 * i + m] = (vals[0] - vals[1] - vals[2] + vals[3]) \
                    / (4.0 * step_x * step_z)
    return out


def tangent_derivatives(rot):
    """First and second derivatives of R exp([dtheta]x) at dtheta = 0."""
    pairs = np.array([[gj @ gk + gk @ gj for gk in GENERATORS] for gj in GENERATORS])
    return rot @ GENERATORS, 0.5 * (rot @ pairs)


def euler_derivatives(roll, pitch, yaw):
    """R, dR/dangle (3,3,3), d2R/dangle2 (3,3,3,3) for the ZYX Euler
    composition R = Rz(yaw) Ry(pitch) Rx(roll), the coordinates the
    covariance was once taken in; an oracle only.

    Each factor is exp(angle [e_k]x), so differentiating by angle k swaps
    factor R_k for R_k [e_k]x (twice over for a second derivative by the
    same angle)."""
    factors = [(r, r @ g, r @ g @ g) for r, g in
               zip((rodrigues(axis, angle) for axis, angle
                    in zip(np.eye(3), (roll, pitch, yaw))), GENERATORS)]

    def term(*angles):
        x, y, z = (factors[k][angles.count(k)] for k in range(3))
        return z @ y @ x

    rot = term()
    drot = np.array([term(j) for j in range(3)])
    ddrot = np.array([[term(j, k) for k in range(3)] for j in range(3)])
    return rot, drot, ddrot


def per_pair_sums(pts_p, pts_q, rot, trans, drot, ddrot):
    """Pair-by-pair H = sum_i d2J_i/dx2 and S = sum_i B_i B_i^T, with
    B_i = d2J_i/dx d(P_i, Q_i), for J_i = |R(x) p_i + t + dt - q_i|^2 given
    the rotation's derivatives at x: the reference for the moment form."""
    hxx = np.zeros((6, 6))
    spread = np.zeros((6, 6))
    for p, q in zip(pts_p, pts_q):
        g = rot @ p + trans - q
        dg = np.column_stack([np.eye(3), (drot @ p).T])
        hxx += 2.0 * dg.T @ dg
        hxx[3:, 3:] += 2.0 * (ddrot @ p) @ g
        block = np.empty((6, 6))
        block[:, :3] = 2.0 * dg.T @ rot
        block[3:, :3] += 2.0 * drot.transpose(0, 2, 1) @ g
        block[:, 3:] = -2.0 * dg.T
        spread += block @ block.T
    return hxx, spread


def per_pair_hessian_xx(pts_p, pts_q, pose):
    return per_pair_sums(pts_p, pts_q, pose.rotation, pose.translation,
                         *tangent_derivatives(pose.rotation))[0]


def scene_fit(noise, seed, points=2000):
    """Final ICP pairs, pose and ground truth of an s = 1, 5 degree scene,
    with ICP started at the truth."""
    scene = build_scene(SynthSpec(scale=1.0, rotation_deg=5.0, points=points,
                                  noise=noise, seed=seed))
    src, tgt = scene.source.points, scene.target.points
    res = icp_register(src, tgt, init=scene.ground_truth.rigid)
    return src[res.source_indices], tgt[res.theta], res.transform, scene.ground_truth.rigid


def nees(pose, truth, information):
    """Normalised estimation error squared of ``pose`` against ``truth``, in
    the tangent coordinates of the covariance: truth is pose perturbed by
    (dt, dtheta)."""
    error = np.concatenate([
        truth.translation - pose.translation,
        Rotation.from_matrix(pose.rotation.T @ truth.rotation).as_rotvec()])
    return float(error @ information @ error)


def random_instance(rng, n=20):
    pts_p = rng.normal(size=(n, 3)) * 2.0
    pose = RigidTransform(random_rotation(rng), rng.normal(size=3))
    pts_q = pose.apply(pts_p) + rng.normal(scale=0.05, size=(n, 3))
    return pts_p, pts_q, pose


class TestHessianXX:
    def test_translation_block_is_2n_identity(self, rng):
        for n in (3, 17, 80):
            pts_p, pts_q, pose = random_instance(rng, n)
            h = hessian_xx(pts_p, pts_q, pose)
            assert np.allclose(h[:3, :3], 2.0 * n * np.eye(3), atol=1e-12)

    def test_matches_per_pair_sum(self, rng):
        # the moment form is exact algebra, so it agrees with the plain sum to
        # rounding, also with every coordinate far from the origin
        for offset in (0.0, 100.0):
            for _ in range(5):
                pts_p, pts_q, pose = random_instance(rng, 50)
                pts_p, pts_q = pts_p + offset, pts_q + offset
                h = hessian_xx(pts_p, pts_q, pose)
                ref = per_pair_hessian_xx(pts_p, pts_q, pose)
                assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_point_on_yaw_axis_contributes_nothing(self):
        # a pose turned about z, single pair with P on the z axis: turning
        # it further about the body z axis does nothing, so the thz-thz
        # derivative vanishes
        pose = RigidTransform(rotation_about_axis([0.0, 0.0, 1.0], 0.4), np.zeros(3))
        p = np.array([[0.0, 0.0, 2.0]])
        q = np.array([[0.3, -0.1, 2.0]])
        h = hessian_xx(p, q, pose)
        assert h[5, 5] == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_yaw_yaw_hand_value(self):
        # at the identity with P=(1,0,0), Q=0: J(thz) = |exp(thz [e_z]x) P|^2
        # = 1, so the thz-thz second derivative is exactly 0; with Q=P,
        # J = 2 - 2 cos(thz) and it is 2.
        p = np.array([[1.0, 0.0, 0.0]])
        pose = RigidTransform.identity()
        h0 = hessian_xx(p, np.zeros((1, 3)), pose)
        assert h0[5, 5] == pytest.approx(0.0, abs=1e-12)
        h1 = hessian_xx(p, p, pose)
        assert h1[5, 5] == pytest.approx(2.0, abs=1e-12)

    def test_quarter_turn_about_y_is_regular(self, rng):
        # a quarter turn about y, where ZYX Euler angles lock: on exactly
        # aligned pairs the Hessian is the identity pose's with its
        # translation rows turned into the target frame, H = A H0 A^T with
        # A = diag(R, I), and as well conditioned
        pts = rng.uniform(-1, 1, size=(50, 3))
        pose = RigidTransform(rotation_about_axis([0.0, 1.0, 0.0], np.pi / 2.0),
                              [0.3, -0.2, 0.1])
        h = hessian_xx(pts, pose.apply(pts), pose)
        h0 = hessian_xx(pts, pts, RigidTransform.identity())
        turn = np.eye(6)
        turn[:3, :3] = pose.rotation
        assert np.allclose(h, turn @ h0 @ turn.T, rtol=0, atol=1e-12 * np.abs(h0).max())
        assert np.linalg.cond(h) == pytest.approx(np.linalg.cond(h0), rel=1e-9)


class TestHessianZX:
    def test_translation_rows_q_block(self, rng):
        pts_p, pts_q, pose = random_instance(rng, 7)
        h = hessian_zx(pts_p, pts_q, pose)
        for i in range(7):
            q_block = h[:3, 6 * i + 3:6 * i + 6]
            assert np.allclose(q_block, -2.0 * np.eye(3), atol=1e-12)

    def test_translation_rows_cancel_at_identity_rotation(self, rng):
        # pure-translation optimum: perturbing P_i and Q_i identically must
        # leave the translation gradient unchanged, so the P and Q blocks of
        # the translation rows sum to zero
        pts_p = rng.normal(size=(9, 3))
        shift = np.array([0.4, -0.1, 0.25])
        pts_q = pts_p + shift
        h = hessian_zx(pts_p, pts_q, RigidTransform(np.eye(3), shift))
        for i in range(9):
            p_block = h[:3, 6 * i:6 * i + 3]
            q_block = h[:3, 6 * i + 3:6 * i + 6]
            assert np.allclose(p_block + q_block, 0.0, atol=1e-12)


class TestCovariance:
    def converged_instance(self, rng, n=200, sigma=0.01, offset=0.0):
        pts_p = rng.uniform(-1, 1, size=(n, 3))
        rot = rodrigues([0.3, 1.0, -0.2], 0.15)
        shift = np.array([0.2, -0.1, 0.3])
        pts_q = pts_p @ rot.T + shift
        pts_p, pts_q = pts_p + offset, pts_q + offset
        res = icp_register(pts_p, pts_q)
        return pts_p[res.source_indices], pts_q[res.theta], res.transform

    def test_sigma_scaling_is_quadratic(self, rng):
        p, q, pose = self.converged_instance(rng)
        a = covariance(p, q, pose, sigma_z=0.01)
        b = covariance(p, q, pose, sigma_z=0.03)
        assert np.allclose(b.cov_x, 9.0 * a.cov_x, rtol=1e-9)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, np.nan, np.inf, 1e200, 1e-200])
    def test_sigma_without_positive_finite_square_refused(self, rng, sigma):
        # 1e200 squares to inf and 1e-200 to 0: no usable variance either
        pts = rng.uniform(-1, 1, size=(20, 3))
        with pytest.raises(ValueError, match="sigma_z"):
            covariance(pts, pts, RigidTransform.identity(), sigma_z=sigma)

    def test_underflowing_covariance_refused_without_warning(self):
        # sigma_z^2 = 1e-320 is a positive subnormal, so sigma_z is valid,
        # but the covariance underflows and its inverse would overflow
        p, q, pose, _ = scene_fit(0.005, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGeometryError, match="covariance is singular"):
                covariance(p, q, pose, sigma_z=1e-160)

    def test_collinear_pairs_singular(self):
        t = np.linspace(0.0, 1.0, 12)
        pts = np.outer(t, [1.0, 1.0, 1.0])
        with pytest.raises(DegenerateGeometryError):
            covariance(pts, pts, RigidTransform.identity(), sigma_z=0.01)

    def test_covariance_shrinks_with_more_pairs(self, rng):
        traces = []
        for n in (250, 500, 1000):
            local = np.random.default_rng(5)
            pts_p = local.uniform(-1, 1, size=(n, 3))
            out = covariance(pts_p, pts_p, RigidTransform.identity(), sigma_z=0.01)
            traces.append(np.trace(out.cov_x))
        assert traces[0] / traces[1] == pytest.approx(2.0, rel=0.2)
        assert traces[1] / traces[2] == pytest.approx(2.0, rel=0.2)

    def test_translation_block_matches_mean_estimator(self, rng):
        # at identity the translation estimate is the mean of q - p, whose
        # covariance is 2 sigma^2 / n; exact once the cloud is symmetrized so
        # the finite-sample rotation-translation coupling vanishes
        n = 400
        pts = rng.uniform(-1, 1, size=(n, 3))
        out = covariance(pts, pts, RigidTransform.identity(), sigma_z=0.02)
        assert np.allclose(np.diag(out.cov_x)[:3], 2.0 * 0.02**2 / n, rtol=0.05)
        sym = np.vstack([pts, -pts])
        out = covariance(sym, sym, RigidTransform.identity(), sigma_z=0.02)
        assert np.allclose(np.diag(out.cov_x)[:3], 2.0 * 0.02**2 / (2 * n),
                           rtol=1e-12)

    def test_every_pair_used_deterministic(self, rng):
        # the symmetric cloud makes the translation block exactly the mean
        # estimator's 2 sigma^2 / n, so a subsample of the pairs would show
        half = rng.uniform(-1, 1, size=(1500, 3))
        pts = np.vstack([half, -half])
        n = len(pts)
        pose = RigidTransform.identity()
        a = covariance(pts, pts, pose, sigma_z=0.01)
        b = covariance(pts, pts, pose, sigma_z=0.01)
        assert np.allclose(np.diag(a.cov_x)[:3], 2.0 * 0.01**2 / n, rtol=1e-12)
        assert np.array_equal(a.cov_x, b.cov_x)

    def test_matches_explicit_mixed_derivative_form(self, rng):
        # the moment form equals sigma^2 A A^T with A = H^-1 d2J/dz dx built
        # pair by pair, also with every coordinate far from the origin
        p, q, pose = self.converged_instance(rng, offset=100.0)
        amat = np.linalg.solve(hessian_xx(p, q, pose), hessian_zx(p, q, pose))
        expected = 0.01**2 * (amat @ amat.T)
        out = covariance(p, q, pose, sigma_z=0.01)
        assert np.allclose(out.cov_x, expected, rtol=1e-8,
                           atol=1e-8 * np.abs(expected).max())

    def test_result_validated_psd_and_consistent(self, rng):
        p, q, pose = self.converged_instance(rng)
        out = covariance(p, q, pose, sigma_z=0.01)
        assert isinstance(out, CovarianceResult)
        eig = np.linalg.eigvalsh(out.cov_x)
        assert eig.min() >= -1e-12 * np.trace(out.cov_x)
        assert np.abs(out.information @ out.cov_x - np.eye(6)).max() < 1e-6

    @pytest.mark.parametrize("degrees", [15.0, 60.0, 89.5])
    def test_same_information_as_euler_coordinates(self, rng, degrees):
        # the tangent covariance is the ZYX Euler one mapped through the
        # Euler-rate Jacobian E (dtheta = E d(roll, pitch, yaw)): the same
        # information in new coordinates. Pitch near 90 deg makes the Euler
        # covariance near singular, not the tangent one.
        sigma = 0.01
        pts_p = rng.uniform(-1, 1, size=(200, 3))
        rot = rotation_about_axis([0.0, 1.0, 0.0], np.radians(degrees))
        pts_q = pts_p @ rot.T + [0.2, -0.1, 0.3] + rng.normal(scale=sigma, size=(200, 3))
        # the exact minimizer of J over these pairs
        pose = umeyama_align(pts_p, pts_q)
        yaw, pitch, roll = Rotation.from_matrix(pose.rotation).as_euler("ZYX")
        rot_e, drot, ddrot = euler_derivatives(roll, pitch, yaw)
        hxx, spread = per_pair_sums(pts_p, pts_q, rot_e, pose.translation, drot, ddrot)
        cov_euler = sigma**2 * np.linalg.solve(hxx, np.linalg.solve(hxx, spread).T)
        rates = np.eye(6)
        for j, body in enumerate(rot_e.T @ drot):
            rates[3:, 3 + j] = body[2, 1], body[0, 2], body[1, 0]
        expected = rates @ cov_euler @ rates.T
        out = covariance(pts_p, pts_q, pose, sigma_z=sigma)
        assert np.abs(out.cov_x - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_quarter_turn_is_the_identity_covariance_turned(self, rng):
        # the same pairs with the target turned a quarter about y: the
        # translation rows turn with the target frame, the body-frame
        # rotation block stays, and nothing locks
        pts = rng.uniform(-1, 1, size=(300, 3))
        pose = RigidTransform(rotation_about_axis([0.0, 1.0, 0.0], np.pi / 2.0),
                              [0.3, -0.2, 0.1])
        turned = covariance(pts, pose.apply(pts), pose, sigma_z=0.01).cov_x
        base = covariance(pts, pts, RigidTransform.identity(), sigma_z=0.01).cov_x
        turn = np.eye(6)
        turn[:3, :3] = pose.rotation
        expected = turn @ base @ turn.T
        assert np.abs(turned - expected).max() <= 1e-9 * np.abs(base).max()


class TestPairSigma:
    def test_exact_fit_refused(self, rng):
        pts = rng.uniform(-1, 1, size=(50, 3))
        pose = RigidTransform(np.eye(3), [0.5, 0.0, -0.25])
        with pytest.raises(DegenerateGeometryError, match="fit exactly"):
            pair_sigma(pts, pts + [0.5, 0.0, -0.25], pose)

    def test_too_few_pairs_refused(self, rng):
        pts = rng.uniform(-1, 1, size=(2, 3))
        with pytest.raises(DegenerateGeometryError, match="at least 3 pairs"):
            pair_sigma(pts, pts + 0.1, RigidTransform.identity())

    def test_recovers_target_noise(self, rng):
        # noise on q only, every residual coordinate has variance sigma^2;
        # at the least-squares pose RSS / (3N - 6) is its unbiased estimate
        sigma = 0.02
        pts_p = rng.uniform(-1, 1, size=(5000, 3))
        pose = RigidTransform(rotation_about_axis([0.3, 1.0, -0.2], 0.4), [0.2, -0.1, 0.3])
        pts_q = pose.apply(pts_p) + rng.normal(scale=sigma, size=pts_p.shape)
        fitted = pair_sigma(pts_p, pts_q, umeyama_align(pts_p, pts_q))
        assert fitted == pytest.approx(sigma, rel=0.03)

    @pytest.mark.parametrize("noise", [0.0025, 0.005, 0.01])
    def test_covariance_at_fitted_noise_is_consistent(self, noise):
        # the NEES of the ICP pose against the truth, weighted by the
        # information at the fitted noise, has a median within a factor of 2
        # of the chi-square(6) median 5.35 at every scene noise level; a fixed
        # sigma_z of 0.01 gave 0.79 at noise 0.0025 and 16.2 at 0.01
        values = []
        for seed in range(1000, 1030):
            p, q, pose, truth = scene_fit(noise, seed)
            info = covariance(p, q, pose, pair_sigma(p, q, pose)).information
            values.append(nees(pose, truth, info))
        assert 5.35 / 2 <= np.median(values) <= 5.35 * 2


class TestInformationMatrix:
    def test_identity(self):
        assert np.array_equal(information_matrix(np.eye(6)), np.eye(6))

    def test_diagonal(self):
        out = information_matrix(np.diag([4.0, 1, 1, 1, 1, 1]))
        assert np.allclose(out, np.diag([0.25, 1, 1, 1, 1, 1]), atol=1e-15)

    def test_random_spd_round_trip(self, rng):
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            spd = m @ m.T + 0.5 * np.eye(6)
            info = information_matrix(spd)
            assert np.abs(info @ spd - np.eye(6)).max() < 1e-9

    def test_rejects_asymmetric(self):
        m = np.eye(6)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            information_matrix(m)

    @pytest.mark.parametrize("mat", [
        np.full((6, 6), np.nan),
        np.diag([1.0, 1, 1, 1, 1, np.nan]),
        np.diag([1.0, 1, np.inf, 1, 1, 1]),
        np.diag([1.0, 1, 1, 1, -np.inf, 1]),
    ], ids=["all-nan", "one-nan", "inf", "-inf"])
    def test_refuses_non_finite(self, mat):
        # refused before the symmetry check, whose arithmetic would warn on
        # inf, and before the eigensolver, which fails on NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                information_matrix(mat)
        assert str(err.value) == "input matrix must be finite"

    @pytest.mark.parametrize("tiny", [1e-320, 1e-310])
    def test_overflowing_inverse_refused(self, tiny):
        # subnormal, or normal with a reciprocal beyond the largest float;
        # the suite turns numpy's overflow warnings into errors
        with pytest.raises(DegenerateGeometryError) as err:
            information_matrix(tiny * np.eye(6))
        assert str(err.value) == (f"covariance is singular: smallest eigenvalue "
                                  f"{tiny:.3e}, trace {6 * tiny:.3e}")

    def test_smallest_invertible_scale(self):
        info = information_matrix(1e-300 * np.eye(6))
        assert np.isfinite(info).all()
        assert info[0, 0] == pytest.approx(1e300, rel=1e-12)

    def test_refuses_singular(self):
        with pytest.raises(DegenerateGeometryError) as err:
            information_matrix(np.diag([1.0, 1, 1, 1, 1, 0.0]))
        assert str(err.value) == ("covariance is singular: smallest eigenvalue "
                                  "0.000e+00, trace 5.000e+00")

    def test_refuses_negative_eigenvalue(self):
        # symmetric, but not positive semi-definite
        q = rotation_about_axis([0.1, 0.2, 0.4], 0.46)
        cov = np.eye(6)
        cov[:3, :3] = q @ np.diag([2.0, 1.0, -1e-3]) @ q.T
        with pytest.raises(DegenerateGeometryError) as err:
            information_matrix(cov)
        assert str(err.value) == ("covariance is singular: smallest eigenvalue "
                                  "-1.000e-03, trace 5.999e+00")
