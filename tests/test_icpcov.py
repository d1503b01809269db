import numpy as np
import pytest

from pcr.errors import DegenerateGeometryError, GimbalLockError
from pcr.geom import rotation_zyx
from pcr.icp import icp_register
from pcr.icpcov import (CovarianceResult, PoseParam, covariance, hessian_xx,
                        hessian_zx, information_matrix, rotation_derivatives)

from conftest import rodrigues


def objective_value(x, pts_p, pts_q):
    """Independent evaluation of J(x) for the finite-difference oracles."""
    rot = rotation_zyx(x[3], x[4], x[5])
    diff = pts_p @ rot.T + x[:3] - pts_q
    return float((diff * diff).sum())


def fd_hessian_xx(pts_p, pts_q, x, step=1e-5):
    out = np.empty((6, 6))
    for a in range(6):
        for b in range(6):
            xa = np.zeros(6)
            xa[a] = step
            xb = np.zeros(6)
            xb[b] = step
            out[a, b] = (
                objective_value(x + xa + xb, pts_p, pts_q)
                - objective_value(x + xa - xb, pts_p, pts_q)
                - objective_value(x - xa + xb, pts_p, pts_q)
                + objective_value(x - xa - xb, pts_p, pts_q)
            ) / (4.0 * step * step)
    return out


def fd_hessian_zx(pts_p, pts_q, x, step_x=1e-5, step_z=1e-6):
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
                    vals.append(objective_value(x + sx * xa, p2, q2))
                out[a, 6 * i + m] = (vals[0] - vals[1] - vals[2] + vals[3]) \
                    / (4.0 * step_x * step_z)
    return out


def per_pair_hessian_xx(pts_p, pts_q, x):
    """Pair-by-pair sum of the exact second derivative of J_i: the reference
    for the moment-matrix form."""
    rot, drot, ddrot = rotation_derivatives(*x[3:])
    out = np.zeros((6, 6))
    for p, q in zip(pts_p, pts_q):
        g = rot @ p + x[:3] - q
        dg = np.column_stack([np.eye(3), (drot @ p).T])
        out += 2.0 * dg.T @ dg
        out[3:, 3:] += 2.0 * (ddrot @ p) @ g
    return out


def random_instance(rng, n=20):
    pts_p = rng.normal(size=(n, 3)) * 2.0
    x = np.concatenate([
        rng.normal(size=3),
        rng.uniform([-np.pi / 2, -1.2, -np.pi / 2], [np.pi / 2, 1.2, np.pi / 2]),
    ])
    rot = rotation_zyx(x[3], x[4], x[5])
    pts_q = pts_p @ rot.T + x[:3] + rng.normal(scale=0.05, size=(n, 3))
    return pts_p, pts_q, x


class TestHessianXX:
    def test_translation_block_is_2n_identity(self, rng):
        for n in (3, 17, 80):
            pts_p, pts_q, x = random_instance(rng, n)
            h = hessian_xx(pts_p, pts_q, PoseParam(x))
            assert np.allclose(h[:3, :3], 2.0 * n * np.eye(3), atol=1e-12)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            pts_p, pts_q, x = random_instance(rng)
            h = hessian_xx(pts_p, pts_q, PoseParam(x))
            fd = fd_hessian_xx(pts_p, pts_q, x)
            worst = max(worst, np.abs(h - fd).max() / np.abs(h).max())
        assert worst < 1e-4

    def test_matches_per_pair_sum(self, rng):
        # the moment form is exact algebra, so it agrees with the plain sum to
        # rounding, also with every coordinate far from the origin
        for offset in (0.0, 100.0):
            for _ in range(5):
                pts_p, pts_q, x = random_instance(rng, 50)
                pts_p, pts_q = pts_p + offset, pts_q + offset
                h = hessian_xx(pts_p, pts_q, PoseParam(x))
                ref = per_pair_hessian_xx(pts_p, pts_q, x)
                assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_point_on_yaw_axis_contributes_nothing(self):
        # pure-yaw pose, single pair with P on the z axis: rotating it does
        # nothing, so every yaw derivative vanishes
        x = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.4])
        p = np.array([[0.0, 0.0, 2.0]])
        q = np.array([[0.3, -0.1, 2.0]])
        h = hessian_xx(p, q, PoseParam(x))
        assert h[5, 5] == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_yaw_yaw_hand_value(self):
        # at zero pose with P=(1,0,0), Q=0: J(yaw) = |Rz P - 0|^2 = 1,
        # so the yaw-yaw second derivative is exactly 0; with Q=P it is 2.
        p = np.array([[1.0, 0.0, 0.0]])
        x = PoseParam(np.zeros(6))
        h0 = hessian_xx(p, np.zeros((1, 3)), x)
        assert h0[5, 5] == pytest.approx(0.0, abs=1e-12)
        h1 = hessian_xx(p, p, x)
        assert h1[5, 5] == pytest.approx(2.0, abs=1e-12)

    def test_accumulation_is_additive_over_pairs(self, rng):
        pts_p, pts_q, x = random_instance(rng, 24)
        pose = PoseParam(x)
        whole = hessian_xx(pts_p, pts_q, pose)
        left = hessian_xx(pts_p[:11], pts_q[:11], pose)
        right = hessian_xx(pts_p[11:], pts_q[11:], pose)
        assert np.allclose(whole, left + right, rtol=1e-12, atol=1e-12)

    def test_gimbal_lock_rejected(self):
        x = np.zeros(6)
        x[4] = np.pi / 2.0
        with pytest.raises(GimbalLockError):
            PoseParam(x)


class TestHessianZX:
    def test_translation_rows_q_block(self, rng):
        pts_p, pts_q, x = random_instance(rng, 7)
        h = hessian_zx(pts_p, pts_q, PoseParam(x))
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
        x = PoseParam(np.concatenate([shift, np.zeros(3)]))
        h = hessian_zx(pts_p, pts_q, x)
        for i in range(9):
            p_block = h[:3, 6 * i:6 * i + 3]
            q_block = h[:3, 6 * i + 3:6 * i + 6]
            assert np.allclose(p_block + q_block, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            pts_p, pts_q, x = random_instance(rng, 8)
            h = hessian_zx(pts_p, pts_q, PoseParam(x))
            fd = fd_hessian_zx(pts_p, pts_q, x)
            worst = max(worst, np.abs(h - fd).max() / np.abs(h).max())
        assert worst < 1e-4


class TestCovariance:
    def converged_instance(self, rng, n=200, sigma=0.01, offset=0.0):
        pts_p = rng.uniform(-1, 1, size=(n, 3))
        rot = rodrigues([0.3, 1.0, -0.2], 0.15)
        shift = np.array([0.2, -0.1, 0.3])
        pts_q = pts_p @ rot.T + shift
        pts_p, pts_q = pts_p + offset, pts_q + offset
        res = icp_register(pts_p, pts_q)
        pose = PoseParam.from_rigid(res.transform)
        return pts_p[res.source_indices], pts_q[res.theta], pose

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
            covariance(pts, pts, PoseParam(np.zeros(6)), sigma_z=sigma)

    def test_collinear_pairs_singular(self):
        t = np.linspace(0.0, 1.0, 12)
        pts = np.outer(t, [1.0, 1.0, 1.0])
        with pytest.raises(DegenerateGeometryError):
            covariance(pts, pts, PoseParam(np.zeros(6)), sigma_z=0.01)

    def test_covariance_shrinks_with_more_pairs(self, rng):
        traces = []
        for n in (250, 500, 1000):
            local = np.random.default_rng(5)
            pts_p = local.uniform(-1, 1, size=(n, 3))
            pose = PoseParam(np.zeros(6))
            out = covariance(pts_p, pts_p, pose, sigma_z=0.01)
            traces.append(np.trace(out.cov_x))
        assert traces[0] / traces[1] == pytest.approx(2.0, rel=0.2)
        assert traces[1] / traces[2] == pytest.approx(2.0, rel=0.2)

    def test_translation_block_matches_mean_estimator(self, rng):
        # at identity the translation estimate is the mean of q - p, whose
        # covariance is 2 sigma^2 / n; exact once the cloud is symmetrized so
        # the finite-sample rotation-translation coupling vanishes
        n = 400
        pts = rng.uniform(-1, 1, size=(n, 3))
        out = covariance(pts, pts, PoseParam(np.zeros(6)), sigma_z=0.02)
        assert np.allclose(np.diag(out.cov_x)[:3], 2.0 * 0.02**2 / n, rtol=0.05)
        sym = np.vstack([pts, -pts])
        out = covariance(sym, sym, PoseParam(np.zeros(6)), sigma_z=0.02)
        assert np.allclose(np.diag(out.cov_x)[:3], 2.0 * 0.02**2 / (2 * n),
                           rtol=1e-12)

    def test_every_pair_used_deterministic(self, rng):
        # the symmetric cloud makes the translation block exactly the mean
        # estimator's 2 sigma^2 / n, so a subsample of the pairs would show
        half = rng.uniform(-1, 1, size=(1500, 3))
        pts = np.vstack([half, -half])
        n = len(pts)
        pose = PoseParam(np.zeros(6))
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
        q = rotation_zyx(0.1, 0.2, 0.4)
        cov = np.eye(6)
        cov[:3, :3] = q @ np.diag([2.0, 1.0, -1e-3]) @ q.T
        with pytest.raises(DegenerateGeometryError) as err:
            information_matrix(cov)
        assert str(err.value) == ("covariance is singular: smallest eigenvalue "
                                  "-1.000e-03, trace 5.999e+00")
