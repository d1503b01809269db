"""Hot per-pair numeric loops, JIT-compiled with numba when available.

Set ``PCR_DISABLE_NUMBA=1`` in the environment to force the plain-Python
fallback path (same functions, undecorated). The fallback is also selected
automatically when numba is not importable. ``benchmarks/bench_kernels.py``
times both paths against each other.
"""

import os

import numpy as np

NUMBA_ENABLED = False
if os.environ.get("PCR_DISABLE_NUMBA", "").lower() not in ("1", "true", "yes"):
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - depends on environment
        pass


def _jit(func):
    if NUMBA_ENABLED:
        return _njit(cache=True)(func)
    return func


def _py_hessian_xx_accum(pts_p, pts_q, rot, trans, drot, ddrot):
    # Accumulates the 6x6 second derivative of sum_i |R p_i + t - q_i|^2
    # over pose parameters (tx, ty, tz, roll, pitch, yaw). drot[j] and
    # ddrot[j, k] hold the first and second derivatives of R w.r.t. the
    # j-th (and k-th) angle.
    n = pts_p.shape[0]
    out = np.zeros((6, 6))
    dg = np.zeros((3, 6))
    for a in range(3):
        dg[a, a] = 1.0
    for i in range(n):
        p0 = pts_p[i, 0]
        p1 = pts_p[i, 1]
        p2 = pts_p[i, 2]
        g = np.zeros(3)
        for a in range(3):
            g[a] = (rot[a, 0] * p0 + rot[a, 1] * p1 + rot[a, 2] * p2
                    + trans[a] - pts_q[i, a])
        for j in range(3):
            for a in range(3):
                dg[a, 3 + j] = (drot[j, a, 0] * p0 + drot[j, a, 1] * p1
                                + drot[j, a, 2] * p2)
        for a in range(6):
            for b in range(6):
                acc = 0.0
                for c in range(3):
                    acc += dg[c, a] * dg[c, b]
                out[a, b] += 2.0 * acc
        for j in range(3):
            for k in range(3):
                acc = 0.0
                for c in range(3):
                    acc += g[c] * (ddrot[j, k, c, 0] * p0
                                   + ddrot[j, k, c, 1] * p1
                                   + ddrot[j, k, c, 2] * p2)
                out[3 + j, 3 + k] += 2.0 * acc
    return out


def _py_hessian_zx_accum(pts_p, pts_q, rot, trans, drot):
    # Mixed second derivative d2J/dz dx, with z_i = (P_i, Q_i) stacked.
    # Output column block i (6 wide) is [d2J_i/dP_i dx | d2J_i/dQ_i dx].
    n = pts_p.shape[0]
    out = np.zeros((6, 6 * n))
    dg = np.zeros((3, 6))
    for a in range(3):
        dg[a, a] = 1.0
    for i in range(n):
        p0 = pts_p[i, 0]
        p1 = pts_p[i, 1]
        p2 = pts_p[i, 2]
        g = np.zeros(3)
        for a in range(3):
            g[a] = (rot[a, 0] * p0 + rot[a, 1] * p1 + rot[a, 2] * p2
                    + trans[a] - pts_q[i, a])
        for j in range(3):
            for a in range(3):
                dg[a, 3 + j] = (drot[j, a, 0] * p0 + drot[j, a, 1] * p1
                                + drot[j, a, 2] * p2)
        col = 6 * i
        for a in range(6):
            for m in range(3):
                acc = 0.0
                for c in range(3):
                    acc += dg[c, a] * rot[c, m]
                out[a, col + m] += 2.0 * acc
                out[a, col + 3 + m] += -2.0 * dg[m, a]
        for j in range(3):
            for m in range(3):
                acc = 0.0
                for c in range(3):
                    acc += g[c] * drot[j, c, m]
                out[3 + j, col + m] += 2.0 * acc
    return out


def _py_epipolar_residuals(ematrix, rays_s, rays_t):
    # Angular residual 1 - cos(angle between the target ray and its
    # projection onto the epipolar plane spanned by E @ ray_s).
    n = rays_s.shape[0]
    out = np.empty(n)
    for i in range(n):
        n0 = (ematrix[0, 0] * rays_s[i, 0] + ematrix[0, 1] * rays_s[i, 1]
              + ematrix[0, 2] * rays_s[i, 2])
        n1 = (ematrix[1, 0] * rays_s[i, 0] + ematrix[1, 1] * rays_s[i, 1]
              + ematrix[1, 2] * rays_s[i, 2])
        n2 = (ematrix[2, 0] * rays_s[i, 0] + ematrix[2, 1] * rays_s[i, 1]
              + ematrix[2, 2] * rays_s[i, 2])
        norm = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
        if norm < 1e-300:
            # Ray through the epipole: any target direction is consistent.
            out[i] = 0.0
            continue
        u = (rays_t[i, 0] * n0 + rays_t[i, 1] * n1 + rays_t[i, 2] * n2) / norm
        if u > 1.0:
            u = 1.0
        elif u < -1.0:
            u = -1.0
        out[i] = 1.0 - np.sqrt(1.0 - u * u)
    return out


hessian_xx_accum = _jit(_py_hessian_xx_accum)
hessian_zx_accum = _jit(_py_hessian_zx_accum)
epipolar_residuals = _jit(_py_epipolar_residuals)
