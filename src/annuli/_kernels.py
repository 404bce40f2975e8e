"""Hot numeric kernels.

The Moebius sphere action is vectorized numpy.  The sequential loops
(RK4 shooting, the tridiagonal solve, gradient descent) are compiled with
numba when it is installed; ``ANNULI_DISABLE_NUMBA=1`` forces their
numpy/python versions, which stay importable as ``*_numpy`` so tests can
compare the two backends.
"""
from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("ANNULI_DISABLE_NUMBA", "0").strip().lower()
NUMBA_DISABLED = _flag in ("1", "true", "yes", "on")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by ANNULI_DISABLE_NUMBA")
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"

_jit = {"cache": True, "fastmath": False}


# ---------------------------------------------------------------------------
# Moebius sphere action as a real Lorentz matrix (PSL(2, C) = SO+(3, 1)).
#
# The unit vector p is the null vector (1, p), i.e. the hermitian matrix
# X = sum_mu x_mu B_mu / 2 with B = (I, sigma_x, -sigma_y, sigma_z).  This
# basis gives p = (2 Re z1 conj z2, 2 Im z1 conj z2, |z1|^2 - |z2|^2) / s,
# s = |z1|^2 + |z2|^2, for the stereographic coordinate z1 / z2.  M acts
# by X -> M X M^H, i.e. by L = [[w0, w^T], [l, A]]: p -> (A p + l) /
# (w . p + w0) with stretch 1 / (w . p + w0).  L keeps null vectors future
# pointing, so the denominator is positive on the whole sphere.

_BASIS = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, 1j], [-1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def _lorentz(a, b, c, d):
    """``L[mu, nu] = Re tr(B_mu M B_nu M^H) / 2`` for ``M = [[a, b], [c, d]]``."""
    m = np.array([[a, b], [c, d]], dtype=complex)
    return 0.5 * np.einsum("mij,jk,nkl,il->mn", _BASIS, m, _BASIS, m.conj()).real


def mobius_apply_points(a, b, c, d, pts):
    lor = _lorentz(a, b, c, d)
    den = pts @ lor[0, 1:] + lor[0, 0]
    return (pts @ lor[1:, 1:].T + lor[1:, 0]) / den[..., None]


def conformal_stretch_points(a, b, c, d, pts):
    lor = _lorentz(a, b, c, d)
    return 1.0 / (pts @ lor[0, 1:] + lor[0, 0])


def mobius_pushforward(a, b, c, d, pts, vecs):
    """Derivative of the sphere action at ``pts`` along tangent ``vecs``."""
    lor = _lorentz(a, b, c, d)
    den = (pts @ lor[0, 1:] + lor[0, 0])[..., None]
    image = (pts @ lor[1:, 1:].T + lor[1:, 0]) / den
    return (vecs @ lor[1:, 1:].T - image * (vecs @ lor[0, 1:])[..., None]) / den


# ---------------------------------------------------------------------------
# RK4 shooting for the radial Euler-Lagrange equation
#   H'' = (t H'^2 - 2 H H') / (t H)
# on a uniform step grid.  Status: 0 integrated, -1 the profile crashed
# toward zero, +1 it blew past the overflow cap.


def _rk4_shoot_impl(r, R, h0, slope, n_steps, floor, cap):
    dt = (R - r) / n_steps
    out = np.empty(n_steps + 1)
    out[0] = h0
    H = h0
    P = slope
    status = 0
    for k in range(n_steps):
        t = r + k * dt
        t2 = t + 0.5 * dt
        t4 = t + dt
        H1 = H
        P1 = P
        if H1 <= floor:
            status = -1
            break
        a1 = (t * P1 * P1 - 2.0 * H1 * P1) / (t * H1)
        H2 = H + 0.5 * dt * P1
        P2 = P + 0.5 * dt * a1
        if H2 <= floor:
            status = -1
            break
        a2 = (t2 * P2 * P2 - 2.0 * H2 * P2) / (t2 * H2)
        H3 = H + 0.5 * dt * P2
        P3 = P + 0.5 * dt * a2
        if H3 <= floor:
            status = -1
            break
        a3 = (t2 * P3 * P3 - 2.0 * H3 * P3) / (t2 * H3)
        H4 = H + dt * P3
        P4 = P + dt * a3
        if H4 <= floor:
            status = -1
            break
        a4 = (t4 * P4 * P4 - 2.0 * H4 * P4) / (t4 * H4)
        H = H + dt * (P1 + 2.0 * P2 + 2.0 * P3 + P4) / 6.0
        P = P + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        if not np.isfinite(H) or H <= floor:
            status = -1
            break
        if H >= cap:
            status = 1
            break
        out[k + 1] = H
    if status != 0:
        for j in range(k + 1, n_steps + 1):
            out[j] = H if np.isfinite(H) else 0.0
    return out, status


# ---------------------------------------------------------------------------
# Tridiagonal (Thomas) solve.  Row i reads
#   lower[i] * x[i-1] + diag[i] * x[i] + upper[i] * x[i+1] = rhs[i]
# with lower[0] and upper[-1] ignored.  The systems here are SPD and
# diagonally dominant, so no pivoting is needed.


def _thomas_impl(lower, diag, upper, rhs):
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    x = np.empty(n)
    beta = diag[0]
    cp[0] = upper[0] / beta
    dp[0] = rhs[0] / beta
    for i in range(1, n):
        beta = diag[i] - lower[i] * cp[i - 1]
        if i < n - 1:
            cp[i] = upper[i] / beta
        else:
            cp[i] = 0.0
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / beta
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


# ---------------------------------------------------------------------------
# Gradient descent on the discrete quadratic form
#   Q(k) = sum_i a[i] * (k[i+1] - k[i])^2
# over interior nodes with fixed endpoints.  Step modes: 0 exact line
# search (closed form for a quadratic), 1 Barzilai-Borwein with an exact
# first step, 2 fixed step.  Convergence means the gradient max-norm
# dropped to tol before the iteration budget ran out; the gradient is
# checked before each step, so an optimal initial guess converges at
# iteration zero.


def _gd_quadratic_loop(a, k, max_iter, tol, mode, fixed_step):
    n = a.shape[0]
    g = np.empty(n - 1)
    g_old = np.zeros(n - 1)
    s = np.zeros(n - 1)
    iters = 0
    converged = False
    while True:
        gmax = 0.0
        for j in range(1, n):
            gj = 2.0 * (a[j - 1] * (k[j] - k[j - 1]) - a[j] * (k[j + 1] - k[j]))
            g[j - 1] = gj
            if abs(gj) > gmax:
                gmax = abs(gj)
        if gmax <= tol:
            converged = True
            break
        if iters >= max_iter:
            break
        if mode == 2:
            alpha = fixed_step
        else:
            bb = False
            if mode == 1 and iters > 0:
                ss = 0.0
                sy = 0.0
                for j in range(n - 1):
                    ss += s[j] * s[j]
                    sy += s[j] * (g[j] - g_old[j])
                if sy > 0.0:
                    alpha = ss / sy
                    bb = True
            if not bb:
                # exact step: curvature of Q along -g, with d padded by
                # the fixed zero boundary values
                gg = 0.0
                for j in range(n - 1):
                    gg += g[j] * g[j]
                curv = a[0] * g[0] * g[0] + a[n - 1] * g[n - 2] * g[n - 2]
                for i in range(1, n - 1):
                    dd = g[i] - g[i - 1]
                    curv += a[i] * dd * dd
                alpha = gg / (2.0 * curv)
        for j in range(n - 1):
            s[j] = -alpha * g[j]
            g_old[j] = g[j]
            k[j + 1] += s[j]
        iters += 1
    return iters, converged


def gd_quadratic_numpy(a, k, max_iter, tol, mode, fixed_step):
    iters = 0
    converged = False
    g_old = None
    s = None
    while True:
        dk = np.diff(k)
        g = 2.0 * (a[:-1] * dk[:-1] - a[1:] * dk[1:])
        if np.max(np.abs(g)) <= tol:
            converged = True
            break
        if iters >= max_iter:
            break
        if mode == 2:
            alpha = fixed_step
        else:
            alpha = None
            if mode == 1 and s is not None:
                y = g - g_old
                sy = float(s @ y)
                if sy > 0.0:
                    alpha = float(s @ s) / sy
            if alpha is None:
                pad = np.zeros(k.shape[0])
                pad[1:-1] = -g
                dd = np.diff(pad)
                alpha = float(g @ g) / (2.0 * float(a @ (dd * dd)))
        s = -alpha * g
        g_old = g
        k[1:-1] += s
        iters += 1
    return iters, converged


if HAVE_NUMBA:
    rk4_shoot_numba = _njit(**_jit)(_rk4_shoot_impl)
    thomas_solve_numba = _njit(**_jit)(_thomas_impl)
    gd_quadratic_numba = _njit(**_jit)(_gd_quadratic_loop)

    rk4_shoot = rk4_shoot_numba
    thomas_solve = thomas_solve_numba
    gd_quadratic = gd_quadratic_numba
else:
    rk4_shoot = _rk4_shoot_impl
    thomas_solve = _thomas_impl
    gd_quadratic = gd_quadratic_numpy

rk4_shoot_numpy = _rk4_shoot_impl
thomas_solve_numpy = _thomas_impl


def warm_up():
    """Trigger jit compilation of every kernel on tiny inputs.

    Harmless under the numpy backend.  Call this before timing anything.
    """
    rk4_shoot(1.0, 2.0, 1.0, 1.0, 8, 1e-12, 1e12)
    thomas_solve(
        np.array([0.0, -1.0, -1.0]),
        np.array([2.0, 2.0, 2.0]),
        np.array([-1.0, -1.0, 0.0]),
        np.array([1.0, 0.0, 1.0]),
    )
    gd_quadratic(np.ones(4), np.linspace(0.0, 1.0, 5), 10, 1e-12, 1, 0.0)
    return BACKEND
