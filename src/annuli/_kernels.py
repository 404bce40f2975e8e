"""Hot numeric kernels, numpy/python only.

The Moebius sphere action is vectorized numpy; RK4 shooting, the
tridiagonal solve and gradient descent are plain loops.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"


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


def _image(lor, pts):
    """``(A p + l, w . p + w0)`` for each row ``p``, built in place."""
    den = pts @ lor[0, 1:]
    den += lor[0, 0]
    num = pts @ lor[1:, 1:].T
    num += lor[1:, 0]
    return num, den[:, None]


def mobius_apply_points(a, b, c, d, pts):
    num, den = _image(_lorentz(a, b, c, d), pts)
    num /= den
    return num


def conformal_stretch_points(a, b, c, d, pts):
    lor = _lorentz(a, b, c, d)
    return 1.0 / (pts @ lor[0, 1:] + lor[0, 0])


def mobius_pushforward(a, b, c, d, pts, vecs):
    """Derivative of the sphere action at ``pts`` along tangent ``vecs``."""
    lor = _lorentz(a, b, c, d)
    image, den = _image(lor, pts)
    image /= den
    image *= (vecs @ lor[0, 1:])[:, None]
    out = vecs @ lor[1:, 1:].T
    out -= image
    out /= den
    return out


# ---------------------------------------------------------------------------
# RK4 shooting for the radial Euler-Lagrange equation
#   H'' = (t H'^2 - 2 H H') / (t H)
# on a uniform step grid.  Status: 0 integrated, -1 the profile crashed
# toward zero, +1 it blew past the overflow cap.


def rk4_shoot(r, R, h0, slope, n_steps, floor, cap):
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
        out[k + 1:] = H if np.isfinite(H) else 0.0
    return out, status


# ---------------------------------------------------------------------------
# Tridiagonal (Thomas) solve.  Row i reads
#   lower[i] * x[i-1] + diag[i] * x[i] + upper[i] * x[i+1] = rhs[i]
# with lower[0] and upper[-1] ignored.  The systems here are SPD and
# diagonally dominant, so no pivoting is needed.


def thomas_solve(lower, diag, upper, rhs):
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    x = np.empty(n)
    beta = diag[0]
    cp[0] = upper[0] / beta
    dp[0] = rhs[0] / beta
    for i in range(1, n):
        beta = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / beta  # cp[n - 1] is never read
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


def gd_quadratic(a, k, max_iter, tol, mode, fixed_step):
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


def warm_up():
    """Return :data:`BACKEND`; kept for callers, as there is nothing to compile."""
    return BACKEND
