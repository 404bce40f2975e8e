"""Hot numeric kernels, numpy/python only.

The Moebius sphere action and RK4 shooting are vectorized numpy.  The
tridiagonal solve is a scalar loop on Python floats, reading and writing
1-D float64 arrays through memoryviews, because numpy-scalar indexing
dominated it.  Conjugate-gradient descent on the quadratic form,
preconditioned by the inverse of its Hessian diagonal (Jacobi), is a loop
of whole-array steps into buffers allocated once; a non-positive
diagonal entry ends it unconverged without a step.

``rk4_shoot`` and ``gd_quadratic`` ignore trailing arguments:
``perfbench/micro.py`` still passes the retired floor and cap, and mode
and fixed step, by position.

Contract: array inputs are 1-D float64 (a memoryview rejects
``longdouble``), and the Thomas systems are symmetric positive definite,
as ``variational._interval_coefficients`` guarantees for every caller.
A zero Thomas pivot raises ``ZeroDivisionError``, where numpy scalars
returned ``inf`` or ``nan``.
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
# RK4 shooting for the radial Euler-Lagrange equation on a uniform step
# grid.  In (K, P) = (log H, H'/H) the equation is the linear
#   K' = P,  P' = -2 P / t,
# so one RK4 step is P <- m_k P, K <- K + c_k P, with m_k and c_k the
# four stages evaluated at P = 1.  A sweep is one cumprod, one cumsum
# and one exp, and the rise log H - log h0 is linear in the slope.  The
# sweep is returned as computed; a step that leaves the float range
# shows as 0, inf or nan.


def rk4_shoot(r, R, h0, slope, n_steps, *_):
    dt = (R - r) / n_steps
    hdt = 0.5 * dt
    with np.errstate(all="ignore"):
        t = r + np.arange(n_steps) * dt
        t2 = t + hdt
        a1 = -2.0 / t
        p2 = 1.0 + hdt * a1
        a2 = -2.0 * p2 / t2
        p3 = 1.0 + hdt * a2
        a3 = -2.0 * p3 / t2
        p4 = 1.0 + dt * a3
        a4 = -2.0 * p4 / (t + dt)
        c = dt * (1.0 + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
        m = 1.0 + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        p = np.cumprod(np.concatenate(([slope / h0], m[:-1])))
        rise = np.concatenate(([0.0], np.cumsum(c * p)))
        return h0 * np.exp(rise)


# ---------------------------------------------------------------------------
# Tridiagonal (Thomas) solve.  Row i reads
#   lower[i] * x[i-1] + diag[i] * x[i] + upper[i] * x[i+1] = rhs[i]
# with lower[0] and upper[-1] ignored.  The four inputs are 1-D float64
# arrays (strided views are fine).  The systems here are SPD and
# diagonally dominant, so no pivoting is needed and no pivot is zero; a
# zero pivot raises ZeroDivisionError.  The back substitution overwrites
# the forward-sweep buffer, which is returned.  It is allocated first, so
# the scratch buffer freed on return lies above it and leaves no hole
# below a live array (peak RSS of the n = 1e5 solves rose without that).


def thomas_solve(lower, diag, upper, rhs):
    n = diag.shape[0]
    dp = np.empty(n)
    cp = np.empty(n)
    lo, dg, up, rh = (memoryview(v) for v in (lower, diag, upper, rhs))
    c, d = memoryview(cp), memoryview(dp)
    beta = dg[0]
    ci = up[0] / beta
    di = rh[0] / beta
    c[0] = ci
    d[0] = di
    for i in range(1, n):
        li = lo[i]
        beta = dg[i] - li * ci
        ci = up[i] / beta  # cp[n - 1] is never read
        di = (rh[i] - li * di) / beta
        c[i] = ci
        d[i] = di
    x = di
    for i in range(n - 2, -1, -1):
        x = d[i] - c[i] * x
        d[i] = x
    return dp


# ---------------------------------------------------------------------------
# Jacobi-preconditioned conjugate-gradient descent on the discrete
# quadratic form
#   Q(k) = sum_i a[i] * (k[i+1] - k[i])^2
# over interior nodes with fixed endpoints.  The gradient of Q at k,
# 2 (flux[:-1] - flux[1:]) with flux = a * diff(k), is linear in k, so
# the same formula applied to a direction padded with zero ends is the
# Hessian product.  The preconditioner is the Hessian diagonal
# 2 (a[:-1] + a[1:]): each step scales the gradient by its inverse,
# z = g / diag, takes one Hessian product and the exact line search along
# the direction, and updates the gradient recursively.  The scaled
# gradient z has the units of k, so the run is unchanged, bit for bit,
# when a and tol are scaled by a power of two: the scale of a_i ~ t^2 / dt
# sets neither the step lengths nor the iteration count.
# Convergence means a gradient recomputed from k has max-norm at most
# tol before the iteration budget runs out; when only the recursive one
# does, descent restarts from the recomputed gradient.  The gradient is
# checked before each step, so an optimal initial guess converges at
# iteration zero.  A direction of non-positive curvature, which needs
# some a[i] <= 0, ends the run unconverged without a step; so does a
# diagonal entry a[i] + a[i+1] <= 0, before the preconditioner divides
# by it.  ``k`` (1-D float64) is updated in place; the work arrays are
# allocated once and filled by ``out=`` ufuncs.


def _form_gradient(a, x, flux, out):
    """Gradient of ``Q`` at ``x`` (length ``n + 1``) into ``out``."""
    np.subtract(x[1:], x[:-1], out=flux)
    flux *= a
    np.subtract(flux[:-1], flux[1:], out=out)
    out *= 2.0


def gd_quadratic(a, k, max_iter, tol, *_):
    n = a.shape[0]
    flux = np.empty(n)
    g = np.empty(n - 1)
    z = np.empty(n - 1)
    hp = np.empty(n - 1)
    tmp = np.empty(n - 1)
    padded = np.zeros(n + 1)
    p = padded[1:-1]
    interior = k[1:-1]
    _form_gradient(a, k, flux, g)
    # the inverse diagonal 1 / (2 (a[i] + a[i+1])) as 0.25 over the mean
    # of a[i] and a[i+1]: the same bits for normal floats, and the mean
    # cannot overflow
    dinv = a[:-1] * 0.5
    dinv += a[1:] * 0.5
    positive = dinv.min() > 0.0
    if positive:
        np.divide(0.25, dinv, out=dinv)
    fresh = True   # g was recomputed from k, not updated
    iters = 0
    converged = False
    while True:
        if max(g.max(), -g.min()) <= tol:
            if fresh:
                converged = True
                break
            _form_gradient(a, k, flux, g)
            fresh = True
            continue
        if iters >= max_iter or not positive:
            break
        np.multiply(g, dinv, out=z)
        gz = float(g @ z)
        if fresh:
            np.negative(z, out=p)
        else:
            p *= gz / gz_old
            p -= z
        _form_gradient(a, padded, flux, hp)
        php = float(p @ hp)
        if not php > 0.0:
            break
        alpha = gz / php
        np.multiply(p, alpha, out=tmp)
        interior += tmp
        np.multiply(hp, alpha, out=tmp)
        g += tmp
        gz_old = gz
        fresh = False
        iters += 1
    return iters, converged


def warm_up():
    """Return :data:`BACKEND`; kept for callers, as there is nothing to compile."""
    return BACKEND
