"""Hot numeric kernels, numpy/python only.

The Moebius sphere action and RK4 shooting are vectorized numpy.  The
tridiagonal solve is blocked: systems of at least 512 rows are split
into blocks of about sqrt(n / 40) rows, each followed by a separator
row; every elimination step runs as one numpy op across all blocks, and
only the small system in the separator values (plus a tail of fewer
rows than a block) is a scalar Thomas loop on Python floats through
memoryviews.  Smaller systems take that loop directly.
Conjugate-gradient descent on the quadratic form, preconditioned in the
hierarchical basis, is a loop of whole-array steps into buffers
allocated once; each basis level is one numpy step of the transform, and
a hat energy that is not positive and finite ends the run unconverged
without a step.

``rk4_shoot`` and ``gd_quadratic`` ignore trailing arguments:
``perfbench/micro.py`` still passes the retired floor and cap, and mode
and fixed step, by position.

Contract: array inputs are 1-D float64 (the tridiagonal solve raises
``NotImplementedError`` for another dtype), and the tridiagonal systems
are symmetric positive definite, as ``variational._interval_coefficients``
guarantees for every caller.  A zero pivot of the tridiagonal solve
raises ``ZeroDivisionError``, where numpy would return ``inf`` or
``nan``.
"""
from __future__ import annotations

import math

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
# Tridiagonal solve.  Row i reads
#   lower[i] * x[i-1] + diag[i] * x[i] + upper[i] * x[i+1] = rhs[i]
# with lower[0] and upper[-1] ignored.  The four inputs are 1-D float64
# arrays (strided views are fine); another dtype raises
# NotImplementedError.  The systems here are SPD and diagonally dominant,
# so no pivoting is needed and no pivot is zero; a zero pivot raises
# ZeroDivisionError.  The two n-sized buffers are allocated first, so the
# scratch buffer freed on return lies above the returned one and leaves no
# hole below a live array (peak RSS of the n = 1e5 solves rose without
# that); everything else the solve allocates is O(n / L).
#
# Below _BLOCKED_MIN rows the solve is the Thomas loop on Python floats,
# reading and writing through memoryviews, because numpy-scalar indexing
# dominated it.  Larger systems take the partition method (Wang 1981,
# ACM TOMS 7(2); the SPIKE solver of Polizzi and Sameh): with
# L = _block_length(n) and m = n // L, rows j L .. j L + L - 2 form block
# j and row j L + L - 1 is separator j; the last n - m L < L rows are the
# tail.  Every input is read through a [:m L].reshape(m, L) view, and each
# block pass is a Python loop over the L - 1 positions of a block with
# one numpy op across all m blocks per step:
#   1. top-down elimination of every block on its own, storing c and
#      1 / beta in the two buffers.  Running vectors follow three block
#      solutions: for the rhs (y), for a unit coupling to the left
#      separator (u) and for one to the right separator (v).  They give
#      the last rows directly, and the first rows as the back
#      substitution unrolled, x_0 = sum_i prod_{j<i} (-c_j) d_i, so no
#      second elimination is needed;
#   2. block j's solution is y - alpha_j s_{j-1} u - gamma_j s_j v, with
#      alpha_j and gamma_j the couplings of its first and last row, so
#      the separator rows, followed by the tail rows as they stand, form
#      a tridiagonal system of size m + n - m L, which the loop solves;
#   3. forward and back substitution of every block with its first and
#      last rhs entries corrected by the separator values, overwriting
#      the 1 / beta buffer in place.
# The partition method is stable for diagonally dominant systems.  Its
# pivots are those of the blocks and of the reduced system, not the
# loop's; a zero one raises on either route.
#
# Measured per solve on the SPD systems of minimize_reduced_energy, on a
# 2-core Xeon with numpy 2.4.6 and Python 3.11.7, whose speed drifts by
# tens of percent: the loop takes 0.34-0.55 us per row, and the fixed
# numpy-call cost of one block position is about 40 loop rows, so
# L = sqrt(n / 40) balances block positions against separator rows.  At
# n = 1e5 the blocked solve took 5-8 ms against 45-55 ms for the loop,
# at n = 1000 about half the loop's time; the two meet between 300 and
# 500 rows.

_BLOCKED_MIN = 512


def _block_length(n):
    """Rows per block plus one separator row, for ``n >= _BLOCKED_MIN``."""
    return math.isqrt(n // 40)


def _thomas_loop(lower, diag, upper, rhs):
    """The Thomas algorithm; the back substitution overwrites the
    forward-sweep buffer, which is returned."""
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


def _require_pivots(beta):
    if not beta.all():
        raise ZeroDivisionError("zero pivot in the tridiagonal solve")


def _eliminate_blocks(lo, dg, up, rh, c, w):
    """Pass 1 on ``(b, m)`` views, row ``i`` holding position ``i`` of
    every block: fill ``c`` and ``w = 1 / beta`` and return the last and
    the first row of ``y``, ``u`` and ``v``, the block solutions for the
    rhs and for unit couplings to the left and right separator."""
    b = dg.shape[0]
    beta = dg[0].copy()
    y = rh[0].copy()
    # u (the forward-sweep values of the unit-left solution) and prod_c
    # run without their sign (-1)^i, which cancels in u_first and is put
    # on the last rows after the loop
    u = np.ones_like(beta)
    prod_c = np.ones_like(beta)
    y_first = np.zeros_like(beta)
    u_first = np.zeros_like(beta)
    tmp = np.empty_like(beta)
    for i in range(b):
        if i:
            ci = c[i - 1]
            np.multiply(up[i - 1], w[i - 1], out=ci)
            prod_c *= ci
            li = lo[i]
            np.multiply(li, ci, out=beta)
            np.subtract(dg[i], beta, out=beta)
            np.multiply(li, y, out=tmp)
            np.subtract(rh[i], tmp, out=y)
            u *= li
        _require_pivots(beta)
        wi = w[i]
        np.divide(1.0, beta, out=wi)
        y *= wi
        u *= wi
        # the back substitution unrolled: x_0 = sum_i prod_{j<i} (-c_j) d_i
        np.multiply(prod_c, y, out=tmp)
        (np.subtract if i % 2 else np.add)(y_first, tmp, out=y_first)
        np.multiply(prod_c, u, out=tmp)
        u_first += tmp
    if b % 2 == 0:
        np.negative(u, out=u)
        np.negative(prod_c, out=prod_c)
    v_last = w[-1].copy()
    prod_c *= v_last
    return y, u, v_last, y_first, u_first, prod_c


def _substitute_blocks(lo, rh, c, w, left, right):
    """Pass 3: solve every block with ``left`` taken off its first rhs
    entry and ``right`` off its last; ``w`` becomes the solution."""
    tmp = rh[0] - left
    right = right * w[-1]
    w[0] *= tmp
    for i in range(1, w.shape[0]):
        np.multiply(lo[i], w[i - 1], out=tmp)
        np.subtract(rh[i], tmp, out=tmp)
        w[i] *= tmp
    w[-1] -= right
    for i in range(w.shape[0] - 2, -1, -1):
        np.multiply(c[i], w[i + 1], out=tmp)
        w[i] -= tmp


def thomas_solve(lower, diag, upper, rhs):
    if any(v.dtype != np.float64 for v in (lower, diag, upper, rhs)):
        raise NotImplementedError("the tridiagonal solve takes float64 arrays only")
    n = diag.shape[0]
    if n < _BLOCKED_MIN:
        return _thomas_loop(lower, diag, upper, rhs)
    dp = np.empty(n)
    cp = np.empty(n)
    step = _block_length(n)
    m = n // step
    end = m * step
    lo, dg, up, rh, c, w = (v[:end].reshape(m, step)[:, :-1].T
                            for v in (lower, diag, upper, rhs, cp, dp))
    y_last, u_last, v_last, y_first, u_first, v_first = _eliminate_blocks(lo, dg, up, rh, c, w)
    # couplings of each block's first and last row; block 0 has none on
    # the left, and each product below is scale-free before it meets a
    # matrix entry, so no intermediate leaves the float range
    alpha = lower[:end:step].copy()
    alpha[0] = 0.0
    gamma = upper[step - 2:end:step]
    sep = slice(step - 1, end, step)
    ls, us = lower[sep], upper[sep]
    sub = -ls * (alpha * u_last)
    dia = diag[sep] - ls * (gamma * v_last)
    dia[:-1] -= us[:-1] * (alpha[1:] * u_first[1:])
    sup = np.empty(m)
    sup[:-1] = -us[:-1] * (gamma[1:] * v_first[1:])
    sup[-1] = us[-1]
    red_rhs = rhs[sep] - ls * y_last
    red_rhs[:-1] -= us[:-1] * y_first[1:]
    s = _thomas_loop(*(np.concatenate((head, tail[end:]))
                       for head, tail in ((sub, lower), (dia, diag), (sup, upper),
                                          (red_rhs, rhs))))
    dp[sep] = s[:m]
    dp[end:] = s[m:]
    alpha[1:] *= s[:m - 1]
    _substitute_blocks(lo, rh, c, w, alpha, gamma * s[:m])
    return dp


# ---------------------------------------------------------------------------
# Conjugate-gradient descent on the discrete quadratic form
#   Q(k) = sum_i a[i] * (k[i+1] - k[i])^2
# over interior nodes with fixed endpoints, preconditioned in the
# hierarchical basis (Yserentant 1986, Numer. Math. 49; Bank, Dupont and
# Yserentant 1988).  The gradient of Q at k, 2 (flux[:-1] - flux[1:])
# with flux = a * diff(k), is linear in k, so the same formula applied
# to a direction padded with zero ends is the Hessian product A p.
#
# Interior node j sits at level l = nu_2(j), the number of trailing zero
# bits of j.  With h = 2^l its parents are j - h and min(j + h, n), so
# any n works.  Its hat is 1 at j, 0 at the parents and beyond, and
# linear in the node index in between.  S maps hat coefficients to nodal
# values, adding to each level's nodes the interpolant of their parents,
# coarsest level first; S^T runs the transposed steps finest level
# first.  For constant a the hats are A-orthogonal, and a ~ t^2 / dt
# varies slowly along a grid, so S^T A S is nearly diagonal and
# M^-1 = S D^-1 S^T, with D its exact diagonal, needs few iterations.
# D_j is the energy of hat j, 2 (sum of a over its left side / h^2 +
# sum over its right side / R^2) with R = min(h, n - j).  Each side is
# an aligned block of a whose mean is built from the means of its two
# halves, so no intermediate exceeds max |a|; D / 4, the mean of the two
# side terms, is kept instead of D for the same reason.
#
# Each step applies M^-1 to the gradient, takes one Hessian product and
# the exact line search along the direction, and updates the gradient
# recursively.  M^-1 g has the units of k, so the run is unchanged, bit
# for bit, when a and tol are scaled by a power of two: the scale of
# a_i ~ t^2 / dt sets neither the step lengths nor the iteration count.
# Convergence means a gradient recomputed from k has max-norm at most
# tol before the iteration budget runs out; when only the recursive one
# does, descent restarts from the recomputed gradient.  The gradient is
# checked before each step, so an optimal initial guess converges at
# iteration zero.  A direction of non-positive curvature, which needs
# some a[i] <= 0, ends the run unconverged without a step; so does an
# entry of D that is not positive and finite, before D^-1 is formed.
# ``k`` (1-D float64) is updated in place; the work arrays are
# allocated once and filled by ``out=`` ufuncs.


def _hierarchical_basis(a):
    """The levels of the hierarchical basis on ``n = len(a)`` intervals,
    coarsest first, and ``D / 4`` in node order (length ``n - 1``).

    A level is ``(nodes, left, right, w_left, w_right)``: its nodes and
    their left parents as slices, their right parents as an index array,
    and the weights of each parent in the interpolant at the node."""
    n = a.shape[0]
    quarter_d = np.empty(n + 1)
    levels = []
    mean = a   # mean of a over each aligned block of h intervals
    h = 1
    while h < n:
        nodes = slice(h, n, 2 * h)
        j = np.arange(h, n, 2 * h)
        right = np.minimum(h, n - j)
        w_left = right / (right + h)
        w_right = h / (right + h)
        m = j.size
        left_mean, right_mean = mean[0:2 * m:2], mean[1:2 * m:2]
        quarter_d[nodes] = 0.5 * left_mean / h + 0.5 * right_mean / right
        levels.append((nodes, slice(0, n - h, 2 * h), j + right, w_left, w_right))
        # the left block holds h intervals and the right one R, so the
        # mean over both weighs them by the interpolation weights swapped
        paired = left_mean * w_right + right_mean * w_left
        mean = np.concatenate((paired, mean[2 * m:]))
        h *= 2
    return levels[::-1], quarter_d[1:-1]


def _interpolate(levels, u):
    """``u <- S u`` on nodes ``0 .. n``; ``u[0]`` and ``u[n]`` must be 0."""
    for nodes, left, right, w_left, w_right in levels:
        u[nodes] += w_left * u[left] + w_right * u[right]


def _restrict(levels, g):
    """``g <- S^T g`` on the interior nodes; ``g[0]`` and ``g[n]`` are
    left holding what the transposed steps add to them."""
    for nodes, left, right, w_left, w_right in reversed(levels):
        gj = g[nodes]
        g[left] += w_left * gj
        g[right] += w_right * gj


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
    hp = np.empty(n - 1)
    tmp = np.empty(n - 1)
    padded = np.zeros(n + 1)
    p = padded[1:-1]
    work = np.zeros(n + 1)
    z = work[1:-1]
    interior = k[1:-1]
    _form_gradient(a, k, flux, g)
    levels, quarter_d = _hierarchical_basis(a)
    positive = quarter_d.min() > 0.0 and quarter_d.max() < math.inf
    # D^-1 with zero ends, so scaling by it also clears what S^T leaves
    # on the boundary nodes
    dinv = np.zeros(n + 1)
    if positive:
        np.divide(0.25, quarter_d, out=dinv[1:-1])
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
        z[...] = g
        _restrict(levels, work)
        work *= dinv
        _interpolate(levels, work)
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
