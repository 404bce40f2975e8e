"""Hot numeric kernels, numpy/python only.

The Moebius sphere action sums scaled coordinate columns of the points,
with no BLAS product, so neither their memory layout nor the BLAS thread
count changes a bit; it returns column-major ``(N, 3)`` arrays, whose
columns the next step reads contiguously.  Each coordinate column is
scaled for every Lorentz row at once, one broadcast step per coordinate,
and the action's numerator and denominator come from that one pass.  The
pushforward forms that image once for any number of tangent fields and
takes one linear pass over them stacked column-major: the sphere rows'
two frames make one pass of 4 096 points, past the size (about 3 000 on
numpy 2.4.6) below which the broadcast step is slower than a loop over
the rows.  RK4 shooting is vectorized numpy.  The tridiagonal solve is
odd-even cyclic reduction: each of its about log2(n) levels halves the
system in one numpy op per step, every n takes the same path, and every
level it stores has a stride of at most 2 elements, in a ``work`` of
``_work_size(n)`` floats, about 8 n / 3.  Conjugate-gradient descent on
the quadratic form, preconditioned in the hierarchical basis, is a loop of
whole-array steps into buffers allocated once, with no BLAS dot; each
basis level is one numpy step of the transform, and a hat energy that is
not positive and finite ends the run unconverged without a step.

``rk4_shoot`` and ``gd_quadratic`` ignore trailing arguments:
``perfbench/micro.py`` still passes the retired floor and cap, and mode
and fixed step, by position.

Contract: points are ``(N, 3)`` float64 arrays, other array inputs are
1-D float64 (the tridiagonal solve raises ``NotImplementedError`` for
another dtype), and a tridiagonal system is symmetric positive definite,
the negation of one, or strictly diagonally dominant by rows.
The ``variational`` direct route passes the negation of the symmetric
positive-definite system that ``geometry._form_stiffness``
guarantees, whose off-diagonals are the stiffness itself; the kernel
tests and ``perfbench/micro.py`` pass nonsymmetric, strictly diagonally
dominant ones.  Cyclic reduction needs no pivoting on any of these: on a
negated system every intermediate is the exact negation of the one on
the system itself, so the solution has the same bits.  A zero pivot of
the tridiagonal solve raises ``ZeroDivisionError``, where numpy would
return ``inf`` or ``nan``.
"""
from __future__ import annotations

import math
from functools import lru_cache

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
    """``L[mu, nu] = Re tr(B_mu M B_nu M^H) / 2`` for ``M = [[a, b], [c, d]]``,
    read-only: kept for the next call with the same entries, bit for bit."""
    return _lorentz_of(np.array([[a, b], [c, d]], dtype=complex).tobytes())


# a verify-suite op fetches the matrices of its 90 transforms 112 times, at
# most 3 times each, and 32 entries keep all but one of those matrices for
# their next use (21 of the 22 repeated fetches)
@lru_cache(maxsize=32)
def _lorentz_of(entries: bytes):
    """:func:`_lorentz` of the matrix whose complex128 entries, row by row,
    are the bytes ``entries``: a key that tells ``-0.0`` from ``0.0``."""
    m = np.frombuffer(entries, dtype=complex).reshape(2, 2)
    lor = 0.5 * np.einsum("mij,jk,nkl,il->mn", _BASIS, m, _BASIS, m.conj()).real
    lor.setflags(write=False)
    return lor


def _affine(lor, pts, out=None, term=None):
    """``L[mu, 0] + L[mu, 1:] . p`` for each row ``mu`` of ``lor`` (axis 0)
    and each row ``p`` of ``pts`` (axis 1), summed column by column.  All
    rows of ``lor`` are formed together, each step broadcasting one column
    of ``lor`` against one coordinate of the points, so the sums are those
    of a loop over the rows at a fixed count of numpy calls.  Written to
    ``out`` when given, with ``term``, of its shape, as the scratch."""
    out = np.multiply(lor[:, 1:2], pts[:, 0], out=out)
    term = np.multiply(lor[:, 2:3], pts[:, 1], out=term)
    out += term
    out += np.multiply(lor[:, 3:4], pts[:, 2], out=term)
    out += lor[:, 0:1]
    return out


def _image(lor, pts, out=None, term=None):
    """``(A p + l) / (w . p + w0)`` as a column-major ``(N, 3)`` array, and
    the denominator, both from one affine pass over the four rows, which
    go to ``out`` (and ``term``) when given, as in :func:`_affine`."""
    rows = _affine(lor, pts, out, term)
    den, num = rows[0], rows[1:]
    num /= den
    return num.T, den


def mobius_apply_points(a, b, c, d, pts):
    return _image(_lorentz(a, b, c, d), pts)[0]


def conformal_stretch_points(a, b, c, d, pts):
    return 1.0 / _affine(_lorentz(a, b, c, d)[:1], pts)[0]


def mobius_pushforward(a, b, c, d, pts, *vecs):
    """Derivative of the sphere action at ``pts`` along each tangent field
    of ``vecs``: ``(A v - image (w . v)) / (w . p + w0)``.  One field gives
    one ``(N, 3)`` array, several a tuple of one per field.  The image and
    its denominator are formed once for all fields, and the fields, stacked
    column-major, take one linear pass; every step is elementwise, so each
    derivative has the bits of its own one-field call, and any layout of
    ``pts`` and ``vecs`` the same bits.  Each derivative's columns are
    contiguous, and one field's array is column-major."""
    lor = _lorentz(a, b, c, d)
    image, den = _image(lor, pts)
    linear = lor.copy()
    linear[:, 0] = 0.0   # w . v and A v: a tangent vector has no offset
    n, k = pts.shape[0], len(vecs)
    stacked = np.empty((k * n, 3), order="F")
    for j, v in enumerate(vecs):
        stacked[j * n:(j + 1) * n] = v
    rows = _affine(linear, stacked).reshape(4, k, n)
    out = rows[1:]
    out -= image.T[:, None] * rows[0]
    out /= den
    if k == 1:
        return out[:, 0].T
    return tuple(out[:, j].T for j in range(k))


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
# with lower[0] and upper[-1] ignored: no step reads them, so they may
# hold nan.  The four inputs are 1-D float64 arrays; another dtype raises
# NotImplementedError.  Every step is an elementwise ufunc, so strided
# views give the bits of contiguous copies.  The systems here are SPD, the
# negation of an SPD one, or diagonally dominant, so no pivoting is needed
# and no pivot is zero; a zero pivot raises ZeroDivisionError.
#
# Odd-even cyclic reduction (Hockney 1965; stable for diagonally dominant
# systems, Heller 1976, SIAM J. Numer. Anal. 13).  Each odd row takes its
# even neighbours out of its equation, which leaves a tridiagonal system
# in the odd unknowns with half the rows; after floor(log2 n) levels row
# 2^floor(log2 n) - 1 is left alone.  Back substitution then solves the
# even rows of each level, last level first, from the odd values on
# either side.  Each step is one numpy op across a level, so any n takes
# the same path.  Level 1 goes into four buffers of n // 2 rows, and
# each later level into the odd rows of the one before, as strided views
# (the even rows, which the back substitution reads, are kept), unless
# that view would have a stride above 2 elements: then the level goes
# into the next contiguous block of four buffers instead.  So levels 1,
# 3, 5, ... are contiguous, levels 2, 4, 6, ... have a stride of 2, and
# the buffers take ``_work_size(n)``, about 8 n / 3 floats.  The output
# is the scratch of the reduction, the solution is written straight into
# strided views of it, and the lower diagonal of the level below, no
# longer needed, is the scratch of the back substitution; so a solve
# allocates the ``_work_size(n)`` floats of those buffers unless the
# caller passes them as ``work``, and the n of the output unless it
# passes ``out``.  The ``variational`` direct route passes both: ``out``
# is the interior of its ``K``, and ``work`` a view of the float64
# scratch each thread keeps, up to 2^20 floats (``geometry._scratch``),
# so a solve at n = 1e5 allocates nothing that grows with n.  The solve
# takes no scratch itself, so a caller may hold its views across the
# call.  The output is allocated before the scratch, so the buffers
# freed on return leave no hole below a live array.


def _require_pivots(beta):
    if not beta.all():
        raise ZeroDivisionError("zero pivot in the tridiagonal solve")


def _reduce(system, reduced, scratch):
    """Eliminate the even rows of ``system`` (``m`` rows) from its odd
    rows into ``reduced`` (``m // 2`` rows), which may be the odd rows of
    ``system`` itself; ``scratch`` holds at least ``m`` entries."""
    lo, dg, up, rh = system
    alpha, b, c, d = reduced
    m = dg.shape[0]
    half, inner = m // 2, (m - 1) // 2   # odd rows, and those with an even row below
    above, below = slice(0, 2 * half, 2), slice(2, 2 * inner + 1, 2)
    _require_pivots(dg[::2])
    # -1 / diag, not np.negative(v, out=v), which misreads a 64-byte-stride view in numpy 2.4.6
    w = np.divide(-1.0, dg[::2], out=scratch[half:m])
    tmp = scratch[:half]
    gamma = c[:inner]
    np.multiply(lo[1::2], w[:half], out=alpha)
    np.multiply(up[1::2][:inner], w[1:], out=gamma)
    for new, old, left, right in ((b, dg, up, lo), (d, rh, rh, rh)):
        np.multiply(alpha, left[above], out=tmp)
        np.add(old[1::2], tmp, out=new)
        np.multiply(gamma, right[below], out=tmp[:inner])
        new[:inner] += tmp[:inner]
    # the reduced system's lower[0] and upper[-1] are left as they are
    alpha[1:] *= lo[above][1:]
    gamma[:half - 1] *= up[below][:half - 1]


def _substitute(system, x, scratch):
    """Solve the even rows of ``system`` into ``x[::2]`` from the values
    ``x[1::2]`` of its odd rows; ``scratch`` holds at least ``m // 2``
    entries."""
    lo, dg, up, rh = system
    m = dg.shape[0]
    half, inner = m // 2, (m - 1) // 2
    above, below = slice(0, 2 * half, 2), slice(2, 2 * inner + 1, 2)
    even, odd = x[::2], x[1::2]
    tmp = scratch[:half]
    even[0] = rh[0]
    np.multiply(lo[below], odd[:inner], out=even[1:])
    np.subtract(rh[below], even[1:], out=even[1:])
    np.multiply(up[above], odd, out=tmp)
    even[:half] -= tmp
    even /= dg[::2]


def _require_apart(name, buf, others):
    if any(np.shares_memory(buf, v) for v in others):
        raise ValueError(f"{name} must overlap no input or other buffer")


def _work_size(n):
    """The least ``work`` of a solve of ``n`` rows: four buffers for each
    level stored in a block of its own, levels 1, 3, 5, ..., whose rows
    fall by a factor of 4 from one to the next."""
    size, rows = 0, n // 2
    while rows:
        size += 4 * rows
        rows //= 4
    return size


def thomas_solve(lower, diag, upper, rhs, out=None, work=None):
    """The solution ``x`` of the system, written to ``out`` when given: a
    1-D float64 array of ``n`` entries, returned.  ``work``, when given, is
    the reduction's buffer: a 1-D float64 array of at least
    ``_work_size(n)`` entries.  Neither may overlap an input or the other.
    Each level goes into ``work`` at a stride of at most 2 elements of it."""
    system = (lower, diag, upper, rhs)
    if any(v.dtype != np.float64 for v in system):
        raise NotImplementedError("the tridiagonal solve takes float64 arrays only")
    n = diag.shape[0]
    half, size = n // 2, _work_size(n)
    if out is not None:
        if out.dtype != np.float64 or out.shape != (n,):
            raise ValueError(f"out must be float64 of shape {(n,)}, not {out.dtype} {out.shape}")
        _require_apart("out", out, system)
    if work is not None:
        if work.dtype != np.float64 or work.ndim != 1 or work.size < size:
            raise ValueError(f"work must be 1-D float64 of at least {size} entries, "
                             f"not {work.dtype} {work.shape}")
        _require_apart("work", work, system + (() if out is None else (out,)))
    x = np.empty(n) if out is None else out
    if work is None:
        work = np.empty(size)
    levels = [(system, x)]
    reduced, used = work[:4 * half].reshape(4, half), 4 * half
    while reduced.shape[1]:
        system, xs = levels[-1]
        _reduce(system, reduced, x)
        levels.append((reduced, xs[1::2]))
        reduced = reduced[:, 1::2]
        if len(levels) % 2:   # levels 3, 5, ...: the next block, not a stride of 4
            rows = reduced.shape[1]
            reduced = work[used:used + 4 * rows].reshape(4, rows)
            used += 4 * rows
    (_, dg, _, rh), xs = levels[-1]
    _require_pivots(dg)
    np.divide(rh, dg, out=xs)
    for (system, xs), (coarser, _) in zip(levels[-2::-1], levels[:0:-1]):
        _substitute(system, xs, coarser[0])
    return x


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
        gz = float(np.sum(np.multiply(g, z, out=tmp)))
        if fresh:
            np.negative(z, out=p)
        else:
            p *= gz / gz_old
            p -= z
        _form_gradient(a, padded, flux, hp)
        php = float(np.sum(np.multiply(p, hp, out=tmp)))
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
