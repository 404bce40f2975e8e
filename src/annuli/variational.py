"""Euler-Lagrange machinery for the reduced radial energy.

The reduced functional ``4 pi * integral(t^2 (H'/H)^2 + 2) dt`` becomes,
after the substitution ``K = log H``, a convex quadratic in the sampled
``K`` values.  Minimizing it therefore amounts to one tridiagonal
solve, by odd-even cyclic reduction in numpy for every grid size.  The
solve takes the negation of the symmetric positive-definite system, whose
off-diagonals are then the interval stiffness itself, and writes the
interior of ``K`` in place, with the bits of the system itself.  The
stiffness, the diagonal, the right-hand side and the reduction's buffers
(about 8 n / 3 floats, every level at a stride of at most 2 elements)
are views of one per-thread scratch array (``geometry._scratch``), kept
up to 2^20 floats, and the energy is formed in a region of it that the
solve leaves dead.  So a warm solve allocates ``K`` alone; a scratch view
never outlives the function that took it, and is never held across a
call that may take scratch.  The grid keeps no stiffness: every reader
forms it with ``geometry._form_stiffness`` where it uses it.
Conjugate-gradient descent on the gradient,
preconditioned in the hierarchical basis, and RK4 shooting on the
Euler-Lagrange equation are provided as independent routes to the same
profile.  In ``K`` that equation is linear, so the discrete rise
``log H(R) - log r_star`` is linear in the initial slope and one trial
sweep fixes the slope.  All three routes run on the numpy kernels in
``_kernels``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import DomainError, EvaluationError
from .geometry import (AnnulusPair, RadialGrid, _form_stiffness, _log_width, _scratch,
                       make_radial_grid)
from .maps import SampledProfile, _ClosedFormProfile, exp_profile_from_boundary

_FOUR_PI = 4.0 * math.pi
# RK4 steps of a shooting sweep: at least _MIN_STEPS and at least
# _STEPS_PER_RATIO * (R / r - 1), so each step is at most r / 20; needing
# more than _MAX_STEPS is an error.  The boundary miss that counts as
# converged, relative to R_star.
_MIN_STEPS = 2000
_STEPS_PER_RATIO = 20
_MAX_STEPS = 1_000_000
_MISS_TOL = 1e-10
# iteration budget of conjugate-gradient descent, and the max-norm of the
# energy gradient that ends it.  Converging runs take a few dozen
# iterations at most; the budget bounds the CPU of a run whose tolerance
# lies below the rounding of the gradient, about 2 s at n = 1000.
_CG_MAX_ITER = 20_000
_CG_TOL = 1e-7


def _jet(profile: _ClosedFormProfile, t):
    """Radii as a float array, with ``H``, ``H'`` and ``H''`` there.  The
    residuals differentiate a formula: a sampled profile has no derivative,
    and a discrete solution answers to ``_discrete_el_residual``."""
    if not isinstance(profile, _ClosedFormProfile):
        raise TypeError(f"residuals take a closed-form profile, not {type(profile).__name__}")
    t = np.asarray(t, dtype=float)
    return t, profile.eval(t), profile.derivative(t, 1), profile.derivative(t, 2)


def el_residual(profile: _ClosedFormProfile, t):
    """Residual ``2 H H' - t H'^2 + t H H''`` of the radial
    Euler-Lagrange equation; zero exactly on ``a * exp(b / t)``."""
    t, h, hd, hdd = _jet(profile, t)
    out = 2.0 * h * hd - t * hd**2 + t * h * hdd
    return float(out) if t.ndim == 0 else out


def weighted_harmonic_residual(profile: _ClosedFormProfile, t):
    """Radial residual of the weighted-harmonic system.

    Returns the coefficient of the vector Laplacian of the radial map
    minus the coefficient demanded by the first-variation identity; the
    result equals ``el_residual / (t^2 H)``, so the two vanish together.
    """
    t, h, hd, hdd = _jet(profile, t)
    if np.any(np.abs(h) < 1e-300):
        raise EvaluationError("profile vanishes; weighted residual is singular")
    laplace_coeff = (-2.0 * h + 2.0 * t * hd + t**2 * hdd) / t**3
    demanded = 2.0 * hd**2 / (t * h) - (2.0 * h**2 / t**2 + hd**2) / (t * h)
    out = laplace_coeff - demanded
    return float(out) if t.ndim == 0 else out


def _k_on_grid(k_values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    k = np.asarray(k_values, dtype=float)
    if k.shape != grid.nodes.shape:
        raise ValueError("K values must match the grid nodes")
    return k


def discrete_reduced_energy(k_values: np.ndarray, grid: RadialGrid) -> float:
    """Reduced energy of the piecewise profile ``H = exp(K)``."""
    k = _k_on_grid(k_values, grid)
    n = k.size - 1
    return _energy_from_coefficients(_form_stiffness(grid, np.empty(n), _scratch(n)), k, grid)


def _energy_from_coefficients(a: np.ndarray, k: np.ndarray, grid: RadialGrid,
                              dk: np.ndarray | None = None):
    """Reduced energy of the nodal values ``k`` on ``grid``, whose interval
    stiffness is ``a``: a float, or for a stack of states (nodes on the
    last axis) the array of their energies, each with the bits of its own
    call, as every row is summed alone.  ``dk``, when given, is the
    scratch: a contiguous float64 array of one entry per interval and
    state, which shares no memory with ``a`` or ``k``; else it is a view of
    this thread's scratch (``geometry._scratch``), so a caller that holds
    scratch views passes its own."""
    # a plain sum, not a BLAS dot, whose threaded split moves the last bits;
    # in place in dk, dropped on return
    shape = k.shape[:-1] + (k.shape[-1] - 1,)
    dk = (_scratch(math.prod(shape)) if dk is None else dk).reshape(shape)
    np.subtract(k[..., 1:], k[..., :-1], out=dk)
    dk *= dk
    dk *= a
    total = dk.sum(axis=-1)
    if total.ndim:
        return _FOUR_PI * (total + 2.0 * grid.annulus.width)
    # Python floats, which overflow to inf without a numpy warning
    return _FOUR_PI * (float(total) + 2.0 * grid.annulus.width)


def reduced_energy_gradient(k_values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Gradient of :func:`discrete_reduced_energy` at the interior
    nodes (the boundary values are constrained)."""
    k = _k_on_grid(k_values, grid)
    n = k.size - 1
    a = _form_stiffness(grid, np.empty(n), _scratch(n))
    # the gradient of Q = E / (4 pi) - const that conjugate-gradient
    # descent runs on, scaled back to E
    grad = np.empty(n - 1)
    _kernels._form_gradient(a, k, np.empty(n), grad)
    grad *= _FOUR_PI
    return grad


def _discrete_el_residual(profile: SampledProfile) -> np.ndarray:
    """Discrete Euler-Lagrange residual of a sampled profile at the
    interior nodes: :func:`reduced_energy_gradient` at ``K = log H`` over
    ``8 pi |mean(a_i (K_{i+1} - K_i))|``, so the jump of the interval flux
    relative to its mean.  The discrete solvers solve this equation, so it
    reads rounding on their output; where the mean flux is 0 it reads 0,
    and a constant ``K`` reads 0 before any stiffness is formed."""
    k = np.log(profile.values)
    n = k.size - 1
    # a degenerate target's domain may have no stiffness in the float range
    if k.min() == k.max():
        return np.zeros(n - 1)
    a = _form_stiffness(profile.grid, np.empty(n), _scratch(n))
    flux, grad = np.empty(n), np.empty(n - 1)
    _kernels._form_gradient(a, k, flux, grad)
    grad *= _FOUR_PI
    scale = 2.0 * _FOUR_PI * abs(float(np.mean(flux)))
    return grad / scale if scale > 0.0 else np.zeros_like(grad)


@dataclass(frozen=True)
class DiscreteSolution:
    """Result of a discrete minimization run on ``pair``.

    ``sup_error_vs_closed_form`` is computed when first read, not by the
    solve, and then kept.  It is the max nodal distance from the closed-form
    minimizer, exactly 0.0 when ``r_star == R_star``.
    """

    profile: SampledProfile
    energy: float
    iterations: int
    converged: bool
    pair: AnnulusPair

    @cached_property
    def sup_error_vs_closed_form(self) -> float:
        if self.pair.r_star == self.pair.R_star:
            return 0.0
        return _closed_form_sup_error(self.pair, self.profile.grid, self.profile.values)


def _closed_form_sup_error(pair: AnnulusPair, grid: RadialGrid, values: np.ndarray) -> float:
    closed = exp_profile_from_boundary(pair, "increasing")
    return float(np.max(np.abs(values - closed.eval(grid.nodes))))


def _solution_from_k(pair: AnnulusPair, grid: RadialGrid, k: np.ndarray, energy: float,
                     iterations: int, converged: bool) -> DiscreteSolution:
    """Solution for the nodal values of ``K = log(H / r_star)``, which rise
    from 0 to ``span = log(R_star / r_star)``, and their ``energy``; ``k``,
    the solver's own array, becomes the profile's values."""
    span = k[-1]
    # H from the nearer end, r* e^K or R* e^(K - span), which keeps the digits
    # of thin shells far from 1 and never overflows: e^709.7 is finite, and
    # e^(709.7 - span) is not 0 even where a subnormal r* gives span > 1419.4.
    # Both ends come out exact, r* e^0 and R* e^0.
    i = int(np.searchsorted(k, min(0.5 * span, 709.7)))
    k[i:] -= span
    np.exp(k, out=k)
    k[:i] *= pair.r_star
    k[i:] *= pair.R_star
    profile = SampledProfile(grid=grid, values=k)
    return DiscreteSolution(profile, energy, iterations, converged, pair)


def _constant_solution(pair: AnnulusPair, grid: RadialGrid) -> DiscreteSolution:
    values = np.full_like(grid.nodes, pair.r_star)
    profile = SampledProfile(grid=grid, values=values)
    energy = _FOUR_PI * 2.0 * grid.annulus.width
    return DiscreteSolution(profile, energy, 0, True, pair)


def _discrete_minimize(pair: AnnulusPair, grid: RadialGrid, solve) -> DiscreteSolution:
    """The steps both discrete solvers share: check the grid, answer a
    degenerate target with the constant profile, and otherwise run
    ``solve(grid, span) -> (k, energy, iterations, converged)`` for
    ``K = log(H / r_star)``, which runs from 0 to
    ``span = log(R_star / r_star)``: anchored at 0, ``K`` carries no
    rounding of ``log r_star``.  Each solver forms the interval stiffness
    and the energy of ``k`` itself."""
    if grid.annulus != pair.domain:
        raise DomainError(f"grid on {grid.annulus!r}, not on {pair.domain!r}")
    # reads no stiffness, which raises on shells such as (1e160, 2e160)
    if pair.r_star == pair.R_star:
        return _constant_solution(pair, grid)
    k, energy, iterations, converged = solve(grid, _log_width(pair.target))
    return _solution_from_k(pair, grid, k, energy, iterations, converged)


def minimize_reduced_energy(pair: AnnulusPair, grid: RadialGrid) -> DiscreteSolution:
    """Minimize the discrete reduced energy by one direct tridiagonal
    solve in ``K = log H``.

    The solve never evaluates the closed form, so it succeeds wherever the
    interval stiffness is positive and finite, thin shells included.  The
    returned ``sup_error_vs_closed_form`` is computed on first read (see
    :class:`DiscreteSolution`).
    """
    return _discrete_minimize(pair, grid, _direct_k)


def _direct_k(grid: RadialGrid, span: float):
    # row i of the negated system, a[i-1] K[i-1] - (a[i-1] + a[i]) K[i] + a[i] K[i+1] = 0,
    # takes its off-diagonals as views of a (the kernel ignores the first lower and
    # the last upper entry) and solves into the interior of K.  The stiffness a, the
    # diagonal, the right-hand side and the reduction's buffer are one view of this
    # thread's scratch; the n floats after a, still unused, are the tmp that forms a,
    # and, dead after the solve, the dk of the energy
    n = grid.nodes.size - 1
    m = n - 1
    k = np.empty(n + 1)
    k[0] = 0.0
    k[-1] = span
    scratch = _scratch(n + 2 * m + _kernels._work_size(m))
    a, spare = scratch[:n], scratch[n:2 * n]
    diag, rhs, work = scratch[n:n + m], scratch[n + m:n + 2 * m], scratch[n + 2 * m:]
    _form_stiffness(grid, a, spare)
    np.add(a[:-1], a[1:], out=diag)
    np.negative(diag, out=diag)
    rhs[:-1] = 0.0
    rhs[-1] = -(a[-1] * span)
    _kernels.thomas_solve(a[:-1], diag, a[1:], rhs, k[1:-1], work)
    return k, _energy_from_coefficients(a, k, grid, spare), 1, True


def gradient_descent_minimize(pair: AnnulusPair, grid: RadialGrid) -> DiscreteSolution:
    """Minimize the same discrete energy by conjugate-gradient descent
    on its gradient, preconditioned in the hierarchical basis: hat
    functions linear in the node index on about ``log2(n)`` levels, with
    ``M^-1 = S D^-1 S^T`` for the basis change ``S`` and the exact hat
    energies ``D``.  The stiffness ``a_i ~ t^2 / dt`` of fine grids or
    wide annuli is badly scaled and varies slowly along the grid, so in
    that basis the form is nearly diagonal: generator pairs at n = 1000
    take a median of 10 and at most 16 iterations.  The route uses
    neither the closed form nor the constant-flux solution.

    Convergence means the max-norm of the energy gradient, recomputed
    from the final iterate, is at most 1e-7; running out of the budget
    of 20 000 iterations first yields ``converged=False`` with the
    current iterate.  That happens where the tolerance lies below the
    rounding of the gradient, on extreme radii and on very thin shells
    such as ``(1, 1 + 1e-10, 1, 2)``.  As for the direct solve,
    ``sup_error_vs_closed_form`` is computed on first read.
    """
    return _discrete_minimize(pair, grid, _cg_k)


def _cg_k(grid: RadialGrid, span: float):
    t = grid.nodes
    a = _form_stiffness(grid, np.empty(t.size - 1), _scratch(t.size - 1))
    k = (t - t[0]) / (t[-1] - t[0]) * span
    # the kernel minimizes Q = E / (4 pi) - const, so rescale the
    # gradient tolerance accordingly
    iters, converged = _kernels.gd_quadratic(a, k, _CG_MAX_ITER, _CG_TOL / _FOUR_PI)
    return k, _energy_from_coefficients(a, k, grid), int(iters), bool(converged)


@dataclass(frozen=True)
class ShootingResult:
    """Outcome of shooting for the radial Euler-Lagrange equation.

    ``converged`` means the finite boundary miss ``H(R) - R_star`` is at
    most ``1e-10 R_star`` in size.  :func:`shoot_el` always sets
    ``profile``.  ``sweeps`` counts the RK4 integrations: 2, or 1 when
    ``r_star == R_star``."""

    initial_slope: float
    profile: SampledProfile | None
    boundary_miss: float
    converged: bool
    sweeps: int = 0


def _shooting_error(pair: AnnulusPair, reason: str) -> EvaluationError:
    return EvaluationError(
        f"RK4 shooting on r = {pair.r!r}, R = {pair.R!r}, r_star = {pair.r_star!r}, "
        f"R_star = {pair.R_star!r}: {reason}"
    )


def shoot_el(pair: AnnulusPair) -> ShootingResult:
    """Solve the boundary value problem for the radial Euler-Lagrange
    equation by RK4 shooting on the initial slope.

    A sweep integrates ``K'' = -2 K' / t`` for ``K = log H`` on the unit
    profile ``H / r_star`` from ``K(r) = 0`` with slope ``K'(r) = p`` over
    ``n = max(2000, ceil(20 (R / r - 1)))`` uniform steps, so each step
    is at most ``r / 20``.  The discrete rise ``K(R)`` is linear in ``p``.
    The trial sweep takes the log slope of the closed form; the second
    scales it by ``log(R_star / r_star)`` over the trial rise, which hits
    ``R_star`` up to rounding.  A degenerate target takes one sweep at
    slope 0.  For ``p >= 0`` every sweep is positive and nondecreasing,
    so no floor or cap is needed.  ``initial_slope`` is ``H'(r) = r_star
    p``, which may underflow to 0 while ``p`` does not.

    The profile stays within 1.6e-7 ``max(r_star, R_star)`` of the
    closed form, measured on generator pairs and on ``R / r`` up to 1e4.
    :class:`EvaluationError` names the radii when ``n`` would pass
    1 000 000, or when a value of the last sweep is not positive and
    finite.
    """
    r, R, r_star, R_star = pair.r, pair.R, pair.r_star, pair.R_star
    wide = _STEPS_PER_RATIO * (R / r - 1.0)
    if not wide <= _MAX_STEPS:
        raise _shooting_error(pair, f"R / r needs more than {_MAX_STEPS} RK4 steps; "
                                    "the domain is too wide")
    n = max(_MIN_STEPS, math.ceil(wide))
    log_ratio = _log_width(pair.target)
    p0 = log_ratio * (R / r) / (R - r)
    unit = _kernels.rk4_shoot(r, R, 1.0, p0, n)
    sweeps = 1
    # an inf or nan trial sweep is the last one; a trial rise of 0 makes
    # the corrected slope, and so the next sweep, inf or nan
    if log_ratio != 0.0 and unit[-1] < math.inf:
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = float(p0 * (log_ratio / np.log(unit[-1])))
        unit = _kernels.rk4_shoot(r, R, 1.0, p0, n)
        sweeps = 2
    with np.errstate(over="ignore"):
        values = r_star * unit
    if not (values.min() > 0.0 and values.max() < math.inf):
        raise _shooting_error(pair, "a sweep is not positive and finite; the radii are too "
                                    "extreme for floating point")
    miss = float(values[-1]) - R_star
    profile = SampledProfile(grid=make_radial_grid(pair.domain, n), values=values)
    return ShootingResult(r_star * p0, profile, miss, abs(miss) <= _MISS_TOL * R_star, sweeps)
