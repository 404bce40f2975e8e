"""Euler-Lagrange machinery for the reduced radial energy.

The reduced functional ``4 pi * integral(t^2 (H'/H)^2 + 2) dt`` becomes,
after the substitution ``K = log H``, a convex quadratic in the sampled
``K`` values.  Minimizing it therefore amounts to one symmetric
positive-definite tridiagonal solve; gradient descent and an RK4
shooting method for the original second-order equation are provided as
independent routes to the same profile.  All three run on the numpy
kernels in ``_kernels``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, EvaluationError
from .geometry import AnnulusPair, RadialGrid, make_radial_grid
from .maps import RadialProfile, SampledProfile, exp_profile_from_boundary

_FOUR_PI = 4.0 * math.pi


def _residual_radii(profile: RadialProfile, t):
    """Radii as a float array plus whether ``t`` was a scalar; sampled
    profiles only have residuals at interior radii."""
    t_arr = np.asarray(t, dtype=float)
    if isinstance(profile, SampledProfile):
        a = profile.annulus
        if np.any(t_arr <= a.inner) or np.any(t_arr >= a.outer):
            raise DomainError("residual of a sampled profile needs interior radii")
    return t_arr, t_arr.ndim == 0


def el_residual(profile: RadialProfile, t):
    """Residual ``2 H H' - t H'^2 + t H H''`` of the radial
    Euler-Lagrange equation; zero exactly on ``a * exp(b / t)``."""
    t_arr, scalar = _residual_radii(profile, t)
    h = profile.eval(t_arr)
    hd = profile.derivative(t_arr, 1)
    hdd = profile.derivative(t_arr, 2)
    out = 2.0 * h * hd - t_arr * hd**2 + t_arr * h * hdd
    return float(out) if scalar else out


def weighted_harmonic_residual(profile: RadialProfile, t):
    """Radial residual of the weighted-harmonic system.

    Returns the coefficient of the vector Laplacian of the radial map
    minus the coefficient demanded by the first-variation identity; the
    result equals ``el_residual / (t^2 H)``, so the two vanish together.
    """
    t_arr, scalar = _residual_radii(profile, t)
    h = profile.eval(t_arr)
    if np.any(np.abs(h) < 1e-300):
        raise EvaluationError("profile vanishes; weighted residual is singular")
    hd = profile.derivative(t_arr, 1)
    hdd = profile.derivative(t_arr, 2)
    laplace_coeff = (-2.0 * h + 2.0 * t_arr * hd + t_arr**2 * hdd) / t_arr**3
    demanded = 2.0 * hd**2 / (t_arr * h) - (2.0 * h**2 / t_arr**2 + hd**2) / (t_arr * h)
    out = laplace_coeff - demanded
    return float(out) if scalar else out


def _interval_coefficients(grid: RadialGrid) -> np.ndarray:
    """Per-interval stiffness ``a_i`` of the discrete quadratic form
    ``Q(K) = sum a_i (K_{i+1} - K_i)^2``.

    The weight ``t^2`` is integrated exactly against the interpolant in
    the grid's native coordinate, so the form is the true reduced energy
    of the discrete competitor.  That keeps the discrete minimum an
    upper bound of the continuum minimum on every grid, and makes the
    reciprocal spacing reproduce the closed-form minimizer at the nodes.
    """
    t = grid.nodes
    dt = np.diff(t)
    with np.errstate(over="ignore"):
        if grid.spacing_mode == "uniform-in-1/t":
            # integral of t^2 against a K linear in 1/t over one interval
            m = t[:-1] * t[1:]
        else:
            # integral of t^2 against a K linear in t over one interval
            m = (t[:-1] ** 2 + t[:-1] * t[1:] + t[1:] ** 2) / 3.0
        a = m / dt
    # t^2 overflows for huge radii and underflows to zero for tiny ones;
    # a positive min() and a finite max() need no temporary
    if not (a.min() > 0.0 and math.isfinite(a.max())):
        i = int(np.nonzero(~(np.isfinite(a) & (a > 0.0)))[0][0])
        raise EvaluationError(
            f"interval stiffness a_{i} = {a[i]} on [{t[i]:.6g}, {t[i + 1]:.6g}] is not positive "
            "and finite; the radii are too extreme for floating point"
        )
    return a


def discrete_reduced_energy(k_values: np.ndarray, grid: RadialGrid) -> float:
    """Reduced energy of the piecewise profile ``H = exp(K)``."""
    k = np.asarray(k_values, dtype=float)
    if k.shape != grid.nodes.shape:
        raise ValueError("K values must match the grid nodes")
    a = _interval_coefficients(grid)
    q = float(a @ np.diff(k) ** 2)
    return _FOUR_PI * (q + 2.0 * grid.annulus.width)


def reduced_energy_gradient(k_values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Gradient of :func:`discrete_reduced_energy` at the interior
    nodes (the boundary values are constrained)."""
    k = np.asarray(k_values, dtype=float)
    if k.shape != grid.nodes.shape:
        raise ValueError("K values must match the grid nodes")
    a = _interval_coefficients(grid)
    dk = np.diff(k)
    return 2.0 * _FOUR_PI * (a[:-1] * dk[:-1] - a[1:] * dk[1:])


@dataclass(frozen=True)
class DiscreteSolution:
    """Result of a discrete minimization run."""

    profile: SampledProfile
    energy: float
    sup_error_vs_closed_form: float
    iterations: int
    converged: bool


def _closed_form_sup_error(pair: AnnulusPair, grid: RadialGrid, values: np.ndarray) -> float:
    closed = exp_profile_from_boundary(pair, "increasing")
    return float(np.max(np.abs(values - closed.eval(grid.nodes))))


def _boundary_logs(pair: AnnulusPair):
    return math.log(pair.r_star), math.log(pair.R_star)


def _solution_from_k(pair: AnnulusPair, grid: RadialGrid, k: np.ndarray,
                     iterations: int, converged: bool) -> DiscreteSolution:
    values = np.exp(k)
    values[0] = pair.r_star
    values[-1] = pair.R_star
    profile = SampledProfile(grid=grid, values=values)
    energy = discrete_reduced_energy(k, grid)
    sup = _closed_form_sup_error(pair, grid, values)
    return DiscreteSolution(profile, energy, sup, iterations, converged)


def _constant_solution(pair: AnnulusPair, grid: RadialGrid) -> DiscreteSolution:
    values = np.full_like(grid.nodes, pair.r_star)
    profile = SampledProfile(grid=grid, values=values)
    energy = _FOUR_PI * 2.0 * grid.annulus.width
    return DiscreteSolution(profile, energy, 0.0, 0, True)


def minimize_reduced_energy(pair: AnnulusPair, grid: RadialGrid) -> DiscreteSolution:
    """Minimize the discrete reduced energy by a direct tridiagonal
    solve in ``K = log H``.

    One step of iterative refinement with an extended-precision residual
    keeps the nodal values near machine accuracy even on fine grids.
    """
    pair.require_weighted()
    if grid.annulus != pair.domain:
        raise ValueError("grid must live on the domain annulus of the pair")
    if pair.r_star == pair.R_star:
        return _constant_solution(pair, grid)
    a = _interval_coefficients(grid)
    k0, kn = _boundary_logs(pair)
    m = grid.nodes.size - 2
    diag = a[:-1] + a[1:]
    lower = np.empty(m)
    upper = np.empty(m)
    lower[1:] = -a[1:-1]
    lower[0] = 0.0
    upper[:-1] = -a[1:-1]
    upper[-1] = 0.0
    rhs = np.zeros(m)
    rhs[0] = a[0] * k0
    rhs[-1] = a[-1] * kn
    y = _kernels.thomas_solve(lower, diag, upper, rhs)
    # extended-precision residual, one refinement pass
    ld = np.longdouble
    res = rhs.astype(ld) - diag.astype(ld) * y.astype(ld)
    res[1:] -= lower[1:].astype(ld) * y[:-1].astype(ld)
    res[:-1] -= upper[:-1].astype(ld) * y[1:].astype(ld)
    y = y + _kernels.thomas_solve(lower, diag, upper, res.astype(float))
    k = np.concatenate([[k0], y, [kn]])
    return _solution_from_k(pair, grid, k, 1, True)


def gradient_descent_minimize(pair: AnnulusPair, grid: RadialGrid,
                              step_rule: str | float = "bb",
                              max_iter: int = 200_000,
                              tol: float = 1e-7) -> DiscreteSolution:
    """Minimize the same discrete energy by gradient descent.

    ``step_rule`` picks the step length: ``"bb"`` (default) for
    Barzilai-Borwein steps, which handle the badly conditioned systems
    that fine grids or wide annuli produce, ``"exact"`` for the
    classical closed-form line search on the quadratic, or a positive
    float (or ``"fixed:<value>"``) for a fixed step.  ``tol`` bounds the
    max-norm of the energy gradient at convergence; running out of
    ``max_iter`` first yields ``converged=False`` with the current
    iterate.
    """
    pair.require_weighted()
    if grid.annulus != pair.domain:
        raise ValueError("grid must live on the domain annulus of the pair")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    mode = 1
    fixed = 0.0
    if isinstance(step_rule, str):
        if step_rule == "bb":
            mode = 1
        elif step_rule == "exact":
            mode = 0
        elif step_rule.startswith("fixed:"):
            mode = 2
            fixed = float(step_rule.split(":", 1)[1])
        else:
            raise ValueError(f"unknown step rule {step_rule!r}")
    else:
        mode = 2
        fixed = float(step_rule)
    if mode == 2 and not fixed > 0.0:
        raise ValueError("fixed step must be positive")
    if pair.r_star == pair.R_star:
        return _constant_solution(pair, grid)
    a = _interval_coefficients(grid)
    k0, kn = _boundary_logs(pair)
    t = grid.nodes
    k = k0 + (t - t[0]) / (t[-1] - t[0]) * (kn - k0)
    # the kernel minimizes Q = E / (4 pi) - const, so rescale the
    # gradient tolerance accordingly
    iters, converged = _kernels.gd_quadratic(a, k, max_iter, tol / _FOUR_PI, mode, fixed)
    return _solution_from_k(pair, grid, k, int(iters), bool(converged))


@dataclass(frozen=True)
class ShootingResult:
    """Outcome of shooting for the radial Euler-Lagrange equation.

    ``profile`` is None only when no sign change was found in the
    initial slope bracket (``converged`` False in that case)."""

    initial_slope: float
    profile: SampledProfile | None
    boundary_miss: float
    converged: bool


def shoot_el(pair: AnnulusPair, ode_steps: int = 2000,
             bisect_tol: float = 1e-10) -> ShootingResult:
    """Solve the boundary value problem for the radial Euler-Lagrange
    equation by RK4 integration and bisection on the initial slope.

    The slope bracket is ``+- 10 (R_star - r_star) / (R - r)``, wide
    enough for moderately proportioned pairs; if the boundary miss does
    not change sign across it, a non-converged result is returned.
    """
    pair.require_weighted()
    if ode_steps < 8:
        raise ValueError("need at least 8 integration steps")
    r, R = pair.r, pair.R
    nodes = np.linspace(r, R, ode_steps + 1)
    nodes[-1] = R
    grid = RadialGrid(pair.domain, nodes, "uniform-in-t")
    floor = 1e-10 * pair.r_star
    cap = 1e10 * pair.R_star

    def integrate(slope: float):
        return _kernels.rk4_shoot(r, R, pair.r_star, slope, ode_steps, floor, cap)

    def miss(result):
        values, status = result
        if status < 0:
            return -math.inf
        if status > 0:
            return math.inf
        return float(values[-1]) - pair.R_star

    if pair.r_star == pair.R_star:
        values, _ = integrate(0.0)
        prof = SampledProfile(grid=grid, values=values)
        return ShootingResult(0.0, prof, float(values[-1]) - pair.R_star, True)

    half = 10.0 * (pair.R_star - pair.r_star) / (R - r)
    lo, hi = -half, half
    m_lo = miss(integrate(lo))
    m_hi = miss(integrate(hi))
    if not (m_lo <= 0.0 <= m_hi):
        return ShootingResult(math.nan, None, math.inf, False)
    mid = 0.5 * (lo + hi)
    result = integrate(mid)
    m_mid = miss(result)
    for _ in range(200):
        if abs(m_mid) <= bisect_tol:
            break
        if m_mid > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
        result = integrate(mid)
        m_mid = miss(result)
    values, status = result
    if status != 0:
        return ShootingResult(mid, None, m_mid, False)
    prof = SampledProfile(grid=grid, values=values.copy())
    return ShootingResult(mid, prof, m_mid, abs(m_mid) <= bisect_tol)
