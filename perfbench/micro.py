"""Kernel microbenches: the five cases of ``benchmarks/bench_kernels.py``.

Each case calls the public active-backend name in ``annuli._kernels``, so
the rows time whichever backend is live.  Bytes moved per call are
computed from the array sizes (8-byte floats, input arrays read once and
output arrays written once, kernel temporaries excluded), not measured.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5
F8 = 8


def _unit_points(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _gd_case():
    # canonical pair, n = 2000 intervals uniform in t; a_i integrates t^2
    # against K linear in t over interval i
    t = np.linspace(1.0, 2.0, 2001)
    a = (t[:-1] ** 2 + t[:-1] * t[1:] + t[1:] ** 2) / 3.0 / np.diff(t)
    k0 = np.linspace(0.0, 1.0, t.size)
    k0[1:-1] += 0.05 * np.sin(np.pi * np.linspace(0.0, 1.0, t.size)[1:-1])
    return a, k0


def run(kernels) -> dict:
    """Median seconds and computed bytes per call of each kernel case."""
    rng = np.random.default_rng(0)
    npts = 200_000
    pts = _unit_points(rng, npts)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m /= np.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]

    n = 100_000
    diag = 2.0 + rng.random(n)
    lower = -rng.random(n)
    upper = -rng.random(n)
    lower[0] = 0.0
    upper[-1] = 0.0
    rhs = rng.standard_normal(n)
    ga, k0 = _gd_case()
    steps = 20_000

    def gd():
        return kernels.gd_quadratic(ga, k0.copy(), 50_000, 1e-10, 1, 0.0)

    gd_iters = int(gd()[0])
    cases = {
        "mobius_apply_points": (lambda: kernels.mobius_apply_points(a, b, c, d, pts),
                                2 * npts * 3 * F8),
        "conformal_stretch_points": (lambda: kernels.conformal_stretch_points(a, b, c, d, pts),
                                     npts * 3 * F8 + npts * F8),
        "rk4_shoot": (lambda: kernels.rk4_shoot(1.0, 2.0, 1.0, 2.0, steps, 1e-12, 1e12),
                      (steps + 1) * F8),
        "thomas_solve": (lambda: kernels.thomas_solve(lower, diag, upper, rhs),
                         5 * n * F8),
        # per iteration: read a and k, write the interior of k
        "gd_quadratic": (gd, gd_iters * (ga.size + 2 * k0.size - 2) * F8),
    }
    out = {}
    for name, (call, nbytes) in cases.items():
        call()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"_kernels.{name}.micro_s"] = (statistics.median(times), "s")
        out[f"_kernels.{name}.micro_bytes_computed"] = (float(nbytes), "B")
    return out

