"""The three workloads.  Each is a closed loop with one caller.

A workload builds its inputs from the seed in ``setup``; ``run(i)`` is
the timed op on input ``i`` and ``check(i, result)`` judges the answer
outside the timed region.  ``annuli`` is imported inside ``setup`` so
that the import counts toward set-up time, and the package is always
reached through module attributes so tracing wrappers apply.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import math
import subprocess
import sys

import numpy as np

import oracles

N_INPUTS = 512
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Workload:
    name = ""
    trace_ops = 1          # ops per traced run; counts repeat exactly for one seed
    nominal_op_s = 1.0     # CPU seconds per op at the seed state; sets the untraced op count
    nonzero = ()           # per-layer metrics the tracing self-test requires > 0

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        self.annuli = None

    def _import(self):
        self.annuli = importlib.import_module("annuli")
        self.annuli.warm_up()

    def ops_for(self, seconds: float) -> int:
        """Ops in an untraced run of about ``seconds`` at the seed state."""
        return max(3, round(seconds / self.nominal_op_s))

    def setup(self):
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result):
        raise NotImplementedError


def _names(prefixes_kinds):
    return tuple(f"{p}.{k}" for p, kinds in prefixes_kinds for k in kinds)


_CALLS_SELF = ("calls", "self_s")


class VerifySuite(Workload):
    """One op is ``run_suite(VerifyConfig(seed=s))``; it fails unless all
    20 checks pass."""

    name = "verify-suite"
    trace_ops = 2
    nominal_op_s = 4.0
    nonzero = _names([
        ("sphere_maps.mobius_apply_points", ("calls", "points", "self_s")),
        ("sphere_maps.conformal_stretch_points", ("calls", "points", "self_s")),
        ("sphere_maps.sphere_inequality_integral", _CALLS_SELF),
        ("_kernels.mobius_apply_points", _CALLS_SELF),
        ("_kernels.conformal_stretch_points", _CALLS_SELF),
        ("_kernels.thomas_solve", ("calls", "self_s", "n")),
        ("maps.map_eval_many", ("calls", "points", "self_s")),
        ("energy.weighted_energy", _CALLS_SELF),
        ("energy.dirichlet_energy", _CALLS_SELF),
        ("energy.reduced_energy", _CALLS_SELF),
        ("energy", ("quad_nodes",)),
        ("geometry.make_sphere_quadrature", _CALLS_SELF),
        ("geometry.make_radial_grid", _CALLS_SELF),
        ("geometry.gauss_legendre", _CALLS_SELF),
        ("variational.minimize_reduced_energy", ("calls", "nodes", "self_s")),
        ("nitsche.nitsche_condition", _CALLS_SELF),
        ("nitsche.harmonic_profile_monotone", _CALLS_SELF),
        ("nitsche.harmonic_radial_bvp", _CALLS_SELF),
        ("nitsche.analytic_dirichlet_energy_radial", _CALLS_SELF),
    ] + [(f"verify.{c}", ("wall_s", "self_s")) for c in (
        "check_residuals", "check_minimal_energy", "check_inversion_invariance",
        "check_sphere_inequality", "check_harmonic_bvp")])

    def setup(self):
        self._import()
        rng = np.random.default_rng(self.seed)
        self.inputs = [int(s) for s in rng.integers(0, 2**31, size=N_INPUTS)]

    def run(self, i):
        a = self.annuli
        return a.run_suite(a.VerifyConfig(seed=self.inputs[i % N_INPUTS]))

    def check(self, i, report):
        return oracles.check_suite(report)


class OraclePairs(Workload):
    """One op solves one ``random_annulus_pair`` (unrestricted) by four
    routes: direct solve at n = 1000 and n = 100 000, gradient descent at
    n = 1000 and RK4 shooting."""

    name = "oracle-pairs"
    trace_ops = 6
    nominal_op_s = 1.7
    nonzero = _names([
        ("_kernels.rk4_shoot", ("calls", "self_s", "steps")),
        ("_kernels.thomas_solve", ("calls", "self_s", "n")),
        ("_kernels.gd_quadratic", _CALLS_SELF),
        ("geometry.make_radial_grid", _CALLS_SELF),
        ("variational.minimize_reduced_energy", ("calls", "nodes", "self_s")),
        ("variational.gradient_descent_minimize", ("calls", "iterations", "self_s")),
        ("variational.shoot_el", _CALLS_SELF),
    ])

    def setup(self):
        self._import()
        rng = np.random.default_rng(self.seed)
        pool = sorted((self.annuli.random_annulus_pair(rng) for _ in range(N_INPUTS)),
                      key=lambda p: p.R / p.r)
        # An op's cost follows the domain ratio R/r (gradient-descent
        # iterations, shooting-bracket misses).  Walking the ratio ranks in
        # golden-ratio steps spreads any run of consecutive ops evenly over
        # the seed's pool, so a short run is not at the mercy of a few draws.
        self.inputs = [pool[int((k * GOLDEN) % 1.0 * N_INPUTS)] for k in range(N_INPUTS)]

    def run(self, i):
        a = self.annuli
        pair = self.inputs[i % N_INPUTS]
        grid = a.make_radial_grid(pair.domain, 1000)
        return {
            "direct_n1000": a.minimize_reduced_energy(pair, grid),
            "direct_n100000": a.minimize_reduced_energy(pair, a.make_radial_grid(pair.domain, 100_000)),
            "gd_n1000": a.gradient_descent_minimize(pair, grid),
            "shoot": a.shoot_el(pair),
        }

    def check(self, i, routes):
        pair = self.inputs[i % N_INPUTS]
        radii = (pair.r, pair.R, pair.r_star, pair.R_star)
        profiles = {}
        if all(res.converged for res in routes.values()):
            ts = np.linspace(pair.r, pair.R, oracles.PROFILE_RADII)
            profiles = {name: routes[name].profile.eval(ts) for name in oracles.PROFILED}
        return oracles.check_oracle(radii, routes, profiles)


def _draw_pair(rng):
    """Radii log-uniform in [0.1, 10], both shells with ratio >= 1.02."""
    while True:
        vals = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=4))
        r, R = sorted(float(v) for v in vals[:2])
        rs, Rs = sorted(float(v) for v in vals[2:])
        if R / r >= 1.02 and Rs / rs >= 1.02:
            return r, R, rs, Rs


class CliOneshot(Workload):
    """One op is one ``python -m annuli.cli`` subprocess.  Ops cycle
    through energy, minimize, nitsche and sweep over 4 seeded pairs."""

    name = "cli-oneshot"
    trace_ops = 16
    nominal_op_s = 0.3
    n_pairs = 4
    nonzero = _names([
        ("sphere_maps.conformal_stretch_points", ("calls", "points", "self_s")),
        ("_kernels.conformal_stretch_points", _CALLS_SELF),
        ("_kernels.thomas_solve", ("calls", "self_s", "n")),
        ("energy.weighted_energy", _CALLS_SELF),
        ("energy", ("quad_nodes",)),
        ("geometry.make_sphere_quadrature", _CALLS_SELF),
        ("geometry.make_radial_grid", _CALLS_SELF),
        ("geometry.gauss_legendre", _CALLS_SELF),
        ("variational.minimize_reduced_energy", ("calls", "nodes", "self_s")),
        ("nitsche.nitsche_condition", _CALLS_SELF),
    ])

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for _ in range(self.n_pairs):
            radii = _draw_pair(rng)
            flags = [f for k, v in zip(("--r", "--R", "--rstar", "--Rstar"), radii) for f in (k, repr(v))]
            _, _, rs, Rs = radii
            lo, hi = rs, rs + 0.5 * (Rs - rs)
            self.inputs += [
                {"command": "energy", "radii": radii, "argv": ["energy", *flags]},
                {"command": "minimize", "radii": radii, "argv": ["minimize", *flags, "--grid-n", "1000"]},
                {"command": "nitsche", "radii": radii, "argv": ["nitsche", *flags]},
                {"command": "sweep", "radii": radii, "axis": np.linspace(lo, hi, 20),
                 "argv": ["sweep", *flags[:4], *flags[6:], "--sweep", f"rstar={lo!r}:{hi!r}:20"]},
            ]
        self.references = {}
        # untimed warm invocation; its output is the reference for input 0
        self.check(0, self.run(0))

    def run(self, i):
        argv = self.inputs[i % len(self.inputs)]["argv"]
        proc = subprocess.run([sys.executable, "-m", "annuli.cli", *argv],
                              capture_output=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, i):
        """The same op through ``annuli.cli.main`` in this process, for
        the traced run (a subprocess cannot be traced from here)."""
        argv = self.inputs[i % len(self.inputs)]["argv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.annuli.cli.main(list(argv))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, i, result):
        spec = self.inputs[i % len(self.inputs)]
        code, stdout, stderr = result
        ref = self.references.setdefault(i % len(self.inputs), stdout)
        return oracles.check_cli(spec, code, stdout, stderr, ref)


WORKLOADS = {w.name: w for w in (VerifySuite, OraclePairs, CliOneshot)}

