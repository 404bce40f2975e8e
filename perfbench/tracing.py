"""Spans around calls into the public functions of each ``annuli`` module.

``from .x import f`` copies the binding, so a wrapper must replace ``f``
in every module that holds it.  ``Tracer.install`` replaces each binding
that *is* the original function object, in every loaded ``annuli``
module, and ``uninstall`` puts the originals back.  Spans stay in memory;
self time is a span's duration minus the time its direct child spans
cover (calls are sequential in one thread, so children never overlap).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    return lambda a, k, res: {"points": np.asarray(_arg(a, k, index, name)).size // 3}


def _quad_nodes(a, k, res):
    # a dotted key names a layer-wide count instead of a per-function one.
    # Nodes implied by EnergyReport.quad_orders: the FD route uses the
    # product rule (radial x 2 sphere^2), the decomposition route the two
    # rules separately; a refinement pass doubles both orders
    ro, so = res.quad_orders
    fd = res.radial_part is None
    nodes = lambda r, s: r * 2 * s * s if fd else r + 2 * s * s
    total = nodes(ro, so) + (nodes(2 * ro, 2 * so) if res.refinement_delta is not None else 0)
    return {"energy.quad_nodes": total}


# layer -> function -> (metrics of the function, work counter or None)
LAYERS = {
    "sphere_maps": {
        "mobius_apply_points": (("calls", "points", "self_s"), _points(1, "pts")),
        "conformal_stretch_points": (("calls", "points", "self_s"), _points(1, "pts")),
        "sphere_inequality_integral": (("calls", "self_s"), None),
    },
    "_kernels": {
        "mobius_apply_points": (("calls", "self_s"), None),
        "conformal_stretch_points": (("calls", "self_s"), None),
        "rk4_shoot": (("calls", "self_s", "steps"),
                      lambda a, k, res: {"steps": int(_arg(a, k, 4, "n_steps"))}),
        "thomas_solve": (("calls", "self_s", "n"),
                         lambda a, k, res: {"n": len(_arg(a, k, 1, "diag"))}),
        "gd_quadratic": (("calls", "self_s"), None),
    },
    "maps": {
        "map_eval_many": (("calls", "points", "self_s"), _points(1, "points")),
    },
    "energy": {
        "weighted_energy": (("calls", "self_s"), _quad_nodes),
        "dirichlet_energy": (("calls", "self_s"), _quad_nodes),
        "reduced_energy": (("calls", "self_s"), None),
    },
    "geometry": {
        "make_sphere_quadrature": (("calls", "self_s"), None),
        "make_radial_grid": (("calls", "self_s"), None),
        "gauss_legendre": (("calls", "self_s"), None),
    },
    "variational": {
        "minimize_reduced_energy": (("calls", "nodes", "self_s"),
                                    lambda a, k, res: {"nodes": _arg(a, k, 1, "grid").nodes.size}),
        "gradient_descent_minimize": (("calls", "iterations", "self_s"),
                                      lambda a, k, res: {"iterations": res.iterations}),
        "shoot_el": (("calls", "self_s", "converged_ratio"),
                     lambda a, k, res: {"converged": int(bool(res.converged))}),
    },
    "nitsche": {
        name: (("calls", "self_s"), None)
        for name in ("nitsche_condition", "harmonic_profile_monotone",
                     "harmonic_radial_bvp", "analytic_dirichlet_energy_radial")
    },
    "verify": {
        name: (("wall_s", "self_s"), None)
        for name in ("check_residuals", "check_minimal_energy", "check_inversion_invariance",
                     "check_sphere_inequality", "check_harmonic_bvp")
    },
}

UNITS = {"calls": "count", "points": "count", "steps": "count", "n": "count",
         "nodes": "count", "iterations": "count", "converged_ratio": "ratio",
         "self_s": "s", "wall_s": "s"}


def metric_units() -> dict:
    """Name -> unit of every metric ``Tracer.metrics`` returns, in order."""
    out = {}
    for layer, funcs in LAYERS.items():
        for fname, (kinds, _) in funcs.items():
            for kind in kinds:
                out[f"{layer}.{fname}.{kind}"] = UNITS[kind]
        if layer == "energy":
            out["energy.quad_nodes"] = "count"
    return out


class Tracer:
    def __init__(self):
        self.spans = []        # (op, name, start, end, parent index)
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key if "." in key else f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "annuli" or n.startswith("annuli."))]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"annuli.{layer}"]
            for fname, (_, counter) in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def metrics(self, n_ops: int) -> dict:
        """Per-op averages over ``n_ops`` traced ops, keyed as ``metric_units``."""
        calls = defaultdict(int)
        wall = defaultdict(float)
        child = defaultdict(float)
        for op, name, start, end, parent in self.spans:
            calls[name] += 1
            wall[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for idx, (op, name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
        values = {}
        for name, unit in metric_units().items():
            stem, kind = name.rsplit(".", 1)
            if kind == "calls":
                v = calls[stem]
            elif kind == "self_s":
                v = self_s[stem]
            elif kind == "wall_s":
                v = wall[stem]
            elif kind == "converged_ratio":
                values[name] = self.counts[f"{stem}.converged"] / calls[stem] if calls[stem] else 0.0
                continue
            else:
                v = self.counts[name]
            values[name] = v / n_ops
        return values
