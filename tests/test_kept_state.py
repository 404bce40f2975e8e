import functools
import importlib
import pkgutil
import threading

import annuli

# every piece of state the package keeps across calls, with its measured
# traffic per warm `run_suite` op (seeds 100-109; an oracle-pairs op, one
# pair solved by every route, touches the direct solve's scratch alone).
# State is kept only where that traffic pays for it: adding an entry is an
# edit of this list, with the entry's measured hits per op
KEPT_STATE = {
    # 44.9 hits and 0.1 builds per op; an order-16 rule costs about 390 us
    "annuli.geometry._leggauss",
    # 46 hits per op, no builds
    "annuli.geometry._sphere_rule",
    # read 21 and 20 times per op on the kept rules, built with them
    "annuli.geometry.SphericalQuadrature._frames",
    "annuli.geometry.SphericalQuadrature._great_circle_points",
    # 66 hits and 20 builds per op: the pair's two stencils kept across ops
    "annuli.energy._fd_stencil",
    # read by the 17 Moebius members' energies per op on the kept stencils; an
    # FD energy of a Moebius member (inversion view, orders (9, 16)) takes
    # 0.78-0.89 ms through it against 2.2-2.5 ms through map_eval_many
    "annuli.energy._Stencil.polar",
    # 0 reads per op: computed only when read, as `annuli minimize` reads it
    "annuli.variational.DiscreteSolution.sup_error_vs_closed_form",
    # 3 takes per verify op and 2 per oracle op, one per direct solve, so a
    # warm solve at n = 1e5 allocates K alone
    "annuli.variational._scratch_local",
}


def _kept_state() -> set[str]:
    """The cached properties of the package's classes, and its module-level
    caches (functools' and its own, such as ``energy._fd_stencil``) and
    per-thread values, each named where it is defined."""
    found, homes = set(), {}
    for info in pkgutil.iter_modules(annuli.__path__):
        module = importlib.import_module(f"annuli.{info.name}")
        for name, obj in vars(module).items():
            where = f"{module.__name__}.{name}"
            if isinstance(obj, type):
                if obj.__module__ == module.__name__:
                    found.update(f"{where}.{attr}" for attr, value in vars(obj).items()
                                 if isinstance(value, functools.cached_property))
            elif callable(getattr(obj, "cache_clear", None)) or isinstance(obj, threading.local):
                # an object imported elsewhere is named by its own module
                if id(obj) not in homes or getattr(obj, "__module__", None) == module.__name__:
                    homes[id(obj)] = where
    return found | set(homes.values())


def test_the_kept_state_is_the_listed_state():
    assert _kept_state() == KEPT_STATE
