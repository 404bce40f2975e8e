"""Closed forms and answer checkers, written independently of ``annuli``.

Every checker returns None when an answer is right, or an ``Outcome``
that says why the op failed.  ``kind`` separates an honest failure that
the program reports itself (a route with ``converged=False``, a failed
``CheckResult``, a nonzero exit) from a wrong answer the program gave as
valid.  Both count as failed ops; only wrong answers make a run
incorrect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUITE_CHECKS = 20
ENERGY_FLOOR_SLACK = 1e-12   # rounding allowance below the analytic minimum
SAME_PROBLEM_REL = 1e-9      # direct and gradient descent minimize the same form
PROFILE_TOL = 1e-5           # times R*, in sup norm over PROFILE_RADII radii
PROFILE_RADII = 501
PROFILED = ("shoot", "direct_n100000")   # routes whose profiles are checked
CLI_REL = 1e-10              # printed closed-form columns against ours


@dataclass(frozen=True)
class Outcome:
    kind: str    # "failed" or "wrong"
    reason: str


def analytic_min(r: float, R: float, rs: float, Rs: float) -> float:
    """``4 pi (2 (R - r) + r R log^2(R*/r*) / (R - r))``."""
    ell = math.log(Rs / rs)
    return 4.0 * math.pi * (2.0 * (R - r) + r * R * ell * ell / (R - r))


def nitsche_threshold(r: float, R: float) -> float:
    """``3 r R^2 / (r^3 + 2 R^3)``."""
    return 3.0 * r * R * R / (r**3 + 2.0 * R**3)


def exp_profile(r: float, R: float, rs: float, Rs: float, t: np.ndarray) -> np.ndarray:
    """Increasing minimizer ``a exp(b / t)`` with ``H(r) = r*``, ``H(R) = R*``."""
    ell = math.log(Rs / rs)
    a = rs * math.exp(ell * R / (R - r))
    b = -ell * r * R / (R - r)
    return a * np.exp(b / t)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# ---------------------------------------------------------------------------
# verify-suite


def check_suite(report) -> Outcome | None:
    """All ``SUITE_CHECKS`` checks of a ``SuiteReport`` must pass."""
    if len(report.results) != SUITE_CHECKS:
        return Outcome("wrong", f"suite ran {len(report.results)} checks, expected {SUITE_CHECKS}")
    bad = [r.name for r in report.results if not r.passed]
    if bad:
        return Outcome("failed", "checks failed: " + ", ".join(bad))
    return None


# ---------------------------------------------------------------------------
# oracle-pairs


def check_oracle(radii, routes: dict, profiles: dict) -> Outcome | None:
    """Check the four minimizer routes on one pair.

    ``routes`` maps a route name to its result object (each has
    ``converged``; the discrete ones have ``energy``).  ``profiles`` maps
    each route in ``PROFILED`` to its profile sampled at ``PROFILE_RADII``
    radii evenly spaced on ``[r, R]``; it is read only when every route
    converged.
    """
    r, R, rs, Rs = radii
    stalled = [name for name, res in routes.items() if not res.converged]
    if stalled:
        return Outcome("failed", "not converged: " + ", ".join(stalled))
    floor = analytic_min(r, R, rs, Rs)
    for name, res in routes.items():
        if hasattr(res, "energy") and not res.energy >= floor * (1.0 - ENERGY_FLOOR_SLACK):
            return Outcome("wrong", f"{name} energy {res.energy!r} below the minimum {floor!r}")
    direct, gd = routes["direct_n1000"].energy, routes["gd_n1000"].energy
    if not _rel(gd, direct) <= SAME_PROBLEM_REL:
        return Outcome("wrong", f"gradient descent {gd!r} differs from direct {direct!r} on one grid")
    closed = exp_profile(r, R, rs, Rs, np.linspace(r, R, PROFILE_RADII))
    for name in PROFILED:
        sup = float(np.max(np.abs(profiles[name] - closed)))
        if not sup <= PROFILE_TOL * Rs:
            return Outcome("wrong", f"{name} profile {sup:.3e} from a*exp(b/t)")
    return None


# ---------------------------------------------------------------------------
# cli-oneshot


def _csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(label: str, printed: str, ref: float) -> Outcome | None:
    if not _rel(float(printed), ref) <= CLI_REL:
        return Outcome("wrong", f"{label} column {printed} vs closed form {ref!r}")
    return None


def check_cli(spec: dict, returncode: int, stdout: bytes, stderr: bytes,
              reference: bytes | None) -> Outcome | None:
    """Check one CLI invocation against its first run and our closed forms.

    ``spec`` holds the command and its radii as generated; for
    ``sweep`` it also holds the ``rstar`` axis.
    """
    if returncode != 0 or b"Traceback" in stderr:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return Outcome("failed", f"exit {returncode}: {tail[0]}")
    if reference is not None and stdout != reference:
        return Outcome("wrong", "stdout differs from the first run of the same argv")
    text = stdout.decode()
    cmd, (r, R, rs, Rs) = spec["command"], spec["radii"]
    try:
        if cmd == "energy":
            return _close("analytic", _csv(text)[0]["analytic"], analytic_min(r, R, rs, Rs))
        if cmd == "minimize":
            summary = {line.split(",")[0]: line.split(",")[1] for line in text.splitlines()[-3:]}
            bad = _close("analytic", summary["analytic"], analytic_min(r, R, rs, Rs))
            if bad is None and float(summary["gap"]) < 0.0:
                bad = Outcome("wrong", f"gap {summary['gap']} < 0")
            return bad
        if cmd == "nitsche":
            return _close("threshold", _csv(text)[0]["threshold"], nitsche_threshold(r, R))
        if cmd == "sweep":
            rows = _csv(text)
            axis = spec["axis"]
            if len(rows) != len(axis):
                return Outcome("wrong", f"sweep printed {len(rows)} rows, expected {len(axis)}")
            for row, rstar in zip(rows, axis):
                bad = (_close("analytic_min", row["analytic_min"], analytic_min(r, R, rstar, Rs))
                       or _close("threshold", row["threshold"], nitsche_threshold(r, R)))
                if bad is not None:
                    return bad
            return None
    except (IndexError, KeyError, ValueError) as exc:
        return Outcome("wrong", f"unparseable {cmd} output ({exc!r})")
    raise ValueError(f"unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# Self-test: every failure path must be caught.


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def selftest(annuli) -> list[str]:
    """Return the checker paths that failed to flag a planted fault."""
    problems = []

    def expect(label, outcome, kind):
        if outcome is None or outcome.kind != kind:
            problems.append(f"{label}: got {outcome!r}, expected {kind}")

    def expect_pass(label, outcome):
        if outcome is not None:
            problems.append(f"{label}: clean input flagged ({outcome.reason})")

    if _rel(analytic_min(1.0, 2.0, 1.0, math.e), 16.0 * math.pi) > 1e-15:
        problems.append("analytic_min(1, 2, 1, e) != 16 pi")
    if _rel(nitsche_threshold(1.0, 2.0), 12.0 / 17.0) > 1e-15:
        problems.append("nitsche_threshold(1, 2) != 12/17")

    # verify-suite: one failed CheckResult
    ok = [annuli.CheckResult(f"c{i}", True, 0.0, 0.0, 1.0) for i in range(SUITE_CHECKS)]
    expect_pass("suite clean", check_suite(annuli.SuiteReport(ok, 0, 0.0)))
    broken = ok[:-1] + [annuli.CheckResult("c-last", False, 2.0, 0.0, 1.0)]
    expect("suite with a failed check", check_suite(annuli.SuiteReport(broken, 0, 0.0)), "failed")

    # oracle-pairs: a route that did not converge, an energy moved 1e-6
    radii = (1.0, 2.0, 1.0, math.e)
    floor = analytic_min(*radii)
    closed = exp_profile(*radii, np.linspace(1.0, 2.0, PROFILE_RADII))

    @dataclass(frozen=True)
    class Discrete:
        energy: float
        converged: bool = True

    good_shot = annuli.ShootingResult(0.5, None, 0.0, True)

    def routes(**energies):
        out = {name: Discrete(floor * (1.0 + 1e-8)) for name in ("direct_n1000", "direct_n100000", "gd_n1000")}
        out.update({k: Discrete(v) for k, v in energies.items()})
        out["shoot"] = good_shot
        return out

    profiles = {"shoot": closed, "direct_n100000": closed}
    expect_pass("oracle clean", check_oracle(radii, routes(), profiles))
    bad_shot = routes()
    bad_shot["shoot"] = annuli.ShootingResult(math.nan, None, math.inf, False)
    expect("oracle shoot converged=False", check_oracle(radii, bad_shot, profiles), "failed")
    expect("oracle energy -1e-6", check_oracle(
        radii, routes(direct_n100000=floor * (1.0 + 1e-8) * (1.0 - 1e-6)), profiles), "wrong")
    expect("oracle energy +1e-6", check_oracle(
        radii, routes(gd_n1000=floor * (1.0 + 1e-8) * (1.0 + 1e-6)), profiles), "wrong")
    expect("oracle profile off", check_oracle(
        radii, routes(), {"shoot": closed * (1.0 + 2.0 * PROFILE_TOL), "direct_n100000": closed}), "wrong")

    # cli-oneshot: an analytic column moved 1e-6, output not byte-identical
    spec = {"command": "energy", "radii": radii}
    header = b"analytic,h1_numeric,h2_numeric,delta\n"
    good = header + f"{_fmt(floor)},{_fmt(floor)},{_fmt(floor)},1.0e-13\n".encode()
    moved = header + f"{_fmt(floor * (1.0 + 1e-6))},{_fmt(floor)},{_fmt(floor)},1.0e-13\n".encode()
    expect_pass("cli clean", check_cli(spec, 0, good, b"", good))
    expect("cli analytic +1e-6", check_cli(spec, 0, moved, b"", None), "wrong")
    expect("cli not byte-identical", check_cli(spec, 0, good.replace(b"13\n", b"14\n"), b"", good), "wrong")
    expect("cli traceback", check_cli(spec, 1, b"", b"Traceback (most recent call last):\n", good), "failed")
    nit = {"command": "nitsche", "radii": (1.0, 2.0, 1.0, 1.2)}
    nit_out = f"ratio,threshold,margin,admissible,harmonic_energy\n1,{_fmt(12.0 / 17.0)},0,false,\n".encode()
    expect_pass("cli nitsche clean", check_cli(nit, 0, nit_out, b"", None))
    minimize = {"command": "minimize", "radii": radii}
    neg_gap = f"t,H\n1,1\nenergy,{_fmt(floor)},,,\nanalytic,{_fmt(floor)},,,\ngap,-1.0e-12,,,\n".encode()
    expect("cli gap < 0", check_cli(minimize, 0, neg_gap, b"", None), "wrong")
    return problems
