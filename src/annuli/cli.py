"""Command line front end.

Subcommands: ``energy`` (analytic minimum against the numeric energies
of both closed-form minimizers), ``minimize`` (discrete profile table),
``nitsche`` (admissibility verdict for the harmonic BVP), ``verify``
(the full check suite), and ``sweep`` (parameter studies).  Output is
CSV or JSON with 12 significant digits, so identical configurations
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .energy import analytic_min_weighted_energy, dirichlet_lower_bound, weighted_energy
from .errors import ConfigError, EvaluationError
from .geometry import AnnulusPair, make_radial_grid
from .maps import GeneralizedRadialMap, exp_profile_from_boundary
from .nitsche import analytic_dirichlet_energy_radial, nitsche_condition
from .variational import el_residual, minimize_reduced_energy
from .verify import DEFAULT_PAIR, VerifyConfig, run_suite

_RADIUS_KEYS = ("r", "R", "rstar", "Rstar")
_INT_KEYS = ("grid_n", "sphere_order", "radial_order", "seed")
# config files may use the flag spelling or the field name
_FILE_ALIASES = {"output_format": "format", "output_path": "output"}
_KNOWN_FILE_KEYS = set(_RADIUS_KEYS) | set(_INT_KEYS) | {
    "format", "output", "output_format", "output_path", "sweep",
}
# a refined energy pass doubles both orders, and the sphere rule at order
# n has 2 n^2 nodes
MAX_QUADRATURE_ORDER = 512
# minimize prints a row per node; on a 2-core host 10^5 nodes take 1.6 s,
# 10^6 nodes 16 s and 0.8 GB
MAX_GRID_N = 10**5
# 10^4 sweep rows take under a second there
MAX_SWEEP_ROWS = 10**4


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one CLI invocation; :func:`parse_config`
    fills every field and holds the defaults.

    ``pair`` may be None for ``verify`` (defaults apply) and for
    ``sweep`` when a swept radius has no base value; ``base_radii``
    then carries the fixed ones."""

    command: str
    pair: AnnulusPair | None
    grid_n: int
    sphere_order: int
    radial_order: int
    seed: int
    output_format: str
    output_path: str | None
    sweeps: tuple
    base_radii: tuple


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a :class:`ConfigError`, so it prints as
    one ``error:`` line; subcommand parsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="annuli", description="weighted Dirichlet energies of annulus mappings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("energy", "analytic minimal energy and numeric energies of both minimizers"),
        ("minimize", "discrete minimization of the reduced radial energy"),
        ("nitsche", "harmonic BVP admissibility verdict"),
        ("verify", "run the verification suite"),
        ("sweep", "sweep one or two radii over ranges"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--r", type=float, default=None, help="domain inner radius")
        p.add_argument("--R", type=float, default=None, help="domain outer radius")
        p.add_argument("--rstar", type=float, default=None, help="target inner radius")
        p.add_argument("--Rstar", type=float, default=None, help="target outer radius")
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        p.add_argument("--sphere-order", type=int, default=None, dest="sphere_order")
        p.add_argument("--radial-order", type=int, default=None, dest="radial_order")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None, dest="output_format")
        p.add_argument("--output", default=None, dest="output_path")
        p.add_argument("--config", default=None, help="JSON or key=value config file")
        if name == "sweep":
            p.add_argument("--sweep", action="append", default=None,
                           help="PARAM=START:STOP:COUNT (repeat for a second axis)")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return data
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config file line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "sweep":
            data.setdefault("sweep", []).append(value)
        else:
            data[key] = value
    return data


def _coerce(key: str, value):
    """Check the type of one config file value and convert it.

    key=value files give strings; JSON files may also give numbers,
    which radii and integer fields accept unless they are booleans."""
    if key in _RADIUS_KEYS:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                return float(value)
            except (ValueError, OverflowError):
                pass
        raise ConfigError(f"config field {key!r}: {value!r} is not a number")
    if key in _INT_KEYS:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        raise ConfigError(f"config field {key!r}: {value!r} is not an integer")
    if key == "sweep":
        specs = [value] if isinstance(value, str) else value
        if isinstance(specs, list) and all(isinstance(spec, str) for spec in specs):
            return specs
        raise ConfigError(f"config field 'sweep': {value!r} is not a sweep spec or a list of them")
    if isinstance(value, str):
        return value
    raise ConfigError(f"config field {key!r}: {value!r} is not a string")


def _parse_sweep_spec(spec: str):
    try:
        param, rest = spec.split("=", 1)
        start_s, stop_s, count_s = rest.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"malformed sweep spec {spec!r}; expected PARAM=START:STOP:COUNT") from exc
    param = param.strip()
    if param not in _RADIUS_KEYS:
        raise ConfigError(f"sweep parameter must be one of {'/'.join(_RADIUS_KEYS)}, got {param!r}")
    if count < 1:
        raise ConfigError(f"sweep spec {spec!r} has an empty range")
    return param, start, stop, count


def parse_config(argv) -> RunConfig:
    """Turn an argv list into a validated :class:`RunConfig`.

    Explicit flags override config file entries, which override the
    defaults.  A JSON ``null`` leaves its field at the default.
    """
    ns = _build_parser().parse_args(argv)
    filedata = _read_config_file(ns.config) if ns.config else {}
    for key in filedata:
        if key not in _KNOWN_FILE_KEYS:
            raise ConfigError(f"config field {key!r} is not recognized")
    filedata = {key: _coerce(key, value) for key, value in filedata.items() if value is not None}

    def pick(key, default=None):
        flag = getattr(ns, key, None)
        if flag is not None:
            return flag
        for name in (key, _FILE_ALIASES.get(key)):
            if name is not None and name in filedata:
                return filedata[name]
        return default

    sweeps = ()
    swept: set = set()
    if ns.command == "sweep":
        raw = getattr(ns, "sweep", None) or filedata.get("sweep") or []
        sweeps = tuple(_parse_sweep_spec(s) for s in raw)
        if not sweeps:
            raise ConfigError("sweep needs at least one --sweep PARAM=START:STOP:COUNT")
        if len(sweeps) > 2:
            raise ConfigError("at most two sweep axes are supported")
        if math.prod(count for _, _, _, count in sweeps) > MAX_SWEEP_ROWS:
            raise ConfigError(f"a sweep has at most {MAX_SWEEP_ROWS} rows")
        swept = {param for param, _, _, _ in sweeps}

    radii = {k: pick(k) for k in _RADIUS_KEYS}
    given = [k for k, v in radii.items() if v is not None]
    missing = [k for k in _RADIUS_KEYS if radii[k] is None and k not in swept]
    pair = None
    if len(given) == 4:
        try:
            pair = AnnulusPair.from_radii(radii["r"], radii["R"], radii["rstar"], radii["Rstar"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif ns.command == "sweep":
        if missing:
            raise ConfigError(f"missing radius flags: {' '.join('--' + k for k in missing)}")
    elif given:
        raise ConfigError(f"missing radius flags: {' '.join('--' + k for k in missing)}")
    if pair is None and ns.command not in ("verify", "sweep"):
        raise ConfigError("this command needs all four radii (--r --R --rstar --Rstar)")

    fmt = pick("output_format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    cfg = RunConfig(
        command=ns.command,
        pair=pair,
        grid_n=pick("grid_n", 1000),
        sphere_order=pick("sphere_order", 32),
        radial_order=pick("radial_order", 64),
        seed=pick("seed", 42),
        output_format=fmt,
        output_path=pick("output_path"),
        sweeps=sweeps,
        base_radii=tuple(sorted((k, v) for k, v in radii.items() if v is not None)),
    )
    if not 2 <= cfg.grid_n <= MAX_GRID_N:
        raise ConfigError(f"grid_n must be between 2 and {MAX_GRID_N}")
    if cfg.sphere_order < 2 or cfg.radial_order < 2:
        raise ConfigError("quadrature orders must be at least 2")
    if max(cfg.sphere_order, cfg.radial_order) > MAX_QUADRATURE_ORDER:
        raise ConfigError(f"quadrature orders must be at most {MAX_QUADRATURE_ORDER}")
    return cfg


# ---------------------------------------------------------------------------
# Rendering.


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def render_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_csv(row.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def _json_ready(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.12e}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def render_json(payload) -> str:
    return json.dumps(_json_ready(payload), indent=2) + "\n"


def _emit(cfg: RunConfig, text: str):
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands.


def cmd_energy(cfg: RunConfig) -> tuple[str, int]:
    pair = cfg.pair
    analytic = analytic_min_weighted_energy(pair)
    reports = [
        weighted_energy(GeneralizedRadialMap(exp_profile_from_boundary(pair, orientation)),
                        pair, cfg.radial_order, cfg.sphere_order, refine=True)
        for orientation in ("increasing", "decreasing")
    ]
    row = {
        "analytic": analytic,
        "h1_numeric": reports[0].value,
        "h2_numeric": reports[1].value,
        "delta": max(r.refinement_delta for r in reports),
    }
    if cfg.output_format == "json":
        return render_json(row), 0
    return render_csv([row]), 0


def cmd_minimize(cfg: RunConfig) -> tuple[str, int]:
    pair = cfg.pair
    grid = make_radial_grid(pair.domain, cfg.grid_n)
    sol = minimize_reduced_energy(pair, grid)
    closed = exp_profile_from_boundary(pair, "increasing")
    t = grid.nodes
    h_closed = closed.eval(t)
    residual = np.full(t.size, math.nan)
    # a diagnostic column: where extreme radii take a residual out of the
    # float range it prints as nan or inf, like the endpoint rows
    with np.errstate(all="ignore"):
        residual[1:-1] = el_residual(sol.profile, t[1:-1])
    analytic = analytic_min_weighted_energy(pair)
    rows = [
        {
            "t": float(t[i]),
            "H_discrete": float(sol.profile.values[i]),
            "H_closed_form": float(h_closed[i]),
            "abs_error": float(abs(sol.profile.values[i] - h_closed[i])),
            "el_residual": float(residual[i]),
        }
        for i in range(t.size)
    ]
    summary = {"energy": sol.energy, "analytic": analytic, "gap": sol.energy - analytic}
    if cfg.output_format == "json":
        return render_json({"rows": rows, **summary}), 0
    text = render_csv(rows)
    for key, val in summary.items():
        text += f"{key},{val:.12e},,,\n"
    return text, 0


def _in_range(value: float) -> float | None:
    """None, printed as an empty cell, for a value beyond the float range."""
    return value if math.isfinite(value) else None


def _harmonic_energy(pair: AnnulusPair, verdict) -> float | None:
    """Energy of the radial harmonic map; None when the map is not
    admissible or its energy exceeds the float range."""
    return _in_range(analytic_dirichlet_energy_radial(pair)) if verdict.admissible else None


def cmd_nitsche(cfg: RunConfig) -> tuple[str, int]:
    verdict = nitsche_condition(cfg.pair)
    row = {
        "ratio": verdict.ratio,
        "threshold": verdict.threshold,
        "margin": verdict.margin,
        "admissible": verdict.admissible,
        "harmonic_energy": _harmonic_energy(cfg.pair, verdict),
    }
    if cfg.output_format == "json":
        return render_json(row), 0
    return render_csv([row]), 0


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    vconf = VerifyConfig(
        pair=cfg.pair if cfg.pair is not None else DEFAULT_PAIR,
        seed=cfg.seed,
        radial_order=cfg.radial_order,
        sphere_order=cfg.sphere_order,
        grid_n=cfg.grid_n,
    )
    report = run_suite(vconf)
    n_pass = sum(1 for r in report.results if r.passed)
    print(f"{n_pass}/{len(report.results)} checks passed in {report.wall_time:.2f}s",
          file=sys.stderr)
    if cfg.output_format == "json":
        payload = {"seed": report.seed, "passed": report.passed, "results": report.rows()}
        return render_json(payload), 0 if report.passed else 1
    return render_csv(report.rows()), 0 if report.passed else 1


def cmd_sweep(cfg: RunConfig) -> tuple[str, int]:
    base = dict(cfg.base_radii)
    # spans near the float limits overflow in linspace; the pair check
    # below rejects every value that came out inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        axes = [(param, np.linspace(start, stop, count))
                for param, start, stop, count in cfg.sweeps]
    combos = [{}]
    for param, values in axes:
        combos = [dict(c, **{param: float(v)}) for c in combos for v in values]
    rows = []
    for combo in combos:
        radii = dict(base, **combo)
        try:
            pair = AnnulusPair.from_radii(radii["r"], radii["R"], radii["rstar"], radii["Rstar"])
        except ValueError as exc:
            raise ConfigError(f"{exc}; the sweep hit an invalid pair at {radii}") from exc
        verdict = nitsche_condition(pair)
        rows.append({
            "r": pair.r,
            "R": pair.R,
            "rstar": pair.r_star,
            "Rstar": pair.R_star,
            "analytic_min": _in_range(analytic_min_weighted_energy(pair)),
            "threshold": verdict.threshold,
            "ratio": verdict.ratio,
            "admissible": verdict.admissible,
            "harmonic_energy": _harmonic_energy(pair, verdict),
            "lower_bound": _in_range(dirichlet_lower_bound(pair)),
        })
    if cfg.output_format == "json":
        return render_json(rows), 0
    return render_csv(rows), 0


_COMMANDS = {
    "energy": cmd_energy,
    "minimize": cmd_minimize,
    "nitsche": cmd_nitsche,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        text, code = _COMMANDS[cfg.command](cfg)
        _emit(cfg, text)
        return code
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; swallow the
        # shutdown flush too, then report the truncation
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
