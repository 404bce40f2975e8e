"""Benchmark of the ``annuli`` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the command runs the workload as a closed
loop with one caller, for a fixed number of ops that take about S
seconds at the seed state, and prints the end-to-end metrics;
with ``--trace 1`` it runs a fixed number of ops with and without spans
around every traced ``annuli`` function and prints the per-layer metrics.
Every op's answer is checked.  End-to-end times are CPU times of this
process and its children (one caller, BLAS pinned to one thread), each
rescaled to a reference machine speed by ``speed.py``.  The last line of
stdout is the JSON result; the line before it records the environment,
the op tail and the raw wall-clock figures.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3           # extra set-ups in child processes before and after the loop
IMPORT_SAMPLES = 5
CLI_MAIN_SAMPLES = 3
TAIL_BEYOND = 10           # samples required above the reported tail latency
LOOP_CAP_S = 120           # an untraced loop stops early past this wall time


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-suite", "oracle-pairs", "cli-oneshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up of the workload and print it (used by the run itself)")
    return p.parse_args(argv)


def _die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _cpu() -> float:
    """CPU seconds used by this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _timed_setup(name: str, seed: int, env: dict):
    """Set up a workload; the clocks start before numpy is imported.
    Returns the workload, the set-up's CPU time and its wall time."""
    t0, c0 = time.perf_counter(), _cpu()
    import workloads
    wl = workloads.WORKLOADS[name](seed, env)
    wl.setup()
    return wl, _cpu() - c0, time.perf_counter() - t0


def _probe_setup(args, env):
    """(CPU, wall) seconds of one set-up in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        _die(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}", 1)
    probe = json.loads(proc.stdout.decode().splitlines()[-1])
    return probe["setup_s"], probe["setup_wall_s"]


def _tail(latencies):
    """Latency at the highest percentile with >= TAIL_BEYOND samples above
    it: the (TAIL_BEYOND + 1)-th largest sample, or the smallest when
    there are fewer samples than that."""
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    pct = 100.0 * i / (len(xs) - 1) if len(xs) > 1 else 0.0
    return xs[i], pct, len(xs) - 1 - i


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(annuli):
    import numpy
    return {
        "backend": annuli.BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _one(wl, i, run):
    """One op: returns (wall latency, CPU latency, Outcome or None)."""
    import oracles
    t0, c0 = time.perf_counter(), _cpu()
    try:
        result = run(i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        outcome = oracles.Outcome("failed", f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, _cpu() - c0, outcome
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    return wall, cpu, wl.check(i, result)


def _summarize(outcomes):
    wrong = [o for o in outcomes if o is not None and o.kind == "wrong"]
    failed = [o for o in outcomes if o is not None]
    for o in failed[:5]:
        print(f"perfbench: op failed ({o.kind}): {o.reason}", file=sys.stderr)
    return not wrong, len(failed)


def _untraced(args, wl, setup_main, env):
    import speed
    # setup_s is the median of this run's set-up and of child set-ups taken
    # on both sides of the timed loop; speed references are taken between
    # all of them, and every set-up and op is rescaled to the reference
    # speed by the references around it
    refs = [speed.measure()]
    setups = [(0, setup_main[0], setup_main[1])]

    def probe():
        cpu, wall = _probe_setup(args, env)
        setups.append((len(refs) - 1, cpu, wall))
        refs.append(speed.measure())

    for _ in range(SETUP_PROBES):
        probe()
    # a fixed number of ops, so that attempted and failed depend only on
    # the seed and --seconds; it fills --seconds at the workload's nominal
    # op cost.  The wall-time cap only keeps a run on a badly overloaded
    # host within its time limit.
    ops, outcomes = [], []
    start = time.perf_counter()
    for i in range(wl.ops_for(args.seconds)):
        if time.perf_counter() - start > min(3 * args.seconds, LOOP_CAP_S):
            print(f"perfbench: loop stopped after {i} ops at the wall-time cap", file=sys.stderr)
            break
        wall, cpu, outcome = _one(wl, i, wl.run)
        ops.append((len(refs) - 1, cpu, wall))
        refs.append(speed.measure())
        outcomes.append(outcome)
    loop_wall = time.perf_counter() - start
    n = len(ops)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for _ in range(SETUP_PROBES):
        probe()
    setups = [(cpu * speed.scale(refs, k), wall) for k, cpu, wall in setups]
    scaled = [cpu * speed.scale(refs, k) for k, cpu, _ in ops]
    walls = [wall for _, _, wall in ops]
    tail, pct, beyond = _tail(scaled)
    correct, failed = _summarize(outcomes)
    metrics = {
        "setup_s": (statistics.median(c for c, _ in setups), "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {"fail_ratio": failed / n, "op_tail_percentile": round(pct, 2),
            "op_tail_samples_beyond": beyond, "ops": n,
            "setup_samples_s": [c for c, _ in setups],
            "wall": {"setup_s": statistics.median(w for _, w in setups),
                     "ops_per_s": n / sum(walls), "op_p50_s": statistics.median(walls),
                     "op_tail_s": _tail(walls)[0], "loop_s": loop_wall}}
    return correct, n, failed, metrics, info


def _cli_probes(wl, env):
    """``cli.import_s`` in a fresh interpreter, ``cli.main.<cmd>.wall_s``
    in this one with stdout captured, on the canonical pair."""
    out = {}
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import annuli"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    out["cli.import_s"] = (statistics.median(times), "s")
    cli = wl.annuli.cli
    radii = ["--r", "1.0", "--R", "2.0", "--rstar", "1.0", "--Rstar", "2.718281828459045"]
    argvs = {
        "energy": ["energy", *radii],
        "minimize": ["minimize", *radii, "--grid-n", "1000"],
        "nitsche": ["nitsche", *radii],
        "sweep": ["sweep", *radii[:4], *radii[6:], "--sweep", "rstar=1.0:1.8:20"],
    }
    for cmd, argv in argvs.items():
        times = []
        for k in range(CLI_MAIN_SAMPLES + 1):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(list(argv))
            if code != 0:
                _die(f"annuli.cli.main({argv}) exited {code}", 1)
            if k:
                times.append(time.perf_counter() - t0)
        out[f"cli.main.{cmd}.wall_s"] = (statistics.median(times), "s")
    return out


def _traced(wl, env):
    import micro
    import tracing
    importlib.import_module("annuli.cli")
    run = wl.run_in_process if wl.name == "cli-oneshot" else wl.run
    n = wl.trace_ops
    tracer = tracing.Tracer()
    plain, traced = [], []
    # each input runs both untraced and traced, in alternating order, so
    # that machine-speed drift and the second run's warm state fall on
    # both sides of trace_overhead alike
    for i in range(n):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.append(_one(wl, i, run))
                continue
            tracer.op = i
            tracer.install()
            try:
                traced.append(_one(wl, i, run))
            finally:
                tracer.uninstall()
    untraced_wall = sum(lat for lat, _, _ in plain)
    traced_wall = sum(lat for lat, _, _ in traced)
    units = tracing.metric_units()
    metrics = {name: (value, units[name]) for name, value in tracer.metrics(n).items()}
    metrics["trace_overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics.update(_cli_probes(wl, env))
    metrics.update(micro.run(wl.annuli._kernels))

    required = set(wl.nonzero) | {k for k in metrics if k.startswith("cli.") or ".micro_" in k}
    missing = sorted(k for k in required if not metrics[k][0] > 0)
    if missing:
        _die("tracing self-test: metrics predicted nonzero read 0 (a binding was missed?): "
             + ", ".join(missing), 1)
    correct, failed = _summarize([o for _, _, o in plain + traced])
    info = {"fail_ratio": failed / (2 * n), "ops": 2 * n,
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans": len(tracer.spans)}
    return correct, 2 * n, failed, metrics, info


def _declared(trace: int):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "annuli" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'annuli'}; run from the root of a checkout")
    sys.path.insert(1, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    if args.setup_probe:
        _, cpu, wall = _timed_setup(args.workload, args.seed, env)
        print(json.dumps({"setup_s": cpu, "setup_wall_s": wall}))
        return 0

    wl, setup_cpu, setup_wall = _timed_setup(args.workload, args.seed, env)
    if wl.annuli is None:
        wl.annuli = importlib.import_module("annuli")
    if not Path(wl.annuli.__file__).resolve().is_relative_to(SRC.resolve()):
        _die(f"imported annuli from {wl.annuli.__file__}, not from {SRC}")
    import oracles
    problems = oracles.selftest(wl.annuli)
    if problems:
        _die("checker self-test failed: " + "; ".join(problems), 1)

    if args.trace:
        correct, attempted, failed, metrics, info = _traced(wl, env)
    else:
        correct, attempted, failed, metrics, info = _untraced(args, wl, (setup_cpu, setup_wall), env)

    declared = _declared(args.trace)
    if declared is not None and declared != list(metrics):
        _die(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json", 1)

    for name, (value, unit) in metrics.items():
        print(f"{wl.name:<13} {name:<52} {value:>14.6g} {unit}")
    print(f"{wl.name:<13} {'fail_ratio':<52} {info['fail_ratio']:>14.6g} ratio")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "environment": _environment(wl.annuli), **info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
