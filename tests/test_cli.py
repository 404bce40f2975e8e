import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annuli import (
    AnnulusPair,
    analytic_min_weighted_energy,
    exp_profile_from_boundary,
    make_radial_grid,
    perturbed_profile,
)
from annuli.cli import (
    MAX_GRID_N,
    MAX_SWEEP_ROWS,
    _build_parser,
    main,
    parse_config,
    render_csv,
    render_json,
)
from annuli.variational import _discrete_el_residual

E_STR = "2.718281828459045"
CANON = ["--r", "1", "--R", "2", "--rstar", "1", "--Rstar", E_STR]
# the flags each command reads besides the radii, --format, --output and --config
_READS = {
    "energy": [],
    "minimize": ["--grid-n"],
    "nitsche": [],
    "verify": ["--seed"],
    "sweep": ["--sweep"],
}
_COMMON = {"--r", "--R", "--rstar", "--Rstar", "--format", "--output", "--config"}


def _assert_same_bytes_at_any_blas_thread_count(argv):
    import subprocess
    import sys as _sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([_sys.executable, "-m", "annuli.cli", *argv],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_flags_build_a_pair(self):
        cfg = parse_config(["energy", *CANON])
        assert cfg.pair.r == 1.0 and math.isclose(cfg.pair.R_star, math.e)
        assert cfg.grid_n == 1000 and cfg.seed == 42
        assert cfg.output_format == "csv"

    def test_flag_overrides_config_file(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("r=1\nR=2\nrstar=1\nRstar=2.0\nseed=9\n")
        cfg = parse_config(["verify", "--config", str(f), "--seed", "7"])
        assert cfg.seed == 7

    @pytest.mark.parametrize("text", [
        json.dumps({"r": 1, "R": 2, "rstar": 1, "Rstar": 2.0, "format": "json"}),
        "r=1\nR=2\nrstar=1\nRstar=2.0\nformat=json\n",
    ])
    def test_config_file_with_a_byte_order_mark(self, tmp_path, text):
        # as an editor saves "UTF-8 with BOM"
        f = tmp_path / "c.txt"
        f.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        cfg = parse_config(["nitsche", "--config", str(f)])
        assert cfg.pair.r == 1.0 and cfg.output_format == "json"

    def test_each_command_takes_only_the_flags_it_reads(self):
        [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {opt for action in p._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")}
                 for name, p in sub.choices.items()}
        assert flags == {name: _COMMON | set(reads) for name, reads in _READS.items()}
        assert sum(map(len, flags.values())) == 38

    @pytest.mark.parametrize("command, key", [
        ("nitsche", "grid_n"), ("energy", "grid_n"),
    ])
    def test_unread_config_key_is_not_range_checked(self, tmp_path, capsys, command, key):
        # one config file may hold the keys of every command
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"r": 1, "R": 2, "rstar": 1, "Rstar": 2, "grid_n": 4, key: 1}))
        code, out, err = run_cli(capsys, command, "--config", str(f))
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("key", ["radial_order", "sphere_order"])
    def test_quadrature_orders_are_no_option(self, tmp_path, capsys, key):
        # the energy command's radial rule is exact at its fixed orders
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"r": 1, "R": 2, "rstar": 1, "Rstar": 2, key: 64}))
        code, out, err = run_cli(capsys, "energy", "--config", str(f))
        assert (code, out) == (2, "")
        assert err == f"error: config field {key!r} is not recognized\n"
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(capsys, "energy", *CANON, flag, "64")
        assert (code, out, err) == (2, "", f"error: unrecognized arguments: {flag} 64\n")

    def test_json_config_file(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"r": 1, "R": 2, "rstar": 1, "Rstar": 2.0, "format": "json"}))
        cfg = parse_config(["energy", "--config", str(f)])
        assert cfg.output_format == "json"

    def test_swapped_radii_message(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--r", "2", "--R", "1",
                               "--rstar", "1", "--Rstar", "3")
        assert code == 2
        assert "inner radius must be less than outer" in err

    def test_missing_radius_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--r", "1", "--R", "2", "--rstar", "1")
        assert code == 2
        assert "--Rstar" in err

    def test_unknown_config_key_is_diagnosed(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("bogus=1\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(f))
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize("command, data, expected", [
        ("sweep", {"sweep": 5}, "'sweep': 5 is not a sweep spec"),
        ("sweep", {"sweep": [1]}, "'sweep': [1] is not a sweep spec"),
        ("nitsche", {"output": 7}, "'output': 7 is not a string"),
        ("minimize", {"grid_n": 10.9}, "'grid_n': 10.9 is not an integer"),
        ("nitsche", {"r": True}, "'r': True is not a number"),
        ("minimize", {"grid_n": True}, "'grid_n': True is not an integer"),
    ])
    def test_json_value_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys,
                                                           command, data, expected):
        f = tmp_path / "c.json"
        radii = {"r": 1, "R": 2, "rstar": 1, "Rstar": 2}
        if command == "sweep":
            del radii["Rstar"]
        f.write_text(json.dumps({**radii, **data}))
        code, out, err = run_cli(capsys, command, "--config", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: config field {expected}")
        assert err.count("\n") == 1

    def test_json_null_leaves_the_default(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"r": 1, "R": 2, "rstar": 1, "Rstar": 2, "grid_n": None}))
        assert parse_config(["minimize", "--config", str(f)]).grid_n == 1000

    def test_malformed_config_line_number(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("r=1\nnot a pair\n")
        with pytest.raises(Exception, match="line 2"):
            parse_config(["energy", "--config", str(f)])


class TestRendering:
    def test_csv_uses_12_digit_scientific_floats(self):
        text = render_csv([{"x": 1.0, "flag": True, "empty": None}])
        assert text == "x,flag,empty\n1.000000000000e+00,true,\n"

    def test_csv_quotes_a_field_holding_a_comma(self):
        rows = [{"name": "row", "passed": True, "detail": 'pairs (1, 2, 12, 17); "exact"'},
                {"name": "plain", "passed": False, "detail": "no comma"}]
        text = render_csv(rows)
        assert text.splitlines()[2] == "plain,false,no comma"
        read = list(csv.reader(io.StringIO(text)))
        assert [len(r) for r in read] == [3, 3, 3]
        assert read[1] == ["row", "true", 'pairs (1, 2, 12, 17); "exact"']

    def test_json_rounds_and_nests(self):
        text = render_json({"v": 1.23456789012345e-3, "nan": math.nan})
        data = json.loads(text)
        assert data["v"] == float("1.234567890123e-3")
        assert data["nan"] is None


class TestEnergyCommand:
    def test_reference_value_in_csv(self, capsys):
        code, out, _ = run_cli(capsys, "energy", *CANON)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "analytic,h1_numeric,h2_numeric,delta"
        analytic = float(row.split(",")[0])
        assert math.isclose(analytic, 16.0 * math.pi, rel_tol=1e-12)

    def test_degenerate_target(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--r", "1", "--R", "2",
                               "--rstar", "1", "--Rstar", "1")
        assert code == 0
        analytic = float(out.strip().splitlines()[1].split(",")[0])
        assert math.isclose(analytic, 8.0 * math.pi, rel_tol=1e-12)

    def test_json_object_keys(self, capsys):
        code, out, _ = run_cli(capsys, "energy", *CANON, "--format", "json")
        data = json.loads(out)
        assert set(data) == {"analytic", "h1_numeric", "h2_numeric", "delta"}


class TestMinimizeCommand:
    def test_profile_table_shape_and_accuracy(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", *CANON, "--grid-n", "1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,H_discrete,H_closed_form,abs_error,el_residual"
        data_lines = [l for l in lines[1:] if not l.startswith(("energy", "analytic", "gap"))]
        assert len(data_lines) == 1001
        max_err = max(float(l.split(",")[3]) for l in data_lines)
        assert max_err <= 1e-5
        assert lines[-1].startswith("gap,")

    def test_error_shrinks_4x_when_n_doubles(self, capsys):
        errs = {}
        for n in (500, 1000):
            _, out, _ = run_cli(capsys, "minimize", *CANON, "--grid-n", str(n))
            rows = [l for l in out.strip().splitlines()[1:]
                    if not l.startswith(("energy", "analytic", "gap"))]
            errs[n] = max(float(l.split(",")[3]) for l in rows)
        assert 3.2 < errs[500] / errs[1000] < 4.8

    # the last four domains have a stiffness that overflows (t0 t1 on the
    # first, t1^2 / 3 on the second) or underflows to 0; the constant
    # profile and its residual need none
    @pytest.mark.parametrize("radii", [("1", "2", "1.5", "1.5"), ("1e160", "2e160", "1", "1"),
                                       ("1", "1e300", "1", "1"), ("1e-170", "2e-170", "3", "3"),
                                       ("5e-324", "1e-300", "1", "1")], ids="-".join)
    def test_constant_solution_for_equal_targets(self, capsys, radii):
        r, R, rstar, Rstar = radii
        code, out, _ = run_cli(capsys, "minimize", "--r", r, "--R", R,
                               "--rstar", rstar, "--Rstar", Rstar, "--grid-n", "4")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]
                if not l.startswith(("energy", "analytic", "gap"))]
        assert len(rows) == 5
        assert all(float(row[1]) == float(rstar) for row in rows)
        assert all(float(row[4]) == 0.0 for row in rows[1:-1])

    def test_residual_column_is_the_discrete_euler_lagrange_residual(self, capsys):
        # on the direct solve the column reads rounding; a 1e-3 bump of the
        # closed form reads far above it.  The finite-difference column
        # read 1.5e-6 on the direct solve here.
        n = 10_000
        _, out, _ = run_cli(capsys, "minimize", *CANON, "--grid-n", str(n))
        rows = out.strip().splitlines()[1:n + 2]
        assert rows[0].endswith(",nan") and rows[-1].endswith(",nan")
        direct = max(abs(float(l.split(",")[4])) for l in rows[1:-1])
        assert direct <= 1e-8
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, float(E_STR))
        grid = make_radial_grid(pair.domain, n)
        bump = perturbed_profile(exp_profile_from_boundary(pair), 1e-3, 3, seed=1, grid=grid)
        assert np.max(np.abs(_discrete_el_residual(bump))) >= 100.0 * direct

    def test_residual_column_reads_zero_for_equal_targets(self, capsys):
        _, out, _ = run_cli(capsys, "minimize", "--r", "1", "--R", "2",
                            "--rstar", "1.5", "--Rstar", "1.5", "--grid-n", "4")
        column = [l.split(",")[4] for l in out.strip().splitlines()[1:6]]
        assert column == ["nan"] + ["0.000000000000e+00"] * 3 + ["nan"]

    def test_minimizer_whose_exp_of_the_exponent_overflows(self, capsys):
        # exp(2 log(1e290)) overflows; the profiles are anchored at t = r, so
        # neither the increasing a exp(b / t), a = 1e280, nor the decreasing
        # one, a = 1e-590, is formed
        argv = ["--r", "1", "--R", "2", "--rstar", "1e-300", "--Rstar", "1e-10"]
        code, out, err = run_cli(capsys, "minimize", *argv, "--grid-n", "8")
        assert code == 0 and err == ""
        rows = [l.split(",") for l in out.splitlines()[1:10]]
        assert math.isclose(float(rows[0][2]), 1e-300, rel_tol=1e-13)
        assert math.isclose(float(rows[-1][2]), 1e-10, rel_tol=1e-13)
        code, out, err = run_cli(capsys, "energy", *argv, "--format", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        # 4 pi (2 (R - r) + r R ell^2 / (R - r)), ell = log(1e290)
        ell = 290.0 * math.log(10.0)
        expect = 4.0 * math.pi * (2.0 + 2.0 * ell * ell)
        for key in ("analytic", "h1_numeric", "h2_numeric"):
            assert math.isclose(data[key], expect, rel_tol=1e-12), key

    def test_same_bytes_at_any_blas_thread_count(self):
        # the discrete energy sums a plain array, not a BLAS dot; a BLAS
        # dot moved the gap row in its seventh digit on this pair
        _assert_same_bytes_at_any_blas_thread_count(
            ["minimize", "--r", "0.3", "--R", "7", "--rstar", "0.2", "--Rstar", "9",
             "--grid-n", "100000"])


class TestNitscheCommand:
    def test_admissible_pair(self, capsys):
        code, out, _ = run_cli(capsys, "nitsche", "--r", "1", "--R", "2",
                               "--rstar", "1", "--Rstar", "2")
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert vals["admissible"] == "true"
        assert math.isclose(float(vals["threshold"]), 12.0 / 17.0, rel_tol=1e-12)
        assert vals["harmonic_energy"] != ""

    def test_inadmissible_pair_has_no_energy_column_value(self, capsys):
        _, out, _ = run_cli(capsys, "nitsche", "--r", "1", "--R", "2",
                            "--rstar", "1", "--Rstar", "1.01")
        row = out.strip().splitlines()[1]
        assert row.endswith(",")  # empty harmonic_energy cell


class TestVerifyCommand:
    def test_passes_and_reports_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "42")
        assert code == 0
        assert "checks passed" in err
        assert out.startswith("name,passed,")
        # fields are joined unquoted, so no detail may hold a comma
        header, *rows = out.splitlines()
        assert all(row.count(",") == header.count(",") for row in rows)

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--seed", "42", "--output", str(a)]) == 0
        assert main(["verify", "--seed", "42", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_matches_the_pinned_bytes(self, capsys):
        # the file CI compares the installed entry point's output against
        from pathlib import Path

        pinned = Path(__file__).parent / "data" / "verify_seed42.json"
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--format", "json")
        assert code == 0 and out == pinned.read_text()

    def test_same_bytes_at_any_blas_thread_count(self):
        # the point batches and quadrature sums of the verify path take no
        # BLAS product, whose threaded split would change the order of sums
        _assert_same_bytes_at_any_blas_thread_count(["verify", "--seed", "42"])

    def test_failing_suite_exits_nonzero(self, capsys, monkeypatch):
        import annuli.cli as cli_mod
        from annuli.verify import CheckResult, SuiteReport

        def fake_suite(cfg):
            return SuiteReport([CheckResult("stub", False, 1.0, 0.0, 0.0)], 42, 0.0)

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "0/1" in err

    def test_zero_radius_runs_no_check(self, capsys, monkeypatch):
        import annuli.cli as cli_mod

        def no_suite(cfg):
            raise AssertionError("the suite ran on an invalid pair")

        monkeypatch.setattr(cli_mod, "run_suite", no_suite)
        code, _, err = run_cli(capsys, "verify", "--r", "1", "--R", "2", "--rstar", "0",
                               "--Rstar", "1")
        assert (code, err) == (2, "error: inner radius must be positive, got 0.0\n")


class TestThinShells:
    """Pairs whose unanchored minimizer coefficient
    ``a = r_star exp(log(R_star / r_star) R / (R - r))``, ``exp(771)`` and
    ``exp(772)``, lies beyond the float range; every command answers."""

    @pytest.mark.parametrize("radii", [("1", "1.0009", "1", "2"), ("1", "1.006", "1", "100")])
    def test_energy_minimize_and_verify_exit_zero(self, capsys, radii):
        argv = [v for flag, x in zip(("--r", "--R", "--rstar", "--Rstar"), radii)
                for v in (flag, x)]
        r, R, rs, Rs = map(float, radii)
        # 4 pi (2 (R - r) + r R log^2(R* / r*) / (R - r)): 6 714.4 and 44 683.7
        e_min = 4.0 * math.pi * (2.0 * (R - r) + r * R * math.log(Rs / rs) ** 2 / (R - r))
        code, out, err = run_cli(capsys, "energy", *argv, "--format", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        for key in ("analytic", "h1_numeric", "h2_numeric"):
            assert math.isclose(data[key], e_min, rel_tol=1e-12), key
        code, out, err = run_cli(capsys, "minimize", *argv, "--grid-n", "1000")
        assert code == 0 and err == ""
        gap = float(out.strip().splitlines()[-1].split(",")[1])
        assert 0.0 <= gap <= 1e-5 * e_min
        for seed in ("1", "42"):
            code, _, err = run_cli(capsys, "verify", *argv, "--seed", seed)
            assert code == 0 and "checks passed" in err, seed


class TestSweepCommand:
    def test_single_axis_monotone_energy(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--r", "1", "--R", "2", "--rstar", "1",
                               "--sweep", "Rstar=1.1:3:20")
        assert code == 0
        lines = out.strip().splitlines()
        idx = lines[0].split(",").index("analytic_min")
        vals = [float(l.split(",")[idx]) for l in lines[1:]]
        assert len(vals) == 20
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_two_axes_row_major(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rstar", "1", "--Rstar", "2",
                               "--sweep", "r=0.5:1:2", "--sweep", "R=2:3:3")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 6
        r_col = [float(l.split(",")[0]) for l in lines]
        assert r_col == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]

    def test_threshold_column_follows_formula(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--R", "2", "--rstar", "1", "--Rstar", "3",
                            "--sweep", "r=0.5:1.5:5")
        lines = out.strip().splitlines()
        hdr = lines[0].split(",")
        for line in lines[1:]:
            vals = dict(zip(hdr, line.split(",")))
            r, R = float(vals["r"]), float(vals["R"])
            expect = 3.0 * r * R * R / (r**3 + 2.0 * R**3)
            assert math.isclose(float(vals["threshold"]), expect, rel_tol=1e-12)

    def test_swept_parameter_needs_no_base_flag(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--r", "1", "--R", "2", "--rstar", "1",
                               "--sweep", "Rstar=1.5:2:2")
        assert code == 0, err

    def test_one_radius_on_both_axes_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", *CANON[:6], "--Rstar", "2",
                                 "--sweep", "Rstar=2:3:2", "--sweep", "Rstar=1:2:2")
        assert code == 2 and out == ""
        assert err == "error: sweep axes must vary different radii, got Rstar on both\n"

    def test_bad_sweep_spec(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *CANON, "--sweep", "Rstar=1:2")
        assert code == 2 and "sweep" in err.lower()

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *CANON, "--sweep", "Rstar=1:2:0")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_base_value_of_a_swept_radius_is_ignored(self, capsys, fmt):
        # R* = 1 < r* = 3 would be no pair, but the sweep replaces R*
        argv = ["sweep", "--r", "1", "--R", "2", "--rstar", "3", "--sweep", "Rstar=4:5:2",
                "--format", fmt]
        code, out, err = run_cli(capsys, *argv, "--Rstar", "1")
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, *argv)
        assert len(out.strip().splitlines()) == (3 if fmt == "csv" else 26)

    def test_invalid_pair_on_the_grid_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--R", "2", "--rstar", "1", "--Rstar", "3",
                               "--sweep", "r=1:3:3")
        assert code == 2 and "invalid pair" in err


# the start of the error line, where it should name the cause
_ERROR_CAUSES = {
    "energy --r 1 --R 1e300 --rstar 1 --Rstar 2":
        "error: EvaluationError: radial energy integral is not finite (nan): t^2 overflows",
    "energy --r 5e-324 --R 1e-300 --rstar 1 --Rstar 1":
        "error: EvaluationError: radial energy integral is not finite (nan): t^2 underflows",
    "energy --r 1e-153 --R 2e-153 --rstar 1 --Rstar 1e150":
        "error: EvaluationError: radial energy integral is not finite (inf): (H'/H)^2 overflows",
    "minimize --r 5e-324 --R 1 --rstar 1 --Rstar 1e300 --grid-n 8":
        "error: EvaluationError: increasing exponential profile a exp(b / t) has b = -3.414e-321, "
        "rounded through subnormal floats",
    "minimize --r 1 --R 1e300 --rstar 1 --Rstar 2 --grid-n 10":
        "error: EvaluationError: interval stiffness a_0 = inf",
    "minimize --r 5e-324 --R 1e-300 --rstar 1e-300 --Rstar 1 --grid-n 8":
        "error: EvaluationError: interval stiffness a_0 = 0.0",
    "energy --r 1e300 --R 1.0000000000000002e300 --rstar 1 --Rstar 2":
        "error: EvaluationError: increasing exponential profile a exp(b / t) has b = -inf;",
    "energy --r 1e200 --R 1e300 --rstar 1 --Rstar 2":
        "error: EvaluationError: radial energy integral is not finite (nan): t^2 overflows",
    "nitsche --r 1 --R 2 --rstar 1 --Rstar 2 --output /nonexistent/x.csv":
        "error: cannot write output file: [Errno 2] No such file or directory",
    "nitsche --r 1 --R 2 --rstar 1 --Rstar 2 --output .":
        "error: cannot write output file: [Errno 21] Is a directory",
    "energy --r x": "error: argument --r: invalid float value: 'x'",
    "energy --bogus 1": "error: unrecognized arguments: --bogus 1",
    "frobnicate": "error: argument command: invalid choice: 'frobnicate'",
    "": "error: the following arguments are required: command",
    "energy --format xml": "error: argument --format: invalid choice: 'xml'",
    "energy --r 0 --R 2 --rstar 1 --Rstar 2": "error: inner radius must be positive, got 0.0",
    "minimize --r 1 --R 2 --rstar -1 --Rstar 2": "error: inner radius must be positive, got -1.0",
    "nitsche --r -0 --R 2 --rstar 1 --Rstar 2": "error: inner radius must be positive, got -0.0",
    "verify --r 1 --R 2 --rstar 0 --Rstar 1": "error: inner radius must be positive, got 0.0",
    "sweep --r -2.5 --R 2 --rstar 1 --Rstar 2 --sweep Rstar=2:3:2":
        "error: inner radius must be positive, got -2.5",
    "sweep --r 1 --R 2 --rstar 0 --sweep Rstar=2:3:2":
        "error: inner radius must be positive, got 0.0; the sweep hit an invalid pair at {",
    "energy --r -1e-300 --R 2 --rstar 1 --Rstar 2":
        "error: inner radius must be positive, got -1e-300",
    "nitsche --r 1 --R 2 --rstar 1 --Rstar -2e0":
        "error: inner radius must be less than outer, got 1.0 > -2.0",
    "minimize --r -inf --R 2 --rstar 1 --Rstar 2":
        "error: annulus radii must be finite, got -inf, 2.0",
    # a flag the command does not read is a usage error, whatever its value
    "nitsche --r 1 --R 2 --rstar 1 --Rstar 2 --grid-n 50":
        "error: unrecognized arguments: --grid-n 50\n",
    "energy --r 1 --R 2 --rstar 1 --Rstar 2 --seed 3": "error: unrecognized arguments: --seed 3\n",
    "minimize --r 1 --R 2 --rstar 1 --Rstar 2 --grid-n 4 --radial-order 1":
        "error: unrecognized arguments: --radial-order 1\n",
    "sweep --r 1 --R 2 --rstar 1 --sweep Rstar=2:3:2 --sphere-order 8":
        "error: unrecognized arguments: --sphere-order 8\n",
    "energy --r 1 --R 2 --rstar 1 --Rstar 2 --sphere-order 100000":
        "error: unrecognized arguments: --sphere-order 100000\n",
    # (R - r) / r overflows; the message names the largest finite node
    "energy --r 1e-300 --R 1e300 --rstar 1 --Rstar 2":
        "error: EvaluationError: radial energy integral is not finite (nan): t^2 overflows at "
        "radii up to 6.18746e+299;",
    "verify --sweep Rstar=2:3:2": "error: unrecognized arguments: --sweep Rstar=2:3:2\n",
    # the suite derives its grid from the pair
    "verify --grid-n 5": "error: unrecognized arguments: --grid-n 5\n",
    # H' = -b H / t^2 overflows with H near the float maximum; H'/H is taken as -b / t^2
    "energy --r 1 --R 1e300 --rstar 3 --Rstar 1.7976931348623157e308":
        "error: EvaluationError: radial energy integral is not finite (nan): t^2 overflows",
    # at unit scale R* / r* = 6e307 still sends the competitors' FD differences
    # past the float range, with no warning before the line
    "verify --r 1 --R 2 --rstar 3 --Rstar 1.7976931348623157e308 --seed 1":
        "error: EvaluationError: finite-difference energy is not finite (inf): the map's "
        "differences leave the float range (radii at unit scale: the domain's times 2^0, the "
        "target's times 2^-512)\n",
    # the FD weights w t^2 grow as t^3 and overflow at R / r = 1e250 on any scale;
    # the radius named is at unit scale, and the line says so
    "verify --r 1 --R 1e250 --rstar 1 --Rstar 2 --seed 1":
        "error: EvaluationError: finite-difference quadrature weights w t^2 overflow at radii up "
        "to 1.17895e+125; the radii are too large for floating point (radii at unit scale: the "
        "domain's times 2^-415, the target's times 2^0)\n",
    # a shell too thin for the FD rows, which misread there
    "verify --r 1 --R 1.0000000001 --rstar 1 --Rstar 2 --seed 1":
        "error: verify config field 'pair': the finite-difference step at R is 288.2 ulps of R, "
        "below the floor of 8192 (R/r - 1 = 1e-10)\n",
}


class TestNoTraceback:
    @pytest.mark.parametrize("argv, expected", [
        # a grid this fine would need arrays of 745 GiB
        (["minimize", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2",
          "--grid-n", "100000000000"], 2),
        # the energy command takes no quadrature order
        (["energy", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2",
          "--sphere-order", "100000"], 2),
        # so would a sweep axis this long
        (["sweep", "--r", "1", "--R", "2", "--rstar", "1",
          "--sweep", "Rstar=1:2:100000000000"], 2),
        # t^2 overflows in the radial energy integral
        (["energy", "--r", "1", "--R", "1e300", "--rstar", "1", "--Rstar", "2"], 1),
        # and in the interval stiffness of the discrete energy
        (["minimize", "--r", "1", "--R", "1e300", "--rstar", "1", "--Rstar", "2",
          "--grid-n", "10"], 1),
        # t^2 underflows to zero there, which made the tridiagonal solve divide 0 / 0
        (["minimize", "--r", "5e-324", "--R", "1e-300", "--rstar", "1e-300", "--Rstar", "1",
          "--grid-n", "8"], 1),
        # t^2 underflows to zero in the radial energy integral: no overflow
        (["energy", "--r", "5e-324", "--R", "1e-300", "--rstar", "1", "--Rstar", "1"], 1),
        # t^2 is normal there, but H'/H is about 7e155 and its square overflows
        (["energy", "--r", "1e-153", "--R", "2e-153", "--rstar", "1", "--Rstar", "1e150"], 1),
        # b = -log(1e300) r R / (R - r) is subnormal: H(r) came out 0.80, not 1
        (["minimize", "--r", "5e-324", "--R", "1", "--rstar", "1", "--Rstar", "1e300",
          "--grid-n", "8"], 1),
        # b = -log(2) r R / (R - r) is about -3e315
        (["energy", "--r", "1e300", "--R", "1.0000000000000002e300", "--rstar", "1",
          "--Rstar", "2"], 1),
        # b = -log(2) r R / (R - r) with r R = 1e500
        (["energy", "--r", "1e200", "--R", "1e300", "--rstar", "1", "--Rstar", "2"], 1),
        # an output file in a missing directory, and one that is a directory
        (["nitsche", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2",
          "--output", "/nonexistent/x.csv"], 2),
        (["nitsche", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2", "--output", "."], 2),
        # malformed flags, an unknown or missing command, a bad choice: argparse's own errors
        (["energy", "--r", "x"], 2),
        (["energy", "--bogus", "1"], 2),
        (["frobnicate"], 2),
        ([], 2),
        (["energy", "--format", "xml"], 2),
        # a zero or negative inner radius, -0.0 included, fails as the pair is built:
        # verify runs no check first, sweep computes no row
        (["energy", "--r", "0", "--R", "2", "--rstar", "1", "--Rstar", "2"], 2),
        (["minimize", "--r", "1", "--R", "2", "--rstar", "-1", "--Rstar", "2"], 2),
        (["nitsche", "--r", "-0", "--R", "2", "--rstar", "1", "--Rstar", "2"], 2),
        (["verify", "--r", "1", "--R", "2", "--rstar", "0", "--Rstar", "1"], 2),
        (["sweep", "--r", "-2.5", "--R", "2", "--rstar", "1", "--Rstar", "2",
          "--sweep", "Rstar=2:3:2"], 2),
        (["sweep", "--r", "1", "--R", "2", "--rstar", "0", "--sweep", "Rstar=2:3:2"], 2),
        # a negative radius in exponent form, or an infinite one, is a value, not an
        # unknown option
        (["energy", "--r", "-1e-300", "--R", "2", "--rstar", "1", "--Rstar", "2"], 2),
        (["nitsche", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "-2e0"], 2),
        (["minimize", "--r", "-inf", "--R", "2", "--rstar", "1", "--Rstar", "2"], 2),
        # flags the command does not read
        (["nitsche", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2", "--grid-n", "50"], 2),
        (["energy", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2", "--seed", "3"], 2),
        (["minimize", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2", "--grid-n", "4",
          "--radial-order", "1"], 2),
        (["sweep", "--r", "1", "--R", "2", "--rstar", "1", "--sweep", "Rstar=2:3:2",
          "--sphere-order", "8"], 2),
        (["verify", "--sweep", "Rstar=2:3:2"], 2),
        (["verify", "--grid-n", "5"], 2),
        # R / r = 1e600: the radial rule's nodes stay finite
        (["energy", "--r", "1e-300", "--R", "1e300", "--rstar", "1", "--Rstar", "2"], 1),
        # H near the float maximum: t^2 overflows, with no warning on H' / H
        (["energy", "--r", "1", "--R", "1e300", "--rstar", "3",
          "--Rstar", "1.7976931348623157e308"], 1),
        # r* R* overflowed in the product row and H(R) in exp, each with a warning
        (["verify", "--r", "1", "--R", "2", "--rstar", "3",
          "--Rstar", "1.7976931348623157e308", "--seed", "1"], 1),
        (["verify", "--r", "1", "--R", "1.0000000001", "--rstar", "1", "--Rstar", "2",
          "--seed", "1"], 2),
        # the FD quadrature weights overflow: on (1e100, 1e140) it warned twice and
        # blamed the map
        (["verify", "--r", "1", "--R", "1e250", "--rstar", "1", "--Rstar", "2",
          "--seed", "1"], 1),
    ])
    def test_exits_with_one_line_error(self, capsys, argv, expected):
        code, _, err = run_cli(capsys, *argv)
        assert code == expected
        assert "Traceback" not in err
        assert err.startswith(_ERROR_CAUSES.get(" ".join(argv), "error: "))
        assert err.count("\n") == 1

    def test_extreme_target_ratio_keeps_a_finite_minimum(self, capsys):
        # R_star / r_star overflows, yet the minimum is about 4.8e7
        code, out, err = run_cli(capsys, "sweep", "--r", "1", "--R", "2", "--rstar", "1e-300",
                                 "--sweep", "Rstar=1e300:1e300:1")
        assert code == 0 and err == ""
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        ell = 600.0 * math.log(10.0)
        assert math.isclose(float(vals["analytic_min"]), 4.0 * math.pi * (2.0 + 2.0 * ell * ell),
                            rel_tol=1e-11)
        # r_star^2 underflows: the bound rounds to zero
        assert float(vals["lower_bound"]) == 0.0

    def test_extreme_target_ratio_energy_is_a_value(self, capsys):
        # the minimizers are anchored at t = r: r_star exp(ell (t - r) R / ((R - r) t)),
        # ell = log(1e600), with no coefficient a = 1e-300 exp(2 ell) to overflow
        code, out, err = run_cli(capsys, "energy", "--r", "1", "--R", "2", "--rstar", "1e-300",
                                 "--Rstar", "1e300", "--format", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        ell = 600.0 * math.log(10.0)
        expect = 4.0 * math.pi * (2.0 + 2.0 * ell * ell)
        for key in ("analytic", "h1_numeric", "h2_numeric"):
            assert math.isclose(data[key], expect, rel_tol=1e-11), key

    def test_target_at_the_float_maximum_energy_is_a_value(self, capsys):
        # H rises to the float maximum, where H' = -b H / t^2 overflows; the
        # log-derivative -b / t^2 is about 1 400 and E_min about 1.27e7
        radii = (1.0, 2.0, 0.5, 1.7976931348623157e308)
        code, out, err = run_cli(capsys, "energy", "--r", "1", "--R", "2", "--rstar", "0.5",
                                 "--Rstar", repr(radii[3]), "--format", "json")
        assert code == 0 and err == ""
        data = json.loads(out)
        expect = analytic_min_weighted_energy(AnnulusPair.from_radii(*radii))
        # values print to 13 digits
        for key in ("analytic", "h1_numeric", "h2_numeric"):
            assert math.isclose(data[key], expect, rel_tol=1e-12), key

    def test_target_at_the_float_maximum_minimize_is_a_value(self, capsys):
        # log r* + ell rounded past log(float max) at t = R, so exp overflowed
        # with a warning and H_closed_form read inf there; its true value is R*
        top = 1.7976931348623157e308
        code, out, err = run_cli(capsys, "minimize", "--r", "1", "--R", "2", "--rstar", "3",
                                 "--Rstar", repr(top), "--format", "json")
        assert code == 0 and err == ""
        last = json.loads(out)["rows"][-1]
        assert last["t"] == 2.0
        # values print to 13 digits
        for key in ("H_discrete", "H_closed_form"):
            assert math.isclose(last[key], top, rel_tol=1e-12), key
        assert math.isfinite(last["abs_error"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lower_bound_beyond_float_range_is_empty(self, capsys, fmt):
        # r_star^2 = 1e400 used to raise OverflowError
        code, out, err = run_cli(capsys, "sweep", "--r", "1", "--R", "2", "--rstar", "1e200",
                                 "--sweep", "Rstar=1e300:1e300:1", "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            [vals] = json.loads(out)
            assert vals["lower_bound"] is None
        else:
            header, row = out.strip().splitlines()
            vals = dict(zip(header.split(","), row.split(",")))
            assert vals["lower_bound"] == ""
        assert math.isfinite(float(vals["analytic_min"]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_analytic_min_beyond_float_range_is_empty(self, capsys, fmt):
        # the minimum, about 2.7e308, lies just beyond the float range;
        # it used to print as inf
        code, out, err = run_cli(capsys, "sweep", "--r", "1e298", "--R", "1.0000000099999999e+298",
                                 "--rstar", "1", "--sweep", "Rstar=100:101:2", "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            rows = json.loads(out)
        else:
            header, *lines = out.strip().splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 2
        empty = None if fmt == "json" else ""
        for vals in rows:
            assert vals["analytic_min"] == empty
            assert vals["lower_bound"] == empty

    def test_arithmetic_error_exits_1(self, capsys, monkeypatch):
        import annuli.cli as cli_mod

        def overflow(cfg):
            raise OverflowError("math range error")

        monkeypatch.setitem(cli_mod._COMMANDS, "nitsche", overflow)
        code, _, err = run_cli(capsys, "nitsche", *CANON)
        assert code == 1
        assert err == "error: OverflowError: math range error\n"

    @pytest.mark.parametrize("argv", [
        ["nitsche", "--Rstar", "1e300"],
        ["nitsche", "--Rstar", "1e300", "--format", "json"],
        ["sweep", "--sweep", "Rstar=1e300:1e300:1"],
    ])
    def test_energy_beyond_float_range_is_empty(self, capsys, argv):
        # the verdict is exact; only the harmonic energy (about 1e600)
        # does not fit in a float
        code, out, err = run_cli(capsys, *argv, "--r", "1", "--R", "2", "--rstar", "1e-300")
        assert code == 0 and err == ""
        if "json" in argv:
            vals = json.loads(out)
            assert vals["harmonic_energy"] is None
        else:
            header, row = out.strip().splitlines()
            vals = dict(zip(header.split(","), row.split(",")))
            assert vals["harmonic_energy"] == ""
        assert str(vals["admissible"]).lower() == "true"
        assert float(vals["ratio"]) == 0.0


_EXTREME_RADII = ["0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "5e-324", "-5e-324",
                  "2.2250738585072014e-308", "1.7976931348623157e308", "inf", "-inf", "nan"]
_RADII = st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(_EXTREME_RADII),
                   st.floats(0.1, 10.0).map(repr))
_INTS = st.sampled_from([8, -1, 0, 2, MAX_GRID_N, MAX_GRID_N + 1, MAX_SWEEP_ROWS, MAX_SWEEP_ROWS + 1,
                         10**11]).map(str)
_SWEEP = st.tuples(st.sampled_from(["r", "R", "rstar", "Rstar"]), _RADII, _RADII,
                   st.one_of(_INTS, st.sampled_from(["1", "3"]))).map(
    lambda p: ["--sweep", f"{p[0]}={p[1]}:{p[2]}:{p[3]}"])


_INT_FLAGS = ("--grid-n", "--seed")


@st.composite
def _argv(draw):
    """argv of one command with its own flags; about one in twelve also
    carries a flag the command does not read."""
    command = draw(st.sampled_from(["energy", "minimize", "nitsche", "sweep"]))
    argv = [command]
    for flag in ("--r", "--R", "--rstar", "--Rstar"):
        if draw(st.integers(0, 7)):  # mostly present
            argv += [flag, draw(_RADII)]
    for flag in _INT_FLAGS:
        if flag in _READS[command] and not draw(st.integers(0, 3)):  # mostly absent
            argv += [flag, draw(_INTS)]
    if command == "sweep":
        for spec in draw(st.lists(_SWEEP, min_size=0, max_size=3)):
            argv += spec
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    unread = [flag for flag in _INT_FLAGS if flag not in _READS[command]]
    if not draw(st.integers(0, 11)):
        argv += [draw(st.sampled_from(unread)), draw(_INTS)]
    return argv


class TestFuzzArgv:
    @settings(max_examples=400, deadline=None)
    @given(argv=_argv())
    # H' overflowed here and warned before the error line
    @example(argv=["energy", "--r", "1", "--R", "1e300", "--rstar", "3",
                   "--Rstar", "1.7976931348623157e308", "--format", "csv"])
    # exp of H(R) = R* overflowed and warned, with exit code 0
    @example(argv=["minimize", "--r", "1", "--R", "2", "--rstar", "3",
                   "--Rstar", "1.7976931348623157e308", "--format", "csv"])
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:  # argparse's usage errors too are one line
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        if argv[-2] not in _READS[argv[0]] + ["--format"]:
            assert (code, err.getvalue()) == (2, f"error: unrecognized arguments: {argv[-2]} "
                                                 f"{argv[-1]}\n"), argv


# a JSON value of every type; a config file field may hold any of them
_JSON_VALUES = st.one_of(
    st.integers(-3, 80), st.sampled_from([10**11, 10**400]), st.floats(), st.booleans(),
    st.text(max_size=6), st.lists(st.one_of(st.integers(0, 3), st.text(max_size=4)), max_size=3),
    st.none(), st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
# well-typed values of each field, so that some configs get past validation
_GOOD_VALUES = {
    **{key: st.one_of(_RADII, st.floats(0.1, 10.0)) for key in ("r", "R", "rstar", "Rstar")},
    **{key: st.one_of(st.integers(-1, 40), st.sampled_from(["8", "x"]))
       for key in ("grid_n", "seed")},
    "format": st.sampled_from(["csv", "json", "xml"]),
    "output_format": st.sampled_from(["csv", "json"]),
    "sweep": st.one_of(_SWEEP.map(lambda spec: spec[1]),
                       st.lists(_SWEEP.map(lambda spec: spec[1]), max_size=3)),
}
# output paths relative to a temporary directory: a file, a file in a
# missing directory, and the directory itself; no other string is drawn
# for them, so nothing is written outside that directory
_OUTPUTS = st.sampled_from(["out.csv", "missing/out.csv", ""])
_NON_STRINGS = _JSON_VALUES.filter(lambda value: not isinstance(value, str))


@st.composite
def _json_config(draw):
    config = {}
    for key in ("r", "R", "rstar", "Rstar", "grid_n", "seed",
                "format", "output_format", "sweep", "output", "output_path"):
        radius = key in ("r", "R", "rstar", "Rstar")
        if bool(draw(st.integers(0, 7 if radius else 2))) != radius:
            continue  # radii mostly present, other fields mostly absent
        if key in ("output", "output_path"):
            good, bad = _OUTPUTS, _NON_STRINGS
        else:
            good, bad = _GOOD_VALUES[key], _JSON_VALUES
        config[key] = draw(good if draw(st.integers(0, 3)) else bad)
    return config


class TestFuzzJsonConfig:
    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["energy", "minimize", "nitsche", "sweep"]),
           config=_json_config(), missing_output=st.booleans())
    def test_exit_code_and_no_traceback(self, command, config, missing_output):
        with tempfile.TemporaryDirectory() as tmp:
            for key in ("output", "output_path"):
                if isinstance(config.get(key), str):
                    config[key] = os.path.join(tmp, config[key])
            path = os.path.join(tmp, "c.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [command, "--config", path]
            if missing_output:
                argv += ["--output", os.path.join(tmp, "missing", "out.csv")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), (config, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().splitlines()[-1].startswith("error: "), (config, err.getvalue())


class TestOutputFile:
    def test_writes_lf_line_endings(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["energy", *CANON, "--output", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_closed_stdout_pipe_is_not_a_crash(self):
        import subprocess
        import sys as _sys

        # stdout becomes a line-buffered pipe whose read end is gone, so
        # the first emitted row raises BrokenPipeError inside main()
        code = (
            "import os, sys\n"
            "r, w = os.pipe()\n"
            "os.close(r)\n"
            "os.dup2(w, 1)\n"
            "sys.stdout = os.fdopen(1, 'w', buffering=1)\n"
            "from annuli.cli import main\n"
            "rc = main(['minimize', '--r', '1', '--R', '2',"
            " '--rstar', '1', '--Rstar', '2.0', '--grid-n', '50'])\n"
            "os.write(2, b'rc=%d' % rc)\n"
        )
        out = subprocess.run([_sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "rc=1" in out.stderr
        assert "Traceback" not in out.stderr
