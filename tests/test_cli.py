import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuli.cli import (
    MAX_GRID_N,
    MAX_QUADRATURE_ORDER,
    MAX_SWEEP_ROWS,
    main,
    parse_config,
    render_csv,
    render_json,
)

E_STR = "2.718281828459045"
CANON = ["--r", "1", "--R", "2", "--rstar", "1", "--Rstar", E_STR]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_flags_build_a_pair(self):
        cfg = parse_config(["energy", *CANON])
        assert cfg.pair.r == 1.0 and math.isclose(cfg.pair.R_star, math.e)
        assert cfg.grid_n == 1000 and cfg.sphere_order == 32
        assert cfg.radial_order == 64 and cfg.seed == 42
        assert cfg.output_format == "csv"

    def test_flag_overrides_config_file(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("r=1\nR=2\nrstar=1\nRstar=2.0\nseed=9\n")
        cfg = parse_config(["energy", "--config", str(f), "--seed", "7"])
        assert cfg.seed == 7

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

    def test_constant_solution_for_equal_targets(self, capsys):
        _, out, _ = run_cli(capsys, "minimize", "--r", "1", "--R", "2",
                            "--rstar", "1.5", "--Rstar", "1.5", "--grid-n", "4")
        rows = [l for l in out.strip().splitlines()[1:]
                if not l.startswith(("energy", "analytic", "gap"))]
        assert all(float(l.split(",")[1]) == 1.5 for l in rows)


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

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--seed", "42", "--output", str(a)]) == 0
        assert main(["verify", "--seed", "42", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_bad_sweep_spec(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *CANON, "--sweep", "Rstar=1:2")
        assert code == 2 and "sweep" in err.lower()

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *CANON, "--sweep", "Rstar=1:2:0")
        assert code == 2

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
    "energy --r 1 --R 2 --rstar 1e-300 --Rstar 1e300":
        "error: EvaluationError: increasing exponential profile a exp(b / t) has a = inf",
    "energy --r 1e200 --R 1e300 --rstar 1 --Rstar 2":
        "error: EvaluationError: increasing exponential profile a exp(b / t) has a = 2.0, b = -inf",
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
}


class TestNoTraceback:
    @pytest.mark.parametrize("argv, expected", [
        # a grid this fine would need arrays of 745 GiB
        (["minimize", "--r", "1", "--R", "2", "--rstar", "1", "--Rstar", "2",
          "--grid-n", "100000000000"], 2),
        # a Gauss rule of this order would need a dense 100000^2 matrix
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
        # a = 1e-300 exp(2 log(1e600)) of the minimizer H = a exp(b / t)
        (["energy", "--r", "1", "--R", "2", "--rstar", "1e-300", "--Rstar", "1e300"], 1),
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
_INTS = st.sampled_from([8, -1, 0, 2, MAX_QUADRATURE_ORDER, MAX_QUADRATURE_ORDER + 1,
                         MAX_GRID_N, MAX_GRID_N + 1, MAX_SWEEP_ROWS, MAX_SWEEP_ROWS + 1,
                         10**11]).map(str)
_SWEEP = st.tuples(st.sampled_from(["r", "R", "rstar", "Rstar"]), _RADII, _RADII,
                   st.one_of(_INTS, st.sampled_from(["1", "3"]))).map(
    lambda p: ["--sweep", f"{p[0]}={p[1]}:{p[2]}:{p[3]}"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["energy", "minimize", "nitsche", "sweep"]))
    argv = [command]
    for flag in ("--r", "--R", "--rstar", "--Rstar"):
        if draw(st.integers(0, 7)):  # mostly present
            argv += [flag, draw(_RADII)]
    for flag in ("--grid-n", "--sphere-order", "--radial-order", "--seed"):
        if not draw(st.integers(0, 3)):  # mostly absent
            argv += [flag, draw(_INTS)]
    if command == "sweep":
        for spec in draw(st.lists(_SWEEP, min_size=0, max_size=3)):
            argv += spec
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv


class TestFuzzArgv:
    @settings(max_examples=400, deadline=None)
    @given(argv=_argv())
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:  # argparse's usage errors too are one line
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


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
       for key in ("grid_n", "sphere_order", "radial_order", "seed")},
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
    for key in ("r", "R", "rstar", "Rstar", "grid_n", "sphere_order", "radial_order", "seed",
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
