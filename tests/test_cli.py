"""Command-line interface: parsing, rendering, subcommands, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl3 import (Multivector, MVParseError, NoIsolatedRootError, Signature, center_decompose, det_norm,
                 exp_factors, sqrt_center)
from cl3.cli import main, parse_mv, render_mv
from conftest import CHILD_ENV
from reference_values import EXACT, REF_COEFFS, TABLE_TOL

CL30 = Signature.CL30
REF_LITERAL = "4,1,3,-5,10,9,-9,-4 / 17"


def test_parse_comma_form_with_scale():
    mv = parse_mv(REF_LITERAL, CL30)
    assert mv == Multivector(CL30, np.array(REF_COEFFS) / 17.0)


def test_parse_zero_mv():
    assert parse_mv("0,0,0,0,0,0,0,0", CL30) == Multivector.zero(CL30)


def test_parse_term_form_matches_comma_form():
    text = "4 + 1*e1 + 3*e2 - 5*e3 + 10*e12 + 9*e13 - 9*e23 - 4*e123"
    assert parse_mv(text, CL30) == Multivector(CL30, REF_COEFFS)


def test_parse_duplicate_blades_sum():
    mv = parse_mv("1*e13 + 2*e13", CL30)
    assert mv.c[5] == 3.0
    assert np.count_nonzero(mv.c) == 1


def test_parse_bare_blades_and_signs():
    mv = parse_mv("-e3 + e12 - 2.5", CL30)
    assert mv.c[0] == -2.5
    assert mv.c[3] == -1.0
    assert mv.c[4] == 1.0
    for text, coeffs in (
        ("1 - - e1", (1, 1, 0, 0, 0, 0, 0, 0)),
        ("+ + 1", (1, 0, 0, 0, 0, 0, 0, 0)),
        ("1 + - 2*e12", (1, 0, 0, 0, -2, 0, 0, 0)),
        ("e2 - e123", (0, 0, 1, 0, 0, 0, 0, -1)),
        ("2 * e13", (0, 0, 0, 0, 0, 2, 0, 0)),
        ("1e-05*e1 + .5e3", (500, 1e-05, 0, 0, 0, 0, 0, 0)),
        ("e23 + 2*e23 - .5*e23", (0, 0, 0, 0, 0, 0, 2.5, 0)),
    ):
        assert parse_mv(text, CL30).t == coeffs, text


def test_parse_rejects_descending_blade():
    with pytest.raises(MVParseError) as exc:
        parse_mv("1*e31", CL30)
    assert "e13" in str(exc.value)
    assert exc.value.column == 3


def test_parse_error_columns():
    with pytest.raises(MVParseError) as exc:
        parse_mv("1 + 2*e1 + $", CL30)
    assert exc.value.column == 12
    with pytest.raises(MVParseError):
        parse_mv("1,2,3", CL30)
    with pytest.raises(MVParseError):
        parse_mv("1,2,3,x,5,6,7,8", CL30)
    with pytest.raises(MVParseError):
        parse_mv("3*e7", CL30)
    for text, column, message in (
        ("1 + 2*e1 +", 10, "dangling sign"), ("1 2", 3, "between terms"),
        ("2.5*", 5, "expected blade name"), ("2.5*$", 5, "expected blade name"),
        ("", 1, "empty multivector literal"), ("   ", 1, "empty multivector literal"),
        ("+", 1, "dangling sign"), ("1 +", 3, "dangling sign"),
    ):
        with pytest.raises(MVParseError, match=message) as exc:
            parse_mv(text, CL30)
        assert exc.value.column == column, text


def test_parse_rejects_a_non_finite_divisor(capsys):
    # Dividing by inf would zero every coefficient, and dividing by nan would make each one nan.
    for divisor in ("inf", "-inf", "nan", "Infinity", "0", "x"):
        with pytest.raises(MVParseError, match=f"bad scale divisor '{divisor}'"):
            parse_mv(f"1,2,3,4,5,6,7,8 / {divisor}", CL30)
    code, out, err = _run(capsys, ["eval", "--fn", "exp", "--mv", "1,2,3,4,5,6,7,8 / inf", "--format", "json"])
    assert code == 1 and out == "" and "bad scale divisor 'inf'" in err


def test_render_examples():
    mv = Multivector(CL30, [0.5, 0, 0, -1.25, 0, 0, 0, 2])
    assert render_mv(mv) == "0.5 - 1.25*e3 + 2*e123"
    assert render_mv(Multivector.zero(CL30)) == "0"
    assert render_mv(Multivector(CL30, [0, -3, 0, 0, 0, 0, 0, 0])) == "-3*e1"


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(coeffs=st.lists(finite, min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_parse_render_roundtrip(coeffs):
    mv = Multivector(CL30, coeffs)
    assert parse_mv(render_mv(mv, digits=17), CL30) == mv


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_matches_reference_table(capsys):
    code, out, err = _run(capsys, [
        "eval", "--algebra", "cl30", "--fn", "sinh", "--mv", REF_LITERAL,
    ])
    assert code == 0
    got = parse_mv(out.strip(), CL30)
    assert np.abs(got.c - np.array(EXACT["sinh"])).max() < TABLE_TOL


def test_eval_json_schema(capsys):
    code, out, _ = _run(capsys, [
        "eval", "--fn", "cosh", "--mv", REF_LITERAL, "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "cl30"
    assert payload["basis"] == ["1", "e1", "e2", "e3", "e12", "e13", "e23", "e123"]
    assert len(payload["coeffs"]) == 8
    assert abs(payload["coeffs"][0] - EXACT["cosh"][0]) < TABLE_TOL


def test_eval_digits_control(capsys):
    _, out8, _ = _run(capsys, ["eval", "--fn", "exp", "--mv", "0.5,0,0,0,0,0,0,0"])
    _, out3, _ = _run(capsys, ["eval", "--fn", "exp", "--mv", "0.5,0,0,0,0,0,0,0", "--digits", "3"])
    assert out8.strip() == "1.6487213"
    assert out3.strip() == "1.65"


def test_negative_digits_is_a_usage_error(capsys):
    for cmd in (["eval", "--fn", "exp"], ["compare", "--fn", "exp", "--terms", "6"]):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--mv", "1,2,3,4,5,6,7,8", "--digits", "-3"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1].endswith("error: argument --digits: must be a non-negative integer, got -3")
    with pytest.raises(SystemExit):
        main(["eval", "--fn", "exp", "--mv", "1,2,3,4,5,6,7,8", "--digits", "x"])
    assert "argument --digits: invalid int value: 'x'" in capsys.readouterr().err
    _, out0, _ = _run(capsys, ["eval", "--fn", "exp", "--mv", "0.5,0,0,0,0,0,0,0", "--digits", "0"])
    assert out0.strip() == "2"


def test_eval_scalar_functions(capsys):
    code, out, _ = _run(capsys, ["eval", "--fn", "det", "--mv", "4,1,3,-5,10,9,-9,-4"])
    assert code == 0 and out.strip() == "71129"
    code, out, _ = _run(capsys, ["eval", "--fn", "det-norm", "--mv", "4,1,3,-5,10,9,-9,-4"])
    assert code == 0 and abs(float(out) - 71129.0 ** 0.25) < 1e-6


def test_eval_inverse(capsys):
    code, out, _ = _run(capsys, ["eval", "--fn", "inv", "--mv", "2,0,0,0,0,0,0,0"])
    assert code == 0 and out.strip() == "0.5"


def test_eval_sqrt_center_and_factors(capsys):
    code, out, _ = _run(capsys, [
        "eval", "--fn", "sqrt-center", "--mv", "0,2,0,0,0,0,0,0", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["center"] == [4.0, 0.0]
    assert sorted(r[0] for r in payload["roots"]) == [-2.0, 2.0]

    code, out, _ = _run(capsys, ["eval", "--fn", "sqrt-center", "--mv", "0,1,1,0,0,0,0,0", "--digits", "4"])
    assert code == 0
    assert out.splitlines() == ["center: 2 + 0*e123", "root: 1.414", "root: -1.414"]

    code, out, _ = _run(capsys, [
        "eval", "--fn", "exp-factors", "--mv", "0,1,0,0,1,0,0,0", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "both-degenerate"

    # Every algebra, on a zero, a degenerate and a generic input: the fields in
    # record order, JSON byte for byte (None as null) and the text lines.
    for sig in Signature:
        name = sig.name.lower()
        literals = ("0,0,0,0,0,0,0,0", "0,1,0,0,1,0,0,0", "0.3,0.5,-0.2,0.1,0.4,0,-0.6,0.7", "2,0,1,0,0,0,0,0.5")
        for literal in literals:
            x, argv = parse_mv(literal, sig), ["eval", "--algebra", name, "--mv", literal]
            f = exp_factors(x)
            want = {"algebra": name, "branch": f.branch.value, "a_plus_sq": f.a_plus_sq,
                    "a_minus_sq": f.a_minus_sq, "a_plus": f.a_plus, "a_minus": f.a_minus, "c_norm": f.c_norm}
            got = _run(capsys, [*argv, "--fn", "exp-factors", "--format", "json"])
            assert got == (0, json.dumps(want) + "\n", "")
            lines = [f"algebra: {name}", f"branch: {f.branch.value}"]
            lines += [f"{k}: {v:.8g}" for k, v in list(want.items())[2:] if v is not None]
            assert _run(capsys, [*argv, "--fn", "exp-factors"]) == (0, "\n".join(lines) + "\n", "")

            ce = center_decompose(x)
            code, out, err = _run(capsys, [*argv, "--fn", "sqrt-center", "--format", "json"])
            try:
                roots = sqrt_center(ce, sig)
            except NoIsolatedRootError as exc:
                assert (code, out, err) == (1, "", f"error: {exc}\n")
                continue
            want = {"algebra": name, "center": [ce.a_s, ce.a_i], "roots": [[r.a_s, r.a_i] for r in roots]}
            assert (code, out, err) == (0, json.dumps(want) + "\n", "")


def test_trig_on_split_algebras(capsys):
    for sig in ("cl21", "cl03"):
        code, out, _ = _run(capsys, [
            "eval", "--algebra", sig, "--fn", "sin", "--mv", "1,0,0,0,0,0,0,0", "--digits", "17",
        ])
        assert code == 0
        assert float(out) == math.sin(1.0)
        code, out, _ = _run(capsys, [
            "eval", "--algebra", sig, "--fn", "sin", "--mv", "1,0,0,0,0,0,0,0",
            "--series", "--terms", "21",
        ])
        assert code == 0
        assert abs(float(out) - np.sin(1.0)) < 1e-7
        code, out, _ = _run(capsys, [
            "compare", "--algebra", sig, "--fn", "tan", "--terms", "31",
            "--mv", "0.1,0.2,0,0.1,0,0.3,0,0.2", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["algebra"] == sig and payload["max_delta"] < 1e-9


def test_series_flag_rejected_for_non_series_fn(capsys):
    code, _, err = _run(capsys, [
        "eval", "--fn", "det", "--mv", "1,0,0,0,0,0,0,0", "--series",
    ])
    assert code == 1 and "series" in err


def test_compare_reports_scalar_gap(capsys):
    code, out, err = _run(capsys, [
        "compare", "--algebra", "cl30", "--fn", "tanh", "--terms", "6", "--mv", REF_LITERAL,
    ])
    assert code == 0
    closed_line, series_line, delta_line = out.strip().split("\n")
    closed = parse_mv(closed_line.split(": ", 1)[1], CL30)
    series = parse_mv(series_line.split(": ", 1)[1], CL30)
    scalar_gap = series.c[0] - closed.c[0]
    assert abs(scalar_gap - (0.7629316 - 0.6231177)) < 1e-5
    assert float(delta_line.split(": ")[1]) > 0.1
    assert "may not have converged" in err


def test_series_with_a_huge_last_term_exits_cleanly(capsys):
    # x^40 overflows at x = 1e8; the value and c_40 * x^40 (about 1.2e272) do not.
    code, out, err = _run(capsys, [
        "eval", "--fn", "exp", "--series", "--terms", "40", "--mv", "1e8,0,0,0,0,0,0,0",
    ])
    assert code == 0, err
    assert 1e272 < float(out) < 1.3e272


def test_compare_warns_where_the_last_coefficient_underflows(capsys):
    # 1/200! is 0.0 as a float; the last term c_200 * 300^200 is about 3.4e120.
    code, _, err = _run(capsys, [
        "compare", "--fn", "exp", "--terms", "200", "--mv", "300,0,0,0,0,0,0,0",
    ])
    assert code == 0
    assert "3.37e+120" in err and "may not have converged" in err


def test_series_warning_is_relative_to_the_result(capsys):
    # exp(20) to order 60: the last term 1.39e-4 is 2.9e-13 of the value 4.85e8.
    code, out, err = _run(capsys, ["eval", "--series", "--fn", "exp", "--terms", "60", "--mv", "20,0,0,0,0,0,0,0"])
    assert code == 0 and err == "" and math.isclose(float(out), math.exp(20.0), rel_tol=1e-6)
    # tan outside its radius (lambda = 10 and 0.01): the last term is as large as the value.
    code, _, err = _run(capsys, ["compare", "--fn", "tan", "--terms", "20", "--mv", "5.005,4.995,0,0,0,0,0,0"])
    assert code == 0 and "1.2e+15" in err and "may not have converged" in err


def test_compare_json(capsys):
    code, out, _ = _run(capsys, [
        "compare", "--fn", "sinh", "--terms", "11", "--mv", REF_LITERAL, "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 11
    assert payload["max_delta"] < 1e-6


def test_spin_csv_written(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, [
        "spin", "--omega", "1", "--omega1", "0.05", "--b0-start", "-2",
        "--b0-end", "2", "--T", "500", "--sigma", "-1", "--samples", "801",
        "--out", str(out_path),
    ])
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,b0,p_down"
    assert len(lines) == 802
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    peak_b0 = rows[rows[:, 2].argmax(), 1]
    assert abs(peak_b0 - 1.0) <= 0.1


def test_spin_out_to_missing_directory_exits_cleanly(tmp_path, capsys):
    code, out, err = _run(capsys, [
        "spin", "--omega", "1", "--omega1", "0.2", "--b0-start", "0",
        "--b0-end", "1", "--T", "20", "--sigma", "1", "--samples", "5",
        "--out", str(tmp_path / "missing" / "trace.csv"),
    ])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_det_past_the_fourth_power_range(capsys):
    # sum |c| = 1.4e77: its fourth power overflows, the determinant does not.
    literal = "3e76,1e76,2e76,1e76,2e76,1e76,3e76,1e76"
    code, out, err = _run(capsys, ["eval", "--fn", "det", "--mv", literal, "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(2.56e306, rel=1e-12)
    code, out, err = _run(capsys, ["eval", "--fn", "inv", "--mv", literal, "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["coeffs"][0] == pytest.approx(0.1875e-76, rel=1e-12)


def test_spin_stdout_and_stepped(capsys):
    code, out, _ = _run(capsys, [
        "spin", "--omega", "1", "--omega1", "0.2", "--b0-start", "0",
        "--b0-end", "1", "--T", "20", "--sigma", "1", "--samples", "5",
        "--method", "stepped",
    ])
    assert code == 0
    assert out.startswith("t,b0,p_down\n")
    assert len(out.strip().split("\n")) == 6


def test_error_exit_codes(capsys):
    code, _, err = _run(capsys, ["eval", "--fn", "exp", "--mv", "1*e31"])
    assert code == 1 and "e13" in err
    code, _, err = _run(capsys, [
        "eval", "--fn", "tan", "--algebra", "cl30",
        "--mv", f"{np.pi / 4},{np.pi / 4},0,0,0,0,0,0",
    ])
    assert code == 1 and "determinant" in err


def test_overflow_and_bad_ga_eps_exit_cleanly(capsys, monkeypatch):
    code, out, err = _run(capsys, ["eval", "--fn", "exp", "--mv", "800,1,0,0,0,0,0,0"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflows" in err and len(err.splitlines()) == 1
    # GA_EPS is not read: a value that is no number changes nothing.
    argv = ["eval", "--fn", "exp-factors", "--mv", "0,1,0,0,0,0,0,0"]
    default = _run(capsys, argv)
    monkeypatch.setenv("GA_EPS", "tiny")
    assert _run(capsys, argv) == default and default[0] == 0 and default[2] == ""


@pytest.mark.parametrize("fn", ["det", "inv", "det-norm"])
def test_determinant_overflow_names_the_overflow(capsys, fn):
    # Every coefficient is finite; the determinant (about 5e308) is not.
    argv = ["eval", "--fn", fn, "--format", "json", "--mv", "9e76,3e76,6e76,3e76,6e76,3e76,9e76,3e76"]
    code, out, err = _run(capsys, argv)
    if fn == "det-norm":  # taken at unit scale, so its fourth root (about 1e77) is finite
        base = det_norm(Multivector(CL30, (3, 1, 2, 1, 2, 1, 3, 1)))
        assert code == 0 and err == "" and math.isclose(json.loads(out)["value"], 3e76 * base, rel_tol=1e-14)
        return
    assert code == 1 and out == ""
    assert err.startswith("error: determinant of ") and err.rstrip().endswith("overflows double precision")
    assert len(err.splitlines()) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cl3.cli", "eval", "--fn", "exp", "--mv", "0,0,0,0,0,0,0,0"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
