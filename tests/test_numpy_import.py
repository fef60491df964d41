"""numpy stays off the import path.

``import cl3`` and ``cl3 eval``/``compare`` run on float tuples and never
load numpy; the APIs that return arrays still return read-only ndarrays,
and the CLI's JSON is bit-identical to the in-process results.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import cl3
from cl3 import (
    EvenMultivector,
    Multivector,
    MVParseError,
    RampSweep,
    SeriesFamily,
    SeriesSpec,
    Signature,
    determinant,
    exp,
    hyperbolic_exact,
    inverse,
    ratio_exact,
    series_eval,
    sign_table,
    sweep_ramp,
    trig_exact,
)
from cl3.cli import main, parse_mv
from conftest import CHILD_ENV

_LITERAL = "4,1,-2,1,3,-1,2,1 / 5"
_EVAL_FNS = (
    "exp", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "inv", "det", "det-norm", "sqrt-center", "exp-factors",
)
_SERIES_FNS = ("exp", "sin", "cos", "tan", "sinh", "cosh", "tanh")

# Runs the CLI in a fresh interpreter and reports whether numpy got loaded.
_NUMPY_FREE_RUN = """
import contextlib, io, json, sys

import cl3, cl3.cli

after_import = "numpy" in sys.modules
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cl3.cli.main(argv))
print(json.dumps({"after_import": after_import, "after_main": "numpy" in sys.modules, "codes": codes}))
"""


def test_import_and_cli_leave_numpy_unloaded():
    runs = [["eval", "--fn", fn, "--mv", _LITERAL, "--format", "json"] for fn in _EVAL_FNS]
    runs += [["compare", "--fn", fn, "--terms", "12", "--mv", _LITERAL, "--format", "json"] for fn in _SERIES_FNS]
    runs += [
        ["eval", "--fn", "tanh", "--series", "--mv", "1 + 0.5*e1 - 0.25*e23"],
        ["eval", "--fn", "exp", "--algebra", "cl21", "--mv", "0.5 - e3 + 2*e12"],
        ["compare", "--fn", "cosh", "--terms", "20", "--algebra", "cl03", "--mv", _LITERAL],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN, json.dumps(runs)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"after_import": False, "after_main": False, "codes": [0] * len(runs)}


def test_array_apis_still_return_read_only_ndarrays():
    x = Multivector(Signature.CL30, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    assert isinstance(x.c, np.ndarray) and not x.c.flags.writeable
    # A non-tuple input still goes through numpy.
    assert Multivector(Signature.CL30, np.arange(8.0)).t == tuple(np.arange(8.0).tolist())
    for table in sign_table(Signature.CL12):
        assert isinstance(table, np.ndarray) and table.shape == (8, 8) and table.dtype == np.int8
    sweep = RampSweep(b0_start=-1.0, b0_end=1.0, duration=10.0, samples=11, omega=1.0, omega1=0.2)
    for method in ("closed", "stepped"):
        trace = sweep_ramp(sweep, 1, method=method)
        for arr in (trace.times, trace.b0, trace.p_down):
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    even = EvenMultivector("cl13", [1, 0, 0, 0, 0, 0, 0, 2])
    assert isinstance(even.c, np.ndarray) and not even.c.flags.writeable


def _closed(fn, x):
    if fn == "exp":
        return exp(x)
    if fn in ("sin", "cos"):
        return trig_exact(x, fn)
    if fn in ("sinh", "cosh"):
        return hyperbolic_exact(x, fn)
    if fn in ("tan", "tanh"):
        return ratio_exact(x, fn)
    return inverse(x).inverse


def _cases(fn, rng):
    """(algebra, literal) pairs in both literal forms; trig needs e123^2 = -1."""
    algs = ("cl30", "cl12") if fn in ("sin", "cos", "tan") else ("cl30", "cl03", "cl12", "cl21")
    for alg in algs:
        ints = rng.integers(-9, 10, 8)
        yield alg, ",".join(str(v) for v in ints) + " / 7"
        terms = rng.uniform(-0.8, 0.8, 8).tolist()
        yield alg, f"{terms[0]!r}" + "".join(
            f" {'-' if v < 0 else '+'} {abs(v)!r}*{name}" for v, name in zip(terms[1:], cl3.BLADE_NAMES[1:])
        )


def _json(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("fn", ("exp", "sin", "cos", "tan", "sinh", "cosh", "tanh", "inv", "det"))
def test_eval_json_is_bit_identical(fn, capsys):
    rng = np.random.default_rng(7)
    for alg, literal in _cases(fn, rng):
        x = parse_mv(literal, Signature.from_name(alg))
        got = _json(capsys, ["eval", "--fn", fn, "--algebra", alg, "--mv", literal])
        if fn == "det":
            assert got == {"value": determinant(x)}
        else:
            assert got["coeffs"] == list(_closed(fn, x).t)


@pytest.mark.parametrize("fn", _SERIES_FNS)
def test_compare_json_is_bit_identical(fn, capsys):
    rng = np.random.default_rng(11)
    for alg, literal in _cases(fn, rng):
        x = parse_mv(literal, Signature.from_name(alg))
        got = _json(capsys, ["compare", "--fn", fn, "--terms", "12", "--algebra", alg, "--mv", literal])
        closed = _closed(fn, x)
        series = series_eval(x, SeriesSpec(SeriesFamily(fn), 12))
        assert got["closed"] == list(closed.t)
        assert got["series"] == list(series.t)
        assert got["max_delta"] == float(np.abs(closed.c - series.c).max())


def test_comma_literal_divides_like_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ints = rng.integers(-99, 100, 8)
        divisor = int(rng.integers(2, 50))
        literal = ",".join(str(v) for v in ints) + f" / {divisor}"
        assert parse_mv(literal).t == tuple((ints / float(divisor)).tolist())


def test_zero_divisor_is_a_parse_error():
    with pytest.raises(MVParseError, match="bad scale divisor '0'"):
        parse_mv("1,2,3,4,5,6,7,8 / 0")


@pytest.mark.parametrize("literal, message", [
    ("1,2,3,4,5,6,7,8 / 0", "error: bad scale divisor '0'"),
    ("0,0,0,0,0,0,0,0 / 0", "error: bad scale divisor '0'"),
    ("1,2,3,4,5,6,7,8 / 1e-320", "error: multivector coefficients must be finite"),
])
def test_bad_divisor_prints_one_error_line(literal, message):
    proc = subprocess.run(
        [sys.executable, "-m", "cl3.cli", "eval", "--fn", "exp", "--mv", literal],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]
    assert "Warning" not in proc.stderr
