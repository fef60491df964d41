"""``import cl3`` and each CLI subcommand load only the modules they use.

The names of ``cl3.remap``, ``cl3.series`` and ``cl3.spin`` resolve on first
use, and neither the closed-form path nor ``cl3 compare`` defines a
dataclass.  Each check runs in a fresh interpreter and reads
``sys.modules``; modules the interpreter had loaded before ``import cl3``
are not counted against the library.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cl3
from cl3 import CenterElement, ExpBranch, ExpFactors, Multivector, Signature, exp_factors
from conftest import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent
_LITERAL = "4,1,-2,1,3,-1,2,1 / 5"
_LAZY_MODULES = ("cl3.remap", "cl3.series", "cl3.spin")

# The public names of ``import cl3`` before its submodules became lazy:
# every one must still resolve, and ``dir``/``import *`` list exactly these.
PUBLIC_NAMES = (
    "BLADE_GRADES", "BLADE_NAMES", "CenterElement", "Cl3Error", "EVEN_BLADE_NAMES",
    "EvenMultivector", "ExpBranch", "ExpFactors", "FieldConfig", "InverseResult",
    "InvolutionKind", "MAX_TABLE_ORDER", "MVParseError", "MixedGradeInputError",
    "Multivector", "NoIsolatedRootError", "NonFiniteError", "NonInvertibleError",
    "NormUndefinedError", "ProbabilityTrace", "REMAP_TABLES", "RampSweep", "RemapTable",
    "SeriesFamily", "SeriesOrderError", "SeriesSpec", "Signature", "SignatureMismatchError",
    "adjugate", "algebra", "basis_remap",
    "bernoulli_numbers", "blade", "blades", "center", "center_decompose", "center_product",
    "degeneracy_eps", "det_norm", "determinant", "down_probability",
    "down_probability_projected", "euler_numbers", "even_geometric_product", "evolve_spinor",
    "exceptions", "exp", "exp_factors", "exp_particular", "exponential", "field_at",
    "functions", "geometric_product", "get_remap_table", "grade_select", "hyperbolic_exact",
    "inverse", "involute", "normalize", "ratio_exact", "remap", "series", "series_eval",
    "sign_table", "spin", "sqrt_center", "sweep_ramp", "trig_exact", "write_trace_csv",
)

# Imports cl3 (and runs the CLI on each argv given) in a fresh interpreter,
# then prints the modules each step added to sys.modules.
_LOADED = """
import contextlib, io, json, sys

before = set(sys.modules)
import cl3, cl3.cli

after_import = sorted(set(sys.modules) - before)
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cl3.cli.main(argv))
print(json.dumps({"import": after_import, "main": sorted(set(sys.modules) - before), "codes": codes}))
"""


def _loaded(runs):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps(runs)], capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(runs)
    return set(got["import"]), set(got["main"])


def test_import_loads_only_the_closed_form_modules():
    imported, _ = _loaded([])
    assert {m for m in imported if m.startswith("cl3")} == {
        "cl3", "cl3.algebra", "cl3.center", "cl3.exceptions", "cl3.exponential", "cl3.functions", "cl3.cli",
    }
    assert not imported & {"dataclasses", "fractions"}


def test_eval_loads_no_series_spin_remap_or_dataclasses():
    runs = [["eval", "--fn", fn, "--mv", _LITERAL, "--format", "json"] for fn in ("exp", "tanh", "inv", "det")]
    _, loaded = _loaded(runs)
    assert not loaded & {*_LAZY_MODULES, "fractions", "dataclasses"}


def test_compare_loads_series_but_not_spin_or_remap():
    # tan and tanh take their coefficients from integers: no Fraction, no decimal.
    for fn in ("sin", "tanh", "tan"):
        _, loaded = _loaded([["compare", "--fn", fn, "--terms", "12", "--mv", _LITERAL, "--format", "json"]])
        assert "cl3.series" in loaded
        assert not loaded & {"cl3.spin", "cl3.remap", "dataclasses", "fractions", "decimal"}, fn


_PUBLIC = """
import json, sys

import cl3

listed = sorted(n for n in dir(cl3) if not n.startswith("_"))
star = {}
exec("from cl3 import *", star)
print(json.dumps({"dir": listed, "all": cl3.__all__, "star": sorted(n for n in star if not n.startswith("_"))}))
"""


def test_public_names_are_unchanged():
    proc = subprocess.run([sys.executable, "-c", _PUBLIC], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"dir": sorted(PUBLIC_NAMES), "all": sorted(PUBLIC_NAMES), "star": sorted(PUBLIC_NAMES)}


def test_every_public_name_resolves_to_its_definition():
    for name in PUBLIC_NAMES:
        value = getattr(cl3, name)
        if isinstance(value, type(cl3)):
            assert value.__name__ == f"cl3.{name}"
        elif getattr(value, "__module__", "").startswith("cl3."):
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cl3.not_a_name
    assert not hasattr(cl3, "series_evaluate")


def test_center_element_is_an_immutable_picklable_record():
    c = CenterElement(2.0, -1.5)
    assert CenterElement._fields == ("a_s", "a_i")
    assert (c.a_s, c.a_i) == (2.0, -1.5)
    assert c.as_multivector(Signature.CL12) == Multivector(Signature.CL12, (2.0, 0, 0, 0, 0, 0, 0, -1.5))
    with pytest.raises(AttributeError):
        c.a_s = 1.0
    assert pickle.loads(pickle.dumps(c)) == c
    # A NamedTuple: it iterates and compares equal to a plain tuple.
    assert tuple(c) == (2.0, -1.5) and c == (2.0, -1.5)
    assert repr(c) == "CenterElement(a_s=2.0, a_i=-1.5)"


def test_exp_factors_is_an_immutable_picklable_record():
    assert ExpFactors._fields == ("sig", "branch", "a_plus_sq", "a_minus_sq", "a_plus", "a_minus", "c_norm")
    assert ExpFactors._field_defaults == {"a_plus": None, "a_minus": None, "c_norm": None}
    f = ExpFactors(Signature.CL21, ExpBranch.GENERIC, 1.0, 2.0)
    assert (f.a_plus, f.a_minus, f.c_norm) == (None, None, None)
    for sig in Signature:
        got = exp_factors(Multivector(sig, (0.5, 1.0, -2.0, 0.25, 3.0, -1.0, 0.5, 0.75)))
        assert pickle.loads(pickle.dumps(got)) == got
        with pytest.raises(AttributeError):
            got.branch = ExpBranch.BOTH_DEGENERATE


def test_series_spec_is_an_immutable_picklable_record():
    spec = cl3.SeriesSpec(cl3.SeriesFamily.TANH, 12)
    assert cl3.SeriesSpec._fields == ("family", "terms")
    assert spec == (cl3.SeriesFamily.TANH, 12) and pickle.loads(pickle.dumps(spec)) == spec
    assert repr(spec) == "SeriesSpec(family=<SeriesFamily.TANH: 'tanh'>, terms=12)"
    with pytest.raises(AttributeError):
        spec.terms = 3


def _trace(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "cli_child.py"), *argv],
        capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("BENCH_TRACE ")]
    assert len(lines) == 1, proc.stderr
    return json.loads(lines[0].removeprefix("BENCH_TRACE "))["stats"]


def test_bench_tracer_still_counts_lazily_bound_functions():
    # The tracer wraps series_eval in cl3.series; the CLI must reach it there.
    stats = _trace(["compare", "--fn", "exp", "--terms", "12", "--mv", _LITERAL, "--format", "json"])
    assert stats["series.series_eval"][0] == 1
    assert stats["exponential.exp"][0] == 1
    stats = _trace(["eval", "--fn", "tanh", "--series", "--terms", "12", "--mv", _LITERAL])
    assert stats["series.series_eval"][0] == 1
    stats = _trace(["eval", "--fn", "exp", "--mv", _LITERAL, "--format", "json"])
    assert stats["exponential.exp"][0] == 1
    assert stats["series.series_eval"][0] == 0
