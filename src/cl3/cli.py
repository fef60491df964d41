"""Command-line front end: evaluate, compare against series, run spin sweeps.

Multivector literals come in two forms: eight comma-separated coefficients
in blade order with an optional ``/ N`` divisor, or a signed term list like
``4 + 1*e1 - 5*e3 + 10*e12``.  Results render as signed terms in blade
order with exact zeros suppressed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import (
    _render,
    BLADE_NAMES,
    Multivector,
    Signature,
    det_norm,
    determinant,
    inverse,
)
from .center import center_decompose, sqrt_center
from .exceptions import Cl3Error, MVParseError
from .exponential import exp, exp_factors
from .functions import hyperbolic_exact, ratio_exact, trig_exact

_BLADE_INDEX = {name: i for i, name in enumerate(BLADE_NAMES) if name != "1"}
# One call per function of ``eval`` and ``compare``.  Each entry looks its
# function up when called, so a wrapper bound later in this module's
# namespace (a tracer's span, say) is the one that runs.
_EVAL = {
    "exp": lambda x: exp(x),
    "sin": lambda x: trig_exact(x, "sin"),
    "cos": lambda x: trig_exact(x, "cos"),
    "tan": lambda x: ratio_exact(x, "tan"),
    "sinh": lambda x: hyperbolic_exact(x, "sinh"),
    "cosh": lambda x: hyperbolic_exact(x, "cosh"),
    "tanh": lambda x: ratio_exact(x, "tanh"),
    "inv": lambda x: inverse(x).inverse,
    "det": lambda x: determinant(x),
    "det-norm": lambda x: det_norm(x),
}
# Functions with both a closed form and a series (their SeriesFamily values).
_SERIES_FAMILIES = ("exp", "sin", "cos", "tan", "sinh", "cosh", "tanh")
_CONVERGENCE_WARN = 1e-6

_NUM = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# One term of the term form: its signs, then ``number [* blade]`` or a bare blade.
_TERM = re.compile(rf"(?P<signs>[\s+-]*)(?:(?P<num>{_NUM})(?P<star>\s*\*\s*(?P<blade>{_NAME})?)?|(?P<bare>{_NAME}))?")


def _parse_terms(text: str, sig: Signature) -> Multivector:
    coeffs = [0.0] * 8
    pos = 0  # past the first term (pos > 0), every term needs a sign
    while True:
        m = _TERM.match(text, pos)
        signed, at = m["signs"].strip(), m.end("signs")
        if not (m["num"] or m["bare"]):
            if at < len(text):
                raise MVParseError(f"unexpected character {text[at]!r}", column=at + 1)
            if pos and not signed:
                return Multivector(sig, tuple(coeffs))
            if not (pos or signed):
                raise MVParseError("empty multivector literal", column=1)
            raise MVParseError("dangling sign at end of input", column=len(text))
        if pos and not signed:
            raise MVParseError("expected '+' or '-' between terms", column=at + 1)
        if m["star"] and not m["blade"]:
            raise MVParseError("expected blade name after '*'", column=m.end() + 1)
        name = m["blade"] or m["bare"]
        blade_idx = _blade_index(name, m.end() - len(name)) if name else 0
        value = float(m["num"]) if m["num"] else 1.0
        coeffs[blade_idx] += (-1.0 if signed.count("-") % 2 else 1.0) * value
        pos = m.end()


def _blade_index(name: str, pos: int) -> int:
    if name in _BLADE_INDEX:
        return _BLADE_INDEX[name]
    if re.fullmatch(r"e[123]{2,3}", name):
        digits = name[1:]
        if len(set(digits)) == len(digits):
            ascending = "e" + "".join(sorted(digits))
            raise MVParseError(
                f"blade {name!r} is not in the stored basis; indices ascend "
                f"({ascending} is stored, {name} is its signed reordering)",
                column=pos + 1,
            )
    raise MVParseError(f"unknown blade {name!r}", column=pos + 1)


def parse_mv(text: str, sig: Signature = Signature.CL30) -> Multivector:
    """Parse a multivector literal (comma form or term form)."""
    if "," in text:
        body, _, divisor = text.partition("/")
        parts = body.split(",")
        if len(parts) != 8:
            raise MVParseError(f"expected 8 comma-separated coefficients, got {len(parts)}")
        coeffs = []
        col = 1
        for part in parts:
            try:
                coeffs.append(float(part))
            except ValueError:
                raise MVParseError(f"bad coefficient {part.strip()!r}", column=col) from None
            col += len(part) + 1
        if divisor.strip():
            try:
                scale = float(divisor)
                if not abs(scale) <= sys.float_info.max:  # inf would scale to 0, nan to nan
                    raise ValueError(divisor)
                coeffs = [v / scale for v in coeffs]
            except (ValueError, ZeroDivisionError):
                raise MVParseError(f"bad scale divisor {divisor.strip()!r}") from None
        return Multivector(sig, tuple(coeffs))
    return _parse_terms(text, sig)


def render_mv(mv: Multivector, digits: int = 8) -> str:
    """Signed terms in blade order; exact zeros suppressed."""
    return _render(mv.t, digits)


def _cmd_eval(args) -> int:
    sig = Signature.from_name(args.algebra)
    mv = parse_mv(args.mv, sig)
    fn = args.fn

    if args.series:
        if fn not in _SERIES_FAMILIES:
            raise Cl3Error(f"--series does not apply to --fn {fn}")
        _emit(_series(fn, mv, args.terms), args)
        return 0
    if fn in _EVAL:
        _emit(_EVAL[fn](mv), args)
        return 0
    if fn == "sqrt-center":
        ce = center_decompose(mv)
        roots = sqrt_center(ce, sig)
        if args.format == "json":
            print(json.dumps({"algebra": sig.name.lower(), "center": list(ce), "roots": [list(r) for r in roots]}))
        else:
            print(f"center: {ce.a_s:.{args.digits}g} + {ce.a_i:.{args.digits}g}*e123")
            for r in roots:
                print(f"root: {render_mv(r.as_multivector(sig), args.digits)}")
        return 0
    f = exp_factors(mv)  # fn is "exp-factors", the last of argparse's choices
    payload = {"algebra": sig.name.lower(), "branch": f.branch.value, **dict(zip(f._fields[2:], f[2:]))}
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if value is not None:
                print(f"{key}: {value:.{args.digits}g}" if isinstance(value, float) else f"{key}: {value}")
    return 0


def _series(fn: str, mv: Multivector, terms: int) -> Multivector:
    """The order-``terms`` series of ``fn``; warns when its last term still counts."""
    from .series import SeriesFamily, SeriesSpec, series_eval

    result, delta = series_eval(mv, SeriesSpec(SeriesFamily(fn), terms), return_last_term=True)
    if delta > _CONVERGENCE_WARN:
        print(
            f"warning: last series term still moves coefficients by {delta:.3g}; "
            "the series may not have converged",
            file=sys.stderr,
        )
    return result


def _emit(value: Multivector | float, args) -> None:
    if type(value) is not Multivector:
        print(json.dumps({"value": value}) if args.format == "json" else f"{value:.{args.digits}g}")
    elif args.format == "json":
        print(json.dumps({"algebra": value.sig.name.lower(), "coeffs": list(value.t), "basis": list(BLADE_NAMES)}))
    else:
        print(render_mv(value, args.digits))


def _cmd_compare(args) -> int:
    sig = Signature.from_name(args.algebra)
    mv = parse_mv(args.mv, sig)
    closed = _EVAL[args.fn](mv)
    approx = _series(args.fn, mv, args.terms)
    max_delta = max(abs(a - b) for a, b in zip(closed.t, approx.t))
    if args.format == "json":
        print(json.dumps({
            "algebra": sig.name.lower(),
            "fn": args.fn,
            "terms": args.terms,
            "closed": list(closed.t),
            "series": list(approx.t),
            "max_delta": max_delta,
            "basis": list(BLADE_NAMES),
        }))
    else:
        print(f"closed form: {render_mv(closed, args.digits)}")
        print(f"series[{args.terms}]: {render_mv(approx, args.digits)}")
        print(f"max delta: {max_delta:.3e}")
    return 0


def _cmd_spin(args) -> int:
    from .spin import RampSweep, sweep_ramp, write_trace_csv

    sweep = RampSweep(
        b0_start=args.b0_start,
        b0_end=args.b0_end,
        duration=args.T,
        samples=args.samples,
        omega=args.omega,
        omega1=args.omega1,
    )
    trace = sweep_ramp(sweep, args.sigma, method=args.method)
    if args.out in (None, "-"):
        write_trace_csv(trace, sys.stdout)
    else:
        with open(args.out, "w", newline="\n") as fh:
            write_trace_csv(trace, fh)
    return 0


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cl3",
        description="Geometric-algebra special functions in the four 3D Clifford algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", default="cl30", choices=[s.name.lower() for s in Signature])
    common.add_argument("--mv", required=True, help="multivector literal")
    common.add_argument("--digits", type=_digits, default=8, help="significant digits (default 8)")
    common.add_argument("--format", default="text", choices=["text", "json"])

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one function of one multivector")
    p_eval.add_argument("--fn", required=True, choices=[*_EVAL, "sqrt-center", "exp-factors"])
    p_eval.add_argument("--series", action="store_true", help="use the series evaluator instead of the closed form")
    p_eval.add_argument("--terms", type=int, default=20, help="series order for --series (default 20)")
    p_eval.set_defaults(run=_cmd_eval)

    p_cmp = sub.add_parser("compare", parents=[common], help="closed form vs truncated series")
    p_cmp.add_argument("--fn", required=True, choices=sorted(_SERIES_FAMILIES))
    p_cmp.add_argument("--terms", type=int, required=True, help="series order")
    p_cmp.set_defaults(run=_cmd_compare)

    p_spin = sub.add_parser("spin", help="spin-flip probability along a field ramp (CSV)")
    p_spin.add_argument("--omega", type=float, required=True)
    p_spin.add_argument("--omega1", type=float, required=True)
    p_spin.add_argument("--b0-start", dest="b0_start", type=float, required=True)
    p_spin.add_argument("--b0-end", dest="b0_end", type=float, required=True)
    p_spin.add_argument("--T", dest="T", type=float, required=True)
    p_spin.add_argument("--sigma", type=int, required=True, choices=[-1, 1])
    p_spin.add_argument("--samples", type=int, default=5000)
    p_spin.add_argument("--method", default="closed", choices=["closed", "stepped"], help=(
        "closed (the default): the constant-field Rabi law at each sample's b0, a resonance curve, "
        "not a solution of the ramp; stepped: a first-order solver of the ramp ODE, b0 held at each step's left end"))
    p_spin.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_spin.set_defaults(run=_cmd_spin)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (Cl3Error, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
