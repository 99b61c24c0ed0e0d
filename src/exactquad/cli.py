"""Command-line front end.

Reads a JSON problem file, dispatches to the library, prints the result as
a single JSON document on stdout and a short human summary on stderr.
Exit codes: 0 success, 2 validation error, 3 numerical failure; failures
emit a machine-readable ``{"kind": ..., "message": ...}`` object on stderr.

Subcommands: ``synthesize``, ``reduce``, ``covwitness``, ``gruss``,
``gruss-discrete``, ``verify``, ``chebyshev-test``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import (
    ExactQuadError,
    SchemaError,
    check_fields,
    numbers,
    positive,
    string,
    strings,
)
from .expr import parse as parse_expr
from .hull import (
    CurveSystem,
    chebyshev_sample_test,
    combination_from_json,
    combination_to_json,
    reduce_on_curve,
)
from .measure import DEFAULT_TOL, interval_from_json, measure_from_json
from .stats import covariance_witness, gruss_check, gruss_discrete
from .synth import rule_from_json, rule_to_json, synthesize_rule, verify_rule

__all__ = ["run", "main"]


def _functions_and_measure(obj, **extra):
    """Curve and measure of a problem with fields functions, measure and ``extra``."""
    check_fields(obj, "problem",
                 {"functions": strings, "measure": None, **extra},
                 optional=("tolerances",))
    m = measure_from_json(obj["measure"])
    curve = CurveSystem.from_texts(obj["functions"], m.interval)
    return curve, m


def _tol(obj, args) -> float:
    """The integration tolerance: ``--tol``, else the ``tol`` of the
    problem's ``tolerances`` block, else ``DEFAULT_TOL``.  The block is
    checked even when the flag overrides it; the integrator checks the
    flag's value."""
    block = obj.get("tolerances")
    if block is None:
        block = {}
    check_fields(block, "tolerances", {"tol": positive}, optional=("tol",))
    if args.tol is not None:
        return args.tol
    return float(block.get("tol", DEFAULT_TOL))


def _cmd_synthesize(obj, args):
    curve, m = _functions_and_measure(obj, tolerances=None)
    rule = synthesize_rule(curve, m, _tol(obj, args))
    note = (f"synthesized {len(rule)}-node rule (rank {rule.rank_used}), "
            f"max residual {float(rule.residuals.max()):.3e}")
    if not rule.converged:
        note += " [polish stopped above its target; residual gate still met]"
    return rule_to_json(rule), note


def _cmd_verify(obj, args):
    curve, m = _functions_and_measure(obj, rule=None)
    rule = rule_from_json(obj["rule"])
    report = verify_rule(rule, curve, m)
    note = ("rule verifies: max relative residual "
            f"{float(report.relative_residuals.max()):.3e}"
            if report.passed else "rule FAILS verification")
    return report.to_json(), note


def _cmd_reduce(obj, args):
    check_fields(obj, "problem",
                 {"functions": strings, "interval": None, "combination": None})
    interval = interval_from_json(obj["interval"])
    curve = CurveSystem.from_texts(obj["functions"], interval)
    comb = combination_from_json(obj["combination"])
    # the params are strictly increasing, so their ends are enough
    for t in (float(comb.params[0]), float(comb.params[-1])):
        if not interval.contains(t):
            raise SchemaError(f"combination param {t} outside the interval")
    comb = replace(comb, points=curve.evaluate(comb.params))
    v = comb.weights @ comb.points / comb.total
    reduced = reduce_on_curve(curve, comb, v)
    note = f"reduced {len(comb)} support points to {len(reduced)}"
    return combination_to_json(reduced), note


def _cmd_covwitness(obj, args):
    check_fields(obj, "problem",
                 {"f": string, "g": string, "measure": None, "tolerances": None},
                 optional=("tolerances",))
    m = measure_from_json(obj["measure"])
    tol = _tol(obj, args)
    w = covariance_witness(parse_expr(obj["f"]), parse_expr(obj["g"]), m, tol)
    note = (f"witness t1={w.t1:.6g} t2={w.t2:.6g}, "
            f"covariance {w.covariance:.6g}")
    return asdict(w), note


def _cmd_gruss(obj, args):
    check_fields(obj, "problem", {"f": string, "g": string, "measure": None})
    m = measure_from_json(obj["measure"])
    r = gruss_check(parse_expr(obj["f"]), parse_expr(obj["g"]), m)
    note = f"|covariance| {abs(r.covariance):.6g} <= bound {r.bound:.6g}"
    return asdict(r), note


def _cmd_gruss_discrete(obj, args):
    check_fields(obj, "problem", {"p": numbers, "u": numbers, "v": numbers})
    r = gruss_discrete(obj["p"], obj["u"], obj["v"])
    out = asdict(r)
    out["lhs"] = abs(r.covariance)
    note = f"lhs {out['lhs']:.6g} <= bound {r.bound:.6g}"
    return out, note


def _cmd_chebyshev(obj, args):
    check_fields(obj, "problem", {"functions": strings, "interval": None})
    interval = interval_from_json(obj["interval"])
    report = chebyshev_sample_test(obj["functions"], interval,
                                   trial_count=args.trials, seed=args.seed)
    note = ("witness found: the functions are NOT an alternant system"
            if report["witness"] is not None
            else "no sign change of the determinant found (evidence only)")
    return report, note


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "reduce": _cmd_reduce,
    "covwitness": _cmd_covwitness,
    "gruss": _cmd_gruss,
    "gruss-discrete": _cmd_gruss_discrete,
    "verify": _cmd_verify,
    "chebyshev-test": _cmd_chebyshev,
}


# subcommands that take an integration tolerance (see _tol)
_TOL_COMMANDS = ("synthesize", "covwitness")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactquad",
        description="Exact quadrature rules, curve reductions and "
                    "covariance bounds from JSON problem files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="path to a JSON problem file, or - for stdin")
        if name in _TOL_COMMANDS:
            p.add_argument("--tol", type=float, default=None,
                           help="integration tolerance override")
        if name == "chebyshev-test":
            p.add_argument("--trials", type=int, default=200)
            p.add_argument("--seed", type=int, default=0)
    return parser


def _emit_error(kind: str, message: str, stderr) -> None:
    print(json.dumps({"kind": kind, "message": message}), file=stderr)


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.problem == "-":
            text = sys.stdin.read()
        else:
            with open(args.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        _emit_error("schema", f"cannot read problem file: {exc}", stderr)
        return 2
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        _emit_error("schema", f"malformed JSON at offset {exc.pos}: {exc.msg}",
                    stderr)
        return 2
    except RecursionError:
        _emit_error("schema", "malformed JSON: arrays or objects nest too deeply",
                    stderr)
        return 2
    try:
        # numpy's floating-point warnings stay off stderr: a result is
        # checked by its own gates, and a failure is a typed error
        with np.errstate(all="ignore"):
            result, note = _COMMANDS[args.command](obj, args)
    except SchemaError as exc:
        _emit_error(exc.kind, str(exc), stderr)
        return 2
    except ExactQuadError as exc:
        _emit_error(exc.kind, str(exc), stderr)
        return 3
    print(json.dumps(result), file=stdout)
    print(note, file=stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
