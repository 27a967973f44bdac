"""Command-line front end emitting deterministic JSON reports.

Exit status: 0 on success, 2 on a domain error (the report is a
machine-readable error object), 64 on a usage error.  Identical inputs
produce byte-identical output: keys are sorted and rationals rendered
as decimal-free strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .chern import solve_cancellation
from .core.laurent import LaurentPoly
from .errors import DomainError
# unused here, but perfbench/spans.py wraps cli.trace_series (tests/test_perfbench_targets.py)
from .induction import averaged_elliptic_genera, averaged_witten_genus, trace_series
from .lambda_ring import THETA, THETA1, THETA2, eval_bundle_expr
from .lefschetz import DIRAC, SIGNATURE, lefschetz_twisted, p_series
from .theta_modforms import (
    MODFORM_NAMES,
    THETA_KINDS,
    modform_qexp,
    theta_qexp,
    verify_modform_transforms,
    verify_theta_transforms,
)

USAGE_ERROR = 64
DOMAIN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values such as the weights -3,0,1,2 are arguments, not options
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_weights(text: str) -> list[int]:
    try:
        return [int(w) for w in text.split(",") if w != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}") from exc


def _parse_order(text: str) -> int:
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if order < 1:
        raise argparse.ArgumentTypeError(f"order must be at least 1, got {order}")
    return order


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite number {text!r}")
    return value


def _parse_tol(text: str) -> float:
    tol = _parse_finite(text)
    if tol <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    return tol


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}")
    return complex(_parse_finite(parts[0]), _parse_finite(parts[1]))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every call:
    parsing reads it and never changes it."""
    parser = _Parser(prog="propergenus")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=_parse_order, default=10, help="truncation order N >= 1")
    common.add_argument("--json-indent", type=int, choices=range(9), default=2)
    common.add_argument("--output", default=None, help="write JSON here instead of stdout")
    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--weights", type=_parse_weights, required=True)
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol", type=_parse_tol, default=1e-9, help="numeric tolerance")

    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser(
        "witten-genus", parents=[common, weighted],
        description=(
            "Averaged Witten genus of the weighted action. The series is "
            "evaluated by two routes, the literal product p_series and "
            "the factored route Theta(adjoint) * Lefschetz, and the two must agree "
            "exactly at every grade."))
    sub.add_parser("elliptic-genera", parents=[common, weighted])
    lf = sub.add_parser("lefschetz", parents=[common, weighted])
    lf.add_argument("--unsigned", action="store_true",
                    help="use the literal unsigned fixed-point formula")
    lf.add_argument("--operator", choices=[DIRAC, SIGNATURE], default=DIRAC)
    lf.add_argument("--twist", choices=["none", THETA, THETA1, THETA2], default=THETA)
    sub.add_parser("p-series", parents=[common, weighted])

    theta = sub.add_parser("theta")
    tsub = theta.add_subparsers(dest="action", required=True)
    tcheck = tsub.add_parser("check", parents=[common, tolerance])
    tcheck.add_argument("--v", type=_parse_complex, required=True)
    tcheck.add_argument("--tau", type=_parse_complex, required=True)
    texp = tsub.add_parser("expand", parents=[common])
    texp.add_argument("--kind", choices=list(THETA_KINDS), required=True)
    texp.add_argument("--z-order", type=int, default=None)

    mf = sub.add_parser("modforms")
    msub = mf.add_subparsers(dest="action", required=True)
    mexp = msub.add_parser("expand", parents=[common])
    mexp.add_argument("--name", choices=list(MODFORM_NAMES), required=True)
    mcheck = msub.add_parser("check", parents=[common, tolerance])
    mcheck.add_argument("--tau", type=_parse_complex, required=True)

    bundle = sub.add_parser("bundle")
    bsub = bundle.add_subparsers(dest="action", required=True)
    bexp = bsub.add_parser("expand", parents=[common])
    bexp.add_argument("--expr", required=True, help="S-expression, e.g. (theta1 (tilde (rep 2)))")

    canc = sub.add_parser("cancellation", parents=[common])
    canc.add_argument("--k", type=int, required=True)
    return parser


def _weighted_report(args, **body) -> dict:
    """The report of a verb on a weight vector: its shared header, then ``body``."""
    return {"verb": args.verb, "weights": sorted(args.weights), "order": args.order, **body}


def _run_witten(args) -> dict:
    series = averaged_witten_genus(args.weights, args.order)
    return _weighted_report(args, series=series.to_json(), identically_zero=series.is_zero())


def _run_elliptic(args) -> dict:
    phi1, phi2 = averaged_elliptic_genera(args.weights, args.order)
    return _weighted_report(args, phi1=phi1.to_json(), phi2=phi2.to_json(),
                            identically_zero=phi1.is_zero() and phi2.is_zero())


def _run_lefschetz(args) -> dict:
    twist = None if args.twist == "none" else args.twist
    series = lefschetz_twisted(args.weights, args.operator, twist,
                               args.order, signed=not args.unsigned)
    return _weighted_report(args, operator=args.operator, twist=args.twist,
                            signed=not args.unsigned, series=series.to_json())


def _run_p_series(args) -> dict:
    series = p_series(args.weights, args.order)
    return _weighted_report(args, signed=True, series=series.to_json())


def _check_report(verb: str, args, report: dict, **point) -> dict:
    """The report of a numeric check verb at the evaluation point ``point``."""
    return {"verb": verb, **point, "tau": [args.tau.real, args.tau.imag],
            "order": args.order, **report}


def _run_theta(args) -> dict:
    if args.action == "check":
        report = verify_theta_transforms(args.v, args.tau, args.order, args.tol)
        return _check_report("theta-check", args, report, v=[args.v.real, args.v.imag])
    exp = theta_qexp(args.kind, args.order, args.z_order)
    return {
        "verb": "theta-expand",
        "kind": exp.kind,
        "prefactor_exponent": str(exp.prefactor_exponent),
        "trig": exp.trig or "none",
        "z_order": exp.z_order,
        "series": exp.series.to_json(),
    }


def _run_modforms(args) -> dict:
    if args.action == "check":
        report = verify_modform_transforms(args.tau, args.order, args.tol)
        return _check_report("modforms-check", args, report)
    mf = modform_qexp(args.name, args.order)
    return {
        "verb": "modforms-expand",
        "name": mf.name,
        "weight": mf.weight,
        "group": mf.group,
        "series": mf.series.to_json(),
    }


def _run_bundle(args) -> dict:
    value = eval_bundle_expr(args.expr, args.order)
    if isinstance(value, LaurentPoly):
        body = {"type": "character", "character": value.to_json(),
                "rank": str(Fraction(value.eval_one()))}
    else:
        body = {"type": "series", "series": value.to_json()}
    return {"verb": "bundle-expand", "expr": args.expr, "order": args.order, **body}


def _run_cancellation(args) -> dict:
    report = solve_cancellation(args.k, args.order)
    return {
        "verb": "cancellation",
        "k": report.k,
        "h": [str(h) for h in report.h_coeffs],
        "exponents": report.exponents,
        "schedule": report.schedule,
        "residual_is_zero": report.residual_is_zero,
        "combinations": [
            {"*".join(map(str, p)) or "1": str(Fraction(c)) for p, c in sorted(c.items())}
            for c in report.combinations
        ],
    }


_RUNNERS = {
    "witten-genus": _run_witten,
    "elliptic-genera": _run_elliptic,
    "lefschetz": _run_lefschetz,
    "p-series": _run_p_series,
    "theta": _run_theta,
    "modforms": _run_modforms,
    "bundle": _run_bundle,
    "cancellation": _run_cancellation,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = _RUNNERS[args.verb](args), 0
    except DomainError as exc:
        doc, code = {"error": {"code": type(exc).__name__, "message": str(exc)}}, DOMAIN_ERROR
    except ValueError as exc:
        parser.error(str(exc))
    text = json.dumps(doc, sort_keys=True, indent=args.json_indent) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        # the usage error takes precedence, but a domain error is not lost
        lost = f"; {doc['error']['code']}: {doc['error']['message']}" if code else ""
        parser.exit(USAGE_ERROR, f"{parser.prog}: error: cannot write {args.output!r}: "
                                 f"{exc.strerror}{lost}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
