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

from .chern import solve_cancellation
from .core.laurent import LaurentPoly
from .errors import DomainError
# unused here, but perfbench/spans.py wraps cli.trace_series (tests/test_perfbench_targets.py)
from .induction import averaged_elliptic_genera, averaged_witten_genus, trace_series
from .lambda_ring import THETA, THETA1, THETA2, eval_bundle_expr
from .lefschetz import DIRAC, SIGNATURE, lefschetz_twisted, p_series
from .theta_modforms import (
    MODFORM_NAMES,
    MODFORM_ORDER,
    MODFORM_TOL,
    THETA_KINDS,
    THETA_ORDER,
    THETA_TOL,
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
        return [int(w) for w in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}") from exc


def _parse_order(text: str, top: int | None = None) -> int:
    try:
        order = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if order < 1:
        raise argparse.ArgumentTypeError(f"order must be at least 1, got {order}")
    if top and order > top:
        raise argparse.ArgumentTypeError(f"order must be at most {top}, got {order}")
    return order


# the largest k and order that cancellation solves: solve_cancellation(32)
# takes about 1.5 s and 40 MB, and (32, 100) about 2.5 s and 43 MB (Python
# 3.11, 2-core Intel Xeon); the cost grows about as the square of the order
MAX_K, MAX_ORDER = 32, 100
# the largest order of the theta and modular-form verbs: at 10,000 each takes
# 0.15-0.3 s and at most 35 MB, about linear in the order (same machine)
MAX_FORM_ORDER = 10_000


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


def _common(order: int | None, tol: float | None = None,
            top: int | None = None) -> argparse.ArgumentParser:
    """The options every verb takes, ``order`` the default of --order and
    ``top`` its largest value, and a check verb's --tol, ``tol`` its
    default.  Each default has its own parent: a child's set_defaults
    would change the Action that every child of a shared parent holds.
    With no order, cancellation solves at the library's k // 2 + 2."""
    parent = argparse.ArgumentParser(add_help=False)
    bound = f", at most {top}" if top else ""
    parent.add_argument("--order", type=functools.partial(_parse_order, top=top), default=order,
                        help=f"truncation order N >= 1{bound} (default {order or 'k // 2 + 2'})")
    parent.add_argument("--json-indent", type=int, choices=range(9), default=2)
    parent.add_argument("--output", default=None, help="write JSON here instead of stdout")
    if tol:
        parent.add_argument("--tol", type=_parse_tol, default=tol, help="numeric tolerance")
    return parent


def _verb(sub, name: str, run, **kwargs) -> _Parser:
    """A leaf parser that carries its runner and itself, on keys that no
    parent sets, so ``main`` runs it and reports its usage errors."""
    leaf = sub.add_parser(name, **kwargs)
    leaf.set_defaults(run=run, leaf=leaf)
    return leaf


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every call:
    parsing reads it and never changes it."""
    parser = _Parser(prog="propergenus")
    common, forms = _common(10), _common(10, top=MAX_FORM_ORDER)
    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--weights", type=_parse_weights, required=True)

    sub = parser.add_subparsers(dest="verb", required=True)
    _verb(
        sub, "witten-genus", _run_witten, parents=[common, weighted],
        description=(
            "Averaged Witten genus of the weighted action. The series is "
            "evaluated by two routes, the literal product p_series and "
            "the factored route Theta(adjoint) * Lefschetz, and the two must agree "
            "exactly at every grade."))
    _verb(sub, "elliptic-genera", _run_elliptic, parents=[common, weighted])
    lf = _verb(sub, "lefschetz", _run_lefschetz, parents=[common, weighted])
    lf.add_argument("--unsigned", action="store_true",
                    help="use the literal unsigned fixed-point formula")
    lf.add_argument("--operator", choices=[DIRAC, SIGNATURE], default=DIRAC)
    lf.add_argument("--twist", choices=["none", THETA, THETA1, THETA2], default=THETA)
    _verb(sub, "p-series", _run_p_series, parents=[common, weighted])

    theta = sub.add_parser("theta")
    tsub = theta.add_subparsers(dest="action", required=True)
    tcheck = _verb(tsub, "check", _run_theta_check,
                   parents=[_common(THETA_ORDER, THETA_TOL, MAX_FORM_ORDER)])
    tcheck.add_argument("--v", type=_parse_complex, required=True)
    tcheck.add_argument("--tau", type=_parse_complex, required=True)
    texp = _verb(tsub, "expand", _run_theta_expand, parents=[forms])
    texp.add_argument("--kind", choices=list(THETA_KINDS), required=True)
    texp.add_argument("--z-order", type=int, default=None)

    mf = sub.add_parser("modforms")
    msub = mf.add_subparsers(dest="action", required=True)
    mexp = _verb(msub, "expand", _run_modforms_expand, parents=[forms])
    mexp.add_argument("--name", choices=list(MODFORM_NAMES), required=True)
    mcheck = _verb(msub, "check", _run_modforms_check,
                   parents=[_common(MODFORM_ORDER, MODFORM_TOL, MAX_FORM_ORDER)])
    mcheck.add_argument("--tau", type=_parse_complex, required=True)

    bundle = sub.add_parser("bundle")
    bsub = bundle.add_subparsers(dest="action", required=True)
    bexp = _verb(bsub, "expand", _run_bundle, parents=[common])
    bexp.add_argument("--expr", required=True, help="S-expression, e.g. (theta1 (tilde (rep 2)))")

    canc = _verb(sub, "cancellation", _run_cancellation, parents=[_common(None, top=MAX_ORDER)])
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


def _run_theta_check(args) -> dict:
    report = verify_theta_transforms(args.v, args.tau, args.order, args.tol)
    return _check_report("theta-check", args, report, v=[args.v.real, args.v.imag])


def _run_theta_expand(args) -> dict:
    exp = theta_qexp(args.kind, args.order, args.z_order)
    return {"verb": "theta-expand", **exp._asdict(), "series": exp.series.to_json(),
            "prefactor_exponent": str(exp.prefactor_exponent), "trig": exp.trig or "none"}


def _run_modforms_check(args) -> dict:
    report = verify_modform_transforms(args.tau, args.order, args.tol)
    return _check_report("modforms-check", args, report)


def _run_modforms_expand(args) -> dict:
    mf = modform_qexp(args.name, args.order)
    return {"verb": "modforms-expand", **mf._asdict(), "series": mf.series.to_json()}


def _run_bundle(args) -> dict:
    value = eval_bundle_expr(args.expr, args.order)
    if isinstance(value, LaurentPoly):
        body = {"type": "character", "character": value.to_json(),
                "rank": str(value.eval_one())}
    else:
        body = {"type": "series", "series": value.to_json()}
    return {"verb": "bundle-expand", "expr": args.expr, "order": args.order, **body}


def _run_cancellation(args) -> dict:
    if args.k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}, got {args.k}")
    report = solve_cancellation(args.k, args.order)
    return {
        "verb": "cancellation",
        "k": report.k,
        "h": [str(h) for h in report.h_coeffs],
        "exponents": report.exponents,
        "schedule": report.schedule,
        "residual_is_zero": report.residual_is_zero,
        "combinations": [
            {"*".join(map(str, p)) or "1": str(c) for p, c in sorted(c.items())}
            for c in report.combinations
        ],
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.run(args), 0
    except DomainError as exc:
        doc, code = {"error": {"code": type(exc).__name__, "message": str(exc)}}, DOMAIN_ERROR
    except ValueError as exc:
        args.leaf.error(str(exc))
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
