"""Span tracing installed from outside the package.

:class:`Tracer` replaces public methods and module-bound functions of
each layer with wrappers that record one span per call: its name, the
operation it belongs to, the span that caused it, and its start and end
in ``perf_counter_ns``.  Spans stay in memory until the run ends.
:meth:`Tracer.restore` puts every original back, and :func:`layer_metrics`
turns the spans into the per-layer metrics of ``BENCHMARK.json``.

Wrapped names are looked up where the caller looks them up: a module
that did ``from .lambda_ring import theta_bundle`` calls its own
binding, so each binding gets its own wrapper and span name
(``lefschetz.theta_bundle`` vs ``induction.theta_bundle``).
"""

from __future__ import annotations

import json
from time import perf_counter_ns

from propergenus import chern, cli, induction, lambda_ring, lefschetz
from propergenus.core import laurent, qseries, ratfunc

LEFSCHETZ_ENTRIES = (
    "lefschetz.lefschetz_twisted", "induction.lefschetz_twisted",
    "cli.lefschetz_twisted", "cli.p_series", "induction.p_series",
)
TWIST_BUILD = ("lefschetz.theta_bundle", "lefschetz.theta_series")
CERTIFICATE = ("core.ratfunc.construct", "core.ratfunc.to_laurent")
ROUTE_CHECK = ("induction.theta_bundle", "induction.lefschetz_witten")
THETA_SERIES = ("lambda_ring.theta_series", "lefschetz.theta_series")
THETA_BUNDLE = ("lefschetz.theta_bundle", "induction.theta_bundle")
VERIFY = ("cli.verify_theta_transforms", "cli.verify_modform_transforms")
EXPAND = ("cli.theta_qexp", "cli.modform_qexp", "chern.modform_qexp")
TRACE = ("induction.trace_series", "cli.trace_series")

# (owner, attribute, span name); class methods first, then module bindings
_TARGETS = (
    (qseries.QSeries, "__mul__", "core.qseries.mul"),
    (qseries.QSeries, "inverse", "core.qseries.inverse"),
    (qseries.QSeries, "exp", "core.qseries.exp"),
    (qseries.QSeries, "to_json", "core.qseries.to_json"),
    (laurent.LaurentPoly, "__mul__", "core.laurent.mul"),
    (ratfunc.RationalFunc, "__init__", "core.ratfunc.construct"),
    (ratfunc.RationalFunc, "to_laurent", "core.ratfunc.to_laurent"),
    (ratfunc, "poly_gcd", "core.ratfunc.poly_gcd"),
    (lambda_ring, "theta_series", "lambda_ring.theta_series"),
    (lambda_ring, "_total_power", "lambda_ring.total_power"),
    (lefschetz, "theta_series", "lefschetz.theta_series"),
    (lefschetz, "theta_bundle", "lefschetz.theta_bundle"),
    (lefschetz, "lefschetz_twisted", "lefschetz.lefschetz_twisted"),
    (induction, "theta_bundle", "induction.theta_bundle"),
    (induction, "lefschetz_witten", "induction.lefschetz_witten"),
    (induction, "lefschetz_twisted", "induction.lefschetz_twisted"),
    (induction, "p_series", "induction.p_series"),
    (induction, "trace_series", "induction.trace_series"),
    (chern, "modform_qexp", "chern.modform_qexp"),
    (cli, "averaged_witten_genus", "cli.averaged_witten_genus"),
    (cli, "averaged_elliptic_genera", "cli.averaged_elliptic_genera"),
    (cli, "trace_series", "cli.trace_series"),
    (cli, "lefschetz_twisted", "cli.lefschetz_twisted"),
    (cli, "p_series", "cli.p_series"),
    (cli, "verify_theta_transforms", "cli.verify_theta_transforms"),
    (cli, "verify_modform_transforms", "cli.verify_modform_transforms"),
    (cli, "theta_qexp", "cli.theta_qexp"),
    (cli, "modform_qexp", "cli.modform_qexp"),
    (cli, "eval_bundle_expr", "cli.eval_bundle_expr"),
    (cli, "solve_cancellation", "cli.solve_cancellation"),
)


def _variant(args, kwargs) -> str:
    return kwargs.get("variant", args[1] if len(args) > 1 else lambda_ring.THETA)


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        # span: (name, op, parent index or -1, start_ns, end_ns, returned normally)
        self.spans: list[tuple] = []
        # op: (wall ns of its calls, output bytes, reference scale)
        self.ops: list[tuple[int, int, float]] = []
        self.maxima = {"num_degree": 0, "num_coeff_bits": 0, "coeff_width": 0,
                       "residual": 0.0}
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @staticmethod
    def originals_in_place(originals) -> bool:
        return all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

    @staticmethod
    def snapshot():
        return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _TARGETS]

    def _wrap(self, fn, name):
        spans, stack, maxima = self.spans, self._stack, self.maxima
        label = None
        if name.endswith(".theta_bundle"):
            def label(args, kwargs):
                return f"{name}[{_variant(args, kwargs)}]"
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (label(args, kwargs) if label else name, self._op,
                              parent, start, end, ok)
            if observe is not None:
                observe(maxima, args, result)
            return result

        return wrapper

    # -- operations ---------------------------------------------------------

    def begin_op(self):
        self._op = len(self.ops)

    def end_op(self, op_ns: int, output_bytes: int, scale: float):
        self.ops.append((op_ns, output_bytes, scale))
        self._op = -1

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, op, parent, start, end, ok) in enumerate(self.spans):
                fh.write(json.dumps([i, op, parent, name, start, end, ok]) + "\n")


def _observe_ratfunc(maxima, args, _result):
    num = args[1]
    maxima["num_degree"] = max(maxima["num_degree"], num.degree())
    bits = max((_coeff_bits(c) for c in num.coeffs), default=0)
    maxima["num_coeff_bits"] = max(maxima["num_coeff_bits"], bits)


def _observe_theta_series(maxima, _args, result):
    for c in result.coeffs:
        if c.coeffs:
            maxima["coeff_width"] = max(maxima["coeff_width"], c.max_exp() - c.min_exp() + 1)


def _observe_verify(maxima, _args, result):
    maxima["residual"] = max(maxima["residual"], *result["residuals"].values())


_OBSERVERS = {
    "core.ratfunc.construct": _observe_ratfunc,
    "lambda_ring.theta_series": _observe_theta_series,
    "lefschetz.theta_series": _observe_theta_series,
    "cli.verify_theta_transforms": _observe_verify,
    "cli.verify_modform_transforms": _observe_verify,
}


# -- aggregation ----------------------------------------------------------------

def _base(name: str) -> str:
    return name.split("[", 1)[0]


class _Index:
    """Spans with durations rescaled by their operation's reference scale."""

    def __init__(self, spans, scales):
        self.spans = spans
        self.dur = [(end - start) * scales[op] for _, op, _, start, end, _ in spans]
        self.child = [0.0] * len(spans)
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            parent = span[2]
            if parent >= 0:
                self.child[parent] += self.dur[i]
                self.children[parent].append(i)

    def ancestors(self, i):
        parent = self.spans[i][2]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][2]

    def select(self, names, under=None, key=_base):
        """Spans in ``names`` with no ancestor in ``names`` (and, if given,
        with an ancestor in ``under``)."""
        names = set(names)
        under = set(under) if under is not None else None
        for i, span in enumerate(self.spans):
            if key(span[0]) not in names:
                continue
            outer = [key(self.spans[a][0]) for a in self.ancestors(i)]
            if any(n in names for n in outer):
                continue
            if under is not None and not any(_base(self.spans[a][0]) in under
                                             for a in self.ancestors(i)):
                continue
            yield i

    def inclusive(self, names, under=None, key=_base) -> float:
        return sum(self.dur[i] for i in self.select(names, under, key))

    def count(self, names) -> int:
        names = set(names)
        return sum(1 for s in self.spans if _base(s[0]) in names)

    def exclusive(self, names) -> float:
        names = set(names)
        return sum(self.dur[i] - self.child[i]
                   for i, s in enumerate(self.spans) if _base(s[0]) in names)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation means of the per-layer metrics, plus run-wide maxima.

    Counts are calls per operation; ``.s`` values are reference seconds
    per operation (see run.py), inclusive of nested layers unless named
    ``self_s``.
    """
    scales = [scale for *_, scale in tracer.ops]
    ix = _Index(tracer.spans, scales)
    ops = len(tracer.ops)
    op_ns = sum(ns * scale for ns, _, scale in tracer.ops)

    def per_op(x):
        return x / ops

    def secs(ns):
        return ns / ops / 1e9

    construct = [i for i, s in enumerate(ix.spans) if s[0] == "core.ratfunc.construct"]
    with_gcd = sum(1 for i in construct
                   if any(ix.spans[c][0] == "core.ratfunc.poly_gcd" for c in ix.children[i]))
    certified = sum(1 for i in ix.select(["core.ratfunc.to_laurent"], LEFSCHETZ_ENTRIES)
                    if ix.spans[i][5])
    twist = ix.inclusive(TWIST_BUILD)
    certificate = ix.inclusive(CERTIFICATE, LEFSCHETZ_ENTRIES)
    assembly = ix.inclusive(LEFSCHETZ_ENTRIES)
    route_check = ix.inclusive(ROUTE_CHECK, ["cli.averaged_witten_genus"])
    root_ns = sum(d for d, s in zip(ix.dur, ix.spans) if s[2] < 0)
    m = {
        "core.ratfunc.construct.calls": per_op(len(construct)),
        "core.ratfunc.construct.s": secs(ix.inclusive(["core.ratfunc.construct"])),
        "core.ratfunc.gcd_fallback.calls": per_op(ix.count(["core.ratfunc.poly_gcd"])),
        # vacuously 1 when nothing was constructed; construct.calls is the base
        "core.ratfunc.exact_division_ratio":
            (len(construct) - with_gcd) / len(construct) if construct else 1.0,
        "core.ratfunc.to_laurent.calls": per_op(ix.count(["core.ratfunc.to_laurent"])),
        "core.ratfunc.to_laurent.s": secs(ix.inclusive(["core.ratfunc.to_laurent"])),
        "core.ratfunc.num_degree_max": tracer.maxima["num_degree"],
        "core.ratfunc.num_coeff_bits_max": tracer.maxima["num_coeff_bits"],
        "core.qseries.mul.calls": per_op(ix.count(["core.qseries.mul"])),
        "core.qseries.mul.self_s": secs(ix.exclusive(["core.qseries.mul"])),
        "core.qseries.inverse.calls": per_op(ix.count(["core.qseries.inverse"])),
        "core.qseries.exp.calls": per_op(ix.count(["core.qseries.exp"])),
        "core.qseries.exp.s": secs(ix.inclusive(["core.qseries.exp"])),
        "core.laurent.mul.calls": per_op(ix.count(["core.laurent.mul"])),
        "core.laurent.mul.s": secs(ix.inclusive(["core.laurent.mul"])),
        "core.qseries.to_json.s": secs(ix.inclusive(["core.qseries.to_json"])),
        "lambda_ring.theta_series.calls": per_op(ix.count(THETA_SERIES)),
        "lambda_ring.theta_series.s": secs(ix.inclusive(THETA_SERIES)),
        "lambda_ring.total_power.calls": per_op(ix.count(["lambda_ring.total_power"])),
        "lambda_ring.coeff_width_max": tracer.maxima["coeff_width"],
        "lefschetz.twist_build.s": secs(twist),
        "lefschetz.assembly.self_s": secs(assembly - twist - certificate),
        "lefschetz.certificate.s": secs(certificate),
        "lefschetz.grades_certified": per_op(certified),
        "induction.trace.s": secs(ix.inclusive(TRACE)),
        "induction.route_check.s": secs(route_check),
        "induction.route_check_share": route_check / op_ns,
        "theta_modforms.verify.s": secs(ix.inclusive(VERIFY)),
        "theta_modforms.expand.s": secs(ix.inclusive(EXPAND)),
        "theta_modforms.residual_max": tracer.maxima["residual"],
        "chern.solve_cancellation.calls": per_op(ix.count(["cli.solve_cancellation"])),
        "chern.solve_cancellation.s": secs(ix.inclusive(["cli.solve_cancellation"])),
        "cli.self_s": secs(op_ns - root_ns),
        "cli.output_bytes": per_op(sum(b for _, b, _ in tracer.ops)),
        "trace.op_s": secs(op_ns),
    }
    for variant in (lambda_ring.THETA, lambda_ring.THETA1, lambda_ring.THETA2):
        labels = [f"{n}[{variant}]" for n in THETA_BUNDLE]
        m[f"lambda_ring.theta_bundle.{variant}.s"] = secs(ix.inclusive(labels, key=str))
    return m
