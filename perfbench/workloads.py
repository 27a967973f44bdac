"""Seeded inputs, operations and the output gate of the benchmark.

An operation is a short list of CLI calls made through
``propergenus.cli.main(argv)`` in this process with stdout captured.
Every call carries a check; an operation fails if a call raises, exits
with the wrong code, prints bytes whose SHA-256 differs from the digest
recorded in ``golden.json``, or breaks an invariant of its verb.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from propergenus.cli import main as cli_main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

REFERENCE = (0, 1, 2, 5)
TRANSLATES = range(10)
POOL_SIZE = 3
POINTS = 4

WITTEN_ORDER = 12
ELLIPTIC_ORDER = 10
P_SERIES_ORDER = 6
BUNDLE_EXPR = "(theta1 (tilde (sum (rep 2) (rep -2))))"
THETA_TOL = 1e-9
MODFORMS_TOL = 1e-8

# scaling sweep of the traced run
SCALING_N = (6, 8, 10, 12)
SCALING_WEIGHTS = {
    2: (0, 2),
    4: (0, 1, 2, 5),
    6: (0, 1, 2, 3, 4, 6),
    8: (0, 1, 2, 3, 4, 5, 6, 9),
}
SCALING_LEFSCHETZ_ORDER = 6

WORKLOADS = ("witten-cert", "elliptic-theta", "quick-verbs")


class GateError(Exception):
    """An output broke the gate."""


@dataclass(frozen=True)
class Variant:
    """A translate of the reference weights, optionally reversed."""

    shift: int
    reversed: bool

    @property
    def weights(self) -> tuple[int, ...]:
        top = max(REFERENCE)
        base = [top - a for a in REFERENCE] if self.reversed else REFERENCE
        return tuple(sorted(a + self.shift for a in base))

    @property
    def csv(self) -> str:
        return ",".join(map(str, self.weights))

    @property
    def sign(self) -> int:
        return -1 if self.reversed else 1


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    rc: int
    check: Callable[[str], None]


Operation = tuple[Call, ...]


def all_variants() -> list[Variant]:
    return [Variant(t, rev) for t in TRANSLATES for rev in (False, True)]


def weight_pool(seed: int) -> list[Variant]:
    return random.Random(seed).sample(all_variants(), POOL_SIZE)


def check_points(seed: int) -> list[tuple[str, str]]:
    """Seeded (v, tau) pairs, tau well inside the upper half-plane."""
    rng = random.Random(f"points-{seed}")
    points = []
    for _ in range(POINTS):
        v = f"{rng.uniform(-0.3, 0.3):.3f},{rng.uniform(-0.1, 0.1):.3f}"
        tau = f"{rng.uniform(-0.5, 0.5):.3f},{rng.uniform(0.8, 1.6):.3f}"
        points.append((v, tau))
    return points


# -- invoking the CLI --------------------------------------------------------

def invoke(argv) -> tuple[int, str]:
    """Run one CLI call in-process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def key(argv) -> str:
    return " ".join(argv)


# -- checks --------------------------------------------------------------------

def _expect(cond: bool, what: str):
    if not cond:
        raise GateError(what)


def _coeffs(series: dict) -> list[Fraction]:
    return [Fraction(t["coeff"]) for t in series["terms"]]


class Gate:
    """Builds the checked calls of each workload from golden.json."""

    def __init__(self, golden: dict):
        self.digests = golden["digests"]
        self.witten_reference = [Fraction(c) for c in golden["witten_reference"]]

    @classmethod
    def load(cls) -> "Gate":
        return cls(json.loads(GOLDEN_PATH.read_text()))

    def _digest_check(self, argv, extra=None) -> Callable[[str], None]:
        want = self.digests[key(argv)]

        def check(text: str):
            _expect(digest(text) == want, f"digest of {key(argv)!r}")
            if extra is not None:
                extra(json.loads(text))

        return check

    def witten(self, v: Variant, order: int = WITTEN_ORDER) -> Call:
        argv = witten_argv(v.csv, order)
        reference = self.witten_reference if order == WITTEN_ORDER else None

        def invariants(doc):
            _expect(doc["weights"] == list(v.weights), "weights echoed")
            coeffs = _coeffs(doc["series"])
            _expect(all(c.denominator == 1 for c in coeffs), "integral Witten coefficients")
            _expect(doc["identically_zero"] is False, "Witten genus is nonzero")
            if reference is not None:
                _expect(coeffs == [v.sign * c for c in reference],
                        "series equals the reference, negated under reversal")

        return Call(argv, 0, self._digest_check(argv, invariants))

    def elliptic(self, v: Variant) -> Call:
        argv = elliptic_argv(v.csv)

        def invariants(doc):
            _expect(doc["weights"] == list(v.weights), "weights echoed")
            _expect(doc["identically_zero"] is True, "elliptic genera vanish")
            for name in ("phi1", "phi2"):
                _expect(not any(_coeffs(doc[name])), f"{name} is identically zero")

        return Call(argv, 0, self._digest_check(argv, invariants))

    def lefschetz_scaling(self, two_l: int) -> Call:
        argv = lefschetz_scaling_argv(two_l)
        return Call(argv, 0, self._digest_check(argv))

    def quick_verbs(self, v: Variant, point: tuple[str, str]) -> Operation:
        vv, tau = point
        calls = [
            Call(("theta", "check", f"--v={vv}", f"--tau={tau}", "--order", "40",
                  "--tol", repr(THETA_TOL)), 0, _numeric_check(THETA_TOL)),
            Call(("modforms", "check", f"--tau={tau}", "--order", "60",
                  "--tol", repr(MODFORMS_TOL)), 0, _numeric_check(MODFORMS_TOL)),
        ]
        extra = {("cancellation", "--k", str(k)): _cancellation_check(k) for k in (1, 2, 3)}
        extra[UNSIGNED_ARGV] = _not_laurent
        for argv, rc in quick_exact_argvs(v.csv):
            calls.append(Call(argv, rc, self._digest_check(argv, extra.get(argv))))
        return tuple(calls)


# -- the exact-output calls, shared with record_golden.py -----------------------

UNSIGNED_ARGV = ("lefschetz", "--weights", "0,2", "--order", "4", "--unsigned")


def witten_argv(csv: str, order: int = WITTEN_ORDER) -> tuple[str, ...]:
    return ("witten-genus", "--weights", csv, "--order", str(order))


def elliptic_argv(csv: str) -> tuple[str, ...]:
    return ("elliptic-genera", "--weights", csv, "--order", str(ELLIPTIC_ORDER))


def lefschetz_scaling_argv(two_l: int) -> tuple[str, ...]:
    return ("lefschetz", "--weights", ",".join(map(str, SCALING_WEIGHTS[two_l])),
            "--operator", "dirac", "--twist", "theta",
            "--order", str(SCALING_LEFSCHETZ_ORDER))


def quick_exact_argvs(csv: str) -> list[tuple[tuple[str, ...], int]]:
    """(argv, exit code) of the quick verbs whose bytes are gated."""
    calls = [
        ("theta", "expand", "--kind", "theta1", "--order", "20"),
        ("modforms", "expand", "--name", "delta2", "--order", "10"),
        ("bundle", "expand", "--expr", BUNDLE_EXPR, "--order", "4"),
        ("p-series", "--weights", csv, "--order", str(P_SERIES_ORDER)),
    ] + [("cancellation", "--k", str(k)) for k in (1, 2, 3)]
    return [(argv, 0) for argv in calls] + [(UNSIGNED_ARGV, 2)]


def _numeric_check(tol: float) -> Callable[[str], None]:
    def check(text: str):
        doc = json.loads(text)
        residuals = doc["residuals"].values()
        _expect(all(r < tol for r in residuals), "residuals within tolerance")
        _expect(doc["all_passed"] is True and doc["failed"] == [], "all laws passed")

    return check


def _cancellation_check(k: int):
    def check(doc):
        _expect(doc["residual_is_zero"] is True, "cancellation residual is zero")
        _expect(doc["exponents"] == [3 * k - 6 * j for j in range(k // 2 + 1)],
                "exponents 3k-6j")

    return check


def _not_laurent(doc):
    _expect(doc["error"]["code"] == "NotLaurent", "unsigned sum fails the certificate")


# -- operations per workload ---------------------------------------------------

def operations(workload: str, seed: int, gate: Gate) -> list[Operation]:
    """The cycle of operations a closed-loop client repeats."""
    pool = weight_pool(seed)
    if workload == "witten-cert":
        return [(gate.witten(v),) for v in pool]
    if workload == "elliptic-theta":
        return [(gate.elliptic(v),) for v in pool]
    if workload == "quick-verbs":
        points = check_points(seed)
        return [gate.quick_verbs(pool[i % len(pool)], p) for i, p in enumerate(points)]
    raise ValueError(f"unknown workload {workload!r}")


def scaling_calls(gate: Gate) -> dict[str, Call]:
    ref = Variant(0, False)
    calls = {f"scaling.witten_genus.N{n}.s": gate.witten(ref, n) for n in SCALING_N}
    for two_l in SCALING_WEIGHTS:
        calls[f"scaling.lefschetz.2l{two_l}.s"] = gate.lefschetz_scaling(two_l)
    return calls


def check_call(call: Call, rc, text: str):
    _expect(rc == call.rc, f"exit code {rc!r} of {key(call.argv)!r}, expected {call.rc}")
    call.check(text)
