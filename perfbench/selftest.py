"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the seeded inputs are deterministic, that the tracer's
wrappers leave every output byte unchanged and are all removed again,
that a corrupted output or a wrong exit code is counted as a failed
operation, and that two traced runs of the same operations give
identical counts.  Exits 1 on the first failed check.  Takes about ten
seconds.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Gate, Variant, operations  # noqa: E402

COUNTS = ("core.ratfunc.gcd_fallback.calls", "core.ratfunc.num_degree_max",
          "core.ratfunc.num_coeff_bits_max")


def check(cond: bool, what: str):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"PASS {what}")


def sample_ops(gate: Gate):
    """One cheap operation per layer mix: the quick verbs, one elliptic
    operation and a small Witten genus that still takes the gcd path."""
    return [operations("quick-verbs", 0, gate)[0],
            operations("elliptic-theta", 0, gate)[0],
            (gate.witten(Variant(0, False), 6),)]


def outputs(ops):
    return [[workloads.invoke(call.argv) for call in op] for op in ops]


def traced_counts(ops) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        tally = run.Tally()
        for op in ops:
            run.closed_loop([op], 0, tally, tracer)
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNTS}


def main() -> int:
    gate = Gate.load()
    for w in WORKLOADS:
        argvs = [[c.argv for c in op] for op in operations(w, 7, gate)]
        check(argvs == [[c.argv for c in op] for op in operations(w, 7, gate)],
              f"{w}: the same seed gives the same inputs")
        check(any(argvs != [[c.argv for c in op] for op in operations(w, s, gate)]
                  for s in range(8, 12)),
              f"{w}: other seeds give other inputs")

    ops = sample_ops(gate)
    plain = outputs(ops)
    originals = Tracer.snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        traced = outputs(ops)
    finally:
        tracer.restore()
    check(Tracer.originals_in_place(originals), "restore puts every original back")
    check(traced == plain and outputs(ops) == plain,
          "installing and removing the wrappers leaves every output unchanged")
    tally = run.Tally()
    for op in ops:
        run.execute(op, tally)
    check(tally.failed == 0, "the sample operations pass the gate")

    real_invoke = workloads.invoke
    for what, corrupt in (
        ("a changed digit", lambda rc, text: (rc, text.replace("1", "2", 1))),
        ("a changed exit code", lambda rc, text: (rc + 1, text)),
    ):
        workloads.invoke = lambda argv, corrupt=corrupt: corrupt(*real_invoke(argv))
        try:
            tally = run.Tally()
            with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
                for op in ops:
                    run.execute(op, tally)
        finally:
            workloads.invoke = real_invoke
        check(tally.failed == len(ops), f"{what} counts as a failed operation")

    first, second = traced_counts(ops), traced_counts(ops)
    check(first == second, f"two traced runs give identical counts ({len(first)} metrics)")
    check(first["core.ratfunc.construct.calls"] > 0, "the sample reaches the certificate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
