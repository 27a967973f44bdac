"""Layered benchmark of the propergenus CLI.

    python3 perfbench/run.py --workload witten-cert --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client: each operation starts
when the previous one has been checked.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it prints the
per-layer metrics from a traced run.  Times are in reference seconds
(see refclock.py).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import refclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import propergenus.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {what}: {error}", file=sys.stderr)


@dataclass
class Outcome:
    passed: bool
    op_ns: int  # wall time of the calls
    busy_ns: int  # wall time of the calls and their checks
    output_bytes: int


def execute(op, tally: Tally) -> Outcome:
    """Run one operation, check it, and count it."""
    from workloads import check_call, invoke, key

    error, outputs = None, []
    start = perf_counter_ns()
    try:
        outputs = [invoke(call.argv) for call in op]
    except Exception as exc:  # a raising operation is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    end = perf_counter_ns()
    if error is None:
        try:
            for call, (rc, text) in zip(op, outputs):
                check_call(call, rc, text)
        except Exception as exc:  # GateError, or malformed JSON
            error = f"{type(exc).__name__}: {exc}"
    tally.record(key(op[0].argv), error)
    return Outcome(error is None, end - start, perf_counter_ns() - start,
                   sum(len(text.encode()) for _, text in outputs))


@dataclass
class Loop:
    """What a closed loop measured; times in seconds."""

    ref_times: list[float] = field(default_factory=list)  # passed ops, reference s
    wall_times: list[float] = field(default_factory=list)  # passed ops, wall s
    ref_busy: float = 0.0  # calls and checks of every op, reference s
    wall_busy: float = 0.0
    ops: int = 0

    def throughput(self) -> float:
        return len(self.ref_times) / self.ref_busy

    def p50(self) -> float:
        return statistics.median(self.ref_times) if self.ref_times else self.ref_busy


def closed_loop(ops, seconds: float, tally: Tally, tracer=None) -> Loop:
    """Cycle through ``ops`` until ``seconds`` of wall time have passed.

    Each operation is rescaled by the mean of the reference scales taken
    just before and just after it; one calibration serves as the after
    of one operation and the before of the next.
    """
    gc.collect()
    loop = Loop()
    budget = int(seconds * 1e9)
    begin = perf_counter_ns()
    before = refclock.scale()
    while loop.ops == 0 or perf_counter_ns() - begin < budget:
        if tracer is not None:
            tracer.begin_op()
        out = execute(ops[loop.ops % len(ops)], tally)
        after = refclock.scale()
        scale = (before + after) / 2
        before = after
        if tracer is not None:
            tracer.end_op(out.op_ns, out.output_bytes, scale)
        loop.ref_busy += out.busy_ns * scale / 1e9
        loop.wall_busy += out.busy_ns / 1e9
        if out.passed:
            loop.ref_times.append(out.op_ns * scale / 1e9)
            loop.wall_times.append(out.op_ns / 1e9)
        loop.ops += 1
    return loop


def measure_setup() -> float:
    """Median time, in reference seconds, for a fresh interpreter to
    import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = refclock.scale()
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        after = refclock.scale()
        samples.append(float(done.stdout) * (before + after) / 2)
        before = after
    return statistics.median(samples[1:])  # the first child may compile bytecode


def machine_notes() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": model, "machine": platform.machine()}


def end_to_end(workload: str, ops, seconds: float, tally: Tally) -> dict:
    setup = measure_setup()
    execute(ops[0], tally)  # warm-up, checked but not timed
    loop = closed_loop(ops, seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if loop.ref_times:
        print(f"# {workload}: {len(loop.ref_times)} timed operations; wall-clock "
              f"op_p50 {statistics.median(loop.wall_times)!r} s, throughput "
              f"{len(loop.wall_times) / loop.wall_busy!r} 1/s; setup_s is the "
              f"median of {SETUP_SAMPLES} child interpreters")
    return {
        "throughput_ops_s": loop.throughput(),
        "op_p50_s": loop.p50(),
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
    }


def per_layer(workload: str, seed: int, ops, seconds: float, tally: Tally,
              machine: dict) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import Gate, scaling_calls

    execute(ops[0], tally)  # warm-up
    plain = closed_loop(ops, seconds / 4, tally)  # only the base of overhead_ratio
    tracer = Tracer()
    originals = Tracer.snapshot()
    tracer.install()
    try:
        traced = closed_loop(ops, seconds / 2, tally, tracer)
    finally:
        tracer.restore()
    if not Tracer.originals_in_place(originals):
        tally.record("restore wrappers", "an original was not put back")
    print(f"# {workload}: {traced.ops} traced and {plain.ops} untraced operations")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced.ops / traced.ref_busy) / (plain.ops / plain.ref_busy)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.jsonl",
                 {"workload": workload, "seed": seed, "machine": machine, "ops": tracer.ops})
    del tracer
    gc.collect()
    for name, call in scaling_calls(Gate.load()).items():
        metrics[name] = closed_loop([(call,)], 0, tally).p50()
    return metrics


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import propergenus.cli
    except ImportError as exc:
        print(f"perfbench: cannot import propergenus from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(propergenus.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: propergenus was not imported from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Gate, operations

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    ops = operations(args.workload, args.seed, Gate.load())
    tally = Tally()
    machine = machine_notes()
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    if args.trace:
        metrics = per_layer(args.workload, args.seed, ops, args.seconds, tally, machine)
        units = declared_units("per_layer")
    else:
        metrics = end_to_end(args.workload, ops, args.seconds, tally)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    for name in sorted(metrics):
        print(f"{args.workload:15} {name:40} {metrics[name]!r:>24} {units[name]}")
    print(f"{args.workload:15} {'failed_ratio':40} {tally.failed / tally.attempted!r:>24} "
          f"ratio ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
