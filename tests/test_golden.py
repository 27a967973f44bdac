"""Byte identity of CLI output against every digest in perfbench/golden.json.

The calls are those ``perfbench/record_golden.py`` records, built from
``perfbench/workloads.py`` the same way: the Witten genus, the elliptic
genera and the exact quick verbs of every weight variant, then the N and
2l scaling sweeps.  Each call runs ``propergenus.cli.main`` in this
process and compares the SHA-256 of its stdout with the recorded digest,
so a refactor that changes any output byte fails here.  golden.json is
only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
GOLDEN = json.loads(wl.GOLDEN_PATH.read_text())["digests"]


def _recorded_calls():
    """(argv, exit code) of every recorded call, once each, in recording order."""
    reference = wl.Variant(0, False).csv
    calls = [(wl.witten_argv(reference), 0)]
    for v in wl.all_variants():
        calls += [(wl.witten_argv(v.csv), 0), (wl.elliptic_argv(v.csv), 0)]
        calls += wl.quick_exact_argvs(v.csv)
    calls += [(wl.witten_argv(reference, n), 0) for n in wl.SCALING_N]
    calls += [(wl.lefschetz_scaling_argv(two_l), 0) for two_l in wl.SCALING_WEIGHTS]
    return list({wl.key(argv): (argv, rc) for argv, rc in calls}.values())


CALLS = _recorded_calls()


def test_every_golden_digest_is_replayed():
    assert sorted(wl.key(argv) for argv, _ in CALLS) == sorted(GOLDEN)


@pytest.mark.parametrize("argv,rc", CALLS, ids=[wl.key(argv) for argv, _ in CALLS])
def test_output_matches_golden_digest(argv, rc):
    got, text = wl.invoke(argv)
    assert got == rc
    assert wl.digest(text) == GOLDEN[wl.key(argv)]
