"""Byte identity of the CLI's stdout over a fixed sweep of argv.

Each argv runs ``propergenus.cli.main`` in this process, and its exit
code and the SHA-256 of its stdout are compared with ``cli_bytes.json``.
The sweep is the weighted verbs on six weight sets from 2l = 2 to 2l = 8
at three orders each, both operators with every twist, signed and
``--unsigned``, the order-20 ``theta2`` calls, bundle expressions at
three orders, ``cancellation`` for k = 1, 2, 3 and 5 and every ``theta``
and ``modforms`` expand.  The two numeric check verbs and stderr are
left out: their floats and argparse's wording may differ between Python
versions.  A refactor that moves one stdout byte fails here.  Run this
file as a script to record it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from propergenus.cli import main
from propergenus.theta_modforms import MODFORM_NAMES, THETA_KINDS

RECORD = Path(__file__).with_name("cli_bytes.json")

WEIGHTS = [("0,1,2,5", (1, 4, 12)), ("0,2", (1, 4, 12)), ("0,1,2,3,4,6", (1, 4, 12)),
           ("0,2,4,6", (1, 4, 12)), ("-3,0,1,4", (1, 4, 12)), ("0,1,2,3,4,6,7,9", (1, 4, 8))]
EXPRESSIONS = [
    "(sym q^3/2 (rep 1))",
    "(theta1 (tilde (sum (rep 2) (rep -2))))",
    "(theta2 (sum (rep 1) (rep 1) (rep -1) (rep -1) (trivial -4)))",
    "(ext -q^1/2 (sum (rep 1) (rep -1)))",
    "(theta1 (sum (rep 1000) (rep 1)))",
    "(theta (rep 1))",
    "(tilde (sum (rep 3) (rep -3)))",
    "(theta2 (tilde (sum (rep 3) (rep -3) (rep 1))))",
]


def _argvs():
    argvs = []
    for ws, orders in WEIGHTS:
        for N in map(str, orders):
            common = ["--weights", ws, "--order", N]
            argvs += [[verb, *common] for verb in ("witten-genus", "elliptic-genera", "p-series")]
            argvs += [["lefschetz", *common, "--operator", op, "--twist", twist, *unsigned]
                      for op in ("dirac", "signature") for twist in ("none", "theta", "theta1", "theta2")
                      for unsigned in ([], ["--unsigned"])]
    argvs += [["lefschetz", "--weights", ws, "--operator", "dirac", "--twist", "theta2", "--order", "20"]
              for ws in ("0,1,2,5", "0,1,2,3,4,6,7,9")]
    argvs += [["bundle", "expand", "--expr", expr, "--order", N] for expr in EXPRESSIONS for N in ("1", "3", "6")]
    argvs += [["cancellation", "--k", k] for k in ("1", "2", "3", "5")]
    argvs += [["theta", "expand", "--kind", kind, "--order", N, *z]
              for kind in THETA_KINDS for N in ("1", "5") for z in ([], ["--z-order", "2"])]
    argvs += [["modforms", "expand", "--name", name, "--order", N] for name in MODFORM_NAMES for N in ("1", "8")]
    return argvs


ARGVS = _argvs()


def _bytes(argv) -> dict:
    """The exit code of ``argv`` and the SHA-256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    return {"code": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_every_recorded_argv_is_replayed(recorded):
    assert sorted(recorded) == sorted(" ".join(argv) for argv in ARGVS)
    assert len(recorded) == len(ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_stdout_is_pinned(argv, recorded):
    assert _bytes(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    entries = [f"{json.dumps(' '.join(argv))}: {json.dumps(_bytes(argv))}" for argv in ARGVS]
    RECORD.write_text("{\n" + ",\n".join(entries) + "\n}\n")
