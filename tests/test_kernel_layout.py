"""The binomial kernel's layout, pinned call by call.

Every ``_binomial_product`` call that a fixed list of CLI calls makes is
recorded at its one door, ``lambda_ring``, as its digit layout (B, g, r, m, d) and the SHA-256 of its rows
(:class:`propergenus.core.qseries.PackedSeries`).  The calls are the
weighted verbs on a spread of weight sets and orders, the order-20
``theta2`` calls whose rows the certificate re-lays, and bundle
expressions that reach the lattice d = 3, the step g = 2, pairs beside a
weight-0 line, the triple product at order 1 and a 10^6 spread of
weights.  ``kernel_layouts.json`` holds what the kernel gave before its
scalar part became one cached pass; a refactor that moves one digit,
row or width fails here.  Run this file as a script to record it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from propergenus import lambda_ring
from propergenus.cli import main
from propergenus.core.qseries import _binomial_product

RECORD = Path(__file__).with_name("kernel_layouts.json")

WEIGHTS = [("0,1,2,5", (1, 4, 12)), ("0,2", (1, 4, 12)), ("0,1,2,3,4,6", (1, 4, 12)),
           ("0,2,4,6", (1, 4, 12)), ("-3,0,1,4", (1, 4, 12)), ("0,1,2,3,4,6,7,9", (1, 4, 8))]
EXPRESSIONS = [
    "(sym q^3/2 (rep 1))",
    "(theta1 (tilde (sum (rep 2) (rep -2))))",
    "(theta2 (sum (rep 1) (rep 1) (rep -1) (rep -1) (trivial -4)))",
    "(ext -q^1/2 (sum (rep 1) (rep -1)))",
    "(theta1 (sum (rep 1000000) (rep 1)))",
]


def _argvs():
    argvs = []
    for ws, orders in WEIGHTS:
        for N in map(str, orders):
            common = ["--weights", ws, "--order", N]
            argvs += [[verb, *common] for verb in ("witten-genus", "elliptic-genera", "p-series")]
            argvs += [["lefschetz", *common, "--operator", op, "--twist", twist]
                      for op in ("dirac", "signature") for twist in ("none", "theta", "theta1", "theta2")]
    argvs += [["lefschetz", "--weights", ws, "--operator", "dirac", "--twist", "theta2", "--order", "20"]
              for ws in ("0,1,2,5", "0,1,2,3,4,6,7,9")]
    argvs += [["bundle", "expand", "--expr", expr, "--order", N] for expr in EXPRESSIONS for N in ("1", "3", "6")]
    return argvs


ARGVS = _argvs()


def _layouts(argv) -> dict:
    """The exit code of ``argv``, the (B, g, r, m, d) of each of its
    kernel calls in order, and one SHA-256 over the rows of them all."""
    calls = []

    def recording(*args, **kwargs):
        product = _binomial_product(*args, **kwargs)
        calls.append(product.packed)
        return product

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lambda_ring, "_binomial_product", recording)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    rows = hashlib.sha256()
    for packed in calls:
        for row in packed[0]:
            raw = row.to_bytes(row.bit_length() // 8 + 1, "little", signed=True)
            rows.update(len(raw).to_bytes(8, "little") + raw)
        rows.update(b"\n")
    return {"code": code, "layouts": [list(packed[1:]) for packed in calls], "rows": rows.hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_every_recorded_call_is_replayed(recorded):
    assert sorted(recorded) == sorted(" ".join(argv) for argv in ARGVS)
    assert sum(len(entry["layouts"]) for entry in recorded.values()) > 1000


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_kernel_layout_is_pinned(argv, recorded):
    assert _layouts(argv) == recorded[" ".join(argv)]


if __name__ == "__main__":
    entries = [f"{json.dumps(' '.join(argv))}: {json.dumps(_layouts(argv))}" for argv in ARGVS]
    RECORD.write_text("{\n" + ",\n".join(entries) + "\n}\n")
