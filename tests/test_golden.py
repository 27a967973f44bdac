"""Byte identity of CLI output against the digests in perfbench/golden.json.

Each call runs ``propergenus.cli.main`` in this process and compares the
SHA-256 of its stdout with the digest recorded for the same argv, so a
refactor that changes any output byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from propergenus.cli import DOMAIN_ERROR, main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["digests"]

CALLS = [
    (["witten-genus", "--weights", "0,1,2,5", "--order", "6"], 0),
    (["witten-genus", "--weights", "0,1,2,5", "--order", "8"], 0),
    (["lefschetz", "--weights", "0,2", "--operator", "dirac", "--twist", "theta",
      "--order", "6"], 0),
    (["lefschetz", "--weights", "0,1,2,5", "--operator", "dirac", "--twist", "theta",
      "--order", "6"], 0),
    (["p-series", "--weights", "0,1,2,5", "--order", "6"], 0),
    (["lefschetz", "--weights", "0,2", "--order", "4", "--unsigned"], DOMAIN_ERROR),
    (["theta", "expand", "--kind", "theta1", "--order", "20"], 0),
    (["modforms", "expand", "--name", "delta2", "--order", "10"], 0),
    (["bundle", "expand", "--expr", "(theta1 (tilde (sum (rep 2) (rep -2))))",
      "--order", "4"], 0),
    (["cancellation", "--k", "1"], 0),
    (["cancellation", "--k", "2"], 0),
    (["cancellation", "--k", "3"], 0),
]


@pytest.mark.parametrize("argv,rc", CALLS, ids=[" ".join(argv) for argv, _ in CALLS])
def test_output_matches_golden_digest(capsys, argv, rc):
    assert main(argv) == rc
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[" ".join(argv)]
