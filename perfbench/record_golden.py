"""Record golden.json: the SHA-256 of every exact output the benchmark gates.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are the reference; every later
commit must reproduce these bytes.  It also asserts the symmetries the
gate relies on: each translate of the reference weights has the same
Witten series, each reversal its negative, and the elliptic genera
vanish.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import (  # noqa: E402
    GOLDEN_PATH,
    SCALING_N,
    SCALING_WEIGHTS,
    Variant,
    all_variants,
    digest,
    elliptic_argv,
    invoke,
    key,
    lefschetz_scaling_argv,
    quick_exact_argvs,
    witten_argv,
)


def main() -> int:
    digests: dict[str, str] = {}

    def record(argv, rc: int = 0) -> dict:
        got, text = invoke(argv)
        if got != rc:
            raise SystemExit(f"{key(argv)!r} exited {got}, expected {rc}")
        digests[key(argv)] = digest(text)
        print(f"{digests[key(argv)][:12]}  {key(argv)}", file=sys.stderr)
        return json.loads(text)

    def coeffs(series):
        return [Fraction(t["coeff"]) for t in series["terms"]]

    reference = coeffs(record(witten_argv(Variant(0, False).csv))["series"])
    for v in all_variants():
        series = coeffs(record(witten_argv(v.csv))["series"])
        if series != [v.sign * c for c in reference]:
            raise SystemExit(f"Witten series of {v.weights} breaks the symmetry")
        doc = record(elliptic_argv(v.csv))
        if not doc["identically_zero"]:
            raise SystemExit(f"elliptic genera of {v.weights} do not vanish")
        for argv, rc in quick_exact_argvs(v.csv):
            record(argv, rc)
    for n in SCALING_N:
        record(witten_argv(Variant(0, False).csv, n))
    for two_l in SCALING_WEIGHTS:
        record(lefschetz_scaling_argv(two_l))
    golden = {"digests": dict(sorted(digests.items())),
              "witten_reference": [str(c) for c in reference]}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
