#!/usr/bin/env python3
"""Benchmark of ``plank check`` and ``plank normalize``.

Run from the repository root:

    python3 bench/run.py --workload church --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("church", "cbv", "script")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC_DIR / "plank" / "__init__.py").is_file():
        print(f"error: plank sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
