"""Seeded benchmark for tokfst.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up trains the tokenizer three times;
then whole passes of the workload run for about --seconds seconds, and every
output is checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics when it is 1. A summary and the
first failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bpe_broad", "bpe_narrow", "serve", "cli")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src" / "tokfst" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: {source.relative_to(ROOT)} is missing; run inside a tokfst checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_benchmark

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), log=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
