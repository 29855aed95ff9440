"""RFN benchmark: one workload, one seed, answers checked, metrics printed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every answer checked correct (and, traced, the trace is a
valid ``repro.obs`` v1 trace).  The package under test is imported from
``src/`` next to this directory; without it the command exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def main(argv=None) -> int:
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from rfnbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time the workload's set-up in this fresh interpreter.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: package under test not found at {src}/repro",
              file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)

    from rfnbench import harness

    if args.setup_probe:
        return harness.setup_probe(args.workload, args.seed)
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
