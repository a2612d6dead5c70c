"""Host-clock benchmark of the MINOS reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced run and prints every per-layer metric.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("browse", "ingest", "serve", "stream")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--serve-rates", required=True,
        help="the three fixed open-loop rates of the serve workload, req/s",
    )
    parser.add_argument(
        "--p99-limit-ms", type=float, required=True,
        help="serve latency limit on the p99, in ms",
    )
    args = parser.parse_args(argv)
    args.serve_rates = [float(rate) for rate in args.serve_rates.split(",")]
    if len(args.serve_rates) != 3 or sorted(args.serve_rates) != args.serve_rates:
        parser.error("--serve-rates takes three ascending rates")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.workloads import WORKLOAD_CLASSES

    result = harness.run(
        WORKLOAD_CLASSES[args.workload], args.seed, args.seconds,
        bool(args.trace), args,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
