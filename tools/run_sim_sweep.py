#!/usr/bin/env python
"""Run the whole-system simulator across a range of seeds.

Each seed generates one canonical chaos schedule, runs it through a
fresh simulated cluster, and checks every quiescent point against the
model oracle.  A failing seed is automatically shrunk and written out
as a replayable repro file; the sweep exits non-zero if any seed
failed.

CI's sim job runs the 25-seed sweep on every push; the 500-seed sweep
is run by hand::

    PYTHONPATH=src python tools/run_sim_sweep.py --seeds 25
    PYTHONPATH=src python tools/run_sim_sweep.py --seeds 500 --steps 40

Replay a failure locally with::

    PYTHONPATH=src python tools/run_sim_sweep.py --replay repro-seed-7.json

See docs/TESTING.md for the repro-file format and shrinking details.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim import (  # noqa: E402
    ChaosSchedule,
    SimConfig,
    load_repro,
    run_sim,
    save_repro,
    shrink,
)


def sweep(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    failures = 0
    started = time.monotonic()
    for seed in range(args.start, args.start + args.seeds):
        config = SimConfig(
            seed=seed, n_nodes=args.nodes, replication=args.replication
        )
        schedule = ChaosSchedule.generate(seed, n_steps=args.steps)
        result = run_sim(schedule, config)
        if result.ok:
            if args.verbose:
                print(
                    f"seed {seed}: ok "
                    f"({result.steps_run} steps, "
                    f"{len(result.tolerated)} tolerated errors)"
                )
            continue
        failures += 1
        print(f"seed {seed}: FAIL {result.violation}")
        minimal = shrink(schedule.steps, config)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"repro-seed-{seed}.json"
        save_repro(
            path,
            config=config.to_dict(),
            schedule=ChaosSchedule(seed, minimal.steps),
            violation=minimal.violation.to_dict(),
        )
        print(
            f"seed {seed}: shrunk {len(schedule)} -> "
            f"{len(minimal.steps)} steps ({minimal.runs} runs), "
            f"repro written to {path}"
        )
    elapsed = time.monotonic() - started
    print(
        f"{args.seeds} seeds in {elapsed:.1f}s: "
        f"{args.seeds - failures} ok, {failures} failed"
    )
    return 1 if failures else 0


def replay(path: str) -> int:
    config_dict, schedule, recorded = load_repro(path)
    result = run_sim(schedule, SimConfig.from_dict(config_dict))
    if result.violation is None:
        print(f"{path}: did NOT reproduce (run was clean)")
        return 1
    print(f"{path}: reproduced {result.violation}")
    if recorded and recorded.get("invariant") != result.violation.invariant:
        print(
            f"  note: recorded invariant was {recorded['invariant']!r}, "
            f"got {result.violation.invariant!r}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeds to sweep (default 25)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--steps", type=int, default=40,
                        help="schedule length per seed (default 40)")
    parser.add_argument("--nodes", type=int, default=3,
                        help="initial cluster size (default 3)")
    parser.add_argument("--replication", type=int, default=2,
                        help="replication factor (default 2)")
    parser.add_argument("--out-dir", default="sim-failures",
                        help="where shrunk repro files go")
    parser.add_argument("--replay", metavar="REPRO",
                        help="replay one repro file instead of sweeping")
    parser.add_argument("--verbose", action="store_true",
                        help="print every passing seed too")
    args = parser.parse_args(argv)
    if args.replay:
        return replay(args.replay)
    return sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())
