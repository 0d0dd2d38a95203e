"""Benchmark of the rackring command line: `census`, `iso` and `ring` workloads.

Run from the repository root, standard library only:

    python3 perfbench/run.py --workload census --seed 0 --seconds 25 --trace 0

Each workload drives `python -m rackring.cli` (with PYTHONPATH=src) as a
closed loop with one client: one command at a time, each started after the
previous one exits.  A run sets the workload up three times, then repeats
whole passes of its command list until --seconds seconds have passed, and
reports medians.  Every answer is checked; a command that exits non-zero,
times out or prints a wrong answer counts as failed.

With --trace 1 the run instead replays the pass in-process through
`rackring.cli.main`, untraced once and traced twice, and reports per-layer
metrics (see tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  All files live in a
temporary directory under `.perfbench-work/`, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import tracing
from harness import Cli, run_pass, set_up
from workloads import WORKLOADS

SETUPS = 3  # set-ups per run; setup_s is their median
SUBCOMMANDS = (
    "enumerate", "decompose", "canon", "iso", "analyze", "crossed", "burnside", "mul", "registry", "marks", "color",
)


def measure(workload_cls, work, src, seed, seconds):
    """The untraced run: medians over three set-ups and over passes filling at least `seconds`."""
    execute = Cli(src, work)
    setups = [set_up(workload_cls, work, seed, execute) for _ in range(SETUPS)]
    workload, root, _ = setups[-1]
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(run_pass(workload, root, execute))
    for wall, outcomes in passes:
        print(f"pass wall {wall:.3f} s  " + "  ".join(f"{o.sub} {o.wall:.3f}" for o in outcomes))

    def median_of(per_pass):
        return statistics.median(per_pass(outcomes) for _, outcomes in passes)

    attempted = len(execute.outcomes)
    failed = sum(not o.ok for o in execute.outcomes)
    metrics = {
        "setup_s": (statistics.median(elapsed for _, _, elapsed in setups), "s"),
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        "cpu_s": (median_of(lambda outs: sum(o.cpu for o in outs)), "s"),
        "peak_rss_mb": (median_of(lambda outs: max(o.rss_mb for o in outs)), "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    # The per-subcommand split and fail_ratio are printed for reading; a
    # subcommand absent from a workload reads 0 there, so they are not gated.
    report = dict(metrics)
    report["fail_ratio"] = (failed / attempted, "ratio")
    for sub in SUBCOMMANDS:
        report[f"{sub}_s"] = (median_of(lambda outs: sum(o.wall for o in outs if o.sub == sub)), "s")
    print(f"{len(passes)} passes, {SETUPS} set-ups, {attempted} commands")
    for name, (value, unit) in report.items():
        print(f"{name:>14} {value:12.4f} {unit}")
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "rackring", "cli.py")):
        print("error: run from the root of a rackring checkout (src/rackring/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(".perfbench-work", exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.abspath(".perfbench-work"))
    try:
        if args.trace:
            result = tracing.measure(WORKLOADS[args.workload], work, src, args.seed)
        else:
            result = measure(WORKLOADS[args.workload], work, src, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
