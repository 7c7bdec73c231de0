"""Benchmark of the vorwave pipeline: the Q-fold and the fine grid.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fold-64 --seed 1 --seconds 40 --trace 0

Each workload drives the public entry point ``vorwave.cli.main`` in this
process, as a closed loop with one caller: each CLI invocation starts when
the previous one ends. Invocations cycle through the workload's configs
while the next one fits in ``--seconds``, and every config runs at least
twice, so every run compares the artifacts of one invocation with those
of another. The seed sets the order of the workload's configs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of those invocations. With ``--trace 1`` one
untraced invocation of each config runs at the least, then a traced pass
over every config (``tracing.py``) through the same ``cli.main``, with the
calls the CLI makes into each module wrapped in spans; the last line holds
the per-layer metrics derived from them.
The line before the last records the machine. A copy of both, with the
spans, goes to ``.perfbench_work/results/``; every other file a run
writes goes under ``.perfbench_work/`` as well. ``smoke.py`` tests the
harness itself.

setup_s is the median wall time of fresh interpreters that import vorwave
and parse the workload's configs, one timed before each invocation.

The shared host's speed drifts from minute to minute, so the pipeline's
time is reported against a yardstick: a fixed task that runs no code of
this checkout (a fresh interpreter importing numpy and scipy), timed
before each invocation as well. wall_s, the sum over configs of their
fastest invocation, is reported as wall_rel = wall_s / the yardstick's
median over the run, and points_per_yardstick = points / wall_rel. A
change to vorwave moves wall_rel as it moves wall_s; the raw seconds are
kept in the copy under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="benchmark the vorwave pipeline on one workload")
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = harness.import_vorwave()
    facts = harness.machine_facts(cli, args.seed)
    result, details = harness.run_workload(
        cli, args.workload, harness.WORKLOADS[args.workload], args.seed,
        args.seconds, args.trace)
    out = harness.WORK / "results" / ("%s-seed%d-trace%d.json"
                                      % (args.workload, args.seed, args.trace))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": facts, "result": result,
                               **details}, indent=1))
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
