"""Smoke test of the benchmark harness on tiny configs.

    python3 perfbench/smoke.py

Checks, in about a minute:

- a tiny pipeline workload (24x16 grid, 3 steps) runs clean, untraced
  and traced, and reports every metric BENCHMARK.json names, with its
  unit;
- the traced per-layer self times add up to the traced total;
- an artifact that differs from the first run of the same code, and a
  config the CLI rejects with exit code 2, are each counted as a failed
  operation, in ``failed`` and ``ok_share``, and not dropped;
- run.py exits with a nonzero code and prints no result in a directory
  that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness

TINY = harness.gamma_set((-0.3, -0.7), 24, 16, 3)
REJECTED = dict(harness.pipeline_config(-0.3, 24, 16, 3),
                grid={"Nq": 0, "Np": 16})
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def expect(cond, what):
    if not cond:
        raise SystemExit("smoke: FAILED: %s" % what)
    print("smoke: ok: %s" % what)


def check_units(result, kind):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, "%s metrics and units match BENCHMARK.json" % kind)


def run(cli, name, configs, trace):
    result, details = harness.run_workload(cli, "smoke-" + name, configs,
                                           seed=7, seconds=0.0, trace=trace)
    json.dumps(result, allow_nan=False)  # the driver reads strict JSON
    return result, details


def main():
    cli = harness.import_vorwave()
    result, details = run(cli, "pipeline", TINY, trace=0)
    expect(result["correct"] and result["failed"] == 0
           and all(len(walls) == harness.MIN_PASSES
                   for walls in details["invocations_s"].values()),
           "every config runs %d times and every operation passes"
           % harness.MIN_PASSES)
    check_units(result, "end_to_end")
    result, details = run(cli, "pipeline", TINY, trace=1)
    expect(result["correct"], "traced: every operation passes")
    check_units(result, "per_layer")
    metrics = result["metrics"]
    layers = sum(metrics["%s.self_s" % layer]["value"]
                 for layer in ("laminar", "solver", "continuation",
                               "fields", "audit", "cli"))
    total = metrics["trace.total_s"]["value"]
    expect(abs(layers - total) <= 1e-9 * max(1.0, total),
           "traced: self times add up to the traced total")
    names = {span["name"] for span in details["spans"]}
    expect({"cli.main", "solver.find_bifurcation", "laminar.critical_lambda",
            "continuation.continue_branch", "continuation.save_branch",
            "fields.reconstruct", "fields.to_csv", "audit.audit_wave"}
           <= names, "traced: every wrapped call records spans")
    expect(len(details["spans"]) == metrics["trace.spans"]["value"],
           "traced: every span is kept")
    expect(cli.main.__module__ == "vorwave.cli"
           and not hasattr(cli.main, "__wrapped__"),
           "traced: the CLI is unwrapped afterwards")

    ref = (harness.WORK / "reference" / harness.code_digest()
           / "smoke-pipeline.json")
    digests = json.loads(ref.read_text())
    digests[sorted(digests)[0]] = "0" * 64
    ref.write_text(json.dumps(digests))
    result, _ = run(cli, "pipeline", TINY, trace=0)
    ref.unlink()
    expect(not result["correct"] and result["failed"] == harness.MIN_PASSES,
           "an artifact that differs from the first run of the same code "
           "fails its operation in every pass")

    failing = dict(TINY, **{"gamma+9.9": REJECTED})
    for trace in (1, 0):
        result, _ = run(cli, "failing", failing, trace=trace)
        expect(not result["correct"] and result["failed"] >= 1
               and result["attempted"] > result["failed"],
               "trace %d: the rejected config counts as failed, the others "
               "still run" % trace)
    share = result["metrics"]["ok_share"]["value"]
    expect(share == 1.0 - result["failed"] / result["attempted"],
           "ok_share is 1 - failed/attempted (%.3f)" % share)

    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.BENCH_DIR, bare / harness.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fold-64", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program run.py exits %d and prints no result"
           % proc.returncode)
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
