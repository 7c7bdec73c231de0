"""Workloads, checked operations and timed invocations of the benchmark.

Every operation (one CLI invocation or one probe) is checked: its exit
code, ``pipeline.json`` ``all_pass``, its audits (no diagnostic in the
``fail`` state), and its numeric artifacts (every file except
``manifest.json``), which must be byte-identical to those of the first
run of the same code in this checkout. A failed check counts the
operation as failed; it is never dropped.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# Invocations of each config per run at the least, so that every run
# compares the artifacts of one invocation against those of another. A
# traced run counts its traced pass among them.
MIN_PASSES = 2
MB = 1e6

# The yardstick: a fixed task that runs no code of this checkout (``-I``
# keeps the checkout off sys.path), a fresh interpreter importing the
# libraries vorwave uses. Timed beside the invocations, it gauges the
# speed the shared host gives this run.
YARDSTICK = [sys.executable, "-I", "-c",
             "import numpy, scipy.optimize, scipy.sparse.linalg"]

# A config the CLI rejects is counted when the CLI runs it, not here.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import vorwave.cli
from vorwave.config import RunConfig
from vorwave.errors import ConfigError
for path in sys.argv[2:]:
    try:
        RunConfig.from_file(path)
    except ConfigError:
        pass
"""


def pipeline_config(gamma, nq, npts, steps):
    return {"L": math.pi, "m": 1.0, "g": 9.81,
            "vorticity": {"kind": "constant", "gamma": gamma},
            "grid": {"Nq": nq, "Np": npts},
            "continuation": {"steps": steps}}


def config_name(gamma):
    return "gamma%+.1f" % gamma


def gamma_set(gammas, nq, npts, steps):
    """A workload: one `vorwave pipeline` config per gamma, by name."""
    return {config_name(g): pipeline_config(g, nq, npts, steps)
            for g in gammas}


WORKLOADS = {
    "fold-64": gamma_set((0.0, -0.3, -0.7), 64, 48, 25),
    "fine-128": gamma_set((-0.3,), 128, 96, 8),
}


def import_vorwave():
    """Import the checkout's own vorwave, or exit 2 when there is none."""
    if not (SRC / "vorwave" / "__init__.py").is_file():
        print("perfbench: no vorwave sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vorwave.cli
    if Path(vorwave.cli.__file__).resolve().parent != SRC / "vorwave":
        print("perfbench: imported vorwave from %s, not from this checkout"
              % vorwave.cli.__file__, file=sys.stderr)
        sys.exit(2)
    return vorwave.cli


def code_digest():
    """Hash of the program and benchmark sources: artifacts are compared
    only between runs of the same code."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Reference:
    """Digest of every numeric artifact from the first run of this code.

    Persisted in the work directory, keyed by the code digest, so later
    runs in the same checkout (any seed, traced or not) are compared
    against it.
    """

    def __init__(self, path):
        self.path = path
        self.digests = {}
        if path.is_file():
            self.digests = json.loads(path.read_text())

    def matches(self, key, digest):
        return self.digests.setdefault(key, digest) == digest

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True, indent=0))
        os.replace(tmp, self.path)


@dataclass
class Op:
    """One checked operation: its output roots and what went wrong."""

    label: str
    roots: list
    problems: list = field(default_factory=list)
    reports: list = field(default_factory=list)


class Bench:
    """State of one benchmark invocation on one workload."""

    def __init__(self, cli, name, configs, seed):
        self.cli = cli
        self.configs = configs
        self.order = random.Random(seed).sample(sorted(configs),
                                                len(configs))
        self.base = WORK / name
        self.run_dir = self.base / "run"
        self.cfg_paths = {}
        self.reference = Reference(WORK / "reference" / code_digest()
                                   / ("%s.json" % name))
        self.ops = []

    # -- operations ----------------------------------------------------

    @contextmanager
    def guarded(self, label, roots=()):
        """One operation run in this process. An exception fails it, and
        the run goes on."""
        op = Op(label, list(roots))
        self.ops.append(op)
        try:
            yield op
        except Exception:
            traceback.print_exc()
            op.problems.append("raised an exception")

    def call(self, label, argv, roots):
        """Run `vorwave <argv>` through cli.main; checked later by check()."""
        with self.guarded(label, roots) as op:
            status = self.cli.main([str(a) for a in argv])
            if status != 0:
                op.problems.append("exit status %s" % status)
        return op

    def check(self, ops):
        """Check the artifacts of finished ops; return the bytes written."""
        written = 0
        for op in ops:
            for root in op.roots:
                for path in sorted(p for p in Path(root).rglob("*")
                                   if p.is_file()):
                    if path.name == "manifest.json":
                        continue
                    written += path.stat().st_size
                    key = str(path.relative_to(self.run_dir))
                    if not self.reference.matches(key, file_digest(path)):
                        op.problems.append("%s differs from the first run "
                                           "of this code" % key)
                    if path.name.startswith("report"):
                        op.reports.append(json.loads(path.read_text()))
            fails = sum(rep["summary"]["fail"] for rep in op.reports)
            if fails:
                op.problems.append("audit reported %d failed diagnostic(s)"
                                   % fails)
            for problem in op.problems:
                print("perfbench: %s: %s" % (op.label, problem),
                      file=sys.stderr)
        return written

    # -- set-up --------------------------------------------------------

    def write_configs(self):
        cfg_dir = self.base / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for cname, cfg in self.configs.items():
            path = cfg_dir / ("%s.json" % cname)
            path.write_text(json.dumps(cfg, sort_keys=True, indent=1))
            self.cfg_paths[cname] = path

    def time_startup(self):
        """Wall time of a fresh interpreter importing vorwave and parsing
        the workload's configs."""
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
        argv += [str(self.cfg_paths[c]) for c in self.order]
        return timed_subprocess(argv)

    # -- timed invocations -----------------------------------------------

    def invoke(self, cname):
        """Run `vorwave pipeline` on one config; return its wall time, the
        number of points audited and the bytes written."""
        out = self.run_dir / cname
        shutil.rmtree(out, ignore_errors=True)
        # Garbage and dirty pages left by the previous invocation are
        # cleared here, outside the timed window.
        gc.collect()
        os.sync()
        start = time.perf_counter()
        op = self.call("pipeline %s" % cname,
                       ["pipeline", "--config", self.cfg_paths[cname],
                        "--out", out], [out])
        wall = time.perf_counter() - start
        summary = out / "pipeline.json"
        if summary.is_file() and \
                not json.loads(summary.read_text())["all_pass"]:
            op.problems.append("pipeline.json all_pass is false")
        written = self.check([op])
        return wall, len(op.reports), written

    def pipeline_pass(self):
        """Run every config once, in the seeded order."""
        for cname in self.order:
            self.invoke(cname)

    def amplitude_reached(self):
        """Mean over the workload's branches of the last stored amplitude;
        a branch that was not stored counts as zero."""
        reached = []
        for cname in self.order:
            path = self.run_dir / cname / "branch" / "branch.json"
            points = json.loads(path.read_text())["points"] \
                if path.is_file() else []
            reached.append(points[-1]["amplitude"] if points else 0.0)
        return statistics.fmean(reached)

    @property
    def failed(self):
        return sum(1 for op in self.ops if op.problems)


def machine_facts(cli, seed):
    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return "%s %s" % (info.get("name", "?"), info.get("version", "?"))

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "vorwave": cli.__version__, "commit": commit,
        "code_digest": code_digest(), "seed": seed,
        "vorwave_threads": cli._thread_count(),
    }


def timed_subprocess(argv):
    """Wall time of a subprocess that must succeed."""
    start = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - start


def tree_mb(roots):
    """Size of every file under the given directories, in MB."""
    return sum(p.stat().st_size for root in roots if root.is_dir()
               for p in root.rglob("*") if p.is_file()) / MB


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(cli, name, configs, seed, seconds, trace):
    """Run one workload; return (result, details) as printed and saved."""
    bench = Bench(cli, name, configs, seed)
    bench.write_configs()

    # Invocations cycle through the configs in the seeded order, and go on
    # while the next one fits in `seconds`, until every config has run at
    # least `min_passes` times. Before each invocation a fresh vorwave
    # interpreter (for setup_s) and the yardstick are timed, so that their
    # medians sample the host over the whole run.
    min_passes = MIN_PASSES - 1 if trace else MIN_PASSES
    runs = {cname: [] for cname in bench.order}
    setups, yardsticks = [], []
    start = time.perf_counter()
    for cname in itertools.cycle(bench.order):
        if all(len(r) >= min_passes for r in runs.values()) and \
                time.perf_counter() - start + min(runs[cname])[0] > seconds:
            break
        setups.append(bench.time_startup())
        yardsticks.append(timed_subprocess(YARDSTICK))
        runs[cname].append(bench.invoke(cname))
    setup = statistics.median(setups)
    # On a shared host the speed drifts by up to 1.6x, within a minute and
    # between minutes (on a 2-vCPU Xeon VM one 64x48 pipeline invocation
    # took from 5.7 to 11.3 s). Each config's fastest invocation counts,
    # which drops the slow spells within a run: wall_s is the sum over
    # configs of their fastest time. Dividing by the yardstick's median
    # removes most of the drift between runs: wall_rel is wall_s in
    # yardsticks.
    fastest = [min(r) for r in runs.values()]
    wall = sum(f[0] for f in fastest)
    wall_rel = wall / statistics.median(yardsticks)
    details = {"invocations_s": {c: [r[0] for r in rs]
                                 for c, rs in runs.items()},
               "wall_s": wall, "setup_s": setups, "yardstick_s": yardsticks}

    if trace:
        import tracing
        metrics, details["spans"] = tracing.traced_run(bench, untraced=wall)
    else:
        metrics = {
            "setup_s": metric(setup, "s"),
            "wall_rel": metric(wall_rel, "yardstick"),
            "points_per_yardstick": metric(
                sum(f[1] for f in fastest) / wall_rel, "1/yardstick"),
            "amplitude_reached": metric(bench.amplitude_reached(), "m"),
            "artifact_mb": metric(sum(f[2] for f in fastest) / MB, "MB"),
            "peak_rss_mb": metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
            "ok_share": metric(1.0 - bench.failed / len(bench.ops), "share"),
        }
    bench.reference.save()
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    result = {"correct": bench.failed == 0, "attempted": len(bench.ops),
              "failed": bench.failed, "metrics": metrics}
    return result, details
