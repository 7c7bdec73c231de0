"""Traced run of a benchmark workload, and the per-layer metrics.

The traced run is one more timed pass through ``vorwave.cli.main``, with
the names ``vorwave.cli`` imported from the other modules wrapped so that
each call records one span: name, start, end, parent. Spans stay in
memory until the run ends. A span's layer is the part of its name before
the first dot. ``grid``, ``fd`` and ``vorticity`` work inside the calls
of other layers and are counted there; ``config`` and ``errors`` do no
measurable work and count as ``cli``.

Functions that run inside other calls (``critical_lambda`` inside the
audit, the Newton pieces inside continuation) cannot be seen from
outside, so they are timed by probes after the pass, on the waves it
stored.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from harness import tree_mb
from vorwave.audit import pressure_normal_derivative, surface_curve
from vorwave.config import RunConfig
from vorwave.continuation import load_point
from vorwave.fields import WaveField, reconstruct
from vorwave.laminar import critical_lambda
from vorwave.solver import find_bifurcation, jacobian_blocks, newton_solve, \
    residual_parts, seed_wave

LAYERS = ("laminar", "solver", "continuation", "fields", "audit", "cli")
# Module-level names of vorwave.cli that the pipeline calls; each is
# wrapped for the traced pass, along with WaveField.to_csv and cli.main.
CLI_CALLS = ("find_bifurcation", "critical_lambda", "laminar_head",
             "laminar_depth", "continue_branch", "save_branch",
             "reconstruct", "audit_wave")
PROBE_REPS = 5
NEWTON_PROBE_REPS = 3
NEWTON_PROBE_AMPLITUDE = 0.1
# The Newton probe runs on this config of the workload (every workload
# has it), on the workload's grid.
NEWTON_PROBE_CONFIG = "gamma-0.3"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans in memory; safe to use from worker threads.

    A span's parent is the innermost open span of its thread or, on a
    thread with none open (the CLI's worker pool), the open ``cli.main``
    span.
    """

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_main(self, main):
        @functools.wraps(main)
        def traced(argv=None):
            with self.span("cli.main") as sid:
                self.root = sid
                try:
                    return main(argv)
                finally:
                    self.root = None
        return traced

    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]


def self_time_by_layer(spans):
    """Share the wall time of the spans out among their layers.

    At each instant the time goes to the innermost open spans (those with
    no open child), split evenly when worker threads overlap. Inside one
    root span the shares add up to the root's duration.
    """
    events = sorted([(s.start, 1, s) for s in spans]
                    + [(s.end, -1, s) for s in spans],
                    key=lambda e: (e[0], e[1]))
    open_spans = {}
    open_children = defaultdict(int)
    totals = dict.fromkeys(LAYERS, 0.0)
    prev = None
    for t, kind, span in events:
        if prev is not None and t > prev and open_spans:
            leaves = [s for s in open_spans.values()
                      if open_children[s.id] == 0]
            for leaf in leaves:
                totals[leaf.layer] += (t - prev) / len(leaves)
        if kind > 0:
            open_spans[span.id] = span
            open_children[span.parent] += 1
        else:
            del open_spans[span.id]
            open_children[span.parent] -= 1
        prev = t
    return totals


@contextmanager
def traced(cli, tracer):
    """Wrap the calls the CLI makes into the other layers, and cli.main
    itself, for the duration of the block."""
    saved = {name: getattr(cli, name) for name in CLI_CALLS}
    saved_main, saved_to_csv = cli.main, cli.WaveField.to_csv
    for name, fn in saved.items():
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(cli, name, tracer.wrap("%s.%s" % (layer, name), fn))
    cli.WaveField.to_csv = tracer.wrap("fields.to_csv", saved_to_csv)
    cli.main = tracer.wrap_main(saved_main)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        cli.WaveField.to_csv = saved_to_csv
        cli.main = saved_main


# -- probes ----------------------------------------------------------------


def _samples(fn, *args, reps=PROBE_REPS, **kwargs):
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args, **kwargs)
        out.append(time.perf_counter() - start)
    return out


def _median_ms(samples):
    return 1e3 * statistics.median(samples) if samples else 0.0


def probe(bench):
    """Time the calls the traced pass cannot see from outside, on the
    last stored point and field CSV of each branch. Returns (timings,
    newton) where timings maps a function name to its samples in seconds."""
    timings = defaultdict(list)
    for cname in sorted(bench.configs):
        out = bench.run_dir / cname
        with bench.guarded("probe %s" % cname):
            path = sorted((out / "branch").glob("point_*.json"))[-1]
            timings["load_point"] += _samples(load_point, path)
            grid, vf, g, h, Q = load_point(path)
            timings["residual_parts"] += _samples(residual_parts, grid, vf,
                                                  g, h, Q)
            timings["jacobian_blocks"] += _samples(jacobian_blocks, grid,
                                                   vf, g, h, Q)
            timings["critical_lambda"] += _samples(critical_lambda, vf, g)
            timings["find_bifurcation"] += _samples(
                find_bifurcation, vf, g, grid.L, grid.m, beta=grid.beta,
                reps=NEWTON_PROBE_REPS)
            wf = reconstruct(grid, vf, g, h, Q)
            timings["surface_curve"] += _samples(surface_curve, wf)
            timings["pressure_normal_derivative"] += _samples(
                pressure_normal_derivative, wf)
            csv = sorted((out / "fields").glob("point_*.csv"))[-1]
            timings["from_csv"] += _samples(WaveField.from_csv, csv, vf=vf)

    newton = {"s": 0.0, "iterations": 0}
    with bench.guarded("probe newton"):
        cfg = RunConfig.from_dict(bench.configs[NEWTON_PROBE_CONFIG])
        grid, vf = cfg.build_grid(), cfg.build_vorticity()
        lam_star = find_bifurcation(vf, cfg.g, cfg.L, cfg.m, beta=grid.beta)
        h0, Q0 = seed_wave(grid, vf, cfg.g, lam_star, NEWTON_PROBE_AMPLITUDE)
        times = []
        for _ in range(NEWTON_PROBE_REPS):
            start = time.perf_counter()
            res = newton_solve(grid, vf, cfg.g, h0, Q0,
                               mode="fixed_amplitude",
                               amplitude_target=NEWTON_PROBE_AMPLITUDE)
            times.append(time.perf_counter() - start)
        newton = {"s": statistics.median(times), "iterations": res.iterations}
    return timings, newton


# -- the traced run ---------------------------------------------------------


def _tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, or the median when there are fewer than twenty."""
    n = len(samples)
    if n == 0:
        return 50, 0.0
    pct = max(50, math.floor(100.0 * (n - 10) / n))
    return pct, float(np.percentile(samples, pct))


def _branch_rows(bench):
    """Stored points of every branch but the first of each, which the
    bifurcation seeds: the points continuation accepted."""
    rows = []
    for cname in bench.order:
        path = bench.run_dir / cname / "branch" / "branch.json"
        if path.is_file():
            rows += json.loads(path.read_text())["points"][1:]
    return rows


def traced_run(bench, untraced):
    """One more pass with tracing on; return (metrics, spans).

    `untraced` is the wall time of the same work with tracing off, for
    trace.overhead_s.
    """
    tracer = Tracer()
    n_ops = len(bench.ops)
    with traced(bench.cli, tracer):
        bench.pipeline_pass()
    roots = [s for s in tracer.spans if s.parent is None]
    total = sum(s.end - s.start for s in roots)
    origin = min(s.start for s in roots)
    self_s = self_time_by_layer(tracer.spans)
    timings, newton = probe(bench)

    def ms(name):
        return _median_ms(tracer.durations(name))

    cont_s = sum(tracer.durations("continuation.continue_branch"))
    accepted = _branch_rows(bench)
    iterations = sum(row["newton_iterations"] for row in accepted)
    iter_ms = 1e3 * newton["s"] / newton["iterations"] \
        if newton["iterations"] else 0.0
    audits = tracer.durations("audit.audit_wave")
    tail_pct, tail = _tail(audits)
    audit_p50 = _median_ms(audits)
    crit_ms = _median_ms(timings["critical_lambda"])
    status = defaultdict(int)
    for rep in (r for op in bench.ops[n_ops:] for r in op.reports):
        for key, count in rep["summary"].items():
            status[key] += count
    dirs = [bench.run_dir / c for c in bench.order]

    values = {
        "laminar.critical_lambda_ms": (crit_ms, "ms"),
        "solver.find_bifurcation_ms": (
            _median_ms(timings["find_bifurcation"]), "ms"),
        "solver.residual_parts_ms": (
            _median_ms(timings["residual_parts"]), "ms"),
        "solver.jacobian_blocks_ms": (
            _median_ms(timings["jacobian_blocks"]), "ms"),
        "solver.newton_probe_s": (newton["s"], "s"),
        "solver.newton_probe_iterations": (newton["iterations"], "count"),
        "solver.newton_iter_ms": (iter_ms, "ms"),
        "continuation.continue_branch_s": (cont_s, "s"),
        "continuation.s_per_point": (
            cont_s / len(accepted) if accepted else 0.0, "s"),
        "continuation.points": (len(accepted), "count"),
        "continuation.newton_iterations": (iterations, "count"),
        "continuation.min_ds": (
            min(row["ds"] for row in accepted) if accepted else 0.0, "1"),
        "continuation.accepted_work_share": (
            iterations * iter_ms / 1e3 / cont_s if cont_s else 0.0,
            "share.est"),
        "continuation.save_branch_s": (
            sum(tracer.durations("continuation.save_branch")), "s"),
        "continuation.branch_mb": (tree_mb([d / "branch" for d in dirs]),
                                   "MB"),
        "continuation.load_point_ms": (_median_ms(timings["load_point"]),
                                       "ms"),
        "fields.reconstruct_ms": (ms("fields.reconstruct"), "ms"),
        "fields.to_csv_ms": (ms("fields.to_csv"), "ms"),
        "fields.csv_mb": (tree_mb([d / "fields" for d in dirs]), "MB"),
        "fields.from_csv_ms": (_median_ms(timings["from_csv"]), "ms"),
        "audit.audit_wave_ms.p50": (audit_p50, "ms"),
        "audit.audit_wave_ms.tail": (1e3 * tail, "ms"),
        "audit.audit_wave_ms.tail_pct": (tail_pct, "%"),
        "audit.audit_wave_ms.samples": (len(audits), "count"),
        "audit.surface_curve_ms": (_median_ms(timings["surface_curve"]),
                                   "ms"),
        "audit.pressure_normal_derivative_ms": (
            _median_ms(timings["pressure_normal_derivative"]), "ms"),
        "audit.critical_lambda_share": (
            crit_ms / audit_p50 if audit_p50 else 0.0, "share"),
        "audit.status_fail": (status["fail"], "count"),
        "audit.status_boundary": (status["boundary"], "count"),
        "audit.status_na": (status["na"], "count"),
        "trace.total_s": (total, "s"),
        "trace.overhead_s": (total - untraced, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in LAYERS:
        values["%s.self_s" % layer] = (self_s[layer], "s")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    spans = [{"id": s.id, "name": s.name, "start": s.start - origin,
              "end": s.end - origin, "parent": s.parent}
             for s in tracer.spans]
    return metrics, spans
