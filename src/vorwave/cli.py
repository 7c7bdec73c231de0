"""Command line front end.

Every subcommand writes its artifacts under one output directory and
finishes by dropping a ``manifest.json`` recording the configuration,
the subcommand's own arguments, tool version, timestamps, and input
hashes. Timestamps live only in the manifest: the numeric artifacts
(reports, tables, branch files, CSVs) are byte-identical across reruns
with the same inputs.

Exit codes: 0 all good (and every requested audit passed), 1 an audit
reported a failed diagnostic, 2 configuration or input trouble, or an
output file that cannot be written, 3 the numerics gave up.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .audit import audit_wave, gamma_small_criterion, \
    gamma_smallest_criterion
from .config import DEFAULT_G, RunConfig
from .continuation import _point_files, continue_branch, load_point, \
    point_filename, save_branch, write_json
from .errors import ConfigError, InputError, SolverError
from .fields import WaveField, reconstruct
from .gerstner import TrochoidalWave
from .laminar import _admissible_floor, critical_lambda, head_from_depth, \
    laminar_depth, laminar_head
from .solver import find_bifurcation


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utcnow():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _thread_count():
    """Threads a run uses: every subcommand runs in the calling thread.
    The benchmark's machine facts read this."""
    return 1


class Manifest:
    """Provenance sidecar for one run; the only file carrying wall time:
    its timestamps and, for `pipeline`, "stage_seconds", the wall time of
    each stage, a stage that raised included. "config" holds the config
    (null without one) and "arguments" the subcommand's own arguments."""

    def __init__(self, command, config, arguments):
        self.payload = {
            "command": command,
            "version": __version__,
            "started": _utcnow(),
            "config": config,
            "arguments": arguments,
            "inputs": {},
        }

    def add_input(self, path):
        self.payload["inputs"][str(path)] = _sha256(path)

    @contextmanager
    def stage(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.payload.setdefault("stage_seconds", {})[name] = \
                time.perf_counter() - start

    def write(self, outdir):
        self.payload["finished"] = _utcnow()
        write_json(Path(outdir) / "manifest.json", self.payload)


def _resolve_outdir(cfg, out_flag):
    out = out_flag or (cfg.outdir if cfg else None)
    if out is None:
        raise ConfigError("no output directory: pass --out or set "
                          "config.outdir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- subcommand handlers -----------------------------------------------------


def _run_dispersion(cfg, args, outdir, manifest):
    vf = cfg.build_vorticity()
    lam_c = critical_lambda(vf, cfg.g)
    # from a twentieth of the way above the admissible floor, -2 min Gamma
    # (0 for favorable vorticity), up to lambda_c
    floor = _admissible_floor(vf)
    lams = np.linspace(floor + (lam_c - floor) / 20.0, lam_c, 21)
    table = [{"lambda": float(lam),
              "Q": float(laminar_head(vf, float(lam), cfg.g))}
             for lam in lams]
    payload = {
        "lambda_c": lam_c,
        "Qtilde_table": table,
        "criteria": {
            "gammasmall": asdict(
                gamma_small_criterion(vf, cfg.g, cfg.L, lam_c=lam_c)),
            "gammasmallest": asdict(
                gamma_smallest_criterion(vf, cfg.g, cfg.L, lam_c=lam_c)),
        },
    }
    write_json(outdir / "dispersion.json", payload)
    return 0


def _write_bifurcation(cfg, outdir):
    """Write bifurcation.json and return its payload."""
    vf = cfg.build_vorticity()
    lam_c = critical_lambda(vf, cfg.g)
    lam_star = float(find_bifurcation(vf, cfg.g, cfg.L, cfg.m,
                                      beta=cfg.build_grid().beta,
                                      lam_c=lam_c))
    depth = laminar_depth(vf, lam_star)
    payload = {
        "lambda_star": lam_star,
        "lambda_c": lam_c,
        "Q_star": float(head_from_depth(lam_star, cfg.g, depth)),
        "depth": float(depth),
    }
    write_json(outdir / "bifurcation.json", payload)
    return payload


def _run_bifurcate(cfg, args, outdir, manifest):
    _write_bifurcation(cfg, outdir)
    return 0


def _run_continue(cfg, args, outdir, manifest):
    branch = continue_branch(cfg.build_grid(), cfg.build_vorticity(), cfg.g,
                             cfg.steps)
    save_branch(branch, outdir / "branch")
    return 0


def _run_reconstruct(cfg, args, outdir, manifest):
    files = _point_files(outdir / "branch", args.point)
    fields_dir = outdir / "fields"
    fields_dir.mkdir(exist_ok=True)
    for i, path in files:
        reconstruct(*load_point(path)).to_csv(
            fields_dir / point_filename(i, ".csv"))
    return 0


def _audit_points(points, lam_c, outdir):
    """Reconstruct and audit each (index, grid, vf, g, h, Q), writing its
    reports/report_NNNN.json; return whether each passed and the last
    (index, field). lam_c None means the first point's; all share vf, g."""
    reports_dir = outdir / "reports"
    reports_dir.mkdir(exist_ok=True)
    outcomes, last = [], None
    for i, grid, vf, g, h, Q in points:
        if lam_c is None:
            lam_c = critical_lambda(vf, g)
        wf = reconstruct(grid, vf, g, h, Q)
        report = audit_wave(wf, lam_c=lam_c)
        write_json(reports_dir / ("report_%04d.json" % i), report.as_json())
        outcomes.append(report.passed())
        last = i, wf
    return outcomes, last


def _run_audit(cfg, args, outdir, manifest):
    field_csv, point = args.field, args.point
    if field_csv is not None:
        if point is not None:
            raise InputError("--point %d selects a branch point, but the "
                             "field CSV %s is no branch; give one or the "
                             "other" % (point, field_csv))
        if not Path(field_csv).is_file():
            raise InputError("field CSV %s does not exist" % field_csv)
        manifest.add_input(field_csv)
        wf = WaveField.from_csv(field_csv, vf=cfg.build_vorticity())
        # the config's vorticity, and lambda_c with it, belong to the
        # config's problem; a field of another one is not audited under it
        for name in ("L", "m", "g"):
            if getattr(wf, name) != getattr(cfg, name):
                raise InputError(
                    "field CSV %s has %s = %r but the config has %s = %r; "
                    "audit a field under the config it was computed with"
                    % (field_csv, name, getattr(wf, name), name,
                       getattr(cfg, name)))
        # The reconstructed vorticity tracks gamma(psi) to truncation: its
        # median gap over the nodes is 0.05-0.08 delta^2 on every branch
        # measured (24x20 to 128x96, gamma +0.5 to -0.7, kinked crests
        # included), while its largest gap, at the node below a steep
        # crest, can exceed the gap between two configs' vorticities.
        gap = float(np.median(np.abs(
            wf.omega - wf.vf.gamma(-wf.p)[None, :])))
        if gap > wf.grid.delta ** 2:
            raise InputError(
                "field CSV %s has vorticity omega a median %.3g from the "
                "config's gamma(psi), beyond the grid's delta^2 = %.3g; "
                "audit a field under the config it was computed with"
                % (field_csv, gap, wf.grid.delta ** 2))
        report = audit_wave(wf)
        write_json(outdir / "report.json", report.as_json())
        return 0 if report.passed() else 1
    files = _point_files(outdir / "branch", point)
    outcomes, _ = _audit_points(((idx, *load_point(path))
                                 for idx, path in files), None, outdir)
    return 0 if all(outcomes) else 1


def _run_gerstner(cfg, args, outdir, manifest):
    wave = TrochoidalWave(args.k, args.eps,
                          g=cfg.g if cfg is not None else DEFAULT_G)
    wave.to_csv(outdir / "gerstner.csv")
    write_json(outdir / "gerstner_report.json", wave.mini_report())
    return 0


def _run_pipeline(cfg, args, outdir, manifest):
    """Bifurcate, continue and store the branch, then audit every point.
    Only the last point, the steepest wave, gets its field CSV;
    `reconstruct` writes the others on demand. The manifest records each
    stage's wall time."""
    with manifest.stage("bifurcate"):
        bif = _write_bifurcation(cfg, outdir)
    grid, vf = cfg.build_grid(), cfg.build_vorticity()
    with manifest.stage("continue"):
        branch = continue_branch(grid, vf, cfg.g, cfg.steps,
                                 lam_star=bif["lambda_star"])
    with manifest.stage("save_branch"):
        save_branch(branch, outdir / "branch")
    with manifest.stage("audit"):
        outcomes, (index, wf) = _audit_points(
            ((pt.index, grid, vf, cfg.g, pt.h, pt.Q)
             for pt in branch.points), bif["lambda_c"], outdir)
    with manifest.stage("last_csv"):
        (outdir / "fields").mkdir(exist_ok=True)
        wf.to_csv(outdir / "fields" / point_filename(index, ".csv"))
    summary = {
        "points": len(branch.points),
        "stop_reason": branch.stop_reason,
        "lambda_star": branch.lam_star,
        "audits_passed": int(sum(outcomes)),
        "all_pass": bool(all(outcomes)),
    }
    write_json(outdir / "pipeline.json", summary)
    return 0 if all(outcomes) else 1


# -- argument plumbing -------------------------------------------------------

# the arguments every subcommand shares; the manifest records the others
_COMMON_ARGUMENTS = ("command", "config", "out", "handler")


def build_parser():
    """The parser. Each subcommand's parser sets `handler`, the function
    run() calls with (cfg, args, outdir, manifest) for its exit status."""
    parser = argparse.ArgumentParser(
        prog="vorwave",
        description="steady rotational water waves: solve, continue, audit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, config_required=True,
            with_point=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=config_required,
                       help="path to the run configuration JSON")
        p.add_argument("--out", help="output directory (overrides "
                                     "config.outdir)")
        if with_point:
            p.add_argument("--point", type=int, default=None,
                           help="restrict to one branch point index")
        return p

    add("dispersion", _run_dispersion,
        "laminar dispersion table and shear criteria")
    add("bifurcate", _run_bifurcate, "locate the laminar bifurcation point")
    add("continue", _run_continue, "trace a branch of nontrivial waves")
    add("reconstruct", _run_reconstruct,
        "rebuild field CSVs from stored branch points", with_point=True)
    audit_p = add("audit", _run_audit,
                  "run every diagnostic on stored or given fields",
                  with_point=True)
    audit_p.add_argument("field", nargs="?", default=None,
                         help="audit this field CSV instead of the branch")
    gerstner_p = add("gerstner", _run_gerstner,
                     "sample the closed-form trochoidal wave",
                     config_required=False)
    gerstner_p.add_argument("--k", type=float, default=1.0,
                            help="wavenumber (default 1.0)")
    gerstner_p.add_argument("--eps", type=float, default=0.5,
                            help="steepness in (0,1) (default 0.5)")
    add("pipeline", _run_pipeline,
        "bifurcate, continue, audit every point, and write the last "
        "point's field CSV")
    return parser


def run(args):
    cfg = None
    if args.config is not None:
        cfg = RunConfig.from_file(args.config)
    outdir = _resolve_outdir(cfg, args.out)
    manifest = Manifest(
        args.command, cfg.raw if cfg is not None else None,
        {name: value for name, value in vars(args).items()
         if name not in _COMMON_ARGUMENTS})
    if args.config is not None:
        manifest.add_input(args.config)
    try:
        return args.handler(cfg, args, outdir, manifest)
    finally:
        # A failed solve still leaves a provenance record next to
        # whatever artifacts were written before it died.
        manifest.write(outdir)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(args)
    except ConfigError as exc:
        print("vorwave: config error: %s" % exc, file=sys.stderr)
        return 2
    except InputError as exc:
        print("vorwave: input error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("vorwave: solver error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("vorwave: output error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
