"""Pseudo-arclength continuation of the nontrivial wave branch.

The branch starts at the trivial (laminar) wave at the bifurcation value of
the squared surface speed, departs onto the nontrivial branch by one
amplitude step and advances by arclength steps along the secant until its
first failed arclength attempt, at the fold in the head Q, hands it to
crest-speed steps. It ends on the first of continue_branch's six stop
rules; "trough-criterion" and "crest-unresolved" read
solver.trough_criterion_value and solver.crest_kink, which the audit's
D-trough and D-crest report.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (InputError, NumericsError, SolverError,
                     StagnationError)
from .grid import StripGrid
from .solver import (LinearSolver, amplitude, bifurcation_mode, crest_hp,
                     crest_kink, discrete_laminar, find_bifurcation, mode_seed,
                     newton_solve, newton_tolerance, pack_residual,
                     pack_unknowns, residual_parts, scaled_dot, solve_mode,
                     solver_hp, trough_criterion_value, unpack_unknowns)
from .vorticity import VorticityFunction

TROUGH_BAND = 1e-8
# Newton attempts inside continuation give up early, and the step is halved
# or, on the first failed arclength attempt, turned to crest speed (below):
# after NEWTON_MAX_ITER iterations, or at the first iteration that cuts the
# residual by less than NEWTON_MAX_CONTRACTION. On the 64x48 and 128x96
# branches at gamma in {0, -0.3, -0.7}, every attempt that converges takes at
# most 6 iterations, each cutting the residual by 0.65 or better, while the
# attempts that fail stall at ratios near 1 and, without these limits, go on
# for up to 50 iterations before failing all the same.
NEWTON_MAX_ITER = 10
NEWTON_MAX_CONTRACTION = 0.9
# the departure's amplitude, and the cap on the departure and arclength
# steps as they grow
DS0 = 0.005
DS_MAX = 0.04
# After an attempt that converges in at most 4 iterations the step grows by
# REGROWTH.
REGROWTH = 1.3
# Near Q_max the secant tangent is almost all Q, so the arclength
# hyperplane is nearly Q = const and misses the branch past the Q-fold; on
# the 64x48 branches (gamma 0, -0.3, -0.7, 25 steps) arclength steps
# crawled through it at 2.5e-5-6.6e-5 after 10-13 failed attempts. The crest
# speed falls monotonically along every branch measured, so the first
# failed arclength attempt hands the branch to crest-speed steps, each
# raising the crest h_p by the factor (1 + ds), ds starting at CREST_STEP0,
# halved on a failure and grown by REGROWTH with no cap: those branches
# reach their first kinked crest after one failed attempt, in 134 Newton
# iterations instead of 208.
CREST_STEP0 = 0.2
# Newton attempts at one point before "newton-failure"
MAX_RETRIES = 8
# byte layout of a stored point's heights: raw little-endian float64
H_DTYPE = "<f8"


@dataclass
class BranchPoint:
    """A stored wave. The counters are those of the Newton solve that
    found it (zero for the trivial wave): its iterations, its LU
    factorizations and its GMRES iterations. An arclength point may record
    0 factorizations, when every system it solved went to GMRES on the LU
    that the branch's linear solver kept from the point before it. `step`
    is the kind of step that found it, which gives ds its unit:
    "amplitude" (ds the amplitude), "arclength" (ds the arclength) or
    "crest-speed" (the crest h_p grew by the factor 1 + ds); None for the
    trivial wave."""
    index: int
    h: np.ndarray
    Q: float
    amplitude: float
    ds: float
    newton_iterations: int
    factorizations: int
    linear_iterations: int
    step: str | None


@dataclass
class Branch:
    grid: StripGrid
    vf: VorticityFunction
    g: float
    lam_star: float
    points: list[BranchPoint] = field(default_factory=list)
    stop_reason: str = ""


def near_stagnation(grid, h, eps_stag):
    """True when max u = -1/max h_p has come within eps_stag of zero."""
    return float(np.max(solver_hp(grid, h))) >= 1.0 / eps_stag


def continue_branch(grid, vf, g, steps, *, lam_star=None, eps_stag=None,
                    trough_margin=0.0):
    """Continue the branch for up to `steps` nontrivial points.

    Returns a Branch whose first point is always the trivial wave. Each
    point records its step kind: "amplitude" for the first (fixed_amplitude
    at ds = DS0), then "arclength" (arclength along the unit secant) until
    the first arclength attempt that fails, then "crest-speed"
    (fixed_crest_speed at the last point's crest h_p times 1 + ds, ds
    starting at CREST_STEP0). Each attempt starts where its mode's equation
    holds on the line from the last point along the bifurcation mode (the
    departure) or the secant. Any other failed attempt halves the step;
    attempts stop after NEWTON_MAX_ITER iterations or at the first that
    contracts the residual by less than NEWTON_MAX_CONTRACTION. After an
    attempt that converges in at most 4 iterations the step grows by
    REGROWTH, capped at DS_MAX but for crest-speed steps. One LinearSolver
    serves every attempt, so each starts from the LU of the step accepted
    before it; a failed attempt drops its LU, so an accepted point never
    depends on how long a failed attempt ran. `lam_star` defaults to
    find_bifurcation with the stretching of `grid`, which
    StripGrid.from_nodes grids lack.

    Stop reasons: "max-steps", "near-stagnation" (the offending point is not
    a valid wave and is discarded), "amplitude-reversal" (the new point's
    amplitude does not exceed the last stored one; it is discarded and the
    branch ends on the last good point), "trough-criterion"
    (trough_criterion_value, g - gamma(0) u at the trough, falls to
    trough_margin + TROUGH_BAND max(1, g); the point is kept),
    "crest-unresolved" (solver.crest_kink finds the new point's surface
    slope peaking at the first node off the crest, so the grid no longer
    resolves its crest; the point is kept), "newton-failure" (after
    MAX_RETRIES attempts at one point)."""
    if steps < 0:
        raise NumericsError("steps must be nonnegative")
    if lam_star is None:
        if grid.beta is None:
            raise InputError("a grid given by its nodes needs lam_star")
        lam_star = find_bifurcation(vf, g, grid.L, grid.m, beta=grid.beta)
    if eps_stag is None:
        eps_stag = 0.05 * np.sqrt(lam_star)

    hcol, Q_triv, _ = discrete_laminar(grid, vf, g, lam_star)
    phi = bifurcation_mode(grid, vf, g, lam_star)
    mode_h = mode_seed(grid, 0.0, phi, 1.0)  # cos(pi q / L) phi
    branch = Branch(grid, vf, g, float(lam_star))
    branch.points.append(BranchPoint(0, np.tile(hcol, (grid.nq, 1)),
                                     float(Q_triv), 0.0, 0.0, 0, 0, 0, None))
    trough_cut = trough_margin + TROUGH_BAND * max(1.0, g)
    gamma0 = vf.gamma(0.0)

    def predict(step, ds):
        """(h0, Q0, solve mode) of an attempt of this kind at step ds: the
        point where the mode's equation holds on the line from the last one
        along the bifurcation mode (the departure) or the secant."""
        cur = branch.points[-1]
        if step == "amplitude":
            d_h, d_Q = mode_h, 0.0
            mode = dict(mode="fixed_amplitude", amplitude_target=ds)
        else:
            prev = branch.points[-2]
            d_h, d_Q = cur.h - prev.h, cur.Q - prev.Q
            if step == "crest-speed":
                mode = dict(mode="fixed_crest_speed",
                            crest_hp_target=crest_hp(grid, cur.h) * (1.0 + ds))
            else:
                # the unit secant: a zero one stays zero, and its zero row
                # fails the check below
                nrm = np.sqrt(scaled_dot(d_h, d_Q, d_h, d_Q)) or 1.0
                mode = dict(mode="arclength", base=(cur.h, cur.Q),
                            tangent=(d_h / nrm, d_Q / nrm), ds=ds)
        row, target = solve_mode(grid, **mode)
        x, d = pack_unknowns(cur.h, cur.Q), pack_unknowns(d_h, d_Q)
        rate = row @ d
        if not rate > 0.0:
            raise NumericsError("the %s step's equation does not advance "
                                "along its direction" % step)
        return (*unpack_unknowns(grid, x + (target - row @ x) / rate * d),
                mode)

    def accept(res, step, ds_used):
        if near_stagnation(grid, res.h, eps_stag):
            branch.stop_reason = "near-stagnation"
            return False
        a = amplitude(res.h)
        if a <= branch.points[-1].amplitude:
            branch.stop_reason = "amplitude-reversal"
            return False
        branch.points.append(BranchPoint(
            len(branch.points), res.h, float(res.Q), a, ds_used,
            res.iterations, res.factorizations, res.linear_iterations, step))
        if trough_criterion_value(grid, g, gamma0, res.h) <= trough_cut:
            branch.stop_reason = "trough-criterion"
            return False
        if crest_kink(grid, res.h)[0]:
            branch.stop_reason = "crest-unresolved"
            return False
        return True

    ds, step = DS0, "amplitude"
    linear = LinearSolver(grid)
    while len(branch.points) - 1 < steps:
        for _ in range(MAX_RETRIES):
            h0, Q0, mode = predict(step, ds)
            try:
                res = newton_solve(grid, vf, g, h0, Q0, **mode,
                                   max_iter=NEWTON_MAX_ITER,
                                   max_contraction=NEWTON_MAX_CONTRACTION,
                                   linear_solver=linear)
                break
            except SolverError:
                if step == "arclength":
                    # the branch crawls through the Q-fold no more: this
                    # step and every later one fixes the crest speed
                    step, ds = "crest-speed", CREST_STEP0
                else:
                    ds *= 0.5
        else:
            branch.stop_reason = "newton-failure"
            return branch
        if not accept(res, step, ds):
            return branch
        if res.iterations <= 4:
            ds *= REGROWTH
            if step != "crest-speed":
                ds = min(ds, DS_MAX)
        if step == "amplitude":
            step = "arclength"

    branch.stop_reason = "max-steps"
    return branch


# -- serialization -----------------------------------------------------------

def point_filename(index, suffix=".json"):
    return "point_%04d%s" % (index, suffix)


def _jsonable(value):
    """value with numpy scalars as Python ones, tuples as lists, and every
    non-finite number as None: strict JSON has no Infinity or NaN token."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    out = float(value)
    return out if math.isfinite(out) else None


def write_json(path, payload):
    """Write _jsonable(payload) as JSON with sorted keys, indent 1 and a
    final newline: every JSON artifact, the point files included, goes
    through here, so none holds an Infinity or NaN token."""
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_branch(branch, outdir):
    """Write branch.json plus one point_NNNN.json per stored wave.

    Each row of branch.json's "points" holds the point's index, file,
    amplitude, Q, the step ds that found it and its "step" kind (null for
    the trivial wave, then "amplitude", "arclength" or "crest-speed"; ds's
    unit changes with it), and its Newton iterations, factorizations and
    GMRES iterations.

    A point file holds the grid (L, m, nq, npts, beta), g, the vorticity
    config, the point's index, Q and amplitude, and "h": the base64 of
    h's raw little-endian float64 bytes ("<f8"), C order, nq x npts, so
    the heights read back to the bit. Key order is sorted and floats use
    repr, so identical branches produce identical bytes.

    A point file rebuilds its grid from (L, m, nq, npts, beta) and stores
    no nodes yet, so a branch on a grid given by its nodes
    (StripGrid.from_nodes, beta None) is an InputError, raised before any
    file is written.
    """
    grid, vf = branch.grid, branch.vf
    if grid.beta is None:
        raise InputError("point files do not store a grid's nodes yet, so "
                         "a branch on a grid given by its nodes "
                         "(StripGrid.from_nodes) cannot be saved")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    vort = vf.to_config()
    common = {
        "L": grid.L, "m": grid.m, "nq": grid.nq, "npts": grid.npts,
        "beta": grid.beta, "g": branch.g, "vorticity": vort,
    }
    index = []
    for pt in branch.points:
        payload = dict(common)
        payload.update({
            "index": pt.index,
            "Q": pt.Q,
            "amplitude": pt.amplitude,
            "h": base64.b64encode(
                np.asarray(pt.h, dtype=H_DTYPE).tobytes()).decode("ascii"),
        })
        name = point_filename(pt.index)
        write_json(outdir / name, payload)
        index.append({
            "index": pt.index, "file": name, "amplitude": pt.amplitude,
            "Q": pt.Q, "ds": pt.ds, "newton_iterations": pt.newton_iterations,
            "factorizations": pt.factorizations,
            "linear_iterations": pt.linear_iterations, "step": pt.step,
        })
    summary = dict(common)
    summary.update({
        "lambda_star": branch.lam_star,
        "stop_reason": branch.stop_reason,
        "points": index,
    })
    write_json(outdir / "branch.json", summary)
    return outdir / "branch.json"


def _point_files(branch_dir, point=None):
    """(index, path) of each point branch_dir/branch.json lists, or of
    point `point` alone. InputError, naming the index, if it is missing or
    unreadable, a row's file is not point_filename(index), or it lists no
    point `point`."""
    branch_json = Path(branch_dir) / "branch.json"
    if not branch_json.is_file():
        raise InputError("no branch index %s; run `continue` (or "
                         "`pipeline`) first" % branch_json)
    try:
        with open(branch_json) as fh:
            rows = json.load(fh)["points"]
        files = [(int(row["index"]), row["file"]) for row in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError("unusable branch index %s: %s: %s"
                         % (branch_json, type(exc).__name__, exc)) from exc
    for index, name in files:
        if name != point_filename(index):
            raise InputError("branch index %s names %r as point %d"
                             % (branch_json, name, index))
    if point is not None:
        held = len(files)
        files = [(index, name) for index, name in files if index == point]
        if not files:
            raise InputError("branch index %s has no point %d (it holds %d "
                             "points)" % (branch_json, point, held))
    return [(index, branch_json.parent / name) for index, name in files]


def load_point(path):
    """Rebuild (grid, vf, g, h, Q) from a point_NNNN.json file that
    save_branch wrote.

    Raises InputError, naming the file, unless its grid and vorticity are
    valid and its "h" is valid base64 of exactly nq x npts little-endian
    float64 values that, with its Q, solve the discrete system: the
    residual max-norm must stay below 100 times the Newton tolerance for Q
    (continuation stores points below 1 times it), which a non-finite value
    anywhere never does. An h stored as a list of numbers, as older runs
    wrote it, is rejected: rerun `continue`.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        grid = StripGrid(data["L"], data["m"], data["nq"], data["npts"],
                         data["beta"])
        vf = VorticityFunction(data["vorticity"], data["m"])
        raw = base64.b64decode(data["h"], validate=True)
        h = np.frombuffer(raw, dtype=H_DTYPE).astype(float).reshape(
            grid.nq, grid.npts)
        g, Q = float(data["g"]), float(data["Q"])
        R, S = residual_parts(grid, vf, g, h, Q)
    except (OSError, KeyError, TypeError, ValueError, InputError,
            StagnationError) as exc:
        raise InputError("unusable branch point %s: %s: %s"
                         % (path, type(exc).__name__, exc)) from exc
    residual = np.max(np.abs(pack_residual(R, S)))
    if not residual < 100.0 * newton_tolerance(Q):
        raise InputError("branch point %s does not solve the discrete "
                         "system: residual %.3g" % (path, residual))
    return grid, vf, g, h, Q
