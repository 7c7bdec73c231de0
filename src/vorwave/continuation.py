"""Pseudo-arclength continuation of the nontrivial wave branch.

The branch starts at the trivial (laminar) wave at the bifurcation value of
the squared surface speed, takes one amplitude-controlled step onto the
nontrivial branch, and then advances with secant tangents and an adaptive
arclength step. It ends on one of six stop rules, which branch.json names
"max-steps", "near-stagnation", "amplitude-reversal", "trough-criterion"
(g - gamma(0) * u > 0 at the trough turns non-positive), "crest-unresolved"
(the surface slope peaks at the first node off the crest, solver.crest_kink,
the predicate the audit's D-crest reports too) and "newton-failure".
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
from .solver import (LinearSolver, amplitude, bifurcation_mode,
                     crest_kink, discrete_laminar, find_bifurcation, mode_seed,
                     newton_solve, newton_tolerance, pack_residual,
                     residual_parts, scaled_dot, solver_hp)
from .vorticity import VorticityFunction

TROUGH_BAND = 1e-8
# Newton attempts inside continuation give up early, and the step is halved:
# after NEWTON_MAX_ITER iterations, or at the first iteration that cuts the
# residual by less than NEWTON_MAX_CONTRACTION. On the 64x48 and 128x96
# branches at gamma in {0, -0.3, -0.7}, every attempt that converges takes at
# most 6 iterations, each cutting the residual by 0.65 or better, while the
# attempts that fail stall at ratios near 1 and, without these limits, go on
# for up to 50 iterations before failing all the same.
NEWTON_MAX_ITER = 10
NEWTON_MAX_CONTRACTION = 0.9
# the departure's amplitude, and the cap on the arclength step as it grows
DS0 = 0.005
DS_MAX = 0.04
# After an attempt that converges in at most 4 iterations the step grows by
# REGROWTH, or by COLLAPSE_REGROWTH while failed attempts have left it below
# DS0. At the Q-fold of the 64x48 branches (gamma 0, -0.3, -0.7, 25 steps)
# failed attempts halve the step to 2.8e-5-5.6e-5, and regrown by 1.3 it
# stayed below 1e-3 for each branch's last 11-12 steps. Regrown by 2, the
# three branches reach their first kinked point, where they stop, in 208
# Newton iterations instead of 249 for 25 steps, at 35 failed attempts
# against 33. A factor of 3 or 4 steps past the kink's onset, onto a wave
# whose D-f reports boundary; 1.6 takes 234 iterations. A branch whose
# attempts all converge never falls below DS0 and keeps its steps.
REGROWTH = 1.3
COLLAPSE_REGROWTH = 2.0
# step halvings, each after a failed Newton attempt, before "newton-failure"
MAX_RETRIES = 8
# byte layout of a stored point's heights: raw little-endian float64
H_DTYPE = "<f8"


@dataclass
class BranchPoint:
    """A stored wave. The counters are those of the Newton solve that
    found it (zero for the trivial wave): its iterations, its LU
    factorizations and its GMRES iterations. An arclength point may record
    0 factorizations, when every system it solved went to GMRES on the LU
    that the branch's linear solver kept from the point before it."""
    index: int
    h: np.ndarray
    Q: float
    amplitude: float
    ds: float
    newton_iterations: int
    factorizations: int
    linear_iterations: int


@dataclass
class Branch:
    grid: StripGrid
    vf: VorticityFunction
    g: float
    lam_star: float
    points: list[BranchPoint] = field(default_factory=list)
    stop_reason: str = ""


def trough_criterion_value(grid, vf, g, h):
    """g - gamma(0) * u evaluated at the trough (q = L, p = 0)."""
    u_trough = -1.0 / float(solver_hp(grid, h[-1])[-1])
    return g - vf.gamma(0.0) * u_trough


def near_stagnation(grid, h, eps_stag):
    """True when max u = -1/max h_p has come within eps_stag of zero."""
    return float(np.max(solver_hp(grid, h))) >= 1.0 / eps_stag


def continue_branch(grid, vf, g, steps, *, lam_star=None, eps_stag=None,
                    trough_margin=0.0):
    """Continue the branch for up to `steps` nontrivial points.

    Returns a Branch whose first point is always the trivial wave. The
    first nontrivial point solves for amplitude DS0; later points come from
    pseudo-arclength steps along the secant tangent. Every point, the first
    one included, goes through the same step loop: a Newton attempt that
    fails halves the step and retries; attempts are capped at
    NEWTON_MAX_ITER iterations and abandoned at the first iteration that
    contracts the residual by less than NEWTON_MAX_CONTRACTION, so a stalled
    attempt costs a few linear solves instead of dozens. After an attempt
    that converges in at most 4 iterations the step grows, up to DS_MAX:
    by COLLAPSE_REGROWTH (2) while failed attempts have left it below DS0,
    by REGROWTH (1.3) otherwise. The branch builds one LinearSolver, which
    serves every attempt (newton_solve's `linear_solver`), so each step
    starts from the last LU of the step accepted before it, the departure's
    included; a failed attempt's LU is dropped, so its retry factors its
    first system, and an accepted point never depends on how long a failed
    attempt ran. `lam_star` defaults to find_bifurcation on a vertical grid
    with the stretching of `grid`, which StripGrid.from_nodes grids lack.

    Stop reasons: "max-steps", "near-stagnation" (the offending point is not
    a valid wave and is discarded), "amplitude-reversal" (the new point's
    amplitude does not exceed the last stored one; it is discarded and the
    branch ends on the last good point), "trough-criterion" (the point is
    kept), "crest-unresolved" (solver.crest_kink finds the new point's
    surface slope peaking at the first node off the crest, so the grid no
    longer resolves its crest; the point is kept), "newton-failure" (after
    MAX_RETRIES halvings of the step).
    """
    if steps < 0:
        raise NumericsError("steps must be nonnegative")
    if lam_star is None:
        if grid.beta is None:
            raise InputError("a grid given by its nodes needs lam_star")
        lam_star = find_bifurcation(vf, g, grid.L, grid.m, beta=grid.beta)
    if eps_stag is None:
        eps_stag = 0.05 * np.sqrt(lam_star)

    hcol, Q_triv, _ = discrete_laminar(grid, vf, g, lam_star)
    h_triv = np.tile(hcol, (grid.nq, 1))
    phi = bifurcation_mode(grid, vf, g, lam_star)
    branch = Branch(grid, vf, g, float(lam_star))
    branch.points.append(BranchPoint(0, h_triv, float(Q_triv), 0.0, 0.0,
                                     0, 0, 0))
    trough_cut = trough_margin + TROUGH_BAND * max(1.0, g)

    def departure(ds):
        # amplitude-controlled departure from the trivial wave: the seed of
        # seed_wave, built on the laminar column and mode shape above
        return (mode_seed(grid, hcol, phi, ds), Q_triv,
                dict(mode="fixed_amplitude", amplitude_target=ds))

    def accept(res, ds_used):
        if near_stagnation(grid, res.h, eps_stag):
            branch.stop_reason = "near-stagnation"
            return False
        a = amplitude(res.h)
        if a <= branch.points[-1].amplitude:
            branch.stop_reason = "amplitude-reversal"
            return False
        branch.points.append(BranchPoint(
            len(branch.points), res.h, float(res.Q), a, ds_used,
            res.iterations, res.factorizations, res.linear_iterations))
        if trough_criterion_value(grid, vf, g, res.h) <= trough_cut:
            branch.stop_reason = "trough-criterion"
            return False
        if crest_kink(grid, res.h)[0]:
            branch.stop_reason = "crest-unresolved"
            return False
        return True

    ds = DS0
    linear = LinearSolver(grid)
    while len(branch.points) - 1 < steps:
        if len(branch.points) == 1:
            attempt = departure
        else:
            prev, cur = branch.points[-2:]
            t_h = cur.h - prev.h
            t_Q = cur.Q - prev.Q
            nrm = np.sqrt(scaled_dot(t_h, t_Q, t_h, t_Q))
            if nrm == 0.0:
                raise NumericsError("degenerate secant tangent")
            # the secant points the way the branch travelled
            t_h, t_Q = t_h / nrm, t_Q / nrm

            def attempt(ds):
                return (cur.h + ds * t_h, cur.Q + ds * t_Q,
                        dict(mode="arclength", base=(cur.h, cur.Q),
                             tangent=(t_h, t_Q), ds=ds))

        for _ in range(MAX_RETRIES):
            h0, Q0, mode = attempt(ds)
            try:
                res = newton_solve(grid, vf, g, h0, Q0, **mode,
                                   max_iter=NEWTON_MAX_ITER,
                                   max_contraction=NEWTON_MAX_CONTRACTION,
                                   linear_solver=linear)
                break
            except SolverError:
                linear.lu = None
                ds *= 0.5
        else:
            branch.stop_reason = "newton-failure"
            return branch
        if not accept(res, ds):
            return branch
        if res.iterations <= 4:
            ds = min(ds * (COLLAPSE_REGROWTH if ds < DS0 else REGROWTH),
                     DS_MAX)

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
            "linear_iterations": pt.linear_iterations,
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
