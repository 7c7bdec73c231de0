"""Acceptance gate: nine binding criteria, one test and one line each.

Every test prints a single pass/fail line carrying the measured numbers,
then asserts at the stated tolerance. Where a criterion states a runtime
budget, the numerical work is wrapped in a monotonic clock and the
elapsed time asserted too.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from test_gerstner import phys_grad
from vorwave.audit import (audit_wave, gamma_small_criterion,
                           gamma_smallest_criterion)
from vorwave.cli import main
from vorwave.continuation import continue_branch
from vorwave.fields import reconstruct
from vorwave.gerstner import TrochoidalWave
from vorwave.grid import StripGrid
from vorwave.laminar import critical_lambda, laminar_flow, laminar_head
from vorwave.solver import (discrete_laminar, find_bifurcation, newton_solve,
                            seed_wave)
from vorwave.vorticity import VorticityFunction

G, L, M = 9.81, float(np.pi), 1.0

GATED_IDS = [
    "D-slope", "D-sigma", "D-ux", "D-mono", "D-trough", "D-f",
    "D-press-a", "D-press-b", "D-press-c", "D-press-d", "D-press-e",
    "D-press-f", "D-press-g", "D-press-h",
    "D-bern", "D-reduce", "D-monotone-u2", "D-angle",
]


def emit(number, ok, detail):
    print("criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL",
                                     detail))
    assert ok, detail


def observed_orders(errors):
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])


@pytest.fixture(scope="module")
def audited_branches():
    """25-step branches at 64x48 for the three gamma values, fully audited."""
    start = time.perf_counter()
    out = {}
    for gamma in (0.0, -0.3, -0.7):
        vf = VorticityFunction.constant(gamma, m=M)
        grid = StripGrid(L, M, 64, 48, beta=0.5)
        branch = continue_branch(grid, vf, G, 25)
        audited = []
        for pt in branch.points:
            wf = reconstruct(grid, vf, G, pt.h, pt.Q)
            audited.append((pt, wf, audit_wave(wf)))
        out[gamma] = (branch, audited)
    return out, time.perf_counter() - start


def test_criterion_1_dispersion_anchors():
    start = time.perf_counter()
    vf = VorticityFunction.constant(0.0, m=M)
    lam_c = critical_lambda(vf, G)
    head_c = laminar_head(vf, lam_c, G)
    elapsed = time.perf_counter() - start
    anchor = (G * M) ** (2.0 / 3.0)
    err_lam = abs(lam_c - anchor) / anchor
    err_head = abs(head_c - 1.5 * anchor) / (1.5 * anchor)
    emit(1, err_lam < 1e-10 and err_head < 1e-10 and elapsed < 1.0,
         "lambda_c rel err %.2e, Qtilde rel err %.2e, %.2fs"
         % (err_lam, err_head, elapsed))


def test_criterion_2_criterion_equivalence():
    start = time.perf_counter()
    disagreements = []
    boundary_skips = 0
    for n in range(1, 25):
        gamma = -0.05 * n
        vf = VorticityFunction.constant(gamma, m=M)
        small = gamma_small_criterion(vf, G, L)
        smallest = gamma_smallest_criterion(vf, G, L)
        scale = max(1.0, abs(small.rhs), abs(smallest.rhs))
        near_boundary = min(abs(small.margin),
                            abs(smallest.margin)) < 1e-9 * scale
        if small.status != smallest.status:
            if near_boundary:
                boundary_skips += 1
            else:
                disagreements.append(gamma)
    elapsed = time.perf_counter() - start
    emit(2, not disagreements and elapsed < 5.0,
         "24 samples, %d disagreements, %d boundary exemptions, %.2fs"
         % (len(disagreements), boundary_skips, elapsed))


def test_criterion_3_convergence_orders():
    start = time.perf_counter()
    vf = VorticityFunction.constant(-0.5, m=M)
    lam = 0.8 * critical_lambda(vf, G)
    flow = laminar_flow(vf, lam, G)
    lam_errors = []
    for npts in (21, 41, 81):
        grid = StripGrid(L, M, 4, npts, beta=0.5)
        hcol, _, _ = discrete_laminar(grid, vf, G, lam)
        lam_errors.append(float(np.max(np.abs(hcol - flow.height(grid.p)))))
    lam_orders = observed_orders(lam_errors)

    vf0 = VorticityFunction.constant(0.0, m=M)
    lam_star = find_bifurcation(vf0, G, L, M)
    amp = 0.15
    euler_errors = []
    for nq, npts in ((64, 48), (128, 96), (256, 192)):
        grid = StripGrid(L, M, nq, npts, beta=0.5)
        h0, Q0 = seed_wave(grid, vf0, G, lam_star, amp)
        res = newton_solve(grid, vf0, G, h0, Q0, mode="fixed_amplitude",
                           amplitude_target=amp)
        wf = reconstruct(grid, vf0, G, res.h, res.Q)
        e1, e2 = wf.euler_residuals()
        euler_errors.append(max(float(np.max(np.abs(e1))),
                                float(np.max(np.abs(e2)))))
    euler_orders = observed_orders(euler_errors)
    elapsed = time.perf_counter() - start
    ok = (np.all(lam_orders >= 1.8) and np.all(lam_orders <= 2.2)
          and np.all(euler_orders >= 1.8) and np.all(euler_orders <= 2.2)
          and elapsed < 120.0)
    emit(3, ok, "laminar orders %s, euler orders %s, %.1fs"
         % (np.round(lam_orders, 3).tolist(),
            np.round(euler_orders, 3).tolist(), elapsed))


def test_criterion_4_gated_diagnostics_pass_on_branches(audited_branches):
    branches, elapsed = audited_branches
    offences = []
    for gamma, (branch, audited) in branches.items():
        for pt, wf, report in audited:
            for diag_id in GATED_IDS:
                diag = report.by_id(diag_id)
                allowed = ("pass", "not-applicable") if pt.index > 0 \
                    else ("pass", "boundary", "not-applicable")
                if diag.status not in allowed:
                    offences.append((gamma, pt.index, diag_id, diag.status))
            if gamma < 0.0 and pt.index > 0:
                sig = report.by_id("D-sigma")
                if not sig.margin > 0.0:
                    offences.append((gamma, pt.index, "D-sigma-margin",
                                     sig.margin))
    points = {g: len(a) for g, (b, a) in branches.items()}
    emit(4, not offences and elapsed < 300.0,
         "points per branch %s, %d offences %s, %.1fs"
         % (points, len(offences), offences[:4], elapsed))


def test_criterion_5_irrotational_angle_bound(audited_branches):
    branches, _ = audited_branches
    _, audited = branches[0.0]
    worst = 0.0
    for pt, wf, report in audited:
        value = report.by_id("D-slope").value
        worst = max(worst, value["angle_deg"], value["surface_angle_deg"])
    emit(5, worst < 31.15, "max surface angle %.3f deg on the "
         "irrotational branch (bound 31.15)" % worst)


def test_criterion_6_sign_structure(audited_branches):
    branches, _ = audited_branches
    offences = []
    for gamma, (branch, audited) in branches.items():
        for pt, wf, report in audited:
            if pt.index == 0:
                continue
            abc = report.by_id("D-ABC")
            if (abc.status != "pass" or abc.value["min_A"] <= 0.0
                    or abc.value["min_C"] <= 0.0):
                offences.append((gamma, pt.index, "D-ABC", abc.value))
            wbed = report.by_id("D-w-bed")
            if (wbed.status != "pass" or not wbed.value["min"] > 0.0
                    or wbed.value["end_values"] != [0.0, 0.0]):
                offences.append((gamma, pt.index, "D-w-bed", wbed.value))
    emit(6, not offences, "%d offences %s" % (len(offences), offences[:4]))


def test_criterion_7_trochoid_fixture():
    start = time.perf_counter()
    slope_errs = []
    for eps in (0.5, 1.0 / np.sqrt(2.0), 0.9, 0.95):
        wave = TrochoidalWave(1.0, eps)
        analytic = np.degrees(np.arctan(eps / np.sqrt(1.0 - eps ** 2)))
        slope_errs.append(abs(wave.surface_slope_fd() - analytic))
    crossing = brentq(
        lambda e: TrochoidalWave(1.0, e).surface_slope_fd() - 45.0,
        0.5, 0.9, xtol=1e-10)
    crossing_err = abs(crossing - 1.0 / np.sqrt(2.0))

    wave = TrochoidalWave(1.0, 0.9)
    omega_min = float(np.min(wave.field(64, 33).omega))

    a = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    b = np.linspace(wave.b0 - 2.0, wave.b0 - 1e-4, 9)
    A, B = np.meshgrid(a, b, indexing="ij")
    u, v = wave.velocity(A, B)
    ux, uy = phys_grad(wave, lambda p, q: wave.velocity(p, q)[0], A, B)
    vx, vy = phys_grad(wave, lambda p, q: wave.velocity(p, q)[1], A, B)
    Px, Py = phys_grad(wave, lambda p, q: wave.pressure(q) + 0.0 * p, A, B)
    euler = max(float(np.max(np.abs(u * ux + v * uy + Px))),
                float(np.max(np.abs(u * vx + v * vy + Py + wave.g))))
    elapsed = time.perf_counter() - start
    ok = (max(slope_errs) < 1e-4 and crossing_err < 1e-6
          and omega_min > 0.0 and euler < 1e-6 and elapsed < 10.0)
    emit(7, ok, "slope err %.1e deg, 45-deg crossing err %.1e, min omega "
         "%.3f, euler residual %.1e, %.1fs"
         % (max(slope_errs), crossing_err, omega_min, euler, elapsed))


def test_criterion_8_stop_rules():
    vf = VorticityFunction.constant(0.0, m=M)
    grid = StripGrid(L, M, 48, 36, beta=0.5)
    lam_star = find_bifurcation(vf, G, L, M)

    tight = continue_branch(grid, vf, G, 25, trough_margin=G - 1e-9)
    trough_ok = (tight.stop_reason == "trough-criterion"
                 and len(tight.points) == 2)

    eps_stag = 0.5 * np.sqrt(lam_star)
    guarded = continue_branch(grid, vf, G, 25, eps_stag=eps_stag)
    max_u = max(float(np.max(reconstruct(grid, vf, G, pt.h, pt.Q).u))
                for pt in guarded.points)
    stag_ok = (guarded.stop_reason == "near-stagnation"
               and max_u < -eps_stag)
    emit(8, trough_ok and stag_ok,
         "trough rule: %s after %d points; stagnation rule: %s with "
         "max u %.4f vs -eps_stag %.4f"
         % (tight.stop_reason, len(tight.points), guarded.stop_reason,
            max_u, -eps_stag))


def test_criterion_9_pipeline_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "L": L, "m": M, "vorticity": {"kind": "constant", "gamma": 0.0},
        "grid": {"Nq": 48, "Np": 36}, "continuation": {"steps": 4},
    }))
    for name in ("one", "two"):
        code = main(["pipeline", "--config", str(cfg), "--out",
                     str(tmp_path / name)])
        assert code == 0
    reports = sorted(p.name for p in (tmp_path / "one" / "reports").iterdir())
    identical = all(
        (tmp_path / "one" / "reports" / name).read_bytes()
        == (tmp_path / "two" / "reports" / name).read_bytes()
        for name in reports)
    emit(9, bool(reports) and identical,
         "%d reports compared byte for byte" % len(reports))
