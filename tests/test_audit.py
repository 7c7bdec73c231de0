"""Audit diagnostics exercised on laminar flows and solved waves.

The laminar flow pins the degenerate cases (every strict sign check sits
exactly on its boundary, the pressure identities hold up to solver
truncation). Solved waves check the sign diagnostics strictly, the
identity residuals against refinement order, and the report plumbing
(JSON schema, determinism, pressure-offset invariance).
"""

import copy
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vorwave.audit as audit_module
from vorwave.audit import (_band, _nonstrict, _strict, audit_wave,
                           gamma_small_criterion, gamma_smallest_criterion,
                           pressure_normal_derivative, surface_curve)
from vorwave.continuation import continue_branch, write_json
from vorwave.errors import StagnationError
from vorwave.fd import dq
from vorwave.fields import reconstruct
from vorwave.grid import StripGrid
from vorwave.laminar import critical_lambda, laminar_flow
from vorwave.solver import (discrete_laminar, find_bifurcation, newton_solve,
                            seed_wave)
from vorwave.vorticity import VorticityFunction

G = 9.81
L = np.pi
M = 1.0

ALL_IDS = [
    "D-slope", "D-sigma", "D-ux", "D-mono", "D-trough", "D-f", "D-alpha",
    "D-w-pde", "D-s-pde", "D-p1", "D-p2", "D-ABC",
    "D-press-a", "D-press-b", "D-press-c", "D-press-d", "D-press-e",
    "D-press-f", "D-press-g", "D-press-h",
    "D-bern", "D-reduce", "D-monotone-u2", "D-angle", "D-overturn",
    "D-w-bed", "D-crest",
]

# The sign and inequality diagnostics expected to hold on every accepted
# branch wave; the interior PDE residuals are excluded on purpose (their
# magnitude at a fixed grid measures resolution, not wave health).
BRANCH_IDS = [
    "D-slope", "D-sigma", "D-ux", "D-mono", "D-trough", "D-f",
    "D-press-a", "D-press-b", "D-press-c", "D-press-d", "D-press-e",
    "D-press-f", "D-press-g", "D-press-h",
    "D-bern", "D-reduce", "D-monotone-u2", "D-angle",
]


def trivial_field(gamma=-1.0, lam=1.0, nq=16, npts=41):
    """The discrete laminar flow of vorticity gamma, a constant or a
    VorticityFunction, at squared surface speed lam."""
    vf = (gamma if isinstance(gamma, VorticityFunction)
          else VorticityFunction.constant(gamma, m=M))
    grid = StripGrid(L, M, nq, npts, beta=0.5)
    hcol, Q, _ = discrete_laminar(grid, vf, G, lam)
    return reconstruct(grid, vf, G, np.tile(hcol, (grid.nq, 1)), Q)


def solve_wave(gamma, amp, nq=64, npts=48):
    vf = VorticityFunction.constant(gamma, m=M)
    lam_star = find_bifurcation(vf, G, L, M)
    grid = StripGrid(L, M, nq, npts, beta=0.5)
    h0, Q0 = seed_wave(grid, vf, G, lam_star, amp)
    res = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                       amplitude_target=amp)
    return reconstruct(grid, vf, G, res.h, res.Q)


@pytest.fixture(scope="module")
def trivial_report():
    wf = trivial_field()
    return wf, audit_wave(wf)


@pytest.fixture(scope="module")
def small_wave():
    return solve_wave(0.0, 0.005, nq=48, npts=36)


@pytest.fixture(scope="module")
def moderate_wave():
    return solve_wave(0.0, 0.2)


@pytest.fixture(scope="module")
def sheared_wave():
    return solve_wave(-0.3, 0.15)


@pytest.fixture(scope="module")
def moderate_report(moderate_wave):
    return audit_wave(moderate_wave)


@pytest.fixture(scope="module")
def sheared_report(sheared_wave):
    return audit_wave(sheared_wave)


class TestTrivialWave:
    def test_nothing_fails(self, trivial_report):
        _, rep = trivial_report
        assert rep.passed()
        assert rep.summary["fail"] == 0
        assert [d.id for d in rep.diagnostics] == ALL_IDS

    def test_exact_zero_signs_sit_on_the_boundary(self, trivial_report):
        _, rep = trivial_report
        for diag_id in ("D-ux", "D-mono", "D-w-bed"):
            assert rep.by_id(diag_id).status == "boundary"

    def test_wave_shape_checks_not_applicable(self, trivial_report):
        _, rep = trivial_report
        for diag_id in ("D-press-b", "D-press-c", "D-monotone-u2"):
            assert rep.by_id(diag_id).status == "not-applicable"

    def test_slope_and_bernoulli_vanish(self, trivial_report):
        _, rep = trivial_report
        assert rep.by_id("D-slope").value["ratio"] == 0.0
        assert rep.by_id("D-bern").value < 1e-12

    def test_pressure_bound_attained_within_truncation(self, trivial_report):
        wf, rep = trivial_report
        diag = rep.by_id("D-press-a")
        assert diag.status == "pass"
        # eta == 0 makes both bounds zero; the violation is pure solver
        # truncation, second order in the p spacing.
        assert diag.value["violation"] < 1e-3
        assert diag.value["violation"] > 0.0

    def test_adverse_speed_hypothesis_gated(self, trivial_report):
        _, rep = trivial_report
        g_diag = rep.by_id("D-press-g")
        assert g_diag.status == "not-applicable"
        assert g_diag.value["hypothesis"] < 0.0
        assert g_diag.value["conclusion"] is None
        # gamma <= 0 holds, but the crest-minimum claim is about a wave;
        # on the laminar flow it is not applicable either
        h_diag = rep.by_id("D-press-h")
        assert h_diag.status == "not-applicable"
        assert h_diag.value["hypothesis"] <= 0.0
        assert h_diag.value["conclusion"] is None

    def test_speed_extremes_not_applicable_without_shear(self):
        # gamma = 0 satisfies both speed hypotheses, yet on a laminar flow
        # every column is the same and both margins are zero up to
        # rounding, whose sign would decide the status
        rep = audit_wave(trivial_field(gamma=0.0, lam=4.0))
        margin = rep.by_id("D-press-b").margin
        assert margin <= 0.0
        for diag_id in ("D-press-g", "D-press-h"):
            diag = rep.by_id(diag_id)
            assert diag.status == "not-applicable", diag_id
            assert diag.value == {"hypothesis": margin, "conclusion": None,
                                  "failed": "not-flat"}
            assert diag.margin == margin

    def test_trough_value_carries_strain(self, trivial_report):
        _, rep = trivial_report
        diag = rep.by_id("D-trough")
        assert diag.status == "pass"
        # g - gamma(0) * u_trough with gamma = -1 and u_trough = -1: the
        # two minus signs cancel against each other, leaving g - 1.  The
        # discrete laminar column carries its own O(dp^2) offset in u.
        assert diag.value["vortex_force"] == pytest.approx(G - 1.0, abs=1e-3)
        assert diag.value["trough_uxx"] == 0.0


class TestNormalDerivative:
    def test_laminar_value_is_minus_g(self):
        vf = VorticityFunction.constant(-1.0, m=M)
        grid = StripGrid(L, M, 8, 501, beta=0.5)
        flow = laminar_flow(vf, 1.0, G)
        h = np.tile(flow.height(grid.p), (grid.nq, 1))
        wf = reconstruct(grid, vf, G, h, flow.Q)
        dpdn = pressure_normal_derivative(wf)
        np.testing.assert_allclose(dpdn, -G, rtol=0, atol=1e-6)

    def test_negative_on_solved_waves(self, moderate_wave, sheared_wave):
        for wf in (moderate_wave, sheared_wave):
            assert np.all(pressure_normal_derivative(wf) < 0.0)

    def test_computed_once_per_audit(self, moderate_wave, monkeypatch):
        # pressure_top, turning_angle and overturn share one surface curve.
        calls = []
        real = audit_module.pressure_normal_derivative

        def counting(wf):
            calls.append(wf)
            return real(wf)

        monkeypatch.setattr(audit_module, "pressure_normal_derivative",
                            counting)
        audit_wave(moderate_wave)
        assert len(calls) == 1

    def test_overturn_reads_the_shared_curve(self, moderate_wave):
        # A surface node with u > 0 sends overturn to its pressure-sink
        # branch, which must report the half-period maximum of dP/dn.
        wf = copy.copy(moderate_wave)
        wf.u = wf.u.copy()
        wf.u[3, -1] = 0.1
        diag = audit_wave(wf).by_id("D-overturn")
        assert diag.value["overturning"] is True
        assert diag.value["max_dPdn"] == float(
            np.max(pressure_normal_derivative(wf)))

    def test_stagnant_surface_rejected(self, moderate_wave):
        wf = copy.copy(moderate_wave)
        wf.u = wf.u.copy()
        wf.v = wf.v.copy()
        wf.u[3, -1] = 0.0
        wf.v[3, -1] = 0.0
        with pytest.raises(StagnationError):
            pressure_normal_derivative(wf)


class TestSmallWave:
    def test_branch_diagnostics_pass(self, small_wave):
        rep = audit_wave(small_wave)
        assert rep.passed()
        for diag_id in BRANCH_IDS:
            assert rep.by_id(diag_id).status == "pass", diag_id

    def test_angle_matches_linear_theory(self, small_wave):
        rep = audit_wave(small_wave)
        measured = rep.by_id("D-slope").value["surface_angle_deg"]
        amp = small_wave.eta[0] - small_wave.eta[-1]
        predicted = np.degrees(np.arctan((np.pi / L) * amp / 2.0))
        assert measured == pytest.approx(predicted, rel=0.2)

    def test_surface_curve_geometry(self, small_wave):
        curve = surface_curve(small_wave)
        assert curve.winding == 0
        assert curve.theta.size == curve.dPdn.size == small_wave.nq
        # v vanishes at the crest and the trough, so the angle of (-u, -v)
        # is exactly zero there; relative flow runs leftward, so it stays
        # within a quarter turn in between.
        assert curve.theta[0] == 0.0 and curve.theta[-1] == 0.0
        assert np.all(np.abs(curve.theta) < 0.5 * np.pi)


class TestModerateWave:
    def test_branch_diagnostics_pass(self, moderate_report):
        assert moderate_report.passed()
        for diag_id in BRANCH_IDS:
            assert moderate_report.by_id(diag_id).status == "pass", diag_id

    def test_surface_angle_below_classical_bound(self, moderate_report):
        angle = moderate_report.by_id("D-slope").value["surface_angle_deg"]
        assert 0.0 < angle < 31.15

    def test_speed_extremes_sit_at_named_columns(self, moderate_report):
        # gamma == 0 satisfies both one-sided hypotheses at once.
        for diag_id in ("D-press-g", "D-press-h"):
            diag = moderate_report.by_id(diag_id)
            assert diag.status == "pass"
            assert diag.value["hypothesis"] >= 0.0

    def test_curvature_coefficients_positive(self, moderate_report):
        diag = moderate_report.by_id("D-ABC")
        assert diag.status == "pass"
        assert diag.margin > 0.0

    def test_winding_zero(self, moderate_report):
        assert moderate_report.by_id("D-angle").value["winding"] == 0

    def test_winding_surface_fails(self, moderate_wave):
        # a surface whose flow direction turns once per period: the
        # half-period turn of pi counts as one full winding
        wf = copy.copy(moderate_wave)
        wf.u, wf.v = wf.u.copy(), wf.v.copy()
        wf.u[:, -1] = 2.0 * np.cos(np.pi * wf.q / wf.L)
        wf.v[:, -1] = 2.0 * np.sin(np.pi * wf.q / wf.L)
        diag = audit_wave(wf).by_id("D-angle")
        assert diag.value["winding"] == 1
        assert diag.status == "fail"


@pytest.mark.parametrize("wave", ["moderate", "sheared"])
def test_locations_are_grid_nodes(wave, request):
    # every diagnostic reports a node of the half period, or no location
    wf = request.getfixturevalue(wave + "_wave")
    for diag in request.getfixturevalue(wave + "_report").diagnostics:
        if diag.location is not None:
            q, p = diag.location
            assert q in wf.q and p in wf.p, (diag.id, diag.location)


class TestShearedWave:
    def test_branch_diagnostics(self, sheared_report):
        assert sheared_report.passed()
        for diag_id in BRANCH_IDS:
            diag = sheared_report.by_id(diag_id)
            if diag_id == "D-press-g":
                # omega = -gamma... the adverse-sign hypothesis fails for
                # favorable vorticity, so the claim is vacuous here.
                assert diag.status == "not-applicable"
            else:
                assert diag.status == "pass", diag_id

    def test_sigma_margin_strictly_positive(self, sheared_report):
        diag = sheared_report.by_id("D-sigma")
        assert diag.status == "pass"
        assert diag.margin > 0.0
        assert 0.0 < diag.value["sigma"] < 1.0

    def test_bed_strain_positive_inside(self, sheared_report):
        diag = sheared_report.by_id("D-w-bed")
        assert diag.status == "pass"
        assert diag.value["end_values"] == [0.0, 0.0]
        assert diag.value["min"] > 0.0


class TestPositiveVorticityBranch:
    def test_gated_checks_not_applicable_and_nothing_fails(self):
        # gamma = +0.5 everywhere: gamma(0) > 0 removes the hypothesis of
        # the curvature coefficients, gamma > 0 that of the crest speed
        # minimum and the favorable vorticity of the 45 degree bound, at
        # every point of the branch
        vf = VorticityFunction.constant(0.5, m=M)
        grid = StripGrid(L, M, 32, 24, beta=0.5)
        branch = continue_branch(grid, vf, G, 12,
                                 lam_star=find_bifurcation(vf, G, L, M))
        assert len(branch.points) == 13
        lam_c = critical_lambda(vf, G)
        for pt in branch.points:
            rep = audit_wave(reconstruct(grid, vf, G, pt.h, pt.Q),
                             lam_c=lam_c)
            assert rep.summary["fail"] == 0, pt.index
            for diag_id, failed in (("D-slope", "gamma<=0"),
                                    ("D-ABC", "surface-gamma,gamma'<=0"),
                                    ("D-press-h", "gamma<=0")):
                diag = rep.by_id(diag_id)
                assert diag.status == "not-applicable", (pt.index, diag_id)
                assert diag.value["hypothesis"] == diag.margin == -0.5
                assert diag.value["failed"] == failed


class TestDiagnosticTable:
    def test_report_follows_the_table(self, sheared_report):
        ids = [row[0] for row in audit_module.DIAGNOSTICS]
        assert len(set(ids)) == len(ids)
        assert [d.id for d in sheared_report.diagnostics] == ids == ALL_IDS

    def test_every_listed_hypothesis_is_in_the_table(self):
        listed = {name for row in audit_module.DIAGNOSTICS for name in row[3]}
        assert listed <= set(audit_module.HYPOTHESES)

    def test_each_hypothesis_runs_once_per_wave(self, sheared_wave,
                                                sheared_report, monkeypatch):
        calls = []

        def counted(name, entry):
            return lambda a: calls.append(name) or entry(a)

        monkeypatch.setattr(audit_module, "HYPOTHESES", {
            name: counted(name, entry)
            for name, entry in audit_module.HYPOTHESES.items()})
        rep = audit_wave(sheared_wave)
        assert sorted(calls) == sorted(audit_module.HYPOTHESES)
        assert rep.as_json() == sheared_report.as_json()

    def test_gamma_is_sampled_once_per_wave(self, sheared_wave,
                                            sheared_report, monkeypatch):
        # gamma, gamma' and gamma'' on the psi nodes, gamma(0) and
        # gamma'(0): the hypotheses read the node samples
        vf = sheared_wave.vf
        lam_c = critical_lambda(vf, G)
        calls = []
        real = type(vf).gamma

        def counted(self, psi, order=0):
            calls.append(order)
            return real(self, psi, order)

        monkeypatch.setattr(type(vf), "gamma", counted)
        rep = audit_wave(sheared_wave, lam_c=lam_c)
        assert sorted(calls) == [0, 0, 1, 1, 2]
        assert rep.as_json() == sheared_report.as_json()

    def test_checks_do_not_depend_on_their_order(
            self, sheared_wave, sheared_report, monkeypatch):
        # no check reads what another one computed, so the reversed table
        # gives the same entries in reverse order
        monkeypatch.setattr(audit_module, "DIAGNOSTICS",
                            audit_module.DIAGNOSTICS[::-1])
        reverse = audit_wave(sheared_wave)
        assert [asdict(d) for d in reverse.diagnostics] == \
            [asdict(d) for d in sheared_report.diagnostics[::-1]]


class TestCrestRow:
    """D-crest reports a wave whose surface slope peaks at the first node
    off the crest as boundary, any other wave as pass, and a flat one as
    not-applicable."""

    @pytest.fixture(scope="class")
    def kinked_branch(self):
        # a coarse irrotational branch, which ends at its first kinked wave
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        br = continue_branch(grid, vf, G, 60)
        assert br.stop_reason == "crest-unresolved"
        return [reconstruct(grid, vf, G, pt.h, pt.Q) for pt in br.points[-2:]]

    def test_kinked_wave_is_boundary(self, kinked_branch):
        wf = kinked_branch[-1]
        diag = audit_wave(wf).by_id("D-crest")
        assert diag.status == "boundary"
        assert diag.value["reason"] == "crest unresolved on this grid"
        assert diag.value["steepest_node"] == 1
        assert diag.location == (float(wf.q[1]), 0.0)
        assert diag.margin == 0.0
        slope = np.max(np.abs(dq(wf.h[:, -1], wf.grid.wq1, "even")))
        assert diag.value["angle_deg"] == np.degrees(np.arctan(slope))

    def test_resolved_waves_pass(self, kinked_branch, moderate_report):
        for diag in (audit_wave(kinked_branch[0]).by_id("D-crest"),
                     moderate_report.by_id("D-crest")):
            assert diag.status == "pass"
            assert diag.value["reason"] is None
            assert diag.value["steepest_node"] > 1
            assert diag.margin == diag.value["steepest_node"] - 1

    def test_flat_wave_is_not_applicable(self, trivial_report):
        diag = trivial_report[1].by_id("D-crest")
        assert diag.status == "not-applicable"
        assert diag.value["failed"] == "not-flat"


class TestVerdictRule:
    @pytest.mark.parametrize("scale", [0.0, 0.5, -1.0, G, -40.0, 1e6])
    def test_band_edges(self, scale):
        band = _band(scale)
        assert band == 1e-12 * max(1.0, abs(scale))
        above, below = np.nextafter(band, np.inf), np.nextafter(-band, -np.inf)
        assert _strict(band, band) == _strict(-band, band) == "boundary"
        assert _strict(above, band) == "pass"
        assert _strict(below, band) == "fail"
        assert _nonstrict(0.0, band) == "pass"
        assert _nonstrict(-band, band) == "boundary"
        assert _nonstrict(below, band) == "fail"

    def test_criteria_are_judged_by_the_rule(self):
        # acceptance criterion 2's sweep, gamma = -0.05 ... -1.2
        for n in range(1, 25):
            vf = VorticityFunction.constant(-0.05 * n, m=M)
            for crit in (gamma_small_criterion(vf, G, L),
                         gamma_smallest_criterion(vf, G, L)):
                assert crit.margin == crit.rhs - crit.lhs
                assert crit.status == _strict(
                    crit.margin, _band(max(abs(crit.lhs), abs(crit.rhs))))


class TestResidualRefinement:
    def test_identity_residuals_second_order(self):
        vf = VorticityFunction.constant(-0.7, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        amp = 0.12
        ids = ("D-p1", "D-p2", "D-w-pde", "D-s-pde", "D-f", "D-alpha")
        norms = []
        for nq, npts in ((48, 36), (96, 72)):
            grid = StripGrid(L, M, nq, npts, beta=0.5)
            h0, Q0 = seed_wave(grid, vf, G, lam_star, amp)
            res = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                               amplitude_target=amp)
            wf = reconstruct(grid, vf, G, res.h, res.Q)
            rep = audit_wave(wf)
            row = {}
            for diag_id in ids:
                value = rep.by_id(diag_id).value
                if isinstance(value, dict):
                    value = value.get("residual",
                                      value.get("identity_residual"))
                row[diag_id] = value
            norms.append(row)
        for diag_id in ids:
            ratio = norms[0][diag_id] / norms[1][diag_id]
            assert 3.2 < ratio < 5.0, (diag_id, ratio)


class TestReportPlumbing:
    def test_json_schema(self, moderate_report, tmp_path):
        # the report as the CLI writes it: each entry is one Diagnostic's
        # fields, in strict JSON (no Infinity/NaN tokens)
        path = tmp_path / "report.json"
        write_json(path, moderate_report.as_json())

        def refuse(token):
            raise ValueError(token)
        doc = json.loads(path.read_text(), parse_constant=refuse)
        assert set(doc) == {"diagnostics", "summary"}
        assert set(doc["summary"]) == {"pass", "fail", "boundary", "na"}
        for entry in doc["diagnostics"]:
            assert set(entry) == {"id", "status", "value", "location",
                                  "margin", "paper_ref", "description",
                                  "tolerance"}
            assert isinstance(entry["description"], str)
            assert entry["description"]
            assert (entry["tolerance"] is None
                    or isinstance(entry["tolerance"], float))
            assert (entry["location"] is None
                    or [type(x) for x in entry["location"]] == [float] * 2)
        counts = doc["summary"]
        assert sum(counts.values()) == len(doc["diagnostics"])

    def test_entries_are_the_diagnostics_fields(self, moderate_report):
        assert moderate_report.as_json()["diagnostics"] == \
            [asdict(d) for d in moderate_report.diagnostics]

    def test_reports_deterministic(self, moderate_wave):
        a = json.dumps(audit_wave(moderate_wave).as_json(), sort_keys=True)
        b = json.dumps(audit_wave(moderate_wave).as_json(), sort_keys=True)
        assert a == b

    def test_tolerance_overrides_respected(self, moderate_wave,
                                           monkeypatch):
        monkeypatch.setattr(audit_module, "_RESIDUAL_SCALE", 1e6)
        loose = audit_wave(moderate_wave)
        for diag_id in ("D-w-pde", "D-s-pde", "D-p1", "D-p2"):
            assert loose.by_id(diag_id).status == "pass"
        monkeypatch.setattr(audit_module, "_RESIDUAL_SCALE", 1e-9)
        tight = audit_wave(moderate_wave)
        # Residual yardstick shrinks below truncation: inconclusive, but
        # never a failure.
        assert tight.by_id("D-p1").status == "boundary"
        assert tight.summary["fail"] == 0


class TestPressureOffsetInvariance:
    @settings(max_examples=20, deadline=None)
    @given(shift=st.floats(min_value=-1e5, max_value=1e5,
                           allow_nan=False, allow_infinity=False))
    def test_statuses_unchanged(self, moderate_wave, moderate_report, shift):
        shifted = copy.copy(moderate_wave)
        shifted.P = moderate_wave.P + shift
        rep = audit_wave(shifted)
        for before, after in zip(moderate_report.diagnostics,
                                 rep.diagnostics):
            assert before.status == after.status, before.id
