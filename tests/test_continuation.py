"""Branch continuation: stop rules, monotonicity, tangency, serialization."""

import base64
import json

import numpy as np
import pytest

from vorwave import continuation, solver
from vorwave.audit import audit_wave
from vorwave.continuation import (Branch, continue_branch, load_point,
                                  save_branch, trough_criterion_value)
from vorwave.errors import InputError, NoConvergenceError, SolverError
from vorwave.fd import dq
from vorwave.fields import reconstruct
from vorwave.grid import StripGrid
from vorwave.solver import (crest_hp, crest_kink, find_bifurcation,
                            solver_hp)
from vorwave.vorticity import VorticityFunction

G = 9.81
L = np.pi
M = 1.0


@pytest.fixture(scope="module")
def setup_irrotational():
    vf = VorticityFunction.constant(0.0, m=M)
    grid = StripGrid(L, M, 32, 24, beta=0.5)
    lam_star = find_bifurcation(vf, G, L, M)
    return grid, vf, lam_star


@pytest.fixture(scope="module")
def branch_irrotational(setup_irrotational):
    grid, vf, lam_star = setup_irrotational
    return continue_branch(grid, vf, G, 8, lam_star=lam_star)


@pytest.fixture(scope="module")
def branch_sheared():
    vf = VorticityFunction.constant(-0.3, m=M)
    return continue_branch(StripGrid(L, M, 24, 20, beta=0.5), vf, G, 4)


def never_kinked(monkeypatch):
    """Let no wave end a branch at its crest kink, so that a test of
    another stop rule or step policy follows its branch past the kink."""
    monkeypatch.setattr(continuation, "crest_kink",
                        lambda grid, h: (False, None, 0.0))


class TestStopRules:
    def test_zero_steps_keeps_only_the_trivial_wave(self, setup_irrotational):
        grid, vf, lam_star = setup_irrotational
        br = continue_branch(grid, vf, G, 0, lam_star=lam_star)
        assert len(br.points) == 1
        assert br.points[0].amplitude == 0.0
        assert br.stop_reason == "max-steps"
        # the trivial wave is q-independent
        assert np.max(np.std(br.points[0].h, axis=0)) < 1e-12

    def test_max_steps(self, branch_irrotational):
        assert branch_irrotational.stop_reason == "max-steps"
        assert len(branch_irrotational.points) == 9

    def test_impossible_trough_margin_stops_at_first_point(
            self, setup_irrotational):
        # gamma = 0 makes the trough value identically g, so a margin just
        # under g fires as soon as a nontrivial wave exists
        grid, vf, lam_star = setup_irrotational
        br = continue_branch(grid, vf, G, 10, lam_star=lam_star,
                             trough_margin=G - 1e-9)
        assert br.stop_reason == "trough-criterion"
        assert len(br.points) == 2
        assert br.points[1].amplitude > 0.0

    def test_generous_stagnation_threshold_stops_early_and_clean(
            self, setup_irrotational):
        grid, vf, lam_star = setup_irrotational
        eps = 0.5 * np.sqrt(lam_star)
        br = continue_branch(grid, vf, G, 40, lam_star=lam_star,
                             eps_stag=eps)
        assert br.stop_reason == "near-stagnation"
        assert len(br.points) < 41
        for pt in br.points:
            assert np.max(solver_hp(grid, pt.h)) < 1.0 / eps

    def test_amplitude_reversal_ends_on_the_last_good_point(
            self, monkeypatch):
        # on this coarse grid the irrotational branch's amplitude turns back
        # at min|u| near 0.49, long before any other stop rule but the
        # crest kink fires; with the kink never seen, it ends there
        never_kinked(monkeypatch)
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        br = continue_branch(grid, vf, G, 60)
        assert br.stop_reason == "amplitude-reversal"
        assert 2 < len(br.points) < 61
        assert np.all(np.diff([pt.amplitude for pt in br.points]) > 0.0)

    def test_crest_unresolved_ends_on_the_first_kinked_point(self):
        # the same branch ends at its first wave whose surface slope peaks
        # at the first node off the crest; that wave is kept
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        br = continue_branch(grid, vf, G, 60)
        assert br.stop_reason == "crest-unresolved"
        assert len(br.points) == 13
        assert np.all(np.diff([pt.amplitude for pt in br.points]) > 0.0)
        kinks = [crest_kink(grid, pt.h)[0] for pt in br.points]
        assert kinks[-1] and not any(kinks[:-1])

    def test_negative_steps_rejected(self, setup_irrotational):
        grid, vf, lam_star = setup_irrotational
        from vorwave.errors import NumericsError
        with pytest.raises(NumericsError):
            continue_branch(grid, vf, G, -1, lam_star=lam_star)

    def test_grid_from_nodes_needs_lam_star(self, setup_irrotational):
        # such a grid has no stretching to place find_bifurcation's nodes by
        grid, vf, _ = setup_irrotational
        nodes = StripGrid.from_nodes(grid.q, grid.p)
        with pytest.raises(InputError, match="needs lam_star"):
            continue_branch(nodes, vf, G, 1)


class TestBranchShape:
    def test_amplitudes_strictly_increase(self, branch_irrotational):
        amps = [pt.amplitude for pt in branch_irrotational.points]
        assert np.all(np.diff(amps) > 0.0)
        assert amps[0] == 0.0

    def test_first_point_is_nearly_the_linear_mode(self, branch_irrotational):
        grid = branch_irrotational.grid
        eta = branch_irrotational.points[1].h[:, -1]
        c = np.corrcoef(eta - eta.mean(), np.cos(np.pi * grid.q / L))[0, 1]
        assert c >= 0.999

    def test_even_symmetry_holds_exactly(self, branch_irrotational):
        grid = branch_irrotational.grid
        for pt in branch_irrotational.points:
            hq = dq(pt.h, grid.wq1, "even")
            assert np.all(hq[0] == 0.0)
            assert np.all(hq[-1] == 0.0)

    def test_crest_sits_at_q_zero(self, branch_irrotational):
        for pt in branch_irrotational.points[1:]:
            eta = pt.h[:, -1]
            assert np.argmax(eta) == 0
            assert np.argmin(eta) == eta.size - 1

    def test_head_increases_with_amplitude(self, branch_irrotational):
        Qs = np.array([pt.Q for pt in branch_irrotational.points])
        assert np.all(np.diff(Qs) > 0.0)

    def test_trough_value_positive_on_weak_vorticity_branch(
            self, branch_sheared):
        br = branch_sheared
        assert br.stop_reason == "max-steps"
        for pt in br.points:
            assert trough_criterion_value(br.grid, br.vf, G, pt.h) > 0.0

    def test_trough_value_is_the_audits_to_the_bit(self, branch_sheared):
        # the continuation's stop rule and D-trough read one surface h_p
        br = branch_sheared
        for pt in br.points:
            report = audit_wave(reconstruct(br.grid, br.vf, G, pt.h, pt.Q))
            assert (trough_criterion_value(br.grid, br.vf, G, pt.h)
                    == report.by_id("D-trough").value["vortex_force"])


class TestEarlyNewtonFailure:
    def test_branch_through_the_q_maximum_is_unchanged(self, monkeypatch):
        # Abandoning stalled Newton attempts early must leave every accepted
        # point as the patient solver (50 iterations, no contraction test)
        # finds it, while solving fewer linear systems with an LU. A stalled
        # attempt's extra iterations go mostly to GMRES on an LU it holds,
        # so they cost LU solves (one per direct solve and one per GMRES
        # iteration) rather than factorizations. The branch is followed
        # past its crest kink, through Q_max. Its one failed attempt is the
        # arclength step at the Q-fold that hands it to crest-speed steps:
        # given up early it costs 17 LU solves against 84, so the branch
        # takes 310 against 377 (18% fewer), and the test asks for 10%.
        never_kinked(monkeypatch)
        vf = VorticityFunction.constant(-0.3, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        lam_star = find_bifurcation(vf, G, L, M)
        lu_solves = []
        real_splu = solver.splu

        class CountingLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                lu_solves.append(1)
                return self.lu.solve(b)

        monkeypatch.setattr(solver, "splu", lambda *args, **kwargs:
                            CountingLU(real_splu(*args, **kwargs)))

        def run():
            start = len(lu_solves)
            br = continue_branch(grid, vf, G, 20, lam_star=lam_star)
            return br, len(lu_solves) - start

        fast, fast_solves = run()
        real_newton = continuation.newton_solve

        def patient_newton(*args, **kwargs):
            kwargs.update(max_iter=50, max_contraction=None)
            return real_newton(*args, **kwargs)

        monkeypatch.setattr(continuation, "newton_solve", patient_newton)
        slow, slow_solves = run()

        Qs = [pt.Q for pt in fast.points]
        assert 0 < int(np.argmax(Qs)) < len(Qs) - 1
        assert fast.stop_reason == slow.stop_reason
        assert len(fast.points) == len(slow.points)
        for a, b in zip(fast.points, slow.points):
            assert np.array_equal(a.h, b.h)
            assert (a.Q, a.ds, a.newton_iterations) == \
                (b.Q, b.ds, b.newton_iterations)
        assert 0 < fast_solves <= 0.9 * slow_solves


class TestStepControl:
    """After an attempt that converges in at most 4 iterations the step
    grows by REGROWTH, up to DS_MAX for arclength steps. The first failed
    arclength attempt hands the branch to crest-speed steps, which start at
    CREST_STEP0, are halved on a failure and grow with no cap."""

    @pytest.mark.parametrize("failures", [1, 3])
    def test_a_collapsed_step_regrows_by_two_up_to_ds0(
            self, setup_irrotational, monkeypatch, failures):
        # named for the arclength collapse it once checked, which crest-speed
        # steps replaced: a failed first arclength attempt hands the branch
        # over to crest-speed steps at CREST_STEP0, and with failures = 3
        # the first two crest-speed attempts fail too, each halving the step
        grid, vf, lam_star = setup_irrotational
        attempts = []
        real_newton = continuation.newton_solve

        def failing(*args, **kwargs):
            attempts.append(kwargs)
            if 2 <= len(attempts) <= 1 + failures:
                raise NoConvergenceError("attempt forced to fail")
            return real_newton(*args, **kwargs)

        monkeypatch.setattr(continuation, "newton_solve", failing)
        br = continue_branch(grid, vf, G, 5, lam_star=lam_star)
        assert br.stop_reason == "max-steps"
        assert len(attempts) == 5 + failures
        assert [a["mode"] for a in attempts] == \
            ["fixed_amplitude", "arclength"] + ["fixed_crest_speed"] * (
                3 + failures)
        assert [pt.step for pt in br.points] == \
            [None, "amplitude"] + ["crest-speed"] * 4
        first = continuation.CREST_STEP0 / 2 ** (failures - 1)
        assert br.points[2].ds == first
        targets = [a.get("crest_hp_target") for a in attempts]
        for prev, pt in zip(br.points[1:], br.points[2:]):
            # each point's solve aimed at the crest h_p before it times
            # (1 + ds), and holds it
            target = crest_hp(grid, prev.h) * (1.0 + pt.ds)
            assert target in targets
            assert abs(crest_hp(grid, pt.h) - target) < \
                solver.newton_tolerance(pt.Q)
        grown = 0
        for prev, pt in zip(br.points[2:], br.points[3:]):
            fast = prev.newton_iterations <= 4
            assert pt.ds == (prev.ds * continuation.REGROWTH if fast
                             else prev.ds)
            grown += fast
        assert grown >= 2

    def test_a_branch_without_failed_attempts_keeps_its_steps(
            self, branch_irrotational):
        # a branch whose attempts all converge never switches: after the
        # departure every point is an arclength step, ds = DS0 * 1.3^k
        # capped at DS_MAX, to the bit
        points = branch_irrotational.points
        assert [pt.step for pt in points] == \
            [None, "amplitude"] + ["arclength"] * (len(points) - 2)
        expected = continuation.DS0
        for pt in points[1:]:
            assert pt.ds == expected
            if pt.newton_iterations <= 4:
                expected = min(expected * continuation.REGROWTH,
                               continuation.DS_MAX)


class TestHandedLU:
    """A branch builds one linear solver, which serves every attempt: each
    starts from the LU the last accepted step left, and a failed attempt's
    LU is dropped."""

    @staticmethod
    def record(monkeypatch, fail=()):
        """Wrap splu and continuation's newton_solve: one row per attempt,
        (mode, its linear solver, whether that held an LU when the attempt
        began, splu calls during the attempt, whether it failed). Attempts
        whose number is in `fail` run to the end and are then reported as
        failed."""
        factored, attempts = [], []
        real_splu = solver.splu
        real_newton = continuation.newton_solve

        def counting_splu(*args, **kwargs):
            factored.append(1)
            return real_splu(*args, **kwargs)

        def recording_newton(*args, **kwargs):
            linear = kwargs["linear_solver"]
            start = len(factored)
            row = [kwargs["mode"], linear, linear.lu is not None]
            attempts.append(row)
            try:
                res = real_newton(*args, **kwargs)
            except SolverError:
                row += [len(factored) - start, True]
                raise
            row += [len(factored) - start, len(attempts) - 1 in fail]
            if row[-1]:
                raise NoConvergenceError("attempt forced to fail")
            return res

        monkeypatch.setattr(solver, "splu", counting_splu)
        monkeypatch.setattr(continuation, "newton_solve", recording_newton)
        return attempts

    def test_an_accepted_step_hands_its_lu_to_the_next(
            self, setup_irrotational, monkeypatch):
        grid, vf, lam_star = setup_irrotational
        attempts = self.record(monkeypatch)
        br = continue_branch(grid, vf, G, 8, lam_star=lam_star)
        assert len(attempts) == len(br.points) - 1  # no attempt failed
        departure, *steps = attempts
        # the departure starts with no LU; each arclength step, the first
        # one included, starts with the LU of the step before it, held by
        # the branch's one linear solver
        linear = departure[1]
        assert isinstance(linear, solver.LinearSolver)
        assert departure[0] == "fixed_amplitude" and not departure[2]
        assert departure[3] >= 1
        for step in steps:
            assert step[0] == "arclength" and step[1] is linear and step[2]
        assert sum(row[3] for row in attempts) < len(attempts)
        assert [row[3] for row in attempts] == \
            [pt.factorizations for pt in br.points[1:]]
        # the solver totals what its points report
        assert linear.factorizations == sum(row[3] for row in attempts)
        assert linear.linear_iterations == \
            sum(pt.linear_iterations for pt in br.points)

    def test_a_failed_attempt_hands_on_no_lu(self, setup_irrotational,
                                             monkeypatch):
        # the fourth attempt starts with the LU the third one left,
        # converges, and is reported as failed: its retry starts with no
        # LU, factors, and its LU serves the next step
        grid, vf, lam_star = setup_irrotational
        attempts = self.record(monkeypatch, fail=(3,))
        br = continue_branch(grid, vf, G, 5, lam_star=lam_star)
        failed, retry, after = attempts[3:6]
        assert failed[2] and failed[4]
        assert not retry[2] and retry[3] >= 1
        assert br.points[4].factorizations == retry[3]
        assert after[2]
        assert all(row[1] is attempts[0][1] for row in attempts)

    def test_every_attempt_gets_the_branch_solver(self, monkeypatch):
        # through the maximum of Q, where Newton attempts fail on their
        # own: every attempt of the branch gets the one linear solver, and
        # each retry after a failed attempt starts with no LU and so
        # factors its first system
        vf = VorticityFunction.constant(-0.3, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        lam_star = find_bifurcation(vf, G, L, M)
        attempts = self.record(monkeypatch)
        continue_branch(grid, vf, G, 20, lam_star=lam_star)
        retries = [after for before, after in zip(attempts, attempts[1:])
                   if before[4]]
        assert retries
        assert all(not row[2] and row[3] >= 1 for row in retries)
        assert {id(row[1]) for row in attempts} == {id(attempts[0][1])}


class TestDeparture:
    def test_mode_shape_is_computed_once_per_branch(self, setup_irrotational,
                                                    monkeypatch):
        # the first departure attempt fails and is retried at half the step;
        # the retry reuses the mode shape
        grid, vf, lam_star = setup_irrotational
        modes, attempts = [], []
        real_mode = continuation.bifurcation_mode
        real_newton = continuation.newton_solve

        def counting_mode(*args):
            modes.append(1)
            return real_mode(*args)

        def failing_once(*args, **kwargs):
            attempts.append(kwargs["mode"])
            if len(attempts) == 1:
                raise NoConvergenceError("first attempt fails")
            return real_newton(*args, **kwargs)

        monkeypatch.setattr(continuation, "bifurcation_mode", counting_mode)
        monkeypatch.setattr(continuation, "newton_solve", failing_once)
        br = continue_branch(grid, vf, G, 2, lam_star=lam_star)
        assert attempts[:2] == ["fixed_amplitude", "fixed_amplitude"]
        assert br.points[1].ds == 0.0025
        assert len(modes) == 1


class TestSerialization:
    def test_round_trip_preserves_heights_exactly(self, branch_irrotational,
                                                  tmp_path):
        path = save_branch(branch_irrotational, tmp_path / "out")
        assert path.name == "branch.json"
        grid2, vf2, g2, h2, Q2 = load_point(tmp_path / "out" / "point_0002.json")
        pt = branch_irrotational.points[2]
        assert np.array_equal(h2, pt.h)
        assert Q2 == pt.Q
        assert g2 == G
        assert grid2.nq == branch_irrotational.grid.nq
        assert vf2.kind == "constant"

    def test_tabulated_shear_survives_save_and_reload(self, tmp_path):
        psi = np.linspace(0.0, M, 25)
        vf = VorticityFunction.tabulated(psi, -0.3 - 0.05 * psi)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        br = continue_branch(grid, vf, G, 2)
        save_branch(br, tmp_path / "tab")
        _, vf2, _, h2, Q2 = load_point(tmp_path / "tab" / "point_0002.json")
        assert np.array_equal(h2, br.points[2].h)
        assert Q2 == br.points[2].Q
        assert vf2.kind == "tabulated"
        probe = np.linspace(0.0, M, 50)
        np.testing.assert_allclose(vf2.gamma(probe), vf.gamma(probe),
                                   rtol=0, atol=1e-14)

    def test_saved_index_matches_points(self, branch_irrotational, tmp_path):
        save_branch(branch_irrotational, tmp_path / "b")
        with open(tmp_path / "b" / "branch.json") as fh:
            data = json.load(fh)
        assert data["stop_reason"] == "max-steps"
        assert data["lambda_star"] == branch_irrotational.lam_star
        assert len(data["points"]) == len(branch_irrotational.points)
        amps = [row["amplitude"] for row in data["points"]]
        assert amps == [pt.amplitude for pt in branch_irrotational.points]
        files = sorted(p.name for p in (tmp_path / "b").glob("point_*.json"))
        assert files == [row["file"] for row in data["points"]]

    def test_index_records_each_points_step_kind(self, setup_irrotational,
                                                 tmp_path, monkeypatch):
        # ds changes its unit where the branch turns to crest-speed steps,
        # so each row names the kind of step that found its point
        grid, vf, lam_star = setup_irrotational
        real_newton = continuation.newton_solve
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise NoConvergenceError("attempt forced to fail")
            return real_newton(*args, **kwargs)

        monkeypatch.setattr(continuation, "newton_solve", failing)
        br = continue_branch(grid, vf, G, 5, lam_star=lam_star)
        save_branch(br, tmp_path / "s")
        rows = json.loads((tmp_path / "s" / "branch.json").read_text())[
            "points"]
        assert [row["step"] for row in rows] == \
            [None, "amplitude", "arclength", "arclength", "crest-speed",
             "crest-speed"]
        assert [row["ds"] for row in rows] == [pt.ds for pt in br.points]
        assert rows[4]["ds"] == continuation.CREST_STEP0

    def test_identical_branches_serialize_identically(self, setup_irrotational,
                                                      tmp_path):
        grid, vf, lam_star = setup_irrotational
        b1 = continue_branch(grid, vf, G, 2, lam_star=lam_star)
        b2 = continue_branch(grid, vf, G, 2, lam_star=lam_star)
        save_branch(b1, tmp_path / "r1")
        save_branch(b2, tmp_path / "r2")
        for name in ("branch.json", "point_0000.json", "point_0002.json"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b

    def test_point_files_are_write_json_of_their_payload(
            self, branch_irrotational, tmp_path):
        # h is stored as base64 of its raw little-endian float64 bytes, and
        # load_point gives back every bit, -0.0 and the last ulp included
        br = branch_irrotational
        save_branch(br, tmp_path / "b")
        grid = br.grid
        for pt in br.points:
            payload = {
                "L": grid.L, "m": grid.m, "nq": grid.nq, "npts": grid.npts,
                "beta": grid.beta, "g": br.g, "vorticity": br.vf.to_config(),
                "index": pt.index, "Q": pt.Q, "amplitude": pt.amplitude,
                "h": base64.b64encode(
                    pt.h.astype("<f8").tobytes()).decode("ascii"),
            }
            name = continuation.point_filename(pt.index)
            continuation.write_json(tmp_path / "expected.json", payload)
            path = tmp_path / "b" / name
            assert path.read_bytes() == \
                (tmp_path / "expected.json").read_bytes()
            _, _, _, h, Q = load_point(path)
            assert h.shape == pt.h.shape
            assert np.array_equal(h.view(np.uint64), pt.h.view(np.uint64))
            assert Q == pt.Q

    def test_point_files_hold_h_near_its_raw_size(self, branch_irrotational,
                                                  tmp_path):
        # base64 of the raw bytes is 4/3 of 8 bytes per height; a decimal
        # encoding of the same heights takes about three times that
        br = branch_irrotational
        save_branch(br, tmp_path / "b")
        raw = 8 * br.grid.nq * br.grid.npts
        for path in (tmp_path / "b").glob("point_*.json"):
            assert path.stat().st_size <= 4 * raw / 3 + 2048

    def test_write_json_writes_the_bytes_of_json_dump(
            self, branch_irrotational, tmp_path):
        # one write of json.dumps gives the bytes that json.dump writes
        # token by token, for an audit report and for a point file
        br = branch_irrotational
        pt = br.points[2]
        report = audit_wave(reconstruct(br.grid, br.vf, br.g, pt.h,
                                        pt.Q)).as_json()
        save_branch(br, tmp_path / "b")
        with open(tmp_path / "b" / "point_0002.json") as fh:
            point = json.load(fh)
        for payload in (report, point):
            continuation.write_json(tmp_path / "one.json", payload)
            with open(tmp_path / "tokens.json", "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
                fh.write("\n")
            assert (tmp_path / "one.json").read_bytes() == \
                (tmp_path / "tokens.json").read_bytes()

    def test_write_json_writes_non_finite_numbers_as_null(self, tmp_path):
        continuation.write_json(tmp_path / "x.json", {
            "inf": float("inf"), "nan": np.float64("nan"),
            "row": (np.int64(2), -np.inf, np.float64(0.5), np.bool_(True))})
        assert json.loads((tmp_path / "x.json").read_text()) == {
            "inf": None, "nan": None, "row": [2, None, 0.5, True]}

    def test_a_grid_given_by_its_nodes_is_refused_before_writing(
            self, setup_irrotational, tmp_path):
        # a point file rebuilds the parametric grid from its sizes and beta,
        # so a branch on given nodes would be stored unreadable
        grid, vf, lam_star = setup_irrotational
        nodes = StripGrid.from_nodes(grid.q, grid.p)
        br = continue_branch(nodes, vf, G, 1, lam_star=lam_star)
        with pytest.raises(InputError, match="nodes"):
            save_branch(br, tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_index_records_the_solve_counters(self, branch_irrotational,
                                              tmp_path):
        save_branch(branch_irrotational, tmp_path / "c")
        with open(tmp_path / "c" / "branch.json") as fh:
            rows = json.load(fh)["points"]
        for row, pt in zip(rows, branch_irrotational.points):
            assert row["factorizations"] == pt.factorizations
            assert row["linear_iterations"] == pt.linear_iterations
        trivial, *solved = branch_irrotational.points
        assert (trivial.factorizations, trivial.linear_iterations) == (0, 0)
        for pt in solved:
            assert 0 <= pt.factorizations <= pt.newton_iterations
        # each accepted step hands its LU to the next, so the branch
        # factors fewer times than it has points
        assert sum(pt.factorizations for pt in solved) < \
            len(branch_irrotational.points)
        assert 2 * sum(pt.factorizations for pt in solved) <= \
            sum(pt.newton_iterations for pt in solved)
