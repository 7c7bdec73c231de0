"""Solver tests: residual correctness, Jacobian exactness, Newton behavior,
and bifurcation detection against independent oracles.

The closed-form anchors used here:

* gamma = 0, uniform vertical grid, h = p + m: every second derivative in the
  interior equation vanishes and the surface row is algebraic, so the residual
  is zero up to roundoff and Newton accepts the input without a step.
* gamma = 0 dispersion: the mode equation phi'' = k^2 phi / lam with
  phi(-m) = 0 and phi'(0) = g lam^{-3/2} phi(0) has the classical root
  g tanh(k m / sqrt(lam)) = k lam.
* constant gamma: the same mode problem integrates numerically as an ODE, so
  a shooting method gives an oracle independent of the tridiagonal assembly.
"""

import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from vorwave import fd as fd_module
from vorwave import grid as grid_module
from vorwave import continuation, laminar, solver
from vorwave.continuation import continue_branch
from vorwave.errors import (BifurcationNotFoundError, InputError,
                            NoConvergenceError, NumericsError,
                            StagnationError)
from vorwave.fd import ColumnOps, dq
from vorwave.grid import StripGrid, stretched_nodes
from vorwave.laminar import critical_lambda, laminar_flow
from vorwave.solver import (amplitude, bifurcation_mode, crest_hp,
                            crest_kink, discrete_laminar, find_bifurcation,
                            jacobian_blocks, newton_solve, newton_tolerance,
                            pack_residual, residual_parts, scaled_dot,
                            seed_wave, solver_hp)
from vorwave.vorticity import VorticityFunction

G = 9.81
L = np.pi
M = 1.0


def residual_norm(grid, vf, g, h, Q):
    R, S = residual_parts(grid, vf, g, h, Q)
    return float(np.max(np.abs(pack_residual(R, S))))


class TestResidual:
    def test_exact_zero_for_linear_profile(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 16, 12, beta=0.0)
        h = np.tile(grid.p + M, (grid.nq, 1))
        R, S = residual_parts(grid, vf, G, h, 0.5 + G * M)
        assert np.max(np.abs(R)) < 1e-11
        assert np.max(np.abs(S)) < 1e-11

    def test_laminar_residual_second_order(self):
        vf = VorticityFunction.constant(-0.5, m=M)
        flow = laminar_flow(vf, 2.0, G)
        norms = []
        for npts in (17, 33, 65):
            grid = StripGrid(L, M, 6, npts, beta=0.5)
            h = np.tile(flow.height(grid.p), (grid.nq, 1))
            norms.append(residual_norm(grid, vf, G, h, flow.Q))
        orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
        assert np.all(orders > 1.7)
        assert np.all(orders < 2.4)

    def test_perturbation_response_is_linear(self):
        # away from the bifurcation point the linearization is invertible,
        # so the residual of laminar + eps*mode grows like eps, not eps^2
        vf = VorticityFunction.constant(-0.5, m=M)
        grid = StripGrid(L, M, 12, 20, beta=0.5)
        hcol, Q, _ = discrete_laminar(grid, vf, G, 1.5)
        base = np.tile(hcol, (grid.nq, 1))
        bump = np.cos(np.pi * grid.q / L)[:, None] * (grid.p + M)[None, :]
        norms = []
        for eps in (1e-6, 2e-6, 4e-6):
            norms.append(residual_norm(grid, vf, G, base + eps * bump, Q))
        ratios = np.array(norms[1:]) / np.array(norms[:-1])
        assert np.all(np.abs(ratios - 2.0) < 0.3)

    def test_stagnation_error_on_nonpositive_hp(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 8, 10, beta=0.0)
        h = np.tile(grid.p + M, (grid.nq, 1))
        h[:, -1] = h[:, -2] - 0.05
        with pytest.raises(StagnationError):
            residual_parts(grid, vf, G, h, 5.0)


class TestJacobian:
    @pytest.mark.parametrize("gamma", [0.0, -0.8])
    def test_matches_directional_finite_difference(self, gamma):
        vf = VorticityFunction.constant(gamma, m=M)
        uniform = StripGrid(L, M, 10, 14, beta=0.5)
        # the same grid with q nodes clustered toward the crest: a term of
        # the Jacobian that still assumes uniform q spacing fails here
        q = -L * stretched_nodes(1.0, uniform.nq, 0.6)[::-1]
        q[0] = 0.0
        stretched = StripGrid.from_nodes(q, uniform.p)
        for grid in (uniform, stretched):
            self._check_directional_derivatives(grid, vf)

    def test_follows_the_residuals_own_q_stencil(self, monkeypatch):
        # the Jacobian reads its stencils off the residual's functions, so
        # with dq replaced by another linear stencil it still
        # differentiates the residual
        monkeypatch.setattr(solver, "dq",
                            lambda F, w, parity: dq(F, 2.0 * w, parity))
        vf = VorticityFunction.constant(-0.8, m=M)
        self._check_directional_derivatives(StripGrid(L, M, 10, 14, beta=0.5),
                                            vf)

    @staticmethod
    def _check_directional_derivatives(grid, vf):
        lam = 2.5
        hcol, Q, _ = discrete_laminar(grid, vf, G, lam)
        h = np.tile(hcol, (grid.nq, 1))
        h += 0.02 * np.cos(np.pi * grid.q / L)[:, None] * (grid.p + M)[None, :]
        h[:, 0] = 0.0
        J, dF_dQ = jacobian_blocks(grid, vf, G, h, Q)
        rng = np.random.default_rng(7)
        for _ in range(3):
            dh = rng.standard_normal(h.shape)
            dh[:, 0] = 0.0
            dQ = float(rng.standard_normal())
            eps = 1e-7
            Fp = pack_residual(*residual_parts(grid, vf, G, h + eps * dh, Q + eps * dQ))
            Fm = pack_residual(*residual_parts(grid, vf, G, h - eps * dh, Q - eps * dQ))
            fd = (Fp - Fm) / (2.0 * eps)
            an = J @ dh[:, 1:].ravel() + dF_dQ * dQ
            scale = max(1.0, float(np.max(np.abs(an))))
            assert np.max(np.abs(fd - an)) / scale < 1e-6


class TestCrestKink:
    """crest_kink reads the surface row of h: a wave is kinked when its
    surface slope peaks at q-node 1, the first node off the crest."""

    @staticmethod
    def wave(eta):
        grid = StripGrid(L, M, 16, 8, beta=0.5)
        h = np.tile(grid.p + M, (grid.nq, 1))
        h[:, -1] += eta(grid.q)
        return grid, h

    def test_slope_peaking_at_the_first_node_off_the_crest(self):
        # a crest narrower than the q spacing
        grid, h = self.wave(lambda q: 0.3 * np.exp(-q / 0.1))
        kinked, node, slope = crest_kink(grid, h)
        assert (kinked, node) == (True, 1)
        assert slope == np.max(np.abs(dq(h[:, -1], grid.wq1, "even")))

    def test_slope_peaking_at_a_later_node(self):
        # a cosine's slope peaks halfway between crest and trough
        grid, h = self.wave(lambda q: 0.1 * np.cos(q))
        kinked, node, slope = crest_kink(grid, h)
        assert not kinked
        assert node in (7, 8)
        assert slope == pytest.approx(0.1, rel=0.02)

    def test_flat_surface_is_not_kinked(self):
        grid, h = self.wave(lambda q: 0.0 * q)
        assert crest_kink(grid, h) == (False, None, 0.0)


class TestNewton:
    def test_exact_root_accepted_without_a_step(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 12, 10, beta=0.0)
        h = np.tile(grid.p + M, (grid.nq, 1))
        res = newton_solve(grid, vf, G, h, 0.5 + G * M, mode="fixed_q")
        assert res.iterations == 0
        assert np.array_equal(res.h, h)

    def test_laminar_seed_converges_fast_and_stays_laminar(self):
        vf = VorticityFunction.constant(-1.0, m=M)
        flow = laminar_flow(vf, 1.0, G)
        grid = StripGrid(L, M, 10, 24, beta=0.5)
        h0 = np.tile(flow.height(grid.p), (grid.nq, 1))
        res = newton_solve(grid, vf, G, h0, flow.Q, mode="fixed_q")
        assert 1 <= res.iterations <= 5
        # the closure Q = Q0 gives every Newton step dQ = 0 exactly
        assert res.Q == flow.Q
        # the solution is a column profile: no q-dependence appears
        assert np.max(np.std(res.h, axis=0)) < 1e-12
        hcol, _, _ = discrete_laminar(grid, vf, G, 1.0)
        assert np.max(np.abs(res.h[0] - hcol)) < 1e-10

    def test_seeded_mode_gives_wave_with_positive_v(self):
        vf = VorticityFunction.constant(0.0, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 1e-3)
        res = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                           amplitude_target=1e-3)
        assert abs(amplitude(res.h) - 1e-3) < 1e-9
        hq = dq(res.h, grid.wq1, "even")
        # v = -h_q/h_p > 0 strictly inside the half period, above the bed
        assert np.all(hq[1:-1, 1:] < 0.0)
        assert np.all(hq[0] == 0.0)
        assert np.all(hq[-1] == 0.0)

    def test_absurd_head_fails_to_converge(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 8, 10, beta=0.5)
        h = np.tile(laminar_flow(vf, 4.0, G).height(grid.p), (grid.nq, 1))
        with pytest.raises(NoConvergenceError):
            newton_solve(grid, vf, G, h, -40.0, mode="fixed_q", max_iter=4)

    def test_initial_stagnation_propagates(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 8, 10, beta=0.0)
        h = np.tile(grid.p + M, (grid.nq, 1))
        h[:, -1] = h[:, -2] - 0.05
        with pytest.raises(StagnationError):
            newton_solve(grid, vf, G, h, 5.0, mode="fixed_q")

    def test_mode_argument_validation(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 8, 10, beta=0.0)
        h = np.tile(grid.p + M, (grid.nq, 1))
        with pytest.raises(InputError):
            newton_solve(grid, vf, G, h, 5.0, mode="fixed_amplitude")
        with pytest.raises(InputError):
            newton_solve(grid, vf, G, h, 5.0, mode="arclength")
        with pytest.raises(InputError):
            newton_solve(grid, vf, G, h, 5.0, mode="fixed_crest_speed")
        with pytest.raises(InputError):
            newton_solve(grid, vf, G, h, 5.0, mode="downhill")

    def test_arclength_step_satisfies_closure(self):
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 16, 16, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 0.02)
        first = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                             amplitude_target=0.02)
        hcol, Qt, _ = discrete_laminar(grid, vf, G, lam_star)
        t_h = first.h - np.tile(hcol, (grid.nq, 1))
        t_Q = first.Q - Qt
        n = t_h[:, 1:].size
        nrm = np.sqrt(float(np.sum(t_h[:, 1:] ** 2)) / n + t_Q ** 2)
        t_h /= nrm
        t_Q /= nrm
        ds = 0.03
        res = newton_solve(grid, vf, G, first.h + ds * t_h, first.Q + ds * t_Q,
                           mode="arclength", base=(first.h, first.Q),
                           tangent=(t_h, t_Q), ds=ds)
        assert amplitude(res.h) > amplitude(first.h)
        closure = (float((res.h - first.h)[:, 1:].ravel()
                         @ t_h[:, 1:].ravel()) / n
                   + (res.Q - first.Q) * t_Q)
        assert abs(closure - ds) < 1e-9

    @staticmethod
    def _wave(gamma=-0.3, a=0.05):
        """(grid, vf, solved wave) at amplitude a on a 24x20 grid."""
        vf = VorticityFunction.constant(gamma, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, find_bifurcation(vf, G, L, M), a)
        return grid, vf, newton_solve(grid, vf, G, h0, Q0,
                                      mode="fixed_amplitude",
                                      amplitude_target=a)

    def test_fixed_crest_speed_holds_the_crest_h_p(self):
        # from a wave, a slower crest: h_p at the crest's surface node
        # raised by 5%, which steepens the wave
        grid, vf, first = self._wave()
        target = 1.05 * crest_hp(grid, first.h)
        res = newton_solve(grid, vf, G, first.h, first.Q,
                           mode="fixed_crest_speed", crest_hp_target=target)
        assert res.iterations >= 1
        assert abs(crest_hp(grid, res.h) - target) < newton_tolerance(res.Q)
        # the surface h_p that the residual and the trough criterion read
        assert crest_hp(grid, res.h) == solver_hp(grid, res.h)[0, -1]
        assert amplitude(res.h) > amplitude(first.h)
        assert residual_norm(grid, vf, G, res.h, res.Q) < \
            newton_tolerance(res.Q)

    def test_crest_speed_border_row_is_its_equations_derivative(self):
        grid, vf, first = self._wave()
        target = 1.05 * crest_hp(grid, first.h)
        extra, row = solver._solve_mode(grid, "fixed_crest_speed", first.Q,
                                        None, target, None, None, None)
        n = grid.nq * (grid.npts - 1)
        assert row.shape == (n + 1,)
        # only the crest column's unknowns enter; not Q
        assert np.all(row[grid.npts - 1:] == 0.0)
        assert np.count_nonzero(row) == ColumnOps.WIDTH
        rng = np.random.default_rng(11)
        for _ in range(3):
            dh = rng.standard_normal(first.h.shape)
            dh[:, 0] = 0.0
            dQ = float(rng.standard_normal())
            eps = 1e-6
            fd = (extra(first.h + eps * dh, first.Q + eps * dQ)
                  - extra(first.h - eps * dh, first.Q - eps * dQ)) / (2 * eps)
            an = row @ np.append(dh[:, 1:].ravel(), dQ)
            assert abs(fd - an) < 1e-7 * max(1.0, abs(an))

    def test_stalled_arclength_attempt_gives_up_early(self, monkeypatch):
        # A step of 0.04 from the last point of this branch, which sits near
        # the maximum of Q, overshoots: Newton stalls from the start, and the
        # contraction limit gives up within a few iterations.
        vf = VorticityFunction.constant(-0.3, m=M)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        prev, cur = continue_branch(grid, vf, G, 10).points[-2:]
        t_h, t_Q = cur.h - prev.h, cur.Q - prev.Q
        nrm = np.sqrt(float(np.sum(t_h[:, 1:] ** 2)) / t_h[:, 1:].size
                      + t_Q ** 2)
        t_h, t_Q = t_h / nrm, t_Q / nrm
        ds = 0.04
        factorizations = []
        real_splu = solver.splu

        def counting_splu(*args, **kwargs):
            factorizations.append(1)
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", counting_splu)
        with pytest.raises(NoConvergenceError) as err:
            newton_solve(grid, vf, G, cur.h + ds * t_h, cur.Q + ds * t_Q,
                         mode="arclength", base=(cur.h, cur.Q),
                         tangent=(t_h, t_Q), ds=ds, max_contraction=0.9)
        found = re.search(r"iteration (\d+) cut the residual only from "
                          r"(\S+) to (\S+) ", str(err.value))
        assert found is not None
        iteration = int(found.group(1))
        old, new = float(found.group(2)), float(found.group(3))
        assert 1 <= iteration <= 3
        assert len(factorizations) == iteration
        assert 0.9 * old < new < old


def chain_rule_sum(grid):
    """coefficients -> J_hh as a COO matrix: the triplets of the chain-rule
    maps, each weighted by its coefficients on its rows."""
    maps = list(solver._chain_rule_maps(grid))
    rows, cols, values = (np.concatenate(parts) for parts in zip(*maps))
    n = grid.nq * (grid.npts - 1)

    def coo_jacobian(coefficients):
        weights = np.concatenate([c[r] for c, (r, _, _) in
                                  zip(coefficients, maps)])
        return sparse.coo_matrix((weights * values, (rows, cols)),
                                 shape=(n, n))

    return coo_jacobian


def bmat_solve(grid, factored):
    """Stand-in for LinearSolver.__call__ that assembles every matrix
    afresh and factors each, as each Newton iteration did before the pattern
    and the factorization were kept: J_hh from the COO triplets of the
    chain-rule maps weighted by their coefficients, the border column and
    row added by sparse.bmat from dense blocks (which drops their zeros),
    then splu with its default COLAMD ordering. Appends 1 to `factored` per
    factorization."""
    coo_jacobian = chain_rule_sum(grid)
    n = grid.nq * (grid.npts - 1)
    dF_dQ = np.zeros(n)
    dF_dQ[solver._surface_rows(grid)] = -1.0

    def solve(self, coefficients, border_values, rhs):
        J = coo_jacobian(coefficients).tocsc()
        row = border_values[None, :]
        J = sparse.bmat([[J, dF_dQ[:, None]], [row[:, :n], row[:, n:]]],
                        format="csc")
        self.factorizations += 1
        factored.append(1)
        return splu(J).solve(rhs)

    return solve


def recording_splu(monkeypatch):
    """Patch solver.splu to record (permc_spec, n, nnz) of every call."""
    calls = []
    real_splu = solver.splu

    def record(A, *args, **kwargs):
        calls.append((kwargs.get("permc_spec"), A.shape[0], A.nnz))
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(solver, "splu", record)
    return calls


class TestNewtonMatrixPattern:
    def test_branch_matches_fresh_factorizations(self, monkeypatch):
        # Every matrix is filled into the one structure, ordered by nested
        # dissection, and factored with the natural ordering. Through the
        # maximum of Q, where the attempts that fail are many, the branch
        # must follow the one of a fresh bmat assembly and COLAMD
        # factorization: the same steps, to rounding in the pivot order.
        # The branch is followed past its crest kink, through Q_max.
        monkeypatch.setattr(continuation, "crest_kink",
                            lambda grid, h: (False, None, 0.0))
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        calls = recording_splu(monkeypatch)
        kept = continue_branch(StripGrid(L, M, 24, 20, beta=0.5), vf, G, 20,
                               lam_star=lam_star)
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        iterations = []  # one fresh factorization per Newton iteration
        monkeypatch.setattr(solver.LinearSolver, "__call__",
                            bmat_solve(grid, iterations))
        fresh = continue_branch(grid, vf, G, 20, lam_star=lam_star)

        Qs = [pt.Q for pt in kept.points]
        assert 0 < int(np.argmax(Qs)) < len(Qs) - 1
        assert kept.stop_reason == fresh.stop_reason
        assert len(kept.points) == len(fresh.points)
        for a, b in zip(kept.points, fresh.points):
            assert (a.ds, a.newton_iterations) == (b.ds, b.newton_iterations)
            assert np.max(np.abs(a.h - b.h)) <= 1e-9
            assert abs(a.Q - b.Q) <= 1e-9
        # the trivial point is not solved, and the accepted steps hand their
        # LU on, so the branch factors fewer times than it has points; with
        # the failed attempts it factors fewer times than the fresh branch;
        # SuperLU never computes an ordering of its own
        assert kept.points[0].factorizations == 0
        assert all(pt.factorizations <= pt.newton_iterations
                   for pt in kept.points)
        assert sum(pt.factorizations for pt in kept.points) < \
            len(kept.points)
        assert 0 < len(calls) < len(iterations)
        assert all(c[0] == "NATURAL" for c in calls)

    def test_tangent_with_an_exact_zero_entry(self, monkeypatch):
        # bmat drops the zero from the tangent row; the pattern keeps it as
        # an explicit zero, so the matrix keeps its structure and the solve
        # converges to the same wave, with a fresh linear solver as with
        # one that has solved with a tangent without zeros.
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 16, 16, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 0.02)
        first = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                             amplitude_target=0.02)
        hcol, Qt, _ = discrete_laminar(grid, vf, G, lam_star)
        t_h = first.h - np.tile(hcol, (grid.nq, 1))
        t_Q = first.Q - Qt
        nrm = np.sqrt(float(np.sum(t_h[:, 1:] ** 2)) / t_h[:, 1:].size
                      + t_Q ** 2)
        t_h, t_Q = t_h / nrm, t_Q / nrm
        zeroed = t_h.copy()
        zeroed[3, 5] = 0.0
        ds = 0.03

        def arclength(tangent_h, linear_solver=None):
            return newton_solve(grid, vf, G, first.h + ds * tangent_h,
                                first.Q + ds * t_Q, mode="arclength",
                                base=(first.h, first.Q),
                                tangent=(tangent_h, t_Q), ds=ds,
                                linear_solver=linear_solver)

        calls = recording_splu(monkeypatch)
        fresh = arclength(zeroed)
        used = solver.LinearSolver(grid)
        arclength(t_h, used)
        solved_before = arclength(zeroed, used)
        assert len({nnz for _, _, nnz in calls}) == 1
        assert all(c[0] == "NATURAL" for c in calls)

        monkeypatch.setattr(solver.LinearSolver, "__call__",
                            bmat_solve(grid, []))
        reference = arclength(zeroed)
        n = t_h[:, 1:].size
        for res in (fresh, solved_before):
            closure = (float((res.h - first.h)[:, 1:].ravel()
                             @ zeroed[:, 1:].ravel()) / n
                       + (res.Q - first.Q) * t_Q)
            assert abs(closure - ds) < 1e-9
            assert np.max(np.abs(res.h - reference.h)) < 1e-9
            assert abs(res.Q - reference.Q) < 1e-9

    def test_each_grid_gets_its_own_pattern(self, monkeypatch):
        # a linear solver builds the structure of its grid, which its
        # solves in every mode fill: here a fixed_amplitude and an
        # arclength solve
        vf = VorticityFunction.constant(0.0, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        shapes = [(12, 14, 0.5), (16, 12, 0.5), (12, 14, 0.3)]
        grids = [StripGrid(L, M, nq, npts, beta=b) for nq, npts, b in shapes]
        seeds = [seed_wave(grid, vf, G, lam_star, 1e-3) for grid in grids]

        def solve(grid, seed, linear_solver=None):
            return newton_solve(grid, vf, G, *seed, mode="fixed_amplitude",
                                amplitude_target=1e-3,
                                linear_solver=linear_solver)

        alone = [solve(StripGrid(L, M, nq, npts, beta=b), seed)
                 for (nq, npts, b), seed in zip(shapes, seeds)]
        calls = recording_splu(monkeypatch)
        for grid, seed, ref in zip(grids + grids, seeds + seeds,
                                   alone + alone):
            start = len(calls)
            res = solve(grid, seed)
            assert np.array_equal(res.h, ref.h) and res.Q == ref.Q
            assert 1 <= res.factorizations == len(calls) - start
            assert res.factorizations <= res.iterations
        assert all(c[0] == "NATURAL" for c in calls)
        for grid in grids:
            n = grid.nq * (grid.npts - 1)
            matrix = solver.LinearSolver(grid).matrix
            assert matrix.indptr.size == n + 2
            assert np.array_equal(np.sort(matrix.order), np.arange(n + 1))
        # an arclength step with the first grid's solver fills the
        # structure of its fixed_amplitude solve
        grid, seed = grids[0], seeds[0]
        linear = solver.LinearSolver(grid)
        matrix = linear.matrix
        first = solve(grid, seed, linear)
        hcol, Qt, _ = discrete_laminar(grid, vf, G, lam_star)
        t_h = first.h - np.tile(hcol, (grid.nq, 1))
        t_Q = first.Q - Qt
        nrm = np.sqrt(scaled_dot(t_h, t_Q, t_h, t_Q))
        t_h, t_Q = t_h / nrm, t_Q / nrm
        ds = 1e-3
        step = newton_solve(grid, vf, G, first.h + ds * t_h,
                            first.Q + ds * t_Q, mode="arclength",
                            base=(first.h, first.Q), tangent=(t_h, t_Q),
                            ds=ds, linear_solver=linear)
        assert step.iterations >= 1
        assert linear.matrix is matrix
        assert linear.factorizations == \
            first.factorizations + step.factorizations

    def test_a_bare_solve_leaves_the_grid_alone(self):
        # newton_solve without a linear solver, and jacobian_blocks, build
        # the structure they use and keep nothing: the grid holds the same
        # attributes, the same objects, as before, and the result holds no
        # linear solver
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 16, 12, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 0.02)
        before = dict(vars(grid))
        res = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                           amplitude_target=0.02)
        jacobian_blocks(grid, vf, G, res.h, res.Q)
        assert vars(grid).keys() == before.keys()
        assert all(vars(grid)[key] is value for key, value in before.items())
        assert set(vars(res)) == {"h", "Q", "iterations", "residual_norm",
                                  "factorizations", "linear_iterations"}

    def test_stored_matrix_is_jacobian_blocks_bordered(self, monkeypatch):
        # the matrix of a solve's first system, its stored order undone, is
        # the sum of the weighted chain-rule maps, built apart from the
        # stored structure, and jacobian_blocks' J_hh, bordered by dF/dQ
        # and the solve mode's row, which keeps its zeros as stored entries
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 16, 12, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 0.02)
        factored = []
        real_splu = solver.splu

        def recording_splu(A, **kwargs):
            factored.append(A)
            return real_splu(A, **kwargs)

        monkeypatch.setattr(solver, "splu", recording_splu)
        newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                     amplitude_target=0.02)
        order = solver._NewtonMatrix(grid).order
        A = np.empty(factored[0].shape)
        A[np.ix_(order, order)] = factored[0].toarray()
        J, dF_dQ = jacobian_blocks(grid, vf, G, h0, Q0)
        n = J.shape[0]
        coefficients = solver._chain_rule_coefficients(
            grid, vf.gamma(-grid.p)[1:-1], G, solver._derivatives(grid, h0))
        summed = chain_rule_sum(grid)(coefficients).toarray()
        assert np.array_equal(A[:n, :n], summed)
        assert np.array_equal(A[:n, :n], J.toarray())
        assert np.array_equal(A[:n, n], dF_dQ)
        assert np.array_equal(np.flatnonzero(dF_dQ), solver._surface_rows(grid))
        assert np.all(dF_dQ[solver._surface_rows(grid)] == -1.0)
        row = np.zeros(n + 1)
        row[grid.npts - 2], row[n - 1] = 1.0, -1.0  # crest minus trough
        assert np.array_equal(A[n], row)
        assert np.diff(factored[0].tocsr().indptr)[-1] == n + 1

    def test_jacobian_blocks_after_a_solve_on_the_grid(self):
        # the Newton matrix is stored in dissection order, with a border;
        # jacobian_blocks returns J_hh in the order of pack_residual, the
        # same before a solve on the grid as after it
        vf = VorticityFunction.constant(-1.0, m=M)
        grid = StripGrid(L, M, 10, 24, beta=0.5)
        h0 = np.tile(laminar_flow(vf, 1.0, G).height(grid.p), (grid.nq, 1))
        before = jacobian_blocks(grid, vf, G, h0, 3.0)[0]
        newton_solve(grid, vf, G, h0, laminar_flow(vf, 1.0, G).Q)
        after = jacobian_blocks(grid, vf, G, h0, 3.0)[0]
        for a, b in ((after.indptr, before.indptr),
                     (after.indices, before.indices), (after.data, before.data)):
            assert np.array_equal(a, b)

    def test_dissection_fills_less_than_colamd(self, monkeypatch):
        # nnz(L) + nnz(U) is a count, the same on every run: the stored
        # order must fill at most 0.8 times what COLAMD fills on the same
        # bordered arclength matrix
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 64, 48, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 0.05)
        first = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                             amplitude_target=0.05)
        hcol, Qt, _ = discrete_laminar(grid, vf, G, lam_star)
        t_h = first.h - np.tile(hcol, (grid.nq, 1))
        t_Q = first.Q - Qt
        nrm = np.sqrt(float(np.sum(t_h[:, 1:] ** 2)) / t_h[:, 1:].size
                      + t_Q ** 2)
        t_h, t_Q = t_h / nrm, t_Q / nrm
        matrices = []
        real_splu = solver.splu

        def keep_matrix(A, **kwargs):
            matrices.append(A.copy())
            return real_splu(A, **kwargs)

        monkeypatch.setattr(solver, "splu", keep_matrix)
        ds = 0.02
        newton_solve(grid, vf, G, first.h + ds * t_h, first.Q + ds * t_Q,
                     mode="arclength", base=(first.h, first.Q),
                     tangent=(t_h, t_Q), ds=ds)
        A = matrices[0]
        assert A.shape[0] == grid.nq * (grid.npts - 1) + 1

        def fill(lu):
            return lu.L.nnz + lu.U.nnz

        stored = fill(real_splu(A, permc_spec="NATURAL"))
        assert stored == fill(real_splu(A, permc_spec="NATURAL"))
        assert stored <= 0.8 * fill(real_splu(A))

    def test_threads_solving_on_one_grid(self):
        # each solve builds its own structure and LU and stores nothing on
        # the grid, so threads that solve on one grid at once get the
        # serial solution
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        seed = seed_wave(StripGrid(L, M, 24, 20, beta=0.5), vf, G, lam_star,
                         0.02)

        def solve(grid):
            return newton_solve(grid, vf, G, *seed, mode="fixed_amplitude",
                                amplitude_target=0.02)

        serial = solve(StripGrid(L, M, 24, 20, beta=0.5))
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        threads = 4  # more than the cores of a CI runner
        start = threading.Barrier(threads, timeout=60)

        def solve_together(_):
            start.wait()
            return solve(grid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(solve_together, range(threads),
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == threads
        for res in results:
            assert np.array_equal(res.h, serial.h) and res.Q == serial.Q
            assert res.iterations == serial.iterations


class TestKeptFactorization:
    """A solve factors its first Newton system; each later one goes to
    GMRES, preconditioned by the solve's last LU, whose answer counts only
    on its true residual; a miss factors the system."""

    @pytest.fixture(scope="class")
    def problem(self):
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        seeds = {a: seed_wave(StripGrid(L, M, 24, 20, beta=0.5), vf, G,
                              lam_star, a) for a in (0.05, 0.1, 0.15)}
        return vf, seeds

    @staticmethod
    def solve(vf, seeds, a, grid=None, linear_solver=None):
        if grid is None:
            grid = StripGrid(L, M, 24, 20, beta=0.5)
        return newton_solve(grid, vf, G, *seeds[a], mode="fixed_amplitude",
                            amplitude_target=a, linear_solver=linear_solver)

    def test_gmres_solves_the_later_systems(self, problem):
        vf, seeds = problem
        res = self.solve(vf, seeds, 0.1)
        assert res.iterations >= 3
        assert 1 <= res.factorizations < res.iterations
        assert res.linear_iterations > 0

    def test_a_wrong_answer_reported_as_converged_is_refactored(
            self, problem, monkeypatch):
        vf, seeds = problem
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        calls = recording_splu(monkeypatch)
        monkeypatch.setattr(solver, "_right_gmres",
                            lambda A, b, *args: (np.ones_like(b), 0))
        res = self.solve(vf, seeds, 0.1, grid)
        assert res.factorizations == res.iterations == len(calls)
        assert all(c[0] == "NATURAL" for c in calls)
        monkeypatch.setattr(solver.LinearSolver, "__call__",
                            bmat_solve(grid, []))
        fresh = self.solve(vf, seeds, 0.1, grid)
        assert res.iterations == fresh.iterations
        assert np.max(np.abs(res.h - fresh.h)) <= 1e-9
        assert abs(res.Q - fresh.Q) <= 1e-9

    def test_failing_gmres_factors_every_system(self, problem, monkeypatch):
        vf, seeds = problem
        kept = self.solve(vf, seeds, 0.1)

        def failing_gmres(A, b, *args):
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(solver, "_right_gmres", failing_gmres)
        res = self.solve(vf, seeds, 0.1)
        assert res.factorizations == res.iterations == kept.iterations
        assert res.linear_iterations == 0
        assert np.max(np.abs(res.h - kept.h)) <= 1e-9
        assert abs(res.Q - kept.Q) <= 1e-9

    def test_a_long_gmres_solve_drops_the_lu(self, problem, monkeypatch):
        # with no GMRES iteration allowed before the LU is dropped, GMRES
        # solves every other system and the rest are factored
        vf, seeds = problem
        kept = self.solve(vf, seeds, 0.1)
        monkeypatch.setattr(solver, "LU_REFRESH_ITER", 0)
        res = self.solve(vf, seeds, 0.1)
        assert res.iterations == kept.iterations
        assert res.factorizations == (res.iterations + 1) // 2
        assert np.max(np.abs(res.h - kept.h)) <= 1e-9

    def test_right_gmres_minimizes_the_residual_on_its_krylov_space(self):
        rng = np.random.default_rng(0)
        n = 60
        A = 4.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        # capped at 3 iterations: the least-squares answer on
        # span(b, A b, A^2 b)
        x, k = solver._right_gmres(A, b, lambda v: v, 1e-14, 3)
        K = np.column_stack([b, A @ b, A @ A @ b])
        y = np.linalg.lstsq(A @ K, b, rcond=None)[0]
        assert k == 3
        assert np.max(np.abs(x - K @ y)) <= 1e-12
        # right preconditioning by an inverse of a nearby matrix converges
        # in a few iterations, and the stopping estimate is the true
        # residual
        P = np.linalg.inv(A + 0.01 * rng.standard_normal((n, n)))
        x, k = solver._right_gmres(A, b, lambda v: P @ v, 1e-10, 20)
        assert k < 10
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        x, k = solver._right_gmres(A, np.zeros(n), lambda v: v, 1e-6, 5)
        assert k == 0 and not np.any(x)

    def test_a_handed_solver_serves_the_next_call(self, problem):
        # a linear solver carries its LU from one call into the next; each
        # result counts its own call's work, the solver the total
        vf, seeds = problem
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        linear = solver.LinearSolver(grid)
        first = self.solve(vf, seeds, 0.05, grid, linear)
        second = self.solve(vf, seeds, 0.1, grid, linear)
        fresh = self.solve(vf, seeds, 0.1)
        assert first.factorizations >= 1 and second.factorizations == 0
        assert second.linear_iterations > 0
        assert (linear.factorizations, linear.linear_iterations) == (
            first.factorizations,
            first.linear_iterations + second.linear_iterations)
        assert second.iterations == fresh.iterations
        assert np.max(np.abs(second.h - fresh.h)) <= 1e-9
        assert abs(second.Q - fresh.Q) <= 1e-9

    def test_splu_never_runs_beside_a_held_lu(self, problem, monkeypatch):
        # with every GMRES answer wrong, each system after the first is
        # factored while the solver holds the last LU; the solver drops it
        # first, so at most one LU per solver is alive
        vf, seeds = problem
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        linear = solver.LinearSolver(grid)
        real_splu = solver.splu

        def checking_splu(*args, **kwargs):
            assert linear.lu is None
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", checking_splu)
        monkeypatch.setattr(solver, "_right_gmres",
                            lambda A, b, *args: (np.ones_like(b), 0))
        res = self.solve(vf, seeds, 0.1, grid, linear)
        assert res.factorizations == res.iterations >= 2
        assert linear.factorizations == res.factorizations

    def test_a_used_grid_solves_as_a_fresh_one(self, problem):
        # nothing of a factorization outlives its solve: after solves in
        # other modes and at other points on the grid, a solve gives the
        # bits it gives on a fresh grid
        vf, seeds = problem
        grid = StripGrid(L, M, 24, 20, beta=0.5)
        flow = laminar_flow(vf, 1.0, G)
        newton_solve(grid, vf, G, np.tile(flow.height(grid.p), (grid.nq, 1)),
                     flow.Q + 0.01)
        for a in (0.05, 0.15):
            self.solve(vf, seeds, a, grid)
        used = self.solve(vf, seeds, 0.1, grid)
        fresh = self.solve(vf, seeds, 0.1)
        assert np.array_equal(used.h, fresh.h) and used.Q == fresh.Q
        assert (used.iterations, used.factorizations,
                used.linear_iterations) == (fresh.iterations,
                                            fresh.factorizations,
                                            fresh.linear_iterations)


class TestDiscreteLaminar:
    def test_head_is_exact_and_heights_second_order(self):
        vf = VorticityFunction.constant(-1.0, m=M)
        flow = laminar_flow(vf, 1.0, G)
        errs = []
        for npts in (17, 33):
            grid = StripGrid(L, M, 6, npts, beta=0.5)
            hcol, Q, _ = discrete_laminar(grid, vf, G, 1.0)
            assert Q == pytest.approx(flow.Q, rel=1e-12)
            errs.append(np.max(np.abs(hcol - flow.height(grid.p))))
        assert 3.0 < errs[0] / errs[1] < 5.5

    @pytest.mark.parametrize("gamma", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_tiled_column_solves_the_strip(self, gamma):
        vf = VorticityFunction.constant(gamma, m=M)
        lam = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 6, 21, beta=0.5)
        hcol, Q, iterations = discrete_laminar(grid, vf, G, lam)
        assert iterations <= 3
        assert hcol[0] == 0.0
        h = np.tile(hcol, (grid.nq, 1))
        assert residual_norm(grid, vf, G, h, Q) < newton_tolerance(Q)

    def test_one_depth_quadrature(self, monkeypatch):
        # Newton starts from a trapezoid sweep; only the head Q integrates
        calls = []
        real_quad = laminar._quad_checked

        def counting_quad(*args):
            calls.append(args[-1])
            return real_quad(*args)

        monkeypatch.setattr(laminar, "_quad_checked", counting_quad)
        vf = VorticityFunction.constant(-0.3, m=M)
        discrete_laminar(StripGrid(L, M, 8, 48, beta=0.5), vf, G, 4.0)
        assert len(calls) <= 1


class TestBifurcation:
    def test_irrotational_matches_dispersion_relation(self):
        vf = VorticityFunction.constant(0.0, m=M)
        k = np.pi / L
        lam_ref = brentq(lambda lam: G * np.tanh(k * M / np.sqrt(lam)) - k * lam,
                         1e-6, critical_lambda(vf, G), xtol=1e-14)
        lam_star = find_bifurcation(vf, G, L, M)
        assert lam_star == pytest.approx(lam_ref, rel=1e-6)
        assert lam_star < critical_lambda(vf, G)

    def test_constant_vorticity_matches_shooting_oracle(self):
        gamma = -0.7
        vf = VorticityFunction.constant(gamma, m=M)
        k = np.pi / L
        lam_c = critical_lambda(vf, G)

        def shoot(lam):
            def rhs(p, y):
                w = lam + 2.0 * gamma * p
                return [y[1], -3.0 * gamma / w * y[1] + k ** 2 / w * y[0]]
            sol = solve_ivp(rhs, (-M, 0.0), [0.0, 1.0], rtol=1e-11,
                            atol=1e-13, dense_output=False)
            phi, dphi = sol.y[0, -1], sol.y[1, -1]
            return dphi - G * lam ** (-1.5) * phi

        lams = np.linspace(0.05, lam_c - 1e-9, 60)
        vals = np.array([shoot(x) for x in lams])
        flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        assert flips.size == 1
        lam_ref = brentq(shoot, lams[flips[0]], lams[flips[0] + 1], xtol=1e-12)
        lam_star = find_bifurcation(vf, G, L, M)
        assert lam_star == pytest.approx(lam_ref, rel=1e-5)

    def test_long_waves_approach_critical_lambda(self):
        vf = VorticityFunction.constant(0.0, m=M)
        lam_c = critical_lambda(vf, G)
        stars = [find_bifurcation(vf, G, Lx, M) for Lx in (L, 2 * L, 4 * L)]
        assert stars[0] < stars[1] < stars[2] < lam_c

    def test_short_waves_keep_positive_lambda(self):
        vf = VorticityFunction.constant(0.0, m=M)
        lam_small = find_bifurcation(vf, G, 0.3, M)
        assert 0.0 < lam_small < find_bifurcation(vf, G, L, M)

    def test_range_without_sign_change_raises(self):
        # the search ends at lam_c; one below lam* ~ 4.37 leaves no root
        vf = VorticityFunction.constant(0.0, m=M)
        with pytest.raises(BifurcationNotFoundError):
            find_bifurcation(vf, G, L, M, lam_c=4.3)

    def test_surface_mode_against_dense_algebra(self):
        sub = np.array([0.5, 2.0, 0.7])
        diag = np.array([-3.0, -2.5, -4.0, -3.5])
        sup = np.array([2.0, 1.0, 1.5, 1.0])
        row = np.array([0.4, -1.2, 1.5])
        # the interior rows over the surface row, as discrete_laminar
        # assembles its Jacobian
        dense = (np.diag(np.append(diag, 0.0))
                 + np.diag(np.append(sub, 0.0), -1) + np.diag(sup, 1))
        dense[-1, -row.size:] = row
        phi, r = solver._surface_mode(sub, diag, sup,
                                      lambda w: w[-row.size:] @ row)
        assert phi[0] == 0.0 and phi[-1] == 1.0
        np.testing.assert_allclose(dense @ phi[1:],
                                   np.append(np.zeros(4), r), rtol=0,
                                   atol=1e-14)
        assert r == pytest.approx(np.linalg.det(dense)
                                  / np.linalg.det(dense[:-1, :-1]), rel=1e-12)

    def test_surface_residual_is_smooth_at_lambda_star(self):
        # at gamma 0 the interior solve's near-surface differences are
        # smooth to rounding, and the surface window, applied to them in
        # difference form, keeps r(lam) linear to rounding within 2e-11
        # of lam*: no cancellation between the window's large weights
        vf = VorticityFunction.constant(0.0, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        operator = solver._transverse_operator(vf, G, StripGrid(
            L, M, 4, solver.BIFURCATION_NODES, 0.5))
        dlam = lam_star * np.linspace(-2e-11, 2e-11, 101)
        r = np.array([solver._surface_mode(*operator(lam_star + d))[1]
                      for d in dlam])
        line = np.polyval(np.polyfit(dlam, r, 1), dlam)
        assert np.max(np.abs(r - line)) < 1e-12

    def test_singular_rows_above_the_surface_are_a_numerics_error(self):
        with pytest.raises(NumericsError, match="singular"):
            solver._surface_mode(np.ones(1), np.ones(2), np.ones(2),
                                 lambda w: w[-1])

    @pytest.mark.parametrize("gamma", [0.0, -0.3, -0.7])
    def test_lambda_star_is_stable_to_one_ulp_in_the_weights(
            self, gamma, monkeypatch):
        # find_bifurcation's column is a StripGrid, which takes its interior
        # weights from three_point_weights
        vf = VorticityFunction.constant(gamma, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        real = grid_module.three_point_weights

        def nudged(hm, hp):
            w1, w2 = real(hm, hp)
            return w1, w2 * (1.0 + 2.0 ** -52)

        monkeypatch.setattr(grid_module, "three_point_weights", nudged)
        assert find_bifurcation(vf, G, L, M) == pytest.approx(lam_star,
                                                              rel=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, -0.3, -0.7])
    def test_lambda_star_is_stable_to_one_ulp_in_the_surface_row(
            self, gamma, monkeypatch):
        # the surface row's h_p weights are the last row of the grid's
        # ColumnOps, which derives its difference-form weights from them as
        # it is built; so the ulp goes into the weights fd_weights returns,
        # and must first be seen to move the surface h_p of a fixed column
        vf = VorticityFunction.constant(gamma, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        real = fd_module.fd_weights

        def nudged(nodes, x0, order):
            w = real(nodes, x0, order)
            w[-1] *= 1.0 + 2.0 ** -52
            return w

        def surface_hp():
            grid = StripGrid(L, M, 4, solver.BIFURCATION_NODES, 0.5)
            return solver_hp(grid, np.sinh(np.pi / L * (grid.p + M)))[-1]

        unchanged = surface_hp()
        monkeypatch.setattr(fd_module, "fd_weights", nudged)
        assert surface_hp() != unchanged
        assert find_bifurcation(vf, G, L, M) == pytest.approx(lam_star,
                                                              rel=1e-10)

    def test_newton_surface_row_is_the_mode_operators(self):
        # on a laminar column the Newton Jacobian's surface rows are the
        # column linearization's: -w_p(0) / h_p^3 over the surface window
        # of the column, plus g at its surface node, and nothing else
        vf = VorticityFunction.constant(-0.3, m=M)
        grid = StripGrid(L, M, 8, 24, beta=0.5)
        hcol, Q, _ = discrete_laminar(grid, vf, G, 4.0)
        J, _ = jacobian_blocks(grid, vf, G, np.tile(hcol, (grid.nq, 1)), Q)
        *_, surface = solver._mode_operator(
            grid, G, solver_hp(grid, hcol) ** 2, vf.gamma(-grid.p)[1:-1],
            np.pi / L)
        row = surface(np.eye(grid.npts))[1:]  # over the nodes above the bed
        assert np.count_nonzero(row) == ColumnOps.WIDTH
        J = J.toarray()
        n = grid.npts - 1
        for i in range(grid.nq):
            expected = np.zeros(J.shape[1])
            expected[i * n:(i + 1) * n] = row
            surface_row = (i + 1) * n - 1
            np.testing.assert_allclose(J[surface_row], expected, rtol=1e-14,
                                       atol=0)

    def test_mode_shape_matches_closed_form(self):
        vf = VorticityFunction.constant(0.0, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 8, 40, beta=0.5)
        phi = bifurcation_mode(grid, vf, G, lam_star)
        ref = np.sinh(np.pi / L * (grid.p + M) / np.sqrt(lam_star))
        ref *= 0.5 / ref[-1]
        assert np.max(np.abs(phi - ref)) < 1e-5
        assert phi[0] == 0.0
        assert phi[-1] == pytest.approx(0.5)
        assert np.all(np.diff(phi) > -1e-12)

    def test_seed_amplitude_is_the_requested_one(self):
        vf = VorticityFunction.constant(-0.3, m=M)
        lam_star = find_bifurcation(vf, G, L, M)
        grid = StripGrid(L, M, 12, 14, beta=0.5)
        h0, Q0 = seed_wave(grid, vf, G, lam_star, 0.015)
        assert amplitude(h0) == pytest.approx(0.015, rel=1e-12)
        assert np.all(h0[:, 0] == 0.0)
        assert Q0 > 0.0
