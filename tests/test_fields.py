"""Field reconstruction tests.

Laminar flows provide exact references: v and eta vanish, the pressure is
hydrostatic, and the vorticity equals gamma along the profile. Solved waves
are checked against the structural identities (surface pressure, kinematic
condition, incompressibility, momentum balance) with refinement studies where
the identity only holds to truncation order.
"""

import numpy as np
import pytest

from vorwave.errors import InputError, StagnationError
from vorwave.fd import dq
from vorwave.fields import CSV_COLUMNS, WaveField, reconstruct
from vorwave.grid import StripGrid
from vorwave.laminar import laminar_flow
from vorwave.solver import find_bifurcation, newton_solve, seed_wave
from vorwave.vorticity import VorticityFunction

G = 9.81
L = np.pi
M = 1.0


def laminar_field(gamma, lam, npts=201, nq=8):
    vf = VorticityFunction.constant(gamma, m=M)
    grid = StripGrid(L, M, nq, npts, beta=0.5)
    flow = laminar_flow(vf, lam, G)
    h = np.tile(flow.height(grid.p), (grid.nq, 1))
    return grid, reconstruct(grid, vf, G, h, flow.Q)


def solve_wave(gamma, amp, nq, npts, lam_star=None):
    vf = VorticityFunction.constant(gamma, m=M)
    if lam_star is None:
        lam_star = find_bifurcation(vf, G, L, M)
    grid = StripGrid(L, M, nq, npts, beta=0.5)
    h0, Q0 = seed_wave(grid, vf, G, lam_star, amp)
    res = newton_solve(grid, vf, G, h0, Q0, mode="fixed_amplitude",
                       amplitude_target=amp)
    return grid, reconstruct(grid, vf, G, res.h, res.Q)


@pytest.fixture(scope="module")
def lam_star_irrotational():
    return find_bifurcation(VorticityFunction.constant(0.0, m=M), G, L, M)


@pytest.fixture(scope="module")
def wave(lam_star_irrotational):
    return solve_wave(0.0, 0.05, 32, 24, lam_star_irrotational)


class TestLaminar:
    def test_flat_flow_structure(self):
        grid, wf = laminar_field(-1.0, 1.0)
        assert np.all(wf.v == 0.0)
        assert np.max(np.abs(wf.eta)) < 1e-12
        np.testing.assert_allclose(wf.P, -G * wf.y, rtol=0, atol=1e-8)
        assert np.all(wf.u < 0.0)
        # x-derivatives of a q-independent flow vanish identically
        for arr in (wf.ux, wf.vx, wf.uxx, wf.uxy):
            assert np.all(arr == 0.0)

    def test_vorticity_tracks_gamma(self):
        _, wf = laminar_field(-1.0, 1.0, npts=501)
        assert np.max(np.abs(wf.omega - (-1.0))) < 1e-8

    def test_surface_trace_constants(self):
        _, wf = laminar_field(-1.0, 1.0, npts=501)
        assert wf.u[0, -1] == pytest.approx(-1.0, abs=1e-9)   # -sqrt(lam)
        assert np.max(np.abs(np.diff(wf.u[:, -1]))) < 1e-12
        for arr in (wf.v, wf.ux, wf.vx, wf.uxx, wf.uxy):
            assert np.all(arr[:, -1] == 0.0)
        # u_y(0) = -gamma(0) along a laminar profile
        np.testing.assert_allclose(wf.uy[:, -1], 1.0, rtol=0, atol=1e-8)

    def test_stream_function_consistency(self):
        _, wf = laminar_field(-0.4, 2.0)
        psi_x, psi_y = wf.grad(wf.psi, "even")
        np.testing.assert_allclose(psi_y, wf.u, rtol=0, atol=1e-11)
        assert np.max(np.abs(psi_x + wf.v)) == 0.0


class TestSolvedWave:
    def test_surface_pressure_guard(self, wave):
        _, wf = wave
        assert np.max(np.abs(wf.P[:, -1])) <= 1e-9 * max(1.0, abs(wf.Q))

    def test_kinematic_condition_exact(self, wave):
        grid, wf = wave
        eta_x = dq(wf.eta, grid.wq1, "even")
        assert np.max(np.abs(wf.v[:, -1] - eta_x * wf.u[:, -1])) < 1e-14

    def test_eta_has_zero_mean(self, wave):
        grid, wf = wave
        assert abs(np.trapezoid(wf.eta, x=wf.q)) < 1e-8 * grid.L

    def test_velocity_signs(self, wave):
        _, wf = wave
        assert np.all(wf.u < 0.0)
        assert np.all(wf.v[0] == 0.0)
        assert np.all(wf.v[-1] == 0.0)
        assert np.all(wf.v[:, 0] == 0.0)
        assert np.all(wf.v[1:-1, 1:] > 0.0)

    def test_incompressibility_and_momentum_second_order(
            self, lam_star_irrotational):
        div_norms, mom_norms, deltas = [], [], []
        for nq, npts in ((32, 24), (64, 48), (128, 96)):
            grid, wf = solve_wave(0.0, 0.05, nq, npts, lam_star_irrotational)
            e1, e2 = wf.euler_residuals()
            div_norms.append(np.max(np.abs(wf.divergence())))
            mom_norms.append(max(np.max(np.abs(e1)), np.max(np.abs(e2))))
            deltas.append(grid.delta)
        for norms in (div_norms, mom_norms):
            orders = np.log(np.array(norms[:-1]) / np.array(norms[1:])) \
                / np.log(np.array(deltas[:-1]) / np.array(deltas[1:]))
            assert np.all(orders > 1.7), norms
            assert np.all(orders < 2.4), norms
        # stays an order of magnitude under the audit's residual budget
        assert mom_norms[-1] < 10.0 * 10.0 * deltas[-1] ** 2

    def test_traces_converge_under_refinement(self, lam_star_irrotational):
        # Grids must nest (nq - 1 doubling) so fine.q[::2] lands exactly on
        # the coarse q nodes; otherwise the comparison below measures the
        # node displacement, not the discretization error.
        surface_u = []
        for nq, npts in ((17, 13), (33, 25), (65, 49)):
            _, wf = solve_wave(0.0, 0.05, nq, npts, lam_star_irrotational)
            surface_u.append(wf.u[:, -1])
        d1 = np.max(np.abs(surface_u[1][::2] - surface_u[0]))
        d2 = np.max(np.abs(surface_u[2][::2] - surface_u[1]))
        assert 2.5 < d1 / d2 < 6.5

    def test_vortical_wave_omega_matches_gamma(self):
        _, wf = solve_wave(-0.7, 0.04, 24, 40)
        gamma_nodes = np.broadcast_to(
            wf.vf.gamma(-wf.p)[None, :], wf.omega.shape)
        assert np.max(np.abs(wf.omega - gamma_nodes)) < 5e-3
        assert np.max(np.abs(wf.omega - gamma_nodes)) < 20.0 * 0.06 ** 2


class TestValidation:
    def test_wrong_shape_rejected(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 8, 10, beta=0.0)
        with pytest.raises(InputError):
            reconstruct(grid, vf, G, np.zeros((3, 3)), 1.0)

    def test_stagnation_rejected(self):
        vf = VorticityFunction.constant(0.0, m=M)
        grid = StripGrid(L, M, 8, 10, beta=0.0)
        h = np.tile(grid.p + M, (grid.nq, 1))
        h[:, -1] = h[:, -2] - 0.01
        with pytest.raises(StagnationError):
            reconstruct(grid, vf, G, h, 1.0)

    def test_bad_parity_name(self, wave):
        _, wf = wave
        with pytest.raises(InputError):
            wf.grad(wf.u, "sideways")


class TestCsv:
    def test_round_trip_is_exact(self, wave, tmp_path):
        _, wf = wave
        path = tmp_path / "field.csv"
        wf.to_csv(path)
        back = WaveField.from_csv(path, wf.vf)
        assert back.vf is wf.vf
        for name in ("u", "v", "P", "psi", "omega", "ux", "uy", "vx", "vy",
                     "uxx", "uxy"):
            assert np.array_equal(getattr(back, name), getattr(wf, name)), name
        # h is not stored directly: the file carries y = h - d, so the reload
        # reassembles h = y + d and may differ in the last ulp.
        assert np.allclose(back.h, wf.h, rtol=0.0, atol=5e-15)
        assert back.Q == wf.Q
        assert back.d == wf.d
        assert back.g == wf.g
        assert back.L == wf.L
        assert back.m == wf.m

    def test_reload_writes_the_same_bytes(self, wave, tmp_path):
        _, wf = wave
        wf.to_csv(tmp_path / "field.csv")
        WaveField.from_csv(tmp_path / "field.csv", wf.vf).to_csv(
            tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == \
            (tmp_path / "field.csv").read_bytes()

    def test_header_layout(self, wave, tmp_path):
        _, wf = wave
        path = tmp_path / "field.csv"
        wf.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vorwave field g=")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + wf.nq * wf.npts

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("q,p\n0,0\n")
        with pytest.raises(InputError):
            WaveField.from_csv(path, VorticityFunction.constant(0.0, m=M))

    def test_wrong_columns_rejected(self, wave, tmp_path):
        _, wf = wave
        path = tmp_path / "field.csv"
        wf.to_csv(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("omega", "vorticity")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError):
            WaveField.from_csv(path, wf.vf)

    def test_tampered_pressure_rejected(self, wave, tmp_path):
        # the loader cross-checks the surface Bernoulli head against the
        # metadata, so a corrupted pressure column cannot slip through
        _, wf = wave
        path = tmp_path / "field.csv"
        bad = WaveField(wf.grid, wf.g, wf.Q, wf.d, wf.h, wf.u, wf.v,
                        wf.P + 0.5, wf.psi, wf.omega, wf.ux, wf.uy, wf.vx,
                        wf.vy, wf.uxx, wf.uxy, wf.vf)
        bad.to_csv(path)
        with pytest.raises(InputError):
            WaveField.from_csv(path, wf.vf)

    @pytest.mark.parametrize("name, shift", [("q", 0.05), ("p", 0.01)])
    def test_rows_off_the_grid_rejected(self, wave, tmp_path, name, shift):
        # one row inside column 6 moved off its node: the loader must not
        # read the grid from the first block's p and each block's first q
        _, wf = wave
        path = tmp_path / "field.csv"
        wf.to_csv(path)
        lines = path.read_text().splitlines()
        row = 2 + 6 * wf.npts + wf.npts // 2
        cells = lines[row].split(",")
        col = CSV_COLUMNS.index(name)
        cells[col] = repr(float(cells[col]) + shift)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="do not form a grid"):
            WaveField.from_csv(path, wf.vf)


def test_reconstruct_keeps_one_column_operator_per_grid(wave):
    # the field differentiates with its grid's weights, built once
    grid, wf = wave
    again = reconstruct(grid, wf.vf, wf.g, wf.h, wf.Q)
    assert wf.grid is grid
    assert again.grid is grid
