"""Trochoidal fixture checks.

The module under test carries its own analytic inverse Jacobian, so every
oracle here rebuilds physical derivatives from scratch: centered label
differences of the position map, a numerically inverted 2x2 Jacobian, and
the chain rule. Nothing below calls label_jacobian_inverse; agreement is
therefore evidence, not bookkeeping.
"""

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from vorwave.config import DEFAULT_G
from vorwave.errors import InputError
from vorwave.gerstner import TrochoidalWave

G = 9.81


def inverse_map_fd(wave, a, b, h=1e-6):
    """(a_x, a_y, b_x, b_y) from finite differences of the position map."""
    xa = (wave.position(a + h, b)[0] - wave.position(a - h, b)[0]) / (2 * h)
    ya = (wave.position(a + h, b)[1] - wave.position(a - h, b)[1]) / (2 * h)
    xb = (wave.position(a, b + h)[0] - wave.position(a, b - h)[0]) / (2 * h)
    yb = (wave.position(a, b + h)[1] - wave.position(a, b - h)[1]) / (2 * h)
    det = xa * yb - xb * ya
    return yb / det, -xb / det, -ya / det, xa / det


def phys_grad(wave, fn, a, b, h=1e-6):
    """Physical-space gradient of a scalar given as a function of labels."""
    fa = (fn(a + h, b) - fn(a - h, b)) / (2 * h)
    fb = (fn(a, b + h) - fn(a, b - h)) / (2 * h)
    a_x, a_y, b_x, b_y = inverse_map_fd(wave, a, b, h)
    return fa * a_x + fb * b_x, fa * a_y + fb * b_y


class TestConstruction:
    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.2, -0.5])
    def test_steepness_domain(self, eps):
        with pytest.raises(InputError):
            TrochoidalWave(1.0, eps)

    @pytest.mark.parametrize("k", [0.0, -2.0])
    def test_wavenumber_positive(self, k):
        with pytest.raises(InputError):
            TrochoidalWave(k, 0.5)

    def test_gravity_positive(self):
        with pytest.raises(InputError):
            TrochoidalWave(1.0, 0.5, g=0.0)

    def test_default_g_is_the_configs(self):
        assert TrochoidalWave(1.0, 0.5).g == DEFAULT_G

    def test_deep_water_speed(self):
        wave = TrochoidalWave(1.0, 0.5)
        assert wave.c == pytest.approx(np.sqrt(G), rel=1e-15)
        assert TrochoidalWave(4.0, 0.5).c == pytest.approx(np.sqrt(G) / 2.0)

    def test_surface_label_negative(self):
        wave = TrochoidalWave(2.0, 0.3)
        assert wave.b0 == pytest.approx(np.log(0.3) / 2.0)
        assert wave.b0 < 0.0

    def test_labels_above_surface_rejected(self):
        wave = TrochoidalWave(1.0, 0.5)
        with pytest.raises(InputError):
            wave.velocity(0.0, wave.b0 + 0.1)

    def test_periodic_in_label(self):
        wave = TrochoidalWave(1.5, 0.4)
        L = 2.0 * np.pi / wave.k
        x0, y0 = wave.position(0.3, wave.b0 - 0.2)
        x1, y1 = wave.position(0.3 + L, wave.b0 - 0.2)
        assert x1 - x0 == pytest.approx(L, rel=1e-14)
        assert y1 == pytest.approx(y0, abs=1e-14)


class TestSlope:
    def test_exact_anchors(self):
        # tan(theta) = eps / sqrt(1 - eps^2) is the same as sin(theta) = eps,
        # so half gives 30 degrees and 1/sqrt(2) gives 45 on the nose.
        assert TrochoidalWave(1.0, 0.5).max_slope()["angle_deg"] == \
            pytest.approx(30.0, abs=1e-12)
        assert TrochoidalWave(1.0, 1.0 / np.sqrt(2.0)).max_slope()[
            "angle_deg"] == pytest.approx(45.0, abs=1e-12)
        assert TrochoidalWave(1.0, 0.95).max_slope()["angle_deg"] == \
            pytest.approx(np.degrees(np.arcsin(0.95)), abs=1e-12)

    @pytest.mark.parametrize("eps", [0.3, 1.0 / np.sqrt(2.0), 0.9, 0.95])
    def test_finite_difference_agrees(self, eps):
        wave = TrochoidalWave(1.0, eps)
        assert wave.surface_slope_fd() == \
            pytest.approx(wave.max_slope()["angle_deg"], abs=1e-4)

    def test_forty_five_crossing(self):
        # Root-find on the sampled surface, not on the closed form, so the
        # crossing location is recovered by an independent route.
        def fd_slope_minus_45(eps):
            return TrochoidalWave(1.0, eps).surface_slope_fd() - 45.0

        root = brentq(fd_slope_minus_45, 0.5, 0.9, xtol=1e-10)
        assert root == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)

    def test_slope_increases_with_steepness(self):
        angles = [TrochoidalWave(1.0, e).max_slope()["angle_deg"]
                  for e in np.linspace(0.05, 0.95, 19)]
        assert np.all(np.diff(angles) > 0.0)
        assert angles[-1] > 45.0

    def test_steepest_label_location(self):
        wave = TrochoidalWave(2.0, 0.6)
        a_star = wave.max_slope()["label_a"]
        assert np.cos(wave.k * a_star) == pytest.approx(0.6, abs=1e-12)
        # The surface tangent there should realize the reported angle.
        h = 1e-7
        x1, y1 = wave.position(a_star + h, wave.b0)
        x0, y0 = wave.position(a_star - h, wave.b0)
        angle = np.degrees(np.arctan(abs((y1 - y0) / (x1 - x0))))
        assert angle == pytest.approx(wave.max_slope()["angle_deg"], abs=1e-6)


class TestVorticity:
    def test_positive_throughout(self):
        wave = TrochoidalWave(1.0, 0.9)
        fld = wave.field(48, 25)
        assert np.min(fld.omega) > 0.0

    def test_matches_curl_of_velocity(self):
        # v_x - u_y straight from the finite-difference oracle must land on
        # the closed-form vorticity profile.
        wave = TrochoidalWave(1.3, 0.7)
        a = np.linspace(0.0, 2.0 * np.pi / wave.k, 9, endpoint=False)
        b = np.full_like(a, wave.b0 - 0.4)
        _, vx_y = phys_grad(wave, lambda aa, bb: wave.velocity(aa, bb)[0],
                            a, b)
        vx_x, _ = phys_grad(wave, lambda aa, bb: wave.velocity(aa, bb)[1],
                            a, b)
        curl = vx_x - vx_y
        np.testing.assert_allclose(curl, wave.vorticity(b), rtol=1e-7)

    def test_divergence_free(self):
        wave = TrochoidalWave(1.0, 0.8)
        a = np.linspace(0.0, 2.0 * np.pi, 11, endpoint=False)
        b = np.full_like(a, wave.b0 - 0.25)
        ux, _ = phys_grad(wave, lambda aa, bb: wave.velocity(aa, bb)[0], a, b)
        _, vy = phys_grad(wave, lambda aa, bb: wave.velocity(aa, bb)[1], a, b)
        np.testing.assert_allclose(ux + vy, 0.0, atol=1e-7)


class TestEuler:
    def sample_labels(self, wave):
        a = np.linspace(0.0, 2.0 * np.pi / wave.k, 24, endpoint=False)
        b = np.linspace(wave.b0 - 2.0 / wave.k, wave.b0 - 1e-4, 9)
        A, B = np.meshgrid(a, b, indexing="ij")
        return A, B

    def oracle_residuals(self, wave, A, B, h=1e-6):
        u, v = wave.velocity(A, B)
        ux, uy = phys_grad(wave, lambda aa, bb: wave.velocity(aa, bb)[0],
                           A, B, h)
        vx, vy = phys_grad(wave, lambda aa, bb: wave.velocity(aa, bb)[1],
                           A, B, h)
        Px, Py = phys_grad(wave, lambda aa, bb: wave.pressure(bb)
                           + 0.0 * aa, A, B, h)
        return u * ux + v * uy + Px, u * vx + v * vy + Py + wave.g

    def test_momentum_balance_steep(self):
        wave = TrochoidalWave(1.0, 0.9)
        A, B = self.sample_labels(wave)
        e1, e2 = self.oracle_residuals(wave, A, B)
        assert float(np.max(np.abs(e1))) < 1e-6
        assert float(np.max(np.abs(e2))) < 1e-6

    def test_momentum_balance_other_wavenumber(self):
        wave = TrochoidalWave(2.5, 0.6, g=3.7)
        A, B = self.sample_labels(wave)
        e1, e2 = self.oracle_residuals(wave, A, B)
        assert float(np.max(np.abs(e1))) < 1e-6
        assert float(np.max(np.abs(e2))) < 1e-6

    def test_module_residuals_agree_with_oracle(self):
        wave = TrochoidalWave(1.0, 0.9)
        A, B = self.sample_labels(wave)
        m1, m2 = wave.euler_residuals(A, B)
        assert float(np.max(np.abs(m1))) < 1e-6
        assert float(np.max(np.abs(m2))) < 1e-6

    def test_pressure_shift_drops_out(self):
        # The wider step keeps the differences of the lifted pressure from
        # drowning in cancellation: at patm ~ 2e5 a 1e-6 step leaves only
        # ten good digits in each difference.
        base = TrochoidalWave(1.0, 0.7)
        lifted = TrochoidalWave(1.0, 0.7, patm=2.0e5)
        A, B = self.sample_labels(base)
        for wave in (base, lifted):
            e1, e2 = self.oracle_residuals(wave, A, B, h=1e-4)
            assert float(np.max(np.abs(e1))) < 1e-6
            assert float(np.max(np.abs(e2))) < 1e-6
        np.testing.assert_allclose(lifted.pressure(B) - base.pressure(B),
                                   2.0e5)


class TestPressure:
    def test_atmospheric_at_surface(self):
        assert TrochoidalWave(1.0, 0.5).pressure(np.log(0.5)) == 0.0
        assert TrochoidalWave(1.0, 0.5, patm=3.5).pressure(np.log(0.5)) == 3.5

    def test_increases_with_depth(self):
        wave = TrochoidalWave(1.0, 0.8)
        b = np.linspace(wave.b0 - 3.0, wave.b0, 40)
        P = wave.pressure(b)
        assert np.all(np.diff(P) < 0.0)

    def test_subhydrostatic_gradient(self):
        # dP/db = -g (1 - e^{2kb}), so the column is lighter than static
        # water everywhere the motion reaches.
        wave = TrochoidalWave(1.0, 0.8)
        b = np.linspace(wave.b0 - 2.0, wave.b0 - 1e-3, 25)
        h = 1e-6
        dPdb = (wave.pressure(b + h) - wave.pressure(b - h)) / (2 * h)
        assert np.all(dPdb > -wave.g)
        assert np.all(dPdb < 0.0)


class TestInteriorEquations:
    """Second-order interior identities evaluated on the closed forms.

    Label-space partials of u and v are two-line calculus on the stated
    velocity formulas and are rederived here; only the geometry of the
    label map goes through finite differences. That keeps the Laplacians
    at one level of nesting, accurate to ~1e-6.
    """

    K, EPS = 1.0, 0.6
    H1, H2 = 1e-6, 1e-3

    def wave(self):
        return TrochoidalWave(self.K, self.EPS)

    def labels(self, wave):
        a = np.linspace(0.0, 2.0 * np.pi / wave.k, 12, endpoint=False)
        b = wave.b0 - np.array([0.3, 0.6, 1.0]) / wave.k
        return np.meshgrid(a, b, indexing="ij")

    def velocity_label_partials(self, wave, a, b):
        E = np.exp(wave.k * b)
        ka = wave.k * a
        ua = -wave.c * wave.k * E * np.sin(ka)
        ub = wave.c * wave.k * E * np.cos(ka)
        va = wave.c * wave.k * E * np.cos(ka)
        vb = wave.c * wave.k * E * np.sin(ka)
        return ua, ub, va, vb

    def velocity_grad(self, wave, a, b):
        ua, ub, va, vb = self.velocity_label_partials(wave, a, b)
        a_x, a_y, b_x, b_y = inverse_map_fd(wave, a, b, self.H1)
        ux = ua * a_x + ub * b_x
        uy = ua * a_y + ub * b_y
        vx = va * a_x + vb * b_x
        vy = va * a_y + vb * b_y
        return ux, uy, vx, vy

    def test_slope_equation_sign_of_shear_terms(self):
        # The drift of the streamline-slope equation carries gamma with
        # opposite signs in its two terms. Flipping the second sign is the
        # plausible transcription slip, and it misses by orders of
        # magnitude here, so this pins the correct variant down.
        wave = self.wave()
        A, B = self.labels(wave)
        u, v = wave.velocity(A, B)
        spd2 = u ** 2 + v ** 2
        gam = wave.vorticity(B)

        def slope_fn(aa, bb):
            uu, vv = wave.velocity(aa, bb)
            return vv / uu

        def sx_fn(aa, bb):
            return phys_grad(wave, slope_fn, aa, bb, self.H1)[0]

        def sy_fn(aa, bb):
            return phys_grad(wave, slope_fn, aa, bb, self.H1)[1]

        sx, sy = sx_fn(A, B), sy_fn(A, B)
        sxx = phys_grad(wave, sx_fn, A, B, self.H2)[0]
        syy = phys_grad(wave, sy_fn, A, B, self.H2)[1]
        t1 = 2.0 * v * (gam - u * sx) / spd2 * sx
        t2_good = -2.0 * u * (gam + v * sy) / spd2 * sy
        t2_flip = -2.0 * u * (gam - v * sy) / spd2 * sy
        denom = float(np.max(np.abs(sxx) + np.abs(syy)
                             + np.abs(t1) + np.abs(t2_good)))
        rel_good = float(np.max(np.abs(sxx + syy + t1 + t2_good))) / denom
        rel_flip = float(np.max(np.abs(sxx + syy + t1 + t2_flip))) / denom
        assert rel_good < 1e-3
        assert rel_flip > 0.02
        assert rel_flip > 20.0 * rel_good

    def test_strain_equation_and_curvature_of_shear(self):
        # Source term gamma''(psi) v, with gamma'' read off the closed
        # forms: gamma' = -4 k^2 E^2 / (1-E^2)^3 in the stream variable,
        # differentiated once more and divided by dpsi/db = c (E^2 - 1).
        wave = self.wave()
        A, B = self.labels(wave)
        u, v = wave.velocity(A, B)

        def w_fn(aa, bb):
            uu, _ = wave.velocity(aa, bb)
            return self.velocity_grad(wave, aa, bb)[0] / uu

        w = w_fn(A, B)
        wx = phys_grad(wave, w_fn, A, B, self.H2)[0]
        wy = phys_grad(wave, w_fn, A, B, self.H2)[1]
        wxx = phys_grad(wave, lambda aa, bb: phys_grad(
            wave, w_fn, aa, bb, self.H2)[0], A, B, 5e-3)[0]
        wyy = phys_grad(wave, lambda aa, bb: phys_grad(
            wave, w_fn, aa, bb, self.H2)[1], A, B, 5e-3)[1]
        ux, uy, _, _ = self.velocity_grad(wave, A, B)
        drift = 2.0 * (ux / u) * wx + 2.0 * (uy / u) * wy
        E2 = np.exp(2.0 * wave.k * B)
        gam_pp = (8.0 * wave.k ** 3 * E2 * (1.0 + 2.0 * E2)
                  / (wave.c * (1.0 - E2) ** 5))
        resid = wxx + wyy + drift - gam_pp * v
        denom = float(np.max(np.abs(wxx) + np.abs(wyy) + np.abs(drift)
                             + np.abs(gam_pp * v)))
        rel = float(np.max(np.abs(resid))) / denom
        rel_no_source = float(np.max(np.abs(wxx + wyy + drift))) / denom
        assert rel < 5e-3
        assert rel_no_source > 0.05

    def test_shear_derivative_in_stream_variable(self):
        # dgamma/db from finite differences must equal the product of the
        # closed-form gamma'(psi) with psi_b = u y_b - v x_b.
        wave = self.wave()
        b = wave.b0 - np.linspace(0.2, 1.5, 9)
        h = 1e-6
        dgam_db = (wave.vorticity(b + h) - wave.vorticity(b - h)) / (2 * h)
        a = np.full_like(b, 0.37)
        xb = (wave.position(a, b + h)[0] - wave.position(a, b - h)[0]) / (2*h)
        yb = (wave.position(a, b + h)[1] - wave.position(a, b - h)[1]) / (2*h)
        u, v = wave.velocity(a, b)
        psi_b = u * yb - v * xb
        E2 = np.exp(2.0 * wave.k * b)
        gam_prime = -4.0 * wave.k ** 2 * E2 / (1.0 - E2) ** 3
        np.testing.assert_allclose(dgam_db, gam_prime * psi_b, rtol=1e-6)
        # psi_b is independent of the phase label along a streamline.
        np.testing.assert_allclose(psi_b, wave.c * (E2 - 1.0), rtol=1e-7)


class TestFieldSampling:
    def test_grid_layout(self):
        wave = TrochoidalWave(1.0, 0.5)
        fld = wave.field(32, 17)
        assert fld.u.shape == (32, 17)
        assert fld.b[-1] == pytest.approx(wave.b0)
        assert fld.a[0] == 0.0
        assert fld.a[-1] < 2.0 * np.pi

    def test_no_stagnation(self):
        fld = TrochoidalWave(1.0, 0.97).field(64, 33)
        assert np.max(fld.u) < 0.0

    def test_grid_too_small(self):
        with pytest.raises(InputError):
            TrochoidalWave(1.0, 0.5).field(1, 17)

    def test_csv_round_trip(self, tmp_path):
        wave = TrochoidalWave(1.0, 0.5)
        path = tmp_path / "troch.csv"
        wave.to_csv(path, na=8, nb=5)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vorwave gerstner k=1 eps=0.5")
        assert lines[1] == "a,b,x,y,u,v,P,omega"
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        assert data.shape == (40, 8)
        x, y = wave.position(data[:, 0], data[:, 1])
        np.testing.assert_allclose(data[:, 2], x, rtol=1e-15)
        np.testing.assert_allclose(data[:, 3], y, rtol=1e-15)


class TestMiniReport:
    def test_contents(self):
        rep = TrochoidalWave(1.0, 0.9).mini_report()
        assert rep["max_slope_deg"] == pytest.approx(
            np.degrees(np.arcsin(0.9)), abs=1e-12)
        assert abs(rep["max_slope_fd_deg"] - rep["max_slope_deg"]) < 1e-4
        assert rep["omega_positive"] is True
        assert rep["omega_min"] > 0.0
        assert rep["euler_residual_max"] < 1e-6
        assert rep["overturning"]["flag"] is False
        assert rep["overturning"]["max_surface_u"] < 0.0
        assert set(rep["not_applicable"]) == {
            "D-press-a", "D-press-b", "D-press-c", "D-press-d"}

    def test_serializable(self):
        rep = TrochoidalWave(2.0, 0.5, g=3.0).mini_report(na=16, nb=9)
        text = json.dumps(rep, sort_keys=True, allow_nan=False)
        assert json.loads(text)["wave"]["k"] == 2.0
