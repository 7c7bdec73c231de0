"""Vorticity functions: evaluation, antiderivative, and the favorable
sign conditions as the audit tests them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_audit import trivial_field
from vorwave import InputError, VorticityFunction
from vorwave.audit import FAVORABLE, audit_wave
from vorwave.grid import stretched_nodes


class TestConstant:
    def test_values_and_antiderivative(self):
        vf = VorticityFunction.constant(-1.0)
        assert vf.gamma(0.5) == -1.0
        assert vf.gamma(0.0) == -1.0
        # Gamma(s) = int_0^s gamma(-p) dp = -s for constant -1
        assert vf.Gamma(-0.25) == pytest.approx(0.25, abs=1e-14)
        assert vf.Gamma(0.0) == pytest.approx(0.0, abs=1e-14)
        assert vf.Gamma_min() == pytest.approx(0.0, abs=1e-14)

    def test_positive_constant_min_at_bed(self):
        vf = VorticityFunction.constant(2.0, m=1.5)
        # Gamma(s) = 2s is minimized at s = -m
        assert vf.Gamma_min() == pytest.approx(-3.0, abs=1e-13)

    def test_derivatives(self):
        vf = VorticityFunction.constant(-0.7)
        assert vf.gamma(0.3, order=1) == 0.0
        assert vf.gamma(0.3, order=2) == 0.0

    @pytest.mark.parametrize("npts", [48, 96])
    @pytest.mark.parametrize("v", [0.0, -0.3, -0.7, 0.5])
    def test_closed_forms_bit_for_bit(self, v, npts):
        # the degree-0 polynomial gives gamma = v, gamma' = gamma'' = 0 and
        # Gamma(s) = v s to the bit on a stretched psi column
        s = stretched_nodes(1.0, npts, 0.5)
        vf = VorticityFunction.constant(v)
        assert np.array_equal(vf.gamma(-s), np.full(npts, v))
        assert np.array_equal(vf.gamma(-s, 1), np.zeros(npts))
        assert np.array_equal(vf.gamma(-s, 2), np.zeros(npts))
        assert np.array_equal(vf.Gamma(s), v * s)

    def test_domain_errors(self):
        vf = VorticityFunction.constant(-1.0, m=1.0)
        with pytest.raises(InputError):
            vf.gamma(1.5)
        with pytest.raises(InputError):
            vf.gamma(-0.5)
        with pytest.raises(InputError):
            vf.Gamma(0.5)
        with pytest.raises(InputError):
            vf.gamma(0.5, order=3)


class TestPolynomial:
    def test_antiderivative_closed_form(self):
        # gamma(psi) = psi^2 - 2, so gamma(-p) = p^2 - 2 and
        # Gamma(s) = s^3/3 - 2s.
        vf = VorticityFunction.polynomial([-2.0, 0.0, 1.0])
        assert vf.Gamma(-1.0) == pytest.approx(-1.0 / 3.0 + 2.0, rel=1e-14)
        assert vf.gamma(0.5) == pytest.approx(0.25 - 2.0, rel=1e-14)
        assert vf.gamma(0.5, order=1) == pytest.approx(1.0, rel=1e-14)
        assert vf.gamma(0.5, order=2) == pytest.approx(2.0, rel=1e-14)

    def test_gamma_prime_matches_fd_of_antiderivative(self):
        vf = VorticityFunction.polynomial([-0.4, -1.1, 0.0, -0.2])
        rng = np.random.default_rng(11)
        s = rng.uniform(-0.9, -0.1, size=100)
        h = 1e-6
        fd = (vf.Gamma(s + h) - vf.Gamma(s - h)) / (2 * h)
        np.testing.assert_allclose(fd, vf.gamma(-s), rtol=0, atol=1e-8)

    def test_gamma_min_interior_critical_point(self):
        # gamma(psi) = 1 - 2 psi: Gamma(s) = s + s^2, minimized at s = -1/2
        # with value -1/4.
        vf = VorticityFunction.polynomial([1.0, -2.0])
        assert vf.Gamma_min() == pytest.approx(-0.25, abs=1e-13)


class TestTabulated:
    def test_recovers_linear_gamma(self):
        psi = np.linspace(0.0, 1.0, 41)
        vf = VorticityFunction.tabulated(psi, -psi)
        # gamma(psi) = -psi gives Gamma(s) = s^2/2 (cubic spline is exact
        # on linear data).
        assert vf.Gamma(-0.5) == pytest.approx(0.125, abs=1e-12)
        assert vf.gamma(0.3) == pytest.approx(-0.3, abs=1e-12)

    def test_rejects_bad_samples(self):
        with pytest.raises(InputError):
            VorticityFunction.tabulated([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
        psi = np.array([0.0, 0.4, 0.3, 1.0])
        with pytest.raises(InputError):
            VorticityFunction.tabulated(psi, -psi)

    def test_to_config_round_trip(self):
        psi = np.linspace(0.0, 1.0, 31)
        vf = VorticityFunction.tabulated(psi, np.sin(psi) - 0.5)
        spec = vf.to_config()
        assert spec["kind"] == "tabulated"
        rebuilt = VorticityFunction(spec, m=1.0)
        probe = np.linspace(0.0, 1.0, 97)
        np.testing.assert_allclose(rebuilt.gamma(probe), vf.gamma(probe),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(rebuilt.Gamma(-probe), vf.Gamma(-probe),
                                   rtol=0, atol=1e-14)
        # The fragment itself must be JSON-clean (plain floats, no arrays).
        import json
        json.dumps(spec, allow_nan=False)


class TestSignChecks:
    """Favorable vorticity, gamma, gamma', gamma'' <= 0, as the audit's
    hypothesis table tests it on a wave's psi nodes: D-slope is judged
    only under it."""

    def test_favorable_constant(self):
        assert FAVORABLE == ("gamma<=0", "gamma'<=0", "gamma''<=0")
        rep = audit_wave(trivial_field(gamma=-1.0))
        assert rep.by_id("D-slope").status == "pass"

    def test_increasing_gamma_flagged(self):
        # gamma = psi^2 - 2 is negative but increasing on psi > 0; gamma' =
        # 2 psi peaks at the bed node, psi = m = 1
        vf = VorticityFunction.polynomial([-2.0, 0.0, 1.0])
        diag = audit_wave(trivial_field(gamma=vf)).by_id("D-slope")
        assert diag.status == "not-applicable"
        assert diag.value["failed"] == "gamma'<=0"
        assert diag.margin == -2.0

    @given(st.floats(min_value=-5.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_constant_ok_iff_nonpositive(self, c):
        # the laminar flow needs lambda > -2 min Gamma = 2 max(c, 0)
        wf = trivial_field(gamma=c, lam=1.0 + 2.0 * max(c, 0.0))
        status = audit_wave(wf).by_id("D-slope").status
        assert (status != "not-applicable") == (c <= 0.0)


class TestConfigRoundTrip:
    def test_constant(self):
        vf = VorticityFunction.constant(-0.3, m=2.0)
        assert vf.to_config() == {"kind": "constant", "gamma": -0.3}

    def test_numbers_kept_as_floats(self):
        spec = VorticityFunction({"kind": "poly", "coeffs": [0, -1]},
                                 m=1.0).to_config()
        assert spec == {"kind": "poly", "coeffs": [0.0, -1.0]}
        assert all(type(c) is float for c in spec["coeffs"])

    def test_polynomial(self):
        vf = VorticityFunction.polynomial([0.1, -1.0], m=1.0)
        cfg = vf.to_config()
        assert cfg["kind"] == "poly"
        np.testing.assert_allclose(cfg["coeffs"], [0.1, -1.0])
