"""Laminar flows, the head function, and the closed-form criteria.

Expected values are frozen from independent closed forms:

* gamma = 0: d(lam) = m/sqrt(lam), head = lam/2 + g*m/sqrt(lam), so
  lambda_c = (g*m)^(2/3) and head(lambda_c) = (3/2)(g*m)^(2/3).
* gamma = -1, m = 1: Gamma(s) = -s, d(lam) = sqrt(lam+2) - sqrt(lam), and
  the head slope vanishes where 1/sqrt(lam) - 1/sqrt(lam+2) = 1/g.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from vorwave import (InputError, NumericsError, StripGrid,
                     VorticityFunction, critical_lambda, find_bifurcation,
                     laminar_depth, laminar_flow, laminar_head, solver)
from vorwave.audit import gamma_small_criterion, gamma_smallest_criterion
from vorwave.laminar import (_admissible_floor, _quad_checked, brent_root,
                             head_slope)

G = 9.81
STILL = VorticityFunction.constant(0.0)
FAVORABLE = VorticityFunction.constant(-1.0)
EPS = np.finfo(float).eps

_PSI = np.linspace(0.0, 1.0, 11)
ORACLE_VORTICITY = {
    "gamma=0": VorticityFunction.constant(0.0),
    "gamma=-0.3": VorticityFunction.constant(-0.3),
    "gamma=-0.7": VorticityFunction.constant(-0.7),
    "gamma=+2": VorticityFunction.constant(2.0),
    "poly": VorticityFunction.polynomial([-0.3, -0.2]),
    "tabulated": VorticityFunction.tabulated(_PSI, -0.3 - 0.05 * _PSI),
}


class TestHeadAndDepth:
    def test_irrotational_depth_closed_form(self):
        for lam in (0.5, 2.0, 4.0):
            assert laminar_depth(STILL, lam) == pytest.approx(
                1.0 / math.sqrt(lam), rel=1e-11)

    def test_irrotational_head_closed_form(self):
        lam = 2.0
        assert laminar_head(STILL, lam, G) == pytest.approx(
            1.0 + G / math.sqrt(2.0), rel=1e-11)

    def test_constant_vorticity_depth(self):
        # Gamma(s) = -s, so the integrand is (lam - 2s)^(-1/2) and the
        # depth is sqrt(lam+2) - sqrt(lam).
        for lam in (0.5, 1.0, 3.0):
            assert laminar_depth(FAVORABLE, lam) == pytest.approx(
                math.sqrt(lam + 2.0) - math.sqrt(lam), rel=1e-11)

    def test_singular_threshold_rejected(self):
        with pytest.raises(InputError):
            laminar_depth(STILL, 0.0)
        # For gamma = +2 the floor is -2*min(Gamma) = 4.
        adverse = VorticityFunction.constant(2.0)
        with pytest.raises(InputError):
            laminar_depth(adverse, 4.0)
        assert laminar_depth(adverse, 4.1) > 0.0


class TestCriticalLambda:
    def test_irrotational_closed_form(self):
        lam_c = critical_lambda(STILL, G)
        assert lam_c == pytest.approx(G ** (2.0 / 3.0), rel=1e-10)
        assert laminar_head(STILL, lam_c, G) == pytest.approx(
            1.5 * G ** (2.0 / 3.0), rel=1e-10)

    def test_constant_vorticity_against_scalar_root(self):
        # Independent oracle: solve 1/sqrt(lam) - 1/sqrt(lam+2) = 1/g
        # directly, with no quadrature involved.
        oracle = brentq(
            lambda lam: 1.0 / math.sqrt(lam) - 1.0 / math.sqrt(lam + 2.0)
            - 1.0 / G, 1e-6, 50.0, xtol=1e-14)
        assert critical_lambda(FAVORABLE, G) == pytest.approx(
            oracle, rel=1e-10)

    def test_minimum_property(self):
        lam_c = critical_lambda(FAVORABLE, G)
        h_c = laminar_head(FAVORABLE, lam_c, G)
        for shift in (-0.5, -0.1, 0.1, 0.5, 2.0):
            lam = lam_c + shift
            if lam <= 0:
                continue
            assert laminar_head(FAVORABLE, lam, G) > h_c

    @given(st.floats(min_value=0.3, max_value=8.0),
           st.floats(min_value=0.3, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_head_is_strictly_convex(self, a, b):
        if abs(a - b) < 1e-3:
            return
        mid = 0.5 * (a + b)
        h_mid = laminar_head(FAVORABLE, mid, G)
        h_avg = 0.5 * (laminar_head(FAVORABLE, a, G)
                       + laminar_head(FAVORABLE, b, G))
        assert h_mid < h_avg


def _scale(vf):
    # critical_lambda's scale for how far lambda sits above the floor
    return max((G * vf.m) ** (2.0 / 3.0), abs(_admissible_floor(vf)))


@pytest.mark.parametrize("name", ORACLE_VORTICITY)
class TestAgainstScipy:
    """The quadrature and root finder against scipy's quad and brentq."""

    def test_quadrature_matches_quad(self, name):
        # at lambda_c and on the way down to critical_lambda's first probe,
        # where the integrands peak sharply at the floor's end; the largest
        # relative difference measured is 3.6e-14 (gamma = +2)
        vf = ORACLE_VORTICITY[name]
        floor, scale = _admissible_floor(vf), _scale(vf)
        for lam in (critical_lambda(vf, G), floor + 1e-2 * scale,
                    floor + 1e-4 * scale):
            for power in (-0.5, -1.5):
                def f(s):
                    return (lam + 2.0 * vf.Gamma(s)) ** power
                ours = _quad_checked(f, -vf.m, 0.0, "oracle")
                ref, _ = quad(f, -vf.m, 0.0, epsabs=1e-12, epsrel=1e-12,
                              limit=500)
                assert type(ours) is float
                assert ours == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_head_slope_root_matches_brentq(self, name):
        # the step rules are brentq's, so the roots agree to the last bit
        vf = ORACLE_VORTICITY[name]
        floor, scale = _admissible_floor(vf), _scale(vf)
        lam_c = critical_lambda(vf, G)
        a, b = floor + 1e-4 * scale, lam_c + scale

        def f(lam):
            return head_slope(vf, lam, G)
        ours = brent_root(f, a, b, xtol=1e-15 * scale)
        assert type(ours) is float
        assert ours == brentq(f, a, b, xtol=1e-15 * scale, rtol=4.0 * EPS)
        assert ours == pytest.approx(lam_c, rel=1e-13)

    def test_surface_residual_root_matches_brentq(self, name):
        vf = ORACLE_VORTICITY[name]
        lam_c = critical_lambda(vf, G)
        floor = _admissible_floor(vf)
        lo, hi = floor + 1e-4 * (lam_c - floor), lam_c
        operator = solver._transverse_operator(vf, G, StripGrid(
            math.pi, vf.m, 4, solver.BIFURCATION_NODES, 0.5))

        def r(lam):
            return solver._surface_mode(*operator(lam))[1]
        ref = brentq(r, lo, hi, xtol=solver.BIFURCATION_XTOL * max(1.0, hi),
                     rtol=4.0 * EPS)
        lam_star = find_bifurcation(vf, G, math.pi, vf.m, lam_c=lam_c)
        assert type(lam_star) is float
        assert lam_star == ref


class TestQuadratureAndRoots:
    def test_zero_width_interval_gives_zero(self):
        # no division of 0 by 0, which -W error would turn into a failure
        assert _quad_checked(lambda s: (1.0 - 2.0 * s) ** -0.5,
                             -0.5, -0.5, "height") == 0.0
        flow = laminar_flow(FAVORABLE, 1.0, G)
        assert flow.height(np.array([-1.0]))[0] == 0.0

    def test_unresolved_integral_raises(self):
        # |s|^-0.99 defeats every panel rule near s = 0: bisection runs
        # into the panel limit and the error check refuses the value
        with pytest.raises(NumericsError, match="did not converge"):
            _quad_checked(lambda s: np.abs(s) ** -0.99, -1.0, 0.0, "probe")

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(NumericsError, match="no sign change"):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_root_at_a_bracket_end(self):
        assert brent_root(lambda x: x - 2.0, 2.0, 3.0, xtol=1e-12) == 2.0
        assert brent_root(lambda x: x - 2.0, 1.0, 2.0, xtol=1e-12) == 2.0

    def test_root_within_tolerance(self):
        root = brent_root(math.cos, 1.0, 2.0, xtol=1e-14)
        assert abs(root - 0.5 * math.pi) <= 1e-14 + 4.0 * EPS * root


class TestLaminarFlow:
    def test_profile_anchors(self):
        flow = laminar_flow(FAVORABLE, 1.0, G)
        assert flow.u0(-1.0) == pytest.approx(-math.sqrt(3.0), rel=1e-13)
        assert flow.u0(0.0) == pytest.approx(-1.0, rel=1e-13)
        assert flow.d == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-11)
        assert flow.Q == pytest.approx(0.5 + G * (math.sqrt(3.0) - 1.0),
                                       rel=1e-11)

    def test_height_closed_form(self):
        # H(p) = int_{-1}^p (1-2s)^(-1/2) ds = sqrt(3) - sqrt(1-2p)
        flow = laminar_flow(FAVORABLE, 1.0, G)
        p = np.array([-1.0, -0.5, -0.25, 0.0])
        np.testing.assert_allclose(flow.height(p),
                                   math.sqrt(3.0) - np.sqrt(1.0 - 2.0 * p),
                                   rtol=1e-11)

    def test_shear_matches_vorticity(self):
        # -d(u0)/dy must equal gamma(psi) along the column. Checked by
        # finite differences on the physical height grid for a nonconstant
        # gamma.
        vf = VorticityFunction.polynomial([-0.3, -1.0])
        flow = laminar_flow(vf, 2.0, G)
        p = np.linspace(-1.0, 0.0, 2001)
        y = flow.height(p)
        u = flow.u0(p)
        du_dy = np.gradient(u, y)
        interior = slice(5, -5)
        np.testing.assert_allclose(-du_dy[interior], vf.gamma(-p)[interior],
                                   rtol=0, atol=1e-7)


class TestGammaCriteria:
    def test_favorable_passes_both(self):
        small = gamma_small_criterion(FAVORABLE, G, math.pi)
        smallest = gamma_smallest_criterion(FAVORABLE, G, math.pi)
        assert small.passed and smallest.passed
        assert "agrees" in smallest.note

    def test_small_uses_stated_bound(self):
        lam_c = critical_lambda(FAVORABLE, G)
        small = gamma_small_criterion(FAVORABLE, G, math.pi)
        assert small.lhs == pytest.approx(1.0)
        assert small.rhs == pytest.approx(
            G ** 2 / (2 * G * math.pi + lam_c), rel=1e-12)

    def test_nonpositive_radicand_reported(self):
        strong = VorticityFunction.constant(3.0)
        smallest = gamma_smallest_criterion(strong, G, math.pi)
        assert smallest.status == "fail"
        assert "radicand nonpositive" in smallest.note
        # The coarse criterion must fail too; they stay in agreement.
        assert not gamma_small_criterion(strong, G, math.pi).passed
        assert "agrees" in smallest.note
