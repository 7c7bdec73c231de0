"""The vorticity function gamma(psi) and its antiderivative.

gamma is the function with omega = -Delta(psi) = gamma(psi), well defined in
the absence of stagnation. psi runs from 0 at the free surface to m > 0 at
the bed, so gamma lives on [0, m]. The antiderivative

    Gamma(s) = integral_0^s gamma(-p) dp,   s in [-m, 0],

enters Bernoulli's law through Gamma(-psi). Favorable vorticity means
gamma <= 0, gamma' <= 0, gamma'' <= 0 on [0, m]; the audit tests those
conditions, among the other hypotheses of the theorems, on each wave's own
psi nodes (`audit.HYPOTHESES`).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from .errors import InputError

_DOMAIN_SLACK = 1e-12


class VorticityFunction:
    """gamma(psi) on [0, m] with two derivatives and the antiderivative Gamma.

    Three kinds are supported: constant, polynomial in psi (closed forms for
    everything), and tabulated samples smoothed by a cubic spline (C2, which
    is the minimum regularity the second-derivative sign condition needs;
    its params record the interpolation order).
    """

    def __init__(self, kind, m, gamma_fn, Gamma_fn, gamma_surface, params):
        if m <= 0:
            raise InputError("flux m must be positive, got %r" % (m,))
        self.kind = kind
        self.m = float(m)
        self._gamma = gamma_fn      # (psi, order) -> value
        self._Gamma = Gamma_fn      # s -> value
        self._gamma0 = gamma_surface
        self.params = params

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, m=1.0):
        value = float(value)

        def gamma_fn(psi, order):
            base = value if order == 0 else 0.0
            return np.full_like(np.asarray(psi, dtype=float), base)

        def Gamma_fn(s):
            return value * np.asarray(s, dtype=float)

        return cls("constant", m, gamma_fn, Gamma_fn, value,
                   {"gamma": value})

    @classmethod
    def polynomial(cls, coeffs, m=1.0):
        """Polynomial in psi, coefficients lowest degree first."""
        poly = Polynomial(np.asarray(coeffs, dtype=float))
        derivs = [poly, poly.deriv(1), poly.deriv(2)]
        G = poly.integ()
        # Gamma(s) = -G(-s): flip coefficient signs on even powers of s.
        gcoef = G.coef.copy()
        gcoef *= -((-1.0) ** np.arange(gcoef.size))
        Gamma_poly = Polynomial(gcoef)

        def gamma_fn(psi, order):
            return derivs[order](np.asarray(psi, dtype=float))

        def Gamma_fn(s):
            return Gamma_poly(np.asarray(s, dtype=float))

        vf = cls("polynomial", m, gamma_fn, Gamma_fn, float(poly(0.0)),
                 {"coeffs": [float(c) for c in coeffs]})
        vf._Gamma_poly = Gamma_poly
        return vf

    @classmethod
    def tabulated(cls, psi_samples, gamma_samples, m=None):
        psi_samples = np.asarray(psi_samples, dtype=float)
        gamma_samples = np.asarray(gamma_samples, dtype=float)
        if psi_samples.ndim != 1 or psi_samples.size < 4:
            raise InputError("tabulated vorticity needs at least 4 samples")
        if psi_samples.shape != gamma_samples.shape:
            raise InputError("psi and gamma sample arrays differ in length")
        if np.any(np.diff(psi_samples) <= 0):
            raise InputError("psi samples must be strictly increasing")
        if psi_samples[0] != 0.0:
            raise InputError("psi samples must start at 0")
        if m is None:
            m = psi_samples[-1]
        elif abs(psi_samples[-1] - m) > _DOMAIN_SLACK * max(1.0, m):
            raise InputError("psi samples must end at m")
        from scipy.interpolate import CubicSpline  # here: this kind only
        spline = CubicSpline(psi_samples, gamma_samples)
        anti = spline.antiderivative()

        def gamma_fn(psi, order):
            return spline(np.asarray(psi, dtype=float), nu=order)

        def Gamma_fn(s):
            return -anti(-np.asarray(s, dtype=float))

        vf = cls("tabulated", m, gamma_fn, Gamma_fn, float(spline(0.0)),
                 {"n_samples": int(psi_samples.size),
                  "interpolation_order": 3,
                  "psi": [float(x) for x in psi_samples],
                  "gamma": [float(x) for x in gamma_samples]})
        vf._spline = spline
        return vf

    # -- evaluation --------------------------------------------------------

    def gamma(self, psi, order=0):
        """gamma^(order)(psi) for order in {0, 1, 2}; psi scalar or array."""
        if order not in (0, 1, 2):
            raise InputError("derivative order must be 0, 1, or 2")
        psi_arr = np.asarray(psi, dtype=float)
        slack = _DOMAIN_SLACK * max(1.0, self.m)
        if np.any(psi_arr < -slack) or np.any(psi_arr > self.m + slack):
            raise InputError(
                "psi outside [0, m] = [0, %g]" % self.m)
        out = self._gamma(np.clip(psi_arr, 0.0, self.m), order)
        return float(out) if np.isscalar(psi) else out

    def Gamma(self, s):
        """Gamma(s) = int_0^s gamma(-p) dp for s in [-m, 0]."""
        s_arr = np.asarray(s, dtype=float)
        slack = _DOMAIN_SLACK * max(1.0, self.m)
        if np.any(s_arr < -self.m - slack) or np.any(s_arr > slack):
            raise InputError("s outside [-m, 0] = [%g, 0]" % -self.m)
        out = self._Gamma(np.clip(s_arr, -self.m, 0.0))
        return float(out) if np.isscalar(s) else out

    @property
    def gamma_surface(self):
        """gamma(0), the surface value."""
        return self._gamma0

    def Gamma_min(self):
        """min of Gamma over [-m, 0]; -2*Gamma_min bounds lambda from below.

        Candidate interior extrema are the roots of Gamma'(s) = gamma(-s),
        found exactly for constant/polynomial kinds and from the spline's
        piecewise-cubic derivative otherwise.
        """
        candidates = [-self.m, 0.0]
        if self.kind == "polynomial":
            dG = self._Gamma_poly.deriv()
            roots = dG.roots()
            real = roots[np.abs(roots.imag) < 1e-12].real
            candidates.extend(real[(real > -self.m) & (real < 0.0)])
        elif self.kind == "tabulated":
            roots = self._spline.roots(extrapolate=False)
            candidates.extend(-r for r in np.atleast_1d(roots)
                              if 0.0 < r < self.m)
        vals = [float(self._Gamma(np.asarray(c))) for c in candidates]
        return min(vals)

    def to_config(self):
        """Round-trippable JSON fragment describing this vorticity."""
        if self.kind == "constant":
            return {"kind": "constant", "gamma": self.params["gamma"]}
        if self.kind == "polynomial":
            return {"kind": "poly", "coeffs": self.params["coeffs"]}
        return {"kind": "tabulated", "psi": self.params["psi"],
                "gamma": self.params["gamma"]}

    def __repr__(self):
        shown = {k: ("<%d values>" % len(v)) if isinstance(v, list) and
                 len(v) > 8 else v for k, v in self.params.items()}
        return "VorticityFunction(%s, m=%g, %r)" % (
            self.kind, self.m, shown)


def vorticity_from_config(spec, m):
    """Build a VorticityFunction from its run-config fragment."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("vorticity spec must be an object with a 'kind'")
    kind = spec["kind"]
    keys = set(spec)
    if kind == "constant":
        if keys != {"kind", "gamma"}:
            raise InputError("constant vorticity takes exactly {kind, gamma}")
        return VorticityFunction.constant(spec["gamma"], m)
    if kind == "poly":
        if keys != {"kind", "coeffs"}:
            raise InputError("poly vorticity takes exactly {kind, coeffs}")
        return VorticityFunction.polynomial(spec["coeffs"], m)
    if kind == "tabulated":
        if keys != {"kind", "psi", "gamma"}:
            raise InputError(
                "tabulated vorticity takes exactly {kind, psi, gamma}")
        return VorticityFunction.tabulated(spec["psi"], spec["gamma"], m)
    raise InputError("unknown vorticity kind %r" % (kind,))
