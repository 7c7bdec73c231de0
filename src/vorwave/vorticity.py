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

import math
import numbers
from functools import partial

import numpy as np
from numpy.polynomial import Polynomial

from .errors import InputError

_DOMAIN_SLACK = 1e-12
# each kind's keys besides "kind", in the order to_config writes them
_KEYS = {"constant": ("gamma",), "poly": ("coeffs",),
         "tabulated": ("psi", "gamma")}


def _number(value, key):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError("%s must be a number, got %r" % (key, value))
    value = float(value)
    if not math.isfinite(value):
        raise InputError("%s must be finite, got %r" % (key, value))
    return value


def _numbers(values, key):
    if not isinstance(values, (list, tuple)) or not values:
        raise InputError("%s must be a nonempty array of numbers, got %r"
                         % (key, values))
    return [_number(v, "%s[%d]" % (key, i)) for i, v in enumerate(values)]


def _floats(values):
    """Array input as a list of floats, for a spec fragment."""
    return np.asarray(values, dtype=float).tolist()


class VorticityFunction:
    """gamma(psi) on [0, m] with two derivatives and the antiderivative Gamma,
    built from its run-config fragment `spec`:

    - {"kind": "constant", "gamma": v}, the degree-0 polynomial v;
    - {"kind": "poly", "coeffs": [c0, c1, ...]}, a polynomial in psi,
      coefficients lowest degree first; closed forms for everything;
    - {"kind": "tabulated", "psi": [...], "gamma": [...]}, samples from
      psi = 0 to m smoothed by a cubic spline (C2, the minimum regularity
      the second-derivative sign condition needs).

    Every key and value is checked here: InputError names the first bad one.
    """

    def __init__(self, spec, m):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise InputError("vorticity spec must be an object with a 'kind'")
        kind = spec["kind"]
        if kind not in _KEYS:
            raise InputError("unknown vorticity kind %r" % (kind,))
        if set(spec) != {"kind", *_KEYS[kind]}:
            raise InputError("%s vorticity takes exactly {%s}"
                             % (kind, ", ".join(("kind",) + _KEYS[kind])))
        m = _number(m, "flux m")
        if m <= 0:
            raise InputError("flux m must be positive, got %r" % (m,))
        self.kind = kind
        self.m = m
        check = _number if kind == "constant" else _numbers
        kept = self._spec = {"kind": kind}
        kept.update((key, check(spec[key], key)) for key in _KEYS[kind])
        if kind == "tabulated":
            stationary = self._interpolate(kept["psi"], kept["gamma"])
        else:  # a constant is the degree-0 polynomial
            stationary = self._polynomial(
                kept["coeffs"] if kind == "poly" else [kept["gamma"]])
        # the candidates for min Gamma: the ends of [-m, 0] and the interior
        # roots of Gamma'(s) = gamma(-s)
        self._extrema = np.concatenate([[-m, 0.0], stationary])

    def _polynomial(self, coeffs):
        poly = Polynomial(coeffs)
        self._gamma = (poly, poly.deriv(1), poly.deriv(2))  # by order
        # Gamma(s) = -G(-s) for G = int gamma: flip the coefficient signs
        # on even powers of s
        gcoef = poly.integ().coef.copy()
        gcoef *= -((-1.0) ** np.arange(gcoef.size))
        self._Gamma = Polynomial(gcoef)
        roots = self._Gamma.deriv().roots()
        real = roots[np.abs(roots.imag) < 1e-12].real
        return real[(real > -self.m) & (real < 0.0)]

    def _interpolate(self, psi, gamma):
        if len(psi) < 4:
            raise InputError("tabulated vorticity needs at least 4 samples")
        if len(psi) != len(gamma):
            raise InputError("psi and gamma sample arrays differ in length")
        if np.any(np.diff(psi) <= 0):
            raise InputError("psi samples must be strictly increasing")
        if psi[0] != 0.0:
            raise InputError("psi samples must start at 0")
        if abs(psi[-1] - self.m) > _DOMAIN_SLACK * max(1.0, self.m):
            raise InputError("psi samples must end at m")
        from scipy.interpolate import CubicSpline  # here: this kind only
        spline = CubicSpline(psi, gamma)
        anti = spline.antiderivative()
        self._gamma = tuple(partial(spline, nu=order) for order in range(3))
        self._Gamma = lambda s: -anti(-s)
        # gamma(-s) = 0 at s = -psi for each zero psi of the spline
        zeros = np.atleast_1d(spline.roots(extrapolate=False))
        return -zeros[(zeros > 0.0) & (zeros < self.m)]

    # -- spec builders -----------------------------------------------------

    @classmethod
    def constant(cls, value, m=1.0):
        return cls({"kind": "constant", "gamma": value}, m)

    @classmethod
    def polynomial(cls, coeffs, m=1.0):
        """Polynomial in psi, coefficients lowest degree first."""
        return cls({"kind": "poly", "coeffs": _floats(coeffs)}, m)

    @classmethod
    def tabulated(cls, psi_samples, gamma_samples, m=None):
        """Cubic spline through the samples; m defaults to the last psi."""
        psi = _floats(psi_samples)
        return cls({"kind": "tabulated", "psi": psi,
                    "gamma": _floats(gamma_samples)},
                   psi[-1] if m is None and psi else m)

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
        out = self._gamma[order](np.clip(psi_arr, 0.0, self.m))
        return float(out) if np.isscalar(psi) else out

    def Gamma(self, s):
        """Gamma(s) = int_0^s gamma(-p) dp for s in [-m, 0]."""
        s_arr = np.asarray(s, dtype=float)
        slack = _DOMAIN_SLACK * max(1.0, self.m)
        if np.any(s_arr < -self.m - slack) or np.any(s_arr > slack):
            raise InputError("s outside [-m, 0] = [%g, 0]" % -self.m)
        out = self._Gamma(np.clip(s_arr, -self.m, 0.0))
        return float(out) if np.isscalar(s) else out

    def Gamma_min(self):
        """min of Gamma over [-m, 0]; -2*Gamma_min bounds lambda from below.
        Its candidates, found at construction, are the ends and the
        interior stationary points: exact roots for a polynomial, the
        spline's own otherwise."""
        return float(np.min(self._Gamma(self._extrema)))

    def to_config(self):
        """The run-config fragment this vorticity was built from, its
        numbers as floats; JSON-clean and round-trippable."""
        return self._spec

    def __repr__(self):
        shown = {k: ("<%d values>" % len(v)) if isinstance(v, list) and
                 len(v) > 8 else v for k, v in self._spec.items()
                 if k != "kind"}
        return "VorticityFunction(%s, m=%g, %r)" % (
            self.kind, self.m, shown)
