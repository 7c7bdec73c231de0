"""Laminar (trivial) flows, their quadrature and their root finder.

A laminar flow is x-independent with a flat surface. Bernoulli's law with
v = 0 gives the profile u0(s) = -sqrt(lambda + 2*Gamma(s)) in terms of
s = -psi, where lambda = u0(0)^2 is the squared surface speed. Its depth and
total head are

    d(lambda) = int_{-m}^0 ds / sqrt(lambda + 2 Gamma(s)),
    head(lambda) = lambda/2 + g * d(lambda),

the head being strictly convex on lambda > -2 min Gamma with a unique
minimizer lambda_c. The surface-vorticity smallness criteria built on
lambda_c live in audit.py, judged by the audit's one verdict rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError, NumericsError

# Each quadrature panel is integrated by an n-point and a 2n-point
# Gauss-Legendre rule, their nodes side by side in _PANEL_NODES.
_PANEL_RULE = 16
_COARSE_NODES, _COARSE_WEIGHTS = leggauss(_PANEL_RULE)
_FINE_NODES, _FINE_WEIGHTS = leggauss(2 * _PANEL_RULE)
_PANEL_NODES = np.concatenate([_COARSE_NODES, _FINE_NODES])
_QUAD_EPS = 1e-12        # absolute and relative tolerance
_QUAD_MAX_PANELS = 500
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAX_ITER = 100


def _admissible_floor(vf):
    return -2.0 * vf.Gamma_min()


def _require_admissible(vf, lam):
    floor = _admissible_floor(vf)
    if not lam > floor + 1e-12:
        raise InputError(
            "lambda=%g at or below the singular threshold %g" % (lam, floor))
    return floor


def _quad_checked(fn, a, b, what):
    """int_a^b fn by adaptive Gauss-Legendre quadrature, as a Python float.

    Each round integrates every open panel by the n- and 2n-point rules,
    evaluating fn once on all their nodes (fn takes arrays). A panel whose
    two values differ by at most its share by width of
    _QUAD_EPS max(1, |value|) is closed with the 2n-point value; the others
    are bisected while the panels number at most _QUAD_MAX_PANELS. The sum
    of the closed panels' differences bounds the error; NumericsError
    names `what` when it exceeds 1e-9 max(1, |value|).
    """
    if a == b:
        return 0.0
    n = _PANEL_RULE
    mid, half = np.array([0.5 * (a + b)]), np.array([0.5 * (b - a)])
    half_width = abs(half[0])
    val = err = 0.0
    panels = 1
    while True:
        f = fn(mid[:, None] + half[:, None] * _PANEL_NODES)
        coarse = half * (f[:, :n] @ _COARSE_WEIGHTS)
        fine = half * (f[:, n:] @ _FINE_WEIGHTS)
        diff = np.abs(fine - coarse)
        tol = _QUAD_EPS * max(1.0, abs(val + fine.sum()))
        open_ = diff > tol * np.abs(half) / half_width
        more = int(np.count_nonzero(open_))
        if panels + more > _QUAD_MAX_PANELS:
            open_[:] = False  # out of panels: the error check judges
        val += fine[~open_].sum()
        err += diff[~open_].sum()
        if not open_.any():
            break
        panels += more
        mid, half = mid[open_], 0.5 * half[open_]
        mid, half = np.concatenate([mid - half, mid + half]), np.tile(half, 2)
    if err > 1e-9 * max(1.0, abs(val)):
        raise NumericsError("quadrature for %s did not converge "
                            "(estimate %g, error %g)" % (what, val, err))
    return float(val)


def brent_root(f, a, b, xtol):
    """A root of f between a and b, where f changes sign, by Brent's method
    (Brent 1973, ch. 4): the secant or inverse quadratic interpolation step
    where it falls well inside the bracket, bisection otherwise. Stops once
    the bracket is within xtol + _ROOT_RTOL |x| of the current iterate x,
    the test of scipy's brentq, whose step rules it follows.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericsError("root finder: f(%r) is nan" % x)
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericsError("root finder: no sign change on [%r, %r] "
                            "(f = %g, %g)" % (xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        # xblk is the far end of the bracket, xcur the best iterate
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + _ROOT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            interpolate = (2.0 * abs(stry)
                           < min(abs(spre), 3.0 * abs(sbis) - delta))
        if interpolate:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise NumericsError("root finder: no convergence in %d iterations"
                        % _ROOT_MAX_ITER)


def laminar_depth(vf, lam):
    """d(lambda) = int_{-m}^0 ds/sqrt(lambda + 2 Gamma(s))."""
    _require_admissible(vf, lam)
    return _quad_checked(
        lambda s: (lam + 2.0 * vf.Gamma(s)) ** -0.5, -vf.m, 0.0, "depth")


def head_from_depth(lam, g, d):
    """Total head lambda/2 + g*d of the laminar flow of depth d."""
    return 0.5 * lam + g * d


def laminar_head(vf, lam, g):
    """Total head of the laminar flow with squared surface speed lambda."""
    return head_from_depth(lam, g, laminar_depth(vf, lam))


def head_slope(vf, lam, g):
    """d(head)/d(lambda) = 1/2 - (g/2) int (lambda+2Gamma)^(-3/2)."""
    _require_admissible(vf, lam)
    integral = _quad_checked(
        lambda s: (lam + 2.0 * vf.Gamma(s)) ** -1.5, -vf.m, 0.0, "head slope")
    return 0.5 - 0.5 * g * integral


def critical_lambda(vf, g):
    """The unique minimizer lambda_c of the laminar head.

    The slope is increasing (the head is strictly convex), tends to -inf at
    the singular edge of the admissible range and to 1/2 at large lambda, so
    a sign-change bracket always exists; it is found by stepping off the edge
    and doubling, then resolved by brent_root.
    """
    floor = _admissible_floor(vf)
    scale = max((g * vf.m) ** (2.0 / 3.0), abs(floor), 1e-9)
    left = None
    delta = 1e-4 * scale
    for _ in range(60):
        lam = floor + delta
        try:
            if head_slope(vf, lam, g) < 0.0:
                left = lam
                break
        except NumericsError:
            pass
        delta *= 0.25
    if left is None:
        raise NumericsError("no negative head slope near the admissible edge")
    right = None
    span = scale
    for _ in range(60):
        lam = left + span
        if head_slope(vf, lam, g) > 0.0:
            right = lam
            break
        span *= 2.0
    if right is None:
        raise NumericsError(
            "failed to bracket the head minimum within 60 doublings")
    return brent_root(lambda lam: head_slope(vf, lam, g), left, right,
                      1e-15 * scale)


@dataclass(frozen=True)
class LaminarFlow:
    """A trivial flow: vorticity function, squared surface speed, depth, head."""

    vf: object
    lam: float
    g: float
    d: float
    Q: float

    def u0(self, s):
        """Velocity profile as a function of s = -psi in [-m, 0]."""
        return -np.sqrt(self.lam + 2.0 * np.asarray(self.vf.Gamma(s)))

    def height(self, p):
        """Height above the bed as a function of p in [-m, 0].

        h(p) = int_{-m}^p ds/sqrt(lambda + 2 Gamma(s)); h(0) = d. Computed by
        per-interval quadrature on the requested nodes, one _quad_checked
        call per node (a zero-width interval gives 0): a reference to check
        discrete columns against.
        """
        p = np.atleast_1d(np.asarray(p, dtype=float))
        order = np.argsort(p)
        vals = np.empty_like(p)
        prev_p, prev_h = -self.vf.m, 0.0
        integrand = lambda s: (self.lam + 2.0 * self.vf.Gamma(s)) ** -0.5
        for idx in order:
            vals[idx] = prev_h + _quad_checked(
                integrand, prev_p, p[idx], "height")
            prev_p, prev_h = p[idx], vals[idx]
        return vals


def laminar_flow(vf, lam, g):
    """Construct the laminar flow at the given squared surface speed."""
    d = laminar_depth(vf, lam)
    return LaminarFlow(vf, float(lam), float(g), d, head_from_depth(lam, g, d))

