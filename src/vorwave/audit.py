"""Checks of the theory's identities and inequalities on a wave field.

Every claim the analysis makes about a steady wave is turned into a
diagnostic: sign conditions (streamline slope below one, u_x < 0, v > 0,
the vortex-force quantity at the trough), pointwise identities that must
hold up to discretization error (tangential surface relations, the
elliptic equations for u_x/u and v/u, Bernoulli constancy), the
pressure inequalities, and whether the grid resolves the crest (D-crest:
`boundary` on a wave that solver.crest_kink finds kinked, the predicate
that also ends a branch at "crest-unresolved"). Each diagnostic reports
a status, the extremal value, where it occurred, and the margin to the
constraint. `DIAGNOSTICS` lists them, one row each in report order: the
id, paper reference and description, the hypotheses the theorem needs,
and the check that computes the verdict from the quantities `_Auditor`
shares among the checks.
`HYPOTHESES` is the one table of those hypotheses, each evaluated once per
wave; a row whose hypothesis fails is reported not-applicable, naming the
first one that fails, and its check is not run. A new diagnostic is one
row and one check method. `audit_wave` runs the table on a field, under
the field's own vorticity, and returns an `AuditReport`; each entry of its
JSON form, the `vorwave audit` output, is one `Diagnostic`'s fields.

One verdict rule judges every inequality vorwave reports: `_strict` (or
`_nonstrict`) of a margin against a band, `_band(scale)` of the size of
the quantity bounded (the bare `_BOUNDARY_BAND` for unit-scale ones, zero
for D-ABC). The criteria of `vorwave dispersion`, `gamma_small_criterion`
and `gamma_smallest_criterion`, are judged by it too, with the scale
max(|lhs|, |rhs|).

Conventions: checks are evaluated on the computational half period
(crest column first, trough column last), the surface curve's geometry
too, and every location a check reports is one of its nodes; the surface
curve's winding over a full period is read from its half-period turn,
which the symmetry doubles; atmospheric pressure is read off the surface
row so that shifting P by a constant changes nothing; vorticity and its
derivatives come from the exact VorticityFunction samples, never from
finite differences of the velocity field.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StagnationError
from .fd import dq
from .laminar import critical_lambda
from .solver import crest_kink

PASS = "pass"
FAIL = "fail"
BOUNDARY = "boundary"
NOT_APPLICABLE = "not-applicable"

# A wave whose surface varies by less than this (relative to depth) is
# treated as laminar; strict-inequality checks that presume a genuine
# wave are then reported as not-applicable.
_TRIVIAL_HEIGHT = 1e-10

# The tolerances every audit judges by. An identity residual, normalized
# by its largest term magnitude, is compared against _RESIDUAL_SCALE *
# delta**2, delta being the coarsest grid spacing. A sign check within
# _band(scale) = _BOUNDARY_BAND * max(1, |scale|) of its bound reports
# "boundary" instead of pass or fail; D-ABC's band is zero. D-ABC divides
# by the surface v where it exceeds _V_FLOOR_REL * max |u| at the
# surface. D-bern allows a head spread of 1e-6 * max(1, |Q|), the surface
# equalities a gap of 1e-6 * g * d.
_RESIDUAL_SCALE = 10.0
_BOUNDARY_BAND = 1e-12
_V_FLOOR_REL = 1e-6


@dataclass
class Diagnostic:
    id: str
    description: str
    paper_ref: str
    status: str
    value: object
    location: tuple | None
    margin: float
    tolerance: float | None = None


@dataclass
class AuditReport:
    diagnostics: list

    def by_id(self, diag_id):
        for diag in self.diagnostics:
            if diag.id == diag_id:
                return diag
        raise KeyError(diag_id)

    @property
    def summary(self):
        counts = {"pass": 0, "fail": 0, "boundary": 0, "na": 0}
        key = {PASS: "pass", FAIL: "fail", BOUNDARY: "boundary",
               NOT_APPLICABLE: "na"}
        for diag in self.diagnostics:
            counts[key[diag.status]] += 1
        return counts

    def passed(self):
        return self.summary["fail"] == 0

    def as_json(self):
        """The entries, each one Diagnostic's fields, and the summary, with
        the numbers as computed; write_json makes them strict JSON. An
        entry is a shallow copy: its value and location are the
        Diagnostic's own."""
        return {
            "diagnostics": [dict(vars(d)) for d in self.diagnostics],
            "summary": self.summary,
        }


@dataclass
class SurfaceCurve:
    """The free surface traced as a flow line over the half period, on the
    surface row's nodes (crest first, trough last).

    theta is the unwrapped angle of (-u, -v), the surface tangent pointing
    from the crest toward the trough: the profile's inclination angle, zero
    at both ends, where v vanishes, and odd about each. dPdn is the
    outward normal pressure derivative.
    """

    theta: np.ndarray
    dPdn: np.ndarray

    @property
    def winding(self):
        """Turns over a full period: the curve is symmetric, so the turn
        over the full period is twice the half-period turn."""
        return int(round((self.theta[-1] - self.theta[0]) / np.pi))


def _band(scale):
    """The boundary band of a verdict on a quantity of size scale."""
    return _BOUNDARY_BAND * max(1.0, abs(scale))


def _strict(margin, band):
    if margin > band:
        return PASS
    if margin < -band:
        return FAIL
    return BOUNDARY


def _nonstrict(margin, band):
    if margin >= 0.0:
        return PASS
    if margin >= -band:
        return BOUNDARY
    return FAIL


def pressure_normal_derivative(wf):
    """Outward normal pressure derivative along the surface row.

    The outward normal is (v, -u)/|(u, v)|, so the derivative equals
    (v P_x - u P_y)/sqrt(u^2 + v^2). On a laminar flow this is -g.
    """
    us, vs = wf.u[:, -1], wf.v[:, -1]
    spd = np.hypot(us, vs)
    if np.min(spd) <= 0.0:
        raise StagnationError(
            "zero relative speed on the surface: normal direction undefined")
    Px, Py = wf.grad(wf.P, "even")
    return (vs * Px[:, -1] - us * Py[:, -1]) / spd


def surface_curve(wf):
    """The SurfaceCurve of the field's surface row."""
    theta = np.unwrap(np.arctan2(-wf.v[:, -1], -wf.u[:, -1]))
    return SurfaceCurve(theta=theta, dPdn=pressure_normal_derivative(wf))


def _extremum(wf, arr, pick, offset=(0, 0)):
    """The entry of arr that pick (np.argmax or np.argmin) selects, and its
    node (q, p). arr[0, 0] sits at node offset; a 1-D arr is the surface row
    from column offset[0] on."""
    k = np.unravel_index(pick(arr), arr.shape)
    j = k[1] + offset[1] if arr.ndim == 2 else -1
    return float(arr[k]), (float(wf.q[k[0] + offset[0]]), float(wf.p[j]))


def _not_applicable(name, hyp_margin, loc):
    """The verdict of a row whose hypothesis `name` fails by hyp_margin."""
    return (NOT_APPLICABLE, {"hypothesis": float(hyp_margin),
                             "conclusion": None, "failed": name},
            loc, float(hyp_margin))


class _Auditor:
    """One wave's shared arrays, tolerances and derived quantities, computed
    once; each check method returns its verdict, (status, value, location,
    margin[, tolerance]), and reads no attribute another check sets. The
    hypotheses of HYPOTHESES are evaluated on first use, all at once."""

    def __init__(self, wf, lam_c):
        self.wf = wf
        self.lam_c = lam_c
        vf = wf.vf
        g = wf.g
        self.g = g
        self.u, self.v = wf.u, wf.v
        self.us, self.vs = wf.u[:, -1], wf.v[:, -1]  # the surface row
        self.spd2 = wf.speed_squared()
        self.spd = np.sqrt(self.spd2)
        self.psi = -wf.p  # the wave's own psi nodes, bed to surface
        # gamma, gamma' and gamma'' on those nodes, sampled once
        self.gammas = [vf.gamma(self.psi, order) for order in range(3)]
        self.gam = self.gammas[0][None, :]
        self.gam_pp = self.gammas[2][None, :]
        self.gamma0 = vf.gamma(0.0)
        self.gamma0_p = vf.gamma(0.0, 1)
        # pressure above atmospheric, the surface row's mean
        self.excess = wf.P - float(np.mean(wf.P[:, -1]))
        self.eta_span = float(np.max(wf.eta) - np.min(wf.eta))
        # how far the surface is from flat; at or below zero the wave is
        # treated as laminar
        self.trivial_margin = self.eta_span - _TRIVIAL_HEIGHT * max(1.0, wf.d)
        self.trivial = self.trivial_margin <= 0.0
        self.bern_tol = 1e-6 * max(1.0, abs(wf.Q))
        self.eq_tol = 1e-6 * g * wf.d
        self.res_tol = _RESIDUAL_SCALE * wf.grid.delta ** 2
        self.v_floor = _V_FLOOR_REL * float(np.max(np.abs(self.us)))
        # streamline slope |v/u| and its maximum
        self.ratio = np.abs(self.v / self.u)
        self.slope_max, self.slope_loc = _extremum(wf, self.ratio, np.argmax)
        # the vortex force g + gamma u; where it is positive everywhere the
        # slope bound refines to sigma^2 = max (g - gamma u)/(g + gamma u),
        # otherwise sigma^2 = 1
        self.force = g + self.gam * self.u
        self.force_min, self.force_loc = _extremum(wf, self.force, np.argmin)
        self.sigma2 = (1.0 if self.force_min <= 0.0 else
                       float(np.max((g - self.gam * self.u) / self.force)))

    @cached_property
    def curve(self):
        """The surface curve, built once and shared by the diagnostics."""
        return surface_curve(self.wf)

    @cached_property
    def hypotheses(self):
        """name -> (margin, location, holds) for every HYPOTHESES entry."""
        return {name: entry(self) for name, entry in HYPOTHESES.items()}

    # -- hypotheses: each returns (margin, location, holds) -----------------

    def gamma_sign(self, order, sign):
        """sign * gamma^(order) >= 0 on the wave's psi nodes."""
        margin = float(np.min(sign * self.gammas[order]))
        return margin, None, margin >= 0.0

    def surface_favorable(self):
        """gamma(0) <= 0 and gamma'(0) <= 0."""
        margin = -max(self.gamma0, self.gamma0_p)
        return margin, None, margin >= 0.0

    def shifted_force(self):
        """max(gamma) |u|^2 - 4 g u >= 0 everywhere."""
        mn, loc = _extremum(self.wf, float(np.max(self.gam)) * self.spd2
                            - 4.0 * self.g * self.u, np.argmin)
        return mn, loc, mn >= 0.0

    def below_troughs(self):
        """Some node lies below the troughs: how far the lowest one does."""
        margin = float(np.min(self.wf.eta) - np.min(self.wf.y))
        return margin, None, margin > 0.0

    def v_above_floor(self):
        """Some surface node's v clears the floor D-ABC divides by."""
        margin = float(np.max(self.vs) - self.v_floor)
        return margin, None, margin > 0.0

    # -- helpers -----------------------------------------------------------

    def rel_residual(self, residual, *terms):
        """max |residual| over the largest summed term magnitude, and the
        node where |residual| peaks."""
        scale = float(np.max(sum(np.abs(t) for t in terms)))
        worst, loc = _extremum(self.wf, np.abs(residual), np.argmax)
        return worst / max(scale, 1e-300), loc

    def degrade(self, status, rel):
        """Weaken a sign-check pass to boundary when the identity residual
        exceeds the resolution yardstick: the finite differences backing the
        identity are then too coarse to certify it, but that is a statement
        about the grid, not about the wave, so it is never a failure."""
        if status == PASS and not rel <= self.res_tol:
            return BOUNDARY
        return status

    def identity(self, terms):
        """Judge the pointwise identity sum(terms) = 0, summed left to
        right, against the resolution yardstick: pass or boundary."""
        resid = terms[0]
        for term in terms[1:]:
            resid = resid + term
        rel, loc = self.rel_residual(resid, *terms)
        return (PASS if rel <= self.res_tol else BOUNDARY, rel, loc,
                self.res_tol - rel, self.res_tol)

    # -- individual diagnostics --------------------------------------------

    def slope(self):
        rmax = self.slope_max
        surf = float(np.max(self.ratio[:, -1]))
        margin = 1.0 - rmax
        return (_strict(margin, _BOUNDARY_BAND),
                {"ratio": rmax,
                 "angle_deg": float(np.degrees(np.arctan(rmax))),
                 "surface_angle_deg": float(np.degrees(np.arctan(surf)))},
                self.slope_loc, margin)

    def sigma(self):
        sigma = float(np.sqrt(self.sigma2))
        margin = sigma - self.slope_max
        return (_strict(margin, _BOUNDARY_BAND),
                {"sigma": sigma, "ratio": self.slope_max},
                self.slope_loc, margin)

    def ux_sign(self):
        mx, loc = _extremum(self.wf, self.wf.ux[1:-1, 1:], np.argmax, (1, 1))
        return _strict(-mx, _band(self.res_tol)), mx, loc, -mx

    def v_sign(self):
        mn, loc = _extremum(self.wf, self.v[1:-1, 1:], np.argmin, (1, 1))
        return _strict(mn, _band(self.res_tol)), mn, loc, mn

    def trough(self):
        val = self.g - self.gamma0 * self.u[-1, -1]
        # The horizontal strain at the trough is recorded alongside the
        # criterion because its sign there is an open question: it is
        # informational only and never judged.
        return (_strict(val, _band(self.g)),
                {"vortex_force": float(val),
                 "trough_uxx": float(self.wf.uxx[-1, -1])},
                (self.wf.L, 0.0), float(val))

    def speed_gap(self):
        wf = self.wf
        f = 0.5 * (self.u ** 2 - self.v ** 2)
        fx, fy = wf.grad(f, "even")
        lhs = self.u * fx + self.v * fy
        rhs = self.spd2 * wf.ux - self.gam * self.u * self.v
        rel, _ = self.rel_residual(lhs - rhs, self.u * fx, self.v * fy,
                                   self.spd2 * wf.ux, self.gam * self.u * self.v)
        fmin, loc = _extremum(wf, f, np.argmin)
        status = self.degrade(_strict(fmin, _band(self.spd2.max())), rel)
        return (status, {"min": fmin, "identity_residual": rel}, loc, fmin,
                self.res_tol)

    def alpha_identity(self):
        wf = self.wf
        alpha = self.sigma2
        fa = alpha * self.u ** 2 - self.v ** 2
        fax, fay = wf.grad(fa, "even")
        lhs = self.u * fax + self.v * fay
        rhs = ((alpha + 1.0) * self.spd2 * wf.ux
               - (alpha * self.force + self.gam * self.u - self.g) * self.v)
        # The equality uses the tangential surface relation to eliminate u_y,
        # so it binds on the surface row only; the sign bound below holds on
        # the whole half period.
        rel, _ = self.rel_residual(
            (lhs - rhs)[:, -1], (self.u * fax)[:, -1],
            (self.v * fay)[:, -1], rhs[:, -1])
        mx, loc = _extremum(wf, rhs[1:-1, :], np.argmax, (1, 0))
        status = self.degrade(
            _nonstrict(-mx, _band(self.g * self.spd2.max())), rel)
        return (status, {"max": mx, "identity_residual": rel}, loc, -mx,
                self.res_tol)

    def w_pde(self):
        wf = self.wf
        w = wf.ux / self.u
        wx, wy = wf.grad(w, "odd")
        lap_x, lap_y = wf.grad(wx, "even")[0], wf.grad(wy, "odd")[1]
        drift = 2.0 * w * wx + 2.0 * (wf.uy / self.u) * wy
        source = self.gam_pp * self.v
        resid = lap_x + lap_y + drift - source
        # The two second derivatives cancel almost exactly (the field is
        # near-harmonic), so the residual is scaled against them separately.
        rel, loc = self.rel_residual(resid, lap_x, lap_y, drift, source)
        mx_src = float(np.max(source))
        status = self.degrade(_nonstrict(-mx_src, _BOUNDARY_BAND), rel)
        return (status, {"residual": rel, "max_source": mx_src}, loc,
                -mx_src, self.res_tol)

    def s_pde(self):
        wf = self.wf
        s = self.v / self.u
        sx, sy = wf.grad(s, "odd")
        lap_x, lap_y = wf.grad(sx, "even")[0], wf.grad(sy, "odd")[1]
        # Drift derived from first principles (eliminate u_y and v_x through
        # the curl and divergence relations): the two gamma terms carry
        # opposite signs. Verified against the trochoidal closed forms,
        # where the same-sign variant misses by O(1).
        t1 = 2.0 * self.v * (self.gam - self.u * sx) / self.spd2 * sx
        t2 = -2.0 * self.u * (self.gam + self.v * sy) / self.spd2 * sy
        return self.identity([lap_x, lap_y, t1, t2])

    def surface_first(self):
        us, vs = self.us, self.vs
        uxs, uys = self.wf.ux[:, -1], self.wf.uy[:, -1]
        return self.identity([(vs ** 2 - us ** 2) * uxs, -2.0 * us * vs * uys,
                              -self.g * vs, -self.gamma0 * us * vs])

    def surface_second(self):
        wf = self.wf
        us, vs = self.us, self.vs
        uxs, uys = wf.ux[:, -1], wf.uy[:, -1]
        uxxs, uxys = wf.uxx[:, -1], wf.uxy[:, -1]
        g, gam0, gam0p = self.g, self.gamma0, self.gamma0_p
        spd2 = us ** 2 + vs ** 2
        return self.identity([
            -2.0 * spd2 * (uxs ** 2 + uys ** 2),
            g * vs * uxs,
            -g * us * uys,
            (3.0 * us * vs ** 2 - us ** 3) * uxxs,
            (vs ** 3 - 3.0 * us ** 2 * vs) * uxys,
            -gam0 * ((3.0 * us ** 2 + vs ** 2) * uys
                     - 2.0 * us * vs * uxs + g * us),
            2.0 * gam0p * us ** 2 * vs ** 2,
            -gam0 ** 2 * us ** 2,
        ])

    def abc_coefficients(self):
        wf = self.wf
        us, vs = self.us, self.vs
        admitted = vs > self.v_floor
        ua, va = us[admitted], vs[admitted]
        spd2 = ua ** 2 + va ** 2
        g, gam0, gam0p = self.g, self.gamma0, self.gamma0_p
        bound_q = (g * (ua ** 4 - 4.0 * ua ** 2 * va ** 2 - va ** 4)
                   - gam0 * ua ** 3 * (ua ** 2 + 5.0 * va ** 2))
        A = -ua * spd2 ** 2 / (4.0 * va ** 3)
        C = -va * (g ** 2 + g * gam0 * ua - 4.0 * gam0p * ua ** 4) \
            / (4.0 * ua ** 3 * spd2)
        min_a, min_c = float(np.min(A)), float(np.min(C))
        margin = min(min_a, min_c)
        qa = wf.q[admitted]
        loc_idx = int(np.argmin(A if min_a <= min_c else C))
        return (_strict(margin, 0.0),
                {"min_A": min_a, "min_C": min_c,
                 "bound_max": float(np.max(bound_q))},
                (float(qa[loc_idx]), 0.0), margin)

    def pressure_basic(self):
        wf = self.wf
        fp = self.excess + self.g * wf.y
        lo = self.g * float(np.min(wf.eta))
        hi = self.g * float(np.max(wf.eta))
        viol, loc = _extremum(wf, np.maximum(lo - fp, fp - hi), np.argmax)
        # The reconstructed pressure is itself O(delta^2) accurate, so the
        # two-sided bound can only be asked to hold at that resolution.
        bound_tol = self.res_tol * self.g * wf.d
        status = PASS if viol <= bound_tol else FAIL
        clearance = None
        eq_crest = eq_trough = None
        if not self.trivial:
            surf = fp[:, -1]
            inner = slice(2, wf.nq - 2)
            gaps = np.minimum(hi - surf[inner], surf[inner] - lo)
            clearance = float(np.min(gaps)) if gaps.size else None
            eq_crest = float(abs(hi - surf[0]))
            eq_trough = float(abs(surf[-1] - lo))
            too_close = clearance is not None and clearance < self.eq_tol
            if too_close or max(eq_crest, eq_trough) > self.eq_tol:
                status = FAIL
        return (status,
                {"violation": viol, "clearance": clearance,
                 "crest_equality_gap": eq_crest,
                 "trough_equality_gap": eq_trough},
                loc, -viol, bound_tol)

    def pressure_curvature(self):
        wf = self.wf
        crest, trough = float(wf.eta_xx[0]), float(wf.eta_xx[-1])
        margin = min(-crest, trough)
        loc = (0.0, 0.0) if -crest <= trough else (wf.L, 0.0)
        return (_strict(margin, _band(self.eta_span)),
                {"crest_curvature": crest, "trough_curvature": trough},
                loc, margin)

    def pressure_bed_range(self):
        wf = self.wf
        bed = wf.P[:, :1]  # the bed row as an (nq, 1) block at p[0]
        spread = float(np.max(bed) - np.min(bed)) / self.g
        margin = self.eta_span - spread
        return (_strict(margin, _band(self.eta_span)),
                {"height": self.eta_span, "bed_range_over_g": spread},
                _extremum(wf, bed, np.argmax)[1], margin)

    def pressure_below_troughs(self):
        wf = self.wf
        mask = wf.y < float(np.min(wf.eta))
        below = np.where(mask, self.excess, np.inf)
        mn, loc = _extremum(wf, below, np.argmin)
        return _strict(mn, _band(self.g * wf.d)), mn, loc, mn

    def pressure_top(self):
        wf = self.wf
        mn_int, loc_int = _extremum(wf, self.excess[:, :-1], np.argmin)
        mx_dpdn, loc_dpdn = _extremum(wf, self.curve.dPdn, np.argmax)
        surf_eq = float(np.max(np.abs(self.excess[:, -1])))
        margin = min(mn_int, -mx_dpdn)
        status = _strict(margin, _band(self.g * wf.d))
        if surf_eq > self.eq_tol:
            status = FAIL
        return (status, {"hypothesis": self.force_min, "conclusion": margin},
                loc_int if mn_int <= -mx_dpdn else loc_dpdn, margin,
                self.eq_tol)

    def pressure_shifted(self):
        wf = self.wf
        shifted = self.excess + 0.5 * float(np.max(self.gam)) * self.psi
        mn_int, loc = _extremum(wf, shifted[:, :-1], np.argmin)
        return (_strict(mn_int, _band(self.g * wf.d)),
                {"hypothesis": self.hypotheses["shifted-force>=0"][0],
                 "conclusion": mn_int}, loc, mn_int)

    def speed_max_at_trough(self):
        outside = self.spd.copy()
        outside[-2:, -2:] = -np.inf
        margin = float(self.spd[-1, -1] - np.max(outside))
        top, loc = _extremum(self.wf, self.spd, np.argmax)
        return (_nonstrict(margin, _band(top)),
                {"hypothesis": self.hypotheses["gamma>=0"][0],
                 "conclusion": margin}, loc, margin)

    def speed_min_at_crest(self):
        outside = self.spd.copy()
        outside[:2, -2:] = np.inf
        margin = float(np.min(outside) - self.spd[0, -1])
        _, loc = _extremum(self.wf, self.spd, np.argmin)
        return (_nonstrict(margin, _band(np.max(self.spd))),
                {"hypothesis": self.hypotheses["gamma<=0"][0],
                 "conclusion": margin}, loc, margin)

    def bernoulli(self):
        wf = self.wf
        head = (self.excess + 0.5 * self.spd2
                + self.g * (wf.y + wf.d) - wf.vf.Gamma(wf.p)[None, :])
        spread = float(np.max(head) - np.min(head))
        _, loc = _extremum(wf, np.abs(head - np.median(head)), np.argmax)
        return (PASS if spread <= self.bern_tol else FAIL, spread, loc,
                self.bern_tol - spread, self.bern_tol)

    def head_reduction(self):
        wf = self.wf
        uc2, ut2 = float(self.us[0] ** 2), float(self.us[-1] ** 2)
        ident_gap = abs(ut2 - uc2
                        - 2.0 * self.g * float(wf.eta[0] - wf.eta[-1]))
        lam_c = self.lam_c
        margin = min(uc2 + 2.0 * self.g * wf.L - ut2, lam_c - uc2)
        status = _strict(margin, _band(lam_c))
        if ident_gap > self.eq_tol:
            status = FAIL
        return (status,
                {"identity_gap": ident_gap, "crest_speed_sq": uc2,
                 "trough_speed_sq": ut2, "lambda_c": lam_c},
                (wf.L, 0.0), margin, self.eq_tol)

    def speed_monotone(self):
        wf = self.wf
        Wx = dq(self.us ** 2, wf.grid.wq1, "even")
        mn, loc = _extremum(wf, Wx[1:-1], np.argmin, (1, 0))
        return _strict(mn, _band(np.max(np.abs(Wx)))), mn, loc, mn

    def turning_angle(self):
        wf = self.wf
        theta, dpdn = self.curve.theta, self.curve.dPdn
        # The tangent angle's derivative in x, then the chain rule to s;
        # the flow direction (u, v) has the angle theta + pi.
        theta_s = self.us * dq(theta, wf.grid.wq1, "odd")
        rhs = -self.g * np.cos(theta) / np.hypot(self.us, self.vs)
        applies = dpdn <= 0.0
        if np.any(applies):
            margins = theta_s[applies] - rhs[applies]
            mn = float(np.min(margins))
            where = np.nonzero(applies)[0][int(np.argmin(margins))]
            loc = (float(wf.q[where]), 0.0)
        else:
            mn, loc = np.inf, None
        winding = self.curve.winding
        status = _nonstrict(mn, _band(self.g))
        if winding != 0:
            status = FAIL
        return status, {"winding": winding, "min_margin": mn}, loc, mn

    def overturn(self):
        wf = self.wf
        mx_u, loc = _extremum(wf, self.us, np.argmax)
        if mx_u < 0.0:
            return (PASS, {"overturning": False, "max_surface_u": mx_u},
                    loc, -mx_u)
        sink, loc = _extremum(wf, self.curve.dPdn, np.argmax)
        return (_strict(sink, _band(self.g)),
                {"overturning": True, "max_dPdn": sink}, loc, sink)

    def crest(self):
        # the margin counts the nodes between the steepest surface slope and
        # the first node off the crest: 0 on a kinked wave
        kinked, node, slope = crest_kink(self.wf.grid, self.wf.h)
        return (BOUNDARY if kinked else PASS,
                {"steepest_node": node,
                 "angle_deg": float(np.degrees(np.arctan(slope))),
                 "reason": "crest unresolved on this grid" if kinked
                 else None},
                (float(self.wf.q[node]), 0.0), float(node - 1))

    def bed_strain(self):
        wf = self.wf
        w_bed = wf.ux[:, :1] / self.u[:, :1]
        mn, loc = _extremum(wf, w_bed[1:-1], np.argmin, (1, 0))
        status = _strict(mn, _band(self.res_tol))
        if not (wf.ux[0, 0] == 0.0 and wf.ux[-1, 0] == 0.0):
            status = FAIL
        return (status,
                {"min": mn,
                 "end_values": [float(w_bed[0, 0]), float(w_bed[-1, 0])]},
                loc, mn)


# The theorems' hypotheses: name -> function of the wave's _Auditor giving
# (margin, location, holds). FAVORABLE is the paper's favorable vorticity,
# gamma, gamma', gamma'' <= 0 on the wave's own psi nodes; "force" is the
# vortex force g + gamma u, "shifted-force" max(gamma) |u|^2 - 4 g u;
# "not-flat" asks for a genuine wave, and the last two for something to
# check at all.
HYPOTHESES = {
    "gamma<=0": lambda a: a.gamma_sign(0, -1.0),
    "gamma'<=0": lambda a: a.gamma_sign(1, -1.0),
    "gamma''<=0": lambda a: a.gamma_sign(2, -1.0),
    "gamma>=0": lambda a: a.gamma_sign(0, 1.0),
    "surface-gamma,gamma'<=0": _Auditor.surface_favorable,
    "force>0": lambda a: (a.force_min, a.force_loc, a.force_min > 0.0),
    "force>=0": lambda a: (a.force_min, a.force_loc, a.force_min >= 0.0),
    "shifted-force>=0": _Auditor.shifted_force,
    "not-flat": lambda a: (a.trivial_margin, None, not a.trivial),
    "node-below-troughs": _Auditor.below_troughs,
    "v-above-floor": _Auditor.v_above_floor,
}
FAVORABLE = ("gamma<=0", "gamma'<=0", "gamma''<=0")

# One row per diagnostic, in report order: (id, paper_ref, description,
# hypotheses, check). The hypotheses are HYPOTHESES names, tested in order;
# the check takes the wave's _Auditor and returns (status, value, location,
# margin[, tolerance]).
DIAGNOSTICS = (
    ("D-slope", "bound:streamline-slope",
     "streamline slope stays below one", FAVORABLE, _Auditor.slope),
    ("D-sigma", "bound:slope-refined",
     "refined slope bound via the vortex-force ratio", ("force>0",),
     _Auditor.sigma),
    ("D-ux", "sign:ux",
     "horizontal velocity strictly decreasing in x", (), _Auditor.ux_sign),
    ("D-mono", "sign:v",
     "vertical velocity positive on the half period", (), _Auditor.v_sign),
    ("D-trough", "criterion:vortex-force-trough",
     "vortex-force criterion at the trough", (), _Auditor.trough),
    ("D-f", "identity:speed-gap",
     "u^2 exceeds v^2 and the gap obeys its flow identity", (),
     _Auditor.speed_gap),
    ("D-alpha", "identity:weighted-speed-gap",
     "weighted speed gap decreases along the flow", (),
     _Auditor.alpha_identity),
    ("D-w-pde", "pde:relative-strain",
     "elliptic equation for the relative strain u_x/u", (), _Auditor.w_pde),
    ("D-s-pde", "pde:streamline-slope",
     "elliptic equation for the streamline slope v/u", (), _Auditor.s_pde),
    ("D-p1", "surface:first-tangential",
     "first tangential derivative of surface Bernoulli", (),
     _Auditor.surface_first),
    ("D-p2", "surface:second-tangential",
     "second tangential derivative of surface Bernoulli", (),
     _Auditor.surface_second),
    ("D-ABC", "surface:curvature-coefficients",
     "curvature coefficients of the surface strain equation",
     ("surface-gamma,gamma'<=0", "v-above-floor"), _Auditor.abc_coefficients),
    ("D-press-a", "pressure:(a)",
     "modified pressure bounded by surface extremes", (),
     _Auditor.pressure_basic),
    ("D-press-b", "pressure:(b)",
     "surface concave at the crest, convex at the trough", ("not-flat",),
     _Auditor.pressure_curvature),
    ("D-press-c", "pressure:(c)",
     "wave height exceeds the bed pressure range over g", ("not-flat",),
     _Auditor.pressure_bed_range),
    ("D-press-d", "pressure:(d)",
     "pressure above atmospheric below the troughs", ("node-below-troughs",),
     _Auditor.pressure_below_troughs),
    ("D-press-e", "pressure:(e)",
     "nonnegative vortex force keeps pressure above atmospheric",
     ("force>=0",), _Auditor.pressure_top),
    ("D-press-f", "pressure:(f)",
     "vorticity-shifted pressure above atmospheric", ("shifted-force>=0",),
     _Auditor.pressure_shifted),
    ("D-press-g", "pressure:(g)",
     "nonnegative vorticity puts the speed maximum at the trough",
     ("gamma>=0", "not-flat"), _Auditor.speed_max_at_trough),
    ("D-press-h", "pressure:(h)",
     "nonpositive vorticity puts the speed minimum at the crest",
     ("gamma<=0", "not-flat"), _Auditor.speed_min_at_crest),
    ("D-bern", "identity:total-head",
     "total head constant across the strip", (), _Auditor.bernoulli),
    ("D-reduce", "surface:head-reduction",
     "trough speed bounded through the crest speed", (),
     _Auditor.head_reduction),
    ("D-monotone-u2", "surface:speed-monotone",
     "surface speed squared increases from crest to trough", ("not-flat",),
     _Auditor.speed_monotone),
    ("D-angle", "surface:turning-angle",
     "surface tangent angle turns without winding", (),
     _Auditor.turning_angle),
    ("D-overturn", "surface:pressure-sink",
     "overturning waves need a pressure sink", (), _Auditor.overturn),
    ("D-w-bed", "sign:bed-strain",
     "relative strain positive on the open bed row", (), _Auditor.bed_strain),
    ("D-crest", "resolution:crest-kink",
     "surface slope peaks past the first node off the crest", ("not-flat",),
     _Auditor.crest),
)


def _verdict(a, hypotheses, check):
    """The check's verdict, or not-applicable for the first of the row's
    hypotheses that fails."""
    for name in hypotheses:
        margin, loc, holds = a.hypotheses[name]
        if not holds:
            return _not_applicable(name, margin, loc)
    return check(a)


def audit_wave(wf, lam_c=None):
    """Run every diagnostic of DIAGNOSTICS on a wave field, under the
    field's own VorticityFunction wf.vf.

    lam_c is critical_lambda(wf.vf, wf.g), computed here when None; callers
    auditing many waves of one branch pass it in to skip the quadrature.
    Returns an AuditReport; continuation.write_json of its as_json() is the
    CLI report.
    """
    if lam_c is None:
        lam_c = critical_lambda(wf.vf, wf.g)
    a = _Auditor(wf, lam_c)
    return AuditReport([
        Diagnostic(diag_id, description, ref, *_verdict(a, hyps, check))
        for diag_id, ref, description, hyps, check in DIAGNOSTICS])


# -- surface-vorticity smallness criteria ----------------------------------

@dataclass(frozen=True)
class CriterionResult:
    name: str
    lhs: float
    rhs: float
    status: str          # pass | fail | boundary
    margin: float        # rhs - lhs (positive is passing)
    note: str = ""

    @property
    def passed(self):
        return self.status == PASS


def _less(lhs, rhs):
    """The verdict on lhs < rhs, in the band of the larger side."""
    return _strict(rhs - lhs, _band(max(abs(lhs), abs(rhs))))


def gamma_small_criterion(vf, g, L, lam_c=None):
    """Surface-vorticity smallness: gamma(0)^2 < g^2/(2gL + lambda_c)."""
    if lam_c is None:
        lam_c = critical_lambda(vf, g)
    lhs = vf.gamma(0.0) ** 2
    rhs = g * g / (2.0 * g * L + lam_c)
    return CriterionResult("gammasmall", lhs, rhs, _less(lhs, rhs), rhs - lhs)


def gamma_smallest_criterion(vf, g, L, lam_c=None):
    """Refined smallness test using only g, L, m, and gamma(0).

    Evaluates 1/sqrt(1 - 2L*gamma0^2/g) - 1/sqrt(1 - 2L*gamma0^2/g
    - 2*gamma0^3*m/g^2) < 1. Fails with a reason when a radicand is
    nonpositive; lhs is then inf, written null. For constant vorticity this
    is equivalent to the gamma_small criterion; the cross-check is reported
    in the note.
    """
    gamma0 = vf.gamma(0.0)
    r1 = 1.0 - 2.0 * L * gamma0 ** 2 / g
    r2 = r1 - 2.0 * gamma0 ** 3 * vf.m / g ** 2
    notes = []
    if r1 <= 0.0 or r2 <= 0.0:
        lhs, status = math.inf, FAIL
        notes.append("radicand nonpositive")
    else:
        lhs = 1.0 / math.sqrt(r1) - 1.0 / math.sqrt(r2)
        status = _less(lhs, 1.0)
    if vf.kind == "constant":
        small = gamma_small_criterion(vf, g, L, lam_c=lam_c).status
        agree = small == status or BOUNDARY in (small, status)
        notes.append("constant-vorticity cross-check with gammasmall: %s"
                     % ("agrees" if agree else "DISAGREES"))
    return CriterionResult("gammasmallest", lhs, 1.0, status, 1.0 - lhs,
                           "; ".join(notes))
