"""Checks of the theory's identities and inequalities on a wave field.

Every claim the analysis makes about a steady wave is turned into a
diagnostic: sign conditions (streamline slope below one, u_x < 0, v > 0,
the vortex-force quantity at the trough), pointwise identities that must
hold up to discretization error (tangential surface relations, the
elliptic equations for u_x/u and v/u, Bernoulli constancy), and the
pressure inequalities with their hypotheses. Each diagnostic reports a
status, the extremal value, where it occurred, and the margin to the
constraint. `audit_wave` runs the full set and returns an `AuditReport`
whose JSON form is the `vorwave audit` output.

Conventions: checks are evaluated on the computational half period
(crest column first, trough column last); atmospheric pressure is read
off the surface row so that shifting P by a constant changes nothing;
vorticity and its derivatives come from the exact VorticityFunction
samples, never from finite differences of the velocity field.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, StagnationError
from .fd import dq, three_point_weights
from .laminar import critical_lambda

PASS = "pass"
FAIL = "fail"
BOUNDARY = "boundary"
NOT_APPLICABLE = "not-applicable"

# A wave whose surface varies by less than this (relative to depth) is
# treated as laminar; strict-inequality checks that presume a genuine
# wave are then reported as not-applicable.
_TRIVIAL_HEIGHT = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Tolerance set for an audit run.

    bern and eq default to wave-dependent values (1e-6 * max(1, |Q|) and
    1e-6 * g * d) when left as None. Residual identities are compared
    against residual_scale * delta**2 after normalizing by the largest
    term magnitude, delta being the coarsest grid spacing. boundary_band
    is the relative half-width inside which a sign check reports
    "boundary" instead of pass or fail.
    """

    bern: float | None = None
    eq: float | None = None
    residual_scale: float = 10.0
    boundary_band: float = 1e-12
    v_floor_rel: float = 1e-6


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

    def json_entry(self):
        loc = None
        if self.location is not None:
            loc = [float(self.location[0]), float(self.location[1])]
        return {
            "id": self.id,
            "status": self.status,
            "value": _jsonable(self.value),
            "location": loc,
            "margin": _jsonable(self.margin),
            "paper_ref": self.paper_ref,
            "description": self.description,
            "tolerance": _jsonable(self.tolerance),
        }


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
        return {
            "diagnostics": [d.json_entry() for d in self.diagnostics],
            "summary": self.summary,
        }


@dataclass
class SurfaceCurve:
    """The free surface traced as a flow line over one full period.

    The parameter s satisfies (X'(s), Y'(s)) = (u, v) at the surface, so
    with u < 0 the curve runs from the trough leftward through the crest.
    theta is the unwrapped tangent angle, dPdn the outward normal
    pressure derivative and (u, v) the velocity at each sample.
    """

    s: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    theta: np.ndarray
    dPdn: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def winding(self):
        turn = self.theta[-1] - self.theta[0]
        return int(round(turn / (2.0 * np.pi)))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None:
        return None
    out = float(value)
    # Strict JSON has no Infinity/NaN token; a vacuous extremum serializes
    # as null.
    return out if math.isfinite(out) else None


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
    Px = wf.dx(wf.P, "even")[:, -1]
    Py = wf.dy(wf.P)[:, -1]
    return (vs * Px - us * Py) / spd


def surface_curve(wf):
    """Build the full-period SurfaceCurve by reflecting the half period."""
    us, vs = wf.u[:, -1], wf.v[:, -1]
    dpdn_half = pressure_normal_derivative(wf)
    # Even quantities mirror, v flips sign; drop the duplicated trough
    # column so the samples cover [0, 2L) once.
    mirror = slice(-2, 0, -1)
    x = np.concatenate([wf.q, 2.0 * wf.L - wf.q[mirror]])
    u_full = np.concatenate([us, us[mirror]])
    v_full = np.concatenate([vs, -vs[mirror]])
    y_full = np.concatenate([wf.eta, wf.eta[mirror]])
    dpdn = np.concatenate([dpdn_half, dpdn_half[mirror]])
    theta = np.unwrap(np.arctan2(v_full, u_full))
    # ds = dx / u: cumulative trapezoid, s(0) = 0.
    inv_u = 1.0 / u_full
    ds = 0.5 * np.diff(x) * (inv_u[1:] + inv_u[:-1])
    s = np.concatenate([[0.0], np.cumsum(ds)])
    return SurfaceCurve(s=s, X=x, Y=y_full, theta=theta, dPdn=dpdn,
                        u=u_full, v=v_full)


def _node_loc(wf, i, j):
    return (float(wf.q[i]), float(wf.p[j]))


def _argmax_loc(wf, arr):
    i, j = np.unravel_index(np.argmax(arr), arr.shape)
    return _node_loc(wf, i, j)


def _argmin_loc(wf, arr):
    i, j = np.unravel_index(np.argmin(arr), arr.shape)
    return _node_loc(wf, i, j)


class _Auditor:
    """Carries the shared arrays and tolerances while the list is built."""

    def __init__(self, wf, vf, tol, lam_c):
        self.wf = wf
        self.vf = vf
        self.tol = tol
        self.lam_c = lam_c
        g = wf.g
        self.g = g
        self.u, self.v = wf.u, wf.v
        self.spd2 = wf.speed_squared()
        psi_col = -wf.p
        self.gam = vf.gamma(psi_col)[None, :]
        self.gam_pp = vf.gamma(psi_col, 2)[None, :]
        self.gamma0 = vf.gamma(0.0)
        self.gamma0_p = vf.gamma(0.0, 1)
        self.patm = float(np.mean(wf.P[:, -1]))
        self.eta_span = float(np.max(wf.eta) - np.min(wf.eta))
        self.trivial = self.eta_span <= _TRIVIAL_HEIGHT * max(1.0, wf.d)
        self.bern_tol = (tol.bern if tol.bern is not None
                         else 1e-6 * max(1.0, abs(wf.Q)))
        self.eq_tol = tol.eq if tol.eq is not None else 1e-6 * g * wf.d
        self.res_tol = tol.residual_scale * wf.grid.delta ** 2
        self.band = tol.boundary_band
        self.out = []

    def add(self, *args, **kwargs):
        self.out.append(Diagnostic(*args, **kwargs))

    @cached_property
    def curve(self):
        """The surface curve, built once and shared by the diagnostics."""
        return surface_curve(self.wf)

    # -- helpers -----------------------------------------------------------

    def band_for(self, scale):
        return self.band * max(1.0, abs(scale))

    def rel_residual(self, residual, *terms):
        scale = np.zeros_like(residual)
        for t in terms:
            scale = scale + np.abs(t)
        denom = max(float(np.max(scale)), 1e-300)
        idx = np.unravel_index(np.argmax(np.abs(residual)), residual.shape)
        return float(np.max(np.abs(residual)) / denom), idx

    def degrade(self, status, rel):
        """Weaken a sign-check pass to boundary when the identity residual
        exceeds the resolution yardstick: the finite differences backing the
        identity are then too coarse to certify it, but that is a statement
        about the grid, not about the wave, so it is never a failure."""
        if status == PASS and not rel <= self.res_tol:
            return BOUNDARY
        return status

    def na_hypothesis(self, diag_id, description, ref, hyp_margin, loc):
        self.add(diag_id, description, ref, NOT_APPLICABLE,
                 {"hypothesis": float(hyp_margin), "conclusion": None},
                 loc, float(hyp_margin))

    # -- individual diagnostics --------------------------------------------

    def slope(self):
        ratio = np.abs(self.v / self.u)
        rmax = float(np.max(ratio))
        angle = float(np.degrees(np.arctan(rmax)))
        surf = float(np.max(ratio[:, -1]))
        margin = 1.0 - rmax
        self.add("D-slope", "streamline slope stays below one",
                 "bound:streamline-slope", _strict(margin, self.band),
                 {"ratio": rmax, "angle_deg": angle,
                  "surface_angle_deg": float(np.degrees(np.arctan(surf)))},
                 _argmax_loc(self.wf, ratio), margin)
        self._slope_max = rmax
        self._ratio = ratio

    def sigma(self):
        denom = self.g + self.gam * self.u
        if np.min(denom) <= 0.0:
            self.na_hypothesis(
                "D-sigma", "refined slope bound via the vortex-force ratio",
                "bound:slope-refined", float(np.min(denom)),
                _argmin_loc(self.wf, np.broadcast_to(denom, self.u.shape)))
            self._sigma2 = 1.0
            return
        sig2 = float(np.max((self.g - self.gam * self.u) / denom))
        sigma = float(np.sqrt(sig2))
        margin = sigma - self._slope_max
        self.add("D-sigma", "refined slope bound via the vortex-force ratio",
                 "bound:slope-refined", _strict(margin, self.band),
                 {"sigma": sigma, "ratio": self._slope_max},
                 _argmax_loc(self.wf, self._ratio), margin)
        self._sigma2 = sig2

    def ux_sign(self):
        region = self.wf.ux[1:-1, 1:]
        mx = float(np.max(region))
        i, j = np.unravel_index(np.argmax(region), region.shape)
        self.add("D-ux", "horizontal velocity strictly decreasing in x",
                 "sign:ux", _strict(-mx, self.band_for(self.res_tol)),
                 mx, _node_loc(self.wf, i + 1, j + 1), -mx)

    def v_sign(self):
        region = self.v[1:-1, 1:]
        mn = float(np.min(region))
        i, j = np.unravel_index(np.argmin(region), region.shape)
        self.add("D-mono", "vertical velocity positive on the half period",
                 "sign:v", _strict(mn, self.band_for(self.res_tol)),
                 mn, _node_loc(self.wf, i + 1, j + 1), mn)

    def trough(self):
        val = self.g - self.gamma0 * self.u[-1, -1]
        # The horizontal strain at the trough is recorded alongside the
        # criterion because its sign there is an open question: it is
        # informational only and never judged.
        self.add("D-trough", "vortex-force criterion at the trough",
                 "criterion:vortex-force-trough", _strict(val, self.band_for(self.g)),
                 {"vortex_force": float(val),
                  "trough_uxx": float(self.wf.uxx[-1, -1])},
                 _node_loc(self.wf, self.wf.nq - 1, self.wf.npts - 1),
                 float(val))

    def speed_gap(self):
        wf = self.wf
        f = 0.5 * (self.u ** 2 - self.v ** 2)
        fx = wf.dx(f, "even")
        fy = wf.dy(f)
        lhs = self.u * fx + self.v * fy
        rhs = self.spd2 * wf.ux - self.gam * self.u * self.v
        rel, _ = self.rel_residual(lhs - rhs, self.u * fx, self.v * fy,
                                   self.spd2 * wf.ux, self.gam * self.u * self.v)
        fmin = float(np.min(f))
        status = self.degrade(_strict(fmin, self.band_for(self.spd2.max())), rel)
        self.add("D-f", "u^2 exceeds v^2 and the gap obeys its flow identity",
                 "identity:speed-gap", status,
                 {"min": fmin, "identity_residual": rel},
                 _argmin_loc(wf, f), fmin, self.res_tol)

    def alpha_identity(self):
        wf = self.wf
        alpha = self._sigma2
        fa = alpha * self.u ** 2 - self.v ** 2
        fax = wf.dx(fa, "even")
        fay = wf.dy(fa)
        lhs = self.u * fax + self.v * fay
        gu = self.gam * self.u
        rhs = ((alpha + 1.0) * self.spd2 * wf.ux
               - (alpha * (gu + self.g) + gu - self.g) * self.v)
        # The equality uses the tangential surface relation to eliminate u_y,
        # so it binds on the surface row only; the sign bound below holds on
        # the whole half period.
        rel, _ = self.rel_residual(
            (lhs - rhs)[:, -1], (self.u * fax)[:, -1],
            (self.v * fay)[:, -1], rhs[:, -1])
        interior = rhs[1:-1, :]
        mx = float(np.max(interior))
        i, j = np.unravel_index(np.argmax(interior), interior.shape)
        status = self.degrade(
            _nonstrict(-mx, self.band_for(self.g * self.spd2.max())), rel)
        self.add("D-alpha", "weighted speed gap decreases along the flow",
                 "identity:weighted-speed-gap", status,
                 {"max": mx, "identity_residual": rel},
                 _node_loc(wf, i + 1, j), -mx, self.res_tol)

    def w_pde(self):
        wf = self.wf
        w = wf.ux / self.u
        wx = wf.dx(w, "odd")
        wy = wf.dy(w)
        lap_x, lap_y = wf.dx(wx, "even"), wf.dy(wy)
        drift = 2.0 * (wf.ux / self.u) * wx + 2.0 * (wf.uy / self.u) * wy
        source = self.gam_pp * self.v
        resid = lap_x + lap_y + drift - source
        # The two second derivatives cancel almost exactly (the field is
        # near-harmonic), so the residual is scaled against them separately.
        rel, idx = self.rel_residual(resid, lap_x, lap_y, drift, source)
        mx_src = float(np.max(source))
        status = self.degrade(_nonstrict(-mx_src, self.band), rel)
        self.add("D-w-pde", "elliptic equation for the relative strain u_x/u",
                 "pde:relative-strain", status,
                 {"residual": rel, "max_source": mx_src},
                 _node_loc(wf, *idx), -mx_src, self.res_tol)

    def s_pde(self):
        wf = self.wf
        s = self.v / self.u
        sx = wf.dx(s, "odd")
        sy = wf.dy(s)
        lap_x, lap_y = wf.dx(sx, "even"), wf.dy(sy)
        # Drift derived from first principles (eliminate u_y and v_x through
        # the curl and divergence relations): the two gamma terms carry
        # opposite signs. Verified against the trochoidal closed forms,
        # where the same-sign variant misses by O(1).
        t1 = 2.0 * self.v * (self.gam - self.u * sx) / self.spd2 * sx
        t2 = -2.0 * self.u * (self.gam + self.v * sy) / self.spd2 * sy
        resid = lap_x + lap_y + t1 + t2
        rel, idx = self.rel_residual(resid, lap_x, lap_y, t1, t2)
        self.add("D-s-pde", "elliptic equation for the streamline slope v/u",
                 "pde:streamline-slope",
                 PASS if rel <= self.res_tol else BOUNDARY, rel,
                 _node_loc(wf, *idx), self.res_tol - rel, self.res_tol)

    def surface_first(self):
        wf = self.wf
        us, vs = self.u[:, -1], self.v[:, -1]
        uxs, uys = wf.ux[:, -1], wf.uy[:, -1]
        terms = [(vs ** 2 - us ** 2) * uxs, -2.0 * us * vs * uys,
                 -self.g * vs, -self.gamma0 * us * vs]
        resid = terms[0] + terms[1] + terms[2] + terms[3]
        rel, idx = self.rel_residual(resid, *terms)
        self.add("D-p1", "first tangential derivative of surface Bernoulli",
                 "surface:first-tangential",
                 PASS if rel <= self.res_tol else BOUNDARY, rel,
                 (float(wf.q[idx[0]]), 0.0), self.res_tol - rel, self.res_tol)

    def surface_second(self):
        wf = self.wf
        us, vs = self.u[:, -1], self.v[:, -1]
        uxs, uys = wf.ux[:, -1], wf.uy[:, -1]
        uxxs, uxys = wf.uxx[:, -1], wf.uxy[:, -1]
        g, gam0, gam0p = self.g, self.gamma0, self.gamma0_p
        spd2 = us ** 2 + vs ** 2
        terms = [
            -2.0 * spd2 * (uxs ** 2 + uys ** 2),
            g * vs * uxs,
            -g * us * uys,
            (3.0 * us * vs ** 2 - us ** 3) * uxxs,
            (vs ** 3 - 3.0 * us ** 2 * vs) * uxys,
            -gam0 * ((3.0 * us ** 2 + vs ** 2) * uys
                     - 2.0 * us * vs * uxs + g * us),
            2.0 * gam0p * us ** 2 * vs ** 2,
            -gam0 ** 2 * us ** 2,
        ]
        resid = np.sum(terms, axis=0)
        rel, idx = self.rel_residual(resid, *terms)
        self.add("D-p2", "second tangential derivative of surface Bernoulli",
                 "surface:second-tangential",
                 PASS if rel <= self.res_tol else BOUNDARY, rel,
                 (float(wf.q[idx[0]]), 0.0), self.res_tol - rel, self.res_tol)

    def abc_coefficients(self):
        wf = self.wf
        us, vs = self.u[:, -1], self.v[:, -1]
        floor = self.tol.v_floor_rel * float(np.max(np.abs(us)))
        admitted = vs > floor
        desc = "curvature coefficients of the surface strain equation"
        if self.gamma0 > 0.0 or self.gamma0_p > 0.0:
            self.na_hypothesis("D-ABC", desc, "surface:curvature-coefficients",
                               -max(self.gamma0, self.gamma0_p), None)
            return
        if not np.any(admitted):
            self.na_hypothesis("D-ABC", desc, "surface:curvature-coefficients",
                               float(np.max(vs) - floor), None)
            return
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
        self.add("D-ABC", desc, "surface:curvature-coefficients",
                 _strict(margin, 0.0),
                 {"min_A": min_a, "min_C": min_c,
                  "bound_max": float(np.max(bound_q))},
                 (float(qa[loc_idx]), 0.0), margin)

    def pressure_basic(self):
        wf = self.wf
        fp = wf.P - self.patm + self.g * wf.y
        lo = self.g * float(np.min(wf.eta))
        hi = self.g * float(np.max(wf.eta))
        viol = float(max(np.max(lo - fp), np.max(fp - hi)))
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
        self.add("D-press-a", "modified pressure bounded by surface extremes",
                 "pressure:(a)", status,
                 {"violation": viol, "clearance": clearance,
                  "crest_equality_gap": eq_crest,
                  "trough_equality_gap": eq_trough},
                 _argmax_loc(wf, np.maximum(lo - fp, fp - hi)),
                 -viol, bound_tol)

    def pressure_curvature(self):
        wf = self.wf
        desc = "surface concave at the crest, convex at the trough"
        if self.trivial:
            self.na_hypothesis("D-press-b", desc, "pressure:(b)",
                               self.eta_span - _TRIVIAL_HEIGHT * max(1.0, wf.d),
                               None)
            return
        crest, trough = float(wf.eta_xx[0]), float(wf.eta_xx[-1])
        margin = min(-crest, trough)
        loc = (0.0, 0.0) if -crest <= trough else (float(wf.L), 0.0)
        self.add("D-press-b", desc, "pressure:(b)",
                 _strict(margin, self.band_for(self.eta_span)),
                 {"crest_curvature": crest, "trough_curvature": trough},
                 loc, margin)

    def pressure_bed_range(self):
        wf = self.wf
        desc = "wave height exceeds the bed pressure range over g"
        if self.trivial:
            self.na_hypothesis("D-press-c", desc, "pressure:(c)",
                               self.eta_span - _TRIVIAL_HEIGHT * max(1.0, wf.d),
                               None)
            return
        bed = wf.P[:, 0]
        spread = float(np.max(bed) - np.min(bed)) / self.g
        margin = self.eta_span - spread
        self.add("D-press-c", desc, "pressure:(c)",
                 _strict(margin, self.band_for(self.eta_span)),
                 {"height": self.eta_span, "bed_range_over_g": spread},
                 (float(wf.q[np.argmax(bed)]), float(wf.p[0])), margin)

    def pressure_below_troughs(self):
        wf = self.wf
        mask = wf.y < float(np.min(wf.eta))
        desc = "pressure above atmospheric below the troughs"
        if not np.any(mask):
            self.na_hypothesis("D-press-d", desc, "pressure:(d)", -1.0, None)
            return
        excess = np.where(mask, wf.P - self.patm, np.inf)
        mn = float(np.min(excess))
        self.add("D-press-d", desc, "pressure:(d)",
                 _strict(mn, self.band_for(self.g * wf.d)),
                 mn, _argmin_loc(wf, excess), mn)

    def pressure_top(self):
        wf = self.wf
        desc = "nonnegative vortex force keeps pressure above atmospheric"
        hyp = np.broadcast_to(self.gam * self.u + self.g, self.u.shape)
        hyp_min = float(np.min(hyp))
        if hyp_min < 0.0:
            self.na_hypothesis("D-press-e", desc, "pressure:(e)", hyp_min,
                               _argmin_loc(wf, hyp))
            return
        interior = wf.P[:, :-1] - self.patm
        mn_int = float(np.min(interior))
        dpdn = self.curve.dPdn[:wf.nq]
        mx_dpdn = float(np.max(dpdn))
        surf_eq = float(np.max(np.abs(wf.P[:, -1] - self.patm)))
        margin = min(mn_int, -mx_dpdn)
        status = _strict(margin, self.band_for(self.g * wf.d))
        if surf_eq > self.eq_tol:
            status = FAIL
        i, j = np.unravel_index(np.argmin(interior), interior.shape)
        loc = (_node_loc(wf, i, j) if mn_int <= -mx_dpdn
               else (float(wf.q[np.argmax(dpdn)]), 0.0))
        self.add("D-press-e", desc, "pressure:(e)", status,
                 {"hypothesis": hyp_min, "conclusion": margin}, loc, margin,
                 self.eq_tol)

    def pressure_shifted(self):
        wf = self.wf
        desc = "vorticity-shifted pressure above atmospheric"
        mx_om = float(np.max(self.gam))
        hyp = np.broadcast_to(mx_om * self.spd2 - 4.0 * self.g * self.u,
                              self.u.shape)
        hyp_min = float(np.min(hyp))
        if hyp_min < 0.0:
            self.na_hypothesis("D-press-f", desc, "pressure:(f)", hyp_min,
                               _argmin_loc(wf, hyp))
            return
        shifted = wf.P - self.patm + 0.5 * mx_om * wf.psi
        mn_int = float(np.min(shifted[:, :-1]))
        i, j = np.unravel_index(np.argmin(shifted[:, :-1]),
                                shifted[:, :-1].shape)
        self.add("D-press-f", desc, "pressure:(f)",
                 _strict(mn_int, self.band_for(self.g * wf.d)),
                 {"hypothesis": hyp_min, "conclusion": mn_int},
                 _node_loc(wf, i, j), mn_int)

    def _speed_extremum(self, diag_id, ref, at_trough):
        wf = self.wf
        spd = np.sqrt(self.spd2)
        gam_col = self.gam[0]
        if at_trough:
            desc = "nonnegative vorticity puts the speed maximum at the trough"
            hyp_min = float(np.min(gam_col))
            if hyp_min < 0.0:
                self.na_hypothesis(diag_id, desc, ref, hyp_min, None)
                return
            named = spd[-1, -1]
            outside = spd.copy()
            outside[-2:, -2:] = -np.inf
            margin = float(named - np.max(outside))
            loc = _argmax_loc(wf, spd)
        else:
            desc = "nonpositive vorticity puts the speed minimum at the crest"
            hyp_max = float(np.max(gam_col))
            if hyp_max > 0.0:
                self.na_hypothesis(diag_id, desc, ref, -hyp_max, None)
                return
            hyp_min = -hyp_max
            named = spd[0, -1]
            outside = spd.copy()
            outside[:2, -2:] = np.inf
            margin = float(np.min(outside) - named)
            loc = _argmin_loc(wf, spd)
        self.add(diag_id, desc, ref,
                 _nonstrict(margin, self.band_for(np.max(spd))),
                 {"hypothesis": hyp_min, "conclusion": margin}, loc, margin)

    def bernoulli(self):
        wf = self.wf
        head = (wf.P - self.patm + 0.5 * self.spd2
                + self.g * (wf.y + wf.d) - self.vf.Gamma(wf.p)[None, :])
        spread = float(np.max(head) - np.min(head))
        dev = np.abs(head - np.median(head))
        self.add("D-bern", "total head constant across the strip",
                 "identity:total-head",
                 PASS if spread <= self.bern_tol else FAIL, spread,
                 _argmax_loc(wf, dev), self.bern_tol - spread, self.bern_tol)

    def head_reduction(self):
        wf = self.wf
        us = self.u[:, -1]
        uc2, ut2 = float(us[0] ** 2), float(us[-1] ** 2)
        ident_gap = abs(ut2 - uc2
                        - 2.0 * self.g * float(wf.eta[0] - wf.eta[-1]))
        lam_c = self.lam_c
        margin = min(uc2 + 2.0 * self.g * wf.L - ut2, lam_c - uc2)
        status = _strict(margin, self.band_for(lam_c))
        if ident_gap > self.eq_tol:
            status = FAIL
        self.add("D-reduce", "trough speed bounded through the crest speed",
                 "surface:head-reduction", status,
                 {"identity_gap": ident_gap, "crest_speed_sq": uc2,
                  "trough_speed_sq": ut2, "lambda_c": lam_c},
                 (float(wf.L), 0.0), margin, self.eq_tol)

    def speed_monotone(self):
        wf = self.wf
        desc = "surface speed squared increases from crest to trough"
        if self.trivial:
            self.na_hypothesis("D-monotone-u2", desc, "surface:speed-monotone",
                               self.eta_span - _TRIVIAL_HEIGHT * max(1.0, wf.d),
                               None)
            return
        W = self.u[:, -1] ** 2
        Wx = dq(W, wf.grid.wq1, "even")
        mn = float(np.min(Wx[1:-1]))
        idx = int(np.argmin(Wx[1:-1])) + 1
        self.add("D-monotone-u2", desc, "surface:speed-monotone",
                 _strict(mn, self.band_for(np.max(np.abs(Wx)))),
                 mn, (float(wf.q[idx]), 0.0), mn)

    def turning_angle(self):
        wf = self.wf
        curve = self.curve
        # Periodic tangent-angle derivative in x, then chain rule to s.
        theta = curve.theta
        spacing = np.diff(curve.X, append=2.0 * wf.L)
        w1, _ = three_point_weights(np.roll(spacing, 1), spacing)
        theta_x = (w1[:, 0] * (np.roll(theta, 1) - theta)
                   + w1[:, 2] * (np.roll(theta, -1) - theta))
        spd = np.hypot(curve.u, curve.v)
        theta_s = curve.u * theta_x
        rhs = self.g * np.cos(theta) / spd
        applies = curve.dPdn <= 0.0
        if np.any(applies):
            margins = theta_s[applies] - rhs[applies]
            mn = float(np.min(margins))
            where = np.nonzero(applies)[0][int(np.argmin(margins))]
            loc = (float(curve.X[where]), 0.0)
        else:
            mn, loc = np.inf, None
        winding = curve.winding
        status = _nonstrict(mn, self.band_for(self.g))
        if winding != 0:
            status = FAIL
        self.add("D-angle", "surface tangent angle turns without winding",
                 "surface:turning-angle", status,
                 {"winding": winding, "min_margin": mn}, loc, mn)

    def overturn(self):
        wf = self.wf
        us = self.u[:, -1]
        mx_u = float(np.max(us))
        if mx_u < 0.0:
            self.add("D-overturn", "overturning waves need a pressure sink",
                     "surface:pressure-sink", PASS,
                     {"overturning": False, "max_surface_u": mx_u},
                     (float(wf.q[np.argmax(us)]), 0.0), -mx_u)
            return
        dpdn = self.curve.dPdn[:wf.nq]
        sink = float(np.max(dpdn))
        self.add("D-overturn", "overturning waves need a pressure sink",
                 "surface:pressure-sink", _strict(sink, self.band_for(self.g)),
                 {"overturning": True, "max_dPdn": sink},
                 (float(wf.q[np.argmax(dpdn)]), 0.0), sink)

    def bed_strain(self):
        wf = self.wf
        w_bed = wf.ux[:, 0] / self.u[:, 0]
        ends_zero = wf.ux[0, 0] == 0.0 and wf.ux[-1, 0] == 0.0
        mn = float(np.min(w_bed[1:-1])) if wf.nq > 2 else np.inf
        status = _strict(mn, self.band_for(self.res_tol))
        if not ends_zero:
            status = FAIL
        idx = int(np.argmin(w_bed[1:-1])) + 1 if wf.nq > 2 else 0
        self.add("D-w-bed", "relative strain positive on the open bed row",
                 "sign:bed-strain", status,
                 {"min": mn,
                  "end_values": [float(w_bed[0]), float(w_bed[-1])]},
                 _node_loc(wf, idx, 0), mn)


def audit_wave(wf, vf=None, tol=None, lam_c=None):
    """Run every diagnostic on a reconstructed wave field.

    vf defaults to the field's own VorticityFunction; fields loaded from
    CSV must pass one explicitly. lam_c is critical_lambda(vf, wf.g),
    computed here when None; callers auditing many waves of one branch pass
    it in to skip the quadrature. Returns an AuditReport whose as_json()
    matches the CLI report schema.
    """
    vf = vf if vf is not None else wf.vf
    if vf is None:
        raise InputError("audit needs a VorticityFunction; the field "
                         "carries none")
    tol = tol if tol is not None else Tolerances()
    if lam_c is None:
        lam_c = critical_lambda(vf, wf.g)
    a = _Auditor(wf, vf, tol, lam_c)
    a.slope()
    a.sigma()
    a.ux_sign()
    a.v_sign()
    a.trough()
    a.speed_gap()
    a.alpha_identity()
    a.w_pde()
    a.s_pde()
    a.surface_first()
    a.surface_second()
    a.abc_coefficients()
    a.pressure_basic()
    a.pressure_curvature()
    a.pressure_bed_range()
    a.pressure_below_troughs()
    a.pressure_top()
    a.pressure_shifted()
    a._speed_extremum("D-press-g", "pressure:(g)", at_trough=True)
    a._speed_extremum("D-press-h", "pressure:(h)", at_trough=False)
    a.bernoulli()
    a.head_reduction()
    a.speed_monotone()
    a.turning_angle()
    a.overturn()
    a.bed_strain()
    return AuditReport(a.out)
