"""Closed-form trochoidal deep-water wave, the adverse-vorticity fixture.

Particles at labels (a, b) sit on circles of radius e^{kb}/k, which gives
the steady moving-frame positions

    x = a - (e^{kb}/k) sin(ka),     y = b + (e^{kb}/k) cos(ka)

and, after subtracting the wave speed c = sqrt(g/k), the velocities

    u = -c (1 - e^{kb} cos(ka)),    v = c e^{kb} sin(ka).

The free surface is the label line b = b0 with steepness eps = e^{k b0};
eps = 1 is the cusped limit and is rejected. The vorticity works out to
2ck e^{2kb} / (1 - e^{2kb}), positive everywhere, which is the adverse
sign: this wave is the standing counterexample for every slope bound the
favorable-vorticity theory proves, steepening past 45 degrees while the
solver branches stay well below it.

The pressure depends on the label b alone. Enforcing the momentum balance
across label lines fixes it to

    P(b) = patm + g (b0 - b) - (g / 2k) (e^{2k b0} - e^{2kb}),

whose gradient reproduces the particle acceleration exactly; the tests
double-check that with a finite-difference oracle that never touches the
analytic Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_G
from .errors import InputError

# Velocity perturbations decay like e^{kb}, so four e-foldings below the
# surface label the field is laminar to better than 2 percent.
_DEPTH_EFOLDINGS = 4.0


@dataclass
class LabelField:
    """Field arrays sampled on a rectangular label grid.

    Axis 0 runs along a (one full period), axis 1 along b with the
    surface label last, matching the strip-field layout convention.
    """

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    P: np.ndarray
    omega: np.ndarray


class TrochoidalWave:
    """Deep-water trochoidal wave of wavenumber k and steepness eps."""

    def __init__(self, k, eps, g=DEFAULT_G, patm=0.0):
        if k <= 0.0:
            raise InputError("wavenumber k must be positive, got %r" % (k,))
        if g <= 0.0:
            raise InputError("gravity g must be positive, got %r" % (g,))
        if not 0.0 < eps < 1.0:
            raise InputError(
                "steepness eps must lie strictly inside (0, 1); eps = 1 "
                "is the cusped wave, got %r" % (eps,))
        self.k = float(k)
        self.eps = float(eps)
        self.g = float(g)
        self.patm = float(patm)
        self.b0 = float(np.log(eps) / k)
        self.c = float(np.sqrt(g / k))

    # -- closed forms -------------------------------------------------------

    def _check_labels(self, b):
        if np.any(np.asarray(b) > self.b0 + 1e-12):
            raise InputError("labels must satisfy b <= b0 = %g" % self.b0)

    def position(self, a, b):
        self._check_labels(b)
        E = np.exp(self.k * np.asarray(b, dtype=float))
        ka = self.k * np.asarray(a, dtype=float)
        x = a - E / self.k * np.sin(ka)
        y = b + E / self.k * np.cos(ka)
        return x, y

    def velocity(self, a, b):
        self._check_labels(b)
        E = np.exp(self.k * np.asarray(b, dtype=float))
        ka = self.k * np.asarray(a, dtype=float)
        u = -self.c * (1.0 - E * np.cos(ka))
        v = self.c * E * np.sin(ka)
        return u, v

    def vorticity(self, b):
        self._check_labels(b)
        E2 = np.exp(2.0 * self.k * np.asarray(b, dtype=float))
        return 2.0 * self.c * self.k * E2 / (1.0 - E2)

    def pressure(self, b):
        self._check_labels(b)
        E2 = np.exp(2.0 * self.k * np.asarray(b, dtype=float))
        eps2 = self.eps ** 2
        return (self.patm + self.g * (self.b0 - np.asarray(b, dtype=float))
                - self.g / (2.0 * self.k) * (eps2 - E2))

    def label_jacobian_inverse(self, a, b):
        """(a_x, a_y, b_x, b_y) of the inverse label map."""
        self._check_labels(b)
        E = np.exp(self.k * np.asarray(b, dtype=float))
        ka = self.k * np.asarray(a, dtype=float)
        det = 1.0 - E ** 2
        sin, cos = np.sin(ka), np.cos(ka)
        a_x = (1.0 + E * cos) / det
        a_y = E * sin / det
        b_x = E * sin / det
        b_y = (1.0 - E * cos) / det
        return a_x, a_y, b_x, b_y

    # -- sampling -----------------------------------------------------------

    def label_grid(self, na, nb):
        """One period in a, four e-foldings of depth in b, surface last."""
        if na < 2 or nb < 2:
            raise InputError("label grid needs at least 2x2 samples")
        a = np.linspace(0.0, 2.0 * np.pi / self.k, na, endpoint=False)
        b = np.linspace(self.b0 - _DEPTH_EFOLDINGS / self.k, self.b0, nb)
        return a, b

    def field(self, na=64, nb=33):
        a, b = self.label_grid(na, nb)
        A, B = np.meshgrid(a, b, indexing="ij")
        x, y = self.position(A, B)
        u, v = self.velocity(A, B)
        P = np.broadcast_to(self.pressure(b), (na, nb)).copy()
        omega = np.broadcast_to(self.vorticity(b), (na, nb)).copy()
        return LabelField(a=a, b=b, x=x, y=y, u=u, v=v, P=P, omega=omega)

    def euler_residuals(self, a, b, step=1e-5):
        """Steady momentum residuals at the given label points.

        Physical derivatives are assembled from centered label-space
        differences pushed through the analytic inverse Jacobian. The
        closed forms make both residual components vanish; what remains
        measures the finite-difference step, not the model.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        self._check_labels(b + step)
        a_x, a_y, b_x, b_y = self.label_jacobian_inverse(a, b)

        def grad(fn2):
            fa = (fn2(a + step, b) - fn2(a - step, b)) / (2.0 * step)
            fb = (fn2(a, b + step) - fn2(a, b - step)) / (2.0 * step)
            return fa, fb

        def d_physical(fa, fb):
            return fa * a_x + fb * b_x, fa * a_y + fb * b_y

        ua, ub = grad(lambda aa, bb: self.velocity(aa, bb)[0])
        va, vb = grad(lambda aa, bb: self.velocity(aa, bb)[1])
        Pb = (self.pressure(b + step) - self.pressure(b - step)) / (2.0 * step)
        ux, uy = d_physical(ua, ub)
        vx, vy = d_physical(va, vb)
        Px, Py = d_physical(np.zeros_like(Pb), Pb)
        u, v = self.velocity(a, b)
        e1 = u * ux + v * uy + Px
        e2 = u * vx + v * vy + Py + self.g
        return e1, e2

    # -- derived quantities --------------------------------------------------

    def max_slope(self):
        """Largest surface inclination and the label where it sits.

        The surface slope eps sin(ka) / (1 - eps cos(ka)) peaks where
        cos(ka) = eps, giving tan(angle) = eps / sqrt(1 - eps^2).
        """
        angle = np.degrees(np.arctan(self.eps / np.sqrt(1.0 - self.eps ** 2)))
        return {"angle_deg": float(angle),
                "label_a": float(np.arccos(self.eps) / self.k)}

    def surface_slope_fd(self, n=4001):
        """Max surface angle from finite differences of the surface curve."""
        a = np.linspace(0.0, 2.0 * np.pi / self.k, n)
        x, y = self.position(a, np.full_like(a, self.b0))
        slope = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
        return float(np.degrees(np.arctan(np.max(np.abs(slope)))))

    def to_csv(self, path, na=64, nb=33):
        """Write a sampled field as CSV, one label point per row."""
        fld = self.field(na, nb)
        cols = ("a", "b", "x", "y", "u", "v", "P", "omega")
        A, B = np.meshgrid(fld.a, fld.b, indexing="ij")
        data = np.column_stack([A.ravel(), B.ravel(), fld.x.ravel(),
                                fld.y.ravel(), fld.u.ravel(), fld.v.ravel(),
                                fld.P.ravel(), fld.omega.ravel()])
        with open(path, "w") as fh:
            fh.write("# vorwave gerstner k=%.17g eps=%.17g g=%.17g\n"
                     % (self.k, self.eps, self.g))
            fh.write(",".join(cols) + "\n")
            np.savetxt(fh, data, fmt="%.17g", delimiter=",")

    def mini_report(self, na=64, nb=33, fd_step=1e-5):
        """Summary dict for the CLI: slope, vorticity sign, residuals.

        The finite-depth pressure diagnostics have no meaning in deep
        water, so they are listed as not-applicable rather than silently
        dropped.
        """
        fld = self.field(na, nb)
        interior = slice(None), slice(0, nb - 1)
        A_in, B_in = np.meshgrid(fld.a, fld.b[:-1], indexing="ij")
        e1, e2 = self.euler_residuals(A_in, B_in, step=fd_step)
        slope = self.max_slope()
        max_surface_u = float(np.max(fld.u[:, -1]))
        return {
            "wave": {"k": self.k, "eps": self.eps, "b0": self.b0,
                     "c": self.c, "g": self.g},
            "max_slope_deg": slope["angle_deg"],
            "max_slope_label_a": slope["label_a"],
            "max_slope_fd_deg": self.surface_slope_fd(),
            "omega_min": float(np.min(fld.omega[interior])),
            "omega_positive": bool(np.min(fld.omega[interior]) > 0.0),
            "euler_residual_max": float(max(np.max(np.abs(e1)),
                                            np.max(np.abs(e2)))),
            "overturning": {"flag": max_surface_u >= 0.0,
                            "max_surface_u": max_surface_u},
            "not_applicable": {
                diag: "deep water carries no bed"
                for diag in ("D-press-a", "D-press-b", "D-press-c",
                             "D-press-d")
            },
        }
