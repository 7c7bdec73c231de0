"""Physical-space fields on the strip: velocities, pressure, vorticity.

Everything is evaluated at the (q, p) nodes and reported there; q is the
horizontal coordinate x, and y = h(q, p) - d with d the mean depth. Physical
derivatives use the chain rule of the height map: for a quantity F stored on
the strip,

    F_x = F_q - (h_q / h_p) F_p,      F_y = F_p / h_p,

where F_q respects the even/odd symmetry of F across q = 0 and q = L. Every
weight is the field's StripGrid's. The bed and surface h_p are the
solver's to the bit (column_ops.ends), so the surface pressure agrees with
the converged Bernoulli residual to Newton tolerance, not truncation order.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InputError, StagnationError
from .fd import dq
from .grid import StripGrid

CSV_COLUMNS = ("q", "p", "x", "y", "u", "v", "P", "psi", "omega",
               "ux", "uy", "vx", "vy", "uxx", "uxy")
_META_RE = re.compile(
    r"^#\s*vorwave field\s+g=(?P<g>\S+)\s+Q=(?P<Q>\S+)\s+d=(?P<d>\S+)\s*$")


class WaveField:
    """Velocities, pressure, and derivatives of one computed wave.

    Instances come from `reconstruct` (a solved height field on its grid) or
    `WaveField.from_csv` (on `StripGrid.from_nodes` of the file's nodes); the
    field differentiates with its `grid`'s weights. The stored arrays are
    authoritative; h_q and h_p are rebuilt from h so grad works on either.
    `vf` is the VorticityFunction of the wave's problem, which the audit
    reads; every field carries one.
    """

    def __init__(self, grid, g, Q, d, h, u, v, P, psi, omega,
                 ux, uy, vx, vy, uxx, uxy, vf):
        self.grid = grid
        self.q, self.p, self.L, self.m = grid.q, grid.p, grid.L, grid.m
        self.nq, self.npts = grid.nq, grid.npts
        self.g = float(g)
        self.Q = float(Q)
        self.d = float(d)
        self.vf = vf
        self.h = h
        self.u, self.v, self.P, self.psi, self.omega = u, v, P, psi, omega
        self.ux, self.uy, self.vx, self.vy = ux, uy, vx, vy
        self.uxx, self.uxy = uxx, uxy
        self.hp = grid.column_ops.apply(h)
        if np.min(self.hp) <= 0.0:
            raise StagnationError("h_p <= 0 in a reconstructed field")
        self.hq = dq(h, grid.wq1, "even")
        self.y = h - self.d
        self.eta = h[:, -1] - self.d
        self.eta_xx = dq(self.eta, grid.wq2, "even")

    def grad(self, F, parity):
        """(F_x, F_y) of a strip quantity F with the given q-parity."""
        Fp = self.grid.column_ops.apply(F)
        Fx = dq(F, self.grid.wq1, parity) - self.hq / self.hp * Fp
        return Fx, Fp / self.hp

    def speed_squared(self):
        return self.u ** 2 + self.v ** 2

    def euler_residuals(self):
        """Residuals of the steady momentum balance at every node."""
        Px, Py = self.grad(self.P, "even")
        e1 = self.u * self.ux + self.v * self.uy + Px
        e2 = self.u * self.vx + self.v * self.vy + Py + self.g
        return e1, e2

    def divergence(self):
        return self.ux + self.vy

    def to_csv(self, path):
        """Write the field as CSV, one node per row in i-major order.

        The rows are formatted one q-column of npts rows at a time; the
        bytes are those of np.savetxt(fmt="%.17g", delimiter=",") after the
        metadata line and the column header.
        """
        nq, npts = self.nq, self.npts
        cols = {
            "q": np.repeat(self.q, npts), "p": np.tile(self.p, nq),
            "x": np.repeat(self.q, npts), "y": self.y.ravel(),
            "u": self.u.ravel(), "v": self.v.ravel(), "P": self.P.ravel(),
            "psi": self.psi.ravel(), "omega": self.omega.ravel(),
            "ux": self.ux.ravel(), "uy": self.uy.ravel(),
            "vx": self.vx.ravel(), "vy": self.vy.ravel(),
            "uxx": self.uxx.ravel(), "uxy": self.uxy.ravel(),
        }
        data = np.column_stack([cols[name] for name in CSV_COLUMNS])
        block = (",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n") * npts
        with open(path, "w") as fh:
            fh.write("# vorwave field g=%.17g Q=%.17g d=%.17g\n"
                     % (self.g, self.Q, self.d))
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rows in data.reshape(nq, -1):
                fh.write(block % tuple(rows.tolist()))

    @classmethod
    def from_csv(cls, path, vf):
        """Load a field written by to_csv; stored values stay authoritative.

        The file holds no vorticity: vf is the VorticityFunction of the
        problem the field was computed under, and the loaded field carries
        it. L = q[-1], m = -p[0] and g come from the file.
        """
        with open(path) as fh:
            meta = _META_RE.match(fh.readline())
            if meta is None:
                raise InputError("missing or malformed metadata line in %s" % path)
            header = fh.readline().strip()
            if header != ",".join(CSV_COLUMNS):
                raise InputError("unexpected column header in %s" % path)
            try:
                g, Q_meta = float(meta.group("g")), float(meta.group("Q"))
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise InputError("unparseable number in %s: %s"
                                 % (path, exc)) from exc
        if data.shape[1] != len(CSV_COLUMNS):
            raise InputError("wrong column count in %s" % path)
        if not np.all(np.isfinite(np.append(data, [g, Q_meta]))):
            raise InputError("non-finite number in %s" % path)
        q_col = data[:, 0]
        block = np.nonzero(q_col != q_col[0])[0]
        npts = int(block[0]) if block.size else data.shape[0]
        if data.shape[0] % npts != 0:
            raise InputError("row count is not a whole number of columns")
        q, p = q_col.reshape(-1, npts), data[:, 1].reshape(-1, npts)
        if np.any(q != q[:, :1]) or np.any(p != p[:1]):
            raise InputError(
                "rows of %s do not form a grid: each block of %d rows must "
                "hold one q and repeat the first block's p nodes"
                % (path, npts))
        try:
            grid = StripGrid.from_nodes(q[:, 0], p[0])
        except InputError as exc:
            raise InputError("%s: %s" % (path, exc)) from exc
        grids = {name: data[:, idx].reshape(grid.nq, npts)
                 for idx, name in enumerate(CSV_COLUMNS)}
        y = grids["y"]
        d = float(-y[0, 0])
        h = y + d
        u, v, P = grids["u"], grids["v"], grids["P"]
        Q = float(P[0, -1] + 0.5 * (u[0, -1] ** 2 + v[0, -1] ** 2)
                  + g * (y[0, -1] + d))
        if abs(Q - Q_meta) > 1e-9 * max(1.0, abs(Q_meta)):
            raise InputError(
                "surface Bernoulli head %.12g disagrees with metadata %.12g"
                % (Q, Q_meta))
        return cls(grid, g, Q_meta, d, h, u, v, P, grids["psi"],
                   grids["omega"], grids["ux"], grids["uy"], grids["vx"],
                   grids["vy"], grids["uxx"], grids["uxy"], vf=vf)


def reconstruct(grid, vf, g, h, Q):
    """Build the physical fields from a solved height field.

    u = -1/h_p, v = -h_q/h_p, psi = -p, and the pressure comes from the
    Bernoulli law with atmospheric pressure zero.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (grid.nq, grid.npts):
        raise InputError("height array does not match the grid")
    d = float(np.trapezoid(h[:, -1], x=grid.q) / grid.L)
    # The field computes h_p (refusing stagnation) and h_q from h; every
    # other array is filled in from them, the derivatives by its grad.
    wf = WaveField(grid, g, float(Q), d, h, *[None] * 11, vf=vf)
    u = -1.0 / wf.hp
    v = -wf.hq / wf.hp
    wf.u = u
    wf.v = v
    wf.psi = np.tile(-grid.p, (grid.nq, 1))
    wf.P = Q - 0.5 * (u ** 2 + v ** 2) - g * h + vf.Gamma(grid.p)[None, :]
    wf.ux, wf.uy = wf.grad(u, "even")
    wf.vx, wf.vy = wf.grad(v, "odd")
    wf.omega = wf.vx - wf.uy
    wf.uxx, wf.uxy = wf.grad(wf.ux, "odd")
    return wf

