"""The fixed computational strip for the height-function formulation.

The half period [0, L] x [-m, 0] carries a uniform horizontal grid and a
vertical grid stretched toward p = 0, where the free-surface condition makes
gradients steepest, or any nodes given to `StripGrid.from_nodes`. Only the
grid places nodes; all derivative weights, along q as along p, come from the
actual node spacings, so no chain-rule factors or uniform-spacing formulas
appear in the residual, the reconstruction or the audit.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .fd import ColumnOps, mirror_weights, three_point_weights


def stretched_nodes(m, npts, beta):
    """Vertical nodes on [-m, 0], clustered toward 0 for beta > 0."""
    zeta = np.linspace(0.0, 1.0, npts)
    p = -m + m * ((1.0 - beta) * zeta + beta * np.sin(0.5 * np.pi * zeta))
    p[-1] = 0.0
    return p


class StripGrid:
    """Grid data plus the finite-difference weights the solver needs.

    The constructor places uniform q and `stretched_nodes` p nodes;
    `from_nodes` takes given ones (L = q[-1], m = -p[0], beta None); both
    then check them (nq >= 4, npts >= 7, finite, strictly increasing, q
    from 0, p up to 0) and build the weights from them. w1/w2 (npts - 2, 3)
    hold the 3-point first/second p-derivative weights of the interior rows
    p[1:-1], as `fd.dp` takes them. wq1/wq2 (nq, 3) hold the 3-point
    first/second q-derivative weights of every column, the end columns
    with mirror ghosts, as `fd.dq` takes them. column_ops is the vertical
    derivative operator of the field reconstruction; its `ends` gives the
    solver's bed and surface h_p too, so both read the same h_p there.
    """

    def __init__(self, L, m, nq, npts, beta=0.5):
        if L <= 0 or m <= 0:
            raise InputError("L and m must be positive")
        if not 0.0 <= beta <= 0.9:
            raise InputError("stretch parameter beta must be in [0, 0.9]")
        # a count below 1 places one node, which _set_nodes rejects
        self._set_nodes(np.linspace(0.0, float(L), max(int(nq), 1)),
                        stretched_nodes(float(m), max(int(npts), 1), beta))
        self.beta = float(beta)

    @classmethod
    def from_nodes(cls, q, p):
        """The grid on the nodes q (0 to L) and p (-m to 0), copied."""
        grid = cls.__new__(cls)
        grid._set_nodes(np.array(q, dtype=float), np.array(p, dtype=float))
        grid.beta = None
        return grid

    def _set_nodes(self, q, p):
        if q.size < 4 or p.size < 7:
            raise InputError("grid too small: %d x %d nodes, need nq >= 4, "
                             "npts >= 7" % (q.size, p.size))
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise InputError("grid nodes must be finite numbers")
        if np.any(np.diff(q) <= 0) or np.any(np.diff(p) <= 0):
            raise InputError("grid nodes do not strictly increase")
        if q[0] != 0.0 or p[-1] != 0.0:
            raise InputError("grid nodes must start at q = 0 and end at "
                             "p = 0, not at q = %r and p = %r"
                             % (float(q[0]), float(p[-1])))
        self.q, self.p, self.nq, self.npts = q, p, q.size, p.size
        self.L, self.m = float(q[-1]), float(-p[0])
        self.wq1, self.wq2 = mirror_weights(q)
        dp = np.diff(p)
        self.w1, self.w2 = three_point_weights(dp[:-1], dp[1:])
        self.column_ops = ColumnOps(p)

    @property
    def delta(self):
        """Largest mesh spacing; the audit's tolerance scale."""
        return float(max(np.max(np.diff(self.q)), np.max(np.diff(self.p))))

    def __repr__(self):
        return ("StripGrid(L=%g, m=%g, nq=%d, npts=%d, beta=%s)"
                % (self.L, self.m, self.nq, self.npts, self.beta))
