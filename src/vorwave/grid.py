"""The fixed computational strip for the height-function formulation.

The half period [0, L] x [-m, 0] carries a uniform horizontal grid and a
vertical grid stretched toward p = 0, where the free-surface condition makes
gradients steepest. The stretch map only places nodes; all derivative weights
come from the actual node positions, so no chain-rule factors appear in the
residual or the reconstruction.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .fd import ColumnOps, fd_weights


def stretched_nodes(m, npts, beta):
    """Vertical nodes on [-m, 0], clustered toward 0 for beta > 0."""
    zeta = np.linspace(0.0, 1.0, npts)
    p = -m + m * ((1.0 - beta) * zeta + beta * np.sin(0.5 * np.pi * zeta))
    p[-1] = 0.0
    return p


class StripGrid:
    """Grid data plus the finite-difference weights the solver needs.

    w1/w2 hold the 3-point centered first/second-derivative weights for the
    interior rows; ws holds the one-sided surface weights for h_p at p = 0,
    taken from the same window the field reconstruction uses so that the
    converged surface residual and the reconstructed surface pressure are the
    same number. wb is the matching one-sided window at the bed.

    newton_patterns holds, per solve mode, the sparsity pattern and column
    ordering of the Newton matrix that the solver works out on its first
    factorization on this grid and reuses for every later one. column_ops,
    the vertical derivative operator the field reconstruction uses, is
    likewise built on first use and kept.
    """

    def __init__(self, L, m, nq, npts, beta=0.5):
        if L <= 0 or m <= 0:
            raise InputError("L and m must be positive")
        if nq < 4 or npts < 7:
            raise InputError("grid too small: need nq >= 4, npts >= 7")
        if not 0.0 <= beta <= 0.9:
            raise InputError("stretch parameter beta must be in [0, 0.9]")
        self.L = float(L)
        self.m = float(m)
        self.nq = int(nq)
        self.npts = int(npts)
        self.beta = float(beta)
        self.q = np.linspace(0.0, self.L, self.nq)
        self.dq = self.L / (self.nq - 1)
        self.p = stretched_nodes(self.m, self.npts, self.beta)
        w1 = np.zeros((self.npts, 3))
        w2 = np.zeros((self.npts, 3))
        for j in range(1, self.npts - 1):
            w1[j] = fd_weights(self.p[j - 1 : j + 2], self.p[j], 1)
            w2[j] = fd_weights(self.p[j - 1 : j + 2], self.p[j], 2)
        self.w1 = w1
        self.w2 = w2
        width = ColumnOps.WIDTH
        # ws and wb are strided views into fd_weights' table. Keep them so:
        # a 1-D `x @ ws` on a strided view can differ in the last bit from
        # the same product on a contiguous copy, and discrete_laminar and
        # continuation.trough_criterion_value use that form, so contiguous
        # weights would move every branch by about 1e-13.
        self.ws = fd_weights(self.p[-width:], self.p[-1], 1)
        self.wb = fd_weights(self.p[:width], self.p[0], 1)
        self.dp_max = float(np.max(np.diff(self.p)))
        self.newton_patterns = {}
        self._column_ops = None

    @property
    def column_ops(self):
        """ColumnOps on p, built on first use."""
        if self._column_ops is None:
            self._column_ops = ColumnOps(self.p)
        return self._column_ops

    @property
    def delta(self):
        """Largest mesh spacing; the audit's tolerance scale."""
        return max(self.dq, self.dp_max)

    def __repr__(self):
        return ("StripGrid(L=%g, m=%g, nq=%d, npts=%d, beta=%g)"
                % (self.L, self.m, self.nq, self.npts, self.beta))
