"""Finite-difference machinery shared by the solver, the field
reconstruction and the audit: every derivative weight comes from here, and
every applier takes its weights in difference form, so a constant gives
exactly zero.

The 3-point weights, along q and p alike, come from the node spacings;
`dq` and `dp` apply them. Horizontal derivatives act on the half period
[0, L] where every physical field has a definite parity (even or odd about
both q = 0 and q = L), so the boundary stencils use mirror ghosts and are
exact for the symmetry. Vertical derivatives of the reconstructed fields
use Fornberg's weights in `ColumnOps` on consecutive differences; one
routine, `ColumnOps.ends`, applies its one-sided windows at the first and
last node, and gives the solver's bed and surface rows their h_p too.
Every node uses a 6-point sliding window (local order 5): applying a
first-derivative operator twice differentiates the truncation error of the
first pass, which costs one order wherever the error coefficient jumps,
and the coefficient does jump at the clipped end windows. Starting from
order 5 leaves the composed derivative at worst O(dp^4) there, which is
what lets the reconstructed vorticity of a smooth laminar flow track gamma
to 1e-8 on a few hundred nodes; with 4 points the composed edge error is
O(dp^2) with a coefficient near ten, far too big.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def fd_weights(nodes, x0, order):
    """Weights w with sum(w * f(nodes)) ~ f^(order)(x0), along the last
    axis.

    Fornberg's recurrence on arbitrary distinct nodes; the result is exact
    for polynomials of degree n - 1. `nodes` is (..., n), one window of n
    nodes per leading index, and `x0` broadcasts over the leading axes;
    the weights come back shaped like `nodes`. Every window runs the same
    scalar operations as a window on its own, so batching changes no bit.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    x0 = np.asarray(x0, dtype=float)
    lead = np.broadcast_shapes(nodes.shape[:-1], x0.shape)
    c = np.zeros(lead + (n, order + 1))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1]
                                         - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c[..., order]


def three_point_weights(hm, hp):
    """(w1, w2): 3-point first and second derivative weights, shape (n, 3),
    at nodes whose left and right spacings are hm and hp, each (n,). The
    centre weight is -(w0 + w2), the one dq's and dp's difference form
    gives the centre node, so every reader sees the Newton rows' weights.
    """
    def stencil(left, right):
        return np.stack([left, -(left + right), right], axis=-1)

    return (stencil(-hp / (hm * (hm + hp)), hm / (hp * (hm + hp))),
            stencil(2.0 / (hm * (hm + hp)), 2.0 / (hp * (hm + hp))))


def mirror_weights(q):
    """three_point_weights on the nodes q, whose end nodes see mirror ghosts
    at the first and last spacing: the weights `dq` takes."""
    h = np.diff(q)
    return three_point_weights(np.append(h[0], h), np.append(h, h[-1]))


def dq(F, w, parity):
    """Derivative along axis 0 of a field F that is "even" or "odd" (parity)
    about q = 0 and q = L, with weights w (nq, 3) from mirror_weights: its
    first entry for d/dq, its second for d2/dq2. The ghost beyond each end
    mirrors the first interior node, negated for an odd field. The difference
    form w0 (F[i-1] - F[i]) + w2 (F[i+1] - F[i]) gives exactly zero on a
    constant, and on an even field's first derivative at both ends.
    """
    if parity not in ("even", "odd"):
        raise InputError("parity must be 'even' or 'odd'")
    sign = 1.0 if parity == "even" else -1.0
    shape = (-1,) + (1,) * (F.ndim - 1)
    left, right = w[:, 0].reshape(shape), w[:, 2].reshape(shape)
    out = np.empty_like(F, dtype=float)
    out[1:-1] = (left[1:-1] * (F[:-2] - F[1:-1])
                 + right[1:-1] * (F[2:] - F[1:-1]))
    out[0] = left[0] * (sign * F[1] - F[0]) + right[0] * (F[1] - F[0])
    out[-1] = left[-1] * (F[-2] - F[-1]) + right[-1] * (sign * F[-2] - F[-1])
    return out


def dp(F, w):
    """Derivative along the last axis of F at its interior nodes, shape
    (..., n - 2), with interior weights w (n - 2, 3), StripGrid.w1 or w2,
    in dq's difference form: a constant gives exactly zero."""
    return (w[:, 0] * (F[..., :-2] - F[..., 1:-1])
            + w[:, 2] * (F[..., 2:] - F[..., 1:-1]))


class ColumnOps:
    """First-derivative operator along a nonuniform vertical node set.

    Acts on the last axis. Every node uses a window of WIDTH nodes starting
    two nodes to its left, clipped at the ends: the local error is O(dp^5)
    with a coefficient that only changes character at the four outermost
    rows (see the module docstring). Row j of `w` holds node j's weights on
    the nodes `idx[j]`; `apply` takes them in the equivalent difference form
    (`diff_w` on the differences `diff_idx`), exact zero on a constant, and
    takes its first and last rows from `ends`.
    """

    WIDTH = 6

    def __init__(self, p):
        p = np.asarray(p, dtype=float)
        n = p.size
        if n < self.WIDTH:
            raise ValueError("need at least %d vertical nodes" % self.WIDTH)
        if np.any(np.diff(p) <= 0):
            raise ValueError("vertical nodes must be strictly increasing")
        self.p = p
        starts = np.clip(np.arange(n) - 2, 0, n - self.WIDTH)
        self.idx = starts[:, None] + np.arange(self.WIDTH)[None, :]
        # contiguous rows: a 1-D dot product's last bit depends on strides
        self.w = np.ascontiguousarray(fd_weights(p[self.idx], p, 1))
        # The weights of a derivative sum to zero, so sum_k w_k F_k equals
        # sum_l W_l (F_{l+1} - F_l) with W_l = sum_{k>l} w_k: the window's
        # consecutive differences, which vanish exactly on a constant.
        self.diff_idx = self.idx[1:-1, :-1]  # the rows between the ends
        self.diff_w = np.cumsum(self.w[:, ::-1], axis=1)[:, -2::-1]
        # the bed's and the surface's window, which `ends` reads on every
        # call
        self.end_idx = self.idx[[0, -1]]
        self.end_w = self.diff_w[[0, -1]]

    def apply(self, F):
        out = np.empty(np.shape(F))
        D = np.diff(F)[..., self.diff_idx]
        out[..., 1:-1] = np.einsum("...jk,jk->...j", D, self.diff_w[1:-1])
        out[..., [0, -1]] = self.ends(F)
        return out

    def ends(self, F):
        """(..., 2): apply(F) at the first and last node, the bed and the
        surface of a column, summed term by term in window order, so a
        column gives the same bits alone as inside any larger array."""
        terms = np.diff(np.asarray(F, dtype=float)[..., self.end_idx]) \
            * self.end_w
        out = terms[..., 0]
        for k in range(1, self.WIDTH - 1):
            out = out + terms[..., k]
        return out
