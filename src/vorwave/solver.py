"""Newton solver for the height-function system and bifurcation detection.

Unknowns are the height values h(q_i, p_j) for j >= 1 (the bed row is pinned
to zero) together with the head Q when a closure equation is active. The
interior equation is

    (1 + h_q^2) h_pp - 2 h_q h_p h_pq + h_p^2 h_qq + gamma(-p) h_p^3 = 0,

with the Bernoulli condition (1 + h_q^2)/(2 h_p^2) + g h - Q = 0 on p = 0,
h = 0 on p = -m, and even symmetry in q enforced by reflection stencils.
The sign convention is pinned by the laminar identity H'' + gamma H'^3 = 0.
The Newton Jacobian is the chain rule over the residual's own stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, solve_banded, solve_triangular
from scipy.sparse.linalg import splu

from .errors import (BifurcationNotFoundError, InputError, NoConvergenceError,
                     NumericsError, SolverError, StagnationApproachError,
                     StagnationError)
from .fd import dp, dq
from .grid import DEFAULT_STRETCHING, StripGrid
from .laminar import _admissible_floor, brent_root, critical_lambda, \
    laminar_head

HP_FLOOR = 1e-8
MAX_HALVINGS = 30
# nodes of find_bifurcation's vertical grid
BIFURCATION_NODES = 4001
# find_bifurcation's Brent tolerance on lam*, times max(1, lambda_c): at
# gamma != 0 the surface residual's rounding noise resolves lam* to about
# 1e-12 relative, and a tighter one spends its evaluations on that noise
BIFURCATION_XTOL = 1e-12
# Newton iterations of discrete_laminar before it gives up
LAMINAR_MAX_ITER = 25


def solver_hp(grid, h):
    """h_p along the last axis of h (any leading shape), all in difference
    form, so a column constant in p gives exactly zero: dp inside, and the
    reconstruction's own grid.column_ops.ends at the bed and surface."""
    hp = np.empty_like(h)
    hp[..., 1:-1] = dp(h, grid.w1)
    hp[..., [0, -1]] = grid.column_ops.ends(h)
    return hp


def amplitude(h):
    """Crest-minus-trough surface height difference."""
    return float(h[0, -1] - h[-1, -1])


def crest_hp(grid, h):
    """h_p at the crest's surface node, q = 0 and p = 0, read through the
    surface window of grid.column_ops.ends, as solver_hp reads it: the
    crest speed is its reciprocal."""
    return float(grid.column_ops.ends(h[0])[1])


def crest_kink(grid, h):
    """(kinked, node, slope) of the wave h: node is the q-node where the
    surface slope |h_q(q, 0)| peaks, and slope its value there. The wave is
    kinked, its crest unresolved on this grid, when that node is 1, the
    first node off the crest. A flat surface, whose h_q is exactly zero,
    is not kinked, and its node is None."""
    slopes = np.abs(dq(h[:, -1], grid.wq1, "even"))
    node = int(np.argmax(slopes))
    if slopes[node] == 0.0:
        return False, None, 0.0
    return node == 1, node, float(slopes[node])


def trough_criterion_value(grid, g, gamma0, h):
    """g - gamma0 * u at the trough (q = L, p = 0), gamma0 the vorticity
    gamma(0) and u = -1/h_p read as solver_hp reads it: the continuation's
    stop rule and D-trough."""
    u_trough = -1.0 / float(solver_hp(grid, h[-1])[-1])
    return g - gamma0 * u_trough


def _derivatives(grid, h):
    """(h_p, h_q, h_pq, h_qq, h_pp): the one evaluation that the residual
    and the Jacobian share; h_pp covers the interior rows only."""
    hp = solver_hp(grid, h)
    return (hp, dq(h, grid.wq1, "even"), dq(hp, grid.wq1, "even"),
            dq(h, grid.wq2, "even"), dp(h, grid.w2))


def _residual(gam, g, h, Q, derivs):
    """(R, S) of residual_parts, gam being gamma(-p) on the interior rows."""
    hp, hq, hpq, hqq, hpp = derivs
    if np.min(hp) <= 0.0:
        raise StagnationError(
            "h_p <= 0 at %d nodes: relative flow reaches stagnation"
            % int(np.sum(hp <= 0.0)))
    hqc, hpc, hpqc, hqqc = hq[:, 1:-1], hp[:, 1:-1], hpq[:, 1:-1], hqq[:, 1:-1]
    R = ((1.0 + hqc ** 2) * hpp - 2.0 * hqc * hpc * hpqc
         + hpc ** 2 * hqqc + gam * hpc ** 3)
    S = (1.0 + hq[:, -1] ** 2) / (2.0 * hp[:, -1] ** 2) + g * h[:, -1] - Q
    return R, S


def residual_parts(grid, vf, g, h, Q):
    """Interior residual (nq, npts-2) and surface residual (nq,).

    Raises StagnationError if h_p <= 0 anywhere: the formulation is only
    meaningful while u = -1/h_p stays negative.
    """
    return _residual(vf.gamma(-grid.p)[1:-1], g, h, Q, _derivatives(grid, h))


def pack_residual(R, S):
    return np.concatenate([R, S[:, None]], axis=1).ravel()


def pack_unknowns(h, Q):
    """The Newton unknowns of (h, Q): h off the bed row, raveled in
    pack_residual's order, then Q."""
    return np.append(h[:, 1:].ravel(), Q)


def unpack_unknowns(grid, x):
    """(h, Q) of the unknowns x, h's bed row zero."""
    h = np.zeros((grid.nq, grid.npts))
    h[:, 1:] = x[:-1].reshape(grid.nq, grid.npts - 1)
    return h, float(x[-1])


def _surface_rows(grid):
    """Rows (and columns) of the surface unknowns h(q_i, 0)."""
    return np.arange(grid.nq) * (grid.npts - 1) + (grid.npts - 2)


def _chain_rule_maps(grid):
    """Yields (rows, cols, values) of each of the chain rule's eight linear
    maps over the unknowns j >= 1, in pack_residual order: the interior
    rows' h_pp, h_q, h_p, h_qq and h_pq, then the surface rows' h_p, h_q
    and h. Each is the Kronecker product of the q and p stencils that the
    residual's own functions give on identity matrices (bed column
    dropped); J_hh sums them weighted by _chain_rule_coefficients."""
    eye_q, eye_p = np.eye(grid.nq), np.eye(grid.npts)
    d_q, d_qq = dq(eye_q, grid.wq1, "even"), dq(eye_q, grid.wq2, "even")
    d_p = solver_hp(grid, eye_p).T[1:, 1:]
    d_pp = np.pad(dp(eye_p, grid.w2).T[:, 1:], ((0, 1), (0, 0)))
    eye_p = eye_p[1:, 1:]
    inner, top = 1.0 - eye_p[:, -1:], eye_p[:, -1:]  # rows p[1:-1], p = 0
    for q, p in ((eye_q, d_pp), (d_q, inner * eye_p), (eye_q, inner * d_p),
                 (d_qq, inner * eye_p), (d_q, inner * d_p), (eye_q, top * d_p),
                 (d_q, top * eye_p), (eye_q, top * eye_p)):
        (qi, qj), (pi, pj) = np.nonzero(q), np.nonzero(p)
        yield (np.add.outer(qi * p.shape[0], pi).ravel(),
               np.add.outer(qj * p.shape[0], pj).ravel(),
               np.outer(q[qi, qj], p[pi, pj]).ravel())


def _chain_rule_coefficients(grid, gam, g, derivs):
    """(8, n): the weight of each of _chain_rule_maps on each row, in
    pack_residual order: the derivatives of R by h_pp, h_q, h_p, h_qq and
    h_pq, then of S by h_p, h_q and h; each is zero on the other rows;
    gam is gamma(-p) on the interior rows."""
    hp, hq, hpq, hqq, hpp = derivs
    hqc, hpc, hpqc, hqqc = hq[:, 1:-1], hp[:, 1:-1], hpq[:, 1:-1], hqq[:, 1:-1]
    c = np.zeros((8, grid.nq, grid.npts - 1))
    c[0, :, :-1] = 1.0 + hqc ** 2
    c[1, :, :-1] = 2.0 * hqc * hpp - 2.0 * hpc * hpqc
    c[2, :, :-1] = -2.0 * hqc * hpqc + 2.0 * hpc * hqqc + 3.0 * gam * hpc ** 2
    c[3, :, :-1] = hpc ** 2
    c[4, :, :-1] = -2.0 * hqc * hpc
    # surface rows: S = (1+hq^2)/(2 hp^2) + g h - Q at p = 0
    hq_s, hp_s = hq[:, -1], hp[:, -1]
    c[5, :, -1] = -(1.0 + hq_s ** 2) / hp_s ** 3
    c[6, :, -1] = hq_s / hp_s ** 2
    c[7, :, -1] = g
    return c.reshape(8, -1)


def jacobian_blocks(grid, vf, g, h, Q):
    """Sparse d(residual)/dh over the j >= 1 unknowns, plus d(residual)/dQ.

    Row/column order matches pack_residual: n(i,j) = i*(npts-1) + (j-1).
    Both are read off the Newton matrix, assembled with a zero border row
    into a structure built for this call: its rows and columns at the grid
    unknowns' stored places, and its border column there.
    """
    c = _chain_rule_coefficients(grid, vf.gamma(-grid.p)[1:-1], g,
                                 _derivatives(grid, h))
    n = c.shape[1]
    matrix = _NewtonMatrix(grid)
    places = np.argsort(matrix.order)[:n]
    A = matrix.assemble(c, np.zeros(n + 1))
    J_hh = A[places][:, places]
    J_hh.sort_indices()
    return J_hh, A[:, n].toarray().ravel()[places]


# blocks of at most this many grid nodes are not dissected further
DISSECTION_LEAF = 16


def _dissection_order(idx):
    """The entries of the 2-D grid array idx in geometric nested dissection
    order (George 1973): the longer side is split at its middle grid line,
    both halves come first, each ordered so in turn, then the line; blocks
    of at most DISSECTION_LEAF nodes come row by row."""
    if idx.size <= DISSECTION_LEAF:
        return idx.ravel()
    if idx.shape[1] > idx.shape[0]:
        k = idx.shape[1] // 2
        first, line, second = idx[:, :k], idx[:, k], idx[:, k + 1:]
    else:
        k = idx.shape[0] // 2
        first, line, second = idx[:k], idx[k], idx[k + 1:]
    return np.concatenate([_dissection_order(first),
                           _dissection_order(second), line])


class _NewtonMatrix:
    """Structure of the Newton matrix of one grid, the same in every solve
    mode.

    The matrix is J_hh bordered by the dF/dQ column (-1 on the surface
    rows) and one dense row: the derivative of the equation the solve mode
    appends, over the n grid unknowns and, in the corner, over Q. J_hh
    stores the entries of _chain_rule_maps, the border row all its entries,
    zeros too. The compressed-column structure, rows and columns in one
    fixed order (the grid unknowns by nested dissection, then the border),
    and `values`, the sparse map from the parameters to the stored values,
    are built once: one product assembles each system. A LinearSolver
    holds one, with its factorization.
    """

    def __init__(self, grid):
        n = grid.nq * (grid.npts - 1)
        self.order = np.append(_dissection_order(
            np.arange(n).reshape(grid.nq, grid.npts - 1)), n)
        position = np.argsort(self.order)
        # A stored value sums the terms at its place (column-major, stored
        # order), each a weight times a parameter: the coefficients (map k
        # at row r reads coefficient k at r), the border row, a 1 for dF/dQ.
        places, params, weights = [], [], []
        for k, (rows, cols, values) in enumerate(_chain_rule_maps(grid)):
            places.append(position[cols] * (n + 1) + position[rows])
            params.append(k * n + rows)
            weights.append(values)
        places += [position * (n + 1) + n,
                   n * (n + 1) + position[_surface_rows(grid)]]
        params += [np.arange(8 * n, 9 * n + 1), np.full(grid.nq, 9 * n + 1)]
        weights += [np.ones(n + 1), np.full(grid.nq, -1.0)]
        place, params, weights = (np.concatenate(parts) for parts in
                                  (places, params, weights))
        del places
        # a stable sort by place keeps each place's terms in their order above
        order = np.argsort(place, kind="stable")
        place, params, weights = place[order], params[order], weights[order]
        first = np.flatnonzero(np.append(True, place[1:] != place[:-1]))
        # one CSR row per stored value, holding its terms in that order,
        # which the product adds in turn
        self.values = sparse.csr_matrix(
            (weights, params, np.append(first, place.size)),
            shape=(first.size, 9 * n + 2))
        place = place[first]
        self.indices = (place % (n + 1)).astype(np.intc)
        self.indptr = np.searchsorted(place, np.arange(n + 2) * (n + 1)
                                      ).astype(np.intc)

    def assemble(self, coefficients, row):
        """The matrix in the stored order, as CSC, whose J_hh has these
        _chain_rule_coefficients and whose last row is `row`."""
        data = self.values @ np.concatenate([coefficients.ravel(), row, [1.0]])
        n = self.indptr.size - 1
        return sparse.csc_matrix((data, self.indices, self.indptr),
                                 shape=(n, n))


# A solver factors a Newton system by splu when it holds no LU; otherwise
# the system is solved by GMRES, right-preconditioned by its last LU. Each
# system comes with a forcing term (Eisenstat & Walker 1996), the relative
# 2-norm residual newton_solve asks of it, and GMRES's answer counts only
# if its true residual meets it. The first system of a solve is asked for
# FIRST_FORCING. A later one is asked for FORCING_SAFETY times the max-norm
# residual that the last contraction predicts after its step (or the
# Newton tolerance, if larger), over its right-hand side's 2-norm, and for
# no less than LINEAR_RTOL nor more than FORCING_MAX. So its linear error
# stays a tenth of what the step leaves, and the iterates are not exact
# Newton's: they contract about as fast, and the wave they converge to differs
# from exact Newton's at the level of the Newton tolerance. The kept LU is
# rescaled to each system's rows: the solver keeps the l1 norms of the
# rows the LU factored, and GMRES applies the LU to v times those norms
# over the system's own, which absorbs the drift of the rows' scale from
# system to system. GMRES gets one cycle of at most GMRES_RESTART
# iterations; when it misses, the system is factored. A system that needed
# more than LU_REFRESH_ITER iterations drops the factorization, so the next
# one is factored afresh.
LINEAR_RTOL = 1e-6
GMRES_RESTART = 20
LU_REFRESH_ITER = 10
FIRST_FORCING = 1e-3
FORCING_MAX = 0.1
FORCING_SAFETY = 0.1


def _right_gmres(A, b, precondition, rtol, maxiter):
    """(x, k): GMRES (Saad & Schultz 1986) for A x = b from x = 0, right-
    preconditioned, stopped after the first of at most maxiter iterations
    whose residual estimate is at most rtol ||b||; k counts the iterations.

    Arnoldi runs on A M^-1, where precondition(v) = M^-1 v, and keeps each
    z_j = M^-1 v_j, so x = Z y takes no further solve: one solve and one
    product with A per iteration. Givens rotations reduce the Hessenberg
    matrix to triangular form as it grows, which gives the least-squares
    residual ||b - A x_k||, in exact arithmetic the true one. The basis is
    orthogonalized by classical Gram-Schmidt applied twice (Giraud et al.
    2005), as matrix products.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    V = np.empty((maxiter + 1, b.size))
    Z = np.empty((maxiter, b.size))
    R = np.zeros((maxiter, maxiter))  # the rotated Hessenberg matrix
    rotations = []
    g = np.zeros(maxiter + 1)  # the rotated beta e_1
    g[0] = beta
    V[0] = b / beta
    for k in range(maxiter):
        Z[k] = precondition(V[k])
        w = A @ Z[k]
        h = V[:k + 1] @ w
        w -= h @ V[:k + 1]
        again = V[:k + 1] @ w
        w -= again @ V[:k + 1]
        h += again
        below = float(np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = np.hypot(h[k], below)
        c, s = h[k] / r, below / r
        rotations.append((c, s))
        h[k] = r
        R[:k + 1, k] = h
        g[k], g[k + 1] = c * g[k], -s * g[k]
        if abs(g[k + 1]) <= rtol * beta or below == 0.0:
            break
        V[k + 1] = w / below
    k += 1
    y = solve_triangular(R[:k, :k], g[:k], check_finite=False)
    return y @ Z[:k], k


def _row_norms(A):
    """l1 norms of the rows of the CSC matrix A, in its stored order."""
    return np.bincount(A.indices, weights=np.abs(A.data),
                       minlength=A.shape[0])


class LinearSolver:
    """Solves the Newton systems of one grid, each given by its chain-rule
    coefficients, border row and tolerance, factoring as few as the policy
    above allows, by splu in the matrix's own fill-reducing order (SuperLU's
    natural ordering). It builds the grid's Newton matrix structure once and
    keeps `lu`, its last LU, None before the first factorization, with
    `row_norms`, the l1 norms of the rows that LU factored; setting `lu` to
    None, as a failed newton_solve does, has the next system factored.
    `factorizations` and `linear_iterations` total its splu calls and GMRES
    iterations over every newton_solve call it serves. At most one LU is
    alive per solver: the old one is dropped before splu makes one. Nothing
    of it lives on the grid, so threads solving on one grid never share
    one."""

    def __init__(self, grid):
        self.matrix = _NewtonMatrix(grid)
        self.lu = None
        self.row_norms = None
        self.factorizations = 0
        self.linear_iterations = 0

    def __call__(self, coefficients, row, rhs, rtol):
        """Solution of the system whose matrix has these
        _chain_rule_coefficients and border row: by GMRES to a true
        relative residual of rtol on the kept LU, or by a fresh LU, which
        ignores rtol."""
        A = self.matrix.assemble(coefficients, row)
        order = self.matrix.order
        b = rhs[order]
        y = None if self.lu is None else self._gmres(A, b, rtol)
        if y is None:
            self.lu = None  # freed before splu makes the next one
            self.lu = splu(A, permc_spec="NATURAL")
            self.row_norms = _row_norms(A)
            self.factorizations += 1
            y = self.lu.solve(b)
        x = np.empty_like(rhs)
        x[order] = y
        return x

    def _gmres(self, A, b, rtol):
        """GMRES's answer if its true residual passes, else None."""
        lu, scale = self.lu, self.row_norms / _row_norms(A)
        y, iterations = _right_gmres(A, b, lambda v: lu.solve(v * scale),
                                     rtol, GMRES_RESTART)
        self.linear_iterations += iterations
        if iterations > LU_REFRESH_ITER:
            self.lu = None
        if np.linalg.norm(A @ y - b) <= rtol * np.linalg.norm(b):
            return y
        return None


@dataclass
class SolverResult:
    """A converged solve; `factorizations` counts its splu calls, 0 when
    every system went to GMRES on the LU its linear solver held, and
    `linear_iterations` its GMRES iterations."""
    h: np.ndarray
    Q: float
    iterations: int
    residual_norm: float
    factorizations: int
    linear_iterations: int


def newton_tolerance(Q):
    """Max-norm residual below which Newton counts a solve as converged."""
    return 1e-10 * max(1.0, abs(Q))


def scaled_dot(ah, aQ, bh, bQ):
    """Inner product of two (h, Q) pairs: the mean product of the heights
    off the bed row plus the product of the heads."""
    return (float(ah[:, 1:].ravel() @ bh[:, 1:].ravel()) / ah[:, 1:].size
            + aQ * bQ)


def solve_mode(grid, mode, Q0=None, amplitude_target=None,
               crest_hp_target=None, base=None, tangent=None, ds=None):
    """(row, target) of the equation a solve mode appends to the residual,
    row @ pack_unknowns(h, Q) - target, linear in the unknowns, so that row
    borders the Newton matrix. "fixed_q" holds Q at Q0, to the bit;
    "fixed_amplitude" amplitude(h) at amplitude_target; "fixed_crest_speed"
    crest_hp(grid, h), the reciprocal crest speed, at crest_hp_target;
    "arclength" is the pseudo-arclength condition (Keller 1977)
    scaled_dot(h - h_b, Q - Q_b, t_h, t_Q) = ds, from `base` (h_b, Q_b)
    along `tangent` (t_h, t_Q)."""
    n = grid.nq * (grid.npts - 1)
    row = np.zeros(n + 1)
    if mode == "fixed_q":
        if Q0 is None:
            raise InputError("fixed_q mode needs Q0")
        row[n] = 1.0
        return row, Q0
    if mode == "fixed_amplitude":
        if amplitude_target is None:
            raise InputError("fixed_amplitude mode needs amplitude_target")
        # the crest and trough surface nodes
        row[grid.npts - 2], row[n - 1] = 1.0, -1.0
        return row, amplitude_target
    if mode == "fixed_crest_speed":
        if crest_hp_target is None:
            raise InputError("fixed_crest_speed mode needs crest_hp_target")
        # the surface window's weights on the crest column, bed dropped:
        # the crest column's unknowns come first
        row[:grid.npts - 1] = grid.column_ops.ends(np.eye(grid.npts))[1:, 1]
        return row, crest_hp_target
    if mode == "arclength":
        if base is None or tangent is None or ds is None:
            raise InputError("arclength mode needs base, tangent, and ds")
        row = pack_unknowns(*tangent)
        row[:n] /= n
        return row, row @ pack_unknowns(*base) + ds
    raise InputError("unknown solve mode %r" % mode)


def newton_solve(grid, vf, g, h0, Q0, mode="fixed_q", *, amplitude_target=None,
                 crest_hp_target=None, base=None, tangent=None, ds=None,
                 max_iter=50, max_contraction=None, linear_solver=None):
    """Damped Newton iteration on the discrete height system, from (h0, Q0),
    with the equation solve_mode builds from `mode` and its keywords
    appended (fixed_q's Q0 is the start's). The derivatives of each
    accepted iterate feed its residual and then its Jacobian. Steps are
    halved whenever the candidate would push min h_p below the positivity
    floor or fails to reduce the residual norm.

    The systems go to a LinearSolver (the policy above it): by default one
    the call builds, so its first system is factored and its result does
    not depend on other solves. A caller may pass `linear_solver`, a
    LinearSolver(grid) it owns, to serve several calls, in any mode: each
    starts from the LU the last one left, and the caller owns that
    dependence. A call that raises a SolverError drops that LU, so a failed
    solve hands none on. The result counts this call's factorizations,
    which may then be 0, and GMRES iterations; the solver's own totals
    keep counting.

    With `max_contraction` set to theta < 1, the iteration gives up with
    NoConvergenceError as soon as an iteration that has not converged cuts
    the max-norm residual by less than that factor (new > theta * old): a
    Newton iteration that contracts this slowly is outside its region of
    fast convergence, and a caller that can shorten its step does better to
    retry at once (Deuflhard's monotonicity test). None never gives up early.
    """
    Q = float(Q0)
    row, target = solve_mode(grid, mode, Q, amplitude_target,
                             crest_hp_target, base, tangent, ds)
    solve = LinearSolver(grid) if linear_solver is None else linear_solver
    done = solve.factorizations, solve.linear_iterations
    gam = vf.gamma(-grid.p)[1:-1]
    h = np.array(h0, dtype=float)
    h[:, 0] = 0.0

    def full_residual(hc, Qc, derivs):
        R, S = _residual(gam, g, hc, Qc, derivs)
        return np.append(pack_residual(R, S),
                         row @ pack_unknowns(hc, Qc) - target)

    try:
        derivs = _derivatives(grid, h)
        F = full_residual(h, Q, derivs)
        prev_nrm = None
        for it in range(max_iter + 1):
            nrm = float(np.max(np.abs(F)))
            if nrm < newton_tolerance(Q):
                return SolverResult(h, Q, it, nrm,
                                    solve.factorizations - done[0],
                                    solve.linear_iterations - done[1])
            if it == max_iter:
                raise NoConvergenceError("residual %.3g after %d Newton "
                                         "iterations" % (nrm, max_iter))
            if (max_contraction is not None and prev_nrm is not None
                    and nrm > max_contraction * prev_nrm):
                raise NoConvergenceError(
                    "Newton iteration %d cut the residual only from %.3g to "
                    "%.3g (ratio %.3f > %g)"
                    % (it, prev_nrm, nrm, nrm / prev_nrm, max_contraction))
            if prev_nrm is None:
                rtol = FIRST_FORCING
            else:
                # the max-norm residual after this step, if Newton
                # converges quadratically with the last step's constant
                predicted = nrm ** 3 / prev_nrm ** 2
                rtol = min(FORCING_MAX, max(LINEAR_RTOL, FORCING_SAFETY * max(
                    predicted, newton_tolerance(Q)) / np.linalg.norm(F)))
            prev_nrm = nrm

            c = _chain_rule_coefficients(grid, gam, g, derivs)
            dh, dQ = unpack_unknowns(grid, solve(c, row, -F, rtol))
            step = 1.0
            for _ in range(MAX_HALVINGS + 1):
                hc = h + step * dh
                Qc = Q + step * dQ
                dc = _derivatives(grid, hc)
                floor_blocked = np.min(dc[0]) <= HP_FLOOR  # dc[0] is h_p
                if not floor_blocked:
                    Fc = full_residual(hc, Qc, dc)
                    nc = float(np.max(np.abs(Fc)))
                    if nc < nrm or nc < newton_tolerance(Qc):
                        h, Q, F, derivs = hc, Qc, Fc, dc
                        break
                step *= 0.5
            else:
                if floor_blocked:
                    raise StagnationApproachError(
                        "line search blocked by the h_p positivity floor")
                raise NoConvergenceError("line search failed to reduce the "
                                         "residual below %.3g" % nrm)
    except SolverError:
        solve.lu = None
        raise
    raise NoConvergenceError("unreachable")  # pragma: no cover


# -- trivial (laminar) point on the discrete grid ---------------------------

def discrete_laminar(grid, vf, g, lam):
    """Column heights of the discrete laminar root at head Q = head(lam).

    The q-independent reduction of the height system is a small Newton
    problem; solving it directly avoids the full-strip Jacobian, which is
    nearly singular when lam sits at a bifurcation point. Newton starts from
    the cumulative sum of the trapezoids of H' = (lam + 2 Gamma)^(-1/2) over
    grid.p; its Jacobian is _mode_operator's at k = 0 about the iterate's
    solver_hp^2.
    """
    Q = laminar_head(vf, lam, g)
    slope = (lam + 2.0 * vf.Gamma(grid.p)) ** -0.5
    hcol = np.append(0.0, np.cumsum(
        np.diff(grid.p) * (slope[1:] + slope[:-1]) / 2.0))
    gam = vf.gamma(-grid.p)[1:-1]
    for it in range(LAMINAR_MAX_ITER):
        hp = solver_hp(grid, hcol)
        if np.min(hp[1:]) <= 0.0:
            raise StagnationError("h_p <= 0 in the laminar column")
        F = np.append(dp(hcol, grid.w2) + gam * hp[1:-1] ** 3,
                      1.0 / (2.0 * hp[-1] ** 2) + g * hcol[-1] - Q)
        if np.max(np.abs(F)) < newton_tolerance(Q):
            return hcol, Q, it
        sub, diag, sup, surface = _mode_operator(grid, g, hp ** 2, gam, 0.0)
        J = (np.diag(np.append(diag, 0.0)) + np.diag(np.append(sub, 0.0), -1)
             + np.diag(sup, 1))
        J[-1] = surface(np.eye(grid.npts))[1:]
        hcol[1:] += np.linalg.solve(J, -F)
    raise NoConvergenceError("laminar column Newton did not converge")


# -- bifurcation from the trivial branch ------------------------------------

def _mode_operator(grid, g, Hp2, gam, k):
    """(sub, diag, sup, surface): the linearization of the height system
    for a cos(k q) mode about a column with H'^2 = Hp2 on grid.p, bed value
    pinned. The interior rows p[1:-1] are the tridiagonal (sub, diag, sup)
    of w'' + 3 gamma H'^2 w' - k^2 H'^2 w, gam being gamma(-p) there; sup's
    last entry reaches the surface node. surface(w), on columns w over
    grid.p, is the derivative of the Bernoulli residual 1/(2 h_p^2) + g h -
    Q: g w(0) - w_p(0) / H'(0)^3, w_p(0) by solver_hp's surface window.
    """
    inner = Hp2[1:-1]
    adv = 3.0 * gam * inner
    sub = grid.w2[1:, 0] + adv[1:] * grid.w1[1:, 0]
    diag = (grid.w2[:, 1] + adv * grid.w1[:, 1]) - k ** 2 * inner
    sup = grid.w2[:, 2] + adv * grid.w1[:, 2]
    Hp3 = Hp2[-1] ** 1.5
    return sub, diag, sup, (
        lambda w: g * w[..., -1] - grid.column_ops.ends(w)[..., 1] / Hp3)


def _transverse_operator(vf, g, grid):
    """lam -> _mode_operator of the cos(pi q / L) mode about the laminar
    flow at lam, H'^2 = 1/(lam + 2 Gamma), on the nodes and weights of
    grid: the Newton system's own interior and surface rows. Only the
    surface row can make it singular: the interior rows are strictly
    diagonally dominant (row sum -k^2 H'^2).
    """
    Gamma, gam = vf.Gamma(grid.p), vf.gamma(-grid.p)[1:-1]
    k = np.pi / grid.L
    return lambda lam: _mode_operator(grid, g, 1.0 / (lam + 2.0 * Gamma),
                                      gam, k)


def _surface_mode(sub, diag, sup, surface):
    """(phi, r): phi, with phi[0] = 0 at the bed, solves the interior rows
    (sub, diag, sup) with phi[-1] = 1, by one banded solve, and
    r = surface(phi) is the surface row's residual. With A the interior
    rows over the surface row, A phi[1:] = r e_last and r = det(A) /
    det(A[:-1, :-1]); solving A x = e_last instead would meet a last pivot
    of exactly zero where A is singular."""
    ab = np.array([np.append(0.0, sup[:-1]), diag, np.append(sub, 0.0)])
    try:
        phi = solve_banded((1, 1), ab,
                           np.append(np.zeros(diag.size - 1), -sup[-1]))
    except LinAlgError as exc:
        raise NumericsError("mode operator singular: %s" % exc) from exc
    phi = np.concatenate([[0.0], phi, [1.0]])
    return phi, float(surface(phi))


def find_bifurcation(vf, g, L, m, *, beta=DEFAULT_STRETCHING, lam_c=None):
    """Squared surface speed lam* where a cos(pi q / L) mode branches off.

    Root of the transverse mode operator's surface residual (_surface_mode)
    on a column StripGrid of BIFURCATION_NODES nodes with stretching beta,
    searched between -2 min Gamma and lambda_c; always strictly below
    lambda_c. The residual is smooth in lam and zero exactly where the
    operator is singular; laminar.brent_root resolves lam* to
    BIFURCATION_XTOL, where the residual's rounding noise sets in.
    `lam_c` is critical_lambda(vf, g), computed here unless the caller has
    it.
    """
    if lam_c is None:
        lam_c = critical_lambda(vf, g)
    floor = _admissible_floor(vf)
    lo, hi = floor + 1e-4 * (lam_c - floor), lam_c
    operator = _transverse_operator(
        vf, g, StripGrid(L, m, 4, BIFURCATION_NODES, beta))

    def r(lam):
        return _surface_mode(*operator(lam))[1]

    r_lo, r_hi = r(lo), r(hi)
    if not (r_lo > 0.0 > r_hi):
        raise BifurcationNotFoundError(
            "mode operator's surface residual does not change sign on "
            "[%g, %g] (r(lo)=%.3g, r(hi)=%.3g)" % (lo, hi, r_lo, r_hi))
    lam_star = brent_root(r, lo, hi, BIFURCATION_XTOL * max(1.0, hi))
    if not lam_star < lam_c:
        raise BifurcationNotFoundError("detected lam* is not below lambda_c")
    return lam_star


def bifurcation_mode(grid, vf, g, lam_star):
    """Vertical mode shape phi on grid.p, normalized to phi(0) = 1/2: the
    interior rows of grid's mode operator at lam_star solved with the
    surface value fixed (_surface_mode). It is find_bifurcation's operator
    on grid's nodes instead of BIFURCATION_NODES, so its surface residual
    at lam_star is small but not zero; only the seed of Newton uses it."""
    phi, _ = _surface_mode(*_transverse_operator(vf, g, grid)(lam_star))
    return 0.5 * phi


def mode_seed(grid, hcol, phi, a0):
    """The laminar column hcol plus a0 * cos(pi q / L) times the mode shape
    phi, bed row zeroed: Newton's start at amplitude a0 on the nontrivial
    branch. The cosine sign puts the crest at q = 0 and the trough at q = L.
    """
    h0 = hcol + a0 * np.cos(np.pi * grid.q / grid.L)[:, None] * phi
    h0[:, 0] = 0.0
    return h0


def seed_wave(grid, vf, g, lam_star, a0):
    """Initial guess (h0, Q0) on the nontrivial branch at amplitude a0."""
    hcol, Q, _ = discrete_laminar(grid, vf, g, lam_star)
    return mode_seed(grid, hcol, bifurcation_mode(grid, vf, g, lam_star),
                     a0), Q
