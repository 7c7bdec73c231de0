"""Finite-difference building blocks: weights, parity stencils, column ops."""

import numpy as np
import pytest

from vorwave.fd import (ColumnOps, dp, dq, fd_weights, mirror_weights,
                        three_point_weights)
from vorwave.grid import StripGrid, stretched_nodes
from vorwave.solver import solver_hp


def test_weights_match_classic_stencils():
    h = 0.5
    nodes = np.array([-h, 0.0, h])
    np.testing.assert_allclose(fd_weights(nodes, 0.0, 1),
                               np.array([-1.0, 0.0, 1.0]) / (2 * h))
    np.testing.assert_allclose(fd_weights(nodes, 0.0, 2),
                               np.array([1.0, -2.0, 1.0]) / h ** 2)
    onesided = np.array([0.0, h, 2 * h])
    np.testing.assert_allclose(fd_weights(onesided, 0.0, 1),
                               np.array([-1.5, 2.0, -0.5]) / h)
    four = np.array([0.0, h, 2 * h, 3 * h])
    np.testing.assert_allclose(fd_weights(four, 0.0, 1),
                               np.array([-11.0 / 6, 3.0, -1.5, 1.0 / 3]) / h,
                               atol=1e-14)


def test_weights_exact_on_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nodes = np.sort(rng.uniform(-2, 2, size=5))
        if np.min(np.diff(nodes)) < 1e-3:
            continue
        x0 = rng.uniform(nodes[0], nodes[-1])
        coeffs = rng.uniform(-1, 1, size=5)
        poly = np.polynomial.Polynomial(coeffs)
        for order in (1, 2, 3):
            w = fd_weights(nodes, x0, order)
            got = w @ poly(nodes)
            np.testing.assert_allclose(got, poly.deriv(order)(x0),
                                       rtol=0, atol=1e-9)


def test_weights_reject_too_high_order():
    with pytest.raises(ValueError):
        fd_weights(np.array([0.0, 1.0, 2.0]), 0.0, 3)


def _fornberg_one_window(nodes, x0, order):
    """Fornberg's recurrence on one window, a scalar at a time: the
    reference for the batched fd_weights."""
    n = len(nodes)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("width", [5, 6])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_batched_weights_are_the_per_node_loop_to_the_bit(order, width):
    rng = np.random.default_rng(5)
    grids = [stretched_nodes(1.0, n, beta) for n in (20, 48, 96, 300)
             for beta in (0.0, 0.5, 0.9)]
    grids.append(np.cumsum(rng.uniform(0.01, 1.0, size=40)))
    for p in grids:
        # sliding windows clipped at the ends, as ColumnOps places them
        starts = np.clip(np.arange(p.size) - 2, 0, p.size - width)
        idx = starts[:, None] + np.arange(width)
        ref = np.array([_fornberg_one_window(p[idx[j]], p[j], order)
                        for j in range(p.size)])
        assert _same_bits(fd_weights(p[idx], p, order), ref)
        if (order, width) == (1, ColumnOps.WIDTH):
            ops = ColumnOps(p)
            assert np.array_equal(ops.idx, idx)
            assert _same_bits(ops.w, ref)
            assert ops.w.flags.c_contiguous
    nodes = np.sort(rng.uniform(-2.0, 2.0, size=(30, width)), axis=-1)
    x0 = rng.uniform(-2.0, 2.0, size=30)
    ref = np.array([_fornberg_one_window(nodes[r], x0[r], order)
                    for r in range(30)])
    assert _same_bits(fd_weights(nodes, x0, order), ref)
    assert _same_bits(fd_weights(nodes[0], x0[0], order), ref[0])
    # x0 broadcast: one point for every window
    ref = np.array([_fornberg_one_window(nodes[r], 0.25, order)
                    for r in range(30)])
    assert _same_bits(fd_weights(nodes, 0.25, order), ref)


def _order_from_errors(errors, factor=2.0):
    return np.log(errors[:-1] / errors[1:]) / np.log(factor)


def _q_nodes(n, uniform, L=np.pi):
    """Nodes on [0, L]: uniform, or clustered toward q = 0 by the vertical
    stretch map."""
    if uniform:
        return np.linspace(0.0, L, n)
    q = -L * stretched_nodes(1.0, n, 0.6)[::-1]
    q[0] = 0.0
    return q


def test_three_point_weights_match_fornberg():
    rng = np.random.default_rng(11)
    hm = rng.uniform(0.01, 1.0, size=50)
    hp = rng.uniform(0.01, 1.0, size=50)
    w1, w2 = three_point_weights(hm, hp)
    for k in range(hm.size):
        nodes = np.array([-hm[k], 0.0, hp[k]])
        for w, order in ((w1[k], 1), (w2[k], 2)):
            ref = fd_weights(nodes, 0.0, order)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


# Each case names the derivative and the parity it stands for: the first
# (dq_*) or second (dqq_*) derivative of an even or odd field.
@pytest.mark.parametrize("case,fn,dfn", [
    ("dq_even", lambda q: np.cos(2 * q), lambda q: -2 * np.sin(2 * q)),
    ("dq_odd", lambda q: np.sin(2 * q), lambda q: 2 * np.cos(2 * q)),
    ("dqq_even", lambda q: np.cos(2 * q), lambda q: -4 * np.cos(2 * q)),
])
def test_parity_stencils_second_order(case, fn, dfn):
    second = case.startswith("dqq")
    parity = case.rsplit("_", 1)[1]
    for uniform in (True, False):
        errors = []
        for n in (33, 65, 129):
            q = _q_nodes(n, uniform)
            w = mirror_weights(q)[1 if second else 0]
            got = dq(fn(q)[:, None], w, parity)[:, 0]
            errors.append(np.max(np.abs(got - dfn(q))))
        orders = _order_from_errors(np.array(errors))
        assert np.all(orders > 1.8) and np.all(orders < 2.3), (uniform, orders)


def test_even_derivative_vanishes_at_ends_exactly():
    for uniform in (True, False):
        q = _q_nodes(41, uniform)
        wq1, wq2 = mirror_weights(q)
        F = np.cosh(np.cos(q))
        for field in (F, F[:, None]):  # a surface row, a strip field
            d = dq(field, wq1, "even")
            assert np.all(d[0] == 0.0) and np.all(d[-1] == 0.0)
        # a constant differentiates to exactly zero, whatever the spacing
        const = np.full((q.size, 3), 0.7315)
        for w in (wq1, wq2):
            assert np.all(dq(const, w, "even") == 0.0)


def test_p_stencils_vanish_exactly_on_a_p_constant():
    # the p axis in the same difference form as dq: the interior weights,
    # and solver_hp's one-sided bed and surface rows too
    for beta in (0.0, 0.5):
        grid = StripGrid(np.pi, 1.0, 12, 41, beta=beta)
        strip = np.cosh(np.cos(grid.q))[:, None] * np.ones(grid.npts)
        column = np.full(grid.npts, 0.7315)
        for field in (strip, column):
            for w in (grid.w1, grid.w2):
                assert np.all(dp(field, w) == 0.0)
            assert np.all(solver_hp(grid, field) == 0.0)


@pytest.mark.parametrize("given_nodes", [False, True])
def test_solver_and_reconstruction_share_the_end_rows_to_the_bit(
        given_nodes):
    # solver_hp's bed and surface rows and ColumnOps.apply's are one
    # routine's, so the Newton residual, the stop rules and the audit read
    # the same surface speed
    grid = StripGrid(np.pi, 1.0, 16, 24, beta=0.5)
    if given_nodes:
        rng = np.random.default_rng(3)
        grid = StripGrid.from_nodes(
            np.append(0.0, np.cumsum(rng.uniform(0.1, 0.3, 15))),
            np.append(-np.cumsum(rng.uniform(0.02, 0.1, 23))[::-1], 0.0))
    wave = 1.0 + 0.1 * np.cos(np.pi * grid.q / grid.L)
    h = (np.sinh(grid.p + grid.m)[None, :] * wave[:, None]
         + 0.3 * (grid.p + grid.m))
    for field in (h, h[5]):
        assert np.array_equal(solver_hp(grid, field)[..., [0, -1]],
                              grid.column_ops.apply(field)[..., [0, -1]])
        assert np.array_equal(grid.column_ops.ends(field),
                              solver_hp(grid, field)[..., [0, -1]])


def test_odd_endpoint_uses_reflection():
    # For an odd function F with F[0] = 0, the reflected centered stencil at
    # the end reduces to (F[1] - (-F[1])) / (2 dq) = F[1]/dq.
    q = np.linspace(0.0, 1.0, 11)
    F = (q ** 3 - q ** 5)[:, None]
    d = dq(F, mirror_weights(q)[0], "odd")
    assert d[0, 0] == pytest.approx(F[1, 0] / (q[1] - q[0]))
    assert d[-1, 0] == pytest.approx(-F[-2, 0] / (q[1] - q[0]))


def test_column_ops_second_order_on_stretched_grid():
    errors = []
    for n in (25, 49, 97):
        p = stretched_nodes(1.0, n, 0.5)
        ops = ColumnOps(p)
        F = np.exp(p)[None, :].repeat(4, axis=0)
        errors.append(np.max(np.abs(ops.apply(F) - np.exp(p))))
    orders = _order_from_errors(np.array(errors))
    assert np.all(orders > 1.8)


def test_column_ops_twice_applied_keeps_second_order():
    # d1 composed with itself must stay O(dp^2) everywhere, including the
    # end rows; this is why every node carries the same wide sliding window.
    errors = []
    for n in (25, 49, 97):
        p = stretched_nodes(1.0, n, 0.5)
        ops = ColumnOps(p)
        F = np.sin(2 * p + 0.3)[None, :].repeat(4, axis=0)
        got = ops.apply(ops.apply(F))
        errors.append(np.max(np.abs(got + 4 * np.sin(2 * p + 0.3))))
    orders = _order_from_errors(np.array(errors))
    assert np.all(orders > 1.7)


def test_column_ops_polynomial_exactness():
    # 6-point windows are exact on a quintic, end rows included
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1, 1, size=12))
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.05, -0.4, 0.2])
    np.testing.assert_allclose(ColumnOps(x).apply(poly(x)),
                               poly.deriv()(x), rtol=0, atol=1e-8)


def test_column_ops_differentiate_a_constant_to_exact_zero():
    p = stretched_nodes(1.0, 48, 0.5)
    F = np.full((5, p.size), 2.718281828459045)
    assert np.all(ColumnOps(p).apply(F) == 0.0)
