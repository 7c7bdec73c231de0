"""Strip grid construction: the parametric grid and the grid on given nodes
run the same node checks and build the same weights."""

import numpy as np
import pytest

from vorwave.errors import InputError
from vorwave.grid import StripGrid

L = np.pi
M = 1.0


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_from_nodes_rebuilds_the_parametric_weights_bit_for_bit(beta):
    grid = StripGrid(L, M, 12, 17, beta=beta)
    again = StripGrid.from_nodes(grid.q, grid.p)
    for name in ("q", "p", "wq1", "wq2", "w1", "w2"):
        assert np.array_equal(getattr(again, name), getattr(grid, name)), \
            name
    for name in ("w", "diff_w"):  # the bed and surface windows among them
        assert np.array_equal(getattr(again.column_ops, name),
                              getattr(grid.column_ops, name)), name
    assert (again.L, again.m, again.nq, again.npts) == \
        (grid.L, grid.m, grid.nq, grid.npts)
    assert again.delta == grid.delta
    assert again.beta is None


def test_from_nodes_copies_its_arrays():
    q = np.linspace(0.0, L, 6)
    grid = StripGrid.from_nodes(q, np.linspace(-M, 0.0, 9))
    q[1] = 0.5
    assert grid.q[1] == L / 5


@pytest.mark.parametrize("nq, npts", [(3, 9), (6, 6), (0, 9), (1, 1)])
def test_too_few_nodes_rejected(nq, npts):
    with pytest.raises(InputError, match="too small"):
        StripGrid.from_nodes(np.linspace(0.0, L, nq),
                             np.linspace(-M, 0.0, npts))


@pytest.mark.parametrize("nq, npts", [(3, 9), (6, 6), (0, 9), (-2, 9),
                                      (6, 0), (6, -1)])
def test_parametric_grid_too_small_rejected(nq, npts):
    with pytest.raises(InputError, match="too small"):
        StripGrid(L, M, nq, npts)


@pytest.mark.parametrize("axis", ["q", "p"])
@pytest.mark.parametrize("fault", ["swapped", "repeated"])
def test_out_of_order_nodes_rejected(axis, fault):
    nodes = {"q": np.linspace(0.0, L, 6), "p": np.linspace(-M, 0.0, 9)}
    x = nodes[axis]
    if fault == "swapped":
        x[2], x[3] = x[3], x[2]
    else:
        x[3] = x[2]
    with pytest.raises(InputError, match="strictly increase"):
        StripGrid.from_nodes(nodes["q"], nodes["p"])


@pytest.mark.parametrize("axis", ["q", "p"])
def test_nodes_off_the_strip_ends_rejected(axis):
    # L = q[-1] and m = -p[0] presume q starts at 0 and p ends at 0
    nodes = {"q": np.linspace(0.0, L, 6), "p": np.linspace(-M, 0.0, 9)}
    nodes[axis] = nodes[axis] + 1.0
    with pytest.raises(InputError, match="start at q = 0 and end at p = 0"):
        StripGrid.from_nodes(nodes["q"], nodes["p"])


@pytest.mark.parametrize("axis, k, value", [("q", 3, np.nan),
                                            ("q", -1, np.inf),
                                            ("p", 4, np.nan)])
def test_non_finite_nodes_rejected(axis, k, value):
    # NaN compares false, so the order check alone lets it through
    nodes = {"q": np.linspace(0.0, L, 6), "p": np.linspace(-M, 0.0, 9)}
    nodes[axis][k] = value
    with pytest.raises(InputError, match="finite"):
        StripGrid.from_nodes(nodes["q"], nodes["p"])
