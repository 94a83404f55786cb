"""Staggered grid construction and difference-operator identities."""

import numpy as np
import pytest

from lrtrans.grid import build_grid, diff, increment, shift
from oracles import dense_diff_matrix, location, rho_index, shift_permutation


def test_counts_2d():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4))
    assert g.n_points == 32          # 2 * nx * ny
    assert g.rho_coords.shape == (32, 2)
    assert g.g_coords.shape == (32, 2)


def test_spacing_1d():
    g = build_grid(1, (-1.5, 1.5), 500)
    assert g.spacing == (3.0 / 500,)
    assert g.n_points == 1000


def test_spacing_2d_lattice():
    g = build_grid(2, ((0.0, 7.0), (0.0, 7.0)), (128, 128))
    assert g.spacing == (7.0 / 128, 7.0 / 128)


@pytest.mark.parametrize(
    "dim,bounds,cells",
    [(1, (0.0, 2.0), 7), (2, ((0.0, 1.0), (-1.0, 2.0)), (5, 3))],
)
def test_index_maps_bijective(dim, bounds, cells):
    g = build_grid(dim, bounds, cells)
    seen = set()
    for k in range(g.n_points):
        loc = location(g, k)
        seen.add(loc)
        if dim == 1:
            assert rho_index(g, loc[0], loc[1]) == k
        else:
            assert rho_index(g, loc[0], loc[1], loc[2]) == k
    assert len(seen) == g.n_points


def test_pairing_offset():
    # the g point with index k sits dx/2 in +x from the rho point with index k
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (4, 6))
    dx = g.spacing[0]
    lox, hix = g.bounds[0]
    shift = np.mod(g.g_coords[:, 0] - g.rho_coords[:, 0], hix - lox)
    assert np.allclose(shift, dx / 2)
    assert np.allclose(g.g_coords[:, 1], g.rho_coords[:, 1])
    dy = g.spacing[1]
    loy, hiy = g.bounds[1]
    shifty = np.mod(g.g_coords_y[:, 1] - g.rho_coords[:, 1], hiy - loy)
    assert np.allclose(shifty, dy / 2)
    assert np.allclose(g.g_coords_y[:, 0], g.rho_coords[:, 0])


def test_build_errors():
    with pytest.raises(ValueError):
        build_grid(1, (0.0, 1.0), 1)
    with pytest.raises(ValueError):
        build_grid(1, (1.0, 0.0), 8)
    with pytest.raises(ValueError):
        build_grid(3, ((0, 1),) * 3, (4, 4, 4))


def test_diff_constant_is_zero():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 4))
    c = np.full(g.n_points, 3.7)
    for axis in range(2):
        for side in (+1, -1):
            assert np.max(np.abs(diff(g, axis, side, c))) == 0.0


def test_diff_accuracy_against_analytic_derivative():
    # forward difference of a rho field is centered at the paired g points;
    # fit the error constant on two meshes and check the O(dx) bound
    errs = {}
    for n in (64, 128):
        g = build_grid(1, (0.0, 1.0), n)
        u = np.sin(2 * np.pi * g.rho_coords[:, 0])
        d = diff(g, 0, +1, u)
        exact = 2 * np.pi * np.cos(2 * np.pi * g.g_coords[:, 0])
        errs[n] = np.max(np.abs(d - exact))
    c_fit = errs[64] / (1.0 / 64)
    assert errs[128] <= 1.05 * c_fit * (1.0 / 128)
    assert errs[64] <= 2 * np.pi * (1.0 / 64) * 2 * np.pi  # within O(dx)


def test_adjointness(rng):
    g = build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (5, 4))
    for axis in range(2):
        for _ in range(20):
            u = rng.standard_normal(g.n_points)
            v = rng.standard_normal(g.n_points)
            lhs = np.dot(diff(g, axis, +1, u), v)
            rhs = -np.dot(u, diff(g, axis, -1, v))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_telescoping(rng):
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 6))
    u = rng.standard_normal(g.n_points)
    for axis in range(2):
        for side in (+1, -1):
            total = np.sum(diff(g, axis, side, u)) * g.spacing[axis]
            assert abs(total) <= 1e-12 * np.max(np.abs(u)) * g.n_points


def test_second_difference_stencil():
    # backward of forward difference reproduces [1, -2, 1] / dx^2 on each
    # sub-lattice line, applied to an impulse
    g = build_grid(1, (0.0, 1.0), 8)
    dx = g.spacing[0]
    for k in (3, 8):  # one index per block
        e = np.zeros(g.n_points)
        e[k] = 1.0
        r = diff(g, 0, -1, diff(g, 0, +1, e)) * dx**2
        block, ix = location(g, k)
        nx = g.cells[0]
        expected = np.zeros(g.n_points)
        expected[rho_index(g, block, ix)] = -2.0
        expected[rho_index(g, block, (ix + 1) % nx)] = 1.0
        expected[rho_index(g, block, (ix - 1) % nx)] = 1.0
        assert np.allclose(r, expected, atol=1e-13)


def test_diff_matrix_transpose_property():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (3, 4))
    for axis in range(2):
        dp = dense_diff_matrix(g, axis, +1)
        dm = dense_diff_matrix(g, axis, -1)
        assert np.allclose(dp.T, -dm, atol=1e-14)


def test_diff_shape_mismatch():
    g = build_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        diff(g, 0, +1, np.zeros(7))
    with pytest.raises(ValueError):
        diff(g, 1, +1, np.zeros(g.n_points))


def _roll_diff(grid, axis, side, field):
    """Reference stencil: the one-sided difference written with ``np.roll``."""
    arr = field.reshape(grid.block_shape + field.shape[1:])
    ax = len(grid.block_shape) - 1 - axis
    if side > 0:
        out = (np.roll(arr, -1, axis=ax) - arr) / grid.spacing[axis]
    else:
        out = (arr - np.roll(arr, 1, axis=ax)) / grid.spacing[axis]
    return out.reshape(field.shape)


@pytest.mark.parametrize(
    "dim,bounds,cells",
    [(1, (0.0, 1.3), 7), (2, ((0.0, 1.0), (-1.0, 2.1)), (5, 3)),
     (2, ((0.0, 1.0), (0.0, 1.0)), (2, 3)), (2, ((0.0, 1.0), (0.0, 1.0)), (3, 2))],
)
def test_diff_matches_roll_reference_bitwise(rng, dim, bounds, cells):
    g = build_grid(dim, bounds, cells)
    # contiguous and strided vectors, row-major and column-major fields, and
    # column slices of a column-major block as ``out``
    u = rng.standard_normal((g.n_points, 4))
    for field in (np.ascontiguousarray(u[:, 0]), u[:, 0], u, np.asfortranarray(u)):
        for axis in range(dim):
            for side in (+1, -1):
                ref = _roll_diff(g, axis, side, field)
                assert np.array_equal(diff(g, axis, side, field), ref)
                if field.ndim == 2:
                    block = np.full((g.n_points, 8), np.nan, order="F")
                    view = block[:, 2:6]
                    assert diff(g, axis, side, field, out=view) is view
                    assert np.array_equal(view, ref)
                    assert np.isnan(block[:, :2]).all() and np.isnan(block[:, 6:]).all()


def test_diff_out_into_column_slice(rng):
    g = build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (4, 3))
    u = rng.standard_normal((g.n_points, 3))
    block = np.full((g.n_points, 6), np.nan)
    for b, (axis, side) in enumerate([(0, -1), (1, +1)]):
        view = block[:, 3 * b:3 * (b + 1)]
        assert diff(g, axis, side, u, out=view) is view
        assert np.array_equal(block[:, 3 * b:3 * (b + 1)], diff(g, axis, side, u))
    assert not np.any(np.isnan(block))


def test_diff_rejects_bad_out_and_side_shapes():
    g = build_grid(1, (0.0, 1.0), 8)
    u = np.zeros((g.n_points, 3))
    with pytest.raises(ValueError):
        diff(g, 0, +1, u, out=np.empty((g.n_points, 2)))
    with pytest.raises(ValueError):
        diff(g, 0, +1, u, out=np.empty(g.n_points))
    # the side is a scalar +1 or -1; 0 is not silently a backward difference
    for side in (np.ones(2), np.ones(3), 0, 2):
        with pytest.raises(ValueError):
            diff(g, 0, side, u)


@pytest.mark.parametrize(
    "dim,bounds,cells",
    [(1, (0.0, 1.3), 7), (2, ((0.0, 1.0), (-1.0, 2.1)), (5, 3))],
)
def test_shifted_forward_difference_is_backward_difference_bitwise(rng, dim, bounds, cells):
    g = build_grid(dim, bounds, cells)
    fields = [rng.standard_normal(g.n_points)]
    u = rng.standard_normal((g.n_points, 4))
    fields += [np.ascontiguousarray(u), np.asfortranarray(u)]
    for f in fields:
        for axis in range(dim):
            back = diff(g, axis, -1, f)
            assert np.array_equal(shift(g, axis, diff(g, axis, +1, f)), back)
            # into a column slab of a wider column-major block, as the K step does
            if f.ndim == 2:
                block = np.full((g.n_points, 8), np.nan, order="F")
                view = block[:, 4:]
                assert shift(g, axis, diff(g, axis, +1, f), out=view) is view
                assert np.array_equal(block[:, 4:], back)
                assert np.isnan(block[:, :4]).all()
    p = shift_permutation(g, dim - 1, -1)
    assert np.array_equal(shift(g, dim - 1, u), u[p])


@pytest.mark.parametrize(
    "dim,bounds,cells",
    [(1, (0.0, 1.3), 7), (2, ((0.0, 1.0), (-1.0, 2.1)), (5, 3))],
)
def test_increment_and_shift_of_a_field_without_columns(dim, bounds, cells):
    # an aBUG spatial basis that holds all n_points columns has an empty
    # extension, whose increments go into an empty column slab
    g = build_grid(dim, bounds, cells)
    empty = np.zeros((g.n_points, 0))
    block = np.zeros((g.n_points, 3), order="F")
    for axis in range(dim):
        for side in (-1, +1):
            assert increment(g, axis, side, empty).shape == empty.shape
            assert increment(g, axis, side, empty, out=block[:, 2:2]).shape == empty.shape
        assert shift(g, axis, empty).shape == empty.shape
