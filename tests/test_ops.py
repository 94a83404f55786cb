"""Transport operators against dense oracles plus the proof-level identities."""

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from lrtrans import ops
from lrtrans.angular import chebyshev_legendre_2d, gauss_legendre_1d
from lrtrans.grid import build_grid, diff
from lrtrans.ops import (
    MaterialField,
    advect,
    density_grad,
    flux_div,
    flux_div_factored,
    inner_w,
    norm_w,
    project_out_mean,
    sample_material,
    upwind_runs,
)
from oracles import (
    advect_adjoint,
    dense_diff_matrix,
    inner,
    loop_order,
    permute_ordinates,
    q_abs,
    shift_permutation,
)


def small_1d():
    return build_grid(1, (0.0, 1.0), 8), gauss_legendre_1d(8)


def small_2d():
    return build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 6)), chebyshev_legendre_2d(2)


@pytest.fixture(params=["1d", "2d"])
def setup(request):
    return small_1d() if request.param == "1d" else small_2d()


def dense_advect(grid, quad, G):
    out = np.zeros_like(G)
    for j in range(grid.dim):
        dm = dense_diff_matrix(grid, j, -1)
        dp = dense_diff_matrix(grid, j, +1)
        out += dm @ G @ np.diag(quad.q_plus(j)) + dp @ G @ np.diag(quad.q_minus(j))
    return out


def test_advect_zero_and_constant(setup):
    grid, quad = setup
    Z = np.zeros((grid.n_points, quad.n))
    assert np.array_equal(advect(grid, quad, Z), Z)
    C = np.ones((grid.n_points, 1)) @ np.arange(1.0, quad.n + 1)[None, :]
    assert np.max(np.abs(advect(grid, quad, C))) == 0.0


def test_advect_dense_oracle(setup, rng):
    grid, quad = setup
    G = rng.standard_normal((grid.n_points, quad.n))
    assert np.allclose(advect(grid, quad, G), dense_advect(grid, quad, G), atol=1e-13)


def four_term_advect(grid, quad, G):
    """Reference: both raw one-sided increments per axis, the subtractions
    :func:`lrtrans.grid._stencil` makes, weighted by ``Q^(j,+-) / h_j``."""
    out = np.zeros_like(G)
    for j in range(grid.dim):
        h = grid.spacing[j]
        fwd = G[shift_permutation(grid, j, +1)] - G
        bwd = -(G[shift_permutation(grid, j, -1)] - G)
        out += bwd * (quad.q_plus(j) / h) + fwd * (quad.q_minus(j) / h)
    return out


def pre_change_four_term_advect(grid, quad, G):
    """The same sum with the differences divided by ``h_j`` before ``Q^(j,+-)``
    weights them, the association :func:`advect` had before its scales were
    folded into one factor per axis."""
    out = np.zeros_like(G)
    for j in range(grid.dim):
        out += diff(grid, j, -1, G) * quad.q_plus(j)[None, :]
        out += diff(grid, j, +1, G) * quad.q_minus(j)[None, :]
    return out


@pytest.mark.parametrize(
    "grid,quad",
    [
        (build_grid(1, (0.0, 1.3), 9), gauss_legendre_1d(8)),
        (build_grid(2, ((0.0, 1.0), (-1.0, 2.1)), (5, 4)), chebyshev_legendre_2d(4)),
    ],
)
def test_advect_matches_four_term_formula_bitwise(rng, grid, quad):
    G = rng.standard_normal((grid.n_points, quad.n))
    A = advect(grid, quad, G)
    assert np.array_equal(A, four_term_advect(grid, quad, G))
    old = pre_change_four_term_advect(grid, quad, G)
    assert np.max(np.abs(A - old)) <= 1e-13 * np.max(np.abs(A))


def _loop_cl(n_polar):
    """The Chebyshev-Legendre set in the product rule's loop order."""
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (4, 4))
    material = sample_material(grid, lambda c: np.ones(len(c)), lambda c: np.zeros(len(c)), 1.0)
    quad = chebyshev_legendre_2d(n_polar)
    return permute_ordinates(quad, material, loop_order(quad))[0]


@pytest.mark.parametrize(
    "quad, counts",
    [
        (_loop_cl(16), (33, 32)),  # the product loop's order, 512 ordinates
        (chebyshev_legendre_2d(16), (2, 3)),
        (chebyshev_legendre_2d(2), (2, 3)),
        (gauss_legendre_1d(2), (2,)),
        (gauss_legendre_1d(8), (2,)),
    ],
)
def test_upwind_runs_partition_the_ordinates_by_side(quad, counts):
    runs = upwind_runs(quad)
    assert tuple(len(r) for r in runs) == counts
    for j, axis_runs in enumerate(runs):
        # the runs tile [0, n) in order
        assert axis_runs[0][0] == 0 and axis_runs[-1][1] == quad.n
        assert all(a[1] == b[0] for a, b in zip(axis_runs, axis_runs[1:]))
        assert all(c0 < c1 for c0, c1, _ in axis_runs)
        # neighbouring runs differ in side, so no run could be merged
        assert all(a[2] != b[2] for a, b in zip(axis_runs, axis_runs[1:]))
        side = np.where(quad.q(j) > 0, -1, +1)
        for c0, c1, s in axis_runs:
            assert s in (-1, +1) and np.all(side[c0:c1] == s)


def test_project_out_mean_and_inner_w_match_outer_formulas_bitwise(setup, rng):
    grid, quad = setup
    F1 = rng.standard_normal((grid.n_points, quad.n))
    F2 = rng.standard_normal((grid.n_points, quad.n))
    ref = F1 - np.outer(F1 @ quad.w, np.ones(quad.n)) / quad.domain_measure
    assert np.array_equal(project_out_mean(quad, F1), ref)
    inplace = F1.copy()
    assert project_out_mean(quad, inplace, out=inplace) is inplace
    assert np.array_equal(inplace, ref)
    expected = grid.cell_volume * float(np.sum((F1 * F2) @ quad.w))
    assert inner_w(grid, quad, F1, F2) == expected


def test_flux_div_dense_oracle_and_isotropy(setup, rng):
    grid, quad = setup
    G = rng.standard_normal((grid.n_points, quad.n))
    dense = np.zeros(grid.n_points)
    for j in range(grid.dim):
        dense += dense_diff_matrix(grid, j, -1) @ G @ (quad.q(j) * quad.w)
    dense /= quad.domain_measure
    assert np.allclose(flux_div(grid, quad, G), dense, atol=1e-13)
    iso = np.outer(rng.standard_normal(grid.n_points), np.ones(quad.n))
    assert np.max(np.abs(flux_div(grid, quad, iso))) <= 1e-12 * np.max(np.abs(iso))


def test_summation_by_parts_flux_gradient(setup, rng):
    grid, quad = setup
    for _ in range(20):
        rho = rng.standard_normal(grid.n_points)
        G = rng.standard_normal((grid.n_points, quad.n))
        P, A = density_grad(grid, quad, rho)
        lhs = quad.domain_measure * inner(grid, rho, flux_div(grid, quad, G))
        rhs = -inner_w(grid, quad, P @ A.T, G)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_density_grad_structure(setup, rng):
    grid, quad = setup
    rho = rng.standard_normal(grid.n_points)
    P, A = density_grad(grid, quad, rho)
    assert P.shape == (grid.n_points, grid.dim)
    dense = np.zeros((grid.n_points, quad.n))
    for j in range(grid.dim):
        dense += np.outer(dense_diff_matrix(grid, j, +1) @ rho, quad.q(j))
    assert np.allclose(P @ A.T, dense, atol=1e-13)
    const = np.full(grid.n_points, 2.5)
    Pc, _ = density_grad(grid, quad, const)
    assert np.max(np.abs(Pc)) == 0.0


def test_density_grad_rank_one_1d():
    grid, quad = small_1d()
    rho = np.sin(2 * np.pi * grid.rho_coords[:, 0])
    P, A = density_grad(grid, quad, rho)
    assert np.linalg.matrix_rank(P @ A.T, tol=1e-10) == 1


def test_advect_adjoint_pairing(setup, rng):
    grid, quad = setup
    for _ in range(20):
        F = rng.standard_normal((grid.n_points, quad.n))
        G = rng.standard_normal((grid.n_points, quad.n))
        lhs = inner_w(grid, quad, advect(grid, quad, F), G)
        rhs = inner_w(grid, quad, F, advect_adjoint(grid, quad, G))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    assert np.max(np.abs(advect_adjoint(grid, quad, np.zeros((grid.n_points, quad.n))))) == 0.0


def test_adjoint_advection_bound(setup, rng):
    # || A*(G) ||_w^2 <= d * sum_j || D+(G) |Q^j| ||_w^2
    grid, quad = setup
    d = grid.dim
    for _ in range(20):
        G = rng.standard_normal((grid.n_points, quad.n))
        lhs = norm_w(grid, quad, advect_adjoint(grid, quad, G)) ** 2
        rhs = 0.0
        for j in range(d):
            rhs += norm_w(grid, quad, diff(grid, j, +1, G) * q_abs(quad, j)[None, :]) ** 2
        assert lhs <= d * rhs * (1 + 1e-12)


def test_advection_energy_identity(setup, rng):
    grid, quad = setup
    for _ in range(20):
        Gn = rng.standard_normal((grid.n_points, quad.n))
        Gn1 = rng.standard_normal((grid.n_points, quad.n))
        lhs = inner_w(grid, quad, advect(grid, quad, Gn), Gn1)
        rhs = -inner_w(grid, quad, advect_adjoint(grid, quad, Gn1), Gn1 - Gn)
        for j in range(grid.dim):
            DG = diff(grid, j, +1, Gn1)
            rhs += 0.5 * grid.spacing[j] * inner_w(
                grid, quad, DG * q_abs(quad, j)[None, :], DG
            )
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_operator_linearity(setup, rng):
    grid, quad = setup
    F = rng.standard_normal((grid.n_points, quad.n))
    G = rng.standard_normal((grid.n_points, quad.n))
    a, b = 0.7, -1.3
    for op in (advect, flux_div, advect_adjoint):
        lhs = op(grid, quad, a * F + b * G)
        rhs = a * op(grid, quad, F) + b * op(grid, quad, G)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


def test_constraint_transport(setup, rng):
    grid, quad = setup
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    assert np.max(np.abs(G @ quad.w)) <= 1e-12 * np.abs(G).max()
    moved = project_out_mean(quad, advect(grid, quad, G))
    assert np.max(np.abs(moved @ quad.w)) <= 1e-11 * max(np.abs(moved).max(), 1.0)
    P, A = density_grad(grid, quad, rng.standard_normal(grid.n_points))
    assert np.max(np.abs((P @ A.T) @ quad.w)) <= 1e-11 * max(np.abs(P).max(), 1.0)


def test_inner_products(setup, rng):
    grid, quad = setup
    ones = np.ones((grid.n_points, quad.n))
    expected = np.sqrt(quad.domain_measure * grid.cell_volume * grid.n_points)
    assert abs(norm_w(grid, quad, ones) - expected) <= 1e-12 * expected
    F1 = rng.standard_normal((grid.n_points, quad.n))
    F2 = rng.standard_normal((grid.n_points, quad.n))
    assert inner_w(grid, quad, F1, F2) == pytest.approx(inner_w(grid, quad, F2, F1))
    assert inner_w(grid, quad, F1, F2) ** 2 <= (
        norm_w(grid, quad, F1) ** 2 * norm_w(grid, quad, F2) ** 2 * (1 + 1e-12)
    )
    assert np.sqrt(inner(grid, F1[:, 0], F1[:, 0])) >= 0.0


# (rows, columns, BLOCK_BYTES): several blocks of the row sums at the
# default budget and at small ones, sizes that are not powers of two, one
# column, blocks at the four-row floor, and a field of one block
@pytest.mark.parametrize(
    "rows, cols, budget",
    [
        (6000, 96, None),
        (3922, 40, None),
        (3922, 40, 2**12),
        (1000, 7, 2**10),
        (1001, 1, 2**10),
        (777, 13, 8),
        (33, 5, None),
    ],
)
def test_inner_w_matches_numpy_sum_bitwise(rng, monkeypatch, rows, cols, budget):
    if budget is not None:
        monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
    grid = SimpleNamespace(cell_volume=1.0)
    quad = SimpleNamespace(w=rng.random(cols))
    F1 = rng.standard_normal((rows, cols))
    F2 = rng.standard_normal((rows, cols))
    # the row products of the whole array, summed once
    assert inner_w(grid, quad, F1, F2) == float(np.sum((F1 * F2) @ quad.w))
    assert inner_w(grid, quad, F1, F1) == float(np.sum((F1 * F1) @ quad.w))
    # a transposed (Fortran-ordered) input is summed in C order
    T1, T2 = np.asfortranarray(F1), np.asfortranarray(F2)
    assert cols == 1 or not T1.flags.c_contiguous
    assert inner_w(grid, quad, T1, T2) == inner_w(grid, quad, F1, F2)


def test_norm_w_scratch_stays_below_two_leaves(rng):
    # 2048 x 512 float64 = 8 MiB, sixteen blocks of BLOCK_BYTES
    grid = SimpleNamespace(cell_volume=1.0)
    quad = SimpleNamespace(w=rng.random(512))
    F = rng.standard_normal((2048, 512))
    gc.disable()  # the buffer must be freed on return, not by the collector
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = norm_w(grid, quad, F)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        gc.enable()
    assert value == np.sqrt(float(np.sum((F * F) @ quad.w)))
    assert peak < 2 * ops.BLOCK_BYTES
    assert held < ops.BLOCK_BYTES // 8


def test_factored_flux_div(setup, rng):
    grid, quad = setup
    P = rng.standard_normal((grid.n_points, 3))
    A = rng.standard_normal((quad.n, 3))
    assert np.allclose(
        flux_div_factored(grid, quad, P, A),
        flux_div(grid, quad, P @ A.T),
        atol=1e-12,
    )


def test_material_validation():
    grid, _ = small_1d()
    with pytest.raises(ValueError):
        sample_material(grid, lambda c: np.full(c.shape[0], 0.5),
                        lambda c: np.zeros(c.shape[0]), sigma_s_floor=1.0)
    with pytest.raises(ValueError):
        sample_material(grid, lambda c: np.ones(c.shape[0]),
                        lambda c: np.full(c.shape[0], -0.1), sigma_s_floor=0.0)
    mat = sample_material(grid, lambda c: np.ones(c.shape[0]),
                          lambda c: np.zeros(c.shape[0]), sigma_s_floor=1.0)
    assert isinstance(mat, MaterialField)


def test_shape_errors(setup):
    grid, quad = setup
    with pytest.raises(ValueError):
        advect(grid, quad, np.zeros((grid.n_points, quad.n + 1)))
    with pytest.raises(ValueError):
        inner_w(grid, quad, np.zeros((2, 2)), np.zeros((2, 3)))
