"""Energy functional, step-size bounds, error norms, diffusion reference."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from lrtrans.angular import gauss_legendre_1d
from lrtrans.diagnostics import (
    UNCONDITIONAL,
    diffusion_reference,
    dt_explicit,
    dt_implicit,
    energy,
    l2_error,
    mass,
    micro_norm_w,
    zero_density_residual,
)
from lrtrans import fullrank
from lrtrans.fullrank import LinearSolveError, SolverConfig
from lrtrans.grid import build_grid
from lrtrans.lowrank import factorize_micro
from lrtrans.ops import project_out_mean, sample_material
from oracles import dense_factors, div_grad_product, reconstruct


def setup(nx=16, n_ord=8, floor=1.0, sigma_s=None, sigma_a=None):
    grid = build_grid(1, (0.0, 1.0), nx)
    quad = gauss_legendre_1d(n_ord)
    material = sample_material(
        grid,
        sigma_s or (lambda c: np.ones(c.shape[0])),
        sigma_a or (lambda c: np.zeros(c.shape[0])),
        floor,
    )
    return grid, quad, material


def test_energy_zero_micro():
    grid, quad, material = setup()
    config = SolverConfig(epsilon=0.5, dt=0.01)
    rho = np.linspace(0, 1, grid.n_points)
    G = np.zeros((grid.n_points, quad.n))
    e = energy(grid, quad, rho, G, config, material, theta=1.0)
    assert e == pytest.approx(quad.domain_measure * grid.cell_volume * rho @ rho)


def test_energy_theta_one_is_dt_independent(rng):
    grid, quad, material = setup()
    rho = rng.standard_normal(grid.n_points)
    G = rng.standard_normal((grid.n_points, quad.n))
    e1 = energy(grid, quad, rho, G, SolverConfig(epsilon=0.5, dt=0.01), material, 1.0)
    e2 = energy(grid, quad, rho, G, SolverConfig(epsilon=0.5, dt=0.5), material, 1.0)
    assert e1 == pytest.approx(e2)
    e3 = energy(grid, quad, rho, G, SolverConfig(epsilon=0.5, dt=0.5), material, 0.0)
    assert e3 > e2


def test_energy_factored_equals_dense(rng):
    grid, quad, material = setup()
    config = SolverConfig(epsilon=0.8, dt=0.02)
    rho = rng.standard_normal(grid.n_points)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), quad.z_dim, seed=0)
    e_fact = energy(grid, quad, rho, st, config, material, 0.3)
    e_dense = energy(grid, quad, rho, reconstruct(st, quad), config, material, 0.3)
    assert abs(e_fact - e_dense) <= 1e-12 * e_dense


def test_energy_with_given_micro_norm_is_bitwise_equal(rng):
    grid, quad, material = setup()
    config = SolverConfig(epsilon=0.8, dt=0.02)
    rho = rng.standard_normal(grid.n_points)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), quad.z_dim, seed=0)
    for micro in (G, st):
        gw = micro_norm_w(grid, quad, micro)
        given = energy(grid, quad, rho, micro, config, material, 0.3, micro_norm=gw)
        assert given == energy(grid, quad, rho, micro, config, material, 0.3)


def test_dt_explicit_closed_form():
    grid, quad, material = setup(nx=500)
    grid = build_grid(1, (-1.5, 1.5), 500)
    dt = dt_explicit(grid, material, 1.0)
    assert dt == pytest.approx((2.0 / 3.0) * 0.006 + (1.0 / 3.0) * 0.006**2, rel=1e-15)
    assert dt == pytest.approx(0.004012, rel=1e-12)


def test_dt_explicit_2d_closed_form():
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (32, 32))
    material = sample_material(grid, lambda c: np.ones(c.shape[0]),
                               lambda c: np.zeros(c.shape[0]), 1.0)
    ds = 1.0 / 32
    dt = dt_explicit(grid, material, 1e-2)
    assert dt == pytest.approx((1.0 / 3.0) * 1e-2 * ds + (1.0 / 12.0) * ds**2, rel=1e-15)


def test_dt_implicit_conditional_and_unconditional():
    grid = build_grid(1, (-1.5, 1.5), 500)
    material = sample_material(grid, lambda c: np.ones(c.shape[0]),
                               lambda c: np.zeros(c.shape[0]), 1.0)
    dx = 0.006
    # conditional branch: eps/(2 dx) > sigma0/4
    dt = dt_implicit(grid, material, 1.0)
    assert dt == pytest.approx((1.0 / (2 * dx) - 0.25) ** -1 * 0.5, rel=1e-14)
    # unconditional branch
    assert dt_implicit(grid, material, 1e-6) == UNCONDITIONAL
    assert math.isinf(dt_implicit(grid, material, 2 * dx * 0.25))  # boundary inclusive


def test_dt_monotonicity():
    grid = build_grid(1, (0.0, 1.0), 64)
    grid2 = build_grid(1, (0.0, 1.0), 32)
    material = sample_material(grid, lambda c: np.ones(c.shape[0]),
                               lambda c: np.zeros(c.shape[0]), 1.0)
    material2 = sample_material(grid2, lambda c: np.ones(c.shape[0]),
                                lambda c: np.zeros(c.shape[0]), 1.0)
    assert dt_explicit(grid, material, 0.5) < dt_explicit(grid, material, 1.0)
    assert dt_explicit(grid, material, 0.5) < dt_explicit(grid2, material2, 0.5)


def test_l2_error_basics():
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (16, 16))
    a = np.ones(grid.n_points)
    assert l2_error(grid, a, a) == 0.0
    assert l2_error(grid, a, np.zeros(grid.n_points)) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        l2_error(grid, a, np.zeros(3))


def test_l2_error_halving_reduces_quadratically():
    # smooth field sampled on two meshes against its exact values
    errs = {}
    for n in (16, 32):
        g = build_grid(1, (0.0, 1.0), n)
        x = g.rho_coords[:, 0]
        approx = np.sin(2 * np.pi * x) + (1.0 / n) ** 2 * np.cos(2 * np.pi * x)
        errs[n] = l2_error(grid=g, numeric=approx, reference=lambda c: np.sin(2 * np.pi * c[:, 0]))
    assert errs[16] / errs[32] == pytest.approx(4.0, rel=0.05)


def test_zero_density_residual_dense(rng):
    grid, quad, _ = setup()
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    assert zero_density_residual(quad, G) <= 1e-13
    bad = G + 0.5 * np.outer(np.ones(grid.n_points), np.ones(quad.n))
    assert zero_density_residual(quad, bad) == pytest.approx(0.5 * quad.domain_measure)


def test_diffusion_reference_mass_and_fixed_point():
    grid, quad, material = setup(nx=64)
    rho0 = np.exp(-50 * (grid.rho_coords[:, 0] - 0.5) ** 2)
    out = diffusion_reference(grid, quad, material, rho0, dt=1e-3, n_steps=50)
    assert abs(mass(grid, out) - mass(grid, rho0)) <= 1e-11 * abs(mass(grid, rho0))
    const = np.full(grid.n_points, 1.3)
    out_c = diffusion_reference(grid, quad, material, const, dt=1e-3, n_steps=5)
    assert np.max(np.abs(out_c - const)) <= 1e-12


def test_diffusion_reference_cg_stall_reports_relative_residual(monkeypatch):
    # a varying sigma_s keeps the solve on the conjugate-gradient branch (a
    # homogeneous one is solved by FFT)
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (32, 64))
    quad = gauss_legendre_1d(4)
    material = sample_material(grid, lambda c: 1.0 + 0.5 * np.sin(2 * np.pi * c[:, 0]),
                               lambda c: np.zeros(c.shape[0]), 0.5)
    rho0 = np.exp(-20 * np.sum((grid.rho_coords - 0.5) ** 2, axis=1))
    monkeypatch.setattr(fullrank, "CG_MAXITER_PER_UNKNOWN", 1e-3)
    residuals = []
    for scale in (1.0, 1e6):
        with pytest.raises(LinearSolveError) as err:
            diffusion_reference(grid, quad, material, scale * rho0, 1e-2, 3)
        residuals.append(err.value.residual)
    # relative: independent of the scale of the data
    assert 0.0 < residuals[0] < 1.0
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-8)


@pytest.mark.parametrize("cells", [(7,), (2,), (5, 3), (2, 4)])
@pytest.mark.parametrize("dt_mult", [1, 64])
def test_diffusion_reference_homogeneous_solve_by_fft(monkeypatch, rng, cells, dt_mult):
    # the reference's operator on a homogeneous medium is solved by FFT, with
    # no sparse solve, to the accuracy of a direct solve
    dim = len(cells)
    grid = build_grid(dim, ((0.0, 1.0), (-0.5, 1.5))[:dim], cells)
    quad = gauss_legendre_1d(4)
    material = sample_material(grid, lambda c: np.full(c.shape[0], 2.0),
                               lambda c: np.full(c.shape[0], 0.3), 2.0)
    dt = 0.75 * min(grid.spacing) ** 2 * dt_mult
    T = div_grad_product(grid, 1.0 / dt + material.sigma_a_rho,
                         1.0 / (3.0 * material.sigma_s_g), np.ones(dim))
    rho0 = rng.standard_normal(grid.n_points)
    calls = []
    splu, cg = spla.splu, spla.cg
    monkeypatch.setattr(spla, "splu", lambda *a: calls.append("splu") or splu(*a))
    monkeypatch.setattr(spla, "cg", lambda *a, **k: calls.append("cg") or cg(*a, **k))
    out = diffusion_reference(grid, quad, material, rho0, dt, 1)
    assert calls == []
    b = rho0 / dt
    assert np.linalg.norm(T @ out - b) <= 1e-13 * np.linalg.norm(b)
    ref = splu(T.tocsc()).solve(b)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_diffusion_reference_variance_growth():
    # Gaussian variance grows like 2 t / (3 sigma_s) per axis
    grid = build_grid(1, (-2.0, 2.0), 400)
    quad = gauss_legendre_1d(4)
    material = sample_material(grid, lambda c: np.ones(c.shape[0]),
                               lambda c: np.zeros(c.shape[0]), 1.0)
    sig0 = 0.05
    x = grid.rho_coords[:, 0]
    rho0 = np.exp(-(x**2) / (2 * sig0**2))
    t = 0.01
    n = 200
    out = diffusion_reference(grid, quad, material, rho0, dt=t / n, n_steps=n)
    var = float(np.sum(out * x**2) / np.sum(out))
    expected = sig0**2 + 2.0 * t / 3.0
    assert abs(var - expected) <= 0.05 * expected


def test_micro_norm_surrogate_vs_exact(rng):
    grid, quad, _ = setup()
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 4, seed=0)
    from oracles import micro_norm_w_exact

    assert micro_norm_w(grid, quad, st) == pytest.approx(
        micro_norm_w_exact(grid, quad, st), rel=1e-12
    )
    stu = factorize_micro(grid, quad, dense_factors(G), 4, weighted=False, seed=0)
    # plainly orthonormal factors: the surrogate is the plain factor norm and
    # differs from the true weighted norm
    assert micro_norm_w(grid, quad, stu) != pytest.approx(
        micro_norm_w_exact(grid, quad, stu), rel=1e-3
    )
