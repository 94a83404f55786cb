"""Basis-update & Galerkin integrators: factorization, constraint handling,
Galerkin consistency, adaptivity, and the energy-alignment counterexample."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lrtrans import scenarios
from lrtrans.angular import chebyshev_legendre_2d, gauss_legendre_1d
from lrtrans.diagnostics import zero_density_residual
from lrtrans.fullrank import SolverConfig, build_schur, imex_step, step_context
from lrtrans.grid import build_grid, diff, increment
from lrtrans.lowrank import (
    MicroStateLowRank,
    _angs,
    _block_product,
    _extend_basis,
    _galerkin_stack,
    _k_step,
    _l_step,
    _qr,
    constrained_qr,
    factorize_micro,
    galerkin_stage,
    lowrank_macro_coupled_step,
    micro_step,
)
from lrtrans.ops import advect, density_grad, project_out_mean, sample_material
from lrtrans.run import RunManifest, execute_run
from oracles import (
    dense_factors,
    factorize_dense,
    gm_frobenius,
    micro_norm_w_exact,
    reconstruct,
    schur_flux_from_differences,
)


def unit_material(grid, sigma_a=0.0):
    return sample_material(
        grid,
        lambda c: np.ones(c.shape[0]),
        lambda c: np.full(c.shape[0], sigma_a),
        1.0,
    )


def zeros(grid, quad):
    """Factors of the zero microscopic state: no columns."""
    return np.zeros((grid.n_points, 0)), np.zeros((quad.n, 0))


def setup_1d(nx=16, n_ord=8):
    grid = build_grid(1, (0.0, 1.0), nx)
    quad = gauss_legendre_1d(n_ord)
    return grid, quad


# ---------------------------------------------------------------------------
# factorization / reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_zero_coupling(rng):
    grid, quad = setup_1d()
    st = factorize_micro(grid, quad, zeros(grid, quad), 3, seed=5)
    assert np.max(np.abs(reconstruct(st, quad))) == 0.0
    assert st.rank == 3
    assert np.allclose(st.X.T @ st.X, np.eye(3), atol=1e-13)
    assert np.allclose(st.V.T @ st.V, np.eye(3), atol=1e-13)
    assert np.max(np.abs(quad.m @ st.V)) <= 1e-12


def test_full_rank_factorization_roundtrip(rng):
    grid, quad = setup_1d(8, 8)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), quad.n - 1, seed=0)
    assert np.max(np.abs(reconstruct(st, quad) - G)) <= 1e-12 * np.abs(G).max()
    # re-factorizing the reconstruction reproduces the coupling spectrum
    sv1 = np.linalg.svd(st.S, compute_uv=False)
    sv2 = np.linalg.svd(reconstruct(st, quad) * quad.m[None, :], compute_uv=False)
    assert np.allclose(sv1, sv2[: len(sv1)], atol=1e-12 * sv2[0])


def test_factorization_rank_cap():
    grid, quad = setup_1d(8, 4)
    st = factorize_micro(grid, quad, zeros(grid, quad), 10, seed=0)
    assert st.rank == quad.z_dim  # capped at the constraint-subspace dimension


def test_unweighted_factorization(rng):
    # unweighted angular bases are Euclidean-orthonormal and hold w^T V = 0,
    # so a mean-free state is reconstructed in full at rank N - 1
    grid, quad = setup_1d()
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 4, weighted=False, seed=0)
    assert st.weighted is False
    assert np.allclose(st.V.T @ st.V, np.eye(4), atol=1e-13)
    assert np.max(np.abs(quad.w @ st.V)) <= 1e-13
    full = factorize_micro(grid, quad, dense_factors(G), quad.n - 1, weighted=False, seed=0)
    assert np.max(np.abs(reconstruct(full, quad) - G)) <= 1e-12 * np.abs(G).max()


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("rank", [1, 5, 12])
def test_zero_state_equals_factorized_zeros(monkeypatch, weighted, seed, rank):
    # an all-zero state has no singular triplets: it is all seeded padding,
    # drawn without the SVD; rank 12 lies above the cap of N - 1 = 7
    grid, quad = setup_1d()

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on an all-zero state")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    st = factorize_micro(grid, quad, zeros(grid, quad), rank, weighted=weighted, seed=seed)
    r = min(rank, quad.z_dim)
    assert st.rank == r and st.C is None
    assert not np.any(st.S)
    assert np.allclose(st.X.T @ st.X, np.eye(r), atol=1e-13)
    assert np.allclose(st.V.T @ st.V, np.eye(r), atol=1e-13)
    assert np.max(np.abs(quad.constraint(weighted) @ st.V)) <= 1e-12
    again = factorize_micro(grid, quad, zeros(grid, quad), rank, weighted=weighted, seed=seed)
    for name in ("X", "V"):
        assert np.array_equal(getattr(st, name), getattr(again, name)), name
    assert st.weighted is weighted


# ---------------------------------------------------------------------------
# constrained orthonormalization
# ---------------------------------------------------------------------------

def test_constrained_qr_preserves_span(rng):
    grid, quad = setup_1d(8, 16)
    L = quad.z_apply(rng.standard_normal((quad.z_dim, 4)))  # already feasible
    V = constrained_qr(L, quad)
    assert np.max(np.abs(quad.m @ V)) <= 1e-14
    # same column space: mutual projection residuals vanish
    Pl, _ = np.linalg.qr(L)
    assert np.max(np.abs(V - Pl @ (Pl.T @ V))) <= 1e-12
    assert np.max(np.abs(Pl - V @ (V.T @ Pl))) <= 1e-12


def test_constrained_qr_rejects_forbidden_direction():
    grid, quad = setup_1d(8, 8)
    V = constrained_qr(quad.m[:, None], quad)  # input spans only M 1
    assert V.shape == (quad.n, 1)
    assert np.max(np.abs(quad.m @ V)) <= 1e-13
    assert np.allclose(V.T @ V, np.eye(1), atol=1e-13)


def test_constrained_qr_random_input_projected_span(rng):
    grid, quad = setup_1d(8, 16)
    L = rng.standard_normal((quad.n, 4))
    V = constrained_qr(L, quad)
    proj = quad.z_apply(quad.z_applyt(L))  # Z Z^T L
    Pp, _ = np.linalg.qr(proj)
    assert np.max(np.abs(V - Pp @ (Pp.T @ V))) <= 1e-12
    assert np.max(np.abs(Pp - V @ (V.T @ Pp))) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_angular_factor_matches_dense_operators(rng, dim):
    # weighted: (M^-1 Q Pi M)^T V, unweighted: (Q Pi)^T V, for every split
    # Q = Q^(axis,sign) and Pi = I - w 1^T / |D|
    if dim == 1:
        grid, quad = setup_1d()
    else:
        grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 5))
        quad = chebyshev_legendre_2d(2)
    ctx = step_context(grid, quad, unit_material(grid), SolverConfig(epsilon=0.5, dt=0.01))
    V = rng.standard_normal((quad.n, 3))
    M = np.diag(quad.m)
    Pi = np.eye(quad.n) - np.outer(quad.w, np.ones(quad.n)) / quad.domain_measure
    # the stack holds Q^(axis,-) per axis, then Q^(axis,+) per axis
    splits = [(axis, sign) for sign in (-1, +1) for axis in range(dim)]
    for weighted in (True, False):
        got = _angs(ctx, V, weighted)
        assert got.shape == (quad.n, 2 * dim, 3)
        for s, (axis, sign) in enumerate(splits):
            Q = np.diag(quad.q_plus(axis) if sign > 0 else quad.q_minus(axis))
            dense = {True: (np.linalg.inv(M) @ Q @ Pi @ M).T @ V, False: (Q @ Pi).T @ V}
            ref = dense[weighted]
            assert np.abs(got[:, s] - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# fixed-rank step
# ---------------------------------------------------------------------------

def test_bug_step_pure_decay_fixed_point():
    grid, quad = setup_1d()
    material = unit_material(grid)
    config = SolverConfig(epsilon=1.0, dt=0.1)
    X = np.ones((grid.n_points, 1)) / np.sqrt(grid.n_points)
    V = constrained_qr(np.linspace(1, 2, quad.n)[:, None] * quad.m[:, None], quad)
    st = MicroStateLowRank(X=X, S=np.array([[2.0]]), V=V)
    rho = np.ones(grid.n_points)
    ctx = step_context(grid, quad, material, config, integrator="BUG")
    st1 = micro_step(ctx, st, rho)[0]
    decay = (1.0 / config.dt) / (1.0 / config.dt + 1.0)
    assert abs(st1.S[0, 0] - decay * 2.0) <= 1e-13
    assert np.max(np.abs(st1.X - X)) <= 1e-13
    assert np.max(np.abs(st1.V - V)) <= 1e-13


def test_bug_step_rank_and_invariants(rng):
    grid, quad = setup_1d()
    material = unit_material(grid, sigma_a=0.1)
    config = SolverConfig(epsilon=0.7, dt=0.01)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 4, seed=0)
    rho = rng.standard_normal(grid.n_points)
    ctx = step_context(grid, quad, material, config, integrator="BUG")
    st1 = micro_step(ctx, st, rho)[0]
    assert st1.rank == 4
    assert np.allclose(st1.X.T @ st1.X, np.eye(4), atol=1e-12)
    assert np.allclose(st1.V.T @ st1.V, np.eye(4), atol=1e-12)
    assert np.max(np.abs(quad.m @ st1.V)) <= 1e-11


def test_diffusion_limit_relations():
    # as eps -> 0 the post-step factors satisfy the limiting balances: the
    # Galerkin relation (X1' sigma X1) S1 = -X1' J M V1, the range inclusions
    # of the limit directions, and the composite flux becomes the discrete
    # diffusion flux
    from lrtrans.ops import flux_div

    grid, quad = setup_1d(32, 8)
    material = unit_material(grid)
    rho = 2.0 + np.sin(2 * np.pi * grid.rho_coords[:, 0])
    G = project_out_mean(
        quad, np.random.default_rng(3).standard_normal((grid.n_points, quad.n))
    )
    residuals = {}
    for eps in (1e-4, 1e-6):
        config = SolverConfig(epsilon=eps, dt=0.01)
        st = factorize_micro(grid, quad, dense_factors(G), 3, seed=0)
        ctx = step_context(grid, quad, material, config, integrator="BUG")
        stage, _ = galerkin_stage(ctx, st, rho)
        X1, S1, V1 = stage.X, stage.S, stage.V
        PJ, AJ = density_grad(grid, quad, rho)
        JM = (PJ @ AJ.T) * quad.m[None, :]
        r_s = np.abs((X1.T * material.sigma_s_g) @ X1 @ S1 + X1.T @ JM @ V1).max()
        r_s /= np.abs(X1.T @ JM @ V1).max()
        apx = -diff(grid, 0, +1, rho) / material.sigma_s_g
        apv = quad.m * quad.q(0)
        r_x = np.linalg.norm(apx - X1 @ (X1.T @ apx)) / np.linalg.norm(apx)
        r_v = np.linalg.norm(apv - V1 @ (V1.T @ apv)) / np.linalg.norm(apv)
        G1 = reconstruct(MicroStateLowRank(X=X1, S=S1, V=V1), quad)
        mu2 = float(quad.w @ quad.q(0) ** 2) / quad.domain_measure
        limit = -diff(grid, 0, -1, mu2 / material.sigma_s_g * diff(grid, 0, +1, rho))
        r_f = np.abs(flux_div(grid, quad, G1) - limit).max() / np.abs(limit).max()
        residuals[eps] = max(r_s, r_x, r_v, r_f)
    assert residuals[1e-6] <= 1e-4
    assert residuals[1e-6] <= 0.05 * residuals[1e-4]  # shrinks with eps


@pytest.mark.parametrize(
    "integrator,weighted",
    [("BUG", True), ("BUG", False), ("aBUG", True), ("aBUG", False), ("AP-aBUG", True)],
)
@pytest.mark.parametrize("with_source", [False, True])
def test_galerkin_stage_residual(rng, integrator, weighted, with_source):
    # the Galerkin fixed point: projected residual of the implicit update
    # vanishes to solver precision, on every integrator's new bases (aBUG's
    # S_tilde is rectangular; AP-aBUG pins dim leading columns)
    for dim in (1, 2):
        if dim == 1:
            grid, quad = setup_1d()
        else:
            grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 6))
            quad = chebyshev_legendre_2d(2)
        Ps = rng.standard_normal((grid.n_points, 2))
        As = project_out_mean(quad, rng.standard_normal((2, quad.n))).T
        material = sample_material(
            grid,
            lambda c: 1.0 + 0.2 * np.cos(2 * np.pi * c[:, 0]),
            lambda c: np.full(c.shape[0], 0.05),
            0.8,
            micro_source=(lambda t: (Ps, As)) if with_source else None,
        )
        config = SolverConfig(epsilon=0.9, dt=0.004)
        G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
        # rank 4 of 7 angular directions: the augmented V1 is capped at 7
        st = factorize_micro(grid, quad, dense_factors(G), 4, weighted=weighted, seed=1)
        rho = rng.standard_normal(grid.n_points)
        ctx = step_context(grid, quad, material, config, integrator=integrator)
        stage, S_tilde = galerkin_stage(ctx, st, rho)
        X1, S1, V1 = stage.X, stage.S, stage.V
        assert (S_tilde.shape[0] > S_tilde.shape[1]) == (integrator != "BUG")
        PX = X1 @ X1.T
        PV = V1 @ V1.T
        m = quad.m[None, :] if weighted else np.ones((1, quad.n))
        eps, dt = config.epsilon, config.dt
        G_tilde = (X1 @ S_tilde @ V1.T) / m
        G_new = (X1 @ S1 @ V1.T) / m
        PJ, AJ = density_grad(grid, quad, rho)
        sig = material.sigma_s_g / eps**2 + material.sigma_a_g
        F = -project_out_mean(quad, advect(grid, quad, G_tilde)) / eps - (PJ @ AJ.T) / eps**2
        if with_source:
            F += Ps @ As.T
        lhs = (G_new - G_tilde) * m / dt
        rhs = PX @ ((F - sig[:, None] * G_new) * m) @ PV
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("with_source", [False, True])
def test_k_and_l_steps_solve_their_implicit_equations(rng, weighted, with_source):
    # K1 and L1 solve the dense implicit micro update, explicit in the
    # advection and implicit in the relaxation, with V (K step) or X (L step)
    # held fixed: (1/dt + sig) K1 = (Y/dt + F) V and
    # (I/dt + X^T sig X) L1^T = X^T (Y/dt + F), for Y = G M (weighted) or G
    for dim in (1, 2):
        if dim == 1:
            grid, quad = setup_1d()
        else:
            grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 6))
            quad = chebyshev_legendre_2d(2)
        Ps = rng.standard_normal((grid.n_points, 2))
        As = project_out_mean(quad, rng.standard_normal((2, quad.n))).T
        material = sample_material(
            grid,
            lambda c: 1.0 + 0.2 * np.cos(2 * np.pi * c[:, 0]),
            lambda c: np.full(c.shape[0], 0.05),
            0.8,
            micro_source=(lambda t: (Ps, As)) if with_source else None,
        )
        config = SolverConfig(epsilon=0.9, dt=0.004)
        ctx = step_context(grid, quad, material, config, integrator="BUG")
        G0 = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
        st = factorize_micro(grid, quad, dense_factors(G0), 3, weighted=weighted, seed=1)
        st, P = _block_product(ctx, st)
        st = replace(st, C=_galerkin_stack(grid, st.X, ctx.sig, st.W[:, st.rank:])[0])
        rho = rng.standard_normal(grid.n_points)
        PJ, AJ = density_grad(grid, quad, rho)
        m = quad.m if weighted else np.ones(quad.n)
        src = (Ps, m[:, None] * As) if with_source else None
        K1 = _k_step(ctx, st, P[:, :st.S.shape[1]], PJ, m[:, None] * AJ, src)
        L1 = _l_step(ctx, st, PJ, m[:, None] * AJ, src)

        eps, dt = config.epsilon, config.dt
        sig = material.sigma_s_g / eps**2 + material.sigma_a_g
        G = reconstruct(st, quad)
        F = -project_out_mean(quad, advect(grid, quad, G)) / eps - (PJ @ AJ.T) / eps**2
        if with_source:
            F += Ps @ As.T
        B = (G / dt + F) * m[None, :]
        X, V = st.X, st.V
        k_sides = ((1.0 / dt + sig)[:, None] * K1, B @ V)
        l_sides = ((np.eye(st.rank) / dt + X.T @ (sig[:, None] * X)) @ L1.T, X.T @ B)
        for lhs, rhs in (k_sides, l_sides):
            assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(rhs).max()


def test_ap_abug_rejects_unweighted_factors(rng):
    # the diffusion-limit enrichment is defined on the weighted factors only
    grid, quad = setup_1d()
    ctx = step_context(grid, quad, unit_material(grid), SolverConfig(epsilon=1.0, dt=0.01),
                       integrator="AP-aBUG")
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 3, weighted=False)
    with pytest.raises(ValueError, match="diffusion-limit enrichment requires weighted factors"):
        galerkin_stage(ctx, st, rng.standard_normal(grid.n_points))


def test_bug_vs_dense_projected_difference(rng):
    # with near-full angular rank and a small step, the fixed-rank update
    # agrees with the dense micro step after projection onto the new bases
    grid, quad = setup_1d(16, 8)
    material = unit_material(grid)
    config = SolverConfig(epsilon=1.0, dt=1e-6)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 8, seed=0)  # capped at 7
    assert st.rank == 7
    rho = rng.standard_normal(grid.n_points)
    ctx = step_context(grid, quad, material, config, integrator="BUG")
    st1 = micro_step(ctx, st, rho)[0]
    _, G_full = imex_step(ctx, rho, reconstruct(st, quad))
    D = st1.X @ st1.X.T @ ((G_full - reconstruct(st1, quad)) * quad.m[None, :]) @ (
        st1.V @ st1.V.T
    )
    assert np.sqrt(grid.cell_volume) * np.linalg.norm(D) <= 1e-9


# ---------------------------------------------------------------------------
# rank-adaptive steps
# ---------------------------------------------------------------------------

def test_abug_large_tolerance_keeps_rank_one(rng):
    grid, quad = setup_1d()
    material = unit_material(grid)
    config = SolverConfig(epsilon=1.0, dt=0.05)
    X = np.ones((grid.n_points, 1)) / np.sqrt(grid.n_points)
    V = constrained_qr(rng.standard_normal((quad.n, 1)), quad)
    st = MicroStateLowRank(X=X, S=np.array([[1.0]]), V=V)
    ctx = step_context(grid, quad, material, config, integrator="aBUG", tau=0.9)
    st1 = micro_step(ctx, st, np.ones(grid.n_points))[0]
    assert st1.rank == 1


def test_abug_tracks_full_rank_on_rank_preserving_data(rng):
    grid = build_grid(1, (0.0, 1.0), 32)
    quad = gauss_legendre_1d(8)
    material = unit_material(grid)
    dt = 0.01
    config = SolverConfig(epsilon=1.0, dt=dt)
    config_full = SolverConfig(epsilon=1.0, dt=dt)
    x = grid.g_coords[:, 0]
    G = project_out_mean(
        quad,
        np.outer(np.sin(2 * np.pi * x), quad.q(0))
        + np.outer(np.cos(2 * np.pi * x), quad.q(0) ** 3),
    )
    st = factorize_micro(grid, quad, dense_factors(G), 2, seed=0)
    rho = np.cos(2 * np.pi * grid.rho_coords[:, 0])
    rho_lr, rho_full, G_full = rho.copy(), rho.copy(), G.copy()
    ctx = step_context(grid, quad, material, config, integrator="aBUG", tau=1e-8)
    ctx_full = step_context(grid, quad, material, config_full)
    for k in range(10):
        rho_lr, st, _ = lowrank_macro_coupled_step(ctx, rho_lr, st, (k + 1) * dt)
        rho_full, G_full = imex_step(ctx_full, rho_full, G_full, (k + 1) * dt)
    assert st.rank <= 7
    assert np.linalg.norm(rho_lr - rho_full) <= 1e-6 * np.linalg.norm(rho_full)
    assert np.linalg.norm(reconstruct(st, quad) - G_full) <= 1e-6 * np.linalg.norm(G_full)


def test_ap_abug_protects_limit_directions(rng):
    grid, quad = setup_1d(16, 8)
    material = unit_material(grid)
    config = SolverConfig(epsilon=1e-6, dt=0.01)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 3, seed=0)
    rho = 2.0 + np.sin(2 * np.pi * grid.rho_coords[:, 0])
    st1, info = micro_step(step_context(grid, quad, material, config, integrator="AP-aBUG"),
                          st, rho, 0.0)
    ap_x = -diff(grid, 0, +1, rho) / material.sigma_s_g
    ap_v = quad.m * quad.q(0)
    rx = np.linalg.norm(ap_x - st1.X @ (st1.X.T @ ap_x)) / np.linalg.norm(ap_x)
    rv = np.linalg.norm(ap_v - st1.V @ (st1.V.T @ ap_v)) / np.linalg.norm(ap_v)
    assert rx <= 1e-10
    assert rv <= 1e-10
    assert np.max(np.abs(quad.m @ st1.V)) <= 1e-11


def setup_2d_step(rng, scheme):
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 5))
    quad = chebyshev_legendre_2d(2)
    material = sample_material(
        grid,
        lambda c: 1.0 + 0.2 * np.cos(2 * np.pi * c[:, 0]),
        lambda c: np.full(c.shape[0], 0.05),
        0.8,
    )
    config = SolverConfig(epsilon=0.05, dt=0.004)
    schur = build_schur(grid, quad, material, config) if "IMEX-S" in scheme else None
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 3, seed=0)
    rho = 1.0 + 0.1 * rng.standard_normal(grid.n_points)
    return grid, quad, material, config, schur, st, rho


@pytest.mark.parametrize("integrator", ["BUG", "aBUG", "AP-aBUG"])
def test_carried_sbp_matrices_match_fresh_products(rng, integrator):
    # the Galerkin stack carried with the state equals X^T D^(j,+) X and
    # X^T diag(sigma) X of the state's own basis, after the S step and after
    # either truncation
    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-aBUG")
    ctx = step_context(grid, quad, material, config, schur, integrator, tau=1e-3)
    sig = material.sigma_s_g / config.epsilon**2 + material.sigma_a_g
    for k in range(2):
        rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * config.dt)
        assert st.C.shape == (grid.dim + 1, st.rank, st.rank)
        fresh = [st.X.T @ diff(grid, j, +1, st.X) for j in range(grid.dim)]
        fresh.append(st.X.T @ (sig[:, None] * st.X))
        for carried, f in zip(st.C, fresh):
            assert np.abs(carried - f).max() <= 1e-12 * np.abs(f).max()


def test_abug_extension_keeps_old_basis_and_embeds_coupling(rng):
    # plain aBUG keeps X verbatim as the leading block of X1, and its block
    # embedding S_tilde = [S V^T V1; 0] equals the projection X1^T X S V^T V1
    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-aBUG")
    ctx = step_context(grid, quad, material, config, integrator="aBUG")
    stage, S_tilde = galerkin_stage(ctx, st, rho)
    r = st.rank
    assert stage.X.shape[1] == 2 * r
    assert np.array_equal(stage.X[:, :r], st.X)
    projected = (stage.X.T @ st.X) @ st.S @ (st.V.T @ stage.V)
    assert np.abs(S_tilde - projected).max() <= 1e-13 * np.abs(st.S).max()


def _extension_case(rng, case):
    """``(X, B)``: an orthonormal basis and a block to extend it with."""
    if case in ("wide", "square"):  # 2r > n_points, r = n_points on a small 1D grid
        grid = build_grid(1, (0.0, 1.0), 4)
        n, r = grid.n_points, 5 if case == "wide" else grid.n_points
    else:
        n, r = 60, 6
    X = np.linalg.qr(rng.standard_normal((n, r)))[0]
    B = rng.standard_normal((n, r))
    if case == "in_span":
        B = X @ rng.standard_normal((r, r))
    elif case == "zero":
        B = np.zeros((n, r))
    elif case == "duplicated":
        B[:, 3:] = B[:, :3]
    elif case == "scaled":
        B[:, 2:] *= 1e-14
    return X, B


@pytest.mark.parametrize(
    "case", ["in_span", "zero", "duplicated", "scaled", "wide", "square"]
)
def test_basis_extension_orthonormal_and_spanning(rng, case, monkeypatch):
    import lrtrans.lowrank

    qr_calls = []
    qr = lrtrans.lowrank._qr
    monkeypatch.setattr(lrtrans.lowrank, "_qr", lambda *a: qr_calls.append(1) or qr(*a))
    X, B = _extension_case(rng, case)
    n, r = X.shape
    X1 = _extend_basis(X, B)
    assert X1.shape == (n, r + min(B.shape[1], n - r))
    assert X1.flags.f_contiguous and np.array_equal(X1[:, :r], X)
    assert np.abs(X1.T @ X1 - np.eye(X1.shape[1])).max() <= 1e-13
    residual = B - X1 @ (X1.T @ B)
    assert np.abs(residual).max() <= 1e-12 * max(np.abs(B).max(), 1.0)
    if case == "zero":
        # QR of a zero block completes with coordinate directions, which the
        # re-projection moves out of range(X)
        assert len(qr_calls) == 2


def _same_up_to_column_signs(Q, P, tol):
    signs = np.sign(np.sum(Q * P, axis=0))
    return np.abs(Q - P * signs).max() <= tol


def test_qr_contract(rng, monkeypatch):
    import scipy.linalg
    import scipy.linalg.lapack

    for m, n in [(200, 1), (200, 7), (300, 64), (300, 150), (40, 40)]:
        A = rng.standard_normal((m, n))
        Q = _qr(A.copy(order="F"))
        assert Q.shape == (m, n) and Q.flags.f_contiguous
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-14
        ref = scipy.linalg.qr(A, mode="economic")[0]
        assert _same_up_to_column_signs(Q, ref, 1e-12)
        # the same factor from a row-major input, which LAPACK copies
        assert np.array_equal(_qr(np.ascontiguousarray(A)), Q)
    # wide input: as many columns as rows
    W = rng.standard_normal((30, 50))
    Q = _qr(W.copy())
    assert Q.shape == (30, 30) and np.abs(Q.T @ Q - np.eye(30)).max() <= 1e-14
    assert _qr(np.zeros((30, 0))).shape == (30, 0)
    # rank-deficient input: still orthonormal, and spanning the input
    B = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 8))
    Q = _qr(B.copy(order="F"))
    assert np.abs(Q.T @ Q - np.eye(8)).max() <= 1e-14
    assert np.abs(B - Q @ (Q.T @ B)).max() <= 1e-12 * np.abs(B).max()
    # a column-major input is factorized in place, and out receives the
    # leading columns of Q in place
    A = rng.standard_normal((200, 10))
    ref = _qr(A.copy(order="F"))
    F = A.copy(order="F")
    seen = []
    dgeqrt = scipy.linalg.lapack.dgeqrt

    def recording_dgeqrt(nb, a, *args, **kwargs):
        result = dgeqrt(nb, a, *args, **kwargs)
        seen.append(result[0] is a)
        return result

    monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", recording_dgeqrt)
    block = np.full((200, 9), np.nan, order="F")
    view = block[:, 3:9]
    assert _qr(F, view) is view
    assert seen == [True] and not np.array_equal(F, A)
    assert np.allclose(np.abs(np.diag(F)), np.abs(np.diag(scipy.linalg.qr(A)[1])))
    assert np.array_equal(block[:, 3:], ref[:, :6]) and np.isnan(block[:, :3]).all()


def test_step_differences_each_array_once(rng, monkeypatch):
    # one 2D IMEX-S-BUG step from a state without carried increments: X and
    # X1 forward in two directions each (the backward increments are
    # shifted copies), the Schur divergence on two n-vectors, and the
    # density gradient
    import lrtrans.lowrank
    import lrtrans.ops

    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-BUG")
    calls = []

    def counting(f):
        def counted(*args, **kwargs):
            calls.append(1)
            return f(*args, **kwargs)
        return counted

    monkeypatch.setattr(lrtrans.lowrank, "increment", counting(increment))
    monkeypatch.setattr(lrtrans.ops, "diff", counting(diff))
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    lowrank_macro_coupled_step(ctx, rho, st, config.dt)
    assert len(calls) <= 8


def test_increment_slabs_equal_row_major_increments(rng):
    # the column-major layout changes the storage of the increment block,
    # not the values each slab holds; X is a view of its first slab
    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-BUG")
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    st1, P = _block_product(ctx, st)
    W, r = st1.W, st.rank
    assert W.flags.f_contiguous and P.flags.f_contiguous and st1.X.base is W
    Xc = np.ascontiguousarray(st.X)
    assert np.array_equal(W[:, :r], Xc)
    for j in range(grid.dim):
        assert np.array_equal(W[:, (1 + j) * r:(2 + j) * r], increment(grid, j, +1, Xc))


@pytest.mark.parametrize("weighted", [True, False])
def test_block_product_flux_equals_difference_contraction(rng, weighted):
    # the Schur flux columns of P equal the flux contracted from K = X S and
    # its divided differences
    grid, quad, material, config, schur, _, rho = setup_2d_step(rng, "IMEX-S-BUG")
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 3, weighted=weighted, seed=0)
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    _, P = _block_product(ctx, st)
    ref = schur_flux_from_differences(ctx, st)
    assert np.abs(P[:, st.rank:] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("steps", [1, 2])
def test_bug_step_carries_forward_increments(rng, steps):
    # after IMEX-S-BUG steps the state carries [X | Delta^(j,+) X], equal bit
    # for bit to fresh increments of its X, which is a view of the block
    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-BUG")
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    for k in range(steps):
        rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * config.dt)
    r = st.rank
    assert st.W.shape == (grid.n_points, (1 + grid.dim) * r) and st.X.base is st.W
    for j in range(grid.dim):
        assert np.array_equal(st.W[:, (1 + j) * r:(2 + j) * r], increment(grid, j, +1, st.X))


@pytest.mark.parametrize("integrator", ["aBUG", "AP-aBUG"])
def test_truncating_steps_drop_the_carried_increments(rng, integrator):
    # truncation rotates X, so the state it returns carries no increments
    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-BUG")
    ctx = step_context(grid, quad, material, config, schur, integrator, tau=1e-3)
    rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, config.dt)
    assert st.W is None


@pytest.mark.parametrize("integrator", ["BUG", "aBUG"])
def test_spatial_qr_factorizes_column_major_blocks(rng, integrator, monkeypatch):
    # K1 and the aBUG extension block reach LAPACK column-major, so it
    # factorizes them in place without a transposing copy
    import scipy.linalg.lapack

    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-BUG")
    layouts = []
    dgeqrt = scipy.linalg.lapack.dgeqrt

    def recording_dgeqrt(nb, a, *args, **kwargs):
        if a.shape[0] == grid.n_points:
            layouts.append(a.flags.f_contiguous)
        return dgeqrt(nb, a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", recording_dgeqrt)
    ctx = step_context(grid, quad, material, config, schur, integrator, tau=1e-3)
    for k in range(2):
        rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * config.dt)
        assert st.X.flags.f_contiguous
    assert len(layouts) >= 2 and all(layouts)


@pytest.mark.parametrize("integrator", ["BUG", "aBUG"])
def test_step_stacks_no_spatial_blocks(rng, integrator, monkeypatch):
    # the increment blocks and X1 = [X, Q] are filled slab by slab; np.hstack
    # of n_points-row blocks would copy them row by row
    grid, quad, material, config, schur, st, rho = setup_2d_step(rng, "IMEX-S-BUG")
    rows = []
    hstack = np.hstack

    def recording_hstack(blocks, *args, **kwargs):
        out = hstack(blocks, *args, **kwargs)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(np, "hstack", recording_hstack)
    lowrank_macro_coupled_step(step_context(grid, quad, material, config, schur, integrator,
                                            tau=1e-3),
                               rho, st, config.dt)
    assert quad.n != grid.n_points and grid.n_points not in rows


@pytest.mark.parametrize(
    "field, value",
    [("tau", 0.0), ("tau", -1e-5), ("tau", np.nan), ("tau", np.inf)],
)
def test_low_rank_config_rejects_invalid(field, value):
    # the low-rank configuration of a run is its step context's integrator and tau
    grid, quad = setup_1d()
    args = (grid, quad, unit_material(grid), SolverConfig(epsilon=1.0, dt=0.05))
    with pytest.raises(ValueError, match=field):
        step_context(*args, integrator="aBUG", **{field: value})
    step_context(*args, integrator="aBUG")


@pytest.mark.parametrize("name", ["abug", "bug", ""])
def test_step_context_rejects_unknown_integrator(name):
    # a misspelt name would otherwise run a hybrid of the integrators
    grid, quad = setup_1d()
    args = (grid, quad, unit_material(grid), SolverConfig(epsilon=1.0, dt=0.05))
    with pytest.raises(ValueError, match="integrator"):
        step_context(*args, integrator=name)
    for known in (None, "BUG", "aBUG", "AP-aBUG"):
        assert step_context(*args, integrator=known).integrator == known


@pytest.mark.parametrize("nx", [16, 2])
@pytest.mark.parametrize(
    "integrator, weighted", [("aBUG", True), ("aBUG", False), ("AP-aBUG", True)]
)
def test_abug_rank_bounded_by_mesh_and_ordinates(rng, nx, integrator, weighted):
    # the augmented bases hold at most n_points spatial and N - 1 angular
    # columns in both factor modes, so truncation never keeps more than
    # min(n_points, N - 1); at a tolerance of 1e-16 from rank 1 the
    # augmented rank reaches that bound within 8 steps.  nx = 2 has 4 points,
    # so there the spatial bound binds
    grid, quad = setup_1d(nx=nx)
    bound = min(grid.n_points, quad.z_dim)
    ctx = step_context(grid, quad, unit_material(grid), SolverConfig(epsilon=1.0, dt=0.05),
                       integrator=integrator, tau=1e-16)
    G = rng.standard_normal((grid.n_points, quad.n))
    st = factorize_micro(grid, quad, dense_factors(G), 1, weighted=weighted, seed=0)
    rho = rng.standard_normal(grid.n_points)
    pre = []
    for _ in range(10):
        st, info = micro_step(ctx, st, rho)
        assert st.X.shape[1] == st.V.shape[1] == info.rank <= info.pre_truncation_rank
        pre.append(info.pre_truncation_rank)
    assert max(pre) == bound and pre.index(bound) < 8


def test_abug_run_reaches_the_full_spatial_rank():
    # bimodal1d at mesh_div 10 has 10 points and 50 ordinates: the spatial
    # basis fills up, and the extension of the next step has no column
    res = execute_run(RunManifest(scenario="bimodal1d", scheme="IMEX-aBUG", mesh_div=10))
    assert res.grid.n_points == 10
    assert res.summary["status"] == "completed"
    assert max(rec.rank for rec in res.records) == 10
    E = res.energies
    assert np.all(np.diff(E) <= 1e-12 * E[:-1])
    for rec in res.records:
        assert rec.zero_density_residual <= 1e-11 * max(1.0, rec.micro_norm_w), rec.step


# ---------------------------------------------------------------------------
# coupled step
# ---------------------------------------------------------------------------

def test_coupled_equilibrium_fixed_point():
    grid, quad = setup_1d()
    material = unit_material(grid)
    for scheme in ("IMEX-BUG", "IMEX-S-BUG"):
        config = SolverConfig(epsilon=1.0, dt=0.05)
        schur = build_schur(grid, quad, material, config) if "S" in scheme.split("-") else None
        rho = np.full(grid.n_points, 1.5)
        st = factorize_micro(grid, quad, zeros(grid, quad), 2, seed=0)
        ctx = step_context(grid, quad, material, config, schur, "BUG")
        rho1, st1, _ = lowrank_macro_coupled_step(ctx, rho, st, 0.05)
        assert np.max(np.abs(rho1 - rho)) <= 1e-12
        assert np.max(np.abs(st1.S)) <= 1e-12


def test_schur_macro_rhs_matches_dense(rng):
    # the factored right-hand side of the reduced density solve equals the
    # dense assembly from the reconstructed state
    grid, quad = setup_1d()
    material = unit_material(grid, sigma_a=0.2)
    config = SolverConfig(epsilon=0.6, dt=0.02)
    schur = build_schur(grid, quad, material, config)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 3, seed=2)
    rho = rng.standard_normal(grid.n_points)
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    rho_lr, _, _ = lowrank_macro_coupled_step(ctx, rho, st, 0.02)
    from lrtrans.fullrank import imex_s_step

    rho_full, _ = imex_s_step(ctx, rho, reconstruct(st, quad), 0.02)
    assert np.max(np.abs(rho_lr - rho_full)) <= 1e-12 * max(np.abs(rho_full).max(), 1.0)


def test_energy_chain_projected_state(rng):
    # E^{n+1} <= E-tilde^n <= E^n along a Schur-coupled fixed-rank run,
    # where E-tilde uses the projected coupling matrix and the old density
    grid, quad = setup_1d(32, 16)
    material = unit_material(grid)
    eps = 0.05  # conditional regime: the implicit bound is finite
    from lrtrans.diagnostics import dt_implicit

    dt = dt_implicit(grid, material, eps)
    assert np.isfinite(dt)
    config = SolverConfig(epsilon=eps, dt=dt)
    schur = build_schur(grid, quad, material, config)
    rho = np.exp(-40 * (grid.rho_coords[:, 0] - 0.5) ** 2)
    st = factorize_micro(grid, quad, zeros(grid, quad), 4, seed=0)
    vol = grid.cell_volume
    theta = 0.0
    coeff = eps**2 + (1 - theta) * dt * material.sigma_s_floor

    def energy(r, fro):
        return quad.domain_measure * vol * r @ r + coeff * vol * fro**2

    ctx = step_context(grid, quad, material, config, schur, "BUG")
    e_prev = energy(rho, np.linalg.norm(st.S))
    for k in range(40):
        rho_prev, s_prev_fro = rho, np.linalg.norm(st.S)
        rho, st, info = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * dt)
        e_tilde = energy(rho_prev, info.s_tilde_fro)
        e_new = energy(rho, np.linalg.norm(st.S))
        assert info.s_tilde_fro <= s_prev_fro * (1 + 1e-12)
        assert e_tilde <= e_prev * (1 + 1e-12)
        assert e_new <= e_tilde * (1 + 1e-12)
        e_prev = e_new


def test_unweighted_counterexample_vs_weighted(rng):
    # two-beam data: the factor-norm energy grows for plainly orthonormal
    # factors and stays monotone for the energy-consistent ones; the true
    # weighted energy decays in both runs
    from lrtrans import scenarios

    scen = scenarios.get_scenario("bimodal1d")
    grid, quad, material = scenarios.build_objects(scen)
    eps = scen.epsilon
    dt = scenarios.select_dt(scen, "IMEX-S-BUG", grid, material, eps)
    config = SolverConfig(epsilon=eps, dt=dt)
    schur = build_schur(grid, quad, material, config)
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    rho0, factors = scen.init(grid, quad, eps)
    vol = grid.cell_volume
    growth = {}
    for weighted in (True, False):
        st = factorize_micro(grid, quad, factors, 2, weighted=weighted, seed=0)
        rho = rho0.copy()
        E = [quad.domain_measure * vol * rho @ rho + eps**2 * vol * np.linalg.norm(st.S) ** 2]
        E_true = [quad.domain_measure * vol * rho @ rho
                  + eps**2 * micro_norm_w_exact(grid, quad, st) ** 2]
        for k in range(20):
            rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * dt)
            E.append(quad.domain_measure * vol * rho @ rho
                     + eps**2 * vol * np.linalg.norm(st.S) ** 2)
            E_true.append(quad.domain_measure * vol * rho @ rho
                          + eps**2 * micro_norm_w_exact(grid, quad, st) ** 2)
        E = np.array(E)
        growth[weighted] = np.any(np.diff(E) > 1e-10 * E[:-1])
        assert np.all(np.diff(np.array(E_true)) <= 1e-10 * np.array(E_true)[:-1])
    assert growth[False] and not growth[True]


def test_zero_density_residual_low_rank(rng):
    grid, quad = setup_1d()
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    st = factorize_micro(grid, quad, dense_factors(G), 4, seed=0)
    dense_val = zero_density_residual(quad, reconstruct(st, quad))
    fact_val = zero_density_residual(quad, st)
    assert abs(dense_val - fact_val) <= 1e-12 * max(dense_val, 1e-30) + 1e-13
    # deliberately inject the forbidden density mode
    amp = 0.37
    bad = reconstruct(st, quad) + amp * np.outer(np.ones(grid.n_points), np.ones(quad.n))
    assert zero_density_residual(quad, bad) == pytest.approx(
        amp * quad.domain_measure, rel=1e-12
    )


@pytest.mark.parametrize("scheme", ["IMEX-BUG", "IMEX-S-BUG", "IMEX-aBUG", "IMEX-S-aBUG"])
def test_unweighted_runs_hold_the_zero_density_bound(scheme):
    # unweighted angular bases carry w^T V = 0 like the weighted ones carry
    # 1^T M V = 0, so every recorded row of an unweighted run, augmented
    # ranks included, holds the bound of the trace gate
    res = execute_run(RunManifest(scenario="bimodal1d", scheme=scheme, unweighted=True,
                                  max_steps=60, with_error=False))
    assert res.summary["status"] == "completed" and len(res.records) > 40
    for rec in res.records:
        assert rec.zero_density_residual <= 1e-11 * max(1.0, rec.micro_norm_w), rec.step


def test_gm_frobenius_both_modes(rng):
    grid, quad = setup_1d()
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    for weighted in (True, False):
        st = factorize_micro(grid, quad, dense_factors(G), quad.n - 1 if weighted else quad.n,
                             weighted=weighted, seed=0)
        dense = np.linalg.norm(reconstruct(st, quad) * quad.m[None, :])
        assert abs(gm_frobenius(st, quad) - dense) <= 1e-11 * dense


# ---------------------------------------------------------------------------
# factored initial states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["mms2d-16", "bimodal1d"])
@pytest.mark.parametrize("weighted", [True, False])
def test_factored_initial_state_matches_dense_factorization(name, weighted):
    scen = scenarios.get_scenario(name)
    grid, quad, _ = scenarios.build_objects(scen)
    _, (P, A) = scen.init(grid, quad, scen.epsilon)
    assert P.shape == (grid.n_points, 1) and A.shape == (quad.n, 1)
    st = factorize_micro(grid, quad, (P, A), scen.rank, weighted=weighted, seed=0)
    ref = factorize_dense(grid, quad, P @ A.T, scen.rank, weighted=weighted, seed=0)
    assert st.rank == ref.rank == scen.rank
    assert np.max(np.abs(st.S - ref.S)) <= 1e-12 * np.linalg.norm(ref.S)
    # the sign of a column follows its largest-magnitude entry, which the
    # sine profile of mms2d attains at several points of either sign
    for new, old in ((st.X, ref.X), (st.V, ref.V)):
        signs = np.sign(np.sum(new * old, axis=0))
        assert np.max(np.abs(new * signs - old)) <= 1e-12


def test_factorization_removes_the_density_mode(rng):
    # weighted factors cannot hold the angular mean: it is removed from M A
    # before the truncation to rank 2 picks the leading singular triplets
    grid, quad = setup_1d()
    P = rng.standard_normal((grid.n_points, 3))
    A = rng.standard_normal((quad.n, 3)) + 1.0
    st = factorize_micro(grid, quad, (P, A), 2, seed=0)
    G = project_out_mean(quad, P @ A.T)
    U, s, Vt = np.linalg.svd(G * quad.m, full_matrices=False)
    assert np.allclose(np.diag(st.S), s[:2], rtol=1e-12, atol=0)
    best = (U[:, :2] * s[:2]) @ Vt[:2] / quad.m
    assert np.max(np.abs(reconstruct(st, quad) - best)) <= 1e-12 * np.abs(G).max()
    assert np.max(np.abs(quad.m @ st.V)) <= 1e-13
    # unweighted factors cannot hold the component along w either, and the
    # dense factorization of the oracle removes it too
    st = factorize_micro(grid, quad, (P, A), 2, weighted=False, seed=0)
    ref = factorize_dense(grid, quad, P @ A.T, 2, weighted=False, seed=0)
    assert np.allclose(np.diag(st.S), np.diag(ref.S), rtol=1e-12, atol=0)
    scale = np.abs(P @ A.T).max()
    assert np.max(np.abs(reconstruct(st, quad) - reconstruct(ref, quad))) <= 1e-12 * scale
    assert np.max(np.abs(quad.w @ st.V)) <= 1e-13


def test_lowrank_setup_allocates_less_than_one_dense_state():
    # init, factorization and Schur assembly of a gaussian2d --mesh-div 2
    # IMEX-S-BUG run (8192 points x 512 ordinates) without a dense state
    scen = scenarios.get_scenario("gaussian2d", mesh_div=2)
    grid, quad, material = scenarios.build_objects(scen)
    dt = scenarios.select_dt(scen, "IMEX-S-BUG", grid, material, scen.epsilon)
    config = SolverConfig(epsilon=scen.epsilon, dt=dt)
    dense = 8 * grid.n_points * quad.n
    tracemalloc.start()
    try:
        rho, factors = scen.init(grid, quad, scen.epsilon)
        st = factorize_micro(grid, quad, factors, scen.rank, seed=0)
        build_schur(grid, quad, material, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.rank == scen.rank
    assert peak < dense
