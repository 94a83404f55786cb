"""IMEX / IMEX-S steppers against dense block oracles; Schur operator checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from lrtrans import diagnostics, fullrank, scenarios
from lrtrans import run as run_module
from lrtrans.angular import chebyshev_legendre_2d, gauss_legendre_1d
from lrtrans.fullrank import (
    SCHEMES,
    DivergenceError,
    LinearSolveError,
    SolverConfig,
    _density_stencil,
    _schur_terms,
    build_schur,
    density_solver,
    imex_s_step,
    imex_step,
    parse_scheme,
    relaxation_factor,
    spd_solver,
    step_context,
)
from lrtrans.grid import build_grid, diff
from lrtrans.ops import (
    advect,
    density_grad,
    flux_div,
    norm_w,
    project_out_mean,
    sample_material,
    upwind_runs,
)
from lrtrans.run import RunManifest, execute_run
from oracles import (
    dense_diff_matrix,
    div_grad_product,
    loop_order,
    permute_ordinates,
    product_rule_2d,
    schur_apply,
    schur_matrix,
    shift_permutation,
)


def make_setup(eps=0.5, dt=0.01, nx=8, n_ord=4, varying=True):
    grid = build_grid(1, (0.0, 1.0), nx)
    quad = gauss_legendre_1d(n_ord)
    if varying:
        sig_s = lambda c: 1.0 + 0.3 * np.sin(2 * np.pi * c[:, 0])
        sig_a = lambda c: 0.2 + 0.1 * np.cos(2 * np.pi * c[:, 0])
        floor = 0.7
    else:
        sig_s = lambda c: np.ones(c.shape[0])
        sig_a = lambda c: np.zeros(c.shape[0])
        floor = 1.0
    material = sample_material(grid, sig_s, sig_a, floor)
    config = SolverConfig(epsilon=eps, dt=dt)
    return grid, quad, material, config


def random_state(grid, quad, rng):
    rho = rng.standard_normal(grid.n_points)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    return rho, G


def dense_blocks(grid, quad, material, config):
    """Assemble the coupled block system matrices for vec(G) row-major."""
    n, no = grid.n_points, quad.n
    eps2 = config.epsilon**2
    a22 = 1.0 / config.dt + material.sigma_s_g / eps2 + material.sigma_a_g
    Hmat = np.zeros((n, n * no))
    for i in range(n):
        for k in range(no):
            E = np.zeros((n, no))
            E[i, k] = 1.0
            Hmat[:, i * no + k] = flux_div(grid, quad, E)
    Jmat = np.zeros((n * no, n))
    dp = dense_diff_matrix(grid, 0, +1)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        Jmat[:, i] = np.outer(dp @ e, quad.q(0)).reshape(-1)
    A11 = np.diag(1.0 / config.dt + material.sigma_a_rho)
    A22 = np.diag(np.repeat(a22, no))
    return A11, Hmat, Jmat / eps2, A22


def micro_rhs(grid, quad, config, G):
    return G / config.dt - project_out_mean(
        quad, advect(grid, quad, G)
    ) / config.epsilon


def test_equilibrium_fixed_point():
    grid, quad, material, config = make_setup(varying=False)
    rho = np.full(grid.n_points, 2.0)
    G = np.zeros((grid.n_points, quad.n))
    r1, G1 = imex_step(step_context(grid, quad, material, config), rho, G)
    assert np.allclose(r1, rho, atol=1e-14)
    assert np.max(np.abs(G1)) == 0.0
    schur = build_schur(grid, quad, material, config)
    r2, G2 = imex_s_step(step_context(grid, quad, material, config, schur), rho, G)
    assert np.allclose(r2, rho, atol=1e-12)
    assert np.max(np.abs(G2)) <= 1e-14


def test_imex_matches_dense_oracle(rng):
    grid, quad, material, config = make_setup()
    rho, G = random_state(grid, quad, rng)
    A11, Hmat, Jmat, A22 = dense_blocks(grid, quad, material, config)
    b2 = micro_rhs(grid, quad, config, G).reshape(-1) - Jmat @ rho
    G_oracle = np.linalg.solve(A22, b2).reshape(G.shape)
    rho_oracle = np.linalg.solve(
        A11, rho / config.dt - flux_div(grid, quad, G_oracle)
    )
    r1, G1 = imex_step(step_context(grid, quad, material, config), rho, G)
    assert np.max(np.abs(G1 - G_oracle)) <= 1e-12
    assert np.max(np.abs(r1 - rho_oracle)) <= 1e-12


def test_imex_s_matches_dense_block_oracle(rng):
    grid, quad, material, config = make_setup()
    rho, G = random_state(grid, quad, rng)
    A11, Hmat, Jmat, A22 = dense_blocks(grid, quad, material, config)
    n, no = grid.n_points, quad.n
    Afull = np.block([[A11, Hmat], [Jmat, A22]])
    b = np.concatenate([rho / config.dt, micro_rhs(grid, quad, config, G).reshape(-1)])
    sol = np.linalg.solve(Afull, b)
    schur = build_schur(grid, quad, material, config)
    r1, G1 = imex_s_step(step_context(grid, quad, material, config, schur), rho, G)
    assert np.max(np.abs(r1 - sol[:n])) <= 1e-10
    assert np.max(np.abs(G1 - sol[n:].reshape(n, no))) <= 1e-10


def test_zero_density_preserved(rng):
    grid, quad, material, config = make_setup()
    rho, G = random_state(grid, quad, rng)
    ctx = step_context(grid, quad, material, config, build_schur(grid, quad, material, config))
    for stepper in (imex_step, imex_s_step):
        r, g = rho.copy(), G.copy()
        for _ in range(5):
            r, g = stepper(ctx, r, g)
            assert np.max(np.abs(g @ quad.w)) <= 1e-12 * max(np.abs(g).max(), 1.0)


def test_mass_conserved_without_absorption(rng):
    grid, quad, material, config = make_setup(varying=False)
    rho, G = random_state(grid, quad, rng)
    total0 = np.sum(rho)
    ctx = step_context(grid, quad, material, config)
    r, g = rho, G
    for _ in range(20):
        r, g = imex_step(ctx, r, g)
    assert abs(np.sum(r) - total0) <= 1e-11 * max(abs(total0), 1.0)


def test_energy_decay_under_explicit_bound(rng):
    from lrtrans.diagnostics import dt_explicit

    grid, quad, material, _ = make_setup(varying=False, nx=32, n_ord=16)
    dt = dt_explicit(grid, material, 1.0)
    config = SolverConfig(epsilon=1.0, dt=dt)
    rho = np.exp(-10 * (grid.rho_coords[:, 0] - 0.5) ** 2)
    G = np.zeros((grid.n_points, quad.n))
    vol = grid.cell_volume

    def energy(r, g):
        return quad.domain_measure * vol * r @ r + norm_w(grid, quad, g) ** 2

    ctx = step_context(grid, quad, material, config)
    e = energy(rho, G)
    for _ in range(40):
        rho, G = imex_step(ctx, rho, G)
        e_new = energy(rho, G)
        assert e_new <= e * (1 + 1e-12)
        e = e_new


def test_schur_symmetry_and_diagonal():
    grid, quad, material, config = make_setup()
    T = schur_matrix(grid, quad, material, config).toarray()
    assert np.allclose(T, T.T, atol=1e-12 * np.abs(T).max())
    assert np.all(np.diag(T) > 0)


def test_schur_assembled_equals_application():
    # the stencil the Schur solve applies, column by column, against the
    # assembled product form
    grid, quad, material, config = make_setup()
    apply, _ = _density_stencil(*_schur_terms(grid, quad, material, config))
    T = schur_matrix(grid, quad, material, config).toarray()
    n = grid.n_points
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        assert np.allclose(apply(e), T[:, i], atol=1e-14)


def test_schur_large_epsilon_limit(rng):
    grid, quad, material, _ = make_setup(eps=1e6, dt=0.02)
    config = SolverConfig(epsilon=1e6, dt=0.02)
    x = rng.standard_normal(grid.n_points)
    expected = (1.0 / config.dt + material.sigma_a_rho) * x
    applied = schur_apply(grid, quad, material, config, x)
    assert np.max(np.abs(applied - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_schur_diffusion_limit():
    # at eps -> 0 the operator approaches the backward-Euler diffusion
    # operator with conductivity <mu^2>/sigma_s
    eps = 1e-8
    grid, quad, material, _ = make_setup(eps=eps, dt=0.05, nx=16, n_ord=16, varying=False)
    config = SolverConfig(epsilon=eps, dt=0.05)
    rho = np.sin(2 * np.pi * grid.rho_coords[:, 0])
    mu2 = float(quad.w @ quad.q(0) ** 2) / quad.domain_measure
    limit = rho / config.dt - diff(
        grid, 0, -1, (mu2 / material.sigma_s_g) * diff(grid, 0, +1, rho)
    )
    bound = 10 * eps**2 / config.dt * np.max(np.abs(rho)) / config.dt
    applied = schur_apply(grid, quad, material, config, rho)
    assert np.max(np.abs(applied - limit)) <= max(bound, 1e-8)


def test_divergence_detection():
    grid, quad, material, config = make_setup()
    rho = np.ones(grid.n_points)
    G = np.zeros((grid.n_points, quad.n))
    G[0, 0] = np.inf
    with pytest.raises(DivergenceError):
        imex_step(step_context(grid, quad, material, config), rho, G)


def test_macroscopic_source_enters_at_new_time():
    grid, quad, _, config = make_setup(varying=False)
    seen = []
    material = sample_material(
        grid,
        lambda c: np.ones(c.shape[0]),
        lambda c: np.zeros(c.shape[0]),
        1.0,
        phi=lambda t: seen.append(t) or np.zeros(grid.n_points),
    )
    rho = np.ones(grid.n_points)
    G = np.zeros((grid.n_points, quad.n))
    imex_step(step_context(grid, quad, material, config), rho, G, t_next=0.37)
    assert seen == [0.37]


# -- step formulas in the sweep's association, a bitwise reference ---------

def _reference_dt_explicit(grid, quad, material, config, G, t_next):
    """``dt B``, the explicit part times ``dt``: ``G - (sum_j increment_j G *
    q_j dt / (eps h_j))(I - w 1^T/|D|) + (dt P) A^T``, the raw one-sided
    increments being the subtractions :func:`lrtrans.fullrank._stencil` makes."""
    dt, eps = config.dt, config.epsilon
    adv = np.zeros_like(G)
    for j in range(grid.dim):
        c = dt / (eps * grid.spacing[j])
        fwd = G[shift_permutation(grid, j, +1)] - G
        bwd = -(G[shift_permutation(grid, j, -1)] - G)
        adv += bwd * (quad.q_plus(j) * c) + fwd * (quad.q_minus(j) * c)
    rhs = G - project_out_mean(quad, adv)
    if material.micro_source is not None:
        P, A = material.micro_source(t_next)
        rhs += (P * dt) @ A.T
    return rhs


def _reference_macro_source(material, config, rho, t_next):
    b = rho / config.dt
    if material.phi is not None:
        b = b + material.phi(t_next)
    return b


def _reference_imex_step(grid, quad, material, config, rho, G, t_next):
    R_dt = relaxation_factor(material, config) / config.dt
    PJ, AJ = density_grad(grid, quad, rho)
    rhs = _reference_dt_explicit(grid, quad, material, config, G, t_next)
    rhs -= (PJ * (config.dt / config.epsilon**2)) @ AJ.T
    G_new = R_dt[:, None] * rhs
    b = _reference_macro_source(material, config, rho, t_next)
    rho_new = (b - flux_div(grid, quad, G_new)) / (1.0 / config.dt + material.sigma_a_rho)
    return rho_new, G_new


def _reference_imex_s_step(grid, quad, material, config, schur, rho, G, t_next):
    R_dt = relaxation_factor(material, config) / config.dt
    dtB = _reference_dt_explicit(grid, quad, material, config, G, t_next)
    b1 = _reference_macro_source(material, config, rho, t_next)
    rho_new = schur.solve(b1 - flux_div(grid, quad, R_dt[:, None] * dtB))
    PJ, AJ = density_grad(grid, quad, rho_new)
    G_new = R_dt[:, None] * (dtB - (PJ * (config.dt / config.epsilon**2)) @ AJ.T)
    return rho_new, G_new


# -- the step formulas before the sweep folded its scalings, a second oracle

def _pre_change_micro_rhs(grid, quad, material, config, G, t_next):
    adv = np.zeros_like(G)
    for j in range(grid.dim):
        adv += diff(grid, j, -1, G) * quad.q_plus(j)[None, :]
        adv += diff(grid, j, +1, G) * quad.q_minus(j)[None, :]
    adv = adv - np.outer(adv @ quad.w, np.ones(quad.n)) / quad.domain_measure
    rhs = G / config.dt
    rhs -= adv / config.epsilon
    if material.micro_source is not None:
        P, A = material.micro_source(t_next)
        rhs += P @ A.T
    return rhs


def _pre_change_imex_step(grid, quad, material, config, rho, G, t_next):
    R = relaxation_factor(material, config)
    PJ, AJ = density_grad(grid, quad, rho)
    rhs = _pre_change_micro_rhs(grid, quad, material, config, G, t_next)
    rhs -= (PJ @ AJ.T) / config.epsilon**2
    G_new = R[:, None] * rhs
    b = _reference_macro_source(material, config, rho, t_next)
    rho_new = (b - flux_div(grid, quad, G_new)) / (1.0 / config.dt + material.sigma_a_rho)
    return rho_new, G_new


def _pre_change_imex_s_step(grid, quad, material, config, schur, rho, G, t_next):
    R = relaxation_factor(material, config)
    b2 = _pre_change_micro_rhs(grid, quad, material, config, G, t_next)
    b1 = _reference_macro_source(material, config, rho, t_next)
    rho_new = schur.solve(b1 - flux_div(grid, quad, R[:, None] * b2))
    PJ, AJ = density_grad(grid, quad, rho_new)
    G_new = R[:, None] * (b2 - (PJ @ AJ.T) / config.epsilon**2)
    return rho_new, G_new


def _set_block_rows(monkeypatch, grid, quad, rows):
    """Size the sweep's blocks to ``rows`` outer-axis rows (rounded up to a
    multiple of four points)."""
    row_points = grid.n_points // (2 * grid.block_shape[1])
    monkeypatch.setattr(fullrank, "BLOCK_BYTES", rows * row_points * quad.n * 8)


def _step_setup(name, scheme):
    scen = scenarios.get_scenario(name)
    grid, quad, material = scenarios.build_objects(scen)
    dt = scenarios.select_dt(scen, scheme, grid, material, scen.epsilon)
    config = SolverConfig(epsilon=scen.epsilon, dt=dt)
    schur = build_schur(grid, quad, material, config) if scheme == "IMEX-S" else None
    return grid, quad, material, config, schur


def _sized_context(monkeypatch, grid, quad, material, config, schur, rows):
    """The step context with the sweep's blocks sized to ``rows`` outer-axis
    rows (see :func:`_set_block_rows`), or the default blocks for ``None``."""
    if rows is not None:
        _set_block_rows(monkeypatch, grid, quad, rows)
    return step_context(grid, quad, material, config, schur)


# mms2d-16 carries a micro source and is one block at the default budget;
# 3-row blocks of mms2d-16 (48 points) and 7-row blocks of bimodal1d (rounded
# to 8 points; its families meet at point 50) straddle the family boundary
# and end with a ragged block.  The grouped cases run the ordinates in the
# constructor's upwind quadrant order, as every run does, so each halo row is
# kept in its own runs of columns only; the other 2D cases run them in the
# product rule's loop order.
@pytest.mark.parametrize(
    "scheme, name, rows, grouped",
    [
        pytest.param("IMEX", "mms2d-16", None, False, id="IMEX"),
        pytest.param("IMEX-S", "mms2d-16", None, False, id="IMEX-S"),
        pytest.param("IMEX", "mms2d-16", 3, False, id="IMEX-mms2d-16-3rows"),
        pytest.param("IMEX-S", "mms2d-16", 3, False, id="IMEX-S-mms2d-16-3rows"),
        pytest.param("IMEX", "mms2d-16", 3, True, id="IMEX-mms2d-16-3rows-grouped"),
        pytest.param("IMEX-S", "mms2d-16", 3, True, id="IMEX-S-mms2d-16-3rows-grouped"),
        pytest.param("IMEX", "bimodal1d", 7, False, id="IMEX-bimodal1d-7rows"),
        pytest.param("IMEX-S", "bimodal1d", 7, False, id="IMEX-S-bimodal1d-7rows"),
    ],
)
def test_steps_match_reference_formulas_bitwise_with_micro_source(
    rng, monkeypatch, scheme, name, rows, grouped
):
    grid, quad, material, config, schur = _step_setup(name, scheme)
    assert (material.micro_source is not None) == name.startswith("mms2d")
    if grouped:
        assert tuple(len(r) for r in upwind_runs(quad)) == (2, 3)
    elif quad.dim == 2:
        quad, material = permute_ordinates(quad, material, loop_order(quad))
        if schur is not None:
            schur = build_schur(grid, quad, material, config)
    ctx = _sized_context(monkeypatch, grid, quad, material, config, schur, rows)
    blocks = ctx.blocks
    if rows is None:
        assert blocks == [(0, grid.n_points)]
    else:
        sizes = [hi - lo for lo, hi in blocks]
        assert len(blocks) > 3 and sizes[-1] < sizes[0]
        assert any(lo < grid.n_points // 2 < hi for lo, hi in blocks)
    dt = config.dt
    rho, G = random_state(grid, quad, rng)
    ref_rho, ref_G = rho.copy(), G.copy()
    old_rho, old_G = rho.copy(), G.copy()
    for k in range(1, 4):
        if schur is None:
            rho, G = imex_step(ctx, rho, G, k * dt)
            ref_rho, ref_G = _reference_imex_step(
                grid, quad, material, config, ref_rho, ref_G, k * dt
            )
            old_rho, old_G = _pre_change_imex_step(
                grid, quad, material, config, old_rho, old_G, k * dt
            )
        else:
            rho, G = imex_s_step(ctx, rho, G, k * dt)
            ref_rho, ref_G = _reference_imex_s_step(
                grid, quad, material, config, schur, ref_rho, ref_G, k * dt
            )
            old_rho, old_G = _pre_change_imex_s_step(
                grid, quad, material, config, schur, old_rho, old_G, k * dt
            )
        assert np.array_equal(rho, ref_rho)
        assert np.array_equal(G, ref_G)
        # the pre-change association agrees to rounding
        assert np.max(np.abs(rho - old_rho)) <= 1e-13 * np.max(np.abs(old_rho))
        assert np.max(np.abs(G - old_G)) <= 1e-13 * np.max(np.abs(old_G))


@pytest.mark.parametrize("step", [imex_step, imex_s_step])
def test_steps_reject_a_fortran_ordered_micro_state(rng, step):
    # the sweep's dgemm writes into the transposed blocks of G in place; on a
    # Fortran-ordered G f2py would update a copy and the result would be lost
    grid, quad, material, config, schur = _step_setup("mms2d-16", "IMEX-S")
    rho, G = random_state(grid, quad, rng)
    F = np.asfortranarray(G)
    with pytest.raises(ValueError, match="C-contiguous"):
        step(step_context(grid, quad, material, config, schur), rho, F, config.dt)
    assert np.array_equal(F, G)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_value_in_any_block_raises(rng, monkeypatch, where):
    grid, quad, material, config, schur = _step_setup("mms2d-16", "IMEX-S")
    ctx = _sized_context(monkeypatch, grid, quad, material, config, schur, 3)
    lo, hi = ctx.blocks[{"first": 0, "middle": len(ctx.blocks) // 2, "last": -1}[where]]
    rho, G = random_state(grid, quad, rng)
    G[(lo + hi) // 2, 1] = np.nan
    with pytest.raises(DivergenceError):
        imex_step(ctx, rho, G.copy(), config.dt)
    with pytest.raises(DivergenceError):
        imex_s_step(ctx, rho, G.copy(), config.dt)
    # the second IMEX-S sweep alone, where the density is finite
    with pytest.raises(DivergenceError):
        fullrank._micro_sweep(ctx, G, grad=density_grad(grid, quad, rho))


def test_imex_s_step_allocates_one_dense_array(rng):
    # gaussian2d on a 32 x 32 mesh: 2048 points x 512 ordinates (8 MiB), 16
    # blocks at the default budget; both steppers work on G in place
    scen = scenarios.get_scenario("gaussian2d", mesh_div=4)
    grid, quad, material = scenarios.build_objects(scen)
    config = SolverConfig(epsilon=scen.epsilon, dt=1e-3)
    ctx = step_context(grid, quad, material, config, build_schur(grid, quad, material, config))
    assert len(ctx.blocks) >= 8
    rho, G = random_state(grid, quad, rng)
    for step in (imex_step, imex_s_step):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(ctx, rho, G, config.dt)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # no dense array: block buffers and O(n_points) vectors only
        assert peak <= 8 * fullrank.BLOCK_BYTES + 512 * grid.n_points


@pytest.mark.parametrize("scheme", ["IMEX", "IMEX-S"])
def test_steps_update_the_micro_state_in_place(rng, scheme):
    grid, quad, material, config, schur = _step_setup("mms2d-16", scheme)
    rho, G = random_state(grid, quad, rng)
    step = imex_step if schur is None else imex_s_step
    _, G1 = step(step_context(grid, quad, material, config, schur), rho, G, config.dt)
    assert G1 is G


def _held_blocks(grid, blocks):
    """Indices of the blocks holding the first outer row of a point family."""
    half = grid.n_points // 2
    return [i for i, (lo, hi) in enumerate(blocks) if lo == 0 or lo <= half < hi]


# a NaN in the first row of a block, the halo row its predecessor reads: in
# the block holding the first family's first row, in the one holding the
# second family's first row (both kept as the periodic halo of their
# family's last row), in the block after the first one, and in the last block
@pytest.mark.parametrize("which", ["held-first", "held-second", "rolling", "last"])
def test_non_finite_value_in_held_or_rolling_block_raises(rng, monkeypatch, which):
    grid, quad, material, config, schur = _step_setup("mms2d-16", "IMEX-S")
    ctx = _sized_context(monkeypatch, grid, quad, material, config, schur, 3)
    blocks = ctx.blocks
    held = _held_blocks(grid, blocks)
    assert len(held) == 2 and held[0] == 0
    k = {"held-first": 0, "held-second": held[1], "rolling": 1, "last": len(blocks) - 1}
    assert which.startswith("held") == (k[which] in held)
    rho, G = random_state(grid, quad, rng)
    G[blocks[k[which]][0], 2] = np.nan
    with pytest.raises(DivergenceError):
        imex_step(ctx, rho, G.copy(), config.dt)
    with pytest.raises(DivergenceError):
        imex_s_step(ctx, rho, G.copy(), config.dt)


@pytest.mark.parametrize("name", ["mms2d-16", "gaussian2d"])
def test_no_record_of_a_full_rank_run_reads_the_dense_state(monkeypatch, name):
    calls = []
    norm_w, residual = diagnostics.norm_w, diagnostics.zero_density_residual

    def counting_norm_w(*args):
        calls.append("norm_w")
        return norm_w(*args)

    def counting_residual(quad, micro):
        if isinstance(micro, np.ndarray):
            calls.append("zero_density_residual")
        return residual(quad, micro)

    monkeypatch.setattr(diagnostics, "norm_w", counting_norm_w)
    monkeypatch.setattr(diagnostics, "zero_density_residual", counting_residual)
    result = execute_run(RunManifest(scenario=name, scheme="IMEX-S", mesh_div=4,
                                     max_steps=2, with_error=False))
    assert len(result.records) == 3
    # the initial record from the factors, each later one from the last sweep
    assert calls == []


@pytest.mark.parametrize("name", ["mms2d-16", "bimodal1d", "gaussian2d", "lattice2d"])
def test_initial_record_from_factors_matches_the_dense_state(name):
    scen = scenarios.get_scenario(name, 4 if name in ("gaussian2d", "lattice2d") else 1)
    grid, quad, material = scenarios.build_objects(scen)
    ctx = step_context(grid, quad, material, SolverConfig(epsilon=scen.epsilon, dt=1e-3))
    _, (P, A) = scen.init(grid, quad, scen.epsilon)
    G = run_module._dense(ctx, P, A)
    assert np.array_equal(G, P @ A.T)
    gw, zero = ctx.swept
    dense_gw = norm_w(grid, quad, P @ A.T)
    dense_zero = diagnostics.zero_density_residual(quad, P @ A.T)
    if P.shape[1] == 0:  # a zero state: exact zeros, bit for bit
        assert (gw, zero) == (dense_gw, dense_zero) == (0.0, 0.0)
    else:
        assert gw > 0 and abs(gw - dense_gw) <= 1e-15 * dense_gw
        # roundoff of a mean-free state, in both evaluations
        assert max(zero, dense_zero) <= 1e-13 * max(1.0, gw)


# ---------------------------------------------------------------------------
# upwind-grouped ordinates and the fused record
# ---------------------------------------------------------------------------

def _sign_runs(x):
    return 1 + int(np.count_nonzero(np.diff(x > 0)))


@pytest.mark.parametrize("n_polar", [2, 4, 8, 16, 32])
def test_upwind_grouped_permutes_ordinates_into_sign_runs(n_polar):
    # the constructor's order is the product loop's, sorted into quadrants
    quad = chebyshev_legendre_2d(n_polar)
    omega, w = product_rule_2d(n_polar)
    perm = loop_order(quad)
    # each (omega, w) pair travels together
    assert np.array_equal(quad.omega[perm], omega)
    assert np.array_equal(quad.w[perm], w)
    assert _sign_runs(omega[:, 0]) > 2 and _sign_runs(omega[:, 1]) > 3
    assert _sign_runs(quad.q(0)) <= 2 and _sign_runs(quad.q(1)) <= 3


def _grouped_pair(name, scheme):
    """Contexts of ``name`` in the product rule's loop order and in the
    constructor's grouped order, and the permutation between them."""
    grid, gquad, gmaterial, config, gschur = _step_setup(name, scheme)
    to_loop = loop_order(gquad)
    assert not np.array_equal(to_loop, np.arange(gquad.n))
    quad, material = permute_ordinates(gquad, gmaterial, to_loop)
    schur = build_schur(grid, quad, material, config) if gschur is not None else None
    return (step_context(grid, quad, material, config, schur),
            step_context(grid, gquad, gmaterial, config, gschur),
            np.argsort(to_loop))


# The per-ordinate parts of a step (the upwind advection, the source, the
# density gradient and the relaxation) commute with the column permutation
# bit for bit.  The sums over ordinates (the angular mean, the moments, the
# Schur coefficients) add in the new order, so the explicit sweep and the
# steps agree to rounding only.
def test_grouped_ordinates_match_permuted_columns(rng):
    ctx, gctx, perm = _grouped_pair("mms2d-16", "IMEX")
    (P, A), (gP, gA) = ctx.material.micro_source(0.1), gctx.material.micro_source(0.1)
    assert np.array_equal(gP, P) and np.array_equal(gA, A[perm])
    grid = ctx.grid
    rho, G = random_state(grid, ctx.quad, rng)
    gG = np.ascontiguousarray(G[:, perm])
    assert np.array_equal(advect(grid, gctx.quad, gG), advect(grid, ctx.quad, G)[:, perm])
    G1, gG1 = G.copy(), gG.copy()
    fullrank._micro_sweep(ctx, G1, grad=density_grad(grid, ctx.quad, rho))
    fullrank._micro_sweep(gctx, gG1, grad=density_grad(grid, gctx.quad, rho))
    assert np.array_equal(gG1, G1[:, perm])
    G1, gG1 = G.copy(), gG.copy()
    M = fullrank._micro_sweep(ctx, G1, explicit=True, t_next=0.1)
    gM = fullrank._micro_sweep(gctx, gG1, explicit=True, t_next=0.1)
    assert np.max(np.abs(gG1 - G1[:, perm])) <= 1e-14 * np.max(np.abs(G1))
    assert np.max(np.abs(gM - M)) <= 1e-14 * np.max(np.abs(M))


@pytest.mark.parametrize("scheme", ["IMEX", "IMEX-S"])
def test_grouped_steps_match_permuted_columns(rng, scheme):
    ctx, gctx, perm = _grouped_pair("mms2d-16", scheme)
    step = imex_step if scheme == "IMEX" else imex_s_step
    rho, G = random_state(ctx.grid, ctx.quad, rng)
    grho, gG = rho.copy(), np.ascontiguousarray(G[:, perm])
    for k in range(1, 4):
        t = k * ctx.config.dt
        rho, G = step(ctx, rho, G, t)
        grho, gG = step(gctx, grho, gG, t)
        assert np.max(np.abs(grho - rho)) <= 1e-13 * np.max(np.abs(rho))
        assert np.max(np.abs(gG - G[:, perm])) <= 1e-13 * np.max(np.abs(G))


# one block, 3-row blocks of mms2d-16 and 7-row blocks of bimodal1d
@pytest.mark.parametrize("scheme", ["IMEX", "IMEX-S"])
@pytest.mark.parametrize("name, rows", [("mms2d-16", None), ("mms2d-16", 3), ("bimodal1d", 7)])
def test_record_after_a_step_equals_fresh_norms_bitwise(rng, monkeypatch, scheme, name, rows):
    grid, quad, material, config, schur = _step_setup(name, scheme)
    ctx = _sized_context(monkeypatch, grid, quad, material, config, schur, rows)
    rho, G = random_state(grid, quad, rng)
    step = imex_step if schur is None else imex_s_step
    for k in range(1, 3):
        rho, G = step(ctx, rho, G, k * config.dt)
        rec = run_module._record(k, k * config.dt, ctx, rho, G, 1.0)
        assert rec.micro_norm_w == norm_w(grid, quad, G)
        assert rec.zero_density_residual == diagnostics.zero_density_residual(quad, G)
        exact = np.sqrt(grid.cell_volume * np.sum(G * G * quad.w))
        assert abs(rec.micro_norm_w - exact) <= 1e-14 * exact


# ---------------------------------------------------------------------------
# scheme table and SPD solver
# ---------------------------------------------------------------------------

def test_scheme_table_maps_every_tag():
    expected = {
        "IMEX": (False, "full"),
        "IMEX-S": (True, "full"),
        "IMEX-BUG": (False, "BUG"),
        "IMEX-S-BUG": (True, "BUG"),
        "IMEX-aBUG": (False, "aBUG"),
        "IMEX-S-aBUG": (True, "aBUG"),
    }
    assert {tag: (s.schur, s.micro) for tag, s in SCHEMES.items()} == expected
    for tag in expected:
        assert parse_scheme(tag) is SCHEMES[tag]
    for bad in ("IMEX-X", "imex", "BUG"):
        with pytest.raises(ValueError) as err:
            parse_scheme(bad)
        assert all(repr(tag) in str(err.value) for tag in expected)
    with pytest.raises(ValueError) as err:
        execute_run(RunManifest(scenario="bimodal1d", scheme="IMEX-X"))
    assert all(repr(tag) in str(err.value) for tag in expected)


@pytest.mark.parametrize("field", ["epsilon", "dt"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_solver_config_rejects_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{"epsilon": 1.0, "dt": 0.1, field: value})


# positive and finite, but its square, which every scheme divides by,
# underflows to 0 or overflows
@pytest.mark.parametrize("value", [1e-300, 1e300])
def test_solver_config_rejects_epsilon_whose_square_is_zero_or_infinite(value):
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(epsilon=value, dt=0.1)


def test_spd_solver_conjugate_gradients_match_direct_solve(rng, monkeypatch):
    # I/dt - sum_j D^(j,-) D^(j,+) (SPD), which density_solver solves by
    # FFT, here solved by CG on its stencil
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (32, 64))
    n = grid.n_points
    terms = (grid, np.full(n, 1e3), np.ones(n), np.ones(2))
    T = div_grad_product(*terms)
    calls = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        calls.append(1)
        return cg(*args, **kwargs)

    # looked up on the module at call time, so a wrapper installed after the
    # solver was built still sees every solve
    solve = spd_solver(*_density_stencil(*terms))
    monkeypatch.setattr(spla, "cg", counting_cg)
    b = rng.standard_normal(T.shape[0])
    x = solve(b)
    ref = spla.spsolve(T.tocsc(), b)
    assert len(calls) == 1
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_schur_cg_stall_reports_relative_residual(monkeypatch):
    # a varying sigma_s keeps the operator off the FFT solve, on the CG
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (32, 64))
    quad = chebyshev_legendre_2d(2)
    material = sample_material(
        grid, lambda c: 1.0 + 0.5 * np.sin(2 * np.pi * c[:, 0]),
        lambda c: np.zeros(c.shape[0]), 0.5
    )
    monkeypatch.setattr(fullrank, "CG_MAXITER_PER_UNKNOWN", 1e-3)
    schur = build_schur(grid, quad, material, SolverConfig(epsilon=1e-3, dt=1e-2))
    b = np.exp(-20 * np.sum((grid.rho_coords - 0.5) ** 2, axis=1))
    residuals = []
    for scale in (1.0, 1e6):
        with pytest.raises(LinearSolveError) as err:
            schur.solve(scale * b)
        residuals.append(err.value.residual)
    # relative: independent of the scale of the right-hand side
    assert 0.0 < residuals[0] < 1.0
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-8)


def assert_stencil_is_product_form(terms, x):
    """The stencil apply of the density operator ``terms`` at ``x``, and its
    Jacobi diagonal, against the product form of the difference matrices."""
    T = div_grad_product(*terms)
    apply, diagonal = _density_stencil(*terms)
    assert np.linalg.norm(apply(x) - T @ x) <= 1e-14 * np.linalg.norm(T @ x)
    ref = T.diagonal()
    assert np.max(np.abs(diagonal - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("name,mesh_div", [("gaussian1d-diff", 4), ("gaussian2d", 1),
                                           ("lattice2d", 2)])
def test_schur_stencil_equals_product_form(rng, name, mesh_div):
    scen = scenarios.get_scenario(name, mesh_div)
    grid, quad, material = scenarios.build_objects(scen)
    dt = scenarios.select_dt(scen, "IMEX-S", grid, material, scen.epsilon)
    terms = _schur_terms(grid, quad, material, SolverConfig(epsilon=scen.epsilon, dt=dt))
    assert_stencil_is_product_form(terms, rng.standard_normal(grid.n_points))


@pytest.mark.parametrize("cells", [(7,), (2,), (5, 3), (2, 4), (4, 2), (2, 2)])
@pytest.mark.parametrize("kind", ["diagonal", "zeros"])
def test_density_stencil_equals_product_form(rng, cells, kind):
    # two cells on an axis make a point's two neighbours along it coincide;
    # "zeros" puts exact zeros in diag
    dim = len(cells)
    grid = build_grid(dim, ((0.0, 1.3), (-1.0, 2.1))[:dim], cells)
    n = grid.n_points
    c = rng.uniform(0.5, 2.0, dim)
    diag, coef = rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 2.0, n)
    if kind == "zeros":
        diag[[0, 1]] = 0.0
    x = rng.standard_normal(n)
    # the second pass puts zeros in coef as well
    for zeros in ([], [1, *rng.choice(n, 3, replace=False)]):
        coef[zeros] = 0.0
        assert_stencil_is_product_form((grid, diag, coef, c), x)


def spy_sparse_solves(monkeypatch):
    """Names of the sparse solver calls (``splu``, ``cg``) made from now on."""
    calls = []
    for name in ("splu", "cg"):
        def spy(*args, _name=name, _fn=getattr(spla, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spla, name, spy)
    return calls


def reduced_objects(name, cells):
    scen = replace(scenarios.get_scenario(name, 2), cells=cells)
    return (scen, *scenarios.build_objects(scen))


@pytest.mark.parametrize("name,cells", [("gaussian1d-diff", (7,)), ("gaussian1d-diff", (2,)),
                                        ("gaussian1d-diff", (40,)), ("gaussian2d", (5, 3)),
                                        ("gaussian2d", (2, 6)), ("gaussian2d", (9, 2)),
                                        ("gaussian2d", (16, 10))])
@pytest.mark.parametrize("dt_mult", [1, 64])
def test_schur_homogeneous_solve_by_fft(monkeypatch, rng, name, cells, dt_mult):
    # a homogeneous medium is solved by FFT to near machine precision, with
    # no sparse solve, at the scheme's step size and 64 times it; odd cell
    # counts, two cells on an axis and nx != ny change the symbol's lattice
    scen, grid, quad, material = reduced_objects(name, cells)
    dt = scenarios.select_dt(scen, "IMEX-S", grid, material, scen.epsilon) * dt_mult
    calls = spy_sparse_solves(monkeypatch)
    config = SolverConfig(epsilon=scen.epsilon, dt=dt)
    schur = build_schur(grid, quad, material, config)
    b = rng.standard_normal(grid.n_points)
    x = schur.solve(b)
    assert calls == []
    T = schur_matrix(grid, quad, material, config)
    assert np.linalg.norm(T @ x - b) <= 1e-13 * np.linalg.norm(b)
    ref = spla.splu(T.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_homogeneous_runs_reach_no_sparse_solve(monkeypatch):
    # the steps and the diffusion reference of homogeneous scenarios solve by FFT
    calls = spy_sparse_solves(monkeypatch)
    for scenario, mesh_div in (("gaussian1d-diff", 8), ("gaussian2d", 8), ("mms2d-16", 1)):
        res = execute_run(RunManifest(scenario=scenario, scheme="IMEX-S", mesh_div=mesh_div,
                                      max_steps=3, with_error=scenario != "mms2d-16"))
        assert res.summary["status"] == "completed"
    assert calls == []


@pytest.mark.parametrize("mesh_div,solver", [(8, "cg"), (2, "cg")])
def test_heterogeneous_schur_keeps_sparse_solve(monkeypatch, rng, mesh_div, solver):
    # a heterogeneous medium is solved by CG on the stencil, at every size
    scen = scenarios.get_scenario("lattice2d", mesh_div)
    grid, quad, material = scenarios.build_objects(scen)
    dt = scenarios.select_dt(scen, "IMEX-S", grid, material, scen.epsilon)
    config = SolverConfig(epsilon=scen.epsilon, dt=dt)
    calls = spy_sparse_solves(monkeypatch)
    schur = build_schur(grid, quad, material, config)
    b = rng.standard_normal(grid.n_points)
    x = schur.solve(b)
    assert calls == [solver]
    T = schur_matrix(grid, quad, material, config)
    assert np.linalg.norm(T @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_density_solver_rejects_nonpositive_operator():
    # a zero symbol value on the FFT branch, a negative diagonal entry on
    # the stencil one
    grid = build_grid(1, (0.0, 1.0), 8)
    n = grid.n_points
    with pytest.raises(ValueError, match="symbol"):
        density_solver(grid, np.zeros(n), np.ones(n), np.ones(1))
    diag = np.ones(n)
    diag[3] = -1e3
    with pytest.raises(ValueError, match="diagonal"):
        density_solver(grid, diag, np.ones(n), np.ones(1))
