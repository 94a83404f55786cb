"""Property-based check of the energy theorem and the zero-density constraint
on random 1D and 2D media, initial states and step sizes, for all six schemes.

Each draw runs every scheme for ``STEPS`` source-free steps at a step size
within the scheme's bound: a fraction of ``dt_explicit`` for IMEX coupling,
of ``dt_implicit`` for IMEX-S coupling, or up to ``1e4 dt_explicit`` where
``dt_implicit`` is unconditional.  The low-rank schemes run in both factor
modes, and plain aBUG becomes AP-aBUG where a run would switch it.  The 1D
grids have 2-12 cells and the 2D grids 2-6 per axis, so aBUG reaches the
full spatial rank on many draws.

A last check is exactness at full rank: plain aBUG under IMEX coupling,
started from a state of the largest rank the factors can hold, equals the
full-rank IMEX run whenever its rank stays there.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrtrans import diagnostics
from lrtrans.angular import chebyshev_legendre_2d, gauss_legendre_1d
from lrtrans.fullrank import (
    SCHEMES,
    SolverConfig,
    build_schur,
    imex_s_step,
    imex_step,
    step_context,
)
from lrtrans.grid import build_grid
from lrtrans.lowrank import factorize_micro, lowrank_macro_coupled_step
from lrtrans.ops import MaterialField, project_out_mean

STEPS = 10


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def problems(draw, dim=1):
    """``(grid, quad, material, eps, frac, mult, rho, (P, A), rank, seed)``."""
    if dim == 1:
        grid = build_grid(1, (0.0, draw(st.floats(0.1, 10.0))), draw(st.integers(2, 12)))
        quad = gauss_legendre_1d(draw(st.sampled_from([2, 4, 8, 16])))
    else:
        lo = [draw(st.floats(-5.0, 5.0)) for _ in range(2)]
        bounds = tuple((a, a + draw(st.floats(0.1, 10.0))) for a in lo)
        grid = build_grid(2, bounds, tuple(draw(st.integers(2, 6)) for _ in range(2)))
        quad = chebyshev_legendre_2d(draw(st.sampled_from([2, 3])))
    n = grid.n_points
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # sigma_s >= sigma0 > 0 and sigma_a >= 0, constant (the FFT density
    # solve) or varying per point (the stencil CG)
    sigma0 = draw(_log_uniform(-2, 2))
    s_spread = draw(st.sampled_from([0.0, 0.5, 10.0]))
    a_scale = draw(st.sampled_from([0.0, 0.1, 5.0]))
    varying = draw(st.booleans())

    def field(scale):
        return scale * (rng.random(n) if varying else np.full(n, rng.random()))

    material = MaterialField(
        sigma_a_rho=field(a_scale), sigma_s_g=sigma0 * (1.0 + field(s_spread)),
        sigma_a_g=field(a_scale), sigma_s_floor=sigma0,
    )
    eps = draw(_log_uniform(-6, 0))
    frac = draw(_log_uniform(-3, 0))  # of the coupling's finite bound
    mult = draw(_log_uniform(-3, 4))  # of dt_explicit, where dt_implicit is unconditional
    # a mean-free initial state P A^T and a density
    m = draw(st.integers(1, n))
    P = rng.standard_normal((n, m))
    A = project_out_mean(quad, rng.standard_normal((m, quad.n))).T
    rho = rng.standard_normal(n)
    rank = draw(st.integers(1, max(1, min(n, quad.n - 1))))
    return grid, quad, material, eps, frac, mult, rho, (P, A), rank, seed


def _run(tag, weighted, problem):
    """Energies (with the coupling's theta) and micro norms and zero-density
    residuals of ``STEPS`` steps of ``tag``, the initial state included."""
    grid, quad, material, eps, frac, mult, rho, (P, A), rank, seed = problem
    scheme = SCHEMES[tag]
    dte = diagnostics.dt_explicit(grid, material, eps)
    dti = diagnostics.dt_implicit(grid, material, eps)
    if not scheme.schur:
        dt = frac * dte
    else:
        dt = frac * dti if math.isfinite(dti) else mult * dte
    config = SolverConfig(epsilon=eps, dt=dt)
    schur = build_schur(grid, quad, material, config) if scheme.schur else None
    integrator = None if scheme.micro == "full" else scheme.micro
    if integrator == "aBUG" and weighted and dti == diagnostics.UNCONDITIONAL:
        integrator = "AP-aBUG"
    ctx = step_context(grid, quad, material, config, schur, integrator)
    if integrator is None:
        micro = np.ascontiguousarray(P @ A.T)
        step = imex_s_step if scheme.schur else imex_step
    else:
        micro = factorize_micro(grid, quad, (P, A), rank, weighted=weighted, seed=seed)
        step = lowrank_macro_coupled_step
    rho = rho.copy()
    theta = 0.0 if scheme.schur else 1.0
    rows = []
    for k in range(STEPS + 1):
        if k:
            rho, micro, *_ = step(ctx, rho, micro, k * dt)
        norm = diagnostics.micro_norm_w(grid, quad, micro)
        energy = diagnostics.energy(grid, quad, rho, micro, config, material, theta,
                                    micro_norm=norm)
        rows.append((energy, norm, diagnostics.zero_density_residual(quad, micro)))
    return np.array(rows)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(problems())
def test_energy_monotone_and_zero_density_held_on_random_1d_problems(problem):
    for tag, scheme in SCHEMES.items():
        for weighted in (True,) if scheme.micro == "full" else (True, False):
            energy, norm, zero = _run(tag, weighted, problem).T
            where = (tag, "weighted" if weighted else "unweighted")
            assert np.all(zero <= 1e-11 * np.maximum(1.0, norm)), where
            if weighted:  # the theorem's energy; the unweighted norm is a surrogate
                assert np.all(np.diff(energy) <= 1e-12 * energy[:-1]), where


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(problems(dim=2))
def test_energy_monotone_and_zero_density_held_on_random_2d_problems(problem):
    for tag, scheme in SCHEMES.items():
        for weighted in (True,) if scheme.micro == "full" else (True, False):
            energy, norm, zero = _run(tag, weighted, problem).T
            where = (tag, "weighted" if weighted else "unweighted")
            assert np.all(zero <= 1e-11 * np.maximum(1.0, norm)), where
            if weighted:
                assert np.all(np.diff(energy) <= 1e-12 * energy[:-1]), where


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.one_of(problems(), problems(dim=2)))
def test_abug_at_full_rank_equals_imex_on_random_problems(problem):
    # At rank min(n, N - 1) one of the bases spans its whole space, so the
    # projections of aBUG are the identity for as long as no step truncates.
    # (BUG is not exact there: its S step starts from the old state
    # projected onto the new spatial basis.)
    grid, quad, material, eps, frac, _, rho0, _, _, seed = problem
    rank = min(grid.n_points, quad.n - 1)
    rng = np.random.default_rng(seed + 1)
    P = rng.standard_normal((grid.n_points, rank))
    A = project_out_mean(quad, rng.standard_normal((rank, quad.n))).T
    dt = frac * diagnostics.dt_explicit(grid, material, eps)
    config = SolverConfig(epsilon=eps, dt=dt)
    full = step_context(grid, quad, material, config)
    low = step_context(grid, quad, material, config, integrator="aBUG", tau=1e-14)
    rho, G = rho0.copy(), P @ A.T
    rho_lr, state = rho0.copy(), factorize_micro(grid, quad, (P, A), rank)
    deviation = 0.0
    for k in range(1, STEPS + 1):
        rho, G = imex_step(full, rho, G, k * dt)
        rho_lr, state, info = lowrank_macro_coupled_step(low, rho_lr, state, k * dt)
        assume(info.rank == rank)
        G_lr = (state.X @ state.S) @ state.V.T / quad.m[None, :]
        deviation = max(deviation, _relative(rho_lr, rho), _relative(G_lr, G))
    assert deviation <= 1e-12
