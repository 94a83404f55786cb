"""Property-based check of the energy theorem and the zero-density constraint
on random 1D media, initial states and step sizes, for all six schemes.

Each draw runs every scheme for ``STEPS`` source-free steps at a step size
within the scheme's bound: a fraction of ``dt_explicit`` for IMEX coupling,
of ``dt_implicit`` for IMEX-S coupling, or up to ``1e4 dt_explicit`` where
``dt_implicit`` is unconditional.  The low-rank schemes run in both factor
modes, and plain aBUG becomes AP-aBUG where a run would switch it.  The
grids have 2-12 cells, so aBUG reaches the full spatial rank on many draws.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrtrans import diagnostics
from lrtrans.angular import gauss_legendre_1d
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
def problems(draw):
    """``(grid, quad, material, eps, frac, mult, rho, (P, A), rank, seed)``."""
    grid = build_grid(1, (0.0, draw(st.floats(0.1, 10.0))), draw(st.integers(2, 12)))
    quad = gauss_legendre_1d(draw(st.sampled_from([2, 4, 8, 16])))
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
