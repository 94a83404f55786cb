"""Multiscale linear kinetic transport solver with low-rank micro dynamics.

Subpackages: :mod:`~lrtrans.grid` (staggered meshes), :mod:`~lrtrans.angular`
(discrete-ordinates quadratures), :mod:`~lrtrans.ops` (transport operators),
:mod:`~lrtrans.fullrank` (IMEX / Schur-complement steppers),
:mod:`~lrtrans.lowrank` (basis-update & Galerkin integrators),
:mod:`~lrtrans.diagnostics` (energy, bounds, references),
:mod:`~lrtrans.scenarios` (built-in experiments), :mod:`~lrtrans.run` and
:mod:`~lrtrans.cli` (drivers).
"""

from .angular import QuadratureSet, chebyshev_legendre_2d, gauss_legendre_1d
from .diagnostics import (
    UNCONDITIONAL,
    EnergyRecord,
    diffusion_reference,
    dt_explicit,
    dt_implicit,
    energy,
    l2_error,
    zero_density_residual,
)
from .fullrank import (
    DivergenceError,
    LinearSolveError,
    SchurOperator,
    SolverConfig,
    build_schur,
    imex_s_step,
    imex_step,
    step_context,
)
from .grid import StaggeredGrid, build_grid, diff
from .lowrank import (
    LowRankConfig,
    MicroStateLowRank,
    constrained_qr,
    factorize_micro,
    galerkin_stage,
    lowrank_macro_coupled_step,
    micro_step,
    reconstruct,
)
from .ops import (
    MaterialField,
    advect,
    density_grad,
    flux_div,
    inner_w,
    norm_w,
    sample_material,
)
from .run import RunManifest, RunResult, execute_run

__version__ = "0.1.0"
