"""Energy functional, step-size bounds, error norms, and reference solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .angular import QuadratureSet
from .fullrank import SolverConfig, _macro_source, div_grad_operator, spd_solver
from .grid import StaggeredGrid
from .lowrank import MicroStateLowRank
from .ops import MaterialField, norm_w

#: Returned by :func:`dt_implicit` when no step-size restriction applies.
UNCONDITIONAL = math.inf

MicroState = Union[np.ndarray, MicroStateLowRank]


@dataclass
class EnergyRecord:
    """One row of a run trace."""

    step: int
    time: float
    dt: float
    energy: float
    rho_norm: float
    micro_norm_w: float
    rank: int
    zero_density_residual: float
    mass: float


def micro_norm_w(grid: StaggeredGrid, quad: QuadratureSet, micro: MicroState) -> float:
    """Weighted norm of the microscopic state, dense or factored.

    Low-rank states are evaluated through the coupling factors alone as
    ``sqrt(cell_volume) * ||S||_F``.  For weighted factors this equals the
    weighted norm of the reconstruction exactly; for unweighted factors it is
    the plain factor norm, deliberately so: the divergence between this
    surrogate and the true weighted norm is precisely the misalignment the
    unweighted mode exists to demonstrate.
    """
    if isinstance(micro, MicroStateLowRank):
        return math.sqrt(grid.cell_volume) * float(np.linalg.norm(micro.S))
    return norm_w(grid, quad, micro)


def energy(
    grid: StaggeredGrid,
    quad: QuadratureSet,
    rho: np.ndarray,
    micro: MicroState,
    config: SolverConfig,
    material: MaterialField,
    theta: float = 1.0,
    micro_norm: Optional[float] = None,
) -> float:
    """Discrete energy ``|D| ||rho||^2 + (eps^2 + (1-theta) dt sigma0) ||G||_w^2``.

    For factored micro states the weighted norm is evaluated from the factors
    without reconstruction.  ``micro_norm`` is ``micro_norm_w(grid, quad,
    micro)`` when the caller has it already.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    vol = grid.cell_volume
    if micro_norm is None:
        micro_norm = micro_norm_w(grid, quad, micro)
    gw2 = micro_norm**2
    coeff = config.epsilon**2 + (1.0 - theta) * config.dt * material.sigma_s_floor
    return quad.domain_measure * vol * float(rho @ rho) + coeff * gw2


def zero_density_residual(quad: QuadratureSet, micro: MicroState) -> float:
    """Max-norm of the discrete angular mean ``G w`` (factored when possible)."""
    if isinstance(micro, MicroStateLowRank):
        vec = quad.m if micro.weighted else quad.w
        y = micro.S @ (micro.V.T @ vec)
        return float(np.max(np.abs(micro.X @ y))) if y.size else 0.0
    return float(np.max(np.abs(micro @ quad.w)))


def mass(grid: StaggeredGrid, rho: np.ndarray) -> float:
    """Integral of the density: each cell carries two density points."""
    return 0.5 * grid.cell_volume * float(np.sum(rho))


# ---------------------------------------------------------------------------
# step-size bounds
# ---------------------------------------------------------------------------

def dt_explicit(grid: StaggeredGrid, material: MaterialField, epsilon: float) -> float:
    """Largest stable step of the explicit-density scheme.

    ``(2/3) eps (ds/d) + (1/3) sigma0 (ds/d)^2`` with ``ds`` the smallest
    mesh width and ``d`` the dimension.
    """
    h = min(grid.spacing) / grid.dim
    s0 = material.sigma_s_floor
    return (2.0 / 3.0) * epsilon * h + (1.0 / 3.0) * s0 * h * h


def dt_implicit(grid: StaggeredGrid, material: MaterialField, epsilon: float) -> float:
    """Largest stable step of the Schur-type scheme, or ``UNCONDITIONAL``.

    Finite only when ``eps d / (2 ds) > sigma0 / 4``; otherwise every step
    size is stable and ``UNCONDITIONAL`` (``math.inf``) is returned.
    """
    ds = min(grid.spacing)
    s0 = material.sigma_s_floor
    lhs = epsilon * grid.dim / (2.0 * ds)
    if lhs <= s0 / 4.0:
        return UNCONDITIONAL
    return (epsilon**2 / 2.0) / (lhs - s0 / 4.0)


# ---------------------------------------------------------------------------
# error norms and reference solvers
# ---------------------------------------------------------------------------

def l2_error(grid: StaggeredGrid, numeric: np.ndarray, reference) -> float:
    """Mesh L2 distance between a density and a reference.

    ``reference`` is an array on the density points or a callable evaluated
    at ``grid.rho_coords``.  Each cell carries two density points, so each
    point is weighted by half a cell volume; the all-ones field on a unit
    domain then has norm one.
    """
    ref = reference(grid.rho_coords) if callable(reference) else np.asarray(reference)
    if ref.shape != numeric.shape:
        raise ValueError("shape mismatch between numeric and reference density")
    return math.sqrt(0.5 * grid.cell_volume) * float(np.linalg.norm(numeric - ref))


def diffusion_reference(
    grid: StaggeredGrid,
    quad: QuadratureSet,
    material: MaterialField,
    rho0: np.ndarray,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Backward-Euler solution of the limiting diffusion equation.

    Advances ``(1/dt + sigma_a) rho' - sum_j D^(j,-)((1/(3 sigma_s)) D^(j,+)
    rho') = rho/dt + phi`` for ``n_steps`` steps, with the conductivity
    sampled on the g family.  The operator is assembled once
    (:func:`~lrtrans.fullrank.div_grad_operator`) and solved by
    :func:`~lrtrans.fullrank.spd_solver`.
    """
    if np.any(material.sigma_s_g <= 0):
        raise ValueError("diffusion reference requires sigma_s > 0 on the g family")
    solve = spd_solver(div_grad_operator(grid, 1.0 / dt + material.sigma_a_rho,
                                         1.0 / (3.0 * material.sigma_s_g), np.eye(grid.dim)))

    rho = np.asarray(rho0, dtype=float).copy()
    for k in range(n_steps):
        rho = solve(_macro_source(material, dt, rho, (k + 1) * dt))
    return rho
