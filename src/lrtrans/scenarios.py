"""Built-in experiment definitions: grids, materials, initial data, references.

The keys of :data:`SCENARIOS` form the CLI vocabulary: three 1D Gaussian
regimes, a 1D two-beam state, five manufactured 2D meshes, a 2D Gaussian
and a 2D lattice.  Each scenario fixes the mesh, quadrature, Knudsen
number, horizon, default rank, initial data, reference solution kind and
slice lines.  Unless a constructor states otherwise, the medium is pure
unit scattering (``sigma_s = 1``, ``sigma_a = 0``, floor 1) and the
truncation tolerance is ``tau = 1e-5``.  ``get_scenario`` optionally
divides the spatial cell counts (floor division, minimum 2 cells) for
reduced-size runs; quadrature size is never divided.

Conventions adopted here (reconstructed, not prescribed elsewhere):

* The 2D lattice material is the standard eleven-absorber checkerboard on
  ``[0, 7]^2``: background is purely scattering (``sigma_s = 1``), eleven
  unit blocks are purely absorbing (``sigma_s = 0, sigma_a = 10``), and a
  unit source sits on the central block ``[3, 4]^2``.  Points on block
  boundaries belong to the cell to their upper right (half-open cells).
* For rank-adaptive schemes on weighted factors the diffusion-limit basis
  enrichment (AP-aBUG) is switched on exactly when the Schur-type scheme is
  unconditionally stable, ``dt_implicit(...) == UNCONDITIONAL`` (``eps *
  dim / (2 min dx) <= sigma_s_floor / 4``), i.e. in diffusive regimes with
  positive scattering floor; :func:`lrtrans.run.execute_run` applies it.
* The kinetic 1D Gaussian case uses a four-times-refined full-rank reference
  computed on demand instead of an external analytic benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .angular import chebyshev_legendre_2d, gauss_legendre_1d
from .diagnostics import dt_explicit, dt_implicit
from .fullrank import parse_scheme
from .grid import build_grid
from .ops import sample_material


def _unit_scattering(coords):
    return np.ones(coords.shape[0])


def _no_absorption(coords):
    return np.zeros(coords.shape[0])


@dataclass
class Scenario:
    bounds: tuple
    cells: tuple
    quad_n: int                     # Gauss-Legendre in 1D, Chebyshev-Legendre in 2D
    epsilon: float
    t_final: float
    rank: int
    init: Callable                  # (grid, quad, eps) -> (rho0, (P, A)), G0 = P A^T
    tau: float = 1e-5
    sigma_s: Callable = _unit_scattering
    sigma_a: Callable = _no_absorption
    sigma_s_floor: float = 1.0
    sources: Optional[Callable] = None  # (grid, quad, eps) -> (phi, micro_source)
    reference: Optional[str] = None  # "diffusion" | "manufactured" | "self"
    exact_rho: Optional[Callable] = None             # (t, coords) -> values
    slices: tuple = ()
    dt_policy: str = "default"       # "default" | "explicit"
    dt_literal_explicit: Optional[float] = None
    dt_literal_implicit: Optional[float] = None
    mesh_div: int = 1

    @property
    def dim(self) -> int:
        return len(self.cells)


def _isotropic(grid, quad) -> tuple:
    """Factors ``(P, A)`` of the zero microscopic state: no columns."""
    return np.zeros((grid.n_points, 0)), np.zeros((quad.n, 0))


def _pulse_2d(center):
    """Initial data of an isotropic 2D Gaussian pulse of variance ``1e-2``."""
    sigma2 = 1e-2
    cx, cy = center

    def init(grid, quad, _eps):
        x, y = grid.rho_coords[:, 0], grid.rho_coords[:, 1]
        rho0 = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (4 * sigma2)) / (4 * np.pi * sigma2)
        return rho0, _isotropic(grid, quad)

    return init


def get_scenario(name: str, mesh_div: int = 1) -> Scenario:
    """Look up a scenario by name, optionally shrinking the mesh."""
    if mesh_div < 1:
        raise ValueError("mesh divisor must be >= 1")
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    base = SCENARIOS[name]()
    if mesh_div > 1:
        cells = tuple(max(2, c // mesh_div) for c in base.cells)
        base = replace(base, cells=cells, mesh_div=mesh_div)
    return base


# ---------------------------------------------------------------------------
# scenario constructors
# ---------------------------------------------------------------------------

def gaussian_1d(eps: float, t_final: float, rank: int,
                reference: Optional[str]) -> Scenario:
    """1D slab Gaussian pulse; the regime is set by ``eps``."""
    sigma2 = 9e-4

    def init(grid, quad, _eps):
        x = grid.rho_coords[:, 0]
        rho0 = np.exp(-(x**2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
        return rho0, _isotropic(grid, quad)

    return Scenario(
        bounds=((-1.5, 1.5),),
        cells=(500,),
        quad_n=200,
        epsilon=eps,
        t_final=t_final,
        rank=rank,
        init=init,
        reference=reference,
    )


def bimodal_1d() -> Scenario:
    """Non-equilibrium two-beam initial state used for the energy-alignment test."""
    sigma2 = 1e-4

    def init(grid, quad, eps):
        mu = quad.omega[:, 0]
        beams = np.exp(-((mu - 1.0) ** 2) / (2 * sigma2)) + np.exp(
            -((mu + 1.0) ** 2) / (2 * sigma2)
        )
        mean = (beams @ quad.w) / quad.domain_measure

        def profile(x):
            return np.exp(-(x**2) / (2 * sigma2)) / (2 * np.pi * sigma2)

        # f = profile(x) beams(mu), so G0 = (f - <f>) / eps has rank 1
        rho0 = profile(grid.rho_coords[:, 0]) * mean
        return rho0, ((profile(grid.g_coords[:, 0]) / eps)[:, None], (beams - mean)[:, None])

    return Scenario(
        bounds=((-1.5, 1.5),),
        cells=(50,),
        quad_n=50,
        epsilon=1.0,
        t_final=2.5,
        rank=2,
        init=init,
    )


# -- manufactured 2D solution ------------------------------------------------

def mms_exact_rho(t, coords):
    x, y = coords[:, 0], coords[:, 1]
    return 2.0 + np.exp(-t) * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def _mms_spatial_profiles(eps, coords, coords_y):
    """Spatial factors paired with angular profiles ``[1, Ox, Oy, Ox*Oy, Oy^2]``.

    The factor multiplying ``Oy`` is sampled at the y-offset staggered points
    so its flux contribution is centered where the scheme reads it; all other
    factors are sampled at the (x-offset) fluctuation points.
    """

    def trig(c):
        x, y = c[:, 0], c[:, 1]
        return (
            np.sin(2 * np.pi * x),
            np.cos(2 * np.pi * x),
            np.sin(2 * np.pi * y),
            np.cos(2 * np.pi * y),
        )

    sx, cx, sy, cy = trig(coords)
    sxy, cxy, syy, cyy = trig(coords_y)
    return np.column_stack(
        [
            -sx * sy,
            (2 * np.pi / eps) * cx * sy,
            (-eps + 1.0 / eps) * sxy * syy + (2 * np.pi / eps) * sxy * cyy,
            2 * np.pi * cx * sy,
            2 * np.pi * sx * cy,
        ]
    )


def manufactured_2d(n: int) -> Scenario:
    """Manufactured smooth solution on the unit square for order studies."""
    if n < 16 or n % 8:
        raise ValueError(f"mms2d mesh must be a multiple of 8 and at least 16, got {n}")
    eps_default = 1.0  # order studies override this through the run manifest

    def init(grid, quad, eps):
        rho0 = mms_exact_rho(0.0, grid.rho_coords)
        xg, yg = grid.g_coords_y[:, 0], grid.g_coords_y[:, 1]
        shape = np.sin(2 * np.pi * xg) * np.sin(2 * np.pi * yg)
        return rho0, (shape[:, None], quad.omega[:, 1:])

    return Scenario(
        bounds=((0.0, 1.0), (0.0, 1.0)),
        cells=(n, n),
        quad_n=n // 8,
        epsilon=eps_default,
        t_final=0.1,
        rank=4,
        init=init,
        tau=1e-8,
        reference="manufactured",
        exact_rho=mms_exact_rho,
        sources=mms_sources,
        dt_policy="explicit",
    )


def mms_sources(grid, quad, eps):
    """Macro and micro source samplers for the manufactured scenario.

    Returns ``(phi, micro_source)``: ``phi(t)`` is the discrete angular
    average of the manufactured source on the density points; ``micro_source
    (t)`` returns factors of the mean-free remainder divided by ``eps`` on
    the fluctuation points, with exactly mean-free angular columns.
    """
    ang = np.column_stack(
        [
            np.ones(quad.n),
            quad.omega[:, 0],
            quad.omega[:, 1],
            quad.omega[:, 0] * quad.omega[:, 1],
            quad.omega[:, 1] ** 2,
        ]
    )
    means = (quad.w @ ang) / quad.domain_measure
    ang_centered = ang - means
    phi0 = _mms_spatial_profiles(eps, grid.rho_coords, grid.rho_coords) @ means
    prof_g = _mms_spatial_profiles(eps, grid.g_coords, grid.g_coords_y)

    def phi(t):
        return np.exp(-t) * phi0

    def micro_source(t):
        return (np.exp(-t) / eps) * prof_g, ang_centered

    return phi, micro_source


def gaussian_2d() -> Scenario:
    """Diffusive 2D Gaussian pulse with literal step sizes at full mesh."""
    return Scenario(
        bounds=((-1.0, 1.0), (-1.0, 1.0)),
        cells=(128, 128),
        quad_n=16,
        epsilon=1e-6,
        t_final=0.1,
        rank=10,
        init=_pulse_2d((0.0, 0.0)),
        reference="diffusion",
        slices=(("y", 0.0),),
        dt_literal_explicit=2.04e-5,
        dt_literal_implicit=2.04e-4,
    )


#: Unit absorber blocks of the lattice assembly, lower-left cell coordinates.
LATTICE_ABSORBERS = (
    (1, 1), (1, 3), (1, 5),
    (2, 2), (2, 4),
    (3, 1),
    (4, 2), (4, 4),
    (5, 1), (5, 3), (5, 5),
)


def _lattice_mask(coords):
    i = np.clip(np.floor(coords[:, 0]).astype(int), 0, 6)
    j = np.clip(np.floor(coords[:, 1]).astype(int), 0, 6)
    table = np.zeros((7, 7), dtype=bool)
    for a, b in LATTICE_ABSORBERS:
        table[a, b] = True
    return table[i, j]


def lattice_2d() -> Scenario:
    """Checkerboard fuel-assembly problem in the kinetic regime."""

    def sigma_s(coords):
        return np.where(_lattice_mask(coords), 0.0, 1.0)

    def sigma_a(coords):
        return np.where(_lattice_mask(coords), 10.0, 0.0)

    def sources(grid, _quad, _eps):
        x, y = grid.rho_coords[:, 0], grid.rho_coords[:, 1]
        src = ((x >= 3.0) & (x < 4.0) & (y >= 3.0) & (y < 4.0)).astype(float)
        return (lambda t: src), None

    return Scenario(
        bounds=((0.0, 7.0), (0.0, 7.0)),
        cells=(128, 128),
        quad_n=16,
        epsilon=1.0,
        t_final=2.0,
        rank=100,
        init=_pulse_2d((3.5, 3.5)),
        sigma_s=sigma_s,
        sigma_a=sigma_a,
        sigma_s_floor=0.0,
        sources=sources,
        slices=(("x", 3.5), ("y", 4.047)),
    )


#: Every scenario's constructor by name, in CLI order.
SCENARIOS = {
    "gaussian1d-kinetic": partial(gaussian_1d, 1.0, 1.0, 50, "self"),
    "gaussian1d-mid": partial(gaussian_1d, 1e-2, 0.2, 10, None),
    "gaussian1d-diff": partial(gaussian_1d, 1e-6, 0.2, 3, "diffusion"),
    "bimodal1d": bimodal_1d,
    **{f"mms2d-{n}": partial(manufactured_2d, n) for n in (16, 32, 64, 128, 256)},
    "gaussian2d": gaussian_2d,
    "lattice2d": lattice_2d,
}


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------

def build_objects(scen: Scenario, epsilon: Optional[float] = None):
    """Construct ``(grid, quad, material)`` for a scenario.

    ``epsilon`` overrides the scenario default; it is passed to the
    scenario's ``sources`` (the manufactured sources depend on it).
    """
    eps = scen.epsilon if epsilon is None else epsilon
    grid = build_grid(scen.dim, scen.bounds, scen.cells)
    quad = (gauss_legendre_1d if scen.dim == 1 else chebyshev_legendre_2d)(scen.quad_n)
    phi, micro_source = (
        scen.sources(grid, quad, eps) if scen.sources is not None else (None, None)
    )
    material = sample_material(
        grid,
        scen.sigma_s,
        scen.sigma_a,
        scen.sigma_s_floor,
        phi=phi,
        micro_source=micro_source,
    )
    return grid, quad, material


def select_dt(scen: Scenario, scheme: str, grid, material, epsilon: float) -> float:
    """Per-scheme step-size policy.

    Explicit-coupled schemes take the explicit bound; Schur-type schemes take
    the implicit bound when it is finite and ten times the explicit bound
    when unconditionally stable.  Literal step sizes recorded for a scenario
    apply only at the unreduced mesh.
    """
    implicit_family = parse_scheme(scheme).schur
    if scen.mesh_div == 1 and epsilon == scen.epsilon:
        lit = scen.dt_literal_implicit if implicit_family else scen.dt_literal_explicit
        if lit is not None:
            return lit
    dte = dt_explicit(grid, material, epsilon)
    if not implicit_family or scen.dt_policy == "explicit":
        return dte
    dti = dt_implicit(grid, material, epsilon)
    return dti if np.isfinite(dti) else 10.0 * dte
