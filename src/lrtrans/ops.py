"""Discrete transport operators, inner products, and material fields.

Conventions
-----------
A macroscopic state is a plain ``(n_points,)`` array on the rho family of a
:class:`~lrtrans.grid.StaggeredGrid`; a microscopic state is a plain
``(n_points, n_ordinates)`` array ``G`` on the g family, one column per
ordinate.  A microscopic state is physical when it satisfies the zero-density
constraint ``G @ w = 0``.

Rank-structured matrices are passed around as factor pairs ``(P, A)``
representing ``P @ A.T`` with ``P`` of shape ``(n_points, m)`` and ``A`` of
shape ``(n_ordinates, m)``; the density gradient is returned in this form so
the low-rank integrators never materialize an ``n_points x n_ordinates``
temporary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .angular import QuadratureSet
from .grid import StaggeredGrid, diff, increment


@dataclass
class MaterialField:
    """Scattering/absorption coefficients and sources sampled on the mesh.

    ``sigma_a_rho`` lives on the rho family, ``sigma_*_g`` on the g family.
    ``phi(t)`` returns the macroscopic source on the rho family or ``None``.
    ``micro_source(t)`` returns factors ``(P, A)`` of the angular-fluctuating
    source entering the microscopic equation (including any ``1/epsilon``
    scaling); its angular factors must satisfy ``A.T @ w = 0``.
    ``sigma_s_floor`` is the lower bound used by the time-step formulas.
    """

    sigma_a_rho: np.ndarray
    sigma_s_g: np.ndarray
    sigma_a_g: np.ndarray
    sigma_s_floor: float
    phi: Optional[Callable[[float], np.ndarray]] = None
    micro_source: Optional[Callable[[float], tuple]] = None

    def __post_init__(self):
        if self.sigma_s_floor < 0:
            raise ValueError("sigma_s_floor must be nonnegative")
        if np.any(self.sigma_s_g < self.sigma_s_floor - 1e-14):
            raise ValueError("sigma_s_g drops below sigma_s_floor")
        for name in ("sigma_a_rho", "sigma_a_g"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative")


def sample_material(
    grid: StaggeredGrid,
    sigma_s: Callable[[np.ndarray], np.ndarray],
    sigma_a: Callable[[np.ndarray], np.ndarray],
    sigma_s_floor: float,
    phi: Optional[Callable[[float], np.ndarray]] = None,
    micro_source: Optional[Callable[[float], tuple]] = None,
) -> MaterialField:
    """Sample coefficient functions pointwise at both point families.

    ``sigma_s`` and ``sigma_a`` take an ``(n, dim)`` coordinate array and
    return ``(n,)`` values.
    """

    def samp(f, coords):
        out = np.asarray(f(coords), dtype=float)
        if out.shape != (coords.shape[0],):
            out = np.broadcast_to(out, (coords.shape[0],)).astype(float)
        return out

    return MaterialField(
        sigma_a_rho=samp(sigma_a, grid.rho_coords),
        sigma_s_g=samp(sigma_s, grid.g_coords),
        sigma_a_g=samp(sigma_a, grid.g_coords),
        sigma_s_floor=float(sigma_s_floor),
        phi=phi,
        micro_source=micro_source,
    )


# ---------------------------------------------------------------------------
# transport operators
# ---------------------------------------------------------------------------

def advect(grid: StaggeredGrid, quad: QuadratureSet, G: np.ndarray) -> np.ndarray:
    """Upwind advection: sum_j D^(j,-) G Q^(j,+) + D^(j,+) G Q^(j,-).

    ``Q^(j,+) Q^(j,-) = 0``: each ordinate moves either way along an axis,
    never both, so per axis only its upwind increment is formed, one
    :func:`~lrtrans.grid.increment` per run of :func:`upwind_runs`, and
    scaled once by ``q_j / h_j``.
    """
    _check_micro(grid, quad, G)
    G = np.asarray(G, dtype=float)
    out, d = np.zeros(G.shape), np.empty(G.shape)
    for j, runs in enumerate(upwind_runs(quad)):
        for c0, c1, side in runs:
            increment(grid, j, side, G[:, c0:c1], out=d[:, c0:c1])
        d *= quad.q(j) / grid.spacing[j]
        out += d
    return out


def upwind_runs(quad: QuadratureSet) -> tuple:
    """Per axis, the ``(c0, c1, side)`` runs of ordinates ``c0:c1`` that share
    the side of their upwind difference: ``-1`` (backward) where ``q_j > 0``
    and ``+1`` elsewhere.  The runs of an axis tile ``[0, n)`` in order."""
    runs = []
    for j in range(quad.dim):
        side = np.where(quad.q(j) > 0, -1, +1)
        cuts = [0, *(np.flatnonzero(np.diff(side)) + 1).tolist(), quad.n]
        runs.append(tuple((c0, c1, int(side[c0])) for c0, c1 in zip(cuts, cuts[1:])))
    return tuple(runs)


def flux_div(grid: StaggeredGrid, quad: QuadratureSet, G: np.ndarray) -> np.ndarray:
    """Divergence of the discrete first angular moment of ``G``.

    ``(1/|D_Omega|) sum_j D^(j,-) G Q^(j) w``, read on the rho family.
    """
    _check_micro(grid, quad, G)
    return moment_div(grid, quad, [G @ (quad.q(j) * quad.w) for j in range(grid.dim)])


def flux_div_factored(grid, quad, P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """:func:`flux_div` of ``P @ A.T`` without forming the product."""
    return moment_div(
        grid, quad, [P @ (A.T @ (quad.q(j) * quad.w)) for j in range(grid.dim)]
    )


def moment_div(grid: StaggeredGrid, quad: QuadratureSet, moments) -> np.ndarray:
    """``(1/|D_Omega|) sum_j D^(j,-) moments[j]``, the divergence of the first
    angular moments ``moments[j] = G Q^(j) w`` (one n-vector per axis)."""
    out = np.zeros(grid.n_points)
    for j in range(grid.dim):
        out += diff(grid, j, -1, moments[j])
    return out / quad.domain_measure


def density_grad(grid: StaggeredGrid, quad: QuadratureSet, rho: np.ndarray) -> tuple:
    """Directional density gradient, factored: ``sum_j D^(j,+) rho 1^T Q^(j)``.

    Returns ``(P, A)`` with one column per axis: ``P[:, j] = D^(j,+) rho``
    (read on the g family) and ``A[:, j] = Omega^(j)``; the dense matrix is
    ``P @ A.T`` and has rank at most ``dim``.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n_points,):
        raise ValueError(f"density shape {rho.shape} != ({grid.n_points},)")
    P = np.empty((grid.n_points, grid.dim))
    for j in range(grid.dim):
        diff(grid, j, +1, rho, out=P[:, j])
    A = quad.omega.copy()
    return P, A


def project_out_mean(
    quad: QuadratureSet, F: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Right-multiply by ``I - w 1^T / |D_Omega|``, removing angular means.

    ``out=F`` removes the means in place.
    """
    return np.subtract(F, ((F @ quad.w) / quad.domain_measure)[:, None], out=out)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def inner_w(grid: StaggeredGrid, quad: QuadratureSet, F1: np.ndarray, F2: np.ndarray) -> float:
    """Weighted inner product ``(prod_j dx_j) tr(F1 M^2 F2^T)``, the row
    products ``(F1 * F2) @ w`` summed once; the last sweep of a full-rank
    step (:mod:`lrtrans.fullrank`) forms the same row products, block by
    block, so its record norm equals this one bit for bit.
    """
    if F1.shape != F2.shape:
        raise ValueError("shape mismatch in inner_w")
    return grid.cell_volume * float(np.sum(np.multiply(F1, F2, order="C", dtype=float) @ quad.w))


def norm_w(grid: StaggeredGrid, quad: QuadratureSet, F: np.ndarray) -> float:
    return np.sqrt(max(inner_w(grid, quad, F, F), 0.0))


def _check_micro(grid, quad, G):
    if G.shape != (grid.n_points, quad.n):
        raise ValueError(
            f"micro state shape {G.shape} != ({grid.n_points}, {quad.n})"
        )
