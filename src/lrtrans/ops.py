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

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .angular import QuadratureSet
from .grid import StaggeredGrid, _stencil, diff

#: Bytes of one block of the row-blocked full-rank kernels (the micro sweep
#: of :mod:`lrtrans.fullrank` and :func:`inner_w`), so their working sets
#: stay in a 2 MiB L2 cache.
BLOCK_BYTES = 2**19


@dataclass
class MaterialField:
    """Scattering/absorption coefficients and sources sampled on the mesh.

    ``sigma_*_rho`` live on the rho family, ``sigma_*_g`` on the g family.
    ``phi(t)`` returns the macroscopic source on the rho family or ``None``.
    ``micro_source(t)`` returns factors ``(P, A)`` of the angular-fluctuating
    source entering the microscopic equation (including any ``1/epsilon``
    scaling); its angular factors must satisfy ``A.T @ w = 0``.
    ``sigma_s_floor`` is the lower bound used by the time-step formulas.
    """

    sigma_s_rho: np.ndarray
    sigma_a_rho: np.ndarray
    sigma_s_g: np.ndarray
    sigma_a_g: np.ndarray
    sigma_s_floor: float
    phi: Optional[Callable[[float], np.ndarray]] = None
    micro_source: Optional[Callable[[float], tuple]] = None

    def __post_init__(self):
        if self.sigma_s_floor < 0:
            raise ValueError("sigma_s_floor must be nonnegative")
        for name in ("sigma_s_rho", "sigma_s_g"):
            if np.any(getattr(self, name) < self.sigma_s_floor - 1e-14):
                raise ValueError(f"{name} drops below sigma_s_floor")
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
        sigma_s_rho=samp(sigma_s, grid.rho_coords),
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

    :func:`advect_rows` over all rows.
    """
    _check_micro(grid, quad, G)
    out = np.empty(G.shape)
    return advect_rows(grid, quad, np.asarray(G, dtype=float), 0, grid.n_points,
                       out, np.empty_like(out), upwind_runs(quad))


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


def advect_rows(grid, quad, G, lo, hi, out, work, runs, prev=None, first=(None, None)):
    """Rows ``lo:hi`` of :func:`advect` of ``G``, written into ``out``.

    ``Q^(j,+) Q^(j,-) = 0``: each ordinate moves either way along an axis,
    never both, so only its upwind difference is formed, one stencil call
    per run of columns ``(c0, c1, side)`` in ``runs[j]``
    (:func:`upwind_runs`), and scaled by ``q_j`` itself.  This is exact, bit
    for bit: ``q_j^+ == q_j`` on positive columns, ``q_j^- == q_j`` on the
    others, and the dropped term is a zero.

    ``lo`` and ``hi`` are multiples of the points in one row of the outer
    axis (``nx`` in 2D, 1 in 1D); the rows may straddle the two point
    families.  The outer-axis difference reads its periodic halo rows from
    ``G``, except where a caller that overwrites ``G`` block by block passes
    their old values: ``prev``, the outer row before ``lo``, and ``first[f]``,
    the first outer row of family ``f`` (each ``(points per row, N)``).
    ``out`` and ``work`` are ``(hi - lo, N)`` arrays; ``work`` is scratch for
    the second axis.
    """
    fam_shape = grid.block_shape[1:]
    L = fam_shape[0]
    row = math.prod(fam_shape[1:])
    r0, r1 = lo // row, hi // row
    fams = G.reshape((2,) + fam_shape + G.shape[1:])
    halo = [None if h is None else h.reshape((1,) + fam_shape[1:] + G.shape[1:])
            for h in (prev, *first)]
    for j in range(grid.dim):
        d = out if j == 0 else work
        rows = d.reshape((r1 - r0,) + fam_shape[1:] + G.shape[1:])
        for c0, c1, side in runs[j]:
            c = np.s_[..., c0:c1]
            if j < grid.dim - 1:
                inner = G[lo:hi].reshape(rows.shape).swapaxes(0, 1)
                _stencil(inner[c], rows.swapaxes(0, 1)[c], side)
                continue
            prev_c, *first_c = (None if h is None else h[c] for h in halo)
            for fam in range(2):
                s0, s1 = max(r0, fam * L), min(r1, (fam + 1) * L)
                if s0 < s1:
                    _stencil(fams[fam][c], rows[s0 - r0:s1 - r0][c], side,
                             s0 - fam * L, s1 - fam * L, prev_c, first_c[fam])
        d /= grid.spacing[j]
        d *= quad.q(j)
        if j:
            out += d
    return out


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
    """Weighted inner product ``(prod_j dx_j) tr(F1 M^2 F2^T)``.

    Equals ``cell_volume * np.sum((F1 * F2) @ w)`` bit for bit without
    forming the product array: the row products ``(F1 * F2) @ w`` are formed
    in blocks of about ``BLOCK_BYTES`` that start at multiples of four rows,
    where the BLAS matrix-vector product keeps the bits of the whole-array
    one, and their vector is summed once.  The last sweep of a full-rank step
    (:mod:`lrtrans.fullrank`) forms the same row products of its blocks, so
    its record norm equals this one.
    """
    if F1.shape != F2.shape:
        raise ValueError("shape mismatch in inner_w")
    n, n_cols = F1.shape
    size = max(4, BLOCK_BYTES // (8 * n_cols) // 4 * 4)
    buf = np.empty((min(n, size), n_cols))
    rows = np.empty(n)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        b = np.multiply(F1[lo:hi], F2[lo:hi], out=buf[: hi - lo], dtype=float)
        np.matmul(b, quad.w, out=rows[lo:hi])
    return grid.cell_volume * float(np.sum(rows))


def norm_w(grid: StaggeredGrid, quad: QuadratureSet, F: np.ndarray) -> float:
    return np.sqrt(max(inner_w(grid, quad, F, F), 0.0))


def _check_micro(grid, quad, G):
    if G.shape != (grid.n_points, quad.n):
        raise ValueError(
            f"micro state shape {G.shape} != ({grid.n_points}, {quad.n})"
        )
