"""Full-rank IMEX and IMEX-S time steppers for the macro-micro system.

Both steppers advance the coupled density/fluctuation pair by one step of a
first-order implicit-explicit scheme: collision terms are implicit (pointwise
diagonal), advection of the fluctuation is explicit and upwinded.  They
differ in the treatment of the density gradient driving the fluctuation:

* ``imex_step`` uses the old density, so the fluctuation update is fully
  pointwise and the density update is a diagonal solve;
* ``imex_s_step`` uses the new density, eliminates the fluctuation through a
  Schur complement, solves the resulting sparse symmetric positive definite
  system for the density, and recovers the fluctuation pointwise.

The Schur operator depends only on the mesh, quadrature, material, step size
and Knudsen number, so it is assembled once per run and reused; so are the
other constants of a step, in the :class:`StepContext` that every stepper,
full-rank or low-rank, takes first: ``step(ctx, rho, micro, t_next)``.

The micro update is one routine, :func:`_micro_sweep`, run over blocks of
whole outer-axis rows of about ``BLOCK_BYTES`` (:mod:`lrtrans.ops`) each:
a block's upwind advection, mean removal, source, density-gradient
subtraction, relaxation and moment contractions all run while it sits in
cache.  ``imex_step`` needs one sweep, since its density gradient is known
up front; ``imex_s_step`` sweeps twice, solving for the density in between
from the moments of the first sweep.  Both steppers update the micro state
``G`` in place, block by block with no copy-back, and return it: a step
allocates no array of ``G``'s size, only two block buffers, three halo rows
and vectors of ``n_points``, and every value keeps the bits of the
whole-array formulas.  Callers that still need the old state pass a copy.  The step's
last sweep also forms the norms of the trace record (``ctx.swept``), so the
record does not read ``G`` again.

Dense runs order their ordinates by upwind quadrant (:func:`upwind_grouped`),
so the columns that share an upwind side form a few long runs.

:data:`SCHEMES` maps each of the six scheme tags to its :class:`Scheme`, one
of two couplings times three micro updates.  :func:`spd_solver` solves the
sparse SPD systems of the Schur operator and of the diffusion reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .angular import QuadratureSet, _make
from .grid import StaggeredGrid
from .ops import (
    BLOCK_BYTES,
    MaterialField,
    advect_rows,
    density_grad,
    moment_div,
    project_out_mean,
    upwind_runs,
)


class DivergenceError(RuntimeError):
    """A state update produced non-finite values."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class LinearSolveError(RuntimeError):
    """The iterative macroscopic solve did not reach its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Scheme:
    """A parsed scheme tag: Schur-type coupling or not, and the micro update."""

    schur: bool
    micro: str


#: Every scheme tag and what it means.
SCHEMES = {
    "IMEX": Scheme(schur=False, micro="full"),
    "IMEX-S": Scheme(schur=True, micro="full"),
    "IMEX-BUG": Scheme(schur=False, micro="BUG"),
    "IMEX-S-BUG": Scheme(schur=True, micro="BUG"),
    "IMEX-aBUG": Scheme(schur=False, micro="aBUG"),
    "IMEX-S-aBUG": Scheme(schur=True, micro="aBUG"),
}


def parse_scheme(tag: str) -> Scheme:
    """The :class:`Scheme` of ``tag``; ``ValueError`` for an unknown tag."""
    if tag not in SCHEMES:
        raise ValueError(f"unknown scheme {tag!r}; expected one of {tuple(SCHEMES)}")
    return SCHEMES[tag]


@dataclass
class SolverConfig:
    """Knudsen number and step size shared by all schemes."""

    epsilon: float
    dt: float

    def __post_init__(self):
        # negated comparisons, so that NaN fails them
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")


def relaxation_factor(material: MaterialField, config: SolverConfig) -> np.ndarray:
    """Pointwise implicit factor ``(1/dt + sigma_s/eps^2 + sigma_a)^{-1}``."""
    eps2 = config.epsilon**2
    return 1.0 / (1.0 / config.dt + material.sigma_s_g / eps2 + material.sigma_a_g)


def _difference_matrix(grid: StaggeredGrid, axis: int, side: int) -> sp.csr_matrix:
    n = grid.n_points
    h = grid.spacing[axis]
    perm = grid.shift_permutation(axis, +1 if side > 0 else -1)
    eye = sp.identity(n, format="csr")
    shift = sp.csr_matrix(
        (np.ones(n), (np.arange(n), perm)), shape=(n, n)
    )
    return (shift - eye) / h if side > 0 else (eye - shift) / h


def div_grad_operator(grid: StaggeredGrid, diag, coef, c) -> sp.csr_matrix:
    """``diag(diag) - sum_{j,k} c[j, k] D^(j,-) diag(coef) D^(k,+)``, the sparse
    operator of the Schur density solve and of the diffusion reference; the
    zero entries of ``c`` are skipped."""
    T = sp.diags(diag).tocsr()
    C = sp.diags(coef)
    for j in range(grid.dim):
        Dm = _difference_matrix(grid, j, -1)
        for k in range(grid.dim):
            if c[j, k] != 0:
                # bound to a name, so it is freed only when the next one
                # replaces it: freed at once, the malloc heap of a low-rank
                # run ends 1.2 MiB higher at peak (perfbench diffusive2d-bug)
                Dp = _difference_matrix(grid, k, +1)
                T = T - c[j, k] * (Dm @ C @ Dp)
    return T.tocsr()


#: SPD systems with fewer unknowns are factorized (sparse LU); larger ones
#: are solved by Jacobi-preconditioned conjugate gradients to relative
#: residual ``CG_RTOL`` within ``CG_MAXITER_PER_UNKNOWN * n`` iterations.
DIRECT_SOLVE_MAX = 4096
CG_RTOL = 1e-12
CG_MAXITER_PER_UNKNOWN = 10


def spd_solver(T: sp.spmatrix):
    """``solve(b)`` for the sparse symmetric positive definite matrix ``T``.

    A stalled CG solve raises :class:`LinearSolveError` carrying the
    relative residual ``|T x - b| / |b|``.
    """
    n = T.shape[0]
    if n < DIRECT_SOLVE_MAX:
        return spla.splu(T.tocsc()).solve
    maxiter = int(CG_MAXITER_PER_UNKNOWN * n)
    dinv = 1.0 / T.diagonal()
    precond = spla.LinearOperator(T.shape, matvec=lambda x: dinv * x)

    def solve(b):
        x, info = spla.cg(T, b, rtol=CG_RTOL, atol=0.0, maxiter=maxiter, M=precond)
        if info != 0:
            res = float(np.linalg.norm(T @ x - b) / max(np.linalg.norm(b), 1e-300))
            raise LinearSolveError(
                f"conjugate gradients stopped after {maxiter} iterations", res
            )
        return x

    return solve


class SchurOperator:
    """Sparse reduced operator for the implicit density solve.

    Applies ``(1/dt + sigma_a) I - (1/(|D_Omega)| eps^2)) sum_{j,k} c_{jk}
    D^(j,-) diag(R) D^(k,+)`` with ``c_{jk} = sum_m w_m Omega^j_m Omega^k_m``
    and ``R`` the pointwise relaxation factor.  The matrix is symmetric
    positive definite and solved by :func:`spd_solver`.
    """

    def __init__(self, grid, quad, material: MaterialField, config: SolverConfig):
        c = np.array(
            [
                [float(np.sum(quad.w * quad.q(j) * quad.q(k))) for k in range(grid.dim)]
                for j in range(grid.dim)
            ]
        )
        c[np.abs(c) <= 1e-13 * np.max(np.abs(c))] = 0.0
        scale = 1.0 / (quad.domain_measure * config.epsilon**2)
        T = div_grad_operator(grid, 1.0 / config.dt + material.sigma_a_rho,
                              relaxation_factor(material, config), c * scale)
        T.eliminate_zeros()

        asym = sp.linalg.norm(T - T.T, np.inf)
        if asym > 1e-12 * sp.linalg.norm(T, np.inf):
            raise ValueError(f"Schur operator not symmetric: |T - T^T| = {asym:.3e}")
        if np.any(T.diagonal() <= 0):
            raise ValueError("Schur operator has a nonpositive diagonal entry")

        self.matrix = T
        self._solve = spd_solver(T)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._solve(b)


def build_schur(
    grid: StaggeredGrid, quad: QuadratureSet, material: MaterialField, config: SolverConfig
) -> SchurOperator:
    """Assemble the reduced density operator for the current ``(dt, eps)``."""
    return SchurOperator(grid, quad, material, config)


def _row_blocks(grid: StaggeredGrid, n_cols: int) -> list:
    """``(lo, hi)`` point ranges of the sweep, in order, covering every point.

    A block is whole rows of the outer axis (y in 2D, x in 1D), about
    ``BLOCK_BYTES`` of an ``(n_points, n_cols)`` array, and starts at a
    multiple of four points: the BLAS matrix-vector product groups rows by
    four from the first row of its matrix, so then each block's row
    contractions keep the bits of the whole-array product.
    """
    row = math.prod(grid.block_shape[2:])
    unit = 4 // math.gcd(row, 4)
    rows = max(1, BLOCK_BYTES // (row * n_cols * 8))
    size = -(-rows // unit) * unit * row
    n = grid.n_points
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@dataclass(frozen=True)
class StepContext:
    """The run objects and the constants every step of a run reads.

    Built once per run by :func:`step_context`; every stepper takes it
    first, ``step(ctx, rho, micro, t_next)``.  Each constant keeps the
    expression it had inside the step, so the steps keep their bits.
    """

    grid: StaggeredGrid
    quad: QuadratureSet
    material: MaterialField
    config: SolverConfig
    schur: Optional[SchurOperator]  # IMEX-S coupling
    lr: Optional[object]  # the lowrank.LowRankConfig of a low-rank micro update
    R: np.ndarray  # relaxation factor (1/dt + sigma_s/eps^2 + sigma_a)^-1
    sig: np.ndarray  # sigma_s/eps^2 + sigma_a on the g family
    k_denom: np.ndarray  # 1/dt + sig, the low-rank K-step denominator
    rho_denom: np.ndarray  # 1/dt + sigma_a, the IMEX density denominator
    # Q^(j) w, one column per axis, for the factored Schur flux; a transposed
    # view of qw_rows would change the rounding of its BLAS product
    qw: np.ndarray
    qw_rows: np.ndarray  # the same, one contiguous row per axis (the sweep)
    ang_splits: dict  # (q, a, b) of the low-rank angular factor, _angular_splits
    sides: tuple  # ops.upwind_runs: per axis, (c0, c1, side) column runs
    ap_angular: np.ndarray  # angular diffusion-limit directions M Q^(j) 1
    blocks: list  # the sweep's block plan, _row_blocks
    # (micro_norm_w, zero_density_residual) of the micro state the last
    # full-rank sweep with a density gradient wrote (_micro_sweep)
    swept: np.ndarray


def step_context(grid, quad, material, config, schur=None, lr=None) -> StepContext:
    """The :class:`StepContext` of a run; ``schur`` for IMEX-S coupling,
    ``lr`` (a ``LowRankConfig``) for a low-rank micro update."""
    eps, dt = config.epsilon, config.dt
    sig = material.sigma_s_g / (eps * eps) + material.sigma_a_g
    qw = quad.omega * quad.w[:, None]
    return StepContext(
        grid=grid, quad=quad, material=material, config=config, schur=schur, lr=lr,
        R=relaxation_factor(material, config),
        sig=sig,
        k_denom=1.0 / dt + sig,
        rho_denom=1.0 / dt + material.sigma_a_rho,
        qw=qw,
        qw_rows=np.ascontiguousarray(qw.T),
        ang_splits=_angular_splits(quad),
        sides=upwind_runs(quad),
        ap_angular=np.column_stack([quad.m * quad.q(j) for j in range(quad.dim)]),
        blocks=_row_blocks(grid, quad.n),
        swept=np.full(2, np.nan),
    )


def upwind_grouped(quad: QuadratureSet, material: MaterialField) -> tuple:
    """``(quad, material)`` with the ordinates in upwind quadrant order.

    The ordinates are sorted, stably, into the sign quadrants (-,-), (-,+),
    (+,+), (+,-) of ``(Omega_x, Omega_y)``, so the signs along x form at most
    two runs and along y at most three (:func:`lrtrans.ops.upwind_runs`), and
    the upwind advection makes two and three stencil calls per block.  The
    angular factors of ``material.micro_source`` are permuted to match.  In
    1D the Gauss-Legendre nodes already ascend, and the inputs are returned.
    Only dense states use this order: a low-rank initial basis depends on
    which ordinate comes first.
    """
    sx = quad.q(0) > 0
    key = 2 * sx + ((quad.q(1) > 0) != sx if quad.dim == 2 else 0)
    perm = np.argsort(key, kind="stable")
    if np.array_equal(perm, np.arange(quad.n)):
        return quad, material
    grouped = _make(quad.dim, quad.omega[perm], quad.w[perm], quad.domain_measure)

    def source(t):
        P, A = material.micro_source(t)
        return P, A[perm]

    return grouped, replace(material, micro_source=source if material.micro_source else None)


def _angular_splits(quad: QuadratureSet) -> dict:
    """``(weighted, axis, sign) -> (q, a, b)`` of ``lowrank._ang``: ``q_plus(axis)``
    or ``q_minus(axis)`` by sign; ``(m, m q)`` weighted, ``(1, w q)`` unweighted."""
    ones, splits = np.ones(quad.n), {}
    for j in range(quad.dim):
        for s in (-1, +1):
            q = quad.q_plus(j) if s > 0 else quad.q_minus(j)
            splits[True, j, s] = (q, quad.m, quad.m * q)
            splits[False, j, s] = (q, ones, quad.w * q)
    return splits


def _micro_sweep(ctx, G, explicit=False, t_next=0.0, grad=None):
    """Micro update of one step in place on ``G``, one block of rows at a time.

    With ``explicit``, replaces ``G`` by the explicit part ``G/dt - (1/eps)
    A(G)(I - w 1^T/|D|) + source(t_next)``.  With ``grad = (PJ, AJ)`` it then
    subtracts ``PJ AJ^T / eps^2``, multiplies by the relaxation factor ``R``
    and raises :class:`DivergenceError` on a non-finite value (or one whose
    square overflows), leaving ``G`` partly updated.  An explicit sweep
    returns the first angular moments ``M[j] = (R B) Q^(j) w``, ``(dim,
    n_points)``, of the update ``B`` before relaxation, from which the
    density update takes its flux divergence; other sweeps return ``None``.
    A sweep with ``grad`` is the step's last write of each block, so it also
    forms the row sums ``(G * G) w`` and ``G w`` of the trace record and
    leaves ``(micro_norm_w, zero_density_residual)`` in ``ctx.swept``, bit
    for bit those :mod:`lrtrans.diagnostics` would compute from ``G``
    (:func:`~lrtrans.ops.inner_w` sums the same row products).

    Each block is written straight into ``G``.  Its explicit part reads the
    outer-axis rows next to it, so two kinds of old rows are kept before they
    are overwritten: the block's last outer row, the halo of the next block,
    and the first outer row of each point family, the periodic halo of the
    family's last row.
    """
    grid, quad, config, R = ctx.grid, ctx.quad, ctx.config, ctx.R
    size = ctx.blocks[0][1] - ctx.blocks[0][0]
    row, half = math.prod(grid.block_shape[2:]), grid.n_points // 2
    # one allocation, freed before the density solve; with ``explicit`` also
    # scratch for the second axis and the three halo rows (the last block's
    # last row, each family's first)
    buf = np.empty((2 * size + 3 * row if explicit else size, quad.n))
    work, scratch, halo = buf[:size], buf[size:2 * size], buf[2 * size:].reshape(-1, row, quad.n)
    sums = np.empty((2, grid.n_points)) if grad is not None else None
    source = None
    if explicit:
        moments = np.empty((grid.dim, grid.n_points))
        if ctx.material.micro_source is not None:
            source = ctx.material.micro_source(t_next)
    for lo, hi in ctx.blocks:
        a, g = work[: hi - lo], G[lo:hi]
        if explicit:
            for f in (0, 1):
                if lo <= f * half < hi:
                    halo[1 + f] = G[f * half:f * half + row]
            advect_rows(grid, quad, G, lo, hi, a, scratch[: hi - lo], ctx.sides,
                        halo[0], halo[1:])
            halo[0] = G[hi - row:hi]
            project_out_mean(quad, a, out=a)
            a /= config.epsilon
            g /= config.dt
            g -= a
            if source is not None:
                P, A = source
                g += np.matmul(P[lo:hi], A.T, out=a)
        if grad is not None:
            PJ, AJ = grad
            np.matmul(PJ[lo:hi], AJ.T, out=a)
            a /= config.epsilon**2
            g -= a
            g *= R[lo:hi, None]
            np.matmul(g, quad.w, out=sums[1, lo:hi])
            # a non-finite value of g makes its row's sum of squares non-finite
            _require_finite(np.matmul(np.multiply(g, g, out=a), quad.w, out=sums[0, lo:hi]))
        if explicit:
            m = g if grad is not None else np.multiply(g, R[lo:hi, None], out=a)
            for j in range(grid.dim):
                np.matmul(m, ctx.qw_rows[j], out=moments[j, lo:hi])
    if sums is not None:
        ctx.swept[:] = (np.sqrt(max(grid.cell_volume * float(np.sum(sums[0])), 0.0)),
                        np.max(np.abs(sums[1])))
    return moments if explicit else None


def _macro_source(material, dt, rho, t_next):
    b = rho / dt
    if material.phi is not None:
        b = b + material.phi(t_next)
    return b


def imex_step(ctx: StepContext, rho: np.ndarray, G: np.ndarray, t_next: float = 0.0):
    """One step with the density treated explicitly in the micro equation.

    Updates ``G`` in place and returns ``(rho_new, G)``.  Raises
    :class:`DivergenceError` if the update produces non-finite values; ``G``
    is then partly updated.
    """
    grid, quad = ctx.grid, ctx.quad
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _micro_sweep(
            ctx, G, explicit=True, t_next=t_next, grad=density_grad(grid, quad, rho)
        )
        rho_new = (
            _macro_source(ctx.material, ctx.config.dt, rho, t_next)
            - moment_div(grid, quad, moments)
        ) / ctx.rho_denom
    _require_finite(rho_new)
    return rho_new, G


def imex_s_step(ctx: StepContext, rho: np.ndarray, G: np.ndarray, t_next: float = 0.0):
    """One step with the density treated implicitly via the Schur complement.

    The density solves the reduced system assembled in ``ctx.schur``; the
    fluctuation is then recovered pointwise from the new density.  Like
    :func:`imex_step`, updates ``G`` in place and returns ``(rho_new, G)``.
    """
    grid, quad = ctx.grid, ctx.quad
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _micro_sweep(ctx, G, explicit=True, t_next=t_next)
        b1 = _macro_source(ctx.material, ctx.config.dt, rho, t_next)
        rho_new = ctx.schur.solve(b1 - moment_div(grid, quad, moments))
        _micro_sweep(ctx, G, grad=density_grad(grid, quad, rho_new))
    _require_finite(rho_new)
    return rho_new, G


def _require_finite(x):
    if not np.all(np.isfinite(x)):
        raise DivergenceError("non-finite values in updated state")
