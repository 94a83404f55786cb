"""Full-rank IMEX and IMEX-S time steppers for the macro-micro system.

Both steppers advance the coupled density/fluctuation pair by one step of a
first-order implicit-explicit scheme: collision terms are implicit (pointwise
diagonal), advection of the fluctuation is explicit and upwinded.  They
differ in the treatment of the density gradient driving the fluctuation:

* ``imex_step`` uses the old density, so the fluctuation update is fully
  pointwise and the density update is a diagonal solve;
* ``imex_s_step`` uses the new density, eliminates the fluctuation through a
  Schur complement, solves the resulting symmetric positive definite system
  for the density, and recovers the fluctuation pointwise.

The Schur operator depends only on the mesh, quadrature, material, step size
and Knudsen number, so its solve is set up once per run and reused; so are
the other constants of a step, in the :class:`StepContext` that every stepper,
full-rank or low-rank, takes first: ``step(ctx, rho, micro, t_next)``.

The micro update is one routine, :func:`_micro_sweep`, run over blocks of
whole outer-axis rows of about :data:`BLOCK_BYTES` each
(:func:`_row_blocks`): a block's upwind advection (:func:`_advect_rows`),
mean removal, source, density-gradient subtraction, relaxation and moment
contractions all run while it sits in cache.  ``imex_step`` needs one sweep,
since its density gradient is known up front; ``imex_s_step`` sweeps twice,
solving for the density in between from the moments of the first sweep.
Both steppers update the micro state ``G`` in place, block by block with no
copy-back, and return it: a step allocates no array of ``G``'s size, only
two block buffers, three halo rows and vectors of ``n_points``.  Callers
that still need the old state pass a copy.  The sweep folds every constant
into one factor per pass: the advection multiplies each axis once by ``q_j
dt / (eps h_j)``, so the explicit part is formed as ``dt B`` (which ``G``
holds between the two IMEX-S sweeps), the density gradient is accumulated
into ``G`` by one ``dgemm`` with ``dt/eps^2`` folded into its spatial
factor, and the relaxation multiplies by ``R / dt``.  Every value keeps the
bits of the whole-array formulas in that association (the block plan keeps
those of each row contraction).  The step's last sweep also forms the norms
of the trace record (``ctx.swept``), so the record does not read ``G``
again; the initial record's come from the initial factors (``run._dense``).

:data:`SCHEMES` maps each of the six scheme tags to its :class:`Scheme`, one
of two couplings times three micro updates.  :func:`density_solver` sets up
the solve of the Schur operator and of the diffusion reference, which share
one form: by the real FFT on homogeneous media, where that form is a
constant-coefficient periodic stencil on each point family, and otherwise by
Jacobi-preconditioned conjugate gradients (:func:`spd_solver`) that apply the
form through its stencil of grid increments.  Neither assembles a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemm

from .angular import QuadratureSet
from .grid import StaggeredGrid, _line_increment, increment, shift
from .ops import MaterialField, density_grad, moment_div, project_out_mean, upwind_runs

#: Bytes of one block of :func:`_micro_sweep`, so its working set stays in a
#: 2 MiB L2 cache.
BLOCK_BYTES = 2**19


class DivergenceError(RuntimeError):
    """A state update produced non-finite values."""


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
        if not (0 < self.epsilon and 0 < self.epsilon * self.epsilon < np.inf):
            raise ValueError("epsilon must be positive with a finite, non-zero square")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")


def relaxation_factor(material: MaterialField, config: SolverConfig) -> np.ndarray:
    """Pointwise implicit factor ``(1/dt + sigma_s/eps^2 + sigma_a)^{-1}``."""
    eps2 = config.epsilon**2
    return 1.0 / (1.0 / config.dt + material.sigma_s_g / eps2 + material.sigma_a_g)


#: The density CG stops at relative residual ``CG_RTOL`` and gives up after
#: ``CG_MAXITER_PER_UNKNOWN * n`` iterations on ``n`` unknowns.
CG_RTOL = 1e-12
CG_MAXITER_PER_UNKNOWN = 10


def spd_solver(apply, diagonal: np.ndarray):
    """``solve(b)`` for the symmetric positive definite operator ``apply``
    (``x -> T x``) with diagonal ``diagonal``, by Jacobi-preconditioned
    conjugate gradients; the stencil branch of :func:`density_solver`.

    A stalled solve raises :class:`LinearSolveError` carrying the relative
    residual ``|T x - b| / |b|``.
    """
    n = diagonal.shape[0]
    maxiter = int(CG_MAXITER_PER_UNKNOWN * n)
    T = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    dinv = 1.0 / diagonal
    precond = spla.LinearOperator((n, n), matvec=lambda x: dinv * x, dtype=float)

    def solve(b):
        x, info = spla.cg(T, b, rtol=CG_RTOL, atol=0.0, maxiter=maxiter, M=precond)
        if info != 0:
            res = float(np.linalg.norm(apply(x) - b) / max(np.linalg.norm(b), 1e-300))
            raise LinearSolveError(
                f"conjugate gradients stopped after {maxiter} iterations", res
            )
        return x

    return solve


def density_solver(grid: StaggeredGrid, diag, coef, c):
    """``solve(b)`` for the density operator ``T = diag(diag) - sum_j c[j]
    D^(j,-) diag(coef) D^(j,+)``, one term per axis, set up once.

    On a homogeneous medium (``diag`` and ``coef`` constant) the operator
    is a constant-coefficient periodic stencil on each point family, which
    the real FFT over the family's lattice (``grid.block_shape[1:]``)
    diagonalizes: the solve divides by the symbol ``diag + sum_j c[j] coef
    (2 - 2 cos theta_j) / h_j^2``.  Any other operator is applied through
    its stencil (:func:`_density_stencil`) and solved by :func:`spd_solver`
    after a check of its diagonal.  No matrix is assembled on either
    branch.  ``ValueError`` for a nonpositive symbol value or diagonal entry.
    """
    if np.all(diag == diag[0]) and np.all(coef == coef[0]):
        return _fft_solver(grid, diag[0], coef[0], c)
    apply, diagonal = _density_stencil(grid, diag, coef, c)
    if np.any(diagonal <= 0):
        raise ValueError("density operator has a nonpositive diagonal entry")
    return spd_solver(apply, diagonal)


def _density_stencil(grid: StaggeredGrid, diag, coef, c) -> tuple:
    """``(apply, diagonal)`` of the operator of :func:`density_solver`.

    Per axis, ``apply(x)`` takes the forward increment of ``x``, scales it
    by ``w_j = coef c[j] / h_j^2``, folded here once, and subtracts its
    backward increment: ``T x = diag x - sum_j increment_j^-(w_j
    increment_j^+ x)``.  The diagonal is ``diag + sum_j w_j + sum_j
    shift_j(w_j)``: the point's own ``coef`` and the one of the point one
    cell back along ``j`` enter the term of axis ``j``.
    """
    h = grid.spacing
    w = [coef * (c[j] / (h[j] * h[j])) for j in range(grid.dim)]
    diagonal = sum((shift(grid, j, wj) for j, wj in enumerate(w)), diag + sum(w))
    fwd, back = np.empty(grid.n_points), np.empty(grid.n_points)

    def apply(x):
        y = diag * x
        for j, wj in enumerate(w):
            np.multiply(wj, increment(grid, j, +1, x, out=fwd), out=fwd)
            y -= increment(grid, j, -1, fwd, out=back)
        return y

    return apply, diagonal


def _fft_solver(grid: StaggeredGrid, diag: float, coef: float, c):
    """The FFT branch of :func:`density_solver`."""
    shape = grid.block_shape
    axes = tuple(range(1, len(shape)))
    symbol = np.full((1,) * len(shape), diag)
    for j in range(grid.dim):
        ax = len(shape) - 1 - j  # x is the last (halved) axis of rfftn
        n = shape[ax]
        theta = 2 * np.pi * np.arange(n // 2 + 1 if j == 0 else n) / n
        term = c[j] * coef * (2 - 2 * np.cos(theta)) / grid.spacing[j] ** 2
        symbol = symbol + term.reshape([-1 if k == ax else 1 for k in range(len(shape))])
    if np.any(symbol <= 0):
        raise ValueError("density operator has a nonpositive symbol value")

    def solve(b):
        u = np.fft.rfftn(np.reshape(b, shape), axes=axes) / symbol
        return np.fft.irfftn(u, s=shape[1:], axes=axes).reshape(-1)

    return solve


def _schur_terms(grid, quad, material: MaterialField, config: SolverConfig) -> tuple:
    """``(grid, diag, coef, c)`` of :func:`density_solver` for the Schur operator."""
    c = np.array([float(np.sum(quad.w * quad.q(j) * quad.q(j))) for j in range(grid.dim)])
    scale = 1.0 / (quad.domain_measure * config.epsilon**2)
    return (grid, 1.0 / config.dt + material.sigma_a_rho, relaxation_factor(material, config),
            c * scale)


class SchurOperator:
    """Reduced operator of the implicit density solve.

    ``(1/dt + sigma_a) I - (1/(|D_Omega| eps^2)) sum_j c_j D^(j,-) diag(R)
    D^(j,+)`` with ``c_j = sum_m w_m (Omega^j_m)^2`` and ``R`` the pointwise
    relaxation factor, one term per axis since the quadrature's cross
    moments vanish; symmetric positive definite and solved by
    :func:`density_solver`: by FFT on homogeneous media, else by conjugate
    gradients on its stencil.  No matrix is assembled.
    """

    def __init__(self, grid, quad, material: MaterialField, config: SolverConfig):
        self._solve = density_solver(*_schur_terms(grid, quad, material, config))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._solve(b)


def build_schur(
    grid: StaggeredGrid, quad: QuadratureSet, material: MaterialField, config: SolverConfig
) -> SchurOperator:
    """The reduced density operator for the current ``(dt, eps)``, its solve set up."""
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
    first, ``step(ctx, rho, micro, t_next)``.  Each constant is formed once,
    by the expression the steps' whole-array formulas use, so the steps keep
    their bits.
    """

    grid: StaggeredGrid
    quad: QuadratureSet
    material: MaterialField
    config: SolverConfig
    schur: Optional[SchurOperator]  # IMEX-S coupling
    integrator: Optional[str]  # a key of lowrank.INTEGRATORS; None for full rank
    tau: float  # relative truncation tolerance of aBUG and AP-aBUG
    R: np.ndarray  # relaxation factor (1/dt + sigma_s/eps^2 + sigma_a)^-1
    R_dt: np.ndarray  # R / dt, the full-rank sweep's relaxation of dt B
    sig: np.ndarray  # sigma_s/eps^2 + sigma_a on the g family
    k_denom: np.ndarray  # 1/dt + sig, the low-rank K-step denominator
    rho_denom: np.ndarray  # 1/dt + sigma_a, the IMEX density denominator
    # Q^(j) w, one column per axis, for the factored Schur flux; a transposed
    # view of qw_rows would change the rounding of its BLAS product
    qw: np.ndarray
    qw_rows: np.ndarray  # the same, one contiguous row per axis (the sweep)
    ang_splits: dict  # (q, a, b) of the low-rank angular factors, _angular_splits
    sides: tuple  # ops.upwind_runs: per axis, (c0, c1, side) column runs
    scales: tuple  # q_j dt / (eps h_j) per axis, the sweep's advection scales
    blocks: list  # the sweep's block plan, _row_blocks
    # (micro_norm_w, zero_density_residual) of the initial micro state
    # (run._dense), then of the one each step's last sweep wrote (_micro_sweep)
    swept: np.ndarray


def step_context(grid, quad, material, config, schur=None, integrator=None,
                 tau=1e-5) -> StepContext:
    """The :class:`StepContext` of a run; ``schur`` for IMEX-S coupling,
    ``integrator``, a key of :data:`lrtrans.lowrank.INTEGRATORS`, for a
    low-rank micro update, which :func:`lrtrans.lowrank.micro_step` runs; any
    other ``integrator`` raises ``ValueError``."""
    from .lowrank import INTEGRATORS  # lowrank imports this module
    if integrator not in (None, *INTEGRATORS):
        raise ValueError(f"unknown integrator {integrator!r}, not in {(None, *INTEGRATORS)}")
    # a negated comparison, so that NaN fails it
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    eps, dt = config.epsilon, config.dt
    sig = material.sigma_s_g / (eps * eps) + material.sigma_a_g
    qw = quad.omega * quad.w[:, None]
    R = relaxation_factor(material, config)
    return StepContext(
        grid=grid, quad=quad, material=material, config=config, schur=schur,
        integrator=integrator, tau=tau,
        R=R,
        R_dt=R / dt,
        sig=sig,
        k_denom=1.0 / dt + sig,
        rho_denom=1.0 / dt + material.sigma_a_rho,
        qw=qw,
        qw_rows=np.ascontiguousarray(qw.T),
        ang_splits=_angular_splits(quad),
        sides=upwind_runs(quad),
        scales=tuple(quad.q(j) * (dt / (eps * grid.spacing[j])) for j in range(grid.dim)),
        blocks=_row_blocks(grid, quad.n),
        swept=np.full(2, np.nan),
    )


def _angular_splits(quad: QuadratureSet) -> dict:
    """``weighted -> (q, a, b)`` of ``lowrank._angs``, one column per split:
    ``q_minus(axis)`` per axis, then ``q_plus(axis)`` per axis; ``a = m``
    and ``b = m q`` weighted, ``a = 1`` and ``b = w q`` unweighted."""
    q = np.column_stack([quad.q_minus(j) for j in range(quad.dim)]
                        + [quad.q_plus(j) for j in range(quad.dim)])
    a = np.ones_like(q)
    return {True: (q, quad.m[:, None] * a, quad.m[:, None] * q),
            False: (q, a, quad.w[:, None] * q)}


def _advect_rows(ctx, G, lo, hi, out, work, prev, first):
    """Rows ``lo:hi`` of ``sum_j (raw upwind increment of G along j) *
    ctx.scales[j]``, written into ``out``; ``work``, shaped like ``out``, is
    scratch for the second axis.

    ``Q^(j,+) Q^(j,-) = 0``: each ordinate moves either way along an axis,
    never both, so only its upwind increment is formed, one stencil call
    per run of columns ``(c0, c1, side)`` in ``ctx.sides[j]``
    (:func:`~lrtrans.ops.upwind_runs`), and multiplied once by the
    per-column ``ctx.scales[j] = q_j dt / (eps h_j)``.  The dropped term is
    a zero.

    ``lo`` and ``hi`` are multiples of the points in one row of the outer
    axis (``nx`` in 2D, 1 in 1D); the rows may straddle the two point
    families.  The outer-axis difference reads the old values of the halo
    rows the sweep has already overwritten from ``prev``, the outer row
    before ``lo``, read only by the backward (``-1``) runs of the outer axis,
    and ``first[f]``, the first outer row of family ``f``, read only by its
    forward (``+1``) runs (each ``(points per row, N)``; the other columns
    are not read).
    """
    grid = ctx.grid
    fam_shape = grid.block_shape[1:]
    L = fam_shape[0]
    row = math.prod(fam_shape[1:])
    r0, r1 = lo // row, hi // row
    fams = G.reshape((2,) + fam_shape + G.shape[1:])
    halo = [h.reshape((1,) + fam_shape[1:] + G.shape[1:]) for h in (prev, *first)]
    for j in range(grid.dim):
        d = out if j == 0 else work
        rows = d.reshape((r1 - r0,) + fam_shape[1:] + G.shape[1:])
        for c0, c1, side in ctx.sides[j]:
            if j < grid.dim - 1:
                _line_increment(G[lo:hi, c0:c1], d[:, c0:c1], 1, grid.cells[0], side)
                continue
            c = np.s_[..., c0:c1]
            for fam in range(2):
                s0, s1 = max(r0, fam * L), min(r1, (fam + 1) * L)
                if s0 < s1:
                    _stencil(fams[fam][c], rows[s0 - r0:s1 - r0][c], side,
                             s0 - fam * L, s1 - fam * L, halo[0][c], halo[1 + fam][c])
        d *= ctx.scales[j]
        if j:
            out += d
    return out


def _stencil(f, d, side, lo, hi, prev, first):
    """Rows ``lo:hi`` of the periodic one-cell increment along axis 0 of ``f``.

    Writes ``d[k] = f[lo + k + 1] - f[lo + k]`` forward (``side > 0``) and
    ``f[lo + k] - f[lo + k - 1]`` backward, indices modulo ``len(f)``, so
    rows outside ``lo:hi`` serve as the halo, except the two the sweep has
    already overwritten: ``prev`` stands in for ``f[lo - 1]`` (read when
    ``lo > 0``) and ``first`` for ``f[0]`` (read by the last row), each
    shaped like ``f[:1]``.  The caller scales the increments, on its own
    output.
    """
    n = len(f)
    if side > 0:
        m = min(hi, n - 1)
        np.subtract(f[lo + 1:m + 1], f[lo:m], out=d[:m - lo])
        if hi == n:
            np.subtract(first, f[-1:], out=d[-1:])
        return
    np.subtract(f[lo:lo + 1], prev if lo else f[-1:], out=d[:1])
    np.subtract(f[lo + 1:hi], f[lo:hi - 1], out=d[1:])


def _micro_sweep(ctx, G, explicit=False, t_next=0.0, grad=None):
    """Micro update of one step in place on ``G``, one block of rows at a time.

    With ``explicit``, replaces ``G`` by ``dt B``, where ``B = G/dt - (1/eps)
    A(G)(I - w 1^T/|D|) + source(t_next)`` is the explicit part, formed as
    ``G - (sum_j scales[j] * increment_j G)(I - w 1^T/|D|) + (dt P) A^T``
    with the raw upwind increments and ``ctx.scales[j] = q_j dt / (eps
    h_j)``.  With ``grad = (PJ, AJ)`` it then subtracts ``(dt/eps^2 PJ)
    AJ^T``, accumulated into ``G`` by one BLAS ``dgemm``, multiplies by
    ``ctx.R_dt = R / dt`` and raises
    :class:`DivergenceError` on a non-finite value (or one whose square
    overflows), leaving ``G`` partly updated.  Between the two sweeps of
    :func:`imex_s_step`, ``G`` therefore holds ``dt B``.  An explicit sweep
    returns the first angular moments ``M[j] = (R B) Q^(j) w``, ``(dim,
    n_points)``, formed as ``((R/dt) dt B) Q^(j) w``, from which the density
    update takes its flux divergence; other sweeps return ``None``.  A sweep
    with ``grad`` is the step's last write of each block, so it also forms
    the row sums ``(G * G) w`` and ``G w`` of the trace record and leaves
    ``(micro_norm_w, zero_density_residual)`` in ``ctx.swept``, bit for bit
    those :mod:`lrtrans.diagnostics` would compute from ``G``
    (:func:`~lrtrans.ops.inner_w` sums the same row products).

    Each block is written straight into ``G``, so ``G`` must be C-contiguous
    (``ValueError`` otherwise): the ``dgemm`` writes into the transposed
    block, which f2py would silently copy were it not Fortran-contiguous.
    A block's explicit part reads the outer-axis rows next to it, so two
    kinds of old values are kept before they are overwritten, each only in
    the columns that read it: the block's last outer row in the backward
    runs of the outer axis, the halo of the next block, and, before the
    first block, the first outer row of each point family in its forward
    runs, the periodic halo of the family's last row.
    """
    if not G.flags.c_contiguous:
        raise ValueError("the micro state of a full-rank step must be C-contiguous")
    grid, quad, dt = ctx.grid, ctx.quad, ctx.config.dt
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
            P, A = ctx.material.micro_source(t_next)
            source = (P * dt, np.asfortranarray(A))
        # the columns of the outer axis that read the previous row / first rows
        back, fwd = ([np.s_[..., c0:c1] for c0, c1, side in ctx.sides[-1] if side == s]
                     for s in (-1, +1))
        for c in fwd:  # each family's first row, before any block is written
            halo[1:][c] = G.reshape(2, half, quad.n)[:, :row][c]
    if grad is not None:
        PJ, AJ = grad
        PJ_s, AJ = PJ * (dt / ctx.config.epsilon**2), np.asfortranarray(AJ)
    for lo, hi in ctx.blocks:
        a, g = work[: hi - lo], G[lo:hi]
        if explicit:
            _advect_rows(ctx, G, lo, hi, a, scratch[: hi - lo], halo[0], halo[1:])
            for c in back:
                halo[0][c] = G[hi - row:hi][c]
            project_out_mean(quad, a, out=a)
            g -= a
            if source is not None:
                dgemm(1.0, source[1], source[0][lo:hi].T, beta=1.0, c=g.T, overwrite_c=True)
        if grad is not None:
            dgemm(-1.0, AJ, PJ_s[lo:hi].T, beta=1.0, c=g.T, overwrite_c=True)
            g *= ctx.R_dt[lo:hi, None]
            np.matmul(g, quad.w, out=sums[1, lo:hi])
            # a non-finite value of g makes its row's sum of squares non-finite
            _require_finite(np.matmul(np.multiply(g, g, out=a), quad.w, out=sums[0, lo:hi]))
        if explicit:
            m = g if grad is not None else np.multiply(g, ctx.R_dt[lo:hi, None], out=a)
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
    is then partly updated.  ``G`` must be C-contiguous (``ValueError``
    otherwise, before anything is written).
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

    The density solves the reduced system set up in ``ctx.schur``; the
    fluctuation is then recovered pointwise from the new density.  Like
    :func:`imex_step`, updates a C-contiguous ``G`` in place and returns
    ``(rho_new, G)``.
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
