"""Energy-consistent low-rank integrators for the microscopic component.

The microscopic fluctuation ``G`` is evolved through orthonormal factors
``X S V^T``.  In the default weighted mode the factors represent ``G M``
(``M`` the square-root weight matrix), so Frobenius geometry on the factors
matches the quadrature-weighted energy norm and the basis-update/Galerkin
steps inherit the dissipation of the full-rank scheme.  The unweighted mode
factors ``G`` directly with Euclidean-orthonormal ``V``; it exists solely to
demonstrate how that choice breaks the energy alignment, and is selected with
``MicroStateLowRank.weighted = False``.

Integrators
-----------
:func:`micro_step` runs one step of ``ctx.integrator``, the integrator the
run resolved into its :class:`~lrtrans.fullrank.StepContext`: the implicit
pointwise K step :func:`_k_step`, the implicit r x r L step :func:`_l_step`,
the integrator's basis update, the implicit Galerkin S step, and the
integrator's truncation; :data:`INTEGRATORS` maps each name to its basis
update and truncation.  The S step is the L step of the new state, projected
onto ``V1``: with ``L_tilde = V1 S_tilde^T`` on ``(X1, C1)`` its right-hand
side is ``V1^T`` times the L step's, and its matrix ``I/dt + X1^T diag(sigma)
X1`` is symmetric, so ``S1 = (V1^T L1)^T``.  ``BUG`` re-orthonormalizes
and keeps rank r.  ``aBUG`` augments the bases with the K/L updates (rank
<= 2r) and truncates the S-step result by the relative singular-value
tolerance ``ctx.tau``; ``AP-aBUG`` also adds the discrete diffusion-limit
directions, pinned as untruncatable leading columns.
Every angular basis comes from :func:`constrained_qr`, so ``1^T M V = 0``
(weighted) or ``w^T V = 0`` (unweighted) holds to machine precision, and
both modes cap the rank at ``n_ordinates - 1``.

Basis extension
---------------
The old basis ``X`` is orthonormal and lies in the augmented span, so
plain aBUG keeps it, ``X1 = [X, Q]``, and orthonormalizes only ``K1``
(:func:`_extend_basis`: project out ``X`` twice, one QR of the
``n_points x r`` block, and one more projection and QR if ``max |X^T Q|``
exceeds ``_REORTH_BOUND``).  ``S_tilde = X1^T X S V^T V1`` is then the
embedding ``[S V^T V1; 0]``.  AP-aBUG keeps one QR of
``[limit directions, K1, X]``, so its pinned block leads.  Every basis QR
is :func:`_qr`, compact-WY Householder (LAPACK ``dgeqrt`` and
``dgemqrt``), whose panel and whose formation of ``Q`` run as GEMMs.

Carried Galerkin blocks
-----------------------
On the periodic lattice ``D^(j,-) = -(D^(j,+))^T`` (summation by parts),
so the L and S steps need only ``X^T D^(j,+) X``.  The basis update forms the
stack ``C = [X1^T D^(j,+) X1 per axis, X1^T diag(sigma) X1]`` once, by
:func:`_galerkin_stack` (after an extension only the ``Q`` blocks are new);
it travels as ``MicroStateLowRank.C``, truncation rotates it with ``X``,
and the next L step reads it with no ``n_points``-row work (the initial
state has ``C = None``).  A step reads ``X`` through its undivided
increments: ``D (X S) = (h D X) S / h``, so one product of the increment
block (:func:`_block_product`) gives the K step's right-hand side and the
Schur fluxes without ``K = X S``.  BUG writes ``X1`` and its increments
into a new block, ``MicroStateLowRank.W``; truncation drops it.

Layout
------
Every ``n_points``-row array of a step is column-major (Fortran order),
the layout LAPACK returns its ``Q`` in: ``X``, the increment blocks, the
product whose K columns become ``K1``, and ``X1 = [X, Q]``.  Products with
a tall factor on the left are formed transposed (:func:`_fmul`) or by
``dgemm``, so :func:`grid.increment` and :func:`grid.shift` write straight
into column slabs, the QR factorizes ``K1`` in place, and ``dgemqrt``
writes ``X1`` (BUG) or the extension ``Q`` straight into its slab.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dgemm

from .angular import QuadratureSet
from .fullrank import DivergenceError, StepContext, _macro_source
# ``diff`` is importable here as in every module that differences, for tracers
from .grid import StaggeredGrid, diff, increment, shift  # noqa: F401
from .ops import density_grad, flux_div_factored, moment_div


@dataclass
class MicroStateLowRank:
    """Low-rank factors of the microscopic state.

    ``X`` is ``(n_points, r)``, ``S`` is ``(r, r)`` (rectangular only in
    rank-capped corner cases), ``V`` is ``(n_ordinates, r)``; ``X`` and ``V``
    have orthonormal columns.  ``weighted=True`` means the factors represent
    ``G M`` and ``V`` satisfies the zero-density constraint ``1^T M V = 0``;
    unweighted factors represent ``G`` and ``V`` satisfies ``w^T V = 0``.
    ``C`` stacks ``C[j] = X^T D^(j,+) X`` per axis and
    ``C[dim] = X^T diag(sigma) X``.  It is ``None`` until the first step (the
    initial state does not know sigma), which computes it from ``X``.
    ``W``, carried by BUG steps, is the block ``[X | h_j D^(j,+) X per axis]``
    of ``X`` (a view of it) and its undivided increments, or ``None``.
    """

    X: np.ndarray
    S: np.ndarray
    V: np.ndarray
    weighted: bool = True
    C: Optional[np.ndarray] = None
    W: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return self.X.shape[1]


@dataclass
class StepInfo:
    """Per-step scalars recorded by the coupled update."""

    s_tilde_fro: float
    pre_truncation_rank: int
    rank: int


# ---------------------------------------------------------------------------
# factor construction
# ---------------------------------------------------------------------------

def _signs(Q: np.ndarray) -> np.ndarray:
    """Column signs that make the largest-magnitude entry (the first of a
    tie) of each positive, ``+1`` for a zero column; found without ``|Q|``."""
    hi, lo = Q.max(axis=0, initial=0.0), -Q.min(axis=0, initial=0.0)
    signs = np.where(hi < lo, -1.0, 1.0)
    for c in np.flatnonzero((hi == lo) & (hi > 0)):
        signs[c] = np.sign(Q[np.abs(Q[:, c]).argmax(), c])
    return signs


def _fix_signs(Q: np.ndarray) -> np.ndarray:
    """Scale the columns of ``Q`` in place by :func:`_signs`; returns ``Q``."""
    if Q.size:
        Q *= _signs(Q)
    return Q


#: Panel width of the compact-WY QR (``nb`` of LAPACK ``dgeqrt``), capped
#: at the column count.  Measured at 8192 x {50, 100, 200}, 64 is fastest.
_QR_BLOCK = 64


def _qr(B: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Orthonormal factor of the economic QR factorization of ``B``.

    Compact-WY Householder QR: LAPACK ``dgeqrt`` factorizes ``B`` with a
    recursive level-3 panel, and ``dgemqrt`` applies ``Q`` to ``[I; 0]``
    with GEMMs.  ``B`` is overwritten: every caller passes a temporary,
    and a column-major one is factorized in place, without a copy.
    ``out``, a column-major ``(len(B), k)`` block with
    ``k <= min(B.shape)``, receives the leading ``k`` columns of ``Q`` in
    place; by default ``k = min(B.shape)`` columns are returned.
    """
    m, n = B.shape
    k = min(m, n)
    if out is None:
        out = np.zeros((m, k), order="F")
    else:
        out.fill(0.0)
    if out.shape[1] == 0:
        return out
    np.fill_diagonal(out, 1.0)
    a, t, _ = lapack.dgeqrt(min(_QR_BLOCK, k), B, overwrite_a=True)
    Q, _ = lapack.dgemqrt(a[:, :k], t[:, :k], out, overwrite_c=True)
    return Q


def _hcat(blocks: list) -> np.ndarray:
    """Column-major ``np.hstack(blocks)``."""
    out = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)), order="F")
    return np.concatenate(blocks, axis=1, out=out)


def _fmul(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``X @ P`` for a tall ``X``, column-major."""
    return (P.T @ X.T).T


def constrained_qr(L: np.ndarray, quad: QuadratureSet, weighted: bool = True) -> np.ndarray:
    """Orthonormal basis for ``range(L)`` inside the zero-density subspace.

    Projects onto the subspace ``{v : c^T v = 0}`` for ``c =
    quad.constraint(weighted)``, factorizes there, and maps back, so the
    result satisfies the constraint to machine precision regardless of the
    conditioning of ``L``; its columns are Euclidean-orthonormal in both
    factor modes.  Rank-deficient inputs yield
    deterministic constraint-satisfying completion columns.  At most
    ``n_ordinates - 1`` columns are returned.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != quad.n:
        raise ValueError(f"expected ({quad.n}, r) input, got {L.shape}")
    return _fix_signs(quad.z_apply(_qr(quad.z_applyt(L, weighted)), weighted))


def _complete_basis(Q: np.ndarray, extra: int, rng: np.random.Generator) -> np.ndarray:
    if extra <= 0:
        return Q
    n, k = Q.shape
    trial = rng.standard_normal((n, extra))
    full = _qr(_hcat([Q, trial]) if k else trial)
    return _hcat([Q, _fix_signs(full[:, k : k + extra])])


#: Largest accepted ``max |X^T Q|`` of a basis extension after its two
#: projections; above it the block is projected once more and factorized again.
_REORTH_BOUND = 1e-14


def _extend_basis(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-major ``X1 = [X, Q]`` with orthonormal columns, at most ``n``
    of them, and ``range(B)`` inside ``range(X1)``, for orthonormal ``X``.

    ``Q`` is written straight into its column slab of ``X1``.  The
    re-projection catches rank-deficient ``B`` (zero, inside ``range(X)``,
    repeated columns), whose QR completes with directions that need not be
    orthogonal to ``X``.
    """
    n, r = X.shape
    X1 = np.empty((n, r + min(B.shape[1], n - r)), order="F")
    X1[:, :r] = X
    Q = X1[:, r:]
    if Q.shape[1] == 0:
        return X1
    B = B - _fmul(X, X.T @ B)
    B -= _fmul(X, X.T @ B)
    _qr(B, Q)
    if np.abs(X.T @ Q).max() > _REORTH_BOUND:
        _qr(Q - _fmul(X, X.T @ Q), Q)
    return X1


def _forward_increments(grid, X, out=None):
    """``[Delta^(j,+) X per axis]``, column-major, written into ``out`` if given."""
    r = X.shape[1]
    if out is None:
        out = np.empty((len(X), grid.dim * r), order="F")
    for j in range(grid.dim):
        increment(grid, j, +1, X, out=out[:, j * r:(j + 1) * r])
    return out


_CHUNK_ROWS = 4096  #: rows per chunk of :func:`_galerkin_stack`, fastest at 32768 x 10


def _galerkin_stack(grid, X1, sig, DQ, C=None, Y=None):
    """``(C1, X1^T Y)``: ``C1`` stacks ``X1^T D^(j,+) X1`` per axis and
    ``X1^T diag(sig) X1``; ``X1^T D^(j,-) X1 = -(.)^T`` (summation by parts).

    ``DQ`` is :func:`_forward_increments` of ``Q`` for ``X1 = [X, Q]``;
    ``C``, the stack of ``X``, is reused, and ``Y``, then ``X``'s forward
    increments, gives ``Q^T D^(j,+) X``.  The products are summed over row
    chunks, so each chunk of ``X1`` is read from memory once.
    """
    r = 0 if C is None else C.shape[1]
    d, k = grid.dim, X1.shape[1]
    q = k - r
    G, gram = np.zeros((k, d * q)), np.zeros((k, q))
    XY = np.zeros((k, 0 if Y is None else Y.shape[1]))
    for lo in range(0, len(X1), _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        x = X1[rows]
        G += x.T @ DQ[rows]
        gram += x.T @ (sig[rows, None] * x[:, r:])
        if Y is not None:
            XY += x.T @ Y[rows]
    C1 = np.empty((d + 1, k, k))
    if r:
        C1[:, :r, :r] = C
    for j in range(d):
        C1[j, :, r:] = G[:, j * q:(j + 1) * q] / grid.spacing[j]
        C1[j, r:, :r] = XY[r:, j * r:(j + 1) * r] / grid.spacing[j]
    C1[-1, :, r:] = gram
    C1[-1, r:, :r] = gram[:r].T
    return C1, XY


def factorize_micro(
    grid: StaggeredGrid,
    quad: QuadratureSet,
    factors: tuple,
    rank: int,
    weighted: bool = True,
    seed: int = 0,
) -> MicroStateLowRank:
    """Best rank-``rank`` factorization of the microscopic state ``G = P A^T``
    given by its factors ``(P, A)``, ``(n_points, k)`` and ``(n_ordinates, k)``.

    The factorization is of ``G M = P (M A)^T`` (weighted) or ``G = P A^T``
    after removing the density mode (the component along
    ``quad.constraint(weighted)``, which the constrained representation
    cannot hold) from the angular factor, and the rank is capped at the
    zero-density subspace dimension ``n_ordinates - 1``.  The
    singular triplets come from the QR factorizations of both factors and
    the SVD of the ``k x k`` product of their triangular factors, so the
    cost is ``O((n_points + n_ordinates) k^2)`` and no ``n_points x
    n_ordinates`` array is formed.  If the state has lower numerical rank,
    the bases are padded with deterministic (seeded) orthonormal columns and
    zero coupling entries; isotropic initial data (``k = 0``) is all
    padding, with no factorization.
    """
    rng = np.random.default_rng(seed)
    r_eff = min(rank, grid.n_points, quad.z_dim)
    X, Vm = factors
    s = np.zeros(0)
    if X.shape[1]:
        if weighted:
            Vm = quad.m[:, None] * Vm
        c = quad.constraint(weighted)
        chat = c / np.linalg.norm(c)
        Vm = Vm - np.outer(chat, chat @ Vm)
        Qx, Rx = np.linalg.qr(X)
        Qv, Rv = np.linalg.qr(Vm)
        U, s, Wt = np.linalg.svd(Rx @ Rv.T, full_matrices=False)
        keep = min(int(np.sum(s > (s[0] * 1e-14 if s[0] > 0 else np.inf))), r_eff)
        X = Qx @ U[:, :keep]
        signs = _signs(X)
        X *= signs
        Vm = (Qv @ Wt[:keep].T) * signs
        s = s[:keep]
    return _seeded_state(quad, X, s, Vm, r_eff, weighted, rng)


def _seeded_state(quad, X, s, Vm, r_eff, weighted, rng):
    """State from leading singular triplets ``(X, s, Vm)``, padded to rank
    ``r_eff`` with seeded orthonormal columns (the angular ones constrained)
    and zero couplings."""
    keep = s.size
    X = _complete_basis(X, r_eff - keep, rng)
    Vz = quad.z_applyt(Vm, weighted) if keep else np.zeros((quad.z_dim, 0))
    V = quad.z_apply(_complete_basis(Vz, r_eff - keep, rng), weighted)
    S = np.zeros((r_eff, r_eff))
    S[:keep, :keep] = np.diag(s)
    return MicroStateLowRank(X=X, S=S, V=V, weighted=weighted)


def _g_angular(quad, state, A):
    """Angular factor of ``G`` from the matching factor of the represented
    matrix (``G M`` in weighted mode, where the rows are divided by ``m``)."""
    return A / quad.m[:, None] if state.weighted else A


# ---------------------------------------------------------------------------
# basis-update & Galerkin machinery
# ---------------------------------------------------------------------------

def _angs(ctx, Y, weighted):
    """``(n_ordinates, 2 dim, r)`` angular factors ``(M^-1 Q Pi M)^T Y``
    (weighted) or ``(Q Pi)^T Y`` of ``Q = Q^(j,-)`` per axis, then ``Q^(j,+)``
    per axis, ``Pi = I - w 1^T / |D|``, formed as ``q Y - a (Y^T b)^T / |D|``."""
    q, a, b = ctx.ang_splits[weighted]
    return q[:, :, None] * Y[:, None, :] - a[:, :, None] * (b.T @ Y) / ctx.quad.domain_measure


def _block_product(ctx, state):
    """``(state, P)``: the state carrying its block ``W`` (formed unless
    carried) and the column-major ``P = [W | B] coef``, for the backward
    block ``B``, the shifted forward slabs, bit for bit.

    For ``K = X S``, ``P`` holds ``K/dt - sum D K ang(V)^T V / eps`` and
    the Schur fluxes ``(K/dt - sum D K ang(V)^T / eps) Q^(j) w``.  Slab
    ``1 + s`` of ``[W | B]`` meets split ``s`` of :func:`_angs`.
    """
    grid, S, V, X = ctx.grid, state.S, state.V, state.X
    d, r, k = grid.dim, X.shape[1], S.shape[1]
    eps, dt = ctx.config.epsilon, ctx.config.dt
    Y = _hcat([V, _g_angular(ctx.quad, state, ctx.qw)])
    AY = _angs(ctx, V, state.weighted).reshape(len(V), -1).T @ Y
    coef = np.empty(((1 + 2 * d) * r, Y.shape[1]))
    coef[:r, :k] = S / dt
    coef[:r, k:] = S @ (V.T @ Y[:, k:]) / dt
    scale = -1.0 / (eps * np.tile(grid.spacing, 2))
    coef[r:] = (S @ AY.reshape(2 * d, k, -1) * scale[:, None, None]).reshape(-1, Y.shape[1])
    # P is allocated before the increment blocks: the malloc heap then
    # reuses its holes from step to step (peak RSS 2 MiB lower on 128^2, r = 10)
    P = np.empty((len(X), Y.shape[1]), order="F")
    if state.W is None or X.base is not state.W:
        W = np.empty((len(X), (1 + d) * r), order="F")
        W[:, :r] = X
        _forward_increments(grid, X, W[:, r:])
        state = replace(state, X=W[:, :r], W=W)
    W = state.W
    B = np.empty((len(X), d * r), order="F")
    for j in range(d):
        shift(grid, j, W[:, (1 + j) * r:(2 + j) * r], out=B[:, j * r:(j + 1) * r])
    P = dgemm(1.0, W, coef[:W.shape[1]], c=P, overwrite_c=True)
    return state, dgemm(1.0, B, coef[W.shape[1]:], beta=1.0, c=P, overwrite_c=True)


def _k_step(ctx, state, PK, PJ, AJ, src):
    """``K1`` of the implicit pointwise K step, ``V`` fixed, in place on
    ``PK``, the K columns of :func:`_block_product`."""
    V, eps = state.V, ctx.config.epsilon
    PK = dgemm(-1.0 / (eps * eps), PJ.T, AJ.T @ V, beta=1.0, c=PK, trans_a=True, overwrite_c=True)
    if src is not None:
        PK = dgemm(1.0, src[0].T, src[1].T @ V, beta=1.0, c=PK, trans_a=True, overwrite_c=True)
    PK /= ctx.k_denom[:, None]
    return PK


def _l_step(ctx, state, PJ, AJ, src, onto=None):
    """``L1`` of the implicit r x r L step from ``L = V S^T``, ``X`` fixed;
    with an orthonormal angular basis ``onto``, ``onto^T L1`` (the right-hand
    side is projected before the solve)."""
    X, S, V, C, wgt = state.X, state.S, state.V, state.C, state.weighted
    eps, dt = ctx.config.epsilon, ctx.config.dt
    # (D^(j,-) X)^T X = -C[j] and (D^(j,+) X)^T X = C[j]^T
    L = V @ S.T
    d = ctx.grid.dim
    coef = np.concatenate([-C[:d].transpose(0, 2, 1), C[:d]]).reshape(-1, C.shape[2])
    rhsL = L / dt + _angs(ctx, L, wgt).reshape(len(L), -1) @ coef / eps
    rhsL -= AJ @ (X.T @ PJ).T / (eps * eps)
    if src is not None:
        rhsL += src[1] @ (X.T @ src[0]).T
    if onto is not None:
        rhsL = onto.T @ rhsL
    return np.linalg.solve((np.eye(X.shape[1]) / dt + C[-1]).T, rhsL.T).T


def _bug_bases(ctx, state, K1, L1, PJ):
    """BUG: the bases of ``K1`` and ``L1``, ``S_tilde = X1^T X S V^T V1``;
    ``X1`` and its forward increments fill the block ``W1``."""
    V1 = constrained_qr(L1, ctx.quad, state.weighted)
    k = min(K1.shape)
    W1 = np.empty((len(K1), (1 + ctx.grid.dim) * k), order="F")
    X1 = _fix_signs(_qr(K1, W1[:, :k]))
    C1, XtX = _galerkin_stack(ctx.grid, X1, ctx.sig, _forward_increments(ctx.grid, X1, W1[:, k:]),
                              Y=state.X)
    return X1, XtX @ state.S @ (state.V.T @ V1), V1, C1, W1


def _abug_bases(ctx, state, K1, L1, PJ):
    """aBUG: ``X1 = [X, Q]`` (:func:`_extend_basis`) and the basis of
    ``[L1, V]``; ``S_tilde`` is the embedding ``[S V^T V1; 0]``."""
    V1 = constrained_qr(_hcat([L1, state.V]), ctx.quad, state.weighted)
    X1 = _extend_basis(state.X, K1)
    S_tilde = np.zeros((X1.shape[1], V1.shape[1]))
    S_tilde[:state.rank] = state.S @ (state.V.T @ V1)
    r = state.rank
    C1, _ = _galerkin_stack(ctx.grid, X1, ctx.sig, _forward_increments(ctx.grid, X1[:, r:]),
                            state.C, state.W[:, r:])
    return X1, S_tilde, V1, C1, None


def _ap_abug_bases(ctx, state, K1, L1, PJ):
    """AP-aBUG: BUG's bases of ``[-(sigma_s)^{-1} D^(j,+) rho, K1, X]`` and
    ``[M Q^(j) 1, L1, V]``, led by the diffusion-limit directions."""
    if not state.weighted:
        raise ValueError("diffusion-limit enrichment requires weighted factors")
    limit = np.column_stack([ctx.quad.m * ctx.quad.q(j) for j in range(ctx.quad.dim)])
    spatial = _hcat([-PJ / ctx.material.sigma_s_g[:, None], K1, state.X])
    return _bug_bases(ctx, state, spatial, _hcat([limit, L1, state.V]), PJ)


def galerkin_stage(ctx: StepContext, state: MicroStateLowRank, rho_for_grad: np.ndarray,
                   t_next: float = 0.0, PK: Optional[np.ndarray] = None) -> tuple:
    """K step, L step, basis update and S step of ``ctx.integrator``.

    Returns ``(stage, S_tilde)``: the new state before truncation, and the
    coupling matrix ``S_tilde = X1^T X S V^T V1`` its S step started from.
    ``PK``, which the K step overwrites, is the K columns of the product of
    ``_block_product(ctx, state)`` if the caller formed it.
    """
    grid, quad, material, wgt = ctx.grid, ctx.quad, ctx.material, state.weighted
    if PK is None:
        state, P = _block_product(ctx, state)
        PK = P[:, :state.S.shape[1]]
    if state.C is None:  # the first step of a run
        C, _ = _galerkin_stack(grid, state.X, ctx.sig, state.W[:, state.rank:])
        state = replace(state, C=C)
    PJ, AJ = density_grad(grid, quad, rho_for_grad)
    src = material.micro_source(t_next) if material.micro_source is not None else None
    if wgt:  # the steps take J M and the source times M, in factored form
        AJ = quad.m[:, None] * AJ
        if src is not None:
            src = (src[0], quad.m[:, None] * src[1])
    L1 = _l_step(ctx, state, PJ, AJ, src)
    K1 = _k_step(ctx, state, PK, PJ, AJ, src)
    bases, _ = INTEGRATORS[ctx.integrator]
    X1, S_tilde, V1, C1, W1 = bases(ctx, state, K1, L1, PJ)
    stage = MicroStateLowRank(X=X1, S=S_tilde, V=V1, weighted=wgt, C=C1, W=W1)
    return replace(stage, S=_l_step(ctx, stage, PJ, AJ, src, onto=V1).T), S_tilde


def micro_step(ctx: StepContext, state, rho_for_grad, t_next=0.0, PK=None):
    """One step of ``ctx.integrator``, truncated; returns ``(state, StepInfo)``."""
    stage, S_tilde = galerkin_stage(ctx, state, rho_for_grad, t_next, PK)
    _, truncate = INTEGRATORS[ctx.integrator]
    new = truncate(ctx, stage)
    return new, StepInfo(float(np.linalg.norm(S_tilde)), min(stage.S.shape), new.rank)


def _kept_rank(s: np.ndarray, tau: float, total: float) -> int:
    if s.size == 0 or total == 0.0:
        return 0
    suffix = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    below = suffix <= tau * total
    return int(np.argmax(below)) if below.any() else s.size


def _truncate_plain(ctx, state):
    """Keep the leading singular directions of ``S1`` at the tolerance
    ``ctx.tau``; ``X2 = X1 U`` and the carried matrices rotate to ``U^T C1 U``."""
    U, s, Wt = np.linalg.svd(state.S)
    k = max(_kept_rank(s, ctx.tau, float(np.linalg.norm(s))), 1)
    signs = _signs(U[:, :k])
    Uk = U[:, :k] * signs
    return replace(state, X=_fmul(state.X, Uk), S=np.diag(s[:k]),
                   V=state.V @ (Wt[:k].T * signs), C=Uk.T @ state.C @ Uk, W=None)


def _truncate_pinned(ctx, state):
    """Truncate only the complement of the ``dim`` pinned leading basis columns.

    The pinned columns of each basis are kept verbatim; the tolerance rule
    (``ctx.tau``) is applied to the singular values of the free rows and
    free columns of the coupling matrix, measured against the full coupling
    norm, and the retained free directions are rotated in:
    ``X2 = X1 T``, ``V2 = V1 W`` and ``S2 = T^T S1 W`` with
    ``T = blockdiag(I, Uk)``, ``W = blockdiag(I, Wk)``, and the carried
    matrices become ``T^T C1 T``.
    """
    S1, tau = state.S, ctx.tau
    d = min(ctx.grid.dim, min(S1.shape))
    total = float(np.linalg.norm(S1))
    Ua, sa, _ = np.linalg.svd(S1[d:, :], full_matrices=False)
    _, sb, Wbt = np.linalg.svd(S1[:, d:], full_matrices=False)
    k = max(_kept_rank(sa, tau, total), _kept_rank(sb, tau, total))
    k = min(k, S1.shape[0] - d, S1.shape[1] - d)
    T = scipy.linalg.block_diag(np.eye(d), _fix_signs(Ua[:, :k]))
    W = scipy.linalg.block_diag(np.eye(d), _fix_signs(Wbt[:k].T))
    return replace(state, X=_fmul(state.X, T), S=T.T @ S1 @ W, V=state.V @ W,
                   C=T.T @ state.C @ T, W=None)


#: Each integrator's basis update, ``(ctx, state, K1, L1, PJ) -> (X1,
#: S_tilde, V1, C1, W1)``, and its truncation, ``(ctx, state) -> state``.
INTEGRATORS = {
    "BUG": (_bug_bases, lambda ctx, state: state),
    "aBUG": (_abug_bases, _truncate_plain),
    "AP-aBUG": (_ap_abug_bases, _truncate_pinned),
}


# ---------------------------------------------------------------------------
# coupled macro/micro step
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def lowrank_macro_coupled_step(
    ctx: StepContext, rho: np.ndarray, state: MicroStateLowRank, t_next: float = 0.0
):
    """One coupled step; returns ``(rho_new, state_new, StepInfo)``.

    With a Schur operator in ``ctx.schur`` (IMEX-S coupling) the reduced
    density system is solved first, the old micro state entering in factored
    form, and the micro integrator runs against the new density; without one
    (IMEX) it runs against the old density and the diagonal density update
    closes the step.  Both read the old state through :func:`_block_product`.
    """
    grid, quad, material, r = ctx.grid, ctx.quad, ctx.material, state.S.shape[1]
    state, P = _block_product(ctx, state)
    if ctx.schur is not None:
        # the Schur right-hand side: sum_j D^(j,-) of R times the axis-j flux
        # of G/dt - A(G)/eps + source, the first two terms from P
        flux = P[:, r:]
        if material.micro_source is not None:
            Ps, As = material.micro_source(t_next)
            flux += Ps @ (As.T @ ctx.qw)
        flux *= ctx.R[:, None]
        b = _macro_source(material, ctx.config.dt, rho, t_next)
        rho_new = ctx.schur.solve(b - moment_div(grid, quad, flux.T))
    state_new, info = micro_step(
        ctx, state, rho if ctx.schur is None else rho_new, t_next, P[:, :r]
    )
    if ctx.schur is None:
        P, A = state_new.X @ state_new.S, _g_angular(quad, state_new, state_new.V)
        rho_new = (
            _macro_source(material, ctx.config.dt, rho, t_next)
            - flux_div_factored(grid, quad, P, A)
        ) / ctx.rho_denom
    if not (np.all(np.isfinite(rho_new)) and np.isfinite(np.linalg.norm(state_new.S))):
        raise DivergenceError("non-finite values in updated state")
    return rho_new, state_new, info

