"""Energy-consistent low-rank integrators for the microscopic component.

The microscopic fluctuation ``G`` is evolved through orthonormal factors
``X S V^T``.  In the default weighted mode the factors represent ``G M``
(``M`` the square-root weight matrix), so Frobenius geometry on the factors
matches the quadrature-weighted energy norm and the basis-update/Galerkin
steps inherit the dissipation of the full-rank scheme.  The unweighted mode
factors ``G`` directly with plainly orthonormal ``V``; it exists solely to
demonstrate how that choice breaks the energy alignment, and is selected with
``MicroStateLowRank.weighted = False``.

Integrators
-----------
:func:`micro_step` runs one step of ``ctx.lr``, the run's
``LowRankConfig`` in its :class:`~lrtrans.fullrank.StepContext`.  ``BUG`` is
the fixed-rank basis-update & Galerkin step: implicit pointwise K step,
implicit r x r L step, re-orthonormalization, implicit r x r Galerkin S
step.  ``aBUG`` augments the bases with the K/L updates (rank <= 2r) and
truncates the S-step result by a relative singular-value tolerance;
``AP-aBUG`` also adds the discrete diffusion-limit directions, pinned as
untruncatable leading columns.
Weighted angular bases come from :func:`constrained_qr`, so ``1^T M V = 0``
holds to machine precision.

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
``K = X S`` and its one-sided differences are formed once per step, for
the K step and the Schur right-hand side.  On the periodic lattice
``D^(j,-) = -(D^(j,+))^T`` (summation by parts), so the L and S steps need
only ``X^T D^(j,+) X``.  The S step forms the stack ``C = [X1^T D^(j,+) X1
per axis, X1^T diag(sigma) X1]`` once (after an extension only the ``Q``
blocks are new); it travels as ``MicroStateLowRank.C``, truncation rotates
it with ``X``, and the next L step reads it with no ``n_points``-row work.
The initial state carries ``C = None``; its first step forms the stack.

Layout
------
Every ``n_points``-row array of a step is column-major (Fortran order),
the layout LAPACK returns its ``Q`` in: ``X``, ``K``, the difference block
``DK``, ``K1`` and ``X1 = [X, Q]``.  Products with a tall factor on the left
are formed transposed, ``(P^T X^T)^T`` (:func:`_fmul`), and ``K1`` as the
transpose of its row-major right-hand side ``K1^T``, so each column is
contiguous: :func:`grid.diff` writes each forward difference of ``K``
straight into its column slab of ``DK`` and :func:`grid.shift` moves it
into the backward slab, the QR factorizes ``K1`` in place, and
``dgemqrt`` writes the extension ``Q`` straight into its column slab of
``X1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .angular import QuadratureSet
from .fullrank import DivergenceError, StepContext, _macro_source
from .grid import StaggeredGrid, diff, shift
from .ops import density_grad, flux_div_factored, moment_div


@dataclass
class MicroStateLowRank:
    """Low-rank factors of the microscopic state.

    ``X`` is ``(n_points, r)``, ``S`` is ``(r, r)`` (rectangular only in
    rank-capped corner cases), ``V`` is ``(n_ordinates, r)``; ``X`` and ``V``
    have orthonormal columns.  ``weighted=True`` means the factors represent
    ``G M`` and ``V`` satisfies the zero-density constraint ``1^T M V = 0``.
    ``C`` stacks ``C[j] = X^T D^(j,+) X`` per axis and
    ``C[dim] = X^T diag(sigma) X``.  It is ``None`` until the first step (the
    initial state does not know sigma), which computes it from ``X``.
    """

    X: np.ndarray
    S: np.ndarray
    V: np.ndarray
    weighted: bool = True
    C: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return self.X.shape[1]


@dataclass
class LowRankConfig:
    """Integrator selection, and the truncation tolerance of the aBUG variants."""

    integrator: str = "BUG"
    tau: float = 1e-5

    def __post_init__(self):
        if self.integrator not in ("BUG", "aBUG", "AP-aBUG"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        # a negated comparison, so that NaN fails it
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")


@dataclass
class StepInfo:
    """Per-step scalars recorded by the coupled update."""

    s_tilde_fro: float
    pre_truncation_rank: int
    rank: int


@dataclass
class GalerkinStage:
    """Result of :func:`galerkin_stage`; ``C1`` is the Galerkin stack of
    ``X1`` (see :class:`MicroStateLowRank`)."""

    X1: np.ndarray
    S_tilde: np.ndarray
    S1: np.ndarray
    V1: np.ndarray
    C1: np.ndarray


# ---------------------------------------------------------------------------
# factor construction
# ---------------------------------------------------------------------------

def _signs(Q: np.ndarray) -> np.ndarray:
    """Column signs that make the largest-magnitude entry of each positive."""
    picks = np.abs(Q).argmax(axis=0)
    signs = np.sign(Q[picks, np.arange(Q.shape[1])])
    signs[signs == 0] = 1.0
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
    """Column-major ``np.hstack(blocks)``; a lone block is returned as is."""
    if len(blocks) == 1:
        return blocks[0]
    out = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)), order="F")
    return np.concatenate(blocks, axis=1, out=out)


def _fmul(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``X @ P`` for a tall ``X``, column-major."""
    return (P.T @ X.T).T


def constrained_qr(L: np.ndarray, quad: QuadratureSet) -> np.ndarray:
    """Orthonormal basis for ``range(L)`` inside the zero-density subspace.

    Projects onto the subspace ``{v : (M 1)^T v = 0}``, factorizes there, and
    maps back, so the result satisfies the constraint to machine precision
    regardless of the conditioning of ``L``.  Rank-deficient inputs yield
    deterministic constraint-satisfying completion columns.  At most
    ``n_ordinates - 1`` columns are returned.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != quad.n:
        raise ValueError(f"expected ({quad.n}, r) input, got {L.shape}")
    return _fix_signs(quad.z_apply(_qr(quad.z_applyt(L))))


def _complete_basis(Q: np.ndarray, extra: int, rng: np.random.Generator) -> np.ndarray:
    if extra <= 0:
        return Q
    n, k = Q.shape
    trial = rng.standard_normal((n, extra))
    full = _qr(_hcat([Q, trial]) if k else trial)
    return _hcat([Q, _fix_signs(full[:, k : k + extra])])


def _sbp_matrices(grid: StaggeredGrid, X: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``(dim + 1, r, r)`` stack of ``X^T D^(j,+) X``, followed by
    ``X^T diag(sig) X``; the backward-difference matrices follow by
    summation by parts, ``X^T D^(j,-) X = -(.)^T``."""
    blocks = [X.T @ diff(grid, j, +1, X) for j in range(grid.dim)]
    blocks.append(X.T @ (sig[:, None] * X))
    return np.stack(blocks)


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


def _extended_blocks(grid, X1, r, C, sig):
    """Galerkin stack of ``X1 = [X, Q]`` from the stack ``C`` of its leading
    ``r`` columns ``X``: only ``Q`` is differenced and weighted.  Summation
    by parts gives ``Q^T D^(j,+) X = -(X^T D^(j,-) Q)^T``, and ``D^(j,-) Q``
    is the shifted ``D^(j,+) Q``."""
    X, Q = X1[:, :r], X1[:, r:]
    C1 = np.empty((len(C), X1.shape[1], X1.shape[1]))
    C1[:, :r, :r] = C
    for j in range(grid.dim):
        DQ = diff(grid, j, +1, Q)
        C1[j, :, r:] = X1.T @ DQ
        C1[j, r:, :r] = -(X.T @ shift(grid, j, DQ)).T
    C1[-1, :, r:] = X1.T @ (sig[:, None] * Q)
    C1[-1, r:, :r] = C1[-1, :r, r:].T
    return C1


def factorize_micro(
    grid: StaggeredGrid,
    quad: QuadratureSet,
    G: np.ndarray,
    rank: int,
    weighted: bool = True,
    seed: int = 0,
) -> MicroStateLowRank:
    """Best rank-``rank`` factorization of a dense microscopic state.

    In weighted mode the SVD is taken of ``G M`` after removing its density
    mode (the component along ``M 1``, which the constrained representation
    cannot hold), and the rank is capped at the zero-density subspace
    dimension ``n_ordinates - 1``.  If the input has lower numerical rank,
    the bases are padded with deterministic (seeded) orthonormal columns and
    zero coupling entries.  An all-zero input (isotropic initial data) is
    tested first: it is all padding, with no product array and no SVD.
    """
    rng = np.random.default_rng(seed)
    r_eff = min(rank, grid.n_points, quad.z_dim if weighted else quad.n)
    if not np.any(G):
        return _seeded_state(quad, np.zeros((grid.n_points, 0)), np.zeros(0),
                             np.zeros((quad.n, 0)), r_eff, weighted, rng)
    if weighted:
        A = G * quad.m[None, :]
        mhat = quad.m / np.linalg.norm(quad.m)
        A = A - np.outer(A @ mhat, mhat)
    else:
        A = np.asarray(G, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = int(np.sum(s > (s[0] * 1e-14 if s.size and s[0] > 0 else np.inf)))
    keep = min(keep, r_eff)
    signs = _signs(U[:, :keep])
    X = U[:, :keep] * signs[None, :]
    Vm = Vt[:keep].T * signs[None, :]
    return _seeded_state(quad, X, s[:keep], Vm, r_eff, weighted, rng)


def _seeded_state(quad, X, s, Vm, r_eff, weighted, rng):
    """State from leading singular triplets ``(X, s, Vm)`` of ``G M``, padded
    to rank ``r_eff`` with seeded orthonormal columns and zero couplings."""
    keep = s.size
    X = _complete_basis(X, r_eff - keep, rng)
    if weighted:
        Vz = quad.z_applyt(Vm) if keep else np.zeros((quad.z_dim, 0))
        V = quad.z_apply(_complete_basis(Vz, r_eff - keep, rng))
    else:
        V = _complete_basis(Vm, r_eff - keep, rng)
    S = np.zeros((r_eff, r_eff))
    S[:keep, :keep] = np.diag(s)
    return MicroStateLowRank(X=X, S=S, V=V, weighted=weighted)


def reconstruct(state: MicroStateLowRank, quad: QuadratureSet) -> np.ndarray:
    """Dense microscopic state ``G`` represented by the factors."""
    GM = (state.X @ state.S) @ state.V.T
    return GM / quad.m[None, :] if state.weighted else GM


def g_factors(state: MicroStateLowRank, quad: QuadratureSet) -> tuple:
    """Factors ``(P, A)`` with ``P @ A.T = G``, without reconstruction."""
    return state.X @ state.S, _g_angular(quad, state, state.V)


def _g_angular(quad, state, A):
    """Angular factor of ``G`` from the matching factor of the represented
    matrix (``G M`` in weighted mode, where the rows are divided by ``m``)."""
    return A / quad.m[:, None] if state.weighted else A


# ---------------------------------------------------------------------------
# basis-update & Galerkin machinery
# ---------------------------------------------------------------------------

def _block_order(dim):
    """``(axis, side)`` of the column blocks of ``DK`` in :func:`_k_differences`.

    Upwinding pairs ``D^(j,side) K`` with the angular split of sign ``-side``.
    """
    return [(j, side) for j in range(dim) for side in (-1, +1)]


def _ang(ctx, Y, axis, sign, weighted):
    """Angular factor ``q Y - a (Y^T b)^T / |D|``: ``(M^-1 Q Pi M)^T Y`` weighted,
    ``(Q Pi)^T Y`` unweighted, for ``Q = Q^(axis,sign)`` and ``Pi = I - w 1^T / |D|``."""
    q, a, b = ctx.ang_splits[weighted, axis, sign]
    return q[:, None] * Y - np.outer(a, Y.T @ b) / ctx.quad.domain_measure


def _k_differences(grid: StaggeredGrid, state: MicroStateLowRank) -> tuple:
    """``(K, DK)``: ``K = X S`` and its one-sided differences in one block.

    ``DK`` is ``(n_points, 2 dim r)`` with column blocks
    ``D^(0,-)K, D^(0,+)K, D^(1,-)K, D^(1,+)K`` (see :func:`_block_order`);
    both are column-major.  Each forward difference is written into its
    slab, and the backward one is its :func:`grid.shift`, bit for bit.
    """
    K = _fmul(state.X, state.S)
    r = K.shape[1]
    DK = np.empty((len(K), 2 * grid.dim * r), order="F")
    for j in range(grid.dim):
        fwd = diff(grid, j, +1, K, out=DK[:, (2 * j + 1) * r:(2 * j + 2) * r])
        shift(grid, j, fwd, out=DK[:, 2 * j * r:(2 * j + 1) * r])
    return K, DK


def galerkin_stage(
    ctx: StepContext,
    state: MicroStateLowRank,
    rho_for_grad: np.ndarray,
    t_next: float = 0.0,
    augment: bool = False,
    ap_enrich: bool = False,
    k_diffs: Optional[tuple] = None,
) -> GalerkinStage:
    """K/L/basis/S sequence; returns the new ``X1, S_tilde, S1, V1`` and ``C1``.

    ``S1`` solves the Galerkin-projected implicit update started from the
    projected coupling matrix ``S_tilde = X1^T X S V^T V1``; with
    ``augment=True`` the new bases also contain the previous ones, and with
    ``ap_enrich=True`` additionally the diffusion-limit directions
    ``-(sigma_s)^{-1} D^(j,+) rho`` (spatial) and ``M Q^(j) 1`` (angular) as
    leading columns.  Without ``ap_enrich`` the augmented spatial basis is
    the extension ``[X, Q]`` of :func:`_extend_basis`.  ``k_diffs`` is
    ``_k_differences(grid, state)`` when the caller has formed it already.
    """
    grid, quad, material, sig = ctx.grid, ctx.quad, ctx.material, ctx.sig
    X, S, V = state.X, state.S, state.V
    r = X.shape[1]
    wgt = state.weighted
    eps, dt = ctx.config.epsilon, ctx.config.dt
    eps2 = eps * eps
    C = state.C if state.C is not None else _sbp_matrices(grid, X, sig)
    K, DK = k_diffs if k_diffs is not None else _k_differences(grid, state)

    PJ, AJ = density_grad(grid, quad, rho_for_grad)
    AJr = quad.m[:, None] * AJ if wgt else AJ
    src = material.micro_source(t_next) if material.micro_source is not None else None
    if src is not None:
        Ps, As = src
        Asr = quad.m[:, None] * As if wgt else As

    ang_V = np.vstack(
        [_ang(ctx, V, j, -side, wgt).T @ V for j, side in _block_order(grid.dim)]
    )
    # K step transposed: K1^T is row-major, so K1 is column-major
    rhsT = K.T / dt - (ang_V / eps).T @ DK.T
    rhsT -= ((AJr.T @ V) / eps2).T @ PJ.T
    if src is not None:
        rhsT += (Asr.T @ V).T @ Ps.T
    rhsT /= ctx.k_denom
    K1 = rhsT.T

    # (D^(j,-) X)^T X = -C[j] and (D^(j,+) X)^T X = C[j]^T
    L = V @ S.T
    rhsL = L / dt
    for j in range(grid.dim):
        rhsL += _ang(ctx, L, j, +1, wgt) @ C[j] / eps
        rhsL -= _ang(ctx, L, j, -1, wgt) @ C[j].T / eps
    rhsL -= AJr @ (PJ.T @ X) / eps2
    if src is not None:
        rhsL += Asr @ (Ps.T @ X)
    Mimp = np.eye(r) / dt + C[-1]
    L1 = np.linalg.solve(Mimp.T, rhsL.T).T

    kb, lb = [K1], [L1]
    if augment:
        kb.append(X)
        lb.append(V)
    if ap_enrich:
        if not wgt:
            raise ValueError("diffusion-limit enrichment requires weighted factors")
        kb.insert(0, -PJ / material.sigma_s_g[:, None])
        lb.insert(0, ctx.ap_angular)
    V1 = constrained_qr(_hcat(lb), quad) if wgt else _fix_signs(_qr(_hcat(lb)))
    if augment and not ap_enrich:
        X1 = _extend_basis(X, K1)
        C1 = _extended_blocks(grid, X1, r, C, sig)
        S_tilde = np.zeros((X1.shape[1], V1.shape[1]))
        S_tilde[:r] = S @ (V.T @ V1)
    else:
        X1 = _fix_signs(_qr(_hcat(kb)))
        C1 = _sbp_matrices(grid, X1, sig)
        S_tilde = (X1.T @ X) @ S @ (V.T @ V1)

    # X1^T D^(j,-) X1 = -C1[j]^T
    rhsS = S_tilde / dt
    for j in range(grid.dim):
        rhsS += C1[j].T @ S_tilde @ (_ang(ctx, V1, j, +1, wgt).T @ V1) / eps
        rhsS -= C1[j] @ S_tilde @ (_ang(ctx, V1, j, -1, wgt).T @ V1) / eps
    rhsS -= (X1.T @ PJ) @ (AJr.T @ V1) / eps2
    if src is not None:
        rhsS += (X1.T @ Ps) @ (Asr.T @ V1)
    Mimp1 = np.eye(X1.shape[1]) / dt + C1[-1]
    S1 = np.linalg.solve(Mimp1, rhsS)
    return GalerkinStage(X1, S_tilde, S1, V1, C1)


def micro_step(ctx: StepContext, state, rho_for_grad, t_next=0.0, k_diffs=None):
    """One step of ``ctx.lr``'s integrator; returns ``(state, StepInfo)``.

    aBUG and AP-aBUG truncate at the relative tolerance ``ctx.lr.tau``.
    """
    augment = ctx.lr.integrator != "BUG"
    ap = ctx.lr.integrator == "AP-aBUG"
    st = galerkin_stage(
        ctx, state, rho_for_grad, t_next, augment=augment, ap_enrich=ap, k_diffs=k_diffs
    )
    factors = (st.X1, st.S1, st.V1, st.C1)
    if ap:
        factors = _truncate_pinned(*factors, ctx.grid.dim, ctx.lr.tau)
    elif augment:
        factors = _truncate_plain(*factors, ctx.lr.tau)
    X, S, V, C = factors
    info = StepInfo(
        s_tilde_fro=float(np.linalg.norm(st.S_tilde)),
        pre_truncation_rank=min(st.S1.shape),
        rank=X.shape[1],
    )
    return MicroStateLowRank(X=X, S=S, V=V, weighted=state.weighted, C=C), info


def _kept_rank(s: np.ndarray, tau: float, total: float) -> int:
    if s.size == 0 or total == 0.0:
        return 0
    suffix = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    below = suffix <= tau * total
    return int(np.argmax(below)) if below.any() else s.size


def _truncate_plain(X1, S1, V1, C1, tau):
    """Keep the leading singular directions of ``S1``; ``X2 = X1 U`` and the
    carried matrices rotate to ``U^T C1 U``."""
    U, s, Wt = np.linalg.svd(S1)
    k = max(_kept_rank(s, tau, float(np.linalg.norm(s))), 1)
    signs = _signs(U[:, :k])
    Uk = U[:, :k] * signs
    return _fmul(X1, Uk), np.diag(s[:k]), V1 @ (Wt[:k].T * signs), Uk.T @ C1 @ Uk


def _truncate_pinned(X1, S1, V1, C1, n_pinned, tau):
    """Truncate only the complement of the pinned leading basis columns.

    The first ``n_pinned`` columns of each basis are kept verbatim; the
    tolerance rule is applied to the singular values of the free rows and
    free columns of the coupling matrix, measured against the full coupling
    norm, and the retained free directions are rotated in:
    ``X2 = X1 T``, ``V2 = V1 W`` and ``S2 = T^T S1 W`` with
    ``T = blockdiag(I, Uk)``, ``W = blockdiag(I, Wk)``, and the carried
    matrices become ``T^T C1 T``.
    """
    d = min(n_pinned, min(S1.shape))
    total = float(np.linalg.norm(S1))
    A = S1[d:, :]
    B = S1[:, d:]
    Ua, sa, _ = np.linalg.svd(A, full_matrices=False) if A.size else (
        np.zeros((S1.shape[0] - d, 0)), np.zeros(0), None,
    )
    _, sb, Wbt = np.linalg.svd(B, full_matrices=False) if B.size else (
        None, np.zeros(0), np.zeros((0, S1.shape[1] - d)),
    )
    k = max(_kept_rank(sa, tau, total), _kept_rank(sb, tau, total))
    k = min(k, S1.shape[0] - d, S1.shape[1] - d)
    T = scipy.linalg.block_diag(np.eye(d), _fix_signs(Ua[:, :k]))
    W = scipy.linalg.block_diag(np.eye(d), _fix_signs(Wbt[:k].T))
    return _fmul(X1, T), T.T @ S1 @ W, V1 @ W, T.T @ C1 @ T


# ---------------------------------------------------------------------------
# coupled macro/micro step
# ---------------------------------------------------------------------------

def lowrank_macro_coupled_step(
    ctx: StepContext, rho: np.ndarray, state: MicroStateLowRank, t_next: float = 0.0
):
    """One coupled step; returns ``(rho_new, state_new, StepInfo)``.

    With a Schur operator in ``ctx.schur`` (IMEX-S coupling) the reduced
    density system is solved first, the old micro state entering in factored
    form, and the micro integrator runs against the new density; without one
    (IMEX) it runs against the old density and the diagonal density update
    closes the step.  Both read ``K = X S`` and its differences, formed once.
    """
    grid, quad = ctx.grid, ctx.quad
    k_diffs = _k_differences(grid, state)
    if ctx.schur is not None:
        rho_new = _schur_macro_solve(ctx, rho, state, k_diffs, t_next)
    state_new, info = micro_step(
        ctx, state, rho if ctx.schur is None else rho_new, t_next, k_diffs
    )
    if ctx.schur is None:
        P, A = g_factors(state_new, quad)
        rho_new = (
            _macro_source(ctx.material, ctx.config.dt, rho, t_next)
            - flux_div_factored(grid, quad, P, A)
        ) / ctx.rho_denom
    if not (np.all(np.isfinite(rho_new)) and np.isfinite(np.linalg.norm(state_new.S))):
        raise DivergenceError("non-finite values in updated state")
    return rho_new, state_new, info


def _schur_macro_solve(ctx: StepContext, rho, state, k_diffs, t_next):
    """Schur density solve with the old micro state in factored form.

    The right-hand side divergence is ``sum_j D^(j,-)`` of ``R`` times the
    axis-``j`` flux of ``G/dt - A(G)/eps + source``; the fluxes are
    contracted from ``K`` and ``DK`` to one ``n_points`` vector per axis
    before they are differenced.
    """
    grid, quad, material = ctx.grid, ctx.quad, ctx.material
    eps, dt = ctx.config.epsilon, ctx.config.dt
    K, DK = k_diffs
    A0 = _g_angular(quad, state, state.V)
    A_D = _g_angular(quad, state, np.hstack(
        [_ang(ctx, state.V, j, -side, state.weighted) for j, side in _block_order(grid.dim)]
    ))
    # the flux transposed, one contiguous row per axis
    fluxT = (A0.T @ ctx.qw).T @ K.T / dt - (A_D.T @ ctx.qw).T @ DK.T / eps
    if material.micro_source is not None:
        Ps, As = material.micro_source(t_next)
        fluxT += (As.T @ ctx.qw).T @ Ps.T
    fluxT *= ctx.R
    b = _macro_source(material, dt, rho, t_next)
    return ctx.schur.solve(b - moment_div(grid, quad, fluxT))
