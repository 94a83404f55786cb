"""Reference formulas that only the tests evaluate.

The solver never calls these: the adjoint advection and the unweighted
inner product state the proof-level identities, the factored weighted
norm and the Schur product check the solver's own shortcuts, and the dense
reconstruction, the grid's index maps and ``|Omega_j|`` spell out what the
solver's factored and linear-index forms stand for, and the 2D point
families built one mesh at a time are what its offsets table reproduces; the dense
factorization is what the factored one of the initial state reproduces.  The manufactured
phase-space density and its source are what the sampled ``mms2d`` sources
of :mod:`lrtrans.scenarios` are checked against.  The sparse difference
matrices and their product form of the density operator are what the
solver's matrix-free stencil of that operator, and its Jacobi diagonal, are
checked against; the solver assembles no matrix.  The product rule's loop
order of the 2D ordinates, and the permutation of a quadrature and its micro
source into it, are the second order that the tests run the steppers in: the
solver's one order is the constructor's upwind quadrant order.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from lrtrans.angular import _make
from lrtrans.fullrank import _schur_terms
from lrtrans.grid import StaggeredGrid, diff
from lrtrans.lowrank import MicroStateLowRank, _seeded_state, _signs
from lrtrans.ops import _check_micro, norm_w


def advect_adjoint(grid, quad, G: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`lrtrans.ops.advect` in the weighted inner product.

    Equals ``-sum_j (D^(j,-) G Q^(j,-) + D^(j,+) G Q^(j,+))``.
    """
    _check_micro(grid, quad, G)
    out = np.zeros_like(G, dtype=float)
    for j in range(grid.dim):
        out -= diff(grid, j, -1, G) * quad.q_minus(j)[None, :]
        out -= diff(grid, j, +1, G) * quad.q_plus(j)[None, :]
    return out


def inner(grid, f1: np.ndarray, f2: np.ndarray) -> float:
    """Mesh-scaled Euclidean inner product ``(prod_j dx_j) f1^T f2``."""
    if f1.shape != f2.shape:
        raise ValueError("shape mismatch in inner")
    return grid.cell_volume * float(np.dot(f1, f2))


def norm(grid, f: np.ndarray) -> float:
    return np.sqrt(max(inner(grid, f, f), 0.0))


def gm_frobenius(state: MicroStateLowRank, quad) -> float:
    """Frobenius norm of ``G M`` computed from the factors alone."""
    if state.weighted:
        return float(np.linalg.norm(state.S))
    C = state.V.T @ (quad.w[:, None] * state.V)
    return float(np.sqrt(max(np.sum((state.S @ C) * state.S), 0.0)))


def micro_norm_w_exact(grid, quad, micro) -> float:
    """True weighted norm regardless of representation (reconstruction-free)."""
    if isinstance(micro, MicroStateLowRank):
        return math.sqrt(grid.cell_volume) * gm_frobenius(micro, quad)
    return norm_w(grid, quad, micro)


def schur_matrix(grid, quad, material, config) -> sp.csr_matrix:
    """The operator of :class:`lrtrans.fullrank.SchurOperator`, the product
    form (:func:`div_grad_product`) of its terms."""
    return div_grad_product(*_schur_terms(grid, quad, material, config))


def schur_apply(grid, quad, material, config, x: np.ndarray) -> np.ndarray:
    """The Schur operator of :class:`lrtrans.fullrank.SchurOperator` applied to ``x``."""
    return schur_matrix(grid, quad, material, config) @ x


def dense_factors(G: np.ndarray) -> tuple:
    """Factors ``(G, I)`` of a dense microscopic state, as
    :func:`lrtrans.lowrank.factorize_micro` takes them."""
    return G, np.eye(G.shape[1])


def factorize_dense(grid, quad, G, rank, weighted=True, seed=0) -> MicroStateLowRank:
    """:func:`lrtrans.lowrank.factorize_micro` of a dense state, by an SVD of
    the whole ``n_points x n_ordinates`` array: of ``G M`` (weighted) or
    ``G``, without the component of each row along
    ``quad.constraint(weighted)``."""
    rng = np.random.default_rng(seed)
    r_eff = min(rank, grid.n_points, quad.z_dim)
    A = G * quad.m[None, :] if weighted else np.asarray(G, dtype=float)
    chat = quad.constraint(weighted) / np.linalg.norm(quad.constraint(weighted))
    A = A - np.outer(A @ chat, chat)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = int(np.sum(s > (s[0] * 1e-14 if s.size and s[0] > 0 else np.inf)))
    keep = min(keep, r_eff)
    signs = _signs(U[:, :keep])
    X = U[:, :keep] * signs[None, :]
    Vm = Vt[:keep].T * signs[None, :]
    return _seeded_state(quad, X, s[:keep], Vm, r_eff, weighted, rng)


def schur_flux_from_differences(ctx, state) -> np.ndarray:
    """``(n_points, dim)`` Schur fluxes of a low-rank state before the source,
    ``(K/dt - sum_(j,side) D^(j,side) K ang^(j,-side)(V)^T / eps) Q^(i) w``
    per axis ``i``, contracted from ``K = X S`` and its divided differences,
    with each angular factor formed from dense matrices: ``(M^-1 Q Pi
    M)^T V`` weighted and ``(Q Pi)^T V`` unweighted, for ``Q =
    Q^(j,-side)`` and ``Pi = I - w 1^T / |D|``."""
    grid, quad = ctx.grid, ctx.quad
    eps, dt = ctx.config.epsilon, ctx.config.dt
    m = quad.m if state.weighted else np.ones(quad.n)
    K, V = state.X @ state.S, state.V
    Pi = np.eye(quad.n) - np.outer(quad.w, np.ones(quad.n)) / quad.domain_measure
    flux = K @ ((V / m[:, None]).T @ ctx.qw) / dt
    for j in range(grid.dim):
        for side in (-1, +1):
            Q = np.diag(quad.q_plus(j) if side < 0 else quad.q_minus(j))
            ang = (np.diag(1 / m) @ Q @ Pi @ np.diag(m)).T @ V
            flux -= diff(grid, j, side, K) @ ((ang / m[:, None]).T @ ctx.qw) / eps
    return flux


def reconstruct(state: MicroStateLowRank, quad) -> np.ndarray:
    """Dense microscopic state ``G`` represented by the factors."""
    GM = (state.X @ state.S) @ state.V.T
    return GM / quad.m[None, :] if state.weighted else GM


def q_abs(quad, axis: int) -> np.ndarray:
    """``|Omega_j|`` of every ordinate."""
    return np.abs(quad.omega[:, axis])


def product_rule_2d(n_polar: int) -> tuple:
    """``(omega, w)`` of :func:`lrtrans.angular.chebyshev_legendre_2d` in the
    product rule's loop order, polar node outer and azimuth inner, formed with
    the constructor's arithmetic so that every entry keeps its bits."""
    xg, wg = np.polynomial.legendre.leggauss(n_polar)
    s = np.sqrt(1.0 - (0.5 * (xg + 1.0)) ** 2)
    phi = (2 * np.arange(1, 2 * n_polar + 1) - 1) * np.pi / (2 * n_polar)
    omega = np.column_stack([np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel()])
    return omega, np.repeat(0.5 * wg * np.pi / n_polar, 2 * n_polar)


def loop_order(quad) -> np.ndarray:
    """``perm`` with ``quad.omega[perm]`` in the loop order of
    :func:`product_rule_2d`."""
    omega = product_rule_2d(math.isqrt(quad.n // 2))[0]
    perm = np.array([np.flatnonzero((quad.omega == o).all(axis=1))[0] for o in omega])
    assert np.array_equal(np.sort(perm), np.arange(quad.n))
    return perm


def permute_ordinates(quad, material, perm):
    """``(quad, material)`` with the ordinates taken in the order ``perm``,
    each ``(omega, w)`` pair together, and the angular factor of
    ``material.micro_source`` permuted to match."""
    permuted = _make(quad.dim, quad.omega[perm], quad.w[perm], quad.domain_measure)
    if material.micro_source is None:
        return permuted, material

    def source(t):
        P, A = material.micro_source(t)
        return P, A[perm]

    return permuted, replace(material, micro_source=source)


def rho_index(grid, block: int, ix: int, iy: int = 0) -> int:
    """Linear index of the point ``(block, ix[, iy])`` of ``grid``; both point
    families share the index map."""
    nx = grid.cells[0]
    if not 0 <= block < 2 or not 0 <= ix < nx:
        raise IndexError("grid location out of range")
    if grid.dim == 1:
        if iy != 0:
            raise IndexError("iy must be 0 on a 1D grid")
        return block * nx + ix
    ny = grid.cells[1]
    if not 0 <= iy < ny:
        raise IndexError("grid location out of range")
    return (block * ny + iy) * nx + ix


def location(grid, k: int) -> tuple:
    """Inverse of :func:`rho_index`: ``(block, ix)`` in 1D, ``(block, ix, iy)`` in 2D."""
    if not 0 <= k < grid.n_points:
        raise IndexError("linear index out of range")
    nx = grid.cells[0]
    if grid.dim == 1:
        return divmod(k, nx)
    ny = grid.cells[1]
    block, rest = divmod(k, nx * ny)
    iy, ix = divmod(rest, nx)
    return block, ix, iy


def grid_coords_2d(bounds, cells) -> tuple:
    """``(rho_coords, g_coords, g_coords_y)`` of a 2D grid, each family
    formed from six meshes of per-axis center, corner and face values."""
    (lox, hix), (loy, hiy) = np.asarray(bounds, dtype=float)
    nx, ny = cells
    dx, dy = (hix - lox) / nx, (hiy - loy) / ny
    xi, yj = np.arange(nx), np.arange(ny)

    def wrap(v, lo, hi):
        return lo + np.mod(v - lo, hi - lo)

    def mesh(xv, yv):
        X = np.broadcast_to(xv[None, :], (ny, nx)).reshape(-1)
        Y = np.broadcast_to(yv[:, None], (ny, nx)).reshape(-1)
        return X, Y

    xc, yc = lox + (xi + 0.5) * dx, loy + (yj + 0.5) * dy
    xv = wrap(lox + (xi + 1.0) * dx, lox, hix)
    yv = wrap(loy + (yj + 1.0) * dy, loy, hiy)
    xf = wrap(lox + (xi + 1.5) * dx, lox, hix)
    yf = wrap(loy + (yj + 1.5) * dy, loy, hiy)
    families = (
        (mesh(xc, yc), mesh(xv, yv)),      # centers, corners
        (mesh(xv, yc), mesh(xf, yv)),      # x-faces, y-faces
        (mesh(xc, yv), mesh(xv, yf)),      # centers and corners + dy/2
    )
    return tuple(
        np.column_stack([np.concatenate([b0[j], b1[j]]) for j in range(2)])
        for b0, b1 in families
    )


def mms_exact_f(eps, t, x, y, ox, oy):
    """Manufactured phase-space density at scalar or array arguments."""
    s = np.exp(-t) * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    return 2.0 + s + eps * s * oy


def mms_source(eps, t, x, y, ox, oy):
    """Angular-resolved source that makes :func:`mms_exact_f` exact.

    Obtained by substituting the manufactured density into the transport
    equation with ``sigma_s = 1`` and ``sigma_a = 0``.
    """
    et = np.exp(-t)
    sx, cx = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
    sy, cy = np.sin(2 * np.pi * y), np.cos(2 * np.pi * y)
    dt_f = -et * sx * sy * (1.0 + eps * oy)
    grad = 2 * np.pi * et * (1.0 + eps * oy) * (ox * cx * sy + oy * sx * cy) / eps
    collision = et * sx * sy * oy / eps
    return dt_f + grad + collision


def shift_permutation(grid: StaggeredGrid, axis: int, step: int = 1) -> np.ndarray:
    """Index permutation ``p`` with ``u[p][k] = u`` shifted ``+step`` cells.

    The permutation is the same for both point families; the reference
    sparse difference matrices are built from it.
    """
    idx = np.arange(grid.n_points).reshape(grid.block_shape)
    ax = len(grid.block_shape) - 1 - axis
    return np.roll(idx, -step, axis=ax).reshape(-1)


def dense_diff_matrix(grid: StaggeredGrid, axis: int, side: int) -> np.ndarray:
    """Assemble the difference operator column by column from unit vectors."""
    n = grid.n_points
    mat = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        mat[:, i] = diff(grid, axis, side, e)
    return mat


def _difference_matrix(grid: StaggeredGrid, axis: int, side: int) -> sp.csr_matrix:
    n = grid.n_points
    h = grid.spacing[axis]
    perm = shift_permutation(grid, axis, +1 if side > 0 else -1)
    eye = sp.identity(n, format="csr")
    shift = sp.csr_matrix(
        (np.ones(n), (np.arange(n), perm)), shape=(n, n)
    )
    return (shift - eye) / h if side > 0 else (eye - shift) / h


def div_grad_product(grid: StaggeredGrid, diag, coef, c) -> sp.csr_matrix:
    """``diag(diag) - sum_j c[j] D^(j,-) diag(coef) D^(j,+)``, the sparse
    operator of the Schur density solve and of the diffusion reference."""
    T = sp.diags(diag).tocsr()
    C = sp.diags(coef)
    for j in range(grid.dim):
        Dm = _difference_matrix(grid, j, -1)
        # bound to a name, so it is freed only when the next one replaces
        # it: freed at once, the malloc heap of a low-rank run ends 1.2 MiB
        # higher at peak (perfbench diffusive2d-bug)
        Dp = _difference_matrix(grid, j, +1)
        T = T - c[j] * (Dm @ C @ Dp)
    return T.tocsr()
