"""Reference formulas that only the tests evaluate.

The solver never calls these: the adjoint advection and the unweighted
inner product state the proof-level identities, and the factored weighted
norm and the Schur product check the solver's own shortcuts.
"""

import math

import numpy as np

from lrtrans.grid import diff
from lrtrans.lowrank import MicroStateLowRank
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


def schur_apply(schur, x: np.ndarray) -> np.ndarray:
    """The Schur operator of :class:`lrtrans.fullrank.SchurOperator` applied to ``x``."""
    return schur.matrix @ x
