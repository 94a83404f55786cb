"""Discrete-ordinates quadrature sets and their upwind splittings.

Two constructors are provided: Gauss-Legendre on ``[-1, 1]`` for 1D slab
geometry, and a Chebyshev-Legendre product rule for 2D, built from polar
Gauss-Legendre nodes on the upper hemisphere (``mu`` in ``(0, 1)``) times
equispaced midpoint azimuths and projected onto the xy-plane.  The 2D angular
domain measure is ``2*pi`` for this folded hemisphere convention; the number
of 2D directions is ``2 * n_polar**2``.  Both constructors return their
ordinates in upwind quadrant order: the 1D nodes ascend, and the 2D set runs
through the sign quadrants (-,-), (-,+), (+,+), (+,-) of ``(Omega_x,
Omega_y)``, so the signs along x form at most two runs and along y at most
three (:func:`lrtrans.ops.upwind_runs`).

Every constructed set satisfies, up to roundoff or the stated quadrature
accuracy: weights positive and summing to the domain measure, vanishing odd
direction moments, second moments ``<(Omega^j)^2> ~ 1/3``, a vanishing cross
moment ``<Omega^x Omega^y>`` in 2D, exact upwind splits ``Q+ + Q- = Q`` and
``Q+ Q- = 0``, and ``sum_k w_k Omega_k^j = 0``.
The azimuths are midpoint-offset so no ordinate is aligned with a grid axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureSet:
    """Ordinates, weights and derived matrices for an S_N angular rule.

    ``omega`` holds one column per spatial axis.  The diagonal matrices used
    by the transport operators are stored as 1D arrays: ``m`` are the square
    roots of the weights, ``q(j)`` the axis-``j`` direction cosines, and
    ``q_plus(j)``/``q_minus(j)`` their upwind splits ``(q +- |q|)/2``.

    ``z_apply`` / ``z_applyt`` apply an implicit orthonormal basis ``Z`` of
    the zero-density subspace ``{v : c^T v = 0}``, ``c = constraint(weighted)``,
    and its transpose; the basis is realized through a single Householder
    reflector, formed when applied, so both products cost ``O(n)`` per column.
    """

    dim: int
    omega: np.ndarray          # (n, dim)
    w: np.ndarray              # (n,)
    domain_measure: float
    m: np.ndarray              # sqrt(w)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def z_dim(self) -> int:
        """Dimension of the zero-density subspace, ``n - 1``."""
        return self.n - 1

    def q(self, axis: int) -> np.ndarray:
        return self.omega[:, axis]

    def q_plus(self, axis: int) -> np.ndarray:
        o = self.omega[:, axis]
        return 0.5 * (o + np.abs(o))

    def q_minus(self, axis: int) -> np.ndarray:
        o = self.omega[:, axis]
        return 0.5 * (o - np.abs(o))

    def constraint(self, weighted: bool = True) -> np.ndarray:
        """``c`` of the zero-density constraint ``c^T v = 0`` on an angular
        factor: ``M 1 = m`` if ``weighted``, else ``w``."""
        return self.m if weighted else self.w

    def _reflect(self, x: np.ndarray, weighted: bool) -> np.ndarray:
        """``H x`` for the reflector ``H`` that maps ``c / |c|`` onto ``-e1``."""
        c = self.constraint(weighted)
        u = c / np.linalg.norm(c)
        u[0] += 1.0                  # the entries of c are positive
        return x - np.outer(u, 2.0 / (u @ u) * (u @ x))

    def z_apply(self, y: np.ndarray, weighted: bool = True) -> np.ndarray:
        """Map coefficients ``y`` (shape ``(n-1, k)``) to ``Z y`` in R^n."""
        y = np.atleast_2d(np.asarray(y, dtype=float).T).T
        return self._reflect(np.vstack([np.zeros((1, y.shape[1])), y]), weighted)

    def z_applyt(self, u: np.ndarray, weighted: bool = True) -> np.ndarray:
        """Map vectors ``u`` (shape ``(n, k)``) to ``Z^T u`` in R^(n-1)."""
        u = np.atleast_2d(np.asarray(u, dtype=float).T).T
        return self._reflect(u, weighted)[1:]

    def validate(self) -> None:
        """Assert the construction invariants; raises ``ValueError`` on failure."""
        if np.any(self.w <= 0):
            raise ValueError("quadrature weights must be positive")
        meas = self.domain_measure
        if abs(self.w.sum() - meas) > 1e-12 * meas:
            raise ValueError("weights do not sum to the domain measure")
        for j in range(self.dim):
            o = self.omega[:, j]
            if abs(self.w @ o) / meas > 1e-12:
                raise ValueError(f"odd moment of axis {j} does not vanish")
            if abs(self.w @ o**2 / meas - 1.0 / 3.0) > 1e-10:
                raise ValueError(f"second moment of axis {j} is not 1/3")
        # the density operator has one term per axis (lrtrans.fullrank)
        if self.dim == 2 and abs(self.w @ (self.omega[:, 0] * self.omega[:, 1])) > 1e-13 * meas:
            raise ValueError("cross moment of the two axes does not vanish")


def _make(dim: int, omega: np.ndarray, w: np.ndarray, measure: float) -> QuadratureSet:
    m = np.sqrt(w)
    for arr in (omega, w, m):
        arr.setflags(write=False)
    quad = QuadratureSet(dim=dim, omega=omega, w=w, domain_measure=measure, m=m)
    quad.validate()
    return quad


def gauss_legendre_1d(n_points: int) -> QuadratureSet:
    """Gauss-Legendre rule on ``[-1, 1]`` for slab geometry.

    ``n_points`` must be even and at least 2 so that the node set is exactly
    symmetric about zero and all odd moments vanish.
    """
    if n_points < 2 or n_points % 2:
        raise ValueError(f"n_points must be even and >= 2, got {n_points}")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return _make(1, x[:, None].astype(float), w.astype(float), 2.0)


def chebyshev_legendre_2d(n_polar: int) -> QuadratureSet:
    """Chebyshev-Legendre product rule projected onto the xy-plane.

    Polar nodes are an ``n_polar``-point Gauss-Legendre rule mapped to
    ``mu in (0, 1)`` (upper hemisphere; the planar problem is symmetric in
    ``z``), combined with ``2 * n_polar`` equispaced midpoint azimuths
    ``phi_b = (2b - 1) pi / (2 n_polar)``.  This yields ``2 * n_polar**2``
    directions with total weight ``2*pi``.  The ordinates are sorted, stably,
    from the polar-major product loop into the upwind quadrant order of the
    module docstring, each with its weight.
    """
    if n_polar < 2:
        raise ValueError(f"n_polar must be >= 2, got {n_polar}")
    xg, wg = np.polynomial.legendre.leggauss(n_polar)
    mu = 0.5 * (xg + 1.0)
    gw = 0.5 * wg                    # weights on (0, 1), summing to 1
    n_azi = 2 * n_polar
    b = np.arange(1, n_azi + 1)
    phi = (2 * b - 1) * np.pi / (2 * n_polar)

    s = np.sqrt(1.0 - mu**2)
    ox = (s[:, None] * np.cos(phi)[None, :]).reshape(-1)
    oy = (s[:, None] * np.sin(phi)[None, :]).reshape(-1)
    w = np.broadcast_to((gw * np.pi / n_polar)[:, None], (n_polar, n_azi)).reshape(-1)
    sx = ox > 0
    perm = np.argsort(2 * sx + ((oy > 0) != sx), kind="stable")
    return _make(2, np.column_stack([ox, oy])[perm], w[perm], 2.0 * np.pi)
