"""Quadrature sets: moments, upwind splits, and the constraint basis."""

import numpy as np
import pytest
from scipy import integrate

from lrtrans.angular import QuadratureSet, chebyshev_legendre_2d, gauss_legendre_1d
from oracles import q_abs


def two_point_gauss_oracle():
    # solve the 2-point symmetric moment conditions directly:
    # 2w = 2 and 2 w a^2 = 2/3  =>  w = 1, a = 1/sqrt(3)
    w = 1.0
    a = np.sqrt(1.0 / 3.0)
    return a, w


def test_gl2_nodes_and_weights():
    a, w = two_point_gauss_oracle()
    q = gauss_legendre_1d(2)
    assert np.allclose(sorted(q.omega[:, 0]), [-a, a], atol=1e-15)
    assert np.allclose(q.w, [w, w], atol=1e-15)


@pytest.mark.parametrize("n", [2, 8, 50, 200])
def test_gl_weight_sum(n):
    q = gauss_legendre_1d(n)
    assert abs(q.w.sum() - 2.0) <= 1e-13


def test_gl_second_moment():
    q = gauss_legendre_1d(200)
    assert abs(q.w @ q.omega[:, 0] ** 2 / 2.0 - 1.0 / 3.0) <= 1e-12


def test_gl_rejects_odd_or_small():
    with pytest.raises(ValueError):
        gauss_legendre_1d(3)
    with pytest.raises(ValueError):
        gauss_legendre_1d(0)


def test_cl_counts_and_weight_sum():
    q = chebyshev_legendre_2d(4)
    assert q.n == 32
    assert abs(q.w.sum() - 2 * np.pi) <= 1e-13 * 2 * np.pi


def test_cl_odd_moments_vanish():
    q = chebyshev_legendre_2d(6)
    for j in range(2):
        assert abs(q.w @ q.omega[:, j]) <= 1e-13 * q.domain_measure


def test_cl_second_moment_vs_quadrature_oracle():
    # oracle: adaptive integration of (Omega^x)^2 over the projected
    # hemisphere divided by its measure
    val, _ = integrate.dblquad(
        lambda phi, mu: (1 - mu**2) * np.cos(phi) ** 2,
        0.0,
        1.0,
        0.0,
        2 * np.pi,
    )
    oracle = val / (2 * np.pi)
    q = chebyshev_legendre_2d(16)
    disc = q.w @ q.omega[:, 0] ** 2 / q.domain_measure
    assert abs(oracle - 1.0 / 3.0) <= 1e-10
    assert abs(disc - 1.0 / 3.0) <= 1e-10


def test_cl_rejects_small():
    with pytest.raises(ValueError):
        chebyshev_legendre_2d(1)


@pytest.mark.parametrize("make", [lambda: gauss_legendre_1d(8), lambda: chebyshev_legendre_2d(4)])
def test_upwind_splits_exact(make):
    q = make()
    for j in range(q.dim):
        assert np.array_equal(q.q_plus(j) + q.q_minus(j), q.q(j))
        assert np.all(q.q_plus(j) * q.q_minus(j) == 0.0)
        assert abs(q.w @ q.q(j)) <= 1e-12 * q.domain_measure


@pytest.mark.parametrize(
    "make,n_trials",
    [(lambda: gauss_legendre_1d(200), 100), (lambda: chebyshev_legendre_2d(16), 100)],
)
def test_flux_moment_matrix_bound(make, n_trials, rng):
    # h^T Q w w^T Q^T h <= C_B |D| h^T |Q| M^2 h with C_B = w^T |O^j| 1 / |D|
    q = make()
    for j in range(q.dim):
        cb = float(q.w @ q_abs(q, j)) / q.domain_measure
        assert abs(cb - 0.5) <= 1e-3
        qw = q.q(j) * q.w
        for _ in range(n_trials):
            h = rng.standard_normal(q.n)
            lhs = float(qw @ h) ** 2
            rhs = cb * q.domain_measure * float(h @ (q_abs(q, j) * q.w * h))
            assert lhs <= rhs * (1 + 1e-12)


def test_constraint_basis_orthonormal_and_annihilating():
    q = chebyshev_legendre_2d(4)
    Z = q.z_apply(np.eye(q.z_dim))
    assert np.allclose(Z.T @ Z, np.eye(q.z_dim), atol=1e-13)
    assert np.max(np.abs(q.m @ Z)) <= 1e-13
    # z_applyt is the transpose of z_apply
    Y = np.random.default_rng(0).standard_normal((q.n, 3))
    assert np.allclose(q.z_applyt(Y), Z.T @ Y, atol=1e-13)


def test_unweighted_constraint_basis_annihilates_w():
    # unweighted factors are constrained against c = w, with the same
    # Euclidean-orthonormal basis construction as the weighted c = M 1
    q = gauss_legendre_1d(8)
    assert q.constraint(True) is q.m and q.constraint(False) is q.w
    Z = q.z_apply(np.eye(q.z_dim), weighted=False)
    assert np.allclose(Z.T @ Z, np.eye(q.z_dim), atol=1e-13)
    assert np.max(np.abs(q.w @ Z)) <= 1e-13
    Y = np.random.default_rng(1).standard_normal((q.n, 3))
    assert np.allclose(q.z_applyt(Y, weighted=False), Z.T @ Y, atol=1e-13)


def test_validate_rejects_a_nonvanishing_cross_moment():
    # both ordinates on the diagonal: every other moment condition holds
    a = 1.0 / np.sqrt(3.0)
    omega, w = np.array([[a, a], [-a, -a]]), np.full(2, np.pi)
    quad = QuadratureSet(dim=2, omega=omega, w=w, domain_measure=2 * np.pi, m=np.sqrt(w))
    with pytest.raises(ValueError, match="cross moment"):
        quad.validate()
