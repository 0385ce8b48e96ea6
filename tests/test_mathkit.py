"""Linear-algebra checks: the ridge least-squares solve inside
``estimate_control_matrix`` (called here with y as columns, so the
regressed matrix is the transposed solution) and the closed-form matrix
exponential that the value oracle in oracles.py builds on."""

import numpy as np
import pytest

from cpc.control_law import estimate_control_matrix
from cpc.errors import RankDeficient
from oracles import expm_crit_damped


# ---------------------------------------------------------------------------
# estimate_control_matrix as a least-squares solver
# ---------------------------------------------------------------------------


def test_lsq_square_exact(rng):
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    X0 = rng.normal(size=(3, 2))
    assert np.abs(estimate_control_matrix(A, A @ X0, ridge=0.0).T - X0).max() < 1e-10


def test_lsq_overdetermined_recovery(rng):
    A = rng.normal(size=(10, 2))
    X0 = rng.normal(size=(2, 1))
    X = estimate_control_matrix(A, A @ X0, ridge=0.0).T
    assert np.abs(X - X0).max() < 1e-10
    # Normal-equations oracle.
    Xn = np.linalg.solve(A.T @ A, A.T @ (A @ X0))
    assert np.abs(X - Xn).max() < 1e-10


def test_lsq_zero_matrix_raises():
    with pytest.raises(RankDeficient):
        estimate_control_matrix(np.zeros((4, 2)), np.ones((4, 1)), ridge=0.0)


def test_lsq_residual_orthogonal(rng):
    for _ in range(50):
        A = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 1))
        x = estimate_control_matrix(A, y, ridge=0.0).T
        resid = A @ x - y
        # Zero residual gradient: A' r = 0.
        assert np.abs(A.T @ resid).max() < 1e-9


def test_lsq_ridge_shrinks(rng):
    A = rng.normal(size=(8, 2))
    y = rng.normal(size=(8, 1))
    x0 = estimate_control_matrix(A, y, ridge=0.0).T
    x1 = estimate_control_matrix(A, y, ridge=10.0).T
    assert np.linalg.norm(x1) < np.linalg.norm(x0)
    # Ridge normal equations oracle.
    xn = np.linalg.solve(A.T @ A + 10.0 * np.eye(2), A.T @ y)
    assert np.abs(x1 - xn).max() < 1e-10


def test_lsq_underdetermined_raises(rng):
    with pytest.raises(RankDeficient):
        estimate_control_matrix(rng.normal(size=(2, 4)), np.ones((2, 1)), ridge=0.0)


# ---------------------------------------------------------------------------
# expm_crit_damped, the closed form the value oracle in oracles.py builds on
# ---------------------------------------------------------------------------


def _expm_taylor(kappa, t, terms=30):
    F = np.array([[0.0, 1.0], [-kappa * kappa, -2.0 * kappa]])
    out = np.eye(2)
    term = np.eye(2)
    for k in range(1, terms):
        term = term @ F * (t / k)
        out = out + term
    return out


def test_expm_t0_identity():
    assert np.allclose(expm_crit_damped(7.0, 0.0), np.eye(2))


def test_expm_k1_t1():
    assert np.allclose(expm_crit_damped(1.0, 1.0), np.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]]))


def test_expm_vs_taylor():
    E = expm_crit_damped(3.0, 0.2)
    assert np.abs(E - _expm_taylor(3.0, 0.2)).max() < 1e-10


def test_expm_semigroup(rng):
    for _ in range(50):
        kappa = rng.uniform(0.5, 20.0)
        t1, t2 = rng.uniform(0.0, 0.3, size=2)
        lhs = expm_crit_damped(kappa, t1 + t2)
        rhs = expm_crit_damped(kappa, t1) @ expm_crit_damped(kappa, t2)
        assert np.abs(lhs - rhs).max() < 1e-9
