import numpy as np
import pytest

from cpc.errors import RankDeficient, SingularMatrix
from cpc.mathkit import least_squares, right_pseudoinverse
from oracles import expm_crit_damped


# ---------------------------------------------------------------------------
# right_pseudoinverse
# ---------------------------------------------------------------------------


def test_pinv_identity():
    assert np.allclose(right_pseudoinverse(np.eye(2)), np.eye(2))


def test_pinv_row_vector():
    P = right_pseudoinverse(np.array([[1.0, 0.0]]))
    assert np.allclose(P, np.array([[1.0], [0.0]]))


def test_pinv_random_full_rank(rng):
    B = rng.normal(size=(2, 3))
    P = right_pseudoinverse(B)
    # Residual oracle via generic linear solve: B P must reproduce I exactly.
    assert np.abs(B @ P - np.eye(2)).max() < 1e-10


def test_pinv_property_random(rng):
    for _ in range(200):
        m = rng.integers(1, 5)
        n = rng.integers(m, 8)
        B = rng.normal(size=(m, n))
        P = right_pseudoinverse(B)
        assert np.abs(B @ P - np.eye(m)).max() < 1e-9


def test_pinv_singular_raises():
    B = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrix):
        right_pseudoinverse(B)


# ---------------------------------------------------------------------------
# least_squares
# ---------------------------------------------------------------------------


def test_lsq_square_exact(rng):
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    X0 = rng.normal(size=(3, 2))
    assert np.abs(least_squares(A, A @ X0) - X0).max() < 1e-10


def test_lsq_overdetermined_recovery(rng):
    A = rng.normal(size=(10, 2))
    X0 = rng.normal(size=(2, 1))
    X = least_squares(A, A @ X0)
    assert np.abs(X - X0).max() < 1e-10
    # Normal-equations oracle.
    Xn = np.linalg.solve(A.T @ A, A.T @ (A @ X0))
    assert np.abs(X - Xn).max() < 1e-10


def test_lsq_zero_matrix_raises():
    with pytest.raises(RankDeficient):
        least_squares(np.zeros((4, 2)), np.ones(4), ridge=0.0)


def test_lsq_residual_orthogonal(rng):
    for _ in range(50):
        A = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        x = least_squares(A, y)
        resid = A @ x - y
        # Zero residual gradient: A' r = 0.
        assert np.abs(A.T @ resid).max() < 1e-9


def test_lsq_ridge_shrinks(rng):
    A = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    x0 = least_squares(A, y)
    x1 = least_squares(A, y, ridge=10.0)
    assert np.linalg.norm(x1) < np.linalg.norm(x0)
    # Ridge normal equations oracle.
    xn = np.linalg.solve(A.T @ A + 10.0 * np.eye(2), A.T @ y)
    assert np.abs(x1 - xn).max() < 1e-10


def test_lsq_underdetermined_raises(rng):
    with pytest.raises(RankDeficient):
        least_squares(rng.normal(size=(2, 4)), np.ones(2))


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
