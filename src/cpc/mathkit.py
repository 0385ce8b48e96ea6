"""Small dense linear-algebra utilities: the right pseudoinverse and
(ridge) least squares.

Matrices and vectors are plain float64 numpy arrays. Everything here is
sized for chains with at most a handful of links, so numerical robustness
is favored over large-matrix performance.
"""

import numpy as np

from .errors import RankDeficient, SingularMatrix

# Condition-number cap: above this, solves are treated as singular instead
# of silently returning garbage.
DEFAULT_COND_CAP = 1e12


def right_pseudoinverse(B: np.ndarray, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    """Right pseudoinverse Bt(B Bt)^-1 of a full-row-rank M x N matrix, M <= N.

    Raises SingularMatrix when cond(B Bt) exceeds ``cond_cap``.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m, n = B.shape
    if m > n:
        raise ValueError(f"need M <= N, got shape {B.shape}")
    s = np.linalg.svd(B, compute_uv=False)
    if s[0] == 0.0 or s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > cond_cap:
        raise SingularMatrix(f"B Bt condition number exceeds {cond_cap:g}")
    # Solve (B Bt) X = B, so X = (B Bt)^-1 B and the result is Xt.
    return np.linalg.solve(B @ B.T, B).T


def least_squares(A: np.ndarray, y: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Minimizer X of ||A X - y||_F^2 + ridge * ||X||_F^2.

    With ridge=0 the problem must have full column rank; otherwise
    RankDeficient is raised.
    """
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    y = np.asarray(y, dtype=float)
    n, m = A.shape
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if ridge == 0.0:
        rank_ok = len(s) == m and s[0] > 0.0 and s[-1] > s[0] * 1e-12
        if not rank_ok:
            raise RankDeficient("A'A is numerically singular and ridge=0")
        filt = 1.0 / s
    else:
        filt = s / (s * s + ridge)
    return (vt.T * filt) @ (u.T @ y)
