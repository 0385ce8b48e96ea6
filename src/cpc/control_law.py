"""Coordinate splitting, time reparameterization and the path feedback law.

Given a torque-to-acceleration control matrix ``B`` (N x M, full column
rank), the configuration coordinates are split into M controlled ones, whose
rows of B form a well-conditioned invertible block, and N-M free ones. The
covector block ``b`` annihilates B, so the projection ``b' q`` evolves
independently of the applied torques; matching that projection between the
current motion and a stored target trajectory yields a time offset ``t0``
and time scale ``s``, and feedback is applied only to the controlled
coordinates of the correspondingly renormalized target.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, mathkit
from .errors import (
    NotFullyActuated,
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from .target_store import DEFAULT_GUARD_TOL


@dataclass(frozen=True)
class CoordSplit:
    """Index split of the configuration coordinates (both ascending)."""

    controlled: tuple[int, ...]
    free: tuple[int, ...]


@dataclass(frozen=True)
class Reparam:
    """Time offset and time-scale factor relating current motion to a target."""

    t0: float
    s: float


@dataclass(frozen=True)
class GainSpec:
    """Feedback gain: k is the squared rate of the critically damped error
    dynamics, i.e. the proportional gain; the damping gain is 2 sqrt(k)."""

    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("gain k must be positive")

    @property
    def kappa(self) -> float:
        return float(np.sqrt(self.k))


def split_coordinates(B: np.ndarray) -> CoordSplit:
    """Choose M controlled coordinate indices by row-pivoted elimination.

    Pivot rows are picked greedily to maximize each pivot magnitude, which
    keeps the controlled block of B well conditioned. Deterministic: ties go
    to the lowest row index.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    if m > n:
        raise ValueError("control matrix must have at least as many rows as columns")
    scale = np.abs(B).max()
    if scale == 0.0:
        raise RankDeficient("control matrix is zero")
    work = B.copy()
    remaining = list(range(n))
    picked = []
    for col in range(m):
        sub = np.abs(work[remaining, col])
        best = int(np.argmax(sub))
        if sub[best] <= 1e-12 * scale:
            raise RankDeficient(f"column rank < {m}")
        row = remaining.pop(best)
        picked.append(row)
        pivot = work[row, col]
        for r in remaining:
            factor = work[r, col] / pivot
            work[r, col:] -= factor * work[row, col:]
    return CoordSplit(tuple(sorted(picked)), tuple(sorted(remaining)))


def null_covector(B: np.ndarray, split: CoordSplit) -> np.ndarray:
    """Covector block b (N x (N-M)) with b' B = 0 and -I on the free rows."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    b_chi = B[list(split.controlled), :]
    b_psi = B[list(split.free), :]
    s = np.linalg.svd(b_chi, compute_uv=False)
    if m > 0 and (s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > mathkit.DEFAULT_COND_CAP):
        raise SingularMatrix("controlled block of B is numerically singular")
    # W = B_psi B_chi^-1, shape (N-M, M).
    W = np.linalg.solve(b_chi.T, b_psi.T).T
    b = np.zeros((n, n - m))
    b[list(split.controlled), :] = W.T
    b[list(split.free), :] = -np.eye(n - m)
    return b


def reparam_params(
    x0: dynamics.State,
    xd: dynamics.State,
    b: np.ndarray,
    guard_tol: float = DEFAULT_GUARD_TOL,
) -> Reparam:
    """Time offset and scale aligning the target's unactuated motion with the
    current one.

    For one free coordinate this is exact; for more, it is the minimizer of
    the projected position/velocity mismatch. Raises VelocityBarDegenerate
    when the projected-velocity inner product is below ``guard_tol``.
    """
    qbar0 = b.T @ x0.q
    qdbar0 = b.T @ x0.qdot
    qbard = b.T @ xd.q
    qdbard = b.T @ xd.qdot
    denom = float(qdbard @ qdbar0)
    if abs(denom) <= guard_tol:
        raise VelocityBarDegenerate(f"|qdbar_d . qdbar_0| = {abs(denom):.3g} <= {guard_tol:g}")
    if b.shape[1] == 1:
        t0 = float(qbard[0] - qbar0[0]) / float(qdbar0[0])
        s = float(qdbard[0]) / float(qdbar0[0])
    else:
        t0 = float(qdbard @ (qbard - qbar0)) / denom
        s = float(qdbard @ qdbard) / denom
    return Reparam(t0, s)


def renormalized_target(xd: dynamics.State, rep: Reparam) -> tuple[np.ndarray, np.ndarray]:
    """Initial position and velocity of the reparameterized linear target
    q_r(t) = q_r0 + qdot_r * t."""
    if rep.s == 0.0:
        raise ValueError("time scale s must be nonzero")
    return xd.q - xd.qdot * (rep.t0 / rep.s), xd.qdot / rep.s


def cpc_tau(
    x0: dynamics.State,
    xd: dynamics.State,
    B: np.ndarray,
    split: CoordSplit,
    rep: Reparam,
    gain: GainSpec,
    tau_d: np.ndarray,
) -> np.ndarray:
    """Path feedback law: tau_d minus critically damped feedback on the
    controlled-coordinate error against the renormalized target."""
    q_r0, qdot_r = renormalized_target(xd, rep)
    ci = list(split.controlled)
    dchi = x0.q[ci] - q_r0[ci]
    dchidot = x0.qdot[ci] - qdot_r[ci]
    kappa = gain.kappa
    fb = gain.k * dchi + 2.0 * kappa * dchidot
    b_chi = np.atleast_2d(np.asarray(B, dtype=float))[ci, :]
    try:
        corr = np.linalg.solve(b_chi, fb)
    except np.linalg.LinAlgError as e:
        raise SingularMatrix("controlled block of B is singular") from e
    return np.asarray(tau_d, dtype=float) - corr


def feedforward_tau(
    params: dynamics.ChainParams,
    q: np.ndarray,
    qdot: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Torques producing the desired acceleration ``u`` on a fully actuated
    chain (minimum-norm when actuation is redundant)."""
    b_tau = dynamics.torque_distribution(params)
    n, m = b_tau.shape
    if m < n or np.linalg.matrix_rank(b_tau) < n:
        raise NotFullyActuated("feedforward needs one actuator per degree of freedom")
    terms = dynamics.manipulator_terms(params, q, qdot)
    pinv = mathkit.right_pseudoinverse(b_tau)
    return pinv @ (terms.D @ np.asarray(u, dtype=float) + terms.H)


def estimate_control_matrix(
    taus: np.ndarray,
    us: np.ndarray,
    ridge: float = 1e-8,
) -> np.ndarray:
    """Regress the control matrix from recorded (torque, acceleration) pairs.

    Minimizes sum_i ||u_i - B tau_i||^2 (+ ridge penalty) over the N x M
    matrix B.
    """
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    if taus.shape[0] != us.shape[0]:
        raise ValueError("torque and acceleration histories differ in length")
    X = mathkit.least_squares(taus, us, ridge=ridge)  # maps tau -> u, transposed
    return X.T
